//! The engine's core correctness contract: batch results are
//! **bit-identical** to sequential [`SolverRegistry`] solves, at every
//! worker count. Sharding, stealing, and workspace reuse must never
//! change a single color.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssg_engine::{Engine, LabelRequest, RequestInstance, SolverHint};
use ssg_graph::generators;
use ssg_labeling::auto::GraphClass;
use ssg_labeling::solver::{auto_route, Problem};
use ssg_labeling::{Labeling, SeparationVector, SolverRegistry, SsgError, Workspace};
use ssg_telemetry::Metrics;
use ssg_tree::RootedTree;

/// A mixed bag of requests across every instance shape, seeded from one
/// proptest-chosen u64 so runs are reproducible: one named solver per
/// shape, then auto requests on the tree, interval and unit-interval
/// shapes at all-ones, `(δ1, 1)` and `(δ1, δ2)` (the last has no route on
/// trees or intervals).
fn build_requests(seed: u64, per_shape: usize) -> Vec<LabelRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reqs = Vec::new();
    let mut id = 0u64;
    for i in 0..per_shape {
        let n = 6 + (i % 7) * 4;

        let g = generators::random_tree(n, &mut rng);
        let tree = RootedTree::bfs_canonical(&g, 0).unwrap();
        reqs.push(
            LabelRequest::new(
                id,
                RequestInstance::Tree(tree.clone()),
                SeparationVector::all_ones(2),
            )
            .solver("tree_l1"),
        );
        id += 1;

        let unit = ssg_intervals::gen::random_connected_unit_intervals(n, 0.5, &mut rng);
        reqs.push(
            LabelRequest::new(
                id,
                RequestInstance::Interval(unit.as_interval().clone()),
                SeparationVector::all_ones(2),
            )
            .solver("interval_l1"),
        );
        id += 1;

        reqs.push(
            LabelRequest::new(
                id,
                RequestInstance::UnitInterval(unit.clone()),
                SeparationVector::two(3, 1).unwrap(),
            )
            .solver("unit_interval_l_delta1_delta2"),
        );
        id += 1;

        let g = generators::random_connected(n, n + n / 2, &mut rng);
        reqs.push(LabelRequest::new(
            id,
            RequestInstance::Graph(g),
            SeparationVector::two(2, 1).unwrap(),
        ));
        id += 1;

        let shaped = [
            RequestInstance::Tree(tree),
            RequestInstance::Interval(unit.as_interval().clone()),
            RequestInstance::UnitInterval(unit),
        ];
        for instance in shaped {
            for sep in [
                SeparationVector::all_ones(2),
                SeparationVector::two(3, 1).unwrap(),
                SeparationVector::two(4, 2).unwrap(),
            ] {
                reqs.push(LabelRequest::new(id, instance.clone(), sep));
                id += 1;
            }
        }
    }
    reqs
}

/// The sequential reference: one registry, one warm workspace, auto
/// requests resolved through the registry's route table. `None` = the
/// request has no auto route.
fn sequential_reference(reqs: &[LabelRequest]) -> Vec<Option<Labeling>> {
    let registry = SolverRegistry::with_paper_algorithms();
    let mut ws = Workspace::new();
    let m = Metrics::disabled();
    reqs.iter()
        .map(|req| {
            let sep = &req.sep;
            let (problem, class) = match &req.instance {
                RequestInstance::Tree(t) => (Problem::tree(t, sep), GraphClass::Tree),
                RequestInstance::Interval(rep) => {
                    (Problem::interval(rep, sep), GraphClass::Interval)
                }
                RequestInstance::UnitInterval(rep) => {
                    (Problem::unit_interval(rep, sep), GraphClass::ProperInterval)
                }
                RequestInstance::Graph(g) if req.hint == SolverHint::Auto => {
                    return Some(registry.auto_coloring(g, sep, &mut ws, &m).labeling);
                }
                RequestInstance::Graph(g) => (Problem::graph(g, sep), GraphClass::Unknown),
            };
            let name = match &req.hint {
                SolverHint::Named(name) => name.as_str(),
                SolverHint::Auto => auto_route(class, sep)?,
            };
            Some(registry.try_solve(name, &problem, &mut ws, &m).unwrap())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batches_match_sequential_solves_at_every_worker_count(seed in 0u64..u64::MAX) {
        let requests = build_requests(seed, 3);
        let expected = sequential_reference(&requests);
        for workers in [1usize, 2, 8] {
            let engine = Engine::builder().workers(workers).build();
            let responses = engine.run_batch(requests.clone());
            prop_assert_eq!(responses.len(), expected.len());
            for (response, want) in responses.iter().zip(&expected) {
                match (&response.result, want) {
                    (Ok(out), Some(want)) => prop_assert_eq!(
                        out.labeling.colors(),
                        want.colors(),
                        "workers={} batch_index={} solver={}",
                        workers,
                        response.batch_index,
                        out.algorithm
                    ),
                    (Err(SsgError::Spec(_)), None) => {}
                    (got, want) => prop_assert!(
                        false,
                        "workers={} batch_index={}: engine {:?}, reference {:?}",
                        workers,
                        response.batch_index,
                        got.as_ref().map(|o| &o.algorithm),
                        want.as_ref().map(Labeling::span)
                    ),
                }
            }
            engine.shutdown();
        }
    }
}
