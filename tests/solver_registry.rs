//! Property tests for the [`SolverRegistry`]: routing a solve through the
//! registry must be **bit-identical** — same labeling, same telemetry
//! counters — to calling the direct `*_ws` entry point on a fresh
//! [`Workspace`], on arbitrary
//! seeded workloads. This is the refactor-safety net for the Solver/
//! Workspace layer: the registry's solvers share one arena, and nothing
//! about that sharing may leak into outputs or counters.

use proptest::prelude::*;
use strongly_simplicial::labeling::solver::{default_registry, Problem};
use strongly_simplicial::labeling::{baseline, interval, tree, unit_interval};
use strongly_simplicial::labeling::{Labeling, SeparationVector, Workspace};
use strongly_simplicial::prelude::*;
use strongly_simplicial::telemetry::{Counter, Metrics, Snapshot};

/// Arbitrary interval set: n in 1..=24, positions and lengths from floats.
fn arb_intervals() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..100.0, 0.1f64..20.0), 1..24)
        .prop_map(|v| v.into_iter().map(|(l, len)| (l, l + len)).collect())
}

/// Arbitrary unit-interval centers.
fn arb_centers() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..30.0, 1..24)
}

/// Arbitrary Prüfer sequence encoding a labelled tree on n vertices.
fn arb_tree() -> impl Strategy<Value = Graph> {
    (3usize..28).prop_flat_map(|n| {
        prop::collection::vec(0..n as u32, n - 2).prop_map(move |pruefer| {
            let edges = strongly_simplicial::graph::generators::prufer_to_edges(n, &pruefer);
            Graph::from_edges(n, &edges).expect("Prüfer decodes to a tree")
        })
    })
}

/// Asserts two solves agree on every telemetry counter (phase wall times
/// are excluded: they are measured, not derived).
fn assert_same_counters(registry: &Snapshot, direct: &Snapshot, what: &str) {
    for c in Counter::ALL {
        assert_eq!(
            registry.counter(c),
            direct.counter(c),
            "{what}: counter {} diverged between registry and direct call",
            c.name()
        );
    }
}

/// Runs `name` through the registry on a cold workspace and checks the
/// labeling and counters against the direct result, then solves again on
/// the now-warm workspace and checks the only counter allowed to change is
/// [`Counter::WorkspaceReuses`] (0 cold, 1 warm).
fn check_against(name: &str, problem: &Problem<'_>, direct: &Labeling, direct_m: &Metrics) {
    let mut ws = Workspace::new();
    let cold_m = Metrics::enabled();
    let cold = default_registry().solve(name, problem, &mut ws, &cold_m);
    assert_eq!(cold.colors(), direct.colors(), "{name}: cold labeling");
    assert_same_counters(&cold_m.snapshot(), &direct_m.snapshot(), name);
    ws.recycle(cold);

    let warm_m = Metrics::enabled();
    let warm = default_registry().solve(name, problem, &mut ws, &warm_m);
    assert_eq!(warm.colors(), direct.colors(), "{name}: warm labeling");
    assert_eq!(warm_m.snapshot().counter(Counter::WorkspaceReuses), 1);
    for c in Counter::ALL {
        if c != Counter::WorkspaceReuses {
            assert_eq!(
                warm_m.snapshot().counter(c),
                direct_m.snapshot().counter(c),
                "{name}: warm counter {}",
                c.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interval_solvers_match_direct_entry_points(
        intervals in arb_intervals(),
        t in 1u32..5,
        d1 in 1u32..6,
    ) {
        let rep = IntervalRepresentation::from_floats(&intervals).unwrap();

        let m = Metrics::enabled();
        let direct = interval::l1_coloring_ws(&rep, t, &mut Workspace::new(), &m);
        let sep = SeparationVector::all_ones(t);
        check_against("interval_l1", &Problem::interval(&rep, &sep), &direct.labeling, &m);

        let m = Metrics::enabled();
        let direct = interval::approx_delta1_coloring_ws(&rep, t, d1, &mut Workspace::new(), &m);
        let sep = SeparationVector::delta1_then_ones(d1, t).unwrap();
        check_against(
            "interval_approx_delta1",
            &Problem::interval(&rep, &sep),
            &direct.labeling,
            &m,
        );
    }

    #[test]
    fn unit_interval_solver_matches_direct_entry_point(
        centers in arb_centers(),
        d2 in 1u32..4,
        extra in 0u32..4,
    ) {
        let d1 = d2 + extra;
        let rep = UnitIntervalRepresentation::from_centers(&centers).unwrap();
        let m = Metrics::enabled();
        let direct = unit_interval::l_delta1_delta2_coloring_ws(&rep, d1, d2, &mut Workspace::new(), &m);
        let sep = SeparationVector::two(d1, d2).unwrap();
        check_against(
            "unit_interval_l_delta1_delta2",
            &Problem::unit_interval(&rep, &sep),
            &direct.labeling,
            &m,
        );
    }

    #[test]
    fn tree_and_greedy_solvers_match_direct_entry_points(
        g in arb_tree(),
        t in 1u32..4,
        d1 in 1u32..6,
    ) {
        let rooted = RootedTree::bfs_canonical(&g, 0).expect("Prüfer graph is a tree");

        let m = Metrics::enabled();
        let direct = tree::l1_coloring_ws(&rooted, t, &mut Workspace::new(), &m);
        let sep = SeparationVector::all_ones(t);
        check_against("tree_l1", &Problem::tree(&rooted, &sep), &direct.labeling, &m);

        let m = Metrics::enabled();
        let direct = tree::approx_delta1_coloring_ws(&rooted, t, d1, &mut Workspace::new(), &m);
        let sep = SeparationVector::delta1_then_ones(d1, t).unwrap();
        check_against("tree_approx_delta1", &Problem::tree(&rooted, &sep), &direct.labeling, &m);

        let sep = SeparationVector::all_ones(t);
        let m = Metrics::enabled();
        let direct = baseline::greedy_bfs_order_ws(&g, &sep, &mut Workspace::new(), &m);
        check_against("greedy_bfs", &Problem::graph(&g, &sep), &direct, &m);
    }

    #[test]
    fn warm_workspace_allocates_nothing_on_repeated_workloads(
        seed in 0u64..1000,
        t in 1u32..4,
    ) {
        // The zero-alloc acceptance check, on arbitrary seeds: after one
        // cold solve per shape, repeated same-sized A1/A4 solves neither
        // grow any buffer nor change the arena's capacity footprint.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let rep =
            strongly_simplicial::intervals::gen::random_connected_intervals(40, 0.5, 1.0, 3.0, &mut rng);
        let tree_g = strongly_simplicial::graph::generators::kary_tree(40, 3);
        let rooted = RootedTree::bfs_canonical(&tree_g, 0).unwrap();
        let sep = SeparationVector::all_ones(t);
        let registry = default_registry();

        let mut ws = Workspace::new();
        let baseline_colors = {
            let a = registry.solve("interval_l1", &Problem::interval(&rep, &sep), &mut ws, &Metrics::disabled());
            let b = registry.solve("tree_l1", &Problem::tree(&rooted, &sep), &mut ws, &Metrics::disabled());
            let out = (a.colors().to_vec(), b.colors().to_vec());
            ws.recycle(a);
            ws.recycle(b);
            out
        };
        let grows = ws.grow_events();
        let footprint = ws.capacity_footprint();
        for _ in 0..3 {
            let a = registry.solve("interval_l1", &Problem::interval(&rep, &sep), &mut ws, &Metrics::disabled());
            let b = registry.solve("tree_l1", &Problem::tree(&rooted, &sep), &mut ws, &Metrics::disabled());
            prop_assert_eq!(a.colors(), &baseline_colors.0[..]);
            prop_assert_eq!(b.colors(), &baseline_colors.1[..]);
            ws.recycle(a);
            ws.recycle(b);
            prop_assert_eq!(ws.grow_events(), grows, "warm solve grew a buffer");
            prop_assert_eq!(ws.capacity_footprint(), footprint, "warm solve reallocated");
        }
    }
}
