//! Deterministic execution of one grid cell.
//!
//! Static cells (`churn = none`) generate their scenario from the cell
//! seed and run one assignment through the shared
//! [`ssg_netsim::GridRunner`] on the cell's backend — the lab
//! does not reimplement execution, it drives the same harness
//! `EXPERIMENTS.md` sweeps use. Churn cells run the corridor dynamics
//! simulation at the cell's departure rate.
//!
//! Every cell runs under a tracing [`Metrics`] handle, so a failing or
//! regressing cell always has an `ssg-trace/v1` flight-recorder dump ready
//! to write next to its row.

use crate::spec::{Cell, Class};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssg_error::SsgError;
use ssg_labeling::solver::{default_registry, InstanceKind, Problem};
use ssg_labeling::{all_violations, SeparationVector, Workspace};
use ssg_netsim::dynamics::simulate_corridor_with;
use ssg_netsim::{
    simulate_corridor, BackboneNetwork, CorridorNetwork, DynamicsConfig, GridBackend, GridRunner,
    Policy, VehicularNetwork,
};
use ssg_telemetry::json::Json;
use ssg_telemetry::{Hist, Metrics};
use std::time::Instant;

/// Span-event capacity of the per-cell flight recorder.
const CELL_RECORDER_CAPACITY: usize = 4 * 1024;

/// Epochs every churn cell simulates — fixed so the deterministic columns
/// of a cell depend only on its canonical key.
pub const CHURN_EPOCHS: usize = 8;

/// Result of executing one cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// `true` iff the cell solved without error and its certification
    /// check held.
    pub ok: bool,
    /// Static cells: the assignment span. Churn cells: the sum of the
    /// per-epoch spans. Deterministic in the cell key.
    pub span: u64,
    /// The certification check: no separation violations (static `auto`
    /// cells), per-epoch span equality against the from-scratch optimum
    /// (`incremental` churn cells), vacuously `true` elsewhere.
    pub spans_match: bool,
    /// The failure, if the cell errored instead of solving.
    pub error: Option<String>,
    /// Wall-clock nanoseconds of the whole cell (not deterministic; kept
    /// out of report tables).
    pub wall_ns: u64,
    /// Counter snapshot of the cell's metrics handle.
    pub counters: Json,
    /// p50/p90/p99 of the cell's solver-solve latency histogram.
    pub quantiles: Json,
    /// The cell's `ssg-trace/v1` flight-recorder dump.
    pub trace: Json,
}

/// What a solve produced, before telemetry is folded in.
struct Solved {
    span: u64,
    spans_match: bool,
}

/// Executes `cell` deterministically: same cell key → same `span`,
/// `spans_match`, `ok`, and `error` on every run and every machine.
pub fn execute_cell(cell: &Cell) -> CellOutcome {
    let metrics = Metrics::with_tracing(CELL_RECORDER_CAPACITY);
    let start = Instant::now();
    let result = if cell.is_churn() {
        run_churn(cell, &metrics)
    } else {
        run_static(cell, &metrics)
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    let snap = metrics.snapshot();
    let trace = metrics
        .recorder()
        .map(|r| r.to_json())
        .unwrap_or(Json::Null);
    let (span, spans_match, error) = match result {
        Ok(s) => (s.span, s.spans_match, None),
        Err(e) => (0, false, Some(e.to_string())),
    };
    CellOutcome {
        ok: error.is_none() && spans_match,
        span,
        spans_match,
        error,
        wall_ns,
        counters: snap.counters_json(),
        quantiles: snap
            .hist(Hist::SolverSolve)
            .quantiles_json(&[("p50", 0.5), ("p90", 0.9), ("p99", 0.99)]),
        trace,
    }
}

fn parse_sep(token: &str) -> Result<SeparationVector, SsgError> {
    let deltas: Vec<u32> = token
        .split(',')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| SsgError::Spec(format!("bad separation token `{token}`")))?;
    Ok(SeparationVector::new(deltas)?)
}

/// One-shot assignment through the shared grid harness on the cell's
/// backend. The grid is 1×1 — the point is that lab cells and
/// EXPERIMENTS.md sweeps exercise the exact same runner and backends.
fn run_static(cell: &Cell, metrics: &Metrics) -> Result<Solved, SsgError> {
    let backend = GridBackend::parse(&cell.backend)
        .ok_or_else(|| SsgError::Spec(format!("bad backend token `{}`", cell.backend)))?;
    // The closure may run on a pool or engine thread; the tracing handle
    // is cloned in (it is an `Arc` fan-out) so the solver histogram and
    // span events land on the cell's recorder whatever the backend.
    let m = metrics.clone();
    let grid = GridRunner::new()
        .backend(backend)
        .metrics(metrics.clone())
        .run(
            std::slice::from_ref(cell),
            &[cell.seed()],
            move |cell, seed, ws| -> Result<(u64, bool), SsgError> {
                let solved = solve_static_cell(cell, seed, ws, &m)?;
                Ok((solved.span, solved.spans_match))
            },
        );
    let (span, spans_match) = grid
        .into_iter()
        .flatten()
        .next()
        .expect("a 1x1 grid has one cell")?;
    Ok(Solved { span, spans_match })
}

/// The body of a static cell: generate the scenario from the seed, solve,
/// and certify.
fn solve_static_cell(
    cell: &Cell,
    seed: u64,
    ws: &mut Workspace,
    m: &Metrics,
) -> Result<Solved, SsgError> {
    let sep = parse_sep(&cell.sep)?;
    let registry = default_registry();
    let mut rng = StdRng::seed_from_u64(seed);
    // A named solver gets the instance shape it declares (a graph solver
    // like `greedy_bfs` takes the bare conflict graph; structural solvers
    // take the class representation, and interval solvers take a platoon's
    // unit-interval one as is). A shape the scenario cannot provide falls
    // through as a `ClassMismatch` row error from `try_solve`.
    let kind = registry.get(&cell.solver).map(|s| s.instance_kind());
    let mut named = |problem: &Problem| -> Result<Solved, SsgError> {
        let lab = registry.try_solve(&cell.solver, problem, ws, m)?;
        let span = u64::from(lab.span());
        ws.recycle(lab);
        Ok(Solved {
            span,
            spans_match: true,
        })
    };
    match cell.class {
        Class::Corridor => {
            let net = CorridorNetwork::generate(cell.n, 1.0, 1.0, 5.0, &mut rng);
            if cell.solver == "auto" {
                return auto_solve(net.graph(), &sep, ws, m);
            }
            match kind {
                Some(InstanceKind::Graph) | None => named(&Problem::graph(net.graph(), &sep)),
                _ => named(&Problem::interval(net.representation(), &sep)),
            }
        }
        Class::Platoon => {
            let net = VehicularNetwork::platoon(cell.n, 4, &mut rng);
            if cell.solver == "auto" {
                return auto_solve(net.graph(), &sep, ws, m);
            }
            match kind {
                Some(InstanceKind::Graph) | None => named(&Problem::graph(net.graph(), &sep)),
                _ => named(&Problem::unit_interval(net.representation(), &sep)),
            }
        }
        Class::Backbone => {
            let net = BackboneNetwork::generate(cell.n, 4, &mut rng);
            if cell.solver == "auto" {
                return auto_solve(net.graph(), &sep, ws, m);
            }
            match kind {
                Some(InstanceKind::Tree) => named(&Problem::tree(net.tree(), &sep)),
                _ => named(&Problem::graph(net.graph(), &sep)),
            }
        }
    }
}

/// Auto-dispatched solve on the original graph; the labeling comes back
/// in original vertex ids, so it is verified against the full separation
/// constraints before the span is trusted.
fn auto_solve(
    g: &ssg_graph::Graph,
    sep: &SeparationVector,
    ws: &mut Workspace,
    m: &Metrics,
) -> Result<Solved, SsgError> {
    let registry = default_registry();
    let out = registry.auto_coloring(g, sep, ws, m);
    let spans_match = all_violations(g, sep, out.labeling.colors()).is_empty();
    let span = u64::from(out.labeling.span());
    ws.recycle(out.labeling);
    Ok(Solved { span, spans_match })
}

/// Corridor dynamics at the cell's churn rate: [`CHURN_EPOCHS`] epochs,
/// departure probability from the spec, span summed over epochs. The
/// `incremental` policy is also run against the from-scratch optimum on
/// the same seed, which certifies per-epoch span equality.
fn run_churn(cell: &Cell, metrics: &Metrics) -> Result<Solved, SsgError> {
    let rate: f64 = cell
        .churn
        .parse()
        .map_err(|_| SsgError::Spec(format!("bad churn token `{}`", cell.churn)))?;
    let cfg = DynamicsConfig::default()
        .initial(cell.n)
        .epochs(CHURN_EPOCHS)
        .p_depart(rate)
        .t(2);
    let seed = cell.seed();
    let policy = match cell.solver.as_str() {
        "incremental" => Policy::Incremental,
        "greedy" => Policy::Greedy,
        _ => Policy::OptimalL1,
    };
    let rep = simulate_corridor_with(cfg, policy, &mut StdRng::seed_from_u64(seed), metrics);
    let spans_match = policy != Policy::Incremental || {
        let full = simulate_corridor(cfg, Policy::OptimalL1, &mut StdRng::seed_from_u64(seed));
        rep.epoch_spans == full.epoch_spans
    };
    Ok(Solved {
        span: rep.epoch_spans.iter().map(|&s| u64::from(s)).sum(),
        spans_match,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LabSpec;

    fn cell_from(spec: &str, idx: usize) -> Cell {
        LabSpec::parse(spec).unwrap().cells()[idx].clone()
    }

    #[test]
    fn static_cells_are_deterministic_across_backends() {
        let spec = "name = t\n[grid]\nclass = corridor\nn = 24\nbackend = sequential pooled engine:2\n";
        let outcomes: Vec<CellOutcome> = (0..3)
            .map(|i| execute_cell(&cell_from(spec, i)))
            .collect();
        for o in &outcomes {
            assert!(o.ok, "{:?}", o.error);
            assert!(o.spans_match);
        }
        // Same scenario axes, different backend tokens: different seeds,
        // but re-executing the same cell reproduces its span exactly.
        let again = execute_cell(&cell_from(spec, 2));
        assert_eq!(again.span, outcomes[2].span);
        assert_eq!(again.ok, outcomes[2].ok);
    }

    #[test]
    fn named_solver_and_class_mismatch() {
        let ok = cell_from("name = t\n[grid]\nclass = platoon\nn = 16\nsolver = greedy_bfs\n", 0);
        let out = execute_cell(&ok);
        assert!(out.ok, "{:?}", out.error);
        assert!(out.span > 0);
        // A tree solver on an interval instance fails with a class
        // mismatch — captured as a row error, not a panic.
        let bad = cell_from("name = t\n[grid]\nclass = corridor\nn = 16\nsolver = tree_l1\n", 0);
        let out = execute_cell(&bad);
        assert!(!out.ok);
        assert!(out.error.unwrap().contains("class mismatch"));
    }

    #[test]
    fn churn_cells_certify_incremental_spans() {
        let spec = "name = t\n[grid]\nclass = corridor\nn = 30\nsolver = incremental optimal_l1\nchurn = 0.1\n";
        let inc = execute_cell(&cell_from(spec, 0));
        assert!(inc.ok, "{:?}", inc.error);
        assert!(inc.spans_match);
        let full = execute_cell(&cell_from(spec, 1));
        assert!(full.ok);
        assert!(inc.span > 0 && full.span > 0);
    }

    #[test]
    fn every_cell_carries_a_trace_dump() {
        let cell = cell_from("name = t\n[grid]\nclass = backbone\nn = 20\n", 0);
        let out = execute_cell(&cell);
        assert_eq!(
            out.trace.get("schema").and_then(Json::as_str),
            Some("ssg-trace/v1")
        );
    }
}
