//! Dynamic channel assignment: stations arrive and depart over time, the
//! assignment is recomputed each epoch, and we measure *churn* — how many
//! surviving stations had to retune.
//!
//! The paper's algorithms are offline; this module quantifies the practical
//! cost of keeping them running as the workload drifts. One epoch loop,
//! [`simulate_corridor_with`], serves every [`Policy`]: it draws the fleet,
//! applies each epoch's departures and arrivals, times the epoch and
//! builds the [`ChurnReport`], so under one seed every policy sees the
//! same fleets. A policy supplies only its recolor step:
//!
//! * [`Policy::OptimalL1`] and [`Policy::Greedy`] rebuild the conflict
//!   graph and rerun Figure 1 or the greedy baseline from scratch;
//! * [`Policy::Incremental`] patches a persistent conflict graph and
//!   recolors only the epoch's dirty region, each patch certified optimal
//!   against a clique witness (see [`crate::incremental`]).
//!
//! (High churn is the classic argument for greedy/incremental schemes even
//! when an optimal offline algorithm exists.)

use crate::incremental::incremental_step;
use crate::scenario::{CorridorNetwork, Station};
use rand::Rng;
use ssg_labeling::baseline::greedy_bfs_order_ws;
use ssg_labeling::interval::l1_coloring_ws;
use ssg_labeling::{SeparationVector, Workspace, UNCOLORED};
use ssg_telemetry::{Hist, Metrics};
use std::time::Instant;

/// Which assignment policy the simulation runs each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Optimal `L(1,...,1)` via Figure 1, rerun from scratch.
    OptimalL1,
    /// Greedy BFS first-fit, rerun from scratch.
    Greedy,
    /// Delta patching plus region recoloring
    /// ([`crate::incremental`]): every epoch's span equals the optimal
    /// `L(1,...,1)` span, as under [`Policy::OptimalL1`].
    Incremental,
}

/// Aggregate result of a dynamic simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// Epochs simulated.
    pub epochs: usize,
    /// Mean span across epochs.
    pub mean_span: f64,
    /// Largest span in any epoch.
    pub max_span: u32,
    /// Mean fraction of *surviving* stations whose channel changed between
    /// consecutive epochs.
    pub mean_churn: f64,
    /// Total number of retunes across the run.
    pub total_retunes: usize,
    /// Mean station count per epoch.
    pub mean_stations: f64,
    /// Per-epoch solve times in nanoseconds, in epoch order. Each covers
    /// the conflict-graph rebuild or patch plus the solve: `ssg churn`
    /// prints their p50/p90/p99/max, and exact medians compare policies.
    pub epoch_solve_ns: Vec<u64>,
    /// Span of each epoch's assignment, in epoch order.
    pub epoch_spans: Vec<u32>,
    /// Stations whose channel was (re)computed in each epoch. A
    /// from-scratch policy recomputes everything; the incremental path
    /// only the dirty region.
    pub epoch_recolored: Vec<usize>,
    /// Stations whose channel was frozen (carried over unexamined) in each
    /// epoch. Always zero for from-scratch policies.
    pub epoch_frozen: Vec<usize>,
    /// Epochs that ran a from-scratch resolve. Equals `epochs` for the
    /// from-scratch policies; for the incremental path it counts region
    /// patches that were rejected or unprovable.
    pub full_resolves: usize,
}

/// Parameters of a dynamic corridor simulation.
///
/// Non-exhaustive builder-style config: start from [`DynamicsConfig::default`]
/// and chain the field-named setters, so adding a parameter later is not a
/// breaking change for downstream callers.
///
/// ```
/// use ssg_netsim::dynamics::DynamicsConfig;
///
/// let cfg = DynamicsConfig::default().initial(30).epochs(12).p_depart(0.15);
/// assert_eq!(cfg.initial, 30);
/// assert_eq!(cfg.range_min, DynamicsConfig::default().range_min);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsConfig {
    /// Stations at epoch 0.
    pub initial: usize,
    /// Epochs to simulate.
    pub epochs: usize,
    /// Per-epoch departure probability of each station.
    pub p_depart: f64,
    /// Per-epoch arrivals are uniform in `0..=arrivals_max`.
    pub arrivals_max: usize,
    /// Length of the corridor positions are drawn from.
    pub corridor_len: f64,
    /// Minimum hearing radius.
    pub range_min: f64,
    /// Maximum hearing radius.
    pub range_max: f64,
    /// Interference radius for the `L(1,...,1)` separation.
    pub t: u32,
}

impl Default for DynamicsConfig {
    /// A mid-sized corridor: 40 stations, 20 epochs, 10% churn pressure.
    fn default() -> Self {
        DynamicsConfig {
            initial: 40,
            epochs: 20,
            p_depart: 0.1,
            arrivals_max: 6,
            corridor_len: 30.0,
            range_min: 1.0,
            range_max: 3.0,
            t: 2,
        }
    }
}

impl DynamicsConfig {
    /// Sets the epoch-0 station count.
    #[must_use]
    pub fn initial(mut self, initial: usize) -> Self {
        self.initial = initial;
        self
    }

    /// Sets the number of epochs to simulate.
    #[must_use]
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the per-epoch departure probability.
    #[must_use]
    pub fn p_depart(mut self, p_depart: f64) -> Self {
        self.p_depart = p_depart;
        self
    }

    /// Sets the per-epoch arrival cap.
    #[must_use]
    pub fn arrivals_max(mut self, arrivals_max: usize) -> Self {
        self.arrivals_max = arrivals_max;
        self
    }

    /// Sets the corridor length.
    #[must_use]
    pub fn corridor_len(mut self, corridor_len: f64) -> Self {
        self.corridor_len = corridor_len;
        self
    }

    /// Sets the minimum hearing radius.
    #[must_use]
    pub fn range_min(mut self, range_min: f64) -> Self {
        self.range_min = range_min;
        self
    }

    /// Sets the maximum hearing radius.
    #[must_use]
    pub fn range_max(mut self, range_max: f64) -> Self {
        self.range_max = range_max;
        self
    }

    /// Sets the interference radius `t`.
    #[must_use]
    pub fn t(mut self, t: u32) -> Self {
        self.t = t;
        self
    }
}

/// A fleet member: its station plus one word of state owned by the
/// policy's recolor step — the channel the member carried into the epoch
/// (from scratch; [`UNCOLORED`] until its first assignment) or its vertex
/// in the patched slot graph ([`Policy::Incremental`]).
#[derive(Clone, Copy)]
pub(crate) struct Member {
    pub(crate) station: Station,
    pub(crate) tag: u32,
}

/// What a recolor step reports about its epoch.
pub(crate) struct EpochOutcome {
    /// Span of the committed assignment.
    pub(crate) span: u32,
    /// Survivors whose channel changed.
    pub(crate) retunes: usize,
    /// Stations whose channel was (re)computed.
    pub(crate) recolored: usize,
    /// Stations whose channel was carried over unexamined.
    pub(crate) frozen: usize,
    /// Whether the epoch ran a from-scratch resolve.
    pub(crate) full_resolve: bool,
}

/// A policy's recolor step. It is called with the fleet after the epoch's
/// departures and arrivals (the arrivals are `fleet[survivors..]`), the
/// departed members and `survivors`; it recolors the fleet and reports
/// the epoch.
pub(crate) type RecolorStep<'m> =
    Box<dyn FnMut(&mut [Member], &[Member], usize) -> EpochOutcome + 'm>;

/// Simulates `epochs` steps of a corridor in which, per epoch, each station
/// departs with probability `p_depart` and up to `arrivals_max` new
/// stations appear at uniform positions. Channels are reassigned each
/// epoch by `policy` at interference radius `t`. The from-scratch policies
/// recompute the *assignment*, not the allocations: one warm
/// [`Workspace`] is held across all epochs, so every epoch after the first
/// solves on recycled arenas.
pub fn simulate_corridor<R: Rng>(cfg: DynamicsConfig, policy: Policy, rng: &mut R) -> ChurnReport {
    simulate_corridor_with(cfg, policy, rng, &Metrics::disabled())
}

/// [`simulate_corridor`] with a telemetry handle: each epoch runs under a
/// `netsim.epoch` span, and every epoch's solve time is recorded both in
/// the returned report's [`ChurnReport::epoch_solve_ns`] and in the
/// handle's [`Hist::SolverSolve`] distribution.
pub fn simulate_corridor_with<R: Rng>(
    cfg: DynamicsConfig,
    policy: Policy,
    rng: &mut R,
    metrics: &Metrics,
) -> ChurnReport {
    let DynamicsConfig {
        initial,
        epochs,
        p_depart,
        arrivals_max,
        corridor_len,
        range_min,
        range_max,
        t,
    } = cfg;
    assert!((0.0..=1.0).contains(&p_depart));
    assert!(corridor_len > 0.0 && range_min > 0.0 && range_max >= range_min);
    let new_member = |rng: &mut R| Member {
        station: Station {
            position: rng.gen_range(0.0..corridor_len),
            range: rng.gen_range(range_min..=range_max),
        },
        tag: UNCOLORED,
    };
    let mut fleet: Vec<Member> = (0..initial).map(|_| new_member(rng)).collect();
    let mut recolor = match policy {
        Policy::OptimalL1 | Policy::Greedy => from_scratch_step(policy, t, metrics),
        Policy::Incremental => incremental_step(&mut fleet, t, range_max, metrics),
    };
    let mut departed: Vec<Member> = Vec::new();
    let mut spans = Vec::with_capacity(epochs);
    let mut churns = Vec::with_capacity(epochs);
    let mut sizes = Vec::with_capacity(epochs);
    let mut report = ChurnReport {
        epochs,
        mean_span: 0.0,
        max_span: 0,
        mean_churn: 0.0,
        total_retunes: 0,
        mean_stations: 0.0,
        epoch_solve_ns: Vec::with_capacity(epochs),
        epoch_spans: Vec::with_capacity(epochs),
        epoch_recolored: Vec::with_capacity(epochs),
        epoch_frozen: Vec::with_capacity(epochs),
        full_resolves: 0,
    };
    for _ in 0..epochs {
        let _epoch_span = metrics.span("netsim.epoch");
        // Departures and arrivals.
        departed.clear();
        fleet.retain(|&m| {
            let stays = !rng.gen_bool(p_depart);
            if !stays {
                departed.push(m);
            }
            stays
        });
        let survivors = fleet.len();
        let arrivals = rng.gen_range(0..=arrivals_max);
        for _ in 0..arrivals {
            fleet.push(new_member(rng));
        }
        if fleet.is_empty() {
            fleet.push(new_member(rng));
        }
        sizes.push(fleet.len() as f64);
        // Recompute the assignment. The timer covers the conflict-graph
        // rebuild or patch too — that cost is exactly what the incremental
        // policy amortizes, so excluding it would bias the comparison.
        let solve_start = Instant::now();
        let epoch = recolor(&mut fleet, &departed, survivors);
        let solve_ns = u64::try_from(solve_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        report.epoch_solve_ns.push(solve_ns);
        metrics.observe_ns(Hist::SolverSolve, solve_ns);
        report.max_span = report.max_span.max(epoch.span);
        spans.push(epoch.span as f64);
        report.epoch_spans.push(epoch.span);
        report.epoch_recolored.push(epoch.recolored);
        report.epoch_frozen.push(epoch.frozen);
        report.full_resolves += usize::from(epoch.full_resolve);
        report.total_retunes += epoch.retunes;
        churns.push(if survivors == 0 {
            0.0
        } else {
            epoch.retunes as f64 / survivors as f64
        });
    }
    report.mean_span = mean(&spans);
    report.mean_churn = mean(&churns);
    report.mean_stations = mean(&sizes);
    report
}

/// The from-scratch recolor step: rebuild the conflict network from the
/// fleet, solve it with Figure 1 (or the greedy baseline) on one warm
/// [`Workspace`], and write each channel back to its member, counting
/// survivors whose channel changed.
fn from_scratch_step(policy: Policy, t: u32, metrics: &Metrics) -> RecolorStep<'_> {
    let mut ws = Workspace::new();
    let sep = SeparationVector::all_ones(t);
    Box::new(move |fleet: &mut [Member], _: &[Member], _: usize| {
        let net = CorridorNetwork::from_stations(fleet.iter().map(|m| m.station).collect());
        let labeling = if policy == Policy::Greedy {
            greedy_bfs_order_ws(net.graph(), &sep, &mut ws, metrics)
        } else {
            l1_coloring_ws(net.representation(), t, &mut ws, metrics).labeling
        };
        let rep = net.representation();
        let (mut span, mut retunes) = (0, 0);
        for (v, &c) in labeling.colors().iter().enumerate() {
            let member = &mut fleet[rep.original_index(v as u32)];
            if member.tag != UNCOLORED && member.tag != c {
                retunes += 1;
            }
            member.tag = c;
            span = span.max(c);
        }
        ws.recycle(labeling);
        EpochOutcome {
            span,
            retunes,
            recolored: fleet.len(),
            frozen: 0,
            full_resolve: true,
        }
    })
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(
        initial: usize,
        epochs: usize,
        p_depart: f64,
        arrivals_max: usize,
        corridor_len: f64,
        t: u32,
    ) -> DynamicsConfig {
        DynamicsConfig::default()
            .initial(initial)
            .epochs(epochs)
            .p_depart(p_depart)
            .arrivals_max(arrivals_max)
            .corridor_len(corridor_len)
            .range_min(1.0)
            .range_max(3.0)
            .t(t)
    }

    #[test]
    fn simulation_runs_and_reports() {
        let mut rng = StdRng::seed_from_u64(131);
        let rep = simulate_corridor(cfg(40, 20, 0.1, 6, 30.0, 2), Policy::OptimalL1, &mut rng);
        assert_eq!(rep.epochs, 20);
        assert!(rep.mean_stations > 10.0);
        assert!(rep.mean_span > 0.0);
        assert!((0.0..=1.0).contains(&rep.mean_churn));
    }

    #[test]
    fn greedy_and_optimal_policies_both_work() {
        let mut rng = StdRng::seed_from_u64(132);
        let a = simulate_corridor(cfg(30, 12, 0.15, 5, 25.0, 2), Policy::Greedy, &mut rng);
        let mut rng = StdRng::seed_from_u64(132);
        let b = simulate_corridor(cfg(30, 12, 0.15, 5, 25.0, 2), Policy::OptimalL1, &mut rng);
        // Same RNG stream => same fleets; optimal span <= greedy span.
        assert!(b.mean_span <= a.mean_span + 1e-9);
        assert_eq!(a.epochs, b.epochs);
    }

    #[test]
    fn warm_workspace_channels_match_cold_solves() {
        let mut rng = StdRng::seed_from_u64(134);
        let nets: Vec<CorridorNetwork> = (0..3)
            .map(|_| CorridorNetwork::generate(30, 1.0, 1.0, 4.0, &mut rng))
            .collect();
        let m = Metrics::disabled();
        let sep = SeparationVector::all_ones(2);
        let mut ws = Workspace::new();
        for net in &nets {
            let warm = l1_coloring_ws(net.representation(), 2, &mut ws, &m).labeling;
            let cold = l1_coloring_ws(net.representation(), 2, &mut Workspace::new(), &m);
            assert_eq!(warm, cold.labeling);
            ws.recycle(warm);
            let warm = greedy_bfs_order_ws(net.graph(), &sep, &mut ws, &m);
            let cold = greedy_bfs_order_ws(net.graph(), &sep, &mut Workspace::new(), &m);
            assert_eq!(warm, cold);
            ws.recycle(warm);
        }
        assert_eq!(ws.solve_count(), 6);
    }

    #[test]
    fn epoch_solve_histogram_covers_every_epoch() {
        for policy in [Policy::OptimalL1, Policy::Greedy, Policy::Incremental] {
            let mut rng = StdRng::seed_from_u64(135);
            let metrics = Metrics::with_tracing(4096);
            let rep =
                simulate_corridor_with(cfg(30, 15, 0.1, 5, 25.0, 2), policy, &mut rng, &metrics);
            assert_eq!(rep.epoch_solve_ns.len(), 15, "{policy:?}: one per epoch");
            // The same observations roll up into the handle's solver histogram.
            let snap = metrics.snapshot();
            assert!(snap.hist(Hist::SolverSolve).count() >= 15);
            // Every policy's epochs run under a `netsim.epoch` span, and
            // Figure 1's phase spans nest inside them.
            let recorder = metrics.recorder().expect("tracing handle has a recorder");
            let events = recorder.events();
            let epochs = events.iter().filter(|e| e.name == "netsim.epoch").count();
            assert_eq!(epochs, 15, "{policy:?}");
            if policy == Policy::OptimalL1 {
                assert!(events.iter().any(|e| e.name.starts_with("interval.")));
            }
        }
    }

    #[test]
    fn disabled_metrics_report_matches_instrumented_run() {
        let mut rng = StdRng::seed_from_u64(136);
        let a = simulate_corridor(cfg(25, 10, 0.2, 4, 20.0, 2), Policy::Greedy, &mut rng);
        let mut rng = StdRng::seed_from_u64(136);
        let b = simulate_corridor_with(
            cfg(25, 10, 0.2, 4, 20.0, 2),
            Policy::Greedy,
            &mut rng,
            &Metrics::enabled(),
        );
        assert_eq!(a.mean_span, b.mean_span);
        assert_eq!(a.total_retunes, b.total_retunes);
        assert_eq!(a.epoch_solve_ns.len(), b.epoch_solve_ns.len());
    }

    #[test]
    fn all_departures_keeps_simulation_alive() {
        let mut rng = StdRng::seed_from_u64(133);
        let rep = simulate_corridor(
            DynamicsConfig::default()
                .initial(5)
                .epochs(8)
                .p_depart(1.0)
                .arrivals_max(0)
                .corridor_len(10.0)
                .range_min(1.0)
                .range_max(2.0)
                .t(1),
            Policy::OptimalL1,
            &mut rng,
        );
        assert_eq!(rep.epochs, 8);
        assert!(rep.mean_stations >= 1.0);
        assert_eq!(rep.total_retunes, 0, "no survivors => no retunes");
    }
}
