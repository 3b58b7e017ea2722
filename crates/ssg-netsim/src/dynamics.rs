//! Dynamic channel assignment: stations arrive and depart over time, the
//! assignment is recomputed each epoch, and we measure *churn* — how many
//! surviving stations had to retune.
//!
//! The paper's algorithms are offline; this module quantifies the practical
//! cost of rerunning them as the workload drifts, compared with the greedy
//! baseline. (High churn is the classic argument for greedy/incremental
//! schemes even when an optimal offline algorithm exists.)

use crate::scenario::{CorridorNetwork, Station};
use rand::Rng;
use ssg_labeling::baseline::greedy_bfs_order_ws;
use ssg_labeling::interval::l1_coloring_ws;
use ssg_labeling::{SeparationVector, Workspace};
use ssg_telemetry::hist::{HistSnapshot, Histogram};
use ssg_telemetry::{Hist, Metrics};
use std::collections::HashMap;
use std::time::Instant;

/// Which assignment policy the simulation reruns each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Optimal `L(1,...,1)` via Figure 1, rerun from scratch.
    OptimalL1,
    /// Greedy BFS first-fit, rerun from scratch.
    Greedy,
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
    /// Distribution of per-epoch solve times in nanoseconds (one
    /// observation per epoch, covering conflict-graph rebuild/patch plus
    /// the solve), for tail-latency reporting: `ssg churn` prints its
    /// p50/p90/p99/max.
    pub epoch_solve: HistSnapshot,
    /// Exact per-epoch solve times in nanoseconds, in epoch order — the
    /// unbucketed observations behind [`ChurnReport::epoch_solve`], for
    /// precise median comparisons between policies.
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

/// Simulates `epochs` steps of a corridor in which, per epoch, each station
/// departs with probability `p_depart` and up to `arrivals_max` new
/// stations appear at uniform positions. Channels are recomputed from
/// scratch each epoch with `policy` at interference radius `t` — "from
/// scratch" meaning the *assignment*, not the allocations: one warm
/// [`Workspace`] is held across all epochs, so every epoch after the first
/// solves on recycled arenas.
pub fn simulate_corridor<R: Rng>(cfg: DynamicsConfig, policy: Policy, rng: &mut R) -> ChurnReport {
    simulate_corridor_with(cfg, policy, rng, &Metrics::disabled())
}

/// [`simulate_corridor`] with a telemetry handle: each epoch runs under a
/// `netsim.epoch` span, and every epoch's solve time is rolled into both
/// the returned report's [`ChurnReport::epoch_solve`] histogram and the
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
    let mut next_id: u64 = 0;
    let mut new_station = |rng: &mut R| {
        let id = next_id;
        next_id += 1;
        (
            id,
            Station {
                position: rng.gen_range(0.0..corridor_len),
                range: rng.gen_range(range_min..=range_max),
            },
        )
    };
    let mut fleet: Vec<(u64, Station)> = (0..initial).map(|_| new_station(rng)).collect();
    let mut ws = Workspace::new();
    let sep = SeparationVector::all_ones(t);
    let mut prev: HashMap<u64, u32> = HashMap::new();
    let mut spans = Vec::with_capacity(epochs);
    let mut epoch_spans = Vec::with_capacity(epochs);
    let mut epoch_recolored = Vec::with_capacity(epochs);
    let mut churns = Vec::with_capacity(epochs);
    let mut sizes = Vec::with_capacity(epochs);
    let mut total_retunes = 0usize;
    let mut max_span = 0u32;
    let epoch_hist = Histogram::new();
    let mut epoch_solve_ns = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let _epoch_span = metrics.span("netsim.epoch");
        // Departures and arrivals.
        fleet.retain(|_| !rng.gen_bool(p_depart));
        let arrivals = rng.gen_range(0..=arrivals_max);
        for _ in 0..arrivals {
            fleet.push(new_station(rng));
        }
        if fleet.is_empty() {
            fleet.push(new_station(rng));
        }
        sizes.push(fleet.len() as f64);
        // Recompute the assignment. The timer covers the conflict-graph
        // rebuild too — that cost is exactly what the incremental path
        // amortizes, so excluding it would bias the comparison.
        let solve_start = Instant::now();
        let net = CorridorNetwork::from_stations(fleet.iter().map(|&(_, s)| s).collect());
        let channels = match policy {
            Policy::OptimalL1 => net.l1_channels_ws(t, &mut ws, metrics),
            Policy::Greedy => net.greedy_channels_ws(&sep, &mut ws, metrics),
        };
        let solve_ns = u64::try_from(solve_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        epoch_hist.record(solve_ns);
        epoch_solve_ns.push(solve_ns);
        metrics.observe_ns(Hist::SolverSolve, solve_ns);
        let span = channels.iter().copied().max().unwrap_or(0);
        max_span = max_span.max(span);
        spans.push(span as f64);
        epoch_spans.push(span);
        epoch_recolored.push(fleet.len());
        // Churn among survivors.
        let mut current: HashMap<u64, u32> = HashMap::with_capacity(fleet.len());
        for (i, &(id, _)) in fleet.iter().enumerate() {
            current.insert(id, channels[i]);
        }
        let survivors: Vec<u64> = current
            .keys()
            .copied()
            .filter(|id| prev.contains_key(id))
            .collect();
        let retunes = survivors
            .iter()
            .filter(|id| prev[id] != current[id])
            .count();
        total_retunes += retunes;
        churns.push(if survivors.is_empty() {
            0.0
        } else {
            retunes as f64 / survivors.len() as f64
        });
        prev = current;
    }
    ChurnReport {
        epochs,
        mean_span: mean(&spans),
        max_span,
        mean_churn: mean(&churns),
        total_retunes,
        mean_stations: mean(&sizes),
        epoch_solve: epoch_hist.snapshot(),
        epoch_solve_ns,
        epoch_spans,
        epoch_recolored,
        epoch_frozen: vec![0; epochs],
        full_resolves: epochs,
    }
}

pub(crate) fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

impl CorridorNetwork {
    /// Channels in **station order** (the order the network was built
    /// from) for the optimal `L(1,...,1)` assignment, solved on a
    /// caller-held [`Workspace`] (warm arenas across the dynamics epoch
    /// loop) with the solver's phase spans landing in `metrics`' trace.
    pub fn l1_channels_ws(&self, t: u32, ws: &mut Workspace, metrics: &Metrics) -> Vec<u32> {
        let out = l1_coloring_ws(self.representation(), t, ws, metrics);
        let channels = self.to_station_order(out.labeling.colors());
        ws.recycle(out.labeling);
        channels
    }

    /// Channels in station order for the greedy baseline, with the same
    /// workspace and telemetry handling as
    /// [`l1_channels_ws`](Self::l1_channels_ws).
    pub fn greedy_channels_ws(
        &self,
        sep: &SeparationVector,
        ws: &mut Workspace,
        metrics: &Metrics,
    ) -> Vec<u32> {
        let lab = greedy_bfs_order_ws(self.graph(), sep, ws, metrics);
        let channels = self.to_station_order(lab.colors());
        ws.recycle(lab);
        channels
    }

    /// Maps representation-ordered colors back to station order.
    fn to_station_order(&self, colors: &[u32]) -> Vec<u32> {
        let rep = self.representation();
        let mut out = vec![0u32; colors.len()];
        for v in 0..colors.len() as u32 {
            out[rep.original_index(v)] = colors[v as usize];
        }
        out
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
    fn station_order_channels_are_consistent() {
        let mut rng = StdRng::seed_from_u64(130);
        let net = CorridorNetwork::generate(50, 1.0, 1.0, 4.0, &mut rng);
        let ch = net.l1_channels_ws(2, &mut Workspace::new(), &Metrics::disabled());
        assert_eq!(ch.len(), 50);
        // Station-order channels must verify on the graph after applying the
        // inverse permutation (i.e. they are the same multiset and legal).
        let rep = net.representation();
        let mut back = vec![0u32; 50];
        for v in 0..50u32 {
            back[v as usize] = ch[rep.original_index(v)];
        }
        let sep = SeparationVector::all_ones(2);
        ssg_labeling::verify_labeling(&rep.to_graph(), &sep, &back).unwrap();
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
        let mut ws = Workspace::new();
        for net in &nets {
            assert_eq!(
                net.l1_channels_ws(2, &mut ws, &m),
                net.l1_channels_ws(2, &mut Workspace::new(), &m)
            );
            let sep = SeparationVector::all_ones(2);
            assert_eq!(
                net.greedy_channels_ws(&sep, &mut ws, &m),
                net.greedy_channels_ws(&sep, &mut Workspace::new(), &m)
            );
        }
        assert_eq!(ws.solve_count(), 6);
    }

    #[test]
    fn epoch_solve_histogram_covers_every_epoch() {
        let mut rng = StdRng::seed_from_u64(135);
        let metrics = Metrics::with_tracing(256);
        let rep = simulate_corridor_with(
            cfg(30, 15, 0.1, 5, 25.0, 2),
            Policy::OptimalL1,
            &mut rng,
            &metrics,
        );
        assert_eq!(rep.epoch_solve.count(), 15, "one observation per epoch");
        assert!(rep.epoch_solve.max() >= rep.epoch_solve.p50());
        // The same observations roll up into the handle's solver histogram.
        let snap = metrics.snapshot();
        assert!(snap.hist(Hist::SolverSolve).count() >= 15);
        // Each epoch ran under a `netsim.epoch` span, and the solver's own
        // phase spans nest inside it.
        let recorder = metrics.recorder().expect("tracing handle has a recorder");
        let events = recorder.events();
        let epochs = events.iter().filter(|e| e.name == "netsim.epoch").count();
        assert_eq!(epochs, 15);
        assert!(events.iter().any(|e| e.name.starts_with("interval.")));
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
        assert_eq!(a.epoch_solve.count(), b.epoch_solve.count());
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
