//! The churn workload: in-process incremental recoloring of a 10k-station
//! corridor under 5 % churn, checked epoch by epoch against a from-scratch
//! Figure-1 run on the same seed.
//!
//! A run simulates [`TRAJECTORIES`] independent corridors, each seeded
//! from the run seed. Epoch costs drift with a corridor's history (where
//! its clique witness sits, how often it must be repaired), so one long
//! trajectory reads differently from seed to seed; the per-trajectory
//! percentiles and rates are reported as their median. Each corridor's
//! set-up calls, timed trajectory and from-scratch check run back to back,
//! so the timed parts are spread over the whole run rather than bunched
//! into one stretch of host contention.

use crate::child::peak_rss_kib;
use crate::report::RunReport;
use crate::stats;
use crate::workload::splitmix64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssg_netsim::{
    simulate_corridor, simulate_corridor_incremental_with, ChurnReport, DynamicsConfig, Policy,
};
use ssg_telemetry::Metrics;
use std::time::Instant;

/// Stations at epoch 0.
pub const STATIONS: usize = 10_000;

/// Per-epoch departure probability.
pub const CHURN: f64 = 0.05;

/// Independent corridors per run.
pub const TRAJECTORIES: u64 = 10;

/// Set-up calls (`epochs(0)`) timed per corridor.
pub const SETUP_REPS: usize = 3;

/// Epochs simulated per second of `--seconds`, over all trajectories.
/// Epochs are sequential (a closed loop), so the run length is set by the
/// epoch count; the from-scratch check afterwards costs about three times
/// the timed part.
pub const EPOCHS_PER_SECOND: f64 = 150.0;

/// The churning corridor: sparse (3 length units per station, radii in
/// 1..2) so distance-2 balls stay local, with arrivals balancing the 5 %
/// departures. The same shape as the `ssg bench` incremental section.
pub fn dynamics(epochs: usize) -> DynamicsConfig {
    DynamicsConfig::default()
        .initial(STATIONS)
        .epochs(epochs)
        .p_depart(CHURN)
        .arrivals_max((STATIONS as f64 * CHURN * 2.0).ceil() as usize)
        .corridor_len(STATIONS as f64 * 3.0)
        .range_min(1.0)
        .range_max(2.0)
        .t(2)
}

/// Epochs per trajectory in a run of `seconds`.
pub fn epochs_for(seconds: f64) -> usize {
    ((seconds * EPOCHS_PER_SECOND / TRAJECTORIES as f64).round() as usize).max(1)
}

fn rng(seed: u64, trajectory: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed, trajectory))
}

/// Runs trajectory `trajectory` of a run seeded `seed` incrementally.
pub fn simulate(seed: u64, trajectory: u64, epochs: usize, metrics: &Metrics) -> ChurnReport {
    simulate_corridor_incremental_with(dynamics(epochs), &mut rng(seed, trajectory), metrics)
}

/// Checks every epoch span of `inc` against a from-scratch optimal run of
/// the same trajectory; returns `span / optimum` per matching epoch.
pub fn check_epochs(
    report: &mut RunReport,
    seed: u64,
    trajectory: u64,
    inc: &ChurnReport,
) -> Vec<f64> {
    let full = simulate_corridor(
        dynamics(inc.epochs),
        Policy::OptimalL1,
        &mut rng(seed, trajectory),
    );
    if inc.epoch_spans.len() != full.epoch_spans.len() {
        report.fail(format!(
            "trajectory {trajectory}: {} incremental epochs, {} from scratch",
            inc.epoch_spans.len(),
            full.epoch_spans.len()
        ));
    }
    let mut ratios = Vec::with_capacity(inc.epochs);
    for (e, (&got, &want)) in inc.epoch_spans.iter().zip(&full.epoch_spans).enumerate() {
        let outcome = if got == want {
            Ok(())
        } else {
            Err(format!(
                "trajectory {trajectory} epoch {e}: incremental span {got} != optimum {want}"
            ))
        };
        if report.check(outcome).is_some() {
            ratios.push(if want == 0 {
                1.0
            } else {
                f64::from(got) / f64::from(want)
            });
        }
    }
    ratios
}

/// Times [`SETUP_REPS`] `epochs(0)` calls on corridor `trajectory`, in
/// seconds.
pub fn setup_times(seed: u64, trajectory: u64) -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            simulate(seed, trajectory, 0, &Metrics::disabled());
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Resets this process's peak resident set (`VmHWM`) to its current size.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Mean epoch time of one trajectory, in milliseconds.
pub fn mean_epoch_ms(r: &ChurnReport) -> f64 {
    stats::mean(
        &r.epoch_solve_ns
            .iter()
            .map(|&t| t as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// One end-to-end churn run. `setup_s` is the median of all set-up calls
/// (host contention slows stretches of a few hundred milliseconds by up
/// to a third, and the median ignores them); `peak_rss_mb` the largest
/// peak resident set of a timed trajectory, measured before its check.
pub fn run(seed: u64, seconds: f64) -> Result<RunReport, String> {
    let epochs = epochs_for(seconds);
    let mut report = RunReport::default();
    let (mut setup, mut runs, mut ratios, mut rss_kib) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for i in 0..TRAJECTORIES {
        setup.extend(setup_times(seed, i));
        reset_peak_rss()?;
        let inc = simulate(seed, i, epochs, &Metrics::disabled());
        rss_kib = rss_kib.max(peak_rss_kib("/proc/self/status")?);
        ratios.extend(check_epochs(&mut report, seed, i, &inc));
        runs.push(inc);
    }
    let median_of = |f: &dyn Fn(&ChurnReport) -> f64| -> f64 {
        stats::median(&runs.iter().map(f).collect::<Vec<_>>())
    };
    let pct_ms = |r: &ChurnReport, q: f64| {
        let mut v = r.epoch_solve_ns.clone();
        v.sort_unstable();
        stats::percentile(&v, q) as f64 / 1e6
    };
    let mut all: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.epoch_solve_ns.iter().copied())
        .collect();
    all.sort_unstable();
    let all_ms = |q: f64| stats::percentile(&all, q) as f64 / 1e6;
    let tail = stats::tail_percentile(all.len())
        .map(|q| format!("p{q} = {} ms", all_ms(q)))
        .unwrap_or_else(|| "none".into());
    report.notes.push(format!(
        "p99_ms = {} ms over {} epochs (ungated); highest percentile with >= 10 beyond: {tail}",
        all_ms(99.0),
        all.len()
    ));
    report.notes.push(format!(
        "{TRAJECTORIES} trajectories x {epochs} epochs; {} stations recolored per epoch on \
         average; {} full resolves",
        stats::mean(
            &runs
                .iter()
                .flat_map(|r| r.epoch_recolored.iter().map(|&n| n as f64))
                .collect::<Vec<_>>()
        ),
        runs.iter().map(|r| r.full_resolves).sum::<usize>()
    ));

    let ok = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
    report.metric("setup_s", stats::median(&setup), "s");
    report.metric("p50_ms", median_of(&|r| pct_ms(r, 50.0)), "ms");
    report.metric("p90_ms", median_of(&|r| pct_ms(r, 90.0)), "ms");
    report.metric("sat_rps", median_of(&|r| 1e3 / mean_epoch_ms(r)), "1/s");
    report.metric("ok_ratio", ok, "ratio");
    report.metric("span_over_lb", stats::mean(&ratios), "ratio");
    report.metric("retune_ratio", median_of(&|r| r.mean_churn), "ratio");
    report.metric("peak_rss_mb", rss_kib as f64 / 1024.0, "MB");
    Ok(report)
}
