//! Serving workloads end to end: `ssg serve` as a child process, driven
//! through warm-up, the recorded open-loop phase and saturation, with
//! every reply checked after the server has exited.
//!
//! The recorded phase is cut into one-second blocks of schedule; `p50_ms`
//! and `p90_ms` come from the medians over blocks of each block's exact
//! percentiles, and `sat_rps` is the median over half-second windows of
//! the saturation bursts. Latency counts from each request's due time, so a
//! send the generator makes late is charged to the reply; a run whose
//! generator sent its median request more than [`MAX_LATE_MS`] late could
//! not keep its schedule at all and reports no numbers.

use crate::check::{self, Quality};
use crate::child::ServeChild;
use crate::client::{self, Exchange, Traffic};
use crate::report::RunReport;
use crate::stats;
use crate::workload::{label_spec, sampled, Phases, ServeProfile, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// Extra server start-ups timed before each cycle; `setup_s` is the
/// median of these and the serving server's own start-up. Spreading them
/// over the run keeps one stretch of host contention from setting it.
pub const SETUP_REPS_PER_CYCLE: usize = 4;

/// Bound on the generator's median send lateness, in milliseconds; past
/// it the generator is starved, not merely delayed. Tighter bounds are
/// reported but not gated: on a virtual machine, periods of host
/// contention lasting minutes delay up to half the wake-ups by 0.5 ms and
/// 1–10 % of them by 2–4 ms, and a run must still report.
pub const MAX_LATE_MS: f64 = 5.0;

/// Seconds of open-loop schedule per block.
pub const BLOCK_SECONDS: f64 = 1.0;

/// Seconds per saturation throughput window.
pub const SATURATION_WINDOW_SECONDS: f64 = 0.5;

/// Slack past the planned end of a phase before the client gives up.
const GIVE_UP_SLACK: Duration = Duration::from_secs(60);

/// What the reply handler keeps from one reply line.
#[derive(Debug)]
pub enum Kept {
    /// Passed the structural check; not in the full-check sample.
    Plain,
    /// Passed the structural check; labels kept for the full check.
    Sampled(Vec<u32>),
    /// Failed the structural check.
    Failed(String),
}

/// The exchanges of one driven run.
#[derive(Debug)]
pub struct Driven {
    /// Warm-up and recorded open-loop exchanges (`k < warm + recorded`).
    pub open: Vec<Exchange<Kept>>,
    /// Saturation exchanges (`k >= SATURATION_K`).
    pub saturation: Vec<Exchange<Kept>>,
    /// Start and length of each saturation burst.
    pub bursts: Vec<(Instant, Duration)>,
    /// Requests in warm-up; the recorded phase is `warm..warm + recorded`.
    pub warm: u64,
    /// Requests in the recorded open-loop phase.
    pub recorded: u64,
    /// Open-loop arrival rate.
    pub rate_rps: f64,
    /// Request types in the rotating mix; request `k` has type `k % mix_len`.
    pub mix_len: u64,
}

/// Saturation bursts per run. The recorded open-loop phase is cut into as
/// many stretches, each followed by a burst, so both phases sample the
/// host across the whole run instead of one stretch of it.
pub const CYCLES: u64 = 4;

/// First request index of the saturation bursts, far above any open-loop
/// index, so the open-loop stream stays the same whatever the bursts send.
pub const SATURATION_K: u64 = 1 << 40;

/// Drives the phases against a server at `addr`: the open-loop warm-up
/// and recorded phase, and (if `saturate`) [`CYCLES`] closed-loop
/// saturation bursts, each after one stretch of the recorded phase.
/// `before_cycle` runs before each stretch, while the server is idle.
pub fn drive(
    addr: &str,
    profile: &ServeProfile,
    seed: u64,
    seconds: f64,
    saturate: bool,
    before_cycle: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Driven, String> {
    let phases = Phases::for_seconds(seconds);
    let (warm, recorded) = phases.open_counts(profile.rate_rps);
    let line_for = |k: u64| label_spec(profile, seed, k).render();
    let on_reply = |k: u64, line: String| {
        let spec = label_spec(profile, seed, k);
        match check::structural(&spec, &line) {
            Ok(colors) if sampled(seed, k) => Kept::Sampled(colors),
            Ok(_) => Kept::Plain,
            Err(e) => Kept::Failed(format!("request {k}: {e}")),
        }
    };
    let traffic = Traffic {
        line_for: &line_for,
        on_reply: &on_reply,
    };
    let cycles = if saturate { CYCLES } else { 1 };
    let burst = phases.saturation / CYCLES as u32;
    let (mut open, mut saturation, mut bursts) = (Vec::new(), Vec::new(), Vec::new());
    let mut next_sat = SATURATION_K;
    // Warm-up runs on the same schedule as the first stretch.
    let mut start = 0;
    for c in 1..=cycles {
        before_cycle()?;
        let end = warm + recorded * c / cycles;
        let t0 = Instant::now() + Duration::from_millis(20);
        let span = Duration::from_secs_f64((end - start) as f64 / profile.rate_rps);
        let give_up = t0 + span + GIVE_UP_SLACK;
        open.extend(client::open_loop(
            addr,
            t0,
            profile.rate_rps,
            start..end,
            &traffic,
            give_up,
        )?);
        start = end;
        if saturate {
            let give_up = Instant::now() + burst + GIVE_UP_SLACK;
            let (ex, began) = client::closed_loop(addr, next_sat, burst, &traffic, give_up)?;
            next_sat = ex.iter().map(|e| e.k + 1).max().unwrap_or(next_sat);
            saturation.extend(ex);
            bursts.push((began, burst));
        }
    }
    Ok(Driven {
        open,
        saturation,
        bursts,
        warm,
        recorded,
        rate_rps: profile.rate_rps,
        mix_len: profile.mix.len() as u64,
    })
}

/// Latency summary of the recorded open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Geometric mean over request types of the type's p50 (the median
    /// over blocks of its exact per-block p50), ms.
    pub p50_ms: f64,
    /// The same for p90, ms.
    pub p90_ms: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
}

/// Summarizes the recorded phase and notes the ungated tail and lateness
/// figures on `report`. Percentiles are taken per request type and per
/// block of [`BLOCK_SECONDS`] of schedule: the types of a mix differ
/// several-fold in cost, so a percentile over the whole mix would sit on
/// the edge between two types and jump with the seed. Errors (no numbers)
/// when the generator fell behind its schedule.
pub fn open_loop_stats(driven: &Driven, report: &mut RunReport) -> Result<OpenLoop, String> {
    let per_block = ((driven.rate_rps * BLOCK_SECONDS).round() as u64).max(1);
    let n_blocks = driven.recorded.div_ceil(per_block) as usize;
    // blocks[type][block]: latencies of one request type in one block.
    let mut blocks = vec![vec![Vec::new(); n_blocks]; driven.mix_len as usize];
    let (mut lat, mut late) = (Vec::new(), Vec::new());
    for e in &driven.open {
        if let Some(i) =
            e.k.checked_sub(driven.warm)
                .filter(|i| *i < driven.recorded)
        {
            blocks[(e.k % driven.mix_len) as usize][(i / per_block) as usize].push(e.latency_ns);
            lat.push(e.latency_ns);
            late.push(e.late_ns);
        }
    }
    if lat.is_empty() {
        return Err("no replies in the recorded phase".into());
    }
    // A trailing block with under half a block of schedule is too short.
    let min_len = per_block / driven.mix_len / 2;
    for per_type in &mut blocks {
        per_type.retain(|b| b.len() as u64 > min_len);
    }
    if blocks.iter().any(Vec::is_empty) {
        return Err("the recorded phase is shorter than half a block".into());
    }
    lat.sort_unstable();
    late.sort_unstable();
    let ms = |sorted: &[u64], q: f64| stats::percentile(sorted, q) as f64 / 1e6;
    let late_p50 = ms(&late, 50.0);
    if late_p50 > MAX_LATE_MS {
        return Err(format!(
            "invalid run: the load generator sent its median request {late_p50:.3} ms late \
             (bound {MAX_LATE_MS} ms)"
        ));
    }
    report.notes.push(format!(
        "late_p50_ms = {late_p50} ms, late_p90_ms = {} ms, late_p99_ms = {} ms over {} sends",
        ms(&late, 90.0),
        ms(&late, 99.0),
        late.len()
    ));
    let tail = match stats::tail_percentile(lat.len()) {
        Some(q) => format!(
            "highest percentile with >= 10 beyond: p{q} = {} ms",
            ms(&lat, q)
        ),
        None => "too few samples for a tail percentile".into(),
    };
    report.notes.push(format!(
        "p99_ms = {} ms over {} open-loop samples (ungated); {tail}",
        ms(&lat, 99.0),
        lat.len()
    ));
    let per_type = |q: f64| -> Vec<f64> {
        blocks
            .iter()
            .map(|b| stats::block_percentile(b, q) / 1e6)
            .collect()
    };
    Ok(OpenLoop {
        p50_ms: stats::geomean(&per_type(50.0)),
        p90_ms: stats::geomean(&per_type(90.0)),
        mean_ms: stats::mean(&lat.iter().map(|&l| l as f64 / 1e6).collect::<Vec<_>>()),
    })
}

/// Median over [`SATURATION_WINDOW_SECONDS`] windows of every burst of
/// the replies per second received in the window.
pub fn saturation_rps(driven: &Driven) -> Result<f64, String> {
    let mut rates = Vec::new();
    for &(start, length) in &driven.bursts {
        let window = length.min(Duration::from_secs_f64(SATURATION_WINDOW_SECONDS));
        let windows = (length.as_secs_f64() / window.as_secs_f64()) as u32;
        for w in 0..windows {
            let (lo, hi) = (start + window * w, start + window * (w + 1));
            let replies = driven
                .saturation
                .iter()
                .filter(|e| e.received >= lo && e.received < hi)
                .count();
            rates.push(replies as f64 / window.as_secs_f64());
        }
    }
    if rates.is_empty() {
        return Err("the saturation phase did not run".into());
    }
    Ok(stats::median(&rates))
}

/// Full checks of every sampled reply, split over two threads (the server
/// has exited by now, so the cores are free). Returns `(k, outcome)`.
pub fn verify_samples(
    profile: &ServeProfile,
    seed: u64,
    samples: Vec<(u64, &[u32])>,
) -> Vec<(u64, Result<Quality, String>)> {
    let half = samples.len() / 2;
    let check = |part: &[(u64, &[u32])]| -> Vec<(u64, Result<Quality, String>)> {
        part.iter()
            .map(|&(k, colors)| {
                let spec = label_spec(profile, seed, k);
                let q = check::certify_spec(&spec, colors).map_err(|e| format!("request {k}: {e}"));
                (k, q)
            })
            .collect()
    };
    std::thread::scope(|s| {
        let second = s.spawn(|| check(&samples[half..]));
        let mut out = check(&samples[..half]);
        out.extend(second.join().expect("verification thread panicked"));
        out
    })
}

/// Records structural and full-check outcomes of every exchange on
/// `report`; returns the span / lower-bound ratios of sampled replies
/// with `k < ratio_below`.
pub fn check_exchanges(
    report: &mut RunReport,
    profile: &ServeProfile,
    seed: u64,
    exchanges: &[&Exchange<Kept>],
    ratio_below: u64,
) -> Vec<f64> {
    let mut samples = Vec::new();
    for e in exchanges {
        let outcome = match &e.result {
            Kept::Failed(reason) => Err(reason.clone()),
            Kept::Plain => Ok(()),
            Kept::Sampled(colors) => {
                samples.push((e.k, colors.as_slice()));
                Ok(())
            }
        };
        report.check(outcome);
    }
    let mut ratios = Vec::new();
    for (k, outcome) in verify_samples(profile, seed, samples) {
        match outcome {
            Ok(q) if k < ratio_below => ratios.push(q.ratio()),
            Ok(_) => {}
            Err(reason) => report.fail(reason),
        }
    }
    ratios
}

/// Starts and kills `reps` servers; returns each spawn-to-first-`PONG`
/// time in seconds.
pub fn time_setups(ssg: &Path, dir: &Path, reps: usize) -> Result<Vec<f64>, String> {
    // Dropping a child kills and reaps it.
    (0..reps)
        .map(|_| ServeChild::spawn(ssg, dir).map(|(_, took)| took.as_secs_f64()))
        .collect()
}

/// One end-to-end run of a serving workload.
pub fn run(
    ssg: &Path,
    dir: &Path,
    w: Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunReport, String> {
    let profile = w.serve_profile().expect("a serving workload");
    let (server, took) = ServeChild::spawn(ssg, dir)?;
    let mut setup = vec![took.as_secs_f64()];
    let driven = drive(server.addr(), &profile, seed, seconds, true, &mut || {
        setup.extend(time_setups(ssg, dir, SETUP_REPS_PER_CYCLE)?);
        Ok(())
    })?;
    let rss_kib = server.peak_rss_kib()?;
    let status = server.shutdown()?;

    let mut report = RunReport::default();
    if !status.success() {
        report.fail(format!("server exited with {status}"));
    }
    let open = open_loop_stats(&driven, &mut report)?;
    let sat_rps = saturation_rps(&driven)?;
    let all: Vec<&Exchange<Kept>> = driven.open.iter().chain(&driven.saturation).collect();
    let ratios = check_exchanges(
        &mut report,
        &profile,
        seed,
        &all,
        driven.warm + driven.recorded,
    );
    if ratios.is_empty() {
        report.fail("no sampled reply in the open-loop phase".into());
    }
    report.notes.push(format!(
        "{} saturation replies in {} bursts; {} open-loop replies fully verified",
        driven.saturation.len(),
        driven.bursts.len(),
        ratios.len()
    ));

    let ok = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
    report.metric("setup_s", stats::median(&setup), "s");
    report.metric("p50_ms", open.p50_ms, "ms");
    report.metric("p90_ms", open.p90_ms, "ms");
    report.metric("sat_rps", sat_rps, "1/s");
    report.metric("ok_ratio", ok, "ratio");
    report.metric("span_over_lb", stats::mean(&ratios), "ratio");
    // Every reply is a from-scratch assignment: all its stations are tuned.
    report.metric("retune_ratio", 1.0, "ratio");
    report.metric("peak_rss_mb", rss_kib as f64 / 1024.0, "MB");
    Ok(report)
}
