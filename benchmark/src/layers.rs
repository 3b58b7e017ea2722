//! The traced run: per-layer timings taken from outside the program.
//!
//! A serving workload first runs its open-loop phases against `ssg serve`
//! (untraced) for the end-to-end mean, then replays the same request
//! stream on the same schedule in process from two threads, following the
//! server's `serve_label` call for call: `parse_request` → `to_request` →
//! `Engine::submit`/`recv` (two workers) → `render_ok` → `parse_response`.
//! Each call is wrapped in a span on the harness's own
//! `Metrics::with_tracing` handle, and the recorder is dumped as
//! `ssg-trace/v1`, which `ssg profile` folds. A sampled post-pass times
//! `IntervalRepresentation::components` and the full certification, and
//! counts palette and sweep work with a `Metrics::enabled()` solve on a
//! warm workspace.
//!
//! Layers a workload never calls read 0: the churn workload has no wire
//! or engine, and serving workloads have no incremental path.

use crate::check;
use crate::child::ServeChild;
use crate::churn;
use crate::report::RunReport;
use crate::serve;
use crate::stats;
use crate::workload::{label_spec, sampled, Phases, ServeProfile, Workload};
use ssg_engine::{Engine, LabelRequest, LabelResponse, RequestInstance};
use ssg_labeling::{Problem, SeparationVector, SolverRegistry, Workspace};
use ssg_net::protocol::{parse_request, parse_response, render_ok, Request};
use ssg_telemetry::json::Json;
use ssg_telemetry::{Counter, Metrics, Profile, TraceDump};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Span events the replay recorder keeps (oldest dropped first).
const RECORDER_CAPACITY: usize = 1 << 15;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("net.parse_us", "us"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.reply_bytes", "bytes"),
    ("netsim.generate_us", "us"),
    ("netsim.generate_mean_us", "us"),
    ("engine.queue_wait_us", "us"),
    ("engine.queue_wait_p90_us", "us"),
    ("solver.interval_l1_us", "us"),
    ("solver.interval_approx_delta1_us", "us"),
    ("solver.unit_interval_l_delta1_delta2_us", "us"),
    ("solver.tree_l1_us", "us"),
    ("solver.tree_approx_delta1_us", "us"),
    ("intervals.components_us", "us"),
    ("intervals.components", "count"),
    ("palette.probes", "count"),
    ("palette.word_scans", "count"),
    ("solver.peel_steps", "count"),
    ("certify.verify_us", "us"),
    ("incremental.dirty_per_epoch", "count"),
    ("incremental.recolored_per_epoch", "count"),
    ("incremental.fallback_ratio", "ratio"),
    ("unattributed_ms", "ms"),
];

/// Measured per-layer values; [`emit`] reports unmeasured layers as 0.
type Values = BTreeMap<String, f64>;

fn emit(report: &mut RunReport, values: Values) {
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "unlisted metric {name}"
        );
    }
    for (name, unit) in PER_LAYER {
        report.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// One replayed request, timed call by call.
struct Sample {
    k: u64,
    algorithm: String,
    parse_ns: u64,
    generate_ns: u64,
    /// `Engine::submit` to `recv`: queue wait, handoff and solve.
    roundtrip_ns: u64,
    /// `LabelOutcome::wall`: the solve alone.
    solve_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    reply_bytes: usize,
    /// Labels of sampled replies, or the structural failure.
    checked: Result<Option<Vec<u32>>, String>,
}

impl Sample {
    /// Sum of the server-side layer times a wire reply waits for; the
    /// client's decode starts after the end-to-end clock stops.
    fn layers_ns(&self) -> u64 {
        self.parse_ns + self.generate_ns + self.roundtrip_ns + self.encode_ns
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, ns(start.elapsed()))
}

fn submit_recv(engine: &Engine, req: LabelRequest) -> Result<LabelResponse, String> {
    let (tx, rx) = mpsc::channel();
    engine.submit(req, &tx).map_err(|e| e.to_string())?;
    rx.recv()
        .map_err(|_| "engine reply channel closed".to_string())
}

/// Replays request `k` through the server's call sequence.
fn replay_one(
    engine: &Engine,
    m: &Metrics,
    profile: &ServeProfile,
    seed: u64,
    k: u64,
) -> Result<Sample, String> {
    let _scope = m.trace_scope(k + 1);
    let _request = m.span("bench.request");
    let line = label_spec(profile, seed, k).render();
    let (parsed, parse_ns) = timed(|| {
        let _s = m.span("net.parse");
        parse_request(&line)
    });
    let spec = match parsed {
        Ok(Request::Label(spec)) => spec,
        other => return Err(format!("request {k}: parsed as {other:?}")),
    };
    let (req, generate_ns) = timed(|| {
        let _s = m.span("netsim.generate");
        spec.to_request(k)
    });
    let (response, roundtrip_ns) = timed(|| {
        let _s = m.span("engine.submit_recv");
        submit_recv(engine, req)
    });
    let outcome = response?.result.map_err(|e| format!("request {k}: {e}"))?;
    let (reply, encode_ns) = timed(|| {
        let _s = m.span("net.encode");
        render_ok(&outcome, None)
    });
    let (decoded, decode_ns) = timed(|| {
        let _s = m.span("net.decode");
        parse_response(&reply)
    });
    let checked = decoded
        .map_err(|e| e.to_string())
        .and_then(|r| check::check_reply(&spec, r))
        .map(|colors| sampled(seed, k).then_some(colors))
        .map_err(|e| format!("request {k}: {e}"));
    Ok(Sample {
        k,
        algorithm: outcome.algorithm,
        parse_ns,
        generate_ns,
        roundtrip_ns,
        solve_ns: ns(outcome.wall),
        encode_ns,
        decode_ns,
        reply_bytes: reply.len() + 1,
        checked,
    })
}

/// Replays requests `ks` on the open-loop schedule from two threads.
fn replay(
    profile: &ServeProfile,
    seed: u64,
    ks: std::ops::Range<u64>,
    m: &Metrics,
) -> Result<Vec<Sample>, String> {
    let engine = Engine::builder().workers(2).build();
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |k: u64| t0 + Duration::from_secs_f64((k - ks.start) as f64 / profile.rate_rps);
    let lane = |c: u64| -> Result<Vec<Sample>, String> {
        let mut out = Vec::new();
        for k in ks.clone().filter(|k| k % 2 == c) {
            let wait = due(k).saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            out.push(replay_one(&engine, m, profile, seed, k)?);
        }
        Ok(out)
    };
    let samples = std::thread::scope(|s| {
        let other = s.spawn(|| lane(1));
        let mut all = lane(0)?;
        all.extend(
            other
                .join()
                .map_err(|_| "replay thread panicked".to_string())??,
        );
        Ok(all)
    });
    engine.shutdown();
    samples
}

/// The registry problem the engine's auto-route solved as `algorithm`.
fn problem<'a>(
    instance: &'a RequestInstance,
    sep: &'a SeparationVector,
    algorithm: &str,
) -> Problem<'a> {
    match instance {
        RequestInstance::Interval(rep) => Problem::interval(rep, sep),
        RequestInstance::UnitInterval(rep) if algorithm.starts_with("interval_") => {
            Problem::interval(rep.as_interval(), sep)
        }
        RequestInstance::UnitInterval(rep) => Problem::unit_interval(rep, sep),
        RequestInstance::Tree(tree) => Problem::tree(tree, sep),
        RequestInstance::Graph(g) => Problem::graph(g, sep),
    }
}

fn p_us(mut v: Vec<u64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    stats::percentile(&v, q) as f64 / 1e3
}

fn mean_of(v: impl Iterator<Item = f64>) -> f64 {
    stats::mean(&v.collect::<Vec<_>>())
}

/// Palette and sweep counters per solved unit (request or epoch).
fn work_counts(values: &mut Values, m: &Metrics, units: usize) {
    let s = m.snapshot();
    let per = |c| s.counter(c) as f64 / units.max(1) as f64;
    values.insert("palette.probes".into(), per(Counter::PaletteProbes));
    values.insert("palette.word_scans".into(), per(Counter::PaletteWordScans));
    values.insert("solver.peel_steps".into(), per(Counter::PeelSteps));
}

/// Writes the recorder dump into `out_dir` and folds it with the code
/// `ssg profile` runs, printing the self-time tree on stderr.
fn dump_and_fold(m: &Metrics, out_dir: &Path, stem: &str) -> Result<String, String> {
    let rec = m.recorder().expect("traced metrics carry a recorder");
    let text = rec.to_json().render_pretty();
    let path = out_dir.join(format!("{stem}.trace.json"));
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("dump does not re-parse: {e}"))?;
    let dump = TraceDump::from_json(&doc)?;
    eprint!("{}", Profile::from_dump(&dump).to_text());
    Ok(path.display().to_string())
}

/// Per-layer run of a serving workload.
fn serve_layers(
    ssg: &Path,
    out_dir: &Path,
    w: Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunReport, String> {
    let profile = w.serve_profile().expect("a serving workload");
    let mut report = RunReport::default();

    // End-to-end reference: the open-loop phases over the wire, untraced.
    let (server, _) = ServeChild::spawn(ssg, out_dir)?;
    let driven = serve::drive(
        server.addr(),
        &profile,
        seed,
        seconds,
        false,
        &mut || Ok(()),
    )?;
    let status = server.shutdown()?;
    if !status.success() {
        report.fail(format!("server exited with {status}"));
    }
    let e2e_mean_ms = serve::open_loop_stats(&driven, &mut report)?.mean_ms;
    let wire: Vec<_> = driven.open.iter().collect();
    serve::check_exchanges(&mut report, &profile, seed, &wire, 0);

    // The traced in-process replay of the same stream and schedule.
    let m = Metrics::with_tracing(RECORDER_CAPACITY);
    let (warm, recorded) = Phases::for_seconds(seconds).open_counts(profile.rate_rps);
    let samples = replay(&profile, seed, 0..warm + recorded, &m)?;
    let mut kept = Vec::new();
    for s in &samples {
        if let Some(Some(colors)) = report.check(s.checked.clone()) {
            kept.push((s.k, s.algorithm.as_str(), colors));
        }
    }
    let rec: Vec<&Sample> = samples.iter().filter(|s| s.k >= warm).collect();
    let col = |f: fn(&Sample) -> u64| rec.iter().map(|s| f(s)).collect::<Vec<u64>>();
    let mean_ms = |f: fn(&Sample) -> u64| mean_of(rec.iter().map(|s| f(s) as f64 / 1e6));

    // Sampled post-pass: components, certification, work counters.
    let registry = SolverRegistry::with_paper_algorithms();
    let mut ws = Workspace::new();
    let counted = Metrics::enabled();
    let (mut comp_ns, mut comp_counts, mut certify_ns) = (Vec::new(), Vec::new(), Vec::new());
    for (k, algorithm, colors) in &kept {
        let spec = label_spec(&profile, seed, *k);
        let instance = spec.to_request(*k).instance;
        if let RequestInstance::Interval(rep) = &instance {
            let (parts, took) = timed(|| rep.components());
            comp_ns.push(took);
            comp_counts.push(parts.len() as f64);
        }
        let (outcome, took) = timed(|| check::certify(&instance, &spec.sep, colors));
        certify_ns.push(took);
        if let Err(e) = outcome {
            report.fail(format!("request {k}: {e}"));
        }
        match registry.try_solve(
            algorithm,
            &problem(&instance, &spec.sep, algorithm),
            &mut ws,
            &counted,
        ) {
            Ok(labeling) => ws.recycle(labeling),
            Err(e) => report.fail(format!("request {k}: counting pass: {e}")),
        }
    }
    let dump = dump_and_fold(&m, out_dir, &format!("{}-seed{seed}", w.name()))?;
    report.notes.push(format!(
        "replayed {} requests ({} recorded), {} in the post-pass sample; dump {dump}",
        samples.len(),
        rec.len(),
        kept.len()
    ));

    let mut v = Values::new();
    v.insert("net.parse_us".into(), p_us(col(|s| s.parse_ns), 50.0));
    v.insert("net.encode_us".into(), p_us(col(|s| s.encode_ns), 50.0));
    v.insert("net.decode_us".into(), p_us(col(|s| s.decode_ns), 50.0));
    v.insert(
        "net.reply_bytes".into(),
        mean_of(rec.iter().map(|s| s.reply_bytes as f64)),
    );
    v.insert(
        "netsim.generate_us".into(),
        p_us(col(|s| s.generate_ns), 50.0),
    );
    v.insert(
        "netsim.generate_mean_us".into(),
        mean_ms(|s| s.generate_ns) * 1e3,
    );
    let waits = col(|s| s.roundtrip_ns.saturating_sub(s.solve_ns));
    v.insert("engine.queue_wait_us".into(), p_us(waits.clone(), 50.0));
    v.insert("engine.queue_wait_p90_us".into(), p_us(waits, 90.0));
    let mut by_algo: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in &rec {
        by_algo
            .entry(s.algorithm.as_str())
            .or_default()
            .push(s.solve_ns);
    }
    for (algorithm, walls) in by_algo {
        v.insert(format!("solver.{algorithm}_us"), p_us(walls, 50.0));
    }
    v.insert("intervals.components_us".into(), p_us(comp_ns, 50.0));
    v.insert("intervals.components".into(), stats::mean(&comp_counts));
    work_counts(&mut v, &counted, kept.len());
    v.insert("certify.verify_us".into(), p_us(certify_ns, 50.0));
    v.insert(
        "unattributed_ms".into(),
        e2e_mean_ms - mean_ms(Sample::layers_ns),
    );
    emit(&mut report, v);
    Ok(report)
}

/// Per-layer run of the churn workload: the incremental simulation with a
/// traced metrics handle, whose counters give the incremental, palette and
/// sweep work per epoch. An epoch is one call into the program, so no
/// layer inside it is timed from outside and its whole mean is
/// unattributed.
fn churn_layers(out_dir: &Path, seed: u64, seconds: f64) -> Result<RunReport, String> {
    let epochs = churn::epochs_for(seconds);
    let m = Metrics::with_tracing(RECORDER_CAPACITY);
    let mut report = RunReport::default();
    let (mut plain_ms, mut recolored, mut full_resolves) = (Vec::new(), Vec::new(), 0);
    for i in 0..churn::TRAJECTORIES {
        let plain = churn::simulate(seed, i, epochs, &Metrics::disabled());
        let traced = {
            let _s = m.span("churn.simulate");
            churn::simulate(seed, i, epochs, &m)
        };
        churn::check_epochs(&mut report, seed, i, &traced);
        if traced.epoch_spans != plain.epoch_spans {
            report.fail(format!(
                "trajectory {i}: traced and untraced spans disagree"
            ));
        }
        plain_ms.push(churn::mean_epoch_ms(&plain));
        recolored.extend(traced.epoch_recolored.iter().map(|&r| r as f64));
        full_resolves += traced.full_resolves;
    }
    let dump = dump_and_fold(&m, out_dir, &format!("churn-seed{seed}"))?;
    let total = epochs * churn::TRAJECTORIES as usize;
    report.notes.push(format!("{total} epochs; dump {dump}"));

    let mut v = Values::new();
    work_counts(&mut v, &m, total);
    let dirty = m.snapshot().counter(Counter::DirtyVertices);
    v.insert(
        "incremental.dirty_per_epoch".into(),
        dirty as f64 / total as f64,
    );
    v.insert(
        "incremental.recolored_per_epoch".into(),
        stats::mean(&recolored),
    );
    v.insert(
        "incremental.fallback_ratio".into(),
        full_resolves as f64 / total as f64,
    );
    v.insert("unattributed_ms".into(), stats::mean(&plain_ms));
    emit(&mut report, v);
    Ok(report)
}

/// One per-layer run of any workload.
pub fn run(
    ssg: &Path,
    out_dir: &Path,
    w: Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunReport, String> {
    match w {
        Workload::Churn => churn_layers(out_dir, seed, seconds),
        _ => serve_layers(ssg, out_dir, w, seed, seconds),
    }
}
