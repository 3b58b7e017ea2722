//! The `ssg bench` harness: runs the paper's five algorithms (A1–A5) on
//! deterministic synthetic workloads with telemetry enabled and builds a
//! machine-readable run report.
//!
//! The report's JSON schema is `"ssg-bench/v2"` (see
//! [`BenchReport::to_json`] and EXPERIMENTS.md): v2 adds a top-level
//! `histograms` section with log2-bucket latency summaries (per-algorithm
//! solve time, engine queue wait, end-to-end request latency).
//! [`diff_against_baseline`] still accepts `"ssg-bench/v1"` baselines — the
//! quantities it compares exist in both. Work counters are pure
//! functions of `(n, seed)`, so fixed-config runs reproduce them
//! bit-for-bit; wall times and histogram quantiles are
//! environment-dependent and belong to the committed
//! `BENCH_labeling.json` baseline only as an order-of-magnitude record.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ssg_graph::generators::random_bounded_degree_tree;
use ssg_intervals::gen::{corridor_unit_intervals, random_connected_intervals};
use ssg_labeling::solver::{default_registry, Problem};
use ssg_labeling::{SeparationVector, Workspace};
use ssg_netsim::dynamics::simulate_corridor_with;
use ssg_netsim::{simulate_corridor, DynamicsConfig, Policy};
use ssg_telemetry::json::Json;
use ssg_telemetry::report::{expect_one_of, ReportEnvelope};
use ssg_telemetry::{Counter, Hist, HistSnapshot, Metrics, Phase, Snapshot};
use ssg_tree::RootedTree;

/// The envelope stamped on every report this harness emits; readers accept
/// [`ACCEPTED_BASELINES`].
pub const BENCH_ENVELOPE: ReportEnvelope = ReportEnvelope::new("ssg-bench/v2");

/// Baseline schemas [`diff_against_baseline`] still reads — every quantity
/// the diff compares exists in both.
pub const ACCEPTED_BASELINES: [&str; 2] = ["ssg-bench/v1", "ssg-bench/v2"];

/// Configuration of one `ssg bench` run.
///
/// Non-exhaustive builder-style config: start from [`BenchConfig::default`]
/// and chain the field-named setters, so future knobs are not breaking
/// changes for downstream callers.
///
/// ```
/// use strongly_simplicial::bench::BenchConfig;
///
/// let cfg = BenchConfig::default().n(500).reps(2);
/// assert_eq!(cfg.n, 500);
/// assert_eq!(cfg.seed, BenchConfig::default().seed);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchConfig {
    /// Vertex count per workload.
    pub n: usize,
    /// Timed repetitions per algorithm (counters are identical across
    /// repetitions; wall time is reported per repetition).
    pub reps: usize,
    /// RNG seed for the synthetic workloads.
    pub seed: u64,
    /// Solves per repetition on one shared [`Workspace`]: the first is the
    /// cold solve reported in `wall_ns`, the remaining `repeat - 1` reuse
    /// the warm arena and are reported in `warm_wall_ns`. `1` (the
    /// default) benches the cold path only.
    pub repeat: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            n: 4000,
            reps: 3,
            seed: 42,
            repeat: 1,
        }
    }
}

impl BenchConfig {
    /// Sets the vertex count per workload.
    #[must_use]
    pub fn n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Sets the timed repetitions per algorithm.
    #[must_use]
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = reps;
        self
    }

    /// Sets the workload RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the solves per repetition on one shared workspace.
    #[must_use]
    pub fn repeat(mut self, repeat: usize) -> Self {
        self.repeat = repeat;
        self
    }
}

/// Measured results of one algorithm on its workload.
#[derive(Debug, Clone)]
pub struct AlgorithmBench {
    /// Paper identifier (`"A1"` … `"A5"`).
    pub id: &'static str,
    /// Stable machine-readable algorithm name.
    pub name: &'static str,
    /// Human-readable workload description.
    pub workload: &'static str,
    /// Algorithm parameters, in render order (e.g. `("t", 2)`).
    pub params: Vec<(&'static str, u64)>,
    /// Vertex count of the workload actually run.
    pub n: usize,
    /// Largest color used by the produced labeling.
    pub span: u32,
    /// Wall time of each repetition's **cold** solve, in nanoseconds.
    pub wall_ns: Vec<u64>,
    /// Wall time of every **warm** solve (`repeat - 1` per repetition, on
    /// the repetition's already-warm workspace). Empty when `repeat == 1`.
    pub warm_wall_ns: Vec<u64>,
    /// Telemetry totals of one cold solve (identical across repetitions).
    pub counters: Snapshot,
    /// Telemetry totals of one warm solve — the same work counters plus one
    /// `workspace_reuses`. `None` when `repeat == 1`.
    pub warm_counters: Option<Snapshot>,
    /// Solve-time distribution merged over every solve this row ran (cold
    /// and warm), as recorded by the registry's `solver_solve` histogram.
    pub solve_hist: HistSnapshot,
}

impl AlgorithmBench {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".into(), Json::Str(self.id.into())),
            ("name".into(), Json::Str(self.name.into())),
            ("workload".into(), Json::Str(self.workload.into())),
            (
                "params".into(),
                Json::Object(
                    self.params
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Json::U64(v)))
                        .collect(),
                ),
            ),
            ("n".into(), Json::U64(self.n as u64)),
            ("span".into(), Json::U64(self.span as u64)),
            (
                "wall_ns".into(),
                Json::Array(self.wall_ns.iter().map(|&ns| Json::U64(ns)).collect()),
            ),
            (
                "wall_ns_min".into(),
                Json::U64(self.wall_ns.iter().copied().min().unwrap_or(0)),
            ),
        ];
        if let Some(warm) = &self.warm_counters {
            fields.push((
                "warm_wall_ns".into(),
                Json::Array(self.warm_wall_ns.iter().map(|&ns| Json::U64(ns)).collect()),
            ));
            fields.push((
                "warm_wall_ns_min".into(),
                Json::U64(self.warm_wall_ns.iter().copied().min().unwrap_or(0)),
            ));
            fields.push(("warm_counters".into(), warm.counters_json()));
        }
        fields.push(("counters".into(), self.counters.counters_json()));
        Json::Object(fields)
    }
}

/// One worker-count row of the engine scaling benchmark.
#[derive(Debug, Clone, Copy)]
pub struct EngineBenchRow {
    /// Worker threads the engine ran with.
    pub workers: usize,
    /// Median wall time of the row's five timed batches, in nanoseconds.
    pub wall_ns: u64,
    /// Fastest timed batch, in nanoseconds.
    pub wall_ns_min: u64,
    /// Slowest timed batch, in nanoseconds.
    pub wall_ns_max: u64,
    /// Requests per second at the median wall time.
    pub requests_per_sec: f64,
    /// Median-wall throughput relative to the 1-worker row.
    pub speedup_vs_1: f64,
    /// Whether `workers` exceeds the host's available parallelism, so the
    /// row measures time slicing rather than hardware scaling.
    pub oversubscribed: bool,
    /// Jobs served off sibling shards during the run.
    pub steals: u64,
}

/// The `ssg bench` engine section: one standard batch workload pushed
/// through [`ssg_engine::Engine`] at increasing worker counts.
#[derive(Debug, Clone)]
pub struct EngineBench {
    /// Human-readable workload description.
    pub workload: &'static str,
    /// Requests per batch.
    pub requests: usize,
    /// Vertex count of each request's instance.
    pub request_n: usize,
    /// `std::thread::available_parallelism()` on the benchmarking host —
    /// the hardware ceiling any speedup claim must be read against.
    pub available_parallelism: usize,
    /// Whether every engine labeling was bit-identical to the sequential
    /// registry solve (the engine's correctness contract).
    pub spans_match_sequential: bool,
    /// One row per worker count, in ascending worker order.
    pub rows: Vec<EngineBenchRow>,
    /// Queue-wait distribution (enqueue to dequeue, nanoseconds) aggregated
    /// over every batch the sweep ran, warm-up batches included.
    pub queue_wait: HistSnapshot,
    /// End-to-end request latency distribution (enqueue through reply,
    /// nanoseconds) over the same batches.
    pub request_latency: HistSnapshot,
}

impl EngineBench {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("workload".into(), Json::Str(self.workload.into())),
            ("requests".into(), Json::U64(self.requests as u64)),
            ("request_n".into(), Json::U64(self.request_n as u64)),
            (
                "available_parallelism".into(),
                Json::U64(self.available_parallelism as u64),
            ),
            (
                "spans_match_sequential".into(),
                Json::Bool(self.spans_match_sequential),
            ),
            (
                "rows".into(),
                Json::Array(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::Object(vec![
                                ("workers".into(), Json::U64(r.workers as u64)),
                                ("wall_ns".into(), Json::U64(r.wall_ns)),
                                ("wall_ns_min".into(), Json::U64(r.wall_ns_min)),
                                ("wall_ns_max".into(), Json::U64(r.wall_ns_max)),
                                ("requests_per_sec".into(), Json::F64(r.requests_per_sec)),
                                ("speedup_vs_1".into(), Json::F64(r.speedup_vs_1)),
                                ("oversubscribed".into(), Json::Bool(r.oversubscribed)),
                                ("steals".into(), Json::U64(r.steals)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The `ssg bench` incremental-recoloring section: one sparse corridor
/// churned at 5% per epoch, solved from scratch and via delta patching,
/// with span equality asserted epoch by epoch, plus a dirty-region scaling
/// probe at 1% vs 5% churn.
#[derive(Debug, Clone)]
pub struct IncrementalBench {
    /// Stations at epoch 0.
    pub stations: usize,
    /// Epochs simulated per run.
    pub epochs: usize,
    /// Per-epoch departure probability of the headline comparison.
    pub churn: f64,
    /// p50 epoch cost (rebuild + solve) of the from-scratch policy, ns.
    pub full_epoch_p50_ns: u64,
    /// p50 epoch cost (delta patch + region solve) incrementally, ns.
    pub incremental_epoch_p50_ns: u64,
    /// `full_epoch_p50_ns / incremental_epoch_p50_ns`.
    pub speedup_p50: f64,
    /// Whether every epoch's incremental span equaled the from-scratch
    /// optimal span (the certificate contract; must always be `true`).
    pub spans_match: bool,
    /// Sum of per-epoch spans — the deterministic quantity the baseline
    /// diff pins (same seed => bit-identical).
    pub span_sum: u64,
    /// Epochs the incremental run fell back to a full resolve.
    pub full_resolves: usize,
    /// Total `dirty_vertices` across a low-churn (1%) run.
    pub dirty_low_churn: u64,
    /// Total `dirty_vertices` across the 5% run: scales with churn, not n.
    pub dirty_high_churn: u64,
}

impl IncrementalBench {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("stations".into(), Json::U64(self.stations as u64)),
            ("epochs".into(), Json::U64(self.epochs as u64)),
            ("churn".into(), Json::F64(self.churn)),
            (
                "full_epoch_p50_ns".into(),
                Json::U64(self.full_epoch_p50_ns),
            ),
            (
                "incremental_epoch_p50_ns".into(),
                Json::U64(self.incremental_epoch_p50_ns),
            ),
            ("speedup_p50".into(), Json::F64(self.speedup_p50)),
            ("spans_match".into(), Json::Bool(self.spans_match)),
            ("span_sum".into(), Json::U64(self.span_sum)),
            ("full_resolves".into(), Json::U64(self.full_resolves as u64)),
            ("dirty_low_churn".into(), Json::U64(self.dirty_low_churn)),
            ("dirty_high_churn".into(), Json::U64(self.dirty_high_churn)),
        ])
    }
}

/// A full `ssg bench` run: configuration plus one entry per algorithm.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The configuration the run used.
    pub config: BenchConfig,
    /// Per-algorithm results, in paper order A1–A5.
    pub algorithms: Vec<AlgorithmBench>,
    /// Engine batch-throughput scaling section (`None` for reports
    /// produced before the engine existed).
    pub engine: Option<EngineBench>,
    /// Incremental-recoloring churn section (`None` for reports produced
    /// before the incremental path existed).
    pub incremental: Option<IncrementalBench>,
}

impl BenchReport {
    /// Renders the report as a `"ssg-bench/v2"` JSON value.
    ///
    /// Top-level keys, in order: `schema`, `config` (`n`, `reps`, `seed`,
    /// plus `repeat` when > 1), `algorithms` (array of objects with `id`,
    /// `name`, `workload`, `params`, `n`, `span`, `wall_ns`, `wall_ns_min`,
    /// `counters`, plus `warm_wall_ns` / `warm_wall_ns_min` /
    /// `warm_counters` when `repeat` > 1), `histograms` (new in v2:
    /// `solver_solve` keyed by algorithm id, plus `queue_wait` and
    /// `request_latency` when the engine section ran; each summary has
    /// `count`/`p50`/`p90`/`p99`/`max`/`mean` in nanoseconds), `engine`
    /// (batch throughput vs. worker count), and `incremental` (churn
    /// recoloring).
    pub fn to_json(&self) -> Json {
        let mut config = vec![
            ("n".into(), Json::U64(self.config.n as u64)),
            ("reps".into(), Json::U64(self.config.reps as u64)),
            ("seed".into(), Json::U64(self.config.seed)),
        ];
        if self.config.repeat > 1 {
            config.push(("repeat".into(), Json::U64(self.config.repeat as u64)));
        }
        let solver_solve: Vec<(String, Json)> = self
            .algorithms
            .iter()
            .map(|a| (a.id.to_string(), a.solve_hist.summary_json()))
            .collect();
        let mut histograms = vec![("solver_solve".into(), Json::Object(solver_solve))];
        if let Some(engine) = &self.engine {
            histograms.push(("queue_wait".into(), engine.queue_wait.summary_json()));
            histograms.push((
                "request_latency".into(),
                engine.request_latency.summary_json(),
            ));
        }
        let mut fields = vec![
            ("config".into(), Json::Object(config)),
            (
                "algorithms".into(),
                Json::Array(self.algorithms.iter().map(|a| a.to_json()).collect()),
            ),
            ("histograms".into(), Json::Object(histograms)),
        ];
        if let Some(engine) = &self.engine {
            fields.push(("engine".into(), engine.to_json()));
        }
        if let Some(incremental) = &self.incremental {
            fields.push(("incremental".into(), incremental.to_json()));
        }
        BENCH_ENVELOPE.stamp(fields)
    }

    /// Renders a human-readable table (the non-JSON CLI output). With
    /// `repeat > 1` a `best warm` column compares the warm-workspace path
    /// against the cold solve.
    pub fn to_text(&self) -> String {
        let warm = self.config.repeat > 1;
        let mut out = format!(
            "ssg bench: n={} reps={} seed={}",
            self.config.n, self.config.reps, self.config.seed
        );
        if warm {
            out.push_str(&format!(" repeat={}", self.config.repeat));
        }
        out.push('\n');
        out.push_str(
            "id  algorithm                      span  best wall     peel_steps  palette_probes",
        );
        if warm {
            out.push_str("  best warm");
        }
        out.push('\n');
        for a in &self.algorithms {
            let best = a.wall_ns.iter().copied().min().unwrap_or(0);
            out.push_str(&format!(
                "{:<3} {:<30} {:>5} {:>9.3} ms {:>12} {:>15}",
                a.id,
                a.name,
                a.span,
                best as f64 / 1e6,
                a.counters.counter(Counter::PeelSteps),
                a.counters.counter(Counter::PaletteProbes),
            ));
            if warm {
                let best_warm = a.warm_wall_ns.iter().copied().min().unwrap_or(0);
                out.push_str(&format!(" {:>8.3} ms", best_warm as f64 / 1e6));
            }
            out.push('\n');
        }
        if let Some(engine) = &self.engine {
            out.push_str(&format!(
                "\nengine: {} ({} requests, n={}, host parallelism {})\n",
                engine.workload, engine.requests, engine.request_n, engine.available_parallelism
            ));
            out.push_str(&format!(
                "workers  batch wall p50 (min..max of {ENGINE_TIMED_BATCHES})   requests/s  speedup  steals\n"
            ));
            for r in &engine.rows {
                out.push_str(&format!(
                    "{:>7} {:>9.3} ms ({:.3}..{:.3}) {:>11.0} {:>7.2}x {:>7}{}\n",
                    r.workers,
                    r.wall_ns as f64 / 1e6,
                    r.wall_ns_min as f64 / 1e6,
                    r.wall_ns_max as f64 / 1e6,
                    r.requests_per_sec,
                    r.speedup_vs_1,
                    r.steals,
                    if r.oversubscribed {
                        "  oversubscribed"
                    } else {
                        ""
                    },
                ));
            }
            out.push_str(&format!(
                "latency (ns): queue wait p50={} p99={}  end-to-end p50={} p99={}\n",
                engine.queue_wait.p50(),
                engine.queue_wait.p99(),
                engine.request_latency.p50(),
                engine.request_latency.p99(),
            ));
            if !engine.spans_match_sequential {
                out.push_str("WARNING: engine spans diverged from sequential solves\n");
            }
        }
        if let Some(inc) = &self.incremental {
            out.push_str(&format!(
                "\nincremental churn: {} stations, {} epochs, {:.0}% departures/epoch\n",
                inc.stations,
                inc.epochs,
                inc.churn * 100.0
            ));
            out.push_str(&format!(
                "epoch solve p50: full {:>9.3} ms  incremental {:>9.3} ms  speedup {:.2}x\n",
                inc.full_epoch_p50_ns as f64 / 1e6,
                inc.incremental_epoch_p50_ns as f64 / 1e6,
                inc.speedup_p50,
            ));
            out.push_str(&format!(
                "full resolves: {}/{} epochs  dirty vertices: {} @1% vs {} @5% churn\n",
                inc.full_resolves, inc.epochs, inc.dirty_low_churn, inc.dirty_high_churn,
            ));
            if !inc.spans_match {
                out.push_str("WARNING: incremental spans diverged from from-scratch solves\n");
            }
        }
        out
    }
}

/// Result of diffing a fresh [`BenchReport`] against a committed baseline
/// report (see `BENCH_labeling.json` and `scripts/bench_diff.sh`).
///
/// Only *deterministic* quantities are compared — per-algorithm spans and
/// the instance sizes they were measured on. Wall times and counters are
/// machine- or schema-sensitive and deliberately excluded, so a clean diff
/// means "same answers", not "same speed".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineDiff {
    /// Algorithm rows successfully matched against the baseline.
    pub checked: usize,
    /// Human-readable descriptions of every drift found (empty when clean).
    pub drifts: Vec<String>,
}

impl BaselineDiff {
    /// Whether the fresh report agrees with the baseline on every row.
    pub fn is_clean(&self) -> bool {
        self.drifts.is_empty()
    }

    /// One-paragraph summary suitable for CLI output.
    pub fn render(&self) -> String {
        if self.is_clean() {
            format!("baseline compare: {} algorithm rows match\n", self.checked)
        } else {
            let mut out = format!(
                "baseline compare: {} drift(s) across {} row(s):\n",
                self.drifts.len(),
                self.checked
            );
            for d in &self.drifts {
                out.push_str("  ");
                out.push_str(d);
                out.push('\n');
            }
            out
        }
    }
}

/// Diffs `report` against a parsed `ssg-bench/v1` **or** `ssg-bench/v2`
/// baseline document — every quantity the diff compares exists in both
/// schemas, so a pre-histogram baseline stays usable.
///
/// Returns `Err` when the baseline is structurally unusable (wrong schema,
/// missing sections, or a config mismatch that makes spans incomparable);
/// returns `Ok` with a [`BaselineDiff`] otherwise. Span disagreement on any
/// algorithm row, or a row present on one side only, is a drift.
pub fn diff_against_baseline(
    report: &BenchReport,
    baseline: &Json,
) -> Result<BaselineDiff, String> {
    expect_one_of(baseline, &ACCEPTED_BASELINES)?;
    let cfg = baseline
        .get("config")
        .ok_or_else(|| "baseline has no 'config' section".to_string())?;
    for (key, fresh) in [
        ("n", report.config.n as u64),
        ("reps", report.config.reps as u64),
        ("seed", report.config.seed),
    ] {
        let base = cfg
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("baseline config is missing '{key}'"))?;
        if base != fresh {
            return Err(format!(
                "config mismatch on '{key}': baseline {base}, this run {fresh} \
                 (rerun with matching --n/--reps/--seed)"
            ));
        }
    }
    let rows = baseline
        .get("algorithms")
        .and_then(Json::as_array)
        .ok_or_else(|| "baseline has no 'algorithms' array".to_string())?;
    let mut drifts = Vec::new();
    let mut checked = 0usize;
    let mut base_ids: Vec<&str> = Vec::new();
    for row in rows {
        let id = row
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| "baseline algorithm row has no 'id'".to_string())?;
        base_ids.push(id);
        let Some(fresh) = report.algorithms.iter().find(|a| a.id == id) else {
            drifts.push(format!("{id}: present in baseline, absent from this run"));
            continue;
        };
        checked += 1;
        for (key, got) in [("span", fresh.span as u64), ("n", fresh.n as u64)] {
            let want = row
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("baseline row {id} has no '{key}'"))?;
            if want != got {
                drifts.push(format!("{id}: {key} {got} != baseline {want}"));
            }
        }
    }
    for a in &report.algorithms {
        if !base_ids.contains(&a.id) {
            drifts.push(format!(
                "{}: present in this run, absent from baseline",
                a.id
            ));
        }
    }
    // The incremental churn section is deterministic per seed, so its spans
    // are pinned too — but only when both sides carry the section, keeping
    // pre-incremental baselines usable.
    if let (Some(base_inc), Some(fresh)) = (baseline.get("incremental"), &report.incremental) {
        checked += 1;
        for (key, got) in [
            ("stations", fresh.stations as u64),
            ("epochs", fresh.epochs as u64),
            ("span_sum", fresh.span_sum),
        ] {
            let want = base_inc
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("baseline incremental section has no '{key}'"))?;
            if want != got {
                drifts.push(format!("incremental: {key} {got} != baseline {want}"));
            }
        }
        if !fresh.spans_match {
            drifts.push("incremental: spans diverged from from-scratch solves".into());
        }
    }
    Ok(BaselineDiff { checked, drifts })
}

/// One timed solve through the registry on `ws`, on a fresh enabled
/// [`Metrics`] handle under [`Phase::Run`]. Returns `(span, snapshot)`;
/// the output buffer is recycled into `ws`.
fn timed_solve(name: &str, problem: &Problem<'_>, ws: &mut Workspace) -> (u32, Snapshot) {
    let metrics = Metrics::enabled();
    let span;
    {
        let _run = metrics.time(Phase::Run);
        let lab = default_registry().solve(name, problem, ws, &metrics);
        span = lab.span();
        ws.recycle(lab);
    }
    (span, metrics.snapshot())
}

/// Runs one algorithm `cfg.reps` times. Each repetition starts from a cold
/// [`Workspace`] (that solve lands in `wall_ns`) and then reuses it for
/// `cfg.repeat - 1` warm solves (landing in `warm_wall_ns`).
fn bench_one(
    cfg: &BenchConfig,
    id: &'static str,
    name: &'static str,
    workload: &'static str,
    params: Vec<(&'static str, u64)>,
    n: usize,
    problem: &Problem<'_>,
) -> AlgorithmBench {
    let mut wall_ns = Vec::with_capacity(cfg.reps);
    let mut warm_wall_ns = Vec::new();
    let mut span = 0u32;
    let mut counters = Snapshot::default();
    let mut warm_counters = None;
    let mut solve_hist = HistSnapshot::default();
    for _ in 0..cfg.reps.max(1) {
        let mut ws = Workspace::new();
        let (cold_span, cold_snap) = timed_solve(name, problem, &mut ws);
        span = cold_span;
        wall_ns.push(cold_snap.phase_ns(Phase::Run));
        solve_hist.merge(&cold_snap.hist(Hist::SolverSolve));
        counters = cold_snap;
        for _ in 1..cfg.repeat.max(1) {
            let (warm_span, warm_snap) = timed_solve(name, problem, &mut ws);
            debug_assert_eq!(warm_span, span, "warm solves must be bit-identical");
            warm_wall_ns.push(warm_snap.phase_ns(Phase::Run));
            solve_hist.merge(&warm_snap.hist(Hist::SolverSolve));
            warm_counters = Some(warm_snap);
        }
    }
    AlgorithmBench {
        id,
        name,
        workload,
        params,
        n,
        span,
        wall_ns,
        warm_wall_ns,
        counters,
        warm_counters,
        solve_hist,
    }
}

/// Worker counts the engine section sweeps.
const ENGINE_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Batch size of the engine workload.
const ENGINE_REQUESTS: usize = 64;

/// Timed batches per worker count, after one untimed warm-up batch.
const ENGINE_TIMED_BATCHES: usize = 5;

/// Runs the standard corridor batch through [`ssg_engine::Engine`] at each
/// worker count in 1, 2, 4, 8, verifying every labeling
/// against a sequential registry solve. Each row reports the median of
/// five timed batches with their min and max, and the speedup is a ratio
/// of medians. Scaling numbers are only as good as the host:
/// `available_parallelism` records the hardware ceiling, and rows with
/// more workers than that are flagged `oversubscribed`.
pub fn run_engine_benchmark(cfg: &BenchConfig) -> EngineBench {
    use ssg_engine::{Engine, LabelRequest, RequestInstance};

    let request_n = (cfg.n / 16).clamp(32, 512);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x656e67);
    let sep = SeparationVector::all_ones(2);
    let reps: Vec<_> = (0..ENGINE_REQUESTS)
        .map(|_| corridor_unit_intervals(request_n, 4, &mut rng))
        .collect();

    // Sequential reference spans on one warm workspace.
    let mut ws = Workspace::new();
    let sequential: Vec<Vec<u32>> = reps
        .iter()
        .map(|rep| {
            let lab = default_registry().solve(
                "interval_l1",
                &Problem::interval(rep.as_interval(), &sep),
                &mut ws,
                &Metrics::disabled(),
            );
            let colors = lab.colors().to_vec();
            ws.recycle(lab);
            colors
        })
        .collect();

    let make_batch = || -> Vec<LabelRequest> {
        reps.iter()
            .enumerate()
            .map(|(i, rep)| {
                LabelRequest::new(
                    i as u64,
                    RequestInstance::Interval(rep.as_interval().clone()),
                    sep.clone(),
                )
                .solver("interval_l1")
            })
            .collect()
    };

    let available_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut spans_match = true;
    let mut rows = Vec::with_capacity(ENGINE_WORKER_COUNTS.len());
    let mut base_wall_ns = 0u64;
    // One shared handle across the whole sweep: queue-wait and end-to-end
    // latency distributions aggregate every batch (warm-up included).
    let metrics = Metrics::enabled();
    for workers in ENGINE_WORKER_COUNTS {
        let engine = Engine::builder()
            .workers(workers)
            .metrics(metrics.clone())
            .build();
        // One warm-up batch so thread spawn and arena growth are off the
        // clock, then the timed batches.
        let _ = engine.run_batch(make_batch());
        let mut walls = Vec::with_capacity(ENGINE_TIMED_BATCHES);
        for _ in 0..ENGINE_TIMED_BATCHES {
            let start = std::time::Instant::now();
            let responses = engine.run_batch(make_batch());
            walls.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            for (response, want) in responses.iter().zip(&sequential) {
                match &response.result {
                    Ok(out) if out.labeling.colors() == want.as_slice() => {}
                    _ => spans_match = false,
                }
            }
        }
        let steals = engine.stats().steals;
        engine.shutdown();
        let wall_ns = exact_median_ns(&walls).max(1);
        if workers == 1 {
            base_wall_ns = wall_ns;
        }
        rows.push(EngineBenchRow {
            workers,
            wall_ns,
            wall_ns_min: walls.iter().copied().min().unwrap_or(0),
            wall_ns_max: walls.iter().copied().max().unwrap_or(0),
            requests_per_sec: ENGINE_REQUESTS as f64 * 1e9 / wall_ns as f64,
            speedup_vs_1: base_wall_ns as f64 / wall_ns as f64,
            oversubscribed: workers > available_parallelism,
            steals,
        });
    }
    let snap = metrics.snapshot();
    EngineBench {
        workload: "corridor unit-interval batch via interval_l1",
        requests: ENGINE_REQUESTS,
        request_n,
        available_parallelism,
        spans_match_sequential: spans_match,
        rows,
        queue_wait: snap.hist(Hist::QueueWait),
        request_latency: snap.hist(Hist::RequestLatency),
    }
}

/// Epochs simulated by the incremental-recoloring benchmark.
const INCREMENTAL_EPOCHS: usize = 12;
/// Headline per-epoch departure probability (the acceptance-gate 5%).
const INCREMENTAL_CHURN: f64 = 0.05;
/// Low-churn probe used to show `DirtyVertices` scales with churn, not n.
const INCREMENTAL_LOW_CHURN: f64 = 0.01;

/// Exact median of raw nanosecond samples (midpoint average when the
/// count is even); 0 for an empty slice.
fn exact_median_ns(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2
    } else {
        sorted[mid]
    }
}

/// The corridor the incremental benchmark churns: sparse (3 length units
/// per station, hearing radii in 1..2) so distance-2 balls stay local and
/// the region solver rarely trips its size fallback.
fn incremental_dynamics(stations: usize, p_depart: f64) -> DynamicsConfig {
    let arrivals_max = ((stations as f64 * p_depart * 2.0).ceil() as usize).max(1);
    DynamicsConfig::default()
        .initial(stations)
        .epochs(INCREMENTAL_EPOCHS)
        .p_depart(p_depart)
        .arrivals_max(arrivals_max)
        .corridor_len(stations as f64 * 3.0)
        .range_min(1.0)
        .range_max(2.0)
        .t(2)
}

/// Churns one corridor twice from the same seed — from-scratch
/// [`Policy::OptimalL1`] vs. delta-patching [`Policy::Incremental`] — and
/// compares per-epoch solve cost and (exactly) per-epoch spans. A second
/// incremental run at 1% churn probes `DirtyVertices` scaling.
///
/// The station count is scaled off `cfg.n` (x20, clamped to 200..=10_000)
/// so the default config exercises the acceptance-gate n=10,000 corridor
/// while test configs stay fast.
fn run_incremental_benchmark(cfg: &BenchConfig) -> IncrementalBench {
    let stations = (cfg.n * 20).clamp(200, 10_000);
    let seed = cfg.seed.wrapping_mul(0x9e37_79b9).wrapping_add(7);

    let full = simulate_corridor(
        incremental_dynamics(stations, INCREMENTAL_CHURN),
        Policy::OptimalL1,
        &mut StdRng::seed_from_u64(seed),
    );
    let metrics_high = Metrics::enabled();
    let inc = simulate_corridor_with(
        incremental_dynamics(stations, INCREMENTAL_CHURN),
        Policy::Incremental,
        &mut StdRng::seed_from_u64(seed),
        &metrics_high,
    );
    let metrics_low = Metrics::enabled();
    let _ = simulate_corridor_with(
        incremental_dynamics(stations, INCREMENTAL_LOW_CHURN),
        Policy::Incremental,
        &mut StdRng::seed_from_u64(seed),
        &metrics_low,
    );

    // Exact medians over the raw per-epoch samples: the histogram's
    // power-of-two buckets are far too coarse for a speedup ratio.
    let full_p50 = exact_median_ns(&full.epoch_solve_ns);
    let inc_p50 = exact_median_ns(&inc.epoch_solve_ns);
    IncrementalBench {
        stations,
        epochs: INCREMENTAL_EPOCHS,
        churn: INCREMENTAL_CHURN,
        full_epoch_p50_ns: full_p50,
        incremental_epoch_p50_ns: inc_p50,
        speedup_p50: full_p50 as f64 / inc_p50.max(1) as f64,
        spans_match: full.epoch_spans == inc.epoch_spans,
        span_sum: inc.epoch_spans.iter().map(|&s| u64::from(s)).sum(),
        full_resolves: inc.full_resolves,
        dirty_low_churn: metrics_low.snapshot().counter(Counter::DirtyVertices),
        dirty_high_churn: metrics_high.snapshot().counter(Counter::DirtyVertices),
    }
}

/// Runs all five paper algorithms on deterministic workloads derived from
/// `cfg` and returns the aggregated report.
///
/// Workloads: A1/A2 share a random connected interval graph, A3 uses a
/// tight unit-interval corridor (the hardest case for Theorem 3), A4/A5
/// share a random degree-bounded tree. Every solve is dispatched through
/// [`default_registry`] by the algorithm's `name` — report rows are
/// replayable as `registry.solve(name, problem, ws, metrics)`.
pub fn run_benchmarks(cfg: &BenchConfig) -> BenchReport {
    let n = cfg.n.max(2);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let interval_rep = random_connected_intervals(n, 0.5, 1.0, 3.0, &mut rng);
    let unit_rep = corridor_unit_intervals(n, 4, &mut rng);
    let tree_graph = random_bounded_degree_tree(n, 4, &mut rng);
    let tree = RootedTree::bfs_canonical(&tree_graph, 0).expect("generator returns a tree");

    let ones_t2 = SeparationVector::all_ones(2);
    let d1_then_one = SeparationVector::delta1_then_ones(4, 2).expect("valid (4,1)");
    let d1_d2 = SeparationVector::two(5, 2).expect("valid (5,2)");

    let algorithms = vec![
        bench_one(
            cfg,
            "A1",
            "interval_l1",
            "random connected interval graph",
            vec![("t", 2)],
            n,
            &Problem::interval(&interval_rep, &ones_t2),
        ),
        bench_one(
            cfg,
            "A2",
            "interval_approx_delta1",
            "random connected interval graph",
            vec![("t", 2), ("delta1", 4)],
            n,
            &Problem::interval(&interval_rep, &d1_then_one),
        ),
        bench_one(
            cfg,
            "A3",
            "unit_interval_l_delta1_delta2",
            "tight unit-interval corridor (k=4)",
            vec![("delta1", 5), ("delta2", 2)],
            n,
            &Problem::unit_interval(&unit_rep, &d1_d2),
        ),
        bench_one(
            cfg,
            "A4",
            "tree_l1",
            "random degree-<=4 tree",
            vec![("t", 2)],
            n,
            &Problem::tree(&tree, &ones_t2),
        ),
        bench_one(
            cfg,
            "A5",
            "tree_approx_delta1",
            "random degree-<=4 tree",
            vec![("t", 2), ("delta1", 4)],
            n,
            &Problem::tree(&tree, &d1_then_one),
        ),
    ];
    BenchReport {
        config: *cfg,
        algorithms,
        engine: Some(run_engine_benchmark(cfg)),
        incremental: Some(run_incremental_benchmark(cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BenchConfig {
        BenchConfig::default().n(120).reps(2).seed(7).repeat(1)
    }

    #[test]
    fn report_covers_all_five_algorithms() {
        let report = run_benchmarks(&small());
        let ids: Vec<&str> = report.algorithms.iter().map(|a| a.id).collect();
        assert_eq!(ids, ["A1", "A2", "A3", "A4", "A5"]);
        for a in &report.algorithms {
            assert_eq!(a.wall_ns.len(), 2, "{}", a.id);
            assert!(
                a.counters.counter(Counter::PeelSteps) >= a.n as u64,
                "{} must record at least one peel step per vertex",
                a.id
            );
            assert!(
                a.counters.counter(Counter::PaletteProbes) > 0,
                "{} must record palette probes",
                a.id
            );
        }
    }

    #[test]
    fn counters_are_reproducible_across_runs() {
        let a = run_benchmarks(&small());
        let b = run_benchmarks(&small());
        for (x, y) in a.algorithms.iter().zip(&b.algorithms) {
            assert_eq!(x.span, y.span, "{}", x.id);
            for c in Counter::ALL {
                assert_eq!(
                    x.counters.counter(c),
                    y.counters.counter(c),
                    "{} {}",
                    x.id,
                    c.name()
                );
            }
        }
    }

    #[test]
    fn baseline_diff_is_clean_against_own_rendering() {
        let report = run_benchmarks(&small());
        let rendered = report.to_json().render_pretty();
        let baseline = Json::parse(&rendered).unwrap();
        let diff = diff_against_baseline(&report, &baseline).unwrap();
        assert!(diff.is_clean(), "{}", diff.render());
        // 5 algorithm rows + the incremental churn section.
        assert_eq!(diff.checked, 6);
        assert!(diff.render().contains("6 algorithm rows match"));
    }

    #[test]
    fn baseline_diff_flags_span_drift_and_missing_rows() {
        let report = run_benchmarks(&small());
        let mut doctored = report.clone();
        doctored.algorithms[0].span += 1;
        doctored.algorithms.pop();
        let baseline = Json::parse(&doctored.to_json().render_pretty()).unwrap();
        let diff = diff_against_baseline(&report, &baseline).unwrap();
        assert_eq!(diff.drifts.len(), 2, "{:?}", diff.drifts);
        assert!(diff.drifts[0].contains("A1: span"));
        assert!(diff.drifts[1].contains("A5"));
        assert!(!diff.is_clean());
    }

    #[test]
    fn baseline_diff_rejects_unusable_baselines() {
        let report = run_benchmarks(&small());
        let err = diff_against_baseline(&report, &Json::parse("{}").unwrap()).unwrap_err();
        assert!(err.contains("schema"));
        let other_seed = run_benchmarks(&BenchConfig::default().n(120).reps(2).seed(8));
        let baseline = Json::parse(&other_seed.to_json().render_pretty()).unwrap();
        let err = diff_against_baseline(&report, &baseline).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn report_json_has_v2_schema_and_histograms() {
        let report = run_benchmarks(&small());
        let doc = Json::parse(&report.to_json().render_pretty()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ssg-bench/v2")
        );
        let hists = doc.get("histograms").expect("v2 has a histograms section");
        let solver = hists.get("solver_solve").expect("per-algorithm summaries");
        for id in ["A1", "A2", "A3", "A4", "A5"] {
            let row = solver.get(id).unwrap_or_else(|| panic!("{id} summary"));
            for key in ["count", "p50", "p90", "p99", "max", "mean"] {
                assert!(row.get(key).is_some(), "{id} missing {key}");
            }
            // One cold solve per repetition lands in the histogram.
            assert_eq!(row.get("count").and_then(Json::as_u64), Some(2), "{id}");
        }
        for section in ["queue_wait", "request_latency"] {
            let count = hists
                .get(section)
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{section} summary"));
            // Warm-up + timed batches at each of the four worker counts.
            let batches = ENGINE_WORKER_COUNTS.len() * (1 + ENGINE_TIMED_BATCHES);
            assert_eq!(count, (batches * ENGINE_REQUESTS) as u64, "{section}");
        }
    }

    #[test]
    fn baseline_diff_accepts_v1_baselines() {
        let report = run_benchmarks(&small());
        let v1 = report
            .to_json()
            .render_pretty()
            .replace("ssg-bench/v2", "ssg-bench/v1");
        let diff = diff_against_baseline(&report, &Json::parse(&v1).unwrap()).unwrap();
        assert!(diff.is_clean(), "{}", diff.render());
        let v3 = report
            .to_json()
            .render_pretty()
            .replace("ssg-bench/v2", "ssg-bench/v3");
        let err = diff_against_baseline(&report, &Json::parse(&v3).unwrap()).unwrap_err();
        assert!(err.contains("ssg-bench/v3"), "{err}");
    }

    #[test]
    fn engine_section_scales_and_matches_sequential() {
        let bench = run_engine_benchmark(&small());
        assert_eq!(bench.requests, ENGINE_REQUESTS);
        assert!(bench.spans_match_sequential);
        assert!(bench.available_parallelism >= 1);
        let workers: Vec<usize> = bench.rows.iter().map(|r| r.workers).collect();
        assert_eq!(workers, ENGINE_WORKER_COUNTS);
        for row in &bench.rows {
            assert!(row.wall_ns > 0, "workers={}", row.workers);
            assert!(row.wall_ns_min <= row.wall_ns && row.wall_ns <= row.wall_ns_max);
            assert!(row.requests_per_sec > 0.0);
            assert!(row.speedup_vs_1 > 0.0);
            assert_eq!(
                row.oversubscribed,
                row.workers > bench.available_parallelism,
                "workers={}",
                row.workers
            );
        }
        assert!((bench.rows[0].speedup_vs_1 - 1.0).abs() < 1e-12);
        assert!(
            !bench.rows[0].oversubscribed,
            "one worker never oversubscribes"
        );
    }

    #[test]
    fn incremental_section_matches_from_scratch_and_scales_with_churn() {
        let report = run_benchmarks(&small());
        let inc = report.incremental.as_ref().expect("incremental section");
        assert_eq!(
            inc.stations, 2400,
            "n=120 scales to a 2400-station corridor"
        );
        assert_eq!(inc.epochs, INCREMENTAL_EPOCHS);
        assert!(
            inc.spans_match,
            "every incremental epoch span must equal the from-scratch optimum"
        );
        assert!(inc.span_sum > 0);
        assert!(inc.full_epoch_p50_ns > 0 && inc.incremental_epoch_p50_ns > 0);
        assert!(inc.speedup_p50 > 0.0);
        assert!(inc.full_resolves <= inc.epochs);
        assert!(
            inc.dirty_high_churn > inc.dirty_low_churn,
            "dirty-region work must grow with churn: {} @1% vs {} @5%",
            inc.dirty_low_churn,
            inc.dirty_high_churn
        );
        // Dirty work tracks churn, not n: even the 5% run touches a small
        // fraction of the stations*epochs vertex-epochs available.
        assert!(
            inc.dirty_high_churn < (inc.stations * inc.epochs) as u64 / 2,
            "dirty vertices ({}) should be far below n*epochs ({})",
            inc.dirty_high_churn,
            inc.stations * inc.epochs
        );
        let doc = Json::parse(&report.to_json().render_pretty()).unwrap();
        let sec = doc.get("incremental").expect("json carries the section");
        assert_eq!(
            sec.get("span_sum").and_then(Json::as_u64),
            Some(inc.span_sum)
        );
        assert_eq!(sec.get("spans_match"), Some(&Json::Bool(true)));
        let text = report.to_text();
        assert!(text.contains("incremental churn"));
        assert!(!text.contains("WARNING: incremental"));
    }

    #[test]
    fn baseline_diff_pins_incremental_span_sum() {
        let report = run_benchmarks(&small());
        let baseline = Json::parse(&report.to_json().render_pretty()).unwrap();
        let diff = diff_against_baseline(&report, &baseline).unwrap();
        assert!(diff.is_clean(), "{}", diff.render());
        // 5 algorithm rows + the incremental section.
        assert_eq!(diff.checked, 6);
        let tampered = report.to_json().render_pretty().replace(
            &format!(
                "\"span_sum\": {}",
                report.incremental.as_ref().unwrap().span_sum
            ),
            "\"span_sum\": 1",
        );
        let diff = diff_against_baseline(&report, &Json::parse(&tampered).unwrap()).unwrap();
        assert!(
            diff.drifts.iter().any(|d| d.contains("span_sum")),
            "{}",
            diff.render()
        );
        // Baselines without the section (pre-incremental) still diff clean.
        let stripped = {
            let Json::Object(fields) = report.to_json() else {
                unreachable!()
            };
            Json::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "incremental")
                    .collect(),
            )
        };
        let diff = diff_against_baseline(&report, &stripped).unwrap();
        assert!(diff.is_clean(), "{}", diff.render());
        assert_eq!(diff.checked, 5);
    }

    #[test]
    fn text_rendering_mentions_every_algorithm() {
        let report = run_benchmarks(&small());
        let text = report.to_text();
        for a in &report.algorithms {
            assert!(text.contains(a.name));
        }
        assert!(!text.contains("best warm"), "no warm column at repeat=1");
    }

    #[test]
    fn repeat_reports_warm_path_separately() {
        let cfg = small().repeat(3);
        let report = run_benchmarks(&cfg);
        for a in &report.algorithms {
            assert_eq!(a.wall_ns.len(), 2, "{}: one cold solve per rep", a.id);
            assert_eq!(a.warm_wall_ns.len(), 4, "{}: repeat-1 warm per rep", a.id);
            let warm = a.warm_counters.as_ref().expect("warm snapshot");
            assert_eq!(a.counters.counter(Counter::WorkspaceReuses), 0, "{}", a.id);
            assert_eq!(warm.counter(Counter::WorkspaceReuses), 1, "{}", a.id);
            // Warm solves redo exactly the cold solve's work.
            for c in [
                Counter::PeelSteps,
                Counter::PaletteProbes,
                Counter::BfsNodeVisits,
            ] {
                assert_eq!(
                    warm.counter(c),
                    a.counters.counter(c),
                    "{} {}",
                    a.id,
                    c.name()
                );
            }
        }
        let text = report.to_text();
        assert!(text.contains("best warm"));
        assert!(text.contains("repeat=3"));
        // Cold-only counters and spans are unchanged by repeating.
        let base = run_benchmarks(&small());
        for (x, y) in report.algorithms.iter().zip(&base.algorithms) {
            assert_eq!(x.span, y.span, "{}", x.id);
            for c in Counter::ALL {
                assert_eq!(x.counters.counter(c), y.counters.counter(c), "{}", x.id);
            }
        }
    }
}
