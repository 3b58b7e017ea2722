//! Zero-dependency telemetry for the `ssg` workspace.
//!
//! The paper's complexity claims — Theorem 1's `O(nt)` interval sweep,
//! Theorem 3's `O(n)` unit-interval pass — are only reproducible if the
//! code can report how much work it actually did. This crate provides the
//! three pieces the rest of the workspace threads through its hot paths:
//!
//! * [`Metrics`] — a cheap, cloneable handle over atomic work counters
//!   ([`Counter`]) and wall-clock phase timers ([`Phase`]). A disabled
//!   handle ([`Metrics::disabled`]) is a `None` inside and every operation
//!   on it is a branch on that `None` — no allocation, no atomics, no
//!   syscalls — so instrumented code paths cost nothing measurable when
//!   telemetry is off.
//! * [`Snapshot`] — a plain-data copy of the current counter/timer state,
//!   taken with [`Metrics::snapshot`].
//! * [`json`] — a hand-rolled JSON value type and writer (the build
//!   environment has no network, so no `serde_json`), used by the `ssg
//!   bench --json` report and anything else that wants machine-readable
//!   output.
//! * [`hist`] — fixed-bucket log2 latency [`Histogram`]s behind the
//!   [`Hist`] catalog (per-solver solve time, engine queue wait,
//!   end-to-end request latency), answering p50/p90/p99/max from a
//!   [`Snapshot`].
//! * [`trace`] — tracing spans with parent links and per-request trace
//!   ids ([`Metrics::span`], [`Metrics::trace_scope`]) feeding a bounded
//!   [`FlightRecorder`] ring ([`Metrics::with_tracing`]) that can be
//!   dumped as JSON after a deadline miss or panic.
//! * [`export`] — re-parses `ssg-trace/v1` dumps ([`TraceDump`]) and
//!   renders them — including a client dump and a server dump merged onto
//!   one timeline — as Chrome/Perfetto trace-event JSON.
//! * [`profile`] — folds a dump's spans into a name-keyed self-time call
//!   tree ([`Profile`]) with per-node totals and exact p50/p99.
//!
//! # Example
//!
//! ```
//! use ssg_telemetry::{Counter, Metrics, Phase};
//!
//! let metrics = Metrics::enabled();
//! {
//!     let _run = metrics.time(Phase::Run);
//!     for _ in 0..10 {
//!         metrics.add(Counter::PeelSteps, 1);
//!     }
//! } // timer records on drop
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter(Counter::PeelSteps), 10);
//! assert_eq!(snap.phase_count(Phase::Run), 1);
//!
//! // Disabled handles observe nothing and cost (almost) nothing.
//! let off = Metrics::disabled();
//! off.add(Counter::PeelSteps, 1);
//! assert_eq!(off.snapshot().counter(Counter::PeelSteps), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod json;
pub mod profile;
pub mod report;
pub mod trace;

pub use export::TraceDump;
pub use hist::{HistSnapshot, Histogram};
pub use profile::Profile;
pub use report::ReportEnvelope;
pub use trace::{EventKind, FlightRecorder, SpanEvent, SpanGuard, TraceScope};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Work counters recorded by the instrumented hot paths.
///
/// Each counter is a pure function of the input for a fixed algorithm, so
/// fixed-seed runs reproduce them bit-for-bit (unlike wall time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Vertices peeled / swept in elimination-order style loops: interval
    /// sweep events, tree level passes, simplicial peeling.
    PeelSteps,
    /// Palette entries examined while searching for an admissible channel
    /// (`PaletteFamily` pops and scans, comb probes, DP candidate checks).
    PaletteProbes,
    /// Nodes dequeued across all BFS traversals (`ssg-graph`).
    BfsNodeVisits,
    /// Nodes expanded by exhaustive search (branch-and-bound, brute-force
    /// clique).
    SearchNodes,
    /// Solves that reused an already-warm `Workspace` arena instead of
    /// allocating fresh scratch state (recorded by `Workspace::begin_solve`
    /// in `ssg-labeling` and the peel scratch in `ssg-simplicial`).
    WorkspaceReuses,
    /// Requests completed by `ssg-engine` workers (successes and
    /// per-request failures alike) — the engine's throughput numerator.
    EngineRequests,
    /// Jobs an engine worker popped from *another* worker's shard queue
    /// (work stealing).
    EngineSteals,
    /// Submissions that found their shard queue full and had to block (or
    /// fail fast) — the engine's backpressure signal.
    EngineBackpressureWaits,
    /// Requests whose deadline had already passed when a worker dequeued
    /// them; they were answered with an error instead of being solved.
    EngineDeadlineMisses,
    /// Solver panics isolated by an engine worker via `catch_unwind` and
    /// converted into per-request errors.
    EnginePanics,
    /// CSR graphs materialized (`GraphBuilder::build`, direct power-graph
    /// emission, induced subgraphs) — the construction-side cost of the
    /// flat adjacency layout.
    GraphCsrBuilds,
    /// Contiguous neighbor-slice scans (`Graph::neighbors` walks) performed
    /// by instrumented hot paths — the access-side work unit of the CSR
    /// layout, one per dequeued BFS vertex or per peeled-vertex scan.
    NeighborScans,
    /// TCP connections accepted by the `ssg-net` front door (line-protocol
    /// and HTTP alike; connections refused at `--max-conns` not included).
    NetConnections,
    /// Line-protocol requests received by the network front door (every
    /// parsed-or-rejected request line, plus each HTTP `POST /label`).
    NetRequests,
    /// HTTP/1.1 requests served on the sniffed front-door port
    /// (`POST /label`, `GET /metrics`, `GET /healthz`, and 404s).
    NetHttpRequests,
    /// Request lines or HTTP requests the front door answered with a
    /// protocol-level `ERR` / 4xx (malformed grammar, oversized frames,
    /// unsupported verbs) — the wire-format health signal.
    NetProtocolErrors,
    /// `GraphDelta`s patched into a CSR graph by `Graph::apply_delta`
    /// (`ssg-graph`) — the incremental counterpart of
    /// [`Counter::GraphCsrBuilds`].
    DeltaApplied,
    /// Incremental solves that succeeded by recoloring only the dirty
    /// region (`IncrementalSolver` in `ssg-labeling`), leaving every other
    /// color frozen.
    RegionRecolors,
    /// Incremental solves that fell back to a full from-scratch resolve
    /// (region over threshold, stale witness, or a failed span/validity
    /// gate).
    FullResolves,
    /// Vertices placed in the dirty region across all incremental solves —
    /// scales with churn size, not instance size, when the incremental
    /// path is winning.
    DirtyVertices,
    /// Palette-family list-table words read or written by palette
    /// operations (pointer splices, level and length bookkeeping) — the
    /// deterministic per-probe *work* behind [`Counter::PaletteProbes`].
    PaletteWordScans,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 21] = [
        Counter::PeelSteps,
        Counter::PaletteProbes,
        Counter::BfsNodeVisits,
        Counter::SearchNodes,
        Counter::WorkspaceReuses,
        Counter::EngineRequests,
        Counter::EngineSteals,
        Counter::EngineBackpressureWaits,
        Counter::EngineDeadlineMisses,
        Counter::EnginePanics,
        Counter::GraphCsrBuilds,
        Counter::NeighborScans,
        Counter::NetConnections,
        Counter::NetRequests,
        Counter::NetHttpRequests,
        Counter::NetProtocolErrors,
        Counter::DeltaApplied,
        Counter::RegionRecolors,
        Counter::FullResolves,
        Counter::DirtyVertices,
        Counter::PaletteWordScans,
    ];

    /// Stable snake_case name used in JSON reports.
    ///
    /// ```
    /// assert_eq!(ssg_telemetry::Counter::PeelSteps.name(), "peel_steps");
    /// ```
    pub fn name(self) -> &'static str {
        match self {
            Counter::PeelSteps => "peel_steps",
            Counter::PaletteProbes => "palette_probes",
            Counter::BfsNodeVisits => "bfs_node_visits",
            Counter::SearchNodes => "search_nodes",
            Counter::WorkspaceReuses => "workspace_reuses",
            Counter::EngineRequests => "engine_requests",
            Counter::EngineSteals => "engine_steals",
            Counter::EngineBackpressureWaits => "engine_backpressure_waits",
            Counter::EngineDeadlineMisses => "engine_deadline_misses",
            Counter::EnginePanics => "engine_panics",
            Counter::GraphCsrBuilds => "graph_csr_builds",
            Counter::NeighborScans => "neighbor_scans",
            Counter::NetConnections => "net_connections",
            Counter::NetRequests => "net_requests",
            Counter::NetHttpRequests => "net_http_requests",
            Counter::NetProtocolErrors => "net_protocol_errors",
            Counter::DeltaApplied => "delta_applied",
            Counter::RegionRecolors => "region_recolors",
            Counter::FullResolves => "full_resolves",
            Counter::DirtyVertices => "dirty_vertices",
            Counter::PaletteWordScans => "palette_word_scans",
        }
    }

    /// One-line Prometheus `# HELP` text.
    pub fn help(self) -> &'static str {
        match self {
            Counter::PeelSteps => "Vertices peeled or swept in elimination-order loops.",
            Counter::PaletteProbes => "Palette entries examined while searching for a channel.",
            Counter::BfsNodeVisits => "Nodes dequeued across all BFS traversals.",
            Counter::SearchNodes => "Nodes expanded by exhaustive search.",
            Counter::WorkspaceReuses => "Solves that reused a warm workspace arena.",
            Counter::EngineRequests => "Requests completed by engine workers.",
            Counter::EngineSteals => "Jobs stolen from another worker's shard queue.",
            Counter::EngineBackpressureWaits => "Submissions that found their shard queue full.",
            Counter::EngineDeadlineMisses => "Requests dequeued after their deadline passed.",
            Counter::EnginePanics => "Solver panics isolated by engine workers.",
            Counter::GraphCsrBuilds => "CSR graphs materialized.",
            Counter::NeighborScans => "Contiguous neighbor-slice scans.",
            Counter::NetConnections => "TCP connections accepted by the front door.",
            Counter::NetRequests => "Line-protocol requests received by the front door.",
            Counter::NetHttpRequests => "HTTP/1.1 requests served on the front-door port.",
            Counter::NetProtocolErrors => "Requests answered with a protocol-level error.",
            Counter::DeltaApplied => "Graph deltas patched into a CSR graph in place.",
            Counter::RegionRecolors => "Incremental solves that recolored only a dirty region.",
            Counter::FullResolves => "Incremental solves that fell back to a full resolve.",
            Counter::DirtyVertices => "Vertices placed in dirty regions by incremental solves.",
            Counter::PaletteWordScans => "Palette structure words read or written.",
        }
    }

    fn index(self) -> usize {
        match self {
            Counter::PeelSteps => 0,
            Counter::PaletteProbes => 1,
            Counter::BfsNodeVisits => 2,
            Counter::SearchNodes => 3,
            Counter::WorkspaceReuses => 4,
            Counter::EngineRequests => 5,
            Counter::EngineSteals => 6,
            Counter::EngineBackpressureWaits => 7,
            Counter::EngineDeadlineMisses => 8,
            Counter::EnginePanics => 9,
            Counter::GraphCsrBuilds => 10,
            Counter::NeighborScans => 11,
            Counter::NetConnections => 12,
            Counter::NetRequests => 13,
            Counter::NetHttpRequests => 14,
            Counter::NetProtocolErrors => 15,
            Counter::DeltaApplied => 16,
            Counter::RegionRecolors => 17,
            Counter::FullResolves => 18,
            Counter::DirtyVertices => 19,
            Counter::PaletteWordScans => 20,
        }
    }
}

/// Wall-clock phases recorded by [`Metrics::time`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One end-to-end algorithm run.
    Run,
    /// One cell of a parameter-sweep grid (`ssg-netsim`).
    Cell,
    /// One engine batch, submit-to-last-response (`ssg-engine`).
    Batch,
    /// One network request served by the `ssg-net` front door, read-to-reply
    /// on the connection thread (line protocol and HTTP `POST /label`).
    Serve,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 4] = [Phase::Run, Phase::Cell, Phase::Batch, Phase::Serve];

    /// Stable snake_case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Run => "run",
            Phase::Cell => "cell",
            Phase::Batch => "batch",
            Phase::Serve => "serve",
        }
    }

    /// One-line Prometheus `# HELP` text (phase timers render as a
    /// `_ns_total`/`_count_total` pair sharing this description).
    pub fn help(self) -> &'static str {
        match self {
            Phase::Run => "End-to-end algorithm runs.",
            Phase::Cell => "Parameter-sweep grid cells.",
            Phase::Batch => "Engine batches, submit to last response.",
            Phase::Serve => "Network requests, read to reply.",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Run => 0,
            Phase::Cell => 1,
            Phase::Batch => 2,
            Phase::Serve => 3,
        }
    }
}

/// Histograms recorded by [`Metrics::observe`] and [`Metrics::span_hist`].
/// Latency histograms hold nanoseconds; [`Hist::RegionSize`] holds vertex
/// counts (see [`Hist::unit_suffix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// One solver dispatch (`SolverRegistry::{solve, try_solve}` around
    /// `Solver::solve_with`), whichever of A1–A5 ran.
    SolverSolve,
    /// Engine queue wait: submit (`enqueue`) to worker dequeue.
    QueueWait,
    /// End-to-end engine request latency: submit to reply sent.
    RequestLatency,
    /// Dirty-region size per incremental solve, in **vertices** (not
    /// nanoseconds) — distribution of how much of the graph each delta
    /// actually touched.
    RegionSize,
}

impl Hist {
    /// Every histogram, in report order.
    pub const ALL: [Hist; 4] = [
        Hist::SolverSolve,
        Hist::QueueWait,
        Hist::RequestLatency,
        Hist::RegionSize,
    ];

    /// Stable snake_case name used in JSON reports and Prometheus output
    /// (the [`Hist::unit_suffix`] is added by the renderers).
    pub fn name(self) -> &'static str {
        match self {
            Hist::SolverSolve => "solver_solve",
            Hist::QueueWait => "queue_wait",
            Hist::RequestLatency => "request_latency",
            Hist::RegionSize => "region_size",
        }
    }

    /// Unit suffix renderers append to [`Hist::name`]: `"_ns"` for latency
    /// histograms, `"_vertices"` for [`Hist::RegionSize`].
    pub fn unit_suffix(self) -> &'static str {
        match self {
            Hist::SolverSolve | Hist::QueueWait | Hist::RequestLatency => "_ns",
            Hist::RegionSize => "_vertices",
        }
    }

    /// One-line Prometheus `# HELP` text.
    pub fn help(self) -> &'static str {
        match self {
            Hist::SolverSolve => "Solver dispatch latency in nanoseconds.",
            Hist::QueueWait => "Engine queue wait in nanoseconds, submit to dequeue.",
            Hist::RequestLatency => "End-to-end engine request latency in nanoseconds.",
            Hist::RegionSize => "Dirty-region size per incremental solve, in vertices.",
        }
    }

    fn index(self) -> usize {
        match self {
            Hist::SolverSolve => 0,
            Hist::QueueWait => 1,
            Hist::RequestLatency => 2,
            Hist::RegionSize => 3,
        }
    }
}

/// Point-in-time gauges sampled by the engine worker loops. A gauge keeps
/// its latest sampled value and the maximum ever sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Jobs sitting in shard queues (sampled per worker-loop iteration).
    QueueDepth,
    /// Requests admitted but not yet answered.
    InFlight,
}

impl Gauge {
    /// Every gauge, in report order.
    pub const ALL: [Gauge; 2] = [Gauge::QueueDepth, Gauge::InFlight];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::QueueDepth => "queue_depth",
            Gauge::InFlight => "in_flight",
        }
    }

    /// One-line Prometheus `# HELP` text (the `_max` companion series
    /// shares it, suffixed as a maximum).
    pub fn help(self) -> &'static str {
        match self {
            Gauge::QueueDepth => "Jobs sitting in engine shard queues.",
            Gauge::InFlight => "Requests admitted but not yet answered.",
        }
    }

    fn index(self) -> usize {
        match self {
            Gauge::QueueDepth => 0,
            Gauge::InFlight => 1,
        }
    }
}

const NUM_COUNTERS: usize = Counter::ALL.len();
const NUM_PHASES: usize = Phase::ALL.len();
const NUM_HISTS: usize = Hist::ALL.len();
const NUM_GAUGES: usize = Gauge::ALL.len();

#[derive(Debug)]
struct Inner {
    created: Instant,
    counters: [AtomicU64; NUM_COUNTERS],
    phase_ns: [AtomicU64; NUM_PHASES],
    phase_count: [AtomicU64; NUM_PHASES],
    hists: [Histogram; NUM_HISTS],
    gauge_last: [AtomicU64; NUM_GAUGES],
    gauge_max: [AtomicU64; NUM_GAUGES],
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            created: Instant::now(),
            counters: Default::default(),
            phase_ns: Default::default(),
            phase_count: Default::default(),
            hists: Default::default(),
            gauge_last: Default::default(),
            gauge_max: Default::default(),
        }
    }
}

/// A cheap, cloneable, thread-safe telemetry handle.
///
/// Clones share the same underlying counters, so a handle can be passed
/// across rayon workers and the totals still aggregate in one place:
///
/// ```
/// use ssg_telemetry::{Counter, Metrics};
///
/// let metrics = Metrics::enabled();
/// let worker = metrics.clone();
/// std::thread::spawn(move || worker.add(Counter::BfsNodeVisits, 5))
///     .join()
///     .unwrap();
/// metrics.add(Counter::BfsNodeVisits, 2);
/// assert_eq!(metrics.snapshot().counter(Counter::BfsNodeVisits), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Inner>>,
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
}

impl Metrics {
    /// A recording handle (counters, timers, histograms, gauges — but no
    /// flight recorder; see [`Metrics::with_tracing`] for that).
    pub fn enabled() -> Metrics {
        Metrics {
            inner: Some(Arc::new(Inner::default())),
            recorder: None,
        }
    }

    /// A no-op handle: every operation is a branch on a `None`.
    ///
    /// This is the handle the un-instrumented public APIs pass down, so
    /// code that never asks for telemetry pays only a handful of dead
    /// branches (see `bench_telemetry_overhead` in `ssg-bench`).
    pub fn disabled() -> Metrics {
        Metrics {
            inner: None,
            recorder: None,
        }
    }

    /// Whether this handle records anything.
    ///
    /// Hot loops can use this to skip even the local bookkeeping:
    ///
    /// ```
    /// assert!(ssg_telemetry::Metrics::enabled().is_enabled());
    /// assert!(!ssg_telemetry::Metrics::disabled().is_enabled());
    /// ```
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to a counter (no-op when disabled).
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter.index()].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Starts timing `phase`; the elapsed wall time is recorded when the
    /// returned guard drops. On a disabled handle the guard never reads
    /// the clock.
    #[inline]
    pub fn time(&self, phase: Phase) -> PhaseTimer<'_> {
        PhaseTimer {
            metrics: self,
            phase,
            start: self.inner.as_ref().map(|_| Instant::now()),
        }
    }

    /// Records an externally measured duration for `phase`.
    pub fn record_duration(&self, phase: Phase, elapsed: Duration) {
        if let Some(inner) = &self.inner {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            inner.phase_ns[phase.index()].fetch_add(ns, Ordering::Relaxed);
            inner.phase_count[phase.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one observation into a latency histogram (no-op when
    /// disabled).
    #[inline]
    pub fn observe(&self, hist: Hist, elapsed: Duration) {
        if let Some(inner) = &self.inner {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            inner.hists[hist.index()].record(ns);
        }
    }

    /// Records a raw nanosecond observation into a latency histogram.
    #[inline]
    pub fn observe_ns(&self, hist: Hist, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.hists[hist.index()].record(ns);
        }
    }

    /// Samples a gauge: stores `value` as the latest reading and folds it
    /// into the gauge's running maximum (no-op when disabled).
    #[inline]
    pub fn gauge_set(&self, gauge: Gauge, value: u64) {
        if let Some(inner) = &self.inner {
            inner.gauge_last[gauge.index()].store(value, Ordering::Relaxed);
            inner.gauge_max[gauge.index()].fetch_max(value, Ordering::Relaxed);
        }
    }

    /// A plain-data copy of the current totals (all zeros when disabled).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if let Some(inner) = &self.inner {
            snap.uptime_ms = u64::try_from(inner.created.elapsed().as_millis()).unwrap_or(u64::MAX);
            for c in Counter::ALL {
                snap.counters[c.index()] = inner.counters[c.index()].load(Ordering::Relaxed);
            }
            for p in Phase::ALL {
                snap.phase_ns[p.index()] = inner.phase_ns[p.index()].load(Ordering::Relaxed);
                snap.phase_count[p.index()] = inner.phase_count[p.index()].load(Ordering::Relaxed);
            }
            for h in Hist::ALL {
                snap.hists[h.index()] = inner.hists[h.index()].snapshot();
            }
            for g in Gauge::ALL {
                snap.gauge_last[g.index()] = inner.gauge_last[g.index()].load(Ordering::Relaxed);
                snap.gauge_max[g.index()] = inner.gauge_max[g.index()].load(Ordering::Relaxed);
            }
        }
        snap
    }
}

/// Drop guard returned by [`Metrics::time`].
///
/// ```
/// use ssg_telemetry::{Metrics, Phase};
/// let metrics = Metrics::enabled();
/// {
///     let _guard = metrics.time(Phase::Cell);
///     // ... timed work ...
/// }
/// assert_eq!(metrics.snapshot().phase_count(Phase::Cell), 1);
/// ```
#[must_use = "dropping the timer immediately records a ~zero duration"]
#[derive(Debug)]
pub struct PhaseTimer<'a> {
    metrics: &'a Metrics,
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.metrics.record_duration(self.phase, start.elapsed());
        }
    }
}

/// Plain-data copy of a [`Metrics`] handle's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: [u64; NUM_COUNTERS],
    phase_ns: [u64; NUM_PHASES],
    phase_count: [u64; NUM_PHASES],
    hists: [HistSnapshot; NUM_HISTS],
    gauge_last: [u64; NUM_GAUGES],
    gauge_max: [u64; NUM_GAUGES],
    uptime_ms: u64,
}

impl Snapshot {
    /// Total recorded for `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Milliseconds since the owning [`Metrics`] handle was created (0 on
    /// a disabled handle) — the source of the `ssg_uptime_seconds` gauge.
    pub fn uptime_ms(&self) -> u64 {
        self.uptime_ms
    }

    /// Total nanoseconds recorded for `phase`.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }

    /// How many times `phase` was recorded.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phase_count[phase.index()]
    }

    /// The counters as a JSON object in [`Counter::ALL`] order.
    ///
    /// ```
    /// use ssg_telemetry::{Counter, Metrics};
    /// let m = Metrics::enabled();
    /// m.add(Counter::PaletteProbes, 3);
    /// let json = m.snapshot().counters_json().render();
    /// assert!(json.contains("\"palette_probes\":3"));
    /// ```
    pub fn counters_json(&self) -> json::Json {
        json::Json::Object(
            Counter::ALL
                .iter()
                .map(|&c| (c.name().to_string(), json::Json::U64(self.counter(c))))
                .collect(),
        )
    }

    /// The latency histogram recorded for `hist`.
    pub fn hist(&self, hist: Hist) -> HistSnapshot {
        self.hists[hist.index()]
    }

    /// The latest sampled value of `gauge`.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauge_last[gauge.index()]
    }

    /// The maximum value ever sampled for `gauge`.
    pub fn gauge_max(&self, gauge: Gauge) -> u64 {
        self.gauge_max[gauge.index()]
    }

    /// The histograms as a JSON object keyed by [`Hist::name`], each value
    /// a [`HistSnapshot::summary_json`] summary (nanoseconds).
    ///
    /// ```
    /// use ssg_telemetry::{Hist, Metrics};
    /// use std::time::Duration;
    /// let m = Metrics::enabled();
    /// m.observe(Hist::QueueWait, Duration::from_micros(5));
    /// let json = m.snapshot().histograms_json().render();
    /// assert!(json.contains("\"queue_wait\""));
    /// assert!(json.contains("\"p99\""));
    /// ```
    pub fn histograms_json(&self) -> json::Json {
        json::Json::Object(
            Hist::ALL
                .iter()
                .map(|&h| (h.name().to_string(), self.hist(h).summary_json()))
                .collect(),
        )
    }

    /// Prometheus text exposition of everything in the snapshot, with
    /// every metric name prefixed by `prefix` (e.g. `"ssg"`): counters as
    /// `_total` counters, phases as `_ns_total`/`_count_total` pairs,
    /// histograms as cumulative `le`-bucketed histograms in nanoseconds,
    /// gauges as current/`_max` gauge pairs, and the handle's uptime as a
    /// fractional `_uptime_seconds` gauge. Every series carries `# HELP`
    /// and `# TYPE` comments.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for c in Counter::ALL {
            let name = c.name();
            let _ = writeln!(out, "# HELP {prefix}_{name}_total {}", c.help());
            let _ = writeln!(out, "# TYPE {prefix}_{name}_total counter");
            let _ = writeln!(out, "{prefix}_{name}_total {}", self.counter(c));
        }
        for p in Phase::ALL {
            let name = p.name();
            let _ = writeln!(
                out,
                "# HELP {prefix}_phase_{name}_ns_total {} Total nanoseconds.",
                p.help()
            );
            let _ = writeln!(out, "# TYPE {prefix}_phase_{name}_ns_total counter");
            let _ = writeln!(out, "{prefix}_phase_{name}_ns_total {}", self.phase_ns(p));
            let _ = writeln!(
                out,
                "# HELP {prefix}_phase_{name}_count_total {} Occurrences.",
                p.help()
            );
            let _ = writeln!(out, "# TYPE {prefix}_phase_{name}_count_total counter");
            let _ = writeln!(
                out,
                "{prefix}_phase_{name}_count_total {}",
                self.phase_count(p)
            );
        }
        for h in Hist::ALL {
            let full = format!("{prefix}_{}{}", h.name(), h.unit_suffix());
            let _ = writeln!(out, "# HELP {full} {}", h.help());
            self.hist(h).write_prometheus(&mut out, &full);
        }
        for g in Gauge::ALL {
            let name = g.name();
            let _ = writeln!(out, "# HELP {prefix}_{name} {}", g.help());
            let _ = writeln!(out, "# TYPE {prefix}_{name} gauge");
            let _ = writeln!(out, "{prefix}_{name} {}", self.gauge(g));
            let _ = writeln!(
                out,
                "# HELP {prefix}_{name}_max {} Maximum sampled.",
                g.help()
            );
            let _ = writeln!(out, "# TYPE {prefix}_{name}_max gauge");
            let _ = writeln!(out, "{prefix}_{name}_max {}", self.gauge_max(g));
        }
        let _ = writeln!(
            out,
            "# HELP {prefix}_uptime_seconds Seconds since this telemetry handle was created."
        );
        let _ = writeln!(out, "# TYPE {prefix}_uptime_seconds gauge");
        let _ = writeln!(
            out,
            "{prefix}_uptime_seconds {:.3}",
            self.uptime_ms as f64 / 1000.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = Metrics::enabled();
        m.add(Counter::PeelSteps, 3);
        m.add(Counter::PeelSteps, 4);
        m.add(Counter::SearchNodes, 1);
        let snap = m.snapshot();
        assert_eq!(snap.counter(Counter::PeelSteps), 7);
        assert_eq!(snap.counter(Counter::SearchNodes), 1);
        assert_eq!(snap.counter(Counter::BfsNodeVisits), 0);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.add(Counter::PaletteProbes, 10);
        m.record_duration(Phase::Run, Duration::from_secs(1));
        drop(m.time(Phase::Run));
        assert_eq!(m.snapshot(), Snapshot::default());
    }

    #[test]
    fn timers_count_and_accumulate() {
        let m = Metrics::enabled();
        drop(m.time(Phase::Run));
        drop(m.time(Phase::Run));
        m.record_duration(Phase::Cell, Duration::from_nanos(500));
        let snap = m.snapshot();
        assert_eq!(snap.phase_count(Phase::Run), 2);
        assert_eq!(snap.phase_count(Phase::Cell), 1);
        assert_eq!(snap.phase_ns(Phase::Cell), 500);
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::enabled();
        let c = m.clone();
        c.add(Counter::BfsNodeVisits, 9);
        assert_eq!(m.snapshot().counter(Counter::BfsNodeVisits), 9);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "peel_steps",
                "palette_probes",
                "bfs_node_visits",
                "search_nodes",
                "workspace_reuses",
                "engine_requests",
                "engine_steals",
                "engine_backpressure_waits",
                "engine_deadline_misses",
                "engine_panics",
                "graph_csr_builds",
                "neighbor_scans",
                "net_connections",
                "net_requests",
                "net_http_requests",
                "net_protocol_errors",
                "delta_applied",
                "region_recolors",
                "full_resolves",
                "dirty_vertices",
                "palette_word_scans"
            ]
        );
        assert_eq!(Phase::Run.name(), "run");
        assert_eq!(Phase::Cell.name(), "cell");
        assert_eq!(Phase::Batch.name(), "batch");
        assert_eq!(Phase::Serve.name(), "serve");
        let hist_names: Vec<&str> = Hist::ALL.iter().map(|h| h.name()).collect();
        assert_eq!(
            hist_names,
            [
                "solver_solve",
                "queue_wait",
                "request_latency",
                "region_size"
            ]
        );
        assert_eq!(Hist::SolverSolve.unit_suffix(), "_ns");
        assert_eq!(Hist::RegionSize.unit_suffix(), "_vertices");
        let gauge_names: Vec<&str> = Gauge::ALL.iter().map(|g| g.name()).collect();
        assert_eq!(gauge_names, ["queue_depth", "in_flight"]);
    }

    #[test]
    fn histograms_and_gauges_record_and_snapshot() {
        let m = Metrics::enabled();
        m.observe(Hist::SolverSolve, Duration::from_nanos(900));
        m.observe_ns(Hist::SolverSolve, 100);
        m.gauge_set(Gauge::QueueDepth, 5);
        m.gauge_set(Gauge::QueueDepth, 2);
        let snap = m.snapshot();
        assert_eq!(snap.hist(Hist::SolverSolve).count(), 2);
        assert_eq!(snap.hist(Hist::SolverSolve).max(), 900);
        assert_eq!(snap.hist(Hist::QueueWait).count(), 0);
        assert_eq!(snap.gauge(Gauge::QueueDepth), 2);
        assert_eq!(snap.gauge_max(Gauge::QueueDepth), 5);
    }

    #[test]
    fn disabled_handle_ignores_histograms_and_gauges() {
        let m = Metrics::disabled();
        m.observe(Hist::RequestLatency, Duration::from_secs(1));
        m.observe_ns(Hist::QueueWait, 7);
        m.gauge_set(Gauge::InFlight, 3);
        assert_eq!(m.snapshot(), Snapshot::default());
    }

    #[test]
    fn prometheus_exposition_covers_the_catalog() {
        let m = Metrics::enabled();
        m.add(Counter::EngineRequests, 4);
        m.record_duration(Phase::Batch, Duration::from_nanos(250));
        m.observe_ns(Hist::RequestLatency, 1000);
        m.gauge_set(Gauge::InFlight, 2);
        let text = m.snapshot().to_prometheus("ssg");
        assert!(text.contains("ssg_engine_requests_total 4"), "{text}");
        assert!(text.contains("ssg_phase_batch_ns_total 250"), "{text}");
        assert!(text.contains("ssg_phase_batch_count_total 1"), "{text}");
        assert!(
            text.contains("# TYPE ssg_request_latency_ns histogram"),
            "{text}"
        );
        assert!(
            text.contains("ssg_request_latency_ns_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("ssg_in_flight 2"), "{text}");
        assert!(text.contains("ssg_in_flight_max 2"), "{text}");
        assert!(
            text.contains("# TYPE ssg_region_size_vertices histogram"),
            "{text}"
        );
        assert!(!text.contains("ssg_region_size_ns"), "{text}");
        // Every line is either a comment or `name value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed exposition line: {line}"
            );
        }
        // Every series carries a HELP line, and the uptime gauge rides
        // along with fractional seconds.
        for c in Counter::ALL {
            let needle = format!("# HELP ssg_{}_total ", c.name());
            assert!(text.contains(&needle), "missing `{needle}`");
        }
        for p in Phase::ALL {
            assert!(text.contains(&format!("# HELP ssg_phase_{}_ns_total ", p.name())));
            assert!(text.contains(&format!("# HELP ssg_phase_{}_count_total ", p.name())));
        }
        for h in Hist::ALL {
            let needle = format!("# HELP ssg_{}{} ", h.name(), h.unit_suffix());
            assert!(text.contains(&needle), "missing `{needle}`");
        }
        for g in Gauge::ALL {
            assert!(text.contains(&format!("# HELP ssg_{} ", g.name())));
            assert!(text.contains(&format!("# HELP ssg_{}_max ", g.name())));
        }
        assert!(text.contains("# TYPE ssg_uptime_seconds gauge"), "{text}");
        let uptime_line = text
            .lines()
            .find(|l| l.starts_with("ssg_uptime_seconds "))
            .expect("uptime sample line");
        let value: f64 = uptime_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .expect("uptime is numeric");
        assert!(value >= 0.0);
        // A HELP line immediately precedes every TYPE line.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.starts_with("# TYPE ") {
                assert!(
                    i > 0 && lines[i - 1].starts_with("# HELP "),
                    "TYPE without preceding HELP: {line}"
                );
            }
        }
    }

    #[test]
    fn uptime_is_zero_when_disabled_and_grows_when_enabled() {
        assert_eq!(Metrics::disabled().snapshot().uptime_ms(), 0);
        let m = Metrics::enabled();
        std::thread::sleep(Duration::from_millis(5));
        assert!(m.snapshot().uptime_ms() >= 5);
    }
}
