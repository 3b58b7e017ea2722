//! # ssg-engine
//!
//! A sharded batch labeling engine over the [`ssg_labeling`] solver set:
//! the production front door the ROADMAP's north-star asks for. Callers
//! hand the engine batches of [`LabelRequest`]s (an owned instance, a
//! separation vector, a solver hint, an optional deadline) and get back
//! one [`LabelResponse`] per request, in batch order, with every failure
//! mode — unknown solver, class mismatch, blown deadline, solver panic —
//! reified as an [`SsgError`] instead of a crash or a hung queue.
//!
//! ## Architecture
//!
//! * **Sharded bounded queues.** Each worker owns one shard (a bounded
//!   `Mutex<VecDeque>` + condvars). Submission round-robins across
//!   shards; a worker drains its own shard FIFO and, when empty,
//!   **steals** from the back of sibling shards (LIFO steal keeps the
//!   victim's FIFO head intact).
//! * **Backpressure.** When every shard is full, [`Backpressure::Block`]
//!   parks the submitter until a worker frees a slot, while
//!   [`Backpressure::FailFast`] returns [`SsgError::QueueFull`]
//!   immediately. The caller picks the policy at build time.
//! * **Worker workspaces.** Each worker owns one warm [`Workspace`] for
//!   its whole lifetime, so repeated same-shaped solves hit the
//!   zero-allocation path exactly as the sequential `*_ws` entry points
//!   do. It is replaced with a fresh arena after a caught panic (the old
//!   one may be mid-mutation).
//! * **Panic isolation.** Solver panics are caught per request with
//!   `catch_unwind` and surfaced as [`SsgError::WorkerPanic`]; the
//!   worker thread survives and keeps serving.
//! * **Deadlines.** A request's deadline is checked when a worker
//!   dequeues it; an expired request is answered with
//!   [`SsgError::DeadlineExceeded`] without running the solver.
//! * **Drain-then-shutdown.** [`Engine::shutdown`] (and `Drop`) stops
//!   accepting, waits for in-flight work to finish, then joins the
//!   workers — no request submitted before shutdown is lost.
//!
//! Engine activity is visible through [`ssg_telemetry`]
//! ([`Counter::EngineRequests`], [`Counter::EngineSteals`],
//! [`Counter::EngineBackpressureWaits`], [`Counter::EngineDeadlineMisses`],
//! [`Counter::EnginePanics`], [`Phase::Batch`]) and through the engine's
//! own [`EngineStats`] snapshot.
//!
//! ```
//! use ssg_engine::{Engine, LabelRequest, RequestInstance};
//! use ssg_labeling::SeparationVector;
//! use ssg_graph::generators;
//!
//! let engine = Engine::builder().workers(2).build();
//! let reqs = (0..4u64)
//!     .map(|id| LabelRequest::new(
//!         id,
//!         RequestInstance::Graph(generators::path(6)),
//!         SeparationVector::two(2, 1).unwrap(),
//!     ))
//!     .collect();
//! let responses = engine.run_batch(reqs);
//! assert_eq!(responses.len(), 4);
//! assert!(responses.iter().all(|r| r.result.is_ok()));
//! engine.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ssg_error::SsgError;
use ssg_graph::Graph;
use ssg_intervals::{IntervalRepresentation, UnitIntervalRepresentation};
use ssg_labeling::auto::GraphClass;
use ssg_labeling::solver::{auto_route, Problem};
use ssg_labeling::{Labeling, SeparationVector, SolverRegistry, Workspace};
use ssg_telemetry::{Counter, Gauge, Hist, Metrics, Phase};
use ssg_tree::RootedTree;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The owned structure a [`LabelRequest`] carries. Unlike the borrowed
/// [`ProblemInstance`](ssg_labeling::ProblemInstance), requests own their
/// instance so batches can cross thread boundaries.
#[derive(Debug, Clone)]
pub enum RequestInstance {
    /// A bare graph (auto-dispatch classifies it).
    Graph(Graph),
    /// An interval representation in left-endpoint order (A1, A2).
    Interval(IntervalRepresentation),
    /// A proper/unit interval representation (A3).
    UnitInterval(UnitIntervalRepresentation),
    /// A BFS-canonical rooted tree (A4, A5).
    Tree(RootedTree),
}

impl RequestInstance {
    /// Number of vertices in the instance.
    pub fn num_vertices(&self) -> usize {
        match self {
            RequestInstance::Graph(g) => g.num_vertices(),
            RequestInstance::Interval(rep) => rep.len(),
            RequestInstance::UnitInterval(rep) => rep.len(),
            RequestInstance::Tree(t) => t.len(),
        }
    }
}

/// How a [`LabelRequest`] picks its algorithm.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum SolverHint {
    /// Route by instance shape and separation vector through the registry's
    /// one route table, [`auto_route`]. A bare graph is classified first and
    /// falls back to greedy BFS without a route
    /// ([`SolverRegistry::auto_coloring`]); a shaped instance without a route
    /// is answered with [`SsgError::Spec`].
    #[default]
    Auto,
    /// Dispatch to the named registered solver; unknown names come back as
    /// [`SsgError::UnknownSolver`], shape mismatches as
    /// [`SsgError::ClassMismatch`].
    Named(String),
}

/// One unit of engine work: what to label, under which constraints, with
/// which solver, by when.
#[derive(Debug, Clone)]
pub struct LabelRequest {
    /// Caller-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The owned instance to label.
    pub instance: RequestInstance,
    /// The separation vector to enforce.
    pub sep: SeparationVector,
    /// Algorithm selection (defaults to [`SolverHint::Auto`]).
    pub hint: SolverHint,
    /// Absolute expiry: requests still queued past this instant are
    /// answered with [`SsgError::DeadlineExceeded`] instead of solved.
    pub deadline: Option<Instant>,
    /// Wire-propagated trace context `(trace_id, parent_span_id)`: span
    /// events for this request are tagged with the caller's trace id
    /// instead of the local request id, and worker spans adopt the
    /// caller's span as their parent (see
    /// `Metrics::trace_scope_with_parent`). `None` = locally originated;
    /// events fall back to the request id as trace id.
    pub trace: Option<(u64, u64)>,
}

impl LabelRequest {
    /// A request with auto solver selection and no deadline.
    pub fn new(id: u64, instance: RequestInstance, sep: SeparationVector) -> Self {
        Self {
            id,
            instance,
            sep,
            hint: SolverHint::Auto,
            deadline: None,
            trace: None,
        }
    }

    /// Pins the request to a named solver.
    #[must_use]
    pub fn solver(mut self, name: impl Into<String>) -> Self {
        self.hint = SolverHint::Named(name.into());
        self
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Sets a deadline `timeout` from now.
    #[must_use]
    pub fn timeout(self, timeout: Duration) -> Self {
        self.deadline(Instant::now() + timeout)
    }

    /// Adopts a wire-propagated trace context: `trace_id` tags every span
    /// event this request produces, and `parent_span_id` (0 = none)
    /// becomes the parent of the worker's spans.
    #[must_use]
    pub fn trace(mut self, trace_id: u64, parent_span_id: u64) -> Self {
        self.trace = Some((trace_id, parent_span_id));
        self
    }

    /// The trace id this request's events are tagged with: the propagated
    /// id when one was supplied, otherwise the request id.
    pub fn trace_id(&self) -> u64 {
        self.trace.map_or(self.id, |(t, _)| t)
    }
}

/// A successfully solved request.
#[derive(Debug, Clone)]
pub struct LabelOutcome {
    /// The labeling, in the request instance's own vertex numbering.
    pub labeling: Labeling,
    /// The solver (or auto-dispatch algorithm description) that produced it.
    pub algorithm: String,
    /// Wall time the solve took on the worker.
    pub wall: Duration,
}

/// The engine's answer to one [`LabelRequest`].
#[derive(Debug)]
pub struct LabelResponse {
    /// The request's correlation id.
    pub id: u64,
    /// Position of the request in its batch (submission order for direct
    /// [`Engine::submit`] calls).
    pub batch_index: usize,
    /// Index of the worker that served the request.
    pub worker: usize,
    /// The labeling, or the reified failure.
    pub result: Result<LabelOutcome, SsgError>,
}

/// What [`Engine::submit`] does when every shard queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backpressure {
    /// Park the submitting thread until a worker frees a slot.
    #[default]
    Block,
    /// Return [`SsgError::QueueFull`] immediately.
    FailFast,
}

/// A plain-data snapshot of engine activity (see [`Engine::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Label requests accepted (excludes rejected submissions).
    pub submitted: u64,
    /// Jobs fully processed (label requests + closure jobs).
    pub completed: u64,
    /// Jobs a worker took from a sibling's shard.
    pub steals: u64,
    /// Times a blocking submitter had to wait for queue space.
    pub backpressure_waits: u64,
    /// Requests answered with [`SsgError::DeadlineExceeded`].
    pub deadline_misses: u64,
    /// Solver panics caught and converted to [`SsgError::WorkerPanic`].
    pub panics: u64,
    /// Jobs currently queued or running.
    pub in_flight: u64,
}

#[derive(Default)]
struct StatCells {
    submitted: AtomicU64,
    completed: AtomicU64,
    steals: AtomicU64,
    backpressure_waits: AtomicU64,
    deadline_misses: AtomicU64,
    panics: AtomicU64,
}

enum Job {
    Label {
        seq: usize,
        // Boxed so a queued label request is pointer-sized next to Task,
        // not 288 bytes of inline SeparationVector + hint strings.
        req: Box<LabelRequest>,
        tx: Sender<LabelResponse>,
        // Submission timestamp feeding the queue-wait and end-to-end
        // latency histograms; `None` when telemetry is disabled so the
        // fast path never reads the clock.
        enqueued_at: Option<Instant>,
    },
    Task(Box<dyn FnOnce(&mut Workspace) + Send>),
}

struct Shard {
    jobs: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl Shard {
    fn new() -> Self {
        Shard {
            jobs: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }
}

struct Inner {
    shards: Vec<Shard>,
    capacity: usize,
    backpressure: Backpressure,
    accepting: AtomicBool,
    running: AtomicBool,
    in_flight: AtomicUsize,
    drain_lock: Mutex<()>,
    drained: Condvar,
    // Jobs currently sitting in shard queues, mirrored outside the shard
    // locks so gauge sampling is two atomic loads, not a lock sweep.
    queued: AtomicUsize,
    next_shard: AtomicUsize,
    next_seq: AtomicUsize,
    registry: Arc<SolverRegistry>,
    metrics: Metrics,
    stats: StatCells,
}

/// Configures and builds an [`Engine`]. Obtained from [`Engine::builder`];
/// every setter has a sensible default, so `Engine::builder().build()` is
/// a valid production engine.
pub struct EngineBuilder {
    workers: usize,
    queue_capacity: usize,
    backpressure: Backpressure,
    registry: Option<Arc<SolverRegistry>>,
    metrics: Metrics,
}

impl std::fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("backpressure", &self.backpressure)
            .finish_non_exhaustive()
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_capacity: 64,
            backpressure: Backpressure::Block,
            registry: None,
            metrics: Metrics::disabled(),
        }
    }
}

impl EngineBuilder {
    /// Number of worker threads (and shards). Clamped to at least 1;
    /// defaults to the machine's available parallelism.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Per-shard queue bound (default 64). Clamped to at least 1.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Full-queue policy (default [`Backpressure::Block`]).
    #[must_use]
    pub fn backpressure(mut self, policy: Backpressure) -> Self {
        self.backpressure = policy;
        self
    }

    /// The solver set to dispatch through (default: a fresh
    /// [`SolverRegistry::with_paper_algorithms`]).
    #[must_use]
    pub fn registry(mut self, registry: Arc<SolverRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Telemetry handle engine counters and solver counters land on
    /// (default: disabled).
    #[must_use]
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Spawns the workers and returns the running engine.
    pub fn build(self) -> Engine {
        let inner = Arc::new(Inner {
            shards: (0..self.workers).map(|_| Shard::new()).collect(),
            capacity: self.queue_capacity,
            backpressure: self.backpressure,
            accepting: AtomicBool::new(true),
            running: AtomicBool::new(true),
            in_flight: AtomicUsize::new(0),
            drain_lock: Mutex::new(()),
            drained: Condvar::new(),
            queued: AtomicUsize::new(0),
            next_shard: AtomicUsize::new(0),
            next_seq: AtomicUsize::new(0),
            registry: self
                .registry
                .unwrap_or_else(|| Arc::new(SolverRegistry::with_paper_algorithms())),
            metrics: self.metrics,
            stats: StatCells::default(),
        });
        let handles = (0..self.workers)
            .map(|me| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ssg-engine-{me}"))
                    .spawn(move || worker_loop(&inner, me, &mut Workspace::new()))
                    .expect("failed to spawn engine worker")
            })
            .collect();
        Engine { inner, handles }
    }
}

/// The sharded batch labeling engine. See the [module docs](self) for the
/// architecture; construct one with [`Engine::builder`].
pub struct Engine {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.handles.len())
            .field("queue_capacity", &self.inner.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// An engine with `workers` threads and default settings.
    pub fn new(workers: usize) -> Engine {
        Engine::builder().workers(workers).build()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The telemetry handle this engine records on — the ingress hook the
    /// network front door (`ssg-net`) uses to render `/metrics` from the
    /// same counters, histograms, and gauges the workers feed.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Drain hook: stop accepting new submissions without blocking or
    /// joining workers. In-flight and queued jobs still complete; pair with
    /// [`Engine::drain`] to wait for them. Idempotent.
    pub fn begin_drain(&self) {
        self.inner.accepting.store(false, Ordering::Release);
        for shard in &self.inner.shards {
            shard.not_full.notify_all();
        }
    }

    /// Solves a whole batch and returns one response per request, ordered
    /// by [`LabelResponse::batch_index`] (i.e. input order). Requests the
    /// engine refuses to accept (fail-fast queue full, shutdown racing)
    /// are answered inline with the refusal as their `result`, so the
    /// output always has the input's length. The batch's wall time is
    /// recorded under [`Phase::Batch`].
    pub fn run_batch(&self, requests: Vec<LabelRequest>) -> Vec<LabelResponse> {
        let _batch_timer = self.inner.metrics.time(Phase::Batch);
        let total = requests.len();
        let (tx, rx) = mpsc::channel();
        let mut responses: Vec<LabelResponse> = Vec::with_capacity(total);
        for (seq, req) in requests.into_iter().enumerate() {
            let id = req.id;
            if let Err(e) = self.submit_seq(seq, req, &tx) {
                responses.push(LabelResponse {
                    id,
                    batch_index: seq,
                    worker: usize::MAX,
                    result: Err(e),
                });
            }
        }
        drop(tx);
        responses.extend(rx.iter());
        debug_assert_eq!(responses.len(), total);
        responses.sort_unstable_by_key(|r| r.batch_index);
        responses
    }

    /// Submits one request; its response is delivered on `tx`. The
    /// response's `batch_index` is the engine-wide submission sequence
    /// number. Fails with [`SsgError::QueueFull`] (fail-fast policy) or
    /// [`SsgError::ShuttingDown`] without sending anything.
    pub fn submit(&self, req: LabelRequest, tx: &Sender<LabelResponse>) -> Result<(), SsgError> {
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        self.submit_seq(seq, req, tx)
    }

    fn submit_seq(
        &self,
        seq: usize,
        req: LabelRequest,
        tx: &Sender<LabelResponse>,
    ) -> Result<(), SsgError> {
        let trace_id = req.trace_id();
        let enqueued_at = self.inner.metrics.is_enabled().then(Instant::now);
        self.inner.push_job(Job::Label {
            seq,
            req: Box::new(req),
            tx: tx.clone(),
            enqueued_at,
        })?;
        self.inner.metrics.event_for(trace_id, "engine.enqueue");
        self.inner.metrics.add(Counter::EngineRequests, 1);
        self.inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Runs an arbitrary closure on a worker, with that worker's own
    /// warm [`Workspace`] — the escape hatch parallel sweeps use to run
    /// non-request work (e.g. whole-simulation cells) through the same
    /// shards, stealing, and backpressure. Panics inside the closure are
    /// caught and counted like solver panics; the closure reports results
    /// through its own captured channel.
    pub fn execute(
        &self,
        job: impl FnOnce(&mut Workspace) + Send + 'static,
    ) -> Result<(), SsgError> {
        self.inner.push_job(Job::Task(Box::new(job)))
    }

    /// Blocks until every accepted job has been fully processed.
    pub fn drain(&self) {
        self.inner.wait_drained();
    }

    /// Current engine activity totals.
    pub fn stats(&self) -> EngineStats {
        let s = &self.inner.stats;
        EngineStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            steals: s.steals.load(Ordering::Relaxed),
            backpressure_waits: s.backpressure_waits.load(Ordering::Relaxed),
            deadline_misses: s.deadline_misses.load(Ordering::Relaxed),
            panics: s.panics.load(Ordering::Relaxed),
            in_flight: self.inner.in_flight.load(Ordering::Acquire) as u64,
        }
    }

    /// Graceful drain-then-shutdown: stop accepting, finish every accepted
    /// job, join the workers. Dropping the engine does the same.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.begin_drain();
        self.inner.wait_drained();
        self.inner.running.store(false, Ordering::Release);
        for shard in &self.inner.shards {
            shard.not_empty.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl Inner {
    /// Enqueues a job, applying the backpressure policy. One pass over all
    /// shards looks for a free slot before the policy kicks in, so a
    /// single slow shard does not stall submission while others are idle.
    fn push_job(&self, job: Job) -> Result<(), SsgError> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(SsgError::ShuttingDown);
        }
        let n = self.shards.len();
        let start = self.next_shard.fetch_add(1, Ordering::Relaxed) % n;
        for k in 0..n {
            let shard = &self.shards[(start + k) % n];
            let mut q = shard.jobs.lock().expect("engine shard poisoned");
            if q.len() < self.capacity {
                self.in_flight.fetch_add(1, Ordering::AcqRel);
                self.queued.fetch_add(1, Ordering::Relaxed);
                q.push_back(job);
                drop(q);
                shard.not_empty.notify_one();
                return Ok(());
            }
        }
        match self.backpressure {
            Backpressure::FailFast => Err(SsgError::QueueFull),
            Backpressure::Block => {
                let shard = &self.shards[start];
                let mut q = shard.jobs.lock().expect("engine shard poisoned");
                while q.len() >= self.capacity {
                    if !self.accepting.load(Ordering::Acquire) {
                        return Err(SsgError::ShuttingDown);
                    }
                    self.metrics.add(Counter::EngineBackpressureWaits, 1);
                    if let Job::Label { req, .. } = &job {
                        self.metrics
                            .event_for(req.trace_id(), "engine.backpressure_wait");
                    }
                    self.stats
                        .backpressure_waits
                        .fetch_add(1, Ordering::Relaxed);
                    let (guard, _) = shard
                        .not_full
                        .wait_timeout(q, Duration::from_millis(5))
                        .expect("engine shard poisoned");
                    q = guard;
                }
                self.in_flight.fetch_add(1, Ordering::AcqRel);
                self.queued.fetch_add(1, Ordering::Relaxed);
                q.push_back(job);
                drop(q);
                shard.not_empty.notify_one();
                Ok(())
            }
        }
    }

    /// Pops the next job for worker `me`: own shard first (FIFO), then a
    /// steal sweep over siblings (LIFO), then a short park on the own
    /// shard's condvar. Returns `None` when the engine stops running.
    fn next_job(&self, me: usize) -> Option<Job> {
        let n = self.shards.len();
        loop {
            {
                let mut q = self.shards[me].jobs.lock().expect("engine shard poisoned");
                if let Some(job) = q.pop_front() {
                    drop(q);
                    self.queued.fetch_sub(1, Ordering::Relaxed);
                    self.shards[me].not_full.notify_one();
                    return Some(job);
                }
            }
            for k in 1..n {
                let victim = (me + k) % n;
                let mut q = self.shards[victim]
                    .jobs
                    .lock()
                    .expect("engine shard poisoned");
                if let Some(job) = q.pop_back() {
                    drop(q);
                    self.queued.fetch_sub(1, Ordering::Relaxed);
                    self.shards[victim].not_full.notify_one();
                    self.metrics.add(Counter::EngineSteals, 1);
                    if let Job::Label { req, .. } = &job {
                        self.metrics.event_for(req.trace_id(), "engine.steal");
                    }
                    self.stats.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(job);
                }
            }
            if !self.running.load(Ordering::Acquire) {
                return None;
            }
            let q = self.shards[me].jobs.lock().expect("engine shard poisoned");
            if q.is_empty() && self.running.load(Ordering::Acquire) {
                // Park briefly; the timeout re-runs the steal sweep so jobs
                // landing only on sibling shards are still picked up.
                let _ = self.shards[me]
                    .not_empty
                    .wait_timeout(q, Duration::from_millis(1))
                    .expect("engine shard poisoned");
            }
        }
    }

    fn complete_job(&self) {
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        if self.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.drain_lock.lock().expect("engine drain lock poisoned");
            self.drained.notify_all();
        }
    }

    fn wait_drained(&self) {
        let mut guard = self.drain_lock.lock().expect("engine drain lock poisoned");
        while self.in_flight.load(Ordering::Acquire) != 0 {
            let (g, _) = self
                .drained
                .wait_timeout(guard, Duration::from_millis(5))
                .expect("engine drain lock poisoned");
            guard = g;
        }
    }

    fn record_panic(&self, ws: &mut Workspace) {
        // The arena may be mid-mutation; a fresh one keeps the worker sound.
        *ws = Workspace::new();
        self.metrics.add(Counter::EnginePanics, 1);
        self.stats.panics.fetch_add(1, Ordering::Relaxed);
    }

    fn solve_one(
        &self,
        worker: usize,
        seq: usize,
        req: LabelRequest,
        ws: &mut Workspace,
    ) -> LabelResponse {
        let id = req.id;
        if let Some(deadline) = req.deadline {
            let now = Instant::now();
            if now > deadline {
                self.metrics.add(Counter::EngineDeadlineMisses, 1);
                self.metrics
                    .incident(req.trace_id(), "engine.deadline_miss");
                self.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
                return LabelResponse {
                    id,
                    batch_index: seq,
                    worker,
                    result: Err(SsgError::DeadlineExceeded {
                        missed_by: now - deadline,
                    }),
                };
            }
        }
        let start = Instant::now();
        let solved = {
            let _span = self.metrics.span("engine.solve");
            catch_unwind(AssertUnwindSafe(|| self.dispatch(&req, ws)))
        };
        let wall = start.elapsed();
        let result = match solved {
            Ok(r) => r.map(|(labeling, algorithm)| LabelOutcome {
                labeling,
                algorithm,
                wall,
            }),
            Err(payload) => {
                self.record_panic(ws);
                self.metrics.incident(req.trace_id(), "engine.panic");
                Err(SsgError::WorkerPanic(panic_message(payload)))
            }
        };
        LabelResponse {
            id,
            batch_index: seq,
            worker,
            result,
        }
    }

    /// Resolves the request's solver and runs it. Under
    /// [`SolverHint::Auto`] a bare graph goes through
    /// [`SolverRegistry::auto_coloring`], and a shaped instance runs the
    /// solver [`auto_route`] picks for the class its shape guarantees.
    fn dispatch(
        &self,
        req: &LabelRequest,
        ws: &mut Workspace,
    ) -> Result<(Labeling, String), SsgError> {
        let sep = &req.sep;
        let m = &self.metrics;
        let (problem, class) = match &req.instance {
            RequestInstance::Graph(g) if req.hint == SolverHint::Auto => {
                let out = self.registry.auto_coloring(g, sep, ws, m);
                return Ok((out.labeling, out.algorithm.to_string()));
            }
            RequestInstance::Graph(g) => (Problem::graph(g, sep), GraphClass::Unknown),
            RequestInstance::Interval(rep) => (Problem::interval(rep, sep), GraphClass::Interval),
            RequestInstance::UnitInterval(rep) => {
                (Problem::unit_interval(rep, sep), GraphClass::ProperInterval)
            }
            RequestInstance::Tree(t) => (Problem::tree(t, sep), GraphClass::Tree),
        };
        let name = match &req.hint {
            SolverHint::Named(name) => name.as_str(),
            SolverHint::Auto => auto_route(class, sep).ok_or_else(|| {
                SsgError::Spec(format!(
                    "no {shape} solver for L({deltas:?}): only all-ones, delta1-then-ones, or \
                     (for unit intervals) t = 2 vectors have auto routes — name a solver \
                     explicitly",
                    shape = problem.instance.kind().name(),
                    deltas = sep.deltas()
                ))
            })?,
        };
        let labeling = self.registry.try_solve(name, &problem, ws, m)?;
        Ok((labeling, name.to_string()))
    }
}

fn worker_loop(inner: &Inner, me: usize, ws: &mut Workspace) {
    let m = &inner.metrics;
    while let Some(job) = inner.next_job(me) {
        if m.is_enabled() {
            m.gauge_set(
                Gauge::QueueDepth,
                inner.queued.load(Ordering::Relaxed) as u64,
            );
            m.gauge_set(
                Gauge::InFlight,
                inner.in_flight.load(Ordering::Acquire) as u64,
            );
        }
        match job {
            Job::Label {
                seq,
                req,
                tx,
                enqueued_at,
            } => {
                // Propagated requests join the caller's trace: events tag
                // the wire trace id and worker spans nest under the
                // caller's span from the other side of the socket.
                let (trace_id, parent_span) = req.trace.unwrap_or((req.id, 0));
                let _scope = m.trace_scope_with_parent(trace_id, parent_span);
                if let Some(t0) = enqueued_at {
                    m.observe(Hist::QueueWait, t0.elapsed());
                }
                m.event("engine.dequeue");
                let response = inner.solve_one(me, seq, *req, ws);
                // Count the completion before the send: once the caller has
                // received every response (run_batch), stats() must already
                // show them all as completed.
                inner.complete_job();
                m.event("engine.reply");
                let _ = tx.send(response);
                if let Some(t0) = enqueued_at {
                    m.observe(Hist::RequestLatency, t0.elapsed());
                }
            }
            Job::Task(f) => {
                if catch_unwind(AssertUnwindSafe(|| f(ws))).is_err() {
                    inner.record_panic(ws);
                }
                inner.complete_job();
            }
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "solver panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssg_graph::generators;

    fn sep2() -> SeparationVector {
        SeparationVector::two(2, 1).unwrap()
    }

    #[test]
    fn batch_preserves_input_order_and_ids() {
        let engine = Engine::builder().workers(2).build();
        let reqs: Vec<LabelRequest> = (0..16u64)
            .map(|id| {
                LabelRequest::new(
                    1000 + id,
                    RequestInstance::Graph(generators::path(4 + id as usize)),
                    sep2(),
                )
            })
            .collect();
        let responses = engine.run_batch(reqs);
        assert_eq!(responses.len(), 16);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.batch_index, i);
            assert_eq!(r.id, 1000 + i as u64);
            let out = r.result.as_ref().expect("path labels fine");
            assert_eq!(out.labeling.len(), 4 + i);
        }
        let stats = engine.stats();
        assert_eq!(stats.submitted, 16);
        assert_eq!(stats.completed, 16);
        assert_eq!(stats.in_flight, 0);
        engine.shutdown();
    }

    #[test]
    fn batch_accepts_builder_constructed_graphs() {
        // Requests carrying graphs assembled edge-by-edge through the public
        // `GraphBuilder` must route and solve identically to generator-made
        // instances: the engine only ever sees finished CSR graphs.
        let engine = Engine::builder().workers(2).build();
        let reqs: Vec<LabelRequest> = (0..8u64)
            .map(|id| {
                let n = 5 + id as usize;
                let mut b = ssg_graph::GraphBuilder::with_capacity(n, n - 1);
                for v in 1..n as u32 {
                    b.add_edge(v - 1, v);
                }
                LabelRequest::new(id, RequestInstance::Graph(b.build().unwrap()), sep2())
            })
            .collect();
        let via_builder = engine.run_batch(reqs);
        let generated: Vec<LabelRequest> = (0..8u64)
            .map(|id| {
                LabelRequest::new(
                    id,
                    RequestInstance::Graph(generators::path(5 + id as usize)),
                    sep2(),
                )
            })
            .collect();
        let via_generator = engine.run_batch(generated);
        for (a, b) in via_builder.iter().zip(&via_generator) {
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(a.labeling.colors(), b.labeling.colors());
            assert_eq!(a.algorithm, b.algorithm);
        }
        engine.shutdown();
    }

    #[test]
    fn named_hint_routes_and_rejects() {
        let engine = Engine::builder().workers(1).build();
        let ok = LabelRequest::new(0, RequestInstance::Graph(generators::cycle(8)), sep2())
            .solver("greedy_bfs");
        let unknown = LabelRequest::new(1, RequestInstance::Graph(generators::cycle(8)), sep2())
            .solver("nope");
        let mismatch = LabelRequest::new(2, RequestInstance::Graph(generators::path(4)), sep2())
            .solver("tree_l1");
        let responses = engine.run_batch(vec![ok, unknown, mismatch]);
        assert!(responses[0].result.is_ok());
        assert!(matches!(
            responses[1].result,
            Err(SsgError::UnknownSolver { .. })
        ));
        assert!(matches!(
            responses[2].result,
            Err(SsgError::ClassMismatch { .. })
        ));
    }

    #[test]
    fn named_interval_solver_takes_a_unit_interval_instance() {
        let engine = Engine::builder().workers(1).build();
        let unit = ssg_intervals::gen::random_connected_unit_intervals(20, 0.5, &mut rand_rng());
        let sep = SeparationVector::all_ones(2);
        let want = ssg_labeling::interval::l1_coloring(unit.as_interval(), 2).labeling;
        let req =
            LabelRequest::new(0, RequestInstance::UnitInterval(unit), sep).solver("interval_l1");
        let responses = engine.run_batch(vec![req]);
        let out = responses[0]
            .result
            .as_ref()
            .expect("interval_l1 takes a unit interval");
        assert_eq!(out.labeling, want);
        assert_eq!(out.algorithm, "interval_l1");
    }

    #[test]
    fn auto_without_route_is_a_spec_error() {
        let engine = Engine::builder().workers(1).build();
        // L(3,2) on a tree has no auto route (neither all-ones nor tail-ones).
        let g = generators::random_tree(10, &mut rand_rng());
        let t = RootedTree::bfs_canonical(&g, 0).unwrap();
        let sep = SeparationVector::two(3, 2).unwrap();
        let responses = engine.run_batch(vec![LabelRequest::new(0, RequestInstance::Tree(t), sep)]);
        assert!(matches!(responses[0].result, Err(SsgError::Spec(_))));
    }

    fn rand_rng() -> impl rand::Rng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn batch_records_latency_histograms_and_span_chain() {
        let m = Metrics::with_tracing(4096);
        let engine = Engine::builder().workers(2).metrics(m.clone()).build();
        let reqs: Vec<LabelRequest> = (0..8u64)
            .map(|id| {
                LabelRequest::new(
                    id,
                    RequestInstance::Graph(generators::path(6 + id as usize)),
                    sep2(),
                )
            })
            .collect();
        let responses = engine.run_batch(reqs);
        assert!(responses.iter().all(|r| r.result.is_ok()));
        let snap = m.snapshot();
        // Every request shows up in queue-wait, end-to-end, and per-solver
        // latency distributions.
        assert_eq!(snap.hist(Hist::QueueWait).count(), 8);
        assert_eq!(snap.hist(Hist::RequestLatency).count(), 8);
        assert!(snap.hist(Hist::SolverSolve).count() >= 8);
        // Queue wait is bounded above by end-to-end latency.
        assert!(snap.hist(Hist::QueueWait).max() <= snap.hist(Hist::RequestLatency).max());
        // Worker loops sampled the gauges.
        assert!(snap.gauge_max(Gauge::InFlight) >= 1);
        // One request's full chain: enqueue -> dequeue -> solve span -> reply.
        let rec = m.recorder().unwrap();
        let names: Vec<&str> = rec.events_for(3).iter().map(|e| e.name).collect();
        for expected in [
            "engine.enqueue",
            "engine.dequeue",
            "engine.solve",
            "engine.reply",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        engine.shutdown();
    }

    #[test]
    fn propagated_trace_context_tags_the_chain_and_adopts_the_wire_parent() {
        let m = Metrics::with_tracing(4096);
        let engine = Engine::builder().workers(1).metrics(m.clone()).build();
        let wire_trace = 0xfeed_face_cafe_beefu64;
        let wire_parent = 12345u64;
        let req = LabelRequest::new(1, RequestInstance::Graph(generators::path(8)), sep2())
            .trace(wire_trace, wire_parent);
        assert_eq!(req.trace_id(), wire_trace);
        let responses = engine.run_batch(vec![req]);
        assert!(responses[0].result.is_ok());
        let rec = m.recorder().unwrap();
        // The whole chain is tagged with the wire trace id, not the local
        // request id.
        let events = rec.events_for(wire_trace);
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        for expected in [
            "engine.enqueue",
            "engine.dequeue",
            "engine.solve",
            "engine.reply",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        assert!(
            rec.events_for(1).is_empty(),
            "request id lane must stay empty"
        );
        // The worker's solve span is parented on the caller's wire span.
        let solve = events.iter().find(|e| e.name == "engine.solve").unwrap();
        assert_eq!(solve.parent_id, wire_parent);
        engine.shutdown();
    }

    #[test]
    fn deadline_miss_records_an_incident_with_the_request_chain() {
        let m = Metrics::with_tracing(4096);
        let engine = Engine::builder().workers(1).metrics(m.clone()).build();
        let expired = LabelRequest::new(99, RequestInstance::Graph(generators::path(64)), sep2())
            .deadline(Instant::now() - Duration::from_millis(10));
        let responses = engine.run_batch(vec![expired]);
        assert!(matches!(
            responses[0].result,
            Err(SsgError::DeadlineExceeded { .. })
        ));
        let rec = m.recorder().unwrap();
        assert_eq!(rec.incident_count(), 1);
        let events = rec.events_for(99);
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"engine.enqueue"), "{names:?}");
        assert!(names.contains(&"engine.deadline_miss"), "{names:?}");
        let miss = events
            .iter()
            .find(|e| e.name == "engine.deadline_miss")
            .unwrap();
        assert_eq!(miss.kind, ssg_telemetry::EventKind::Incident);
        // The dump carries the chain in schema form too.
        let dump = rec.to_json().render();
        assert!(dump.contains("\"ssg-trace/v1\""), "{dump}");
        assert!(dump.contains("engine.deadline_miss"), "{dump}");
        engine.shutdown();
    }

    #[test]
    fn solver_panic_records_an_incident() {
        let m = Metrics::with_tracing(1024);
        let engine = Engine::builder().workers(1).metrics(m.clone()).build();
        // A3 asserts t == 2, so a t=3 vector panics inside the solver.
        let sep3 = SeparationVector::new(vec![2, 1, 1]).unwrap();
        let mut rng = rand_rng();
        let src = ssg_intervals::gen::random_connected_unit_intervals(10, 0.5, &mut rng);
        let req = LabelRequest::new(7, RequestInstance::UnitInterval(src), sep3)
            .solver("unit_interval_l_delta1_delta2");
        let responses = engine.run_batch(vec![req]);
        assert!(matches!(responses[0].result, Err(SsgError::WorkerPanic(_))));
        let rec = m.recorder().unwrap();
        assert_eq!(rec.incident_count(), 1);
        assert!(rec.events_for(7).iter().any(|e| e.name == "engine.panic"));
        engine.shutdown();
    }

    #[test]
    fn execute_runs_closures_on_worker_workspaces() {
        let engine = Engine::builder().workers(2).build();
        let (tx, rx) = mpsc::channel();
        for i in 0..8u32 {
            let tx = tx.clone();
            engine
                .execute(move |ws| {
                    ws.begin_solve(&Metrics::disabled());
                    tx.send(i).unwrap();
                })
                .unwrap();
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        engine.drain();
        assert_eq!(engine.stats().completed, 8);
    }
}
