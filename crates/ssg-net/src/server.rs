//! The TCP front door: one acceptor thread, one thread per connection,
//! all label work flowing through the shared [`Engine`] shard queues.
//!
//! The server speaks two protocols on one port. The first line of each
//! connection is sniffed: `LABEL`/`PING`/`QUIT`/`SHUTDOWN` verbs select
//! the line protocol (pipelined, many requests per connection); an HTTP
//! request line (`GET /healthz HTTP/1.1`, ...) selects minimal HTTP/1.1
//! (one request per connection, `Connection: close`).
//!
//! A line-protocol connection is a two-deep pipeline
//! ([`PIPELINE_DEPTH`]): its thread parses, generates and submits request
//! k+1 while a worker solves request k. Every engine reply of the
//! connection comes back on one `mpsc` channel, made once per connection.
//! Replies are rendered in request order into one output buffer, and the
//! ready ones are written together: before the thread waits (for the peer
//! or for the engine) and whenever [`FLUSH_BYTES`] are pending.
//!
//! There are no signal handlers anywhere in this workspace
//! (`forbid(unsafe_code)` rules out `sigaction`), so graceful shutdown is
//! driven by a flag + listener wakeup instead: the `SHUTDOWN` wire verb
//! (loopback peers only), a `--duration` elapsing in the CLI, or a
//! programmatic [`Server::shutdown`] all set the same flag; the acceptor
//! is woken by a self-connect, stops accepting, connection threads answer
//! the backlog they have received, and the engine drains before the
//! workers are joined. A connection whose peer has stopped reading is
//! abandoned once the drain has begun (see [`PeerWriter`]).

use crate::http;
use crate::protocol::{
    parse_request, push_ok, render_err, LabelSpec, LineEvent, LineReader, Request, MAX_LINE_BYTES,
};
use ssg_engine::{Backpressure, Engine, EngineStats, LabelOutcome, LabelResponse};
use ssg_error::SsgError;
use ssg_telemetry::{Counter, Metrics, Phase};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection thread blocks in `read` or `write` before
/// checking the shutdown flag. Small enough that drain latency is
/// imperceptible, large enough that idle connections cost almost nothing.
const IO_TIMEOUT: Duration = Duration::from_millis(50);

/// Replies one line-protocol connection may owe at once, engine requests
/// and finished lines alike. Two lets the thread prepare request k+1 while
/// a worker solves request k, and a request waits behind at most one other
/// of its connection. Each owed request holds a generated instance, so
/// every slot past two adds one instance per connection to the resident
/// set: 64 deep more than doubled peak RSS on n = 4000 interval requests
/// (5.9 → 13.3 MB) without a steady throughput gain.
const PIPELINE_DEPTH: usize = 2;

/// Pending reply bytes that are written at once, even while more replies
/// are ready. Otherwise a finished reply waits until the thread next
/// waits, which can be after it has generated the next request: holding
/// finished n = 4000 replies (about 12 KB) that way cut saturated interval
/// throughput by a third. Replies of small requests stay coalesced under
/// one page.
const FLUSH_BYTES: usize = 4096;

/// Configuration for [`Server::bind`].
#[derive(Debug)]
pub struct ServerConfig {
    /// Engine worker threads (default: 2).
    pub workers: usize,
    /// Per-shard queue bound (default: 64).
    pub queue_capacity: usize,
    /// Full-queue policy (default [`Backpressure::Block`]). `FailFast`
    /// turns saturation into immediate `ERR queue_full` replies — the
    /// honest mode for open-loop load.
    pub backpressure: Backpressure,
    /// Deadline applied to requests that don't carry their own
    /// `deadline_ms=` option, measured from server receipt.
    pub default_deadline: Option<Duration>,
    /// Connection cap; further connections are refused with a best-effort
    /// `ERR queue_full` line (default: 64).
    pub max_conns: usize,
    /// Telemetry handle shared by the acceptor, connection threads, and
    /// engine workers; `/metrics` renders from it.
    pub metrics: Metrics,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            backpressure: Backpressure::Block,
            default_deadline: None,
            max_conns: 64,
            metrics: Metrics::disabled(),
        }
    }
}

/// State shared between the acceptor and every connection thread.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) metrics: Metrics,
    /// Set once; acceptor and connection loops exit when they see it.
    shutting_down: AtomicBool,
    /// Set by the `SHUTDOWN` wire verb; the CLI polls it via
    /// [`Server::shutdown_requested`] and then calls [`Server::shutdown`].
    shutdown_requested: AtomicBool,
    active_conns: AtomicUsize,
    next_request_id: AtomicU64,
    default_deadline: Option<Duration>,
    max_conns: usize,
}

impl Shared {
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }
}

/// A running front door. Dropping it without calling [`Server::shutdown`]
/// leaks the acceptor thread until process exit; call `shutdown` for a
/// clean drain.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr`, spawns the engine workers and the acceptor thread,
    /// and starts serving. Use port 0 for an ephemeral port and read the
    /// outcome from [`Server::local_addr`].
    pub fn bind<A: ToSocketAddrs + std::fmt::Display>(
        addr: A,
        cfg: ServerConfig,
    ) -> Result<Server, SsgError> {
        let listener = TcpListener::bind(&addr).map_err(|e| SsgError::io(addr.to_string(), &e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| SsgError::io(addr.to_string(), &e))?;
        let engine = Engine::builder()
            .workers(cfg.workers)
            .queue_capacity(cfg.queue_capacity)
            .backpressure(cfg.backpressure)
            .metrics(cfg.metrics.clone())
            .build();
        let shared = Arc::new(Shared {
            engine,
            metrics: cfg.metrics,
            shutting_down: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            next_request_id: AtomicU64::new(1),
            default_deadline: cfg.default_deadline,
            max_conns: cfg.max_conns.max(1),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("ssg-acceptor".into())
                .spawn(move || accept_loop(listener, shared, conns))
                .map_err(|e| SsgError::io("ssg-acceptor", &e))?
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The telemetry handle the server records on.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Engine activity totals so far.
    pub fn stats(&self) -> EngineStats {
        self.shared.engine.stats()
    }

    /// Whether a peer has asked the server to stop via the `SHUTDOWN`
    /// verb. The owner (the CLI run loop) polls this and calls
    /// [`Server::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Acquire)
    }

    /// Graceful drain: stop accepting, let connection threads answer the
    /// requests they have received, drain the engine queues, join the
    /// workers. A connection whose peer has stopped reading is abandoned.
    /// Returns the final engine totals.
    pub fn shutdown(mut self) -> EngineStats {
        self.shared.shutting_down.store(true, Ordering::Release);
        // Wake the acceptor out of its blocking accept() with a
        // self-connect; it observes the flag, serves every connection
        // queued ahead of this one, and exits.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Connection threads are joined BEFORE the engine stops accepting:
        // a pipelined peer's already-received backlog is in-flight work and
        // completes with real replies, not `ERR shutting_down`. Each thread
        // exits at its next idle read (<= IO_TIMEOUT after its buffer and
        // socket go quiet), or at a write that makes no progress for
        // IO_TIMEOUT (a peer that stopped reading).
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().expect("conn registry poisoned"));
        for h in handles {
            let _ = h.join();
        }
        self.shared.engine.begin_drain();
        self.shared.engine.drain();
        self.shared.engine.stats()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // While draining, WouldBlock: every queued connection is served.
            Err(_) => break,
        };
        if shared.is_shutting_down() {
            // Shutdown's wake-up connect queues behind every connection the
            // kernel had already accepted. Dropping one of those would reset
            // its peer and lose the backlog it sent, so keep serving them —
            // without blocking — until the queue is empty; the listener
            // closes when this loop returns. The wake-up connection itself
            // reads EOF at once.
            if listener.set_nonblocking(true).is_err() || stream.set_nonblocking(false).is_err() {
                break;
            }
        }
        {
            // Reap finished connection threads so the registry (and the
            // joins at shutdown) stay proportional to live connections.
            let mut reg = conns.lock().expect("conn registry poisoned");
            reg.retain(|h| !h.is_finished());
        }
        if shared.active_conns.load(Ordering::Relaxed) >= shared.max_conns {
            let mut stream = stream;
            let _ = stream.write_all(b"ERR queue_full connection limit reached\n");
            shared.metrics.add(Counter::NetProtocolErrors, 1);
            continue;
        }
        shared.metrics.add(Counter::NetConnections, 1);
        shared.active_conns.fetch_add(1, Ordering::Relaxed);
        let shared_conn = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("ssg-conn".into())
            .spawn(move || {
                let _ = serve_connection(stream, peer, &shared_conn);
                shared_conn.active_conns.fetch_sub(1, Ordering::Relaxed);
            });
        match handle {
            Ok(h) => conns.lock().expect("conn registry poisoned").push(h),
            Err(_) => {
                shared.active_conns.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Serves one connection to completion: sniffs the protocol from the
/// first line, then pipelines line-protocol requests or answers one HTTP
/// request.
///
/// A line-protocol connection owes its peer at most [`PIPELINE_DEPTH`]
/// replies, answered in request order. The socket is read (with its
/// timeout) only when nothing is owed; while a reply is owed, only a line
/// the reader already holds is taken, so the thread never waits on the
/// peer while it owes the peer a reply.
fn serve_connection(stream: TcpStream, peer: SocketAddr, shared: &Shared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut conn = LineConn::new(stream.try_clone()?, shared);
    let mut reader = LineReader::new(stream, MAX_LINE_BYTES);
    let mut first = true;
    loop {
        conn.answer(false)?;
        let event = if conn.owed.is_empty() {
            conn.flush()?;
            reader.next_line()?
        } else if conn.owed.len() < PIPELINE_DEPTH && reader.has_buffered_line() {
            reader.next_line()?
        } else {
            conn.answer(true)?;
            continue;
        };
        let line = match event {
            LineEvent::Line(line) => line,
            LineEvent::Overlong => {
                let err =
                    SsgError::parse("request", format!("line exceeds {MAX_LINE_BYTES} bytes"));
                conn.owe_err(&err);
                first = false;
                continue;
            }
            LineEvent::TimedOut if shared.is_shutting_down() => return Ok(()),
            LineEvent::TimedOut => continue,
            LineEvent::Eof => return Ok(()),
        };
        if first && http::looks_like_http(&line) {
            return http::serve_http(&line, &mut reader, &mut conn.writer, shared);
        }
        first = false;
        let received = shared.metrics.is_enabled().then(Instant::now);
        match parse_request(&line) {
            Ok(Request::Ping) => conn.owed.push_back(Owed::Line("PONG\n".into())),
            Ok(Request::Quit) => return conn.close(),
            Ok(Request::Shutdown) if peer.ip().is_loopback() => {
                shared.shutdown_requested.store(true, Ordering::Release);
                return conn.close();
            }
            Ok(Request::Shutdown) => {
                conn.owe_err(&SsgError::Usage(
                    "SHUTDOWN is restricted to loopback peers".into(),
                ));
            }
            Ok(Request::Label(spec)) => match submit_label(&spec, shared, &conn.tx) {
                Ok(id) => conn.owed.push_back(Owed::Label {
                    id,
                    trace: spec.trace.map(|(trace_id, _)| trace_id),
                    received,
                }),
                Err(err) => {
                    conn.owe_err(&err);
                    record_serve(shared, received);
                }
            },
            // Malformed request: answer ERR and keep the connection — one
            // bad line must not take down a pipelined peer.
            Err(err) => conn.owe_err(&err),
        }
    }
}

/// A reply a line-protocol connection owes its peer.
enum Owed {
    /// A reply that needed no engine work: `PONG`, `BYE` or an `ERR` line,
    /// newline included.
    Line(String),
    /// A `LABEL` request in the engine.
    Label {
        id: u64,
        /// The `trace=` echo of its `OK` line.
        trace: Option<u64>,
        /// When its line was read (`None` with telemetry off).
        received: Option<Instant>,
    },
}

/// The reply side of a line-protocol connection: the owed replies in
/// request order, the one engine reply channel, and the output buffer.
struct LineConn<'a> {
    shared: &'a Shared,
    owed: VecDeque<Owed>,
    tx: mpsc::Sender<LabelResponse>,
    rx: mpsc::Receiver<LabelResponse>,
    /// Engine replies that arrived before a reply owed ahead of them: two
    /// workers can finish one connection's requests out of order.
    early: Vec<LabelResponse>,
    /// Rendered replies not yet written.
    out: Vec<u8>,
    writer: PeerWriter<'a>,
}

impl<'a> LineConn<'a> {
    fn new(stream: TcpStream, shared: &'a Shared) -> Self {
        let (tx, rx) = mpsc::channel();
        LineConn {
            shared,
            owed: VecDeque::with_capacity(PIPELINE_DEPTH),
            tx,
            rx,
            early: Vec::with_capacity(PIPELINE_DEPTH),
            out: Vec::with_capacity(FLUSH_BYTES),
            writer: PeerWriter { stream, shared },
        }
    }

    /// Owes the peer the `ERR` line for `err`, counted as a protocol error.
    fn owe_err(&mut self, err: &SsgError) {
        self.owed.push_back(Owed::Line(err_line(err, self.shared)));
    }

    /// Renders owed replies from the front for as long as they are ready.
    /// With `wait`, a front request still in the engine is waited for
    /// first, after writing what is pending.
    fn answer(&mut self, mut wait: bool) -> std::io::Result<()> {
        loop {
            match self.owed.front() {
                None => return Ok(()),
                Some(Owed::Line(line)) => self.out.extend_from_slice(line.as_bytes()),
                Some(&Owed::Label {
                    id,
                    trace,
                    received,
                }) => {
                    let mut result = self.take_reply(id, false);
                    if result.is_none() && wait {
                        self.flush()?;
                        result = self.take_reply(id, true);
                    }
                    let Some(result) = result else {
                        return Ok(());
                    };
                    push_label_reply(&mut self.out, result, trace, self.shared);
                    record_serve(self.shared, received);
                }
            }
            self.owed.pop_front();
            wait = false;
            if self.out.len() >= FLUSH_BYTES {
                self.flush()?;
            }
        }
    }

    /// The engine's reply to request `id`, if it has arrived (with `wait`,
    /// once it arrives). Replies to later requests are kept until their
    /// turn.
    fn take_reply(&mut self, id: u64, wait: bool) -> Option<Result<LabelOutcome, SsgError>> {
        if let Some(i) = self.early.iter().position(|r| r.id == id) {
            return Some(self.early.swap_remove(i).result);
        }
        loop {
            let resp = if wait {
                self.rx.recv().expect("the connection holds a sender")
            } else {
                self.rx.try_recv().ok()?
            };
            if resp.id == id {
                return Some(resp.result);
            }
            self.early.push(resp);
        }
    }

    /// Writes the rendered replies.
    fn flush(&mut self) -> std::io::Result<()> {
        if !self.out.is_empty() {
            self.writer.write_all(&self.out)?;
            self.out.clear();
        }
        Ok(())
    }

    /// Answers everything owed, then `BYE`; the connection closes next.
    fn close(mut self) -> std::io::Result<()> {
        self.owed.push_back(Owed::Line("BYE\n".into()));
        while !self.owed.is_empty() {
            self.answer(true)?;
        }
        self.flush()
    }
}

/// A connection's socket, written under [`IO_TIMEOUT`]. A write that
/// times out is retried while the server runs, so a peer that stops
/// reading slows only its own connection. Once a drain has begun, a write
/// that makes no progress for one timeout fails, and the connection is
/// abandoned. `write_all` never sees a retried timeout, so it never loses
/// its place in a partly written buffer.
struct PeerWriter<'a> {
    stream: TcpStream,
    shared: &'a Shared,
}

impl Write for PeerWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.write(buf) {
                // SO_SNDTIMEO elapsing: WouldBlock or TimedOut.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) && !self.shared.is_shutting_down() => {}
                written => return written,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Submits one `LABEL` request to the engine, its reply to arrive on `tx`,
/// and returns its request id. The one submit path of the line protocol
/// and `POST /label`.
fn submit_label(
    spec: &LabelSpec,
    shared: &Shared,
    tx: &mpsc::Sender<LabelResponse>,
) -> Result<u64, SsgError> {
    shared.metrics.add(Counter::NetRequests, 1);
    let id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    let mut req = spec.to_request(id);
    let deadline_ms = spec.deadline_ms.map(Duration::from_millis);
    if let Some(timeout) = deadline_ms.or(shared.default_deadline) {
        req = req.timeout(timeout);
    }
    shared.engine.submit(req, tx).map(|()| id)
}

/// Appends a `LABEL` request's reply line, newline included, to `out`.
/// `trace` is echoed only when the request propagated one: old clients
/// parse every post-span token as a color.
fn push_label_reply(
    out: &mut Vec<u8>,
    result: Result<LabelOutcome, SsgError>,
    trace: Option<u64>,
    shared: &Shared,
) {
    match result {
        Ok(outcome) => {
            push_ok(out, &outcome, trace);
            out.push(b'\n');
        }
        Err(err) => out.extend_from_slice(err_line(&err, shared).as_bytes()),
    }
}

/// The `ERR` reply line for `err`, newline included, counted as a
/// protocol error.
fn err_line(err: &SsgError, shared: &Shared) -> String {
    shared.metrics.add(Counter::NetProtocolErrors, 1);
    format!("{}\n", render_err(err))
}

/// Records one network request's serve time, from the receipt of its line
/// to its rendered reply.
fn record_serve(shared: &Shared, received: Option<Instant>) {
    if let Some(t0) = received {
        shared.metrics.record_duration(Phase::Serve, t0.elapsed());
    }
}

/// Serves one `POST /label` request: submits it and waits for its reply.
/// A failed request counts as a protocol error, as its `ERR` line does on
/// the line protocol.
pub(crate) fn serve_label(spec: &LabelSpec, shared: &Shared) -> Result<LabelOutcome, SsgError> {
    let (tx, rx) = mpsc::channel();
    let result = submit_label(spec, shared, &tx).and_then(|_| match rx.recv() {
        Ok(resp) => resp.result,
        Err(_) => Err(SsgError::WorkerPanic("engine reply channel closed".into())),
    });
    if result.is_err() {
        shared.metrics.add(Counter::NetProtocolErrors, 1);
    }
    result
}
