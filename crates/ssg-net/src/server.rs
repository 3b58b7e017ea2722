//! The TCP front door: one acceptor thread, one thread per connection,
//! all label work flowing through the shared [`Engine`] shard queues.
//!
//! The server speaks two protocols on one port. The first line of each
//! connection is sniffed: `LABEL`/`PING`/`QUIT`/`SHUTDOWN` verbs select
//! the line protocol (pipelined, many requests per connection); an HTTP
//! request line (`GET /healthz HTTP/1.1`, ...) selects minimal HTTP/1.1
//! (one request per connection, `Connection: close`).
//!
//! There are no signal handlers anywhere in this workspace
//! (`forbid(unsafe_code)` rules out `sigaction`), so graceful shutdown is
//! driven by a flag + listener wakeup instead: the `SHUTDOWN` wire verb
//! (loopback peers only), a `--duration` elapsing in the CLI, or a
//! programmatic [`Server::shutdown`] all set the same flag; the acceptor
//! is woken by a self-connect, stops accepting, connection threads finish
//! the request they are reading or serving, and the engine drains before
//! the workers are joined.

use crate::http;
use crate::protocol::{
    parse_request, render_err, render_ok, LineEvent, LineReader, Request, MAX_LINE_BYTES,
};
use ssg_engine::{Backpressure, Engine, EngineStats, LabelResponse};
use ssg_error::SsgError;
use ssg_telemetry::{Counter, Metrics, Phase};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection thread blocks in `read` before checking the
/// shutdown flag. Small enough that drain latency is imperceptible, large
/// enough that idle connections cost almost nothing.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

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

    /// Graceful drain: stop accepting, let connection threads finish the
    /// request they are on, drain the engine queues, join the workers.
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
        // exits at its next idle read (<= READ_TIMEOUT after its buffer and
        // socket go quiet).
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
/// first line, then loops (line protocol) or answers once (HTTP).
fn serve_connection(stream: TcpStream, peer: SocketAddr, shared: &Shared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = LineReader::new(stream, MAX_LINE_BYTES);
    let mut first = true;
    loop {
        let line = match reader.next_line()? {
            LineEvent::Line(line) => line,
            LineEvent::Overlong => {
                shared.metrics.add(Counter::NetProtocolErrors, 1);
                let err =
                    SsgError::parse("request", format!("line exceeds {MAX_LINE_BYTES} bytes"));
                writer.write_all(format!("{}\n", render_err(&err)).as_bytes())?;
                writer.flush()?;
                first = false;
                continue;
            }
            LineEvent::TimedOut => {
                if shared.is_shutting_down() {
                    return Ok(());
                }
                continue;
            }
            LineEvent::Eof => return Ok(()),
        };
        if first && http::looks_like_http(&line) {
            return http::serve_http(&line, &mut reader, &mut writer, shared);
        }
        first = false;
        match parse_request(&line) {
            Ok(Request::Ping) => {
                writer.write_all(b"PONG\n")?;
                writer.flush()?;
            }
            Ok(Request::Quit) => {
                writer.write_all(b"BYE\n")?;
                writer.flush()?;
                return Ok(());
            }
            Ok(Request::Shutdown) => {
                if peer.ip().is_loopback() {
                    shared.shutdown_requested.store(true, Ordering::Release);
                    writer.write_all(b"BYE\n")?;
                    writer.flush()?;
                    return Ok(());
                }
                shared.metrics.add(Counter::NetProtocolErrors, 1);
                let err = SsgError::Usage("SHUTDOWN is restricted to loopback peers".into());
                writer.write_all(format!("{}\n", render_err(&err)).as_bytes())?;
                writer.flush()?;
            }
            Ok(Request::Label(spec)) => {
                let reply = serve_label(&spec, shared);
                writer.write_all(reply.as_bytes())?;
                writer.flush()?;
            }
            Err(err) => {
                // Malformed request: answer ERR and keep the connection —
                // one bad line must not take down a pipelined peer.
                shared.metrics.add(Counter::NetProtocolErrors, 1);
                writer.write_all(format!("{}\n", render_err(&err)).as_bytes())?;
                writer.flush()?;
            }
        }
    }
}

/// Submits one `LABEL` request to the engine and renders the reply line.
/// Shared by the line protocol and `POST /label`.
pub(crate) fn serve_label(spec: &crate::protocol::LabelSpec, shared: &Shared) -> String {
    let _serve = shared.metrics.time(Phase::Serve);
    shared.metrics.add(Counter::NetRequests, 1);
    let id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    let mut req = spec.to_request(id);
    let deadline_ms = spec.deadline_ms.map(Duration::from_millis);
    if let Some(timeout) = deadline_ms.or(shared.default_deadline) {
        req = req.timeout(timeout);
    }
    let (tx, rx) = mpsc::channel::<LabelResponse>();
    let result = match shared.engine.submit(req, &tx) {
        Ok(()) => match rx.recv() {
            Ok(resp) => resp.result,
            Err(_) => Err(SsgError::WorkerPanic("engine reply channel closed".into())),
        },
        Err(e) => Err(e),
    };
    match result {
        // Echo the trace id only when the request propagated one: old
        // clients parse every post-span token as a color.
        Ok(outcome) => {
            let mut line = render_ok(&outcome, spec.trace.map(|(trace_id, _)| trace_id));
            line.push('\n');
            line
        }
        Err(err) => {
            shared.metrics.add(Counter::NetProtocolErrors, 1);
            format!("{}\n", render_err(&err))
        }
    }
}
