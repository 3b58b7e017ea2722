//! Load clients for `ssg serve`: an open-loop schedule and a closed-loop
//! saturation phase.
//!
//! Load comes from one process over [`CONNS`] connections, one thread per
//! connection (the caller's thread runs connection 0), with non-blocking
//! sockets. In the open loop a thread with nothing in flight sleeps until
//! [`LEAD`] before its next due time; for that last stretch, and while
//! replies are outstanding, it polls on a [`TICK`]. Sends are never paced
//! with `SO_RCVTIMEO`: its timeouts are jiffy-granular, and a client paced
//! that way runs milliseconds late at p99.

use ssg_net::protocol::{LineEvent, LineReader};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Connections (and client threads) per phase.
pub const CONNS: u64 = 2;

/// Poll interval while replies are outstanding or a send is near.
pub const TICK: Duration = Duration::from_micros(50);

/// How long before a due time a sleeping thread switches to ticking. On a
/// virtual machine a vCPU left idle for the whole gap between requests
/// can take a host scheduler tick (4 ms) to wake, which made whole runs
/// send 1 % of their requests ~4 ms late; short naps keep the wake-up
/// prompt.
pub const LEAD: Duration = Duration::from_millis(1);

/// Requests each connection keeps in flight during saturation.
pub const SATURATION_DEPTH: usize = 16;

/// Largest reply line accepted (an `OK` line for n = 65536 stations).
const MAX_REPLY_BYTES: usize = 1 << 20;

/// One request/reply exchange as a connection thread saw it.
#[derive(Debug)]
pub struct Exchange<T> {
    /// Global request index.
    pub k: u64,
    /// How late the request was written, relative to its due time
    /// (always 0 in the closed loop, where requests have no due time).
    pub late_ns: u64,
    /// Reply receipt minus due time (open loop) or send time (closed loop).
    pub latency_ns: u64,
    /// When the reply line was complete.
    pub received: Instant,
    /// What the caller's reply handler made of the line.
    pub result: T,
}

/// Per-request hooks: the line to send, and what to keep from the reply.
pub struct Traffic<'a, T> {
    /// Request line (no newline) for global index `k`.
    pub line_for: &'a (dyn Fn(u64) -> String + Sync),
    /// Handler for the reply line of request `k`; runs on the connection
    /// thread after the receipt time is taken.
    pub on_reply: &'a (dyn Fn(u64, String) -> T + Sync),
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A non-blocking line-protocol connection with a write buffer.
struct Conn {
    stream: TcpStream,
    reader: LineReader<TcpStream>,
    out: Vec<u8>,
    written: usize,
}

impl Conn {
    /// Connects non-blocking, or blocking with reads that time out after
    /// `read_timeout` so the caller can check its time limit.
    fn connect(addr: &str, read_timeout: Option<Duration>) -> Result<Conn, String> {
        let io = |e: std::io::Error| format!("{addr}: {e}");
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        match read_timeout {
            Some(t) => stream.set_read_timeout(Some(t)).map_err(io)?,
            None => stream.set_nonblocking(true).map_err(io)?,
        }
        let reader = LineReader::new(stream.try_clone().map_err(io)?, MAX_REPLY_BYTES);
        Ok(Conn {
            stream,
            reader,
            out: Vec::new(),
            written: 0,
        })
    }

    /// Buffers `line` and writes as much of the buffer as the socket takes.
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.flush()
    }

    fn flush(&mut self) -> Result<(), String> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err("connection closed while writing".into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        self.out.clear();
        self.written = 0;
        Ok(())
    }

    /// The next complete reply line, if one arrives before the socket
    /// would block (or its read timeout passes).
    fn poll(&mut self) -> Result<Option<String>, String> {
        match self.reader.next_line() {
            Ok(LineEvent::Line(line)) => Ok(Some(line)),
            Ok(LineEvent::TimedOut) => Ok(None),
            Ok(LineEvent::Eof) => Err("server closed the connection".into()),
            Ok(LineEvent::Overlong) => Err("reply line over the size bound".into()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Runs `per_conn(c)` for every connection `c`, connection 0 on the
/// calling thread, and concatenates the results.
fn on_each_conn<T: Send>(
    per_conn: impl Fn(u64) -> Result<Vec<Exchange<T>>, String> + Sync,
) -> Result<Vec<Exchange<T>>, String> {
    std::thread::scope(|s| {
        let others: Vec<_> = (1..CONNS)
            .map(|c| {
                let per_conn = &per_conn;
                s.spawn(move || per_conn(c))
            })
            .collect();
        let mut all = per_conn(0)?;
        for h in others {
            all.extend(
                h.join()
                    .map_err(|_| "client thread panicked".to_string())??,
            );
        }
        Ok(all)
    })
}

/// Sends requests `ks` on the fixed schedule `t0 + (k - ks.start) / rate`
/// and returns one exchange per request. Latency is timed from each
/// request's due time, so a stall also charges the requests queued behind
/// it. Fails if the server breaks a connection or `give_up` passes.
pub fn open_loop<T: Send>(
    addr: &str,
    t0: Instant,
    rate_rps: f64,
    ks: Range<u64>,
    traffic: &Traffic<'_, T>,
    give_up: Instant,
) -> Result<Vec<Exchange<T>>, String> {
    let due = |k: u64| t0 + Duration::from_secs_f64((k - ks.start) as f64 / rate_rps);
    on_each_conn(|c| {
        let mut conn = Conn::connect(addr, None)?;
        let first = ks.start + (c + CONNS - ks.start % CONNS) % CONNS;
        let mut next = first;
        let mut inflight: VecDeque<(u64, Instant, Instant)> = VecDeque::new();
        let mut done = Vec::new();
        let mut receive = |line: String, inflight: &mut VecDeque<(u64, Instant, Instant)>| {
            let received = Instant::now();
            let (k, due_at, sent) = inflight
                .pop_front()
                .ok_or("reply with no request in flight")?;
            done.push(Exchange {
                k,
                late_ns: ns(sent - due_at),
                latency_ns: ns(received - due_at),
                received,
                result: (traffic.on_reply)(k, line),
            });
            Ok::<(), String>(())
        };
        loop {
            while next < ks.end && due(next) <= Instant::now() {
                conn.send(&(traffic.line_for)(next))?;
                inflight.push_back((next, due(next), Instant::now()));
                next += CONNS;
            }
            conn.flush()?;
            while let Some(line) = conn.poll()? {
                receive(line, &mut inflight)?;
            }
            if next >= ks.end && inflight.is_empty() {
                break;
            }
            let now = Instant::now();
            if now > give_up {
                return Err(format!(
                    "open loop: {} replies outstanding at the time limit",
                    inflight.len()
                ));
            }
            let until_due = (next < ks.end).then(|| due(next).saturating_duration_since(now));
            let nap = match until_due {
                Some(d) if inflight.is_empty() && d > LEAD + TICK => d - LEAD,
                Some(d) => d.min(TICK),
                None => TICK,
            };
            std::thread::sleep(nap);
        }
        Ok(done)
    })
}

/// Closed loop: every connection keeps [`SATURATION_DEPTH`] requests in
/// flight for `duration`, drawing global indices from `first_k` upward,
/// then drains. With no schedule to keep, each thread blocks in `read`
/// until its next reply, so receipt times are exact and the client burns
/// no CPU the server could use. Returns every exchange and the phase's
/// start instant.
pub fn closed_loop<T: Send>(
    addr: &str,
    first_k: u64,
    duration: Duration,
    traffic: &Traffic<'_, T>,
    give_up: Instant,
) -> Result<(Vec<Exchange<T>>, Instant), String> {
    let next_k = AtomicU64::new(first_k);
    let start = Instant::now();
    let end = start + duration;
    let all = on_each_conn(|_| {
        let mut conn = Conn::connect(addr, Some(Duration::from_millis(100)))?;
        let mut inflight: VecDeque<(u64, Instant)> = VecDeque::new();
        let mut done = Vec::new();
        loop {
            while inflight.len() < SATURATION_DEPTH && Instant::now() < end {
                let k = next_k.fetch_add(1, Ordering::Relaxed);
                conn.send(&(traffic.line_for)(k))?;
                inflight.push_back((k, Instant::now()));
            }
            conn.flush()?;
            if let Some(line) = conn.poll()? {
                let received = Instant::now();
                let (k, sent) = inflight
                    .pop_front()
                    .ok_or("reply with no request in flight")?;
                done.push(Exchange {
                    k,
                    late_ns: 0,
                    latency_ns: ns(received - sent),
                    received,
                    result: (traffic.on_reply)(k, line),
                });
            }
            if inflight.is_empty() && Instant::now() >= end {
                return Ok(done);
            }
            if Instant::now() > give_up {
                return Err(format!(
                    "saturation: {} replies outstanding at the time limit",
                    inflight.len()
                ));
            }
        }
    })?;
    Ok((all, start))
}
