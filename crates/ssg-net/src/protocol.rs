//! The `ssg-proto/1` wire protocol: grammar, parser, and encoders.
//!
//! The normative specification lives in the repository's `PROTOCOL.md`;
//! this module is its executable counterpart. Requests are single
//! newline-terminated ASCII lines:
//!
//! ```text
//! LABEL <workload> <n> <seed> <d1[,d2,...]> [solver=NAME] [deadline_ms=N] [trace=TID/SID]
//! PING
//! QUIT
//! SHUTDOWN
//! ```
//!
//! and responses are single lines starting with `OK`, `ERR`, `PONG`, or
//! `BYE`. Every `ERR` line carries the [`SsgError::kind`] of the failure as
//! its machine-readable code, so the wire error table is exactly the
//! workspace error table (and therefore exactly the CLI exit-code table).
//!
//! [`LineReader`] is the framing layer both the server and the load
//! generator read through: it yields complete lines, survives read
//! timeouts without losing partial input, and discards oversized frames
//! ([`MAX_LINE_BYTES`]) in constant memory instead of buffering them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ssg_engine::{LabelOutcome, LabelRequest, RequestInstance};
use ssg_error::SsgError;
use ssg_labeling::SeparationVector;
use ssg_netsim::{BackboneNetwork, CorridorNetwork, VehicularNetwork};
use std::io::{Read, Write};

/// Protocol name + major version, reported in docs and the HTTP reply
/// schema. Incompatible grammar changes bump the `/1`.
pub const PROTOCOL_VERSION: &str = "ssg-proto/1";

/// Upper bound on one *request* line in bytes, excluding the terminating
/// newline. Longer request lines are discarded through their newline and
/// answered with `ERR parse ...` — the connection survives, and server
/// memory stays bounded. Response lines (`OK` with `n` labels) are exempt.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Upper bound on the `n` operand of a `LABEL` request: one request may
/// ask for at most this many stations, keeping per-request server work and
/// reply size bounded.
pub const MAX_REQUEST_N: usize = 65_536;

/// The synthetic workloads a `LABEL` request can name. These are the same
/// generators the `ssg batch` request files use; the wire protocol
/// deliberately has no `file:` form (a network peer must not be able to
/// read server-side paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Interval stations along a corridor (`CorridorNetwork`).
    Corridor,
    /// Unit-interval vehicle platoon (`VehicularNetwork::platoon`).
    Platoon,
    /// Random degree-bounded tree backbone (`BackboneNetwork`).
    Backbone,
}

impl Workload {
    /// The lowercase wire token.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Corridor => "corridor",
            Workload::Platoon => "platoon",
            Workload::Backbone => "backbone",
        }
    }

    /// Parses a wire token (`corridor` / `platoon` / `backbone`).
    pub fn parse(token: &str) -> Option<Workload> {
        match token {
            "corridor" => Some(Workload::Corridor),
            "platoon" => Some(Workload::Platoon),
            "backbone" => Some(Workload::Backbone),
            _ => None,
        }
    }

    /// Generates the instance that `(self, n, seed)` names: the one table
    /// of generator parameters behind `LABEL` requests and `ssg batch`
    /// lines. Interval workloads never build their conflict graph.
    pub fn instance(self, n: usize, seed: u64) -> RequestInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Workload::Corridor => RequestInstance::Interval(
                CorridorNetwork::generate(n, 1.0, 1.0, 5.0, &mut rng).into_representation(),
            ),
            Workload::Platoon => RequestInstance::UnitInterval(
                VehicularNetwork::platoon(n, 4, &mut rng).into_representation(),
            ),
            Workload::Backbone => {
                RequestInstance::Tree(BackboneNetwork::generate(n, 4, &mut rng).into_tree())
            }
        }
    }
}

/// The payload of a `LABEL` request: which instance to generate and how to
/// label it. [`LabelSpec::render`] and [`parse_request`] are inverses.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelSpec {
    /// Synthetic workload family.
    pub workload: Workload,
    /// Number of stations (1 ..= [`MAX_REQUEST_N`]).
    pub n: usize,
    /// Generator seed; a fixed `(workload, n, seed)` triple names one
    /// reproducible instance.
    pub seed: u64,
    /// The separation vector to enforce.
    pub sep: SeparationVector,
    /// Optional named solver (`solver=NAME`); auto-dispatch otherwise.
    pub solver: Option<String>,
    /// Optional per-request deadline in milliseconds from server receipt
    /// (`deadline_ms=N`).
    pub deadline_ms: Option<u64>,
    /// Optional wire-propagated trace context
    /// (`trace=<hex64-trace-id>/<hex64-parent-span-id>`): the server tags
    /// this request's flight-recorder events with the trace id, nests its
    /// spans under the parent span, and echoes the trace id on the `OK`
    /// line.
    pub trace: Option<(u64, u64)>,
}

impl LabelSpec {
    /// Materializes the owned engine request for this spec. The instance is
    /// generated server-side from `(workload, n, seed)`; the deadline is
    /// *not* applied here (the server clocks it from receipt — see
    /// `Server`).
    pub fn to_request(&self, id: u64) -> LabelRequest {
        let instance = self.workload.instance(self.n, self.seed);
        let mut req = LabelRequest::new(id, instance, self.sep.clone());
        if let Some(name) = &self.solver {
            req = req.solver(name.clone());
        }
        if let Some((trace_id, parent_span)) = self.trace {
            req = req.trace(trace_id, parent_span);
        }
        req
    }

    /// The wire line for this spec (no trailing newline).
    pub fn render(&self) -> String {
        let mut line = format!(
            "LABEL {} {} {} {}",
            self.workload.name(),
            self.n,
            self.seed,
            render_seps(&self.sep)
        );
        if let Some(name) = &self.solver {
            line.push_str(" solver=");
            line.push_str(name);
        }
        if let Some(ms) = self.deadline_ms {
            line.push_str(" deadline_ms=");
            line.push_str(&ms.to_string());
        }
        if let Some((trace_id, parent_span)) = self.trace {
            line.push_str(&format!(" trace={trace_id:016x}/{parent_span:016x}"));
        }
        line
    }
}

/// `d1,d2,...` — the wire form of a separation vector.
pub fn render_seps(sep: &SeparationVector) -> String {
    sep.deltas()
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `LABEL ...` — generate and label an instance.
    Label(LabelSpec),
    /// `PING` — liveness probe, answered with `PONG`.
    Ping,
    /// `QUIT` — close this connection (`BYE`, then EOF).
    Quit,
    /// `SHUTDOWN` — ask the server to drain and stop (loopback peers only).
    Shutdown,
}

/// Parses `d1[,d2,...]` into a validated separation vector.
fn parse_seps(spec: &str) -> Result<SeparationVector, SsgError> {
    let deltas: Result<Vec<u32>, _> = spec.split(',').map(str::parse).collect();
    let deltas =
        deltas.map_err(|_| SsgError::parse("request", format!("bad separation list `{spec}`")))?;
    Ok(SeparationVector::new(deltas)?)
}

/// Parses one request line (newline already stripped).
///
/// ```
/// use ssg_net::protocol::{parse_request, Request, Workload};
/// let req = parse_request("LABEL corridor 40 7 2,1 deadline_ms=250").unwrap();
/// match req {
///     Request::Label(spec) => {
///         assert_eq!(spec.workload, Workload::Corridor);
///         assert_eq!(spec.n, 40);
///         assert_eq!(spec.deadline_ms, Some(250));
///     }
///     _ => panic!("expected a LABEL request"),
/// }
/// assert_eq!(parse_request("PING").unwrap(), Request::Ping);
/// assert!(parse_request("NOPE").is_err());
/// ```
pub fn parse_request(line: &str) -> Result<Request, SsgError> {
    let mut fields = line.split_whitespace();
    let verb = fields
        .next()
        .ok_or_else(|| SsgError::parse("request", "empty request line"))?;
    match verb {
        "PING" | "QUIT" | "SHUTDOWN" => {
            if fields.next().is_some() {
                return Err(SsgError::parse(
                    "request",
                    format!("{verb} takes no operands"),
                ));
            }
            Ok(match verb {
                "PING" => Request::Ping,
                "QUIT" => Request::Quit,
                _ => Request::Shutdown,
            })
        }
        "LABEL" => {
            let workload_token = fields
                .next()
                .ok_or_else(|| SsgError::parse("request", "LABEL: missing workload"))?;
            let workload = Workload::parse(workload_token).ok_or_else(|| {
                SsgError::parse(
                    "request",
                    format!("unknown workload `{workload_token}` (corridor|platoon|backbone)"),
                )
            })?;
            let n: usize = fields
                .next()
                .ok_or_else(|| SsgError::parse("request", "LABEL: missing n"))?
                .parse()
                .map_err(|_| SsgError::parse("request", "LABEL: bad n"))?;
            if !(1..=MAX_REQUEST_N).contains(&n) {
                return Err(SsgError::parse(
                    "request",
                    format!("LABEL: n must be in 1..={MAX_REQUEST_N}"),
                ));
            }
            let seed: u64 = fields
                .next()
                .ok_or_else(|| SsgError::parse("request", "LABEL: missing seed"))?
                .parse()
                .map_err(|_| SsgError::parse("request", "LABEL: bad seed"))?;
            let sep_spec = fields
                .next()
                .ok_or_else(|| SsgError::parse("request", "LABEL: missing separation list"))?;
            let sep = parse_seps(sep_spec)?;
            let mut spec = LabelSpec {
                workload,
                n,
                seed,
                sep,
                solver: None,
                deadline_ms: None,
                trace: None,
            };
            for opt in fields {
                if let Some(name) = opt.strip_prefix("solver=") {
                    if name.is_empty() {
                        return Err(SsgError::parse("request", "LABEL: empty solver name"));
                    }
                    spec.solver = Some(name.to_string());
                } else if let Some(ms) = opt.strip_prefix("deadline_ms=") {
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| SsgError::parse("request", "LABEL: bad deadline_ms"))?;
                    spec.deadline_ms = Some(ms);
                } else if let Some(ctx) = opt.strip_prefix("trace=") {
                    spec.trace = Some(parse_trace_context(ctx)?);
                } else {
                    return Err(SsgError::parse(
                        "request",
                        format!("LABEL: unknown option `{opt}`"),
                    ));
                }
            }
            Ok(Request::Label(spec))
        }
        other => Err(SsgError::parse(
            "request",
            format!("unknown verb `{other}` (LABEL|PING|QUIT|SHUTDOWN)"),
        )),
    }
}

/// Parses a `<hex64>/<hex64>` trace context (as carried by the `trace=`
/// LABEL option and the `X-Ssg-Trace` HTTP header) into
/// `(trace_id, parent_span_id)`. The trace id must be nonzero — 0 is the
/// recorder's untraced lane.
pub fn parse_trace_context(ctx: &str) -> Result<(u64, u64), SsgError> {
    let bad = || {
        SsgError::parse(
            "request",
            format!("bad trace context `{ctx}` (want <hex64-trace>/<hex64-span>)"),
        )
    };
    let (trace, span) = ctx.split_once('/').ok_or_else(bad)?;
    if trace.is_empty() || span.is_empty() || trace.len() > 16 || span.len() > 16 {
        return Err(bad());
    }
    let trace_id = u64::from_str_radix(trace, 16).map_err(|_| bad())?;
    let parent_span = u64::from_str_radix(span, 16).map_err(|_| bad())?;
    if trace_id == 0 {
        return Err(bad());
    }
    Ok((trace_id, parent_span))
}

/// One parsed response line (the client side of the protocol).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `OK <span> <labels...> [trace=TID]` — the labeling, one channel per
    /// vertex. The `trace=` echo appears **only** when the request carried
    /// a `trace=` option, so clients that never send trace context never
    /// see (and never mis-parse) the extra token.
    Ok {
        /// The span (largest channel) of the labeling.
        span: u32,
        /// Channel per vertex, in instance vertex order.
        colors: Vec<u32>,
        /// Echoed trace id, when the request propagated one.
        trace: Option<u64>,
    },
    /// `ERR <code> <message>` — a reified failure; `code` is
    /// [`SsgError::kind`].
    Err {
        /// Machine-readable failure code.
        code: String,
        /// Human-readable detail (may be empty).
        message: String,
    },
    /// `PONG` — answer to `PING`.
    Pong,
    /// `BYE` — answer to `QUIT`/`SHUTDOWN`; the connection closes next.
    Bye,
}

/// Appends the success line for a solved request (no trailing newline) to
/// `out`: the server renders each reply straight into its connection's
/// output buffer. `trace` must be the request's propagated trace id
/// (echoed as a final `trace=<hex64>` token) or `None` for untraced
/// requests — echoing unconditionally would break old clients, which parse
/// every post-span token as a color.
///
/// Below a span of 1000 the colors are copied from a table of `" c"` for
/// each `c ≤ span`, padded to four bytes: one fixed-size copy per color
/// instead of a digit loop and a variable-length append.
pub fn push_ok(out: &mut Vec<u8>, outcome: &LabelOutcome, trace: Option<u64>) {
    let colors = outcome.labeling.colors();
    let span = outcome.labeling.span();
    out.extend_from_slice(b"OK ");
    push_decimal(out, span);
    if span < TABLE_SPANS {
        let table: Vec<([u8; 4], u8)> = (0..=span).map(spaced_digits).collect();
        let mut at = out.len();
        out.resize(at + 4 * colors.len(), 0);
        for &c in colors {
            let (bytes, len) = table[c as usize];
            out[at..at + 4].copy_from_slice(&bytes);
            at += usize::from(len);
        }
        out.truncate(at);
    } else {
        out.reserve(colors.len() * 4);
        for &c in colors {
            out.push(b' ');
            push_decimal(out, c);
        }
    }
    if let Some(trace_id) = trace {
        write!(out, " trace={trace_id:016x}").expect("writing to a Vec cannot fail");
    }
}

/// Spans below this render their colors through [`push_ok`]'s table, whose
/// entries hold a space and at most three digits.
const TABLE_SPANS: u32 = 1000;

/// `" c"` for `c < 1000`, padded to four bytes, and its length.
fn spaced_digits(c: u32) -> ([u8; 4], u8) {
    let len = match c {
        0..=9 => 2,
        10..=99 => 3,
        _ => 4,
    };
    let mut bytes = [b' '; 4];
    let mut x = c;
    for b in bytes[1..len].iter_mut().rev() {
        *b = b'0' + (x % 10) as u8;
        x /= 10;
    }
    (bytes, len as u8)
}

/// Renders the success line for a solved request (no trailing newline):
/// [`push_ok`] into a fresh `String`.
pub fn render_ok(outcome: &LabelOutcome, trace: Option<u64>) -> String {
    let mut line = Vec::new();
    push_ok(&mut line, outcome, trace);
    String::from_utf8(line).expect("OK lines are ASCII")
}

/// Appends the decimal digits of `x` to `out`: what `x.to_string()` gives,
/// without allocating a `String` per number.
fn push_decimal(out: &mut Vec<u8>, mut x: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Renders the failure line for an error (no trailing newline). The
/// message is flattened to one line.
pub fn render_err(err: &SsgError) -> String {
    format!("ERR {} {}", err.kind(), flat_message(err))
}

/// An error's message on one line: line breaks become spaces.
pub(crate) fn flat_message(err: &SsgError) -> String {
    err.to_string()
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect()
}

/// Parses one response line (newline already stripped).
///
/// ```
/// use ssg_net::protocol::{parse_response, Response};
/// assert_eq!(
///     parse_response("OK 4 0 2 4").unwrap(),
///     Response::Ok { span: 4, colors: vec![0, 2, 4], trace: None }
/// );
/// assert_eq!(
///     parse_response("OK 4 0 2 4 trace=00000000000000ab").unwrap(),
///     Response::Ok { span: 4, colors: vec![0, 2, 4], trace: Some(0xab) }
/// );
/// assert_eq!(parse_response("PONG").unwrap(), Response::Pong);
/// match parse_response("ERR queue_full all shard queues full").unwrap() {
///     Response::Err { code, .. } => assert_eq!(code, "queue_full"),
///     _ => panic!("expected ERR"),
/// }
/// ```
pub fn parse_response(line: &str) -> Result<Response, SsgError> {
    let mut fields = line.split_whitespace();
    match fields.next() {
        Some("OK") => {
            let span: u32 = fields
                .next()
                .ok_or_else(|| SsgError::parse("response", "OK: missing span"))?
                .parse()
                .map_err(|_| SsgError::parse("response", "OK: bad span"))?;
            let mut rest: Vec<&str> = fields.collect();
            // The trace echo is always the final token, so peel it before
            // treating the remainder as the color list.
            let trace = match rest.last().and_then(|t| t.strip_prefix("trace=")) {
                Some(hex) => {
                    let id = u64::from_str_radix(hex, 16)
                        .map_err(|_| SsgError::parse("response", "OK: bad trace echo"))?;
                    rest.pop();
                    Some(id)
                }
                None => None,
            };
            let colors: Result<Vec<u32>, _> = rest.iter().map(|t| t.parse()).collect();
            let colors = colors.map_err(|_| SsgError::parse("response", "OK: bad label list"))?;
            Ok(Response::Ok {
                span,
                colors,
                trace,
            })
        }
        Some("ERR") => {
            let code = fields
                .next()
                .ok_or_else(|| SsgError::parse("response", "ERR: missing code"))?
                .to_string();
            let rest = fields.collect::<Vec<_>>().join(" ");
            Ok(Response::Err {
                code,
                message: rest,
            })
        }
        Some("PONG") => Ok(Response::Pong),
        Some("BYE") => Ok(Response::Bye),
        Some(other) => Err(SsgError::parse(
            "response",
            format!("unknown status `{other}`"),
        )),
        None => Err(SsgError::parse("response", "empty response line")),
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// What [`LineReader::next_line`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete line; the trailing `\n` (and an optional `\r` before it)
    /// is stripped. Non-UTF-8 bytes are replaced, so downstream parsing
    /// always sees a `String` (and rejects the garbled verb).
    Line(String),
    /// A line exceeded the reader's byte bound. Its bytes were discarded
    /// through the terminating newline — constant memory, and the stream is
    /// positioned at the next line.
    Overlong,
    /// The underlying read timed out (`WouldBlock`/`TimedOut`). Any
    /// partially read line is retained; call again to continue it.
    TimedOut,
    /// End of stream. An unterminated trailing fragment is discarded, as
    /// the protocol requires newline-terminated requests.
    Eof,
}

/// A bounded incremental line reader over any [`Read`].
///
/// This is the only framing layer in the protocol: both the server (for
/// requests and HTTP headers) and the load generator (for responses) pull
/// lines through it. Its memory use is bounded by `max_line` plus one fixed
/// 4 KiB chunk regardless of peer behavior.
///
/// ```
/// use ssg_net::protocol::{LineEvent, LineReader};
/// let mut r = LineReader::new(std::io::Cursor::new(b"PING\r\nQUIT\ntail".to_vec()), 64);
/// assert_eq!(r.next_line().unwrap(), LineEvent::Line("PING".into()));
/// assert_eq!(r.next_line().unwrap(), LineEvent::Line("QUIT".into()));
/// // The unterminated trailing fragment is not a request.
/// assert_eq!(r.next_line().unwrap(), LineEvent::Eof);
/// ```
#[derive(Debug)]
pub struct LineReader<R> {
    inner: R,
    pending: Vec<u8>,
    cursor: usize,
    line: Vec<u8>,
    discarding: bool,
    max_line: usize,
}

impl<R: Read> LineReader<R> {
    /// Wraps `inner`, bounding complete lines at `max_line` bytes.
    pub fn new(inner: R, max_line: usize) -> Self {
        LineReader {
            inner,
            pending: Vec::with_capacity(4096),
            cursor: 0,
            line: Vec::new(),
            discarding: false,
            max_line,
        }
    }

    /// Bytes currently held by the reader (partial line + unconsumed
    /// chunk). Bounded by `max_line` plus one 4 KiB chunk no matter what
    /// the peer sends; the fuzz tests assert this.
    pub fn buffered_bytes(&self) -> usize {
        self.line.len() + (self.pending.len() - self.cursor)
    }

    /// Whether a complete line (or the end of a discarded overlong one) is
    /// already buffered, so that the next [`LineReader::next_line`] returns
    /// without reading from the underlying stream.
    pub fn has_buffered_line(&self) -> bool {
        self.pending[self.cursor..].contains(&b'\n')
    }

    /// Reads until one of the [`LineEvent`]s occurs. `Err` is returned only
    /// for I/O errors other than timeouts; timeouts are [`LineEvent::TimedOut`]
    /// so callers can poll a shutdown flag between reads.
    pub fn next_line(&mut self) -> std::io::Result<LineEvent> {
        loop {
            while self.cursor < self.pending.len() {
                let b = self.pending[self.cursor];
                self.cursor += 1;
                if b == b'\n' {
                    if self.discarding {
                        self.discarding = false;
                        return Ok(LineEvent::Overlong);
                    }
                    let mut l = std::mem::take(&mut self.line);
                    if l.last() == Some(&b'\r') {
                        l.pop();
                    }
                    return Ok(LineEvent::Line(String::from_utf8_lossy(&l).into_owned()));
                }
                if !self.discarding {
                    self.line.push(b);
                    if self.line.len() > self.max_line {
                        self.discarding = true;
                        self.line.clear();
                        self.line.shrink_to(self.max_line.min(4096));
                    }
                }
            }
            self.pending.clear();
            self.cursor = 0;
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(LineEvent::Eof),
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(LineEvent::TimedOut)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads exactly `want` raw bytes (an HTTP body), consuming buffered
    /// bytes first. Timeouts are retried while `keep_going()` returns true;
    /// once it goes false, a `TimedOut` error is returned.
    pub fn read_exact_body(
        &mut self,
        want: usize,
        keep_going: impl Fn() -> bool,
    ) -> std::io::Result<Vec<u8>> {
        let mut body = Vec::with_capacity(want);
        let buffered = (self.pending.len() - self.cursor).min(want);
        body.extend_from_slice(&self.pending[self.cursor..self.cursor + buffered]);
        self.cursor += buffered;
        let mut chunk = [0u8; 4096];
        while body.len() < want {
            let cap = (want - body.len()).min(chunk.len());
            match self.inner.read(&mut chunk[..cap]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "body truncated",
                    ))
                }
                Ok(n) => body.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if !keep_going() {
                        return Err(e);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssg_labeling::Labeling;
    use std::io::Cursor;
    use std::time::Duration;

    /// The `OK` line built with one `to_string` per number.
    fn ok_line_by_to_string(outcome: &LabelOutcome, trace: Option<u64>) -> String {
        let mut line = String::from("OK ");
        line.push_str(&outcome.labeling.span().to_string());
        for c in outcome.labeling.colors() {
            line.push(' ');
            line.push_str(&c.to_string());
        }
        if let Some(trace_id) = trace {
            line.push_str(&format!(" trace={trace_id:016x}"));
        }
        line
    }

    #[test]
    fn ok_line_digits_match_to_string() {
        let outcome = |colors: Vec<u32>| LabelOutcome {
            labeling: Labeling::new(colors),
            algorithm: String::new(),
            wall: Duration::ZERO,
        };
        let RequestInstance::Interval(rep) = Workload::Corridor.instance(4000, 7) else {
            panic!("a corridor is an interval instance");
        };
        let served = ssg_labeling::interval::l1_coloring(&rep, 2).labeling;
        for out in [
            outcome(vec![0, 9, 10, 99, 100, u32::MAX]),
            outcome(served.into_colors()),
        ] {
            for trace in [None, Some(0xfeed_face_cafe_beef)] {
                assert_eq!(render_ok(&out, trace), ok_line_by_to_string(&out, trace));
            }
        }
    }

    #[test]
    fn ok_line_digits_match_to_string_at_table_edges() {
        for span in [0, 9, 10, 99, 100, 999, 1000, u32::MAX] {
            let mut colors: Vec<u32> = [0, 1, 9, 10, 99, 100, 999, 1000, span / 2]
                .into_iter()
                .filter(|&c| c <= span)
                .collect();
            colors.push(span);
            colors.push(0);
            let out = LabelOutcome {
                labeling: Labeling::new(colors),
                algorithm: String::new(),
                wall: Duration::ZERO,
            };
            assert_eq!(out.labeling.span(), span);
            for trace in [None, Some(0xfeed_face_cafe_beef)] {
                assert_eq!(
                    render_ok(&out, trace),
                    ok_line_by_to_string(&out, trace),
                    "span {span}"
                );
            }
        }
    }

    #[test]
    fn label_line_round_trips() {
        let spec = LabelSpec {
            workload: Workload::Platoon,
            n: 120,
            seed: 9,
            sep: SeparationVector::two(3, 1).unwrap(),
            solver: Some("unit_interval_l_delta1_delta2".into()),
            deadline_ms: Some(500),
            trace: None,
        };
        let line = spec.render();
        assert_eq!(
            line,
            "LABEL platoon 120 9 3,1 solver=unit_interval_l_delta1_delta2 deadline_ms=500"
        );
        assert_eq!(parse_request(&line).unwrap(), Request::Label(spec));
    }

    #[test]
    fn traced_label_line_round_trips() {
        let spec = LabelSpec {
            workload: Workload::Corridor,
            n: 10,
            seed: 1,
            sep: SeparationVector::two(2, 1).unwrap(),
            solver: None,
            deadline_ms: None,
            trace: Some((0xfeed_face_cafe_beef, 0x42)),
        };
        let line = spec.render();
        assert_eq!(
            line,
            "LABEL corridor 10 1 2,1 trace=feedfacecafebeef/0000000000000042"
        );
        assert_eq!(parse_request(&line).unwrap(), Request::Label(spec));
        // The context lands on the engine request, tagging its whole chain.
        let spec = match parse_request(&line).unwrap() {
            Request::Label(s) => s,
            other => panic!("{other:?}"),
        };
        let req = spec.to_request(7);
        assert_eq!(req.trace, Some((0xfeed_face_cafe_beef, 0x42)));
        assert_eq!(req.trace_id(), 0xfeed_face_cafe_beef);
    }

    #[test]
    fn request_errors_are_parse_kind() {
        for bad in [
            "",
            "LABEL",
            "LABEL corridor",
            "LABEL corridor 10",
            "LABEL corridor 10 1",
            "LABEL corridor 0 1 1",
            "LABEL corridor ten 1 1",
            "LABEL mesh 10 1 1",
            "LABEL corridor 10 1 1,2",
            "LABEL corridor 10 1 2,1 frobnicate=3",
            "LABEL corridor 10 1 2,1 solver=",
            "LABEL corridor 10 1 2,1 trace=",
            "LABEL corridor 10 1 2,1 trace=abc",
            "LABEL corridor 10 1 2,1 trace=xyz/1",
            "LABEL corridor 10 1 2,1 trace=1/ghi",
            "LABEL corridor 10 1 2,1 trace=0/1",
            "LABEL corridor 10 1 2,1 trace=00112233445566778/1",
            "PING extra",
            "label corridor 10 1 1",
            "FROB",
        ] {
            let err = parse_request(bad).unwrap_err();
            assert!(
                matches!(err, SsgError::Parse { .. } | SsgError::Spec(_)),
                "{bad:?} -> {err:?}"
            );
        }
        // n over the bound is refused before any generation happens.
        let err = parse_request(&format!("LABEL corridor {} 1 1", MAX_REQUEST_N + 1)).unwrap_err();
        assert!(matches!(err, SsgError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn responses_round_trip() {
        assert_eq!(
            parse_response("OK 6 0 3 6 0").unwrap(),
            Response::Ok {
                span: 6,
                colors: vec![0, 3, 6, 0],
                trace: None
            }
        );
        // A trailing trace echo is peeled off, never mistaken for a color.
        assert_eq!(
            parse_response("OK 6 0 3 6 0 trace=feedfacecafebeef").unwrap(),
            Response::Ok {
                span: 6,
                colors: vec![0, 3, 6, 0],
                trace: Some(0xfeed_face_cafe_beef)
            }
        );
        assert!(parse_response("OK 6 0 trace=zz").is_err());
        assert_eq!(parse_response("BYE").unwrap(), Response::Bye);
        let rendered = render_err(&SsgError::QueueFull);
        match parse_response(&rendered).unwrap() {
            Response::Err { code, message } => {
                assert_eq!(code, "queue_full");
                assert!(message.contains("full"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn line_reader_strips_cr_and_bounds_lines() {
        let input = format!("PING\r\n{}\nQUIT\n", "X".repeat(100));
        let mut r = LineReader::new(Cursor::new(input.into_bytes()), 16);
        assert_eq!(r.next_line().unwrap(), LineEvent::Line("PING".into()));
        assert_eq!(r.next_line().unwrap(), LineEvent::Overlong);
        assert_eq!(r.next_line().unwrap(), LineEvent::Line("QUIT".into()));
        assert_eq!(r.next_line().unwrap(), LineEvent::Eof);
    }

    #[test]
    fn read_exact_body_pulls_buffered_bytes_first() {
        let mut r = LineReader::new(Cursor::new(b"HEAD\nbody-bytes".to_vec()), 64);
        assert_eq!(r.next_line().unwrap(), LineEvent::Line("HEAD".into()));
        let body = r.read_exact_body(10, || true).unwrap();
        assert_eq!(&body, b"body-bytes");
        assert!(r.read_exact_body(1, || true).is_err(), "EOF is an error");
    }

    #[test]
    fn to_request_generates_the_named_instance() {
        let spec = LabelSpec {
            workload: Workload::Backbone,
            n: 25,
            seed: 3,
            sep: SeparationVector::all_ones(2),
            solver: None,
            deadline_ms: None,
            trace: None,
        };
        let req = spec.to_request(7);
        assert_eq!(req.id, 7);
        assert_eq!(req.instance.num_vertices(), 25);
        assert!(matches!(req.instance, RequestInstance::Tree(_)));
    }
}
