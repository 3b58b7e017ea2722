//! Minimal HTTP/1.1 on the shared port: just enough of RFC 9112 for
//! `curl`, a metrics scraper, and a health checker.
//!
//! The server sniffs the first line of each connection; anything shaped
//! like `METHOD SP PATH SP HTTP/1.x` lands here. HTTP connections serve
//! exactly one request and always answer `Connection: close` — the
//! pipelined path is the line protocol, not HTTP keep-alive.
//!
//! Routes:
//!
//! | Method + path   | Reply                                               |
//! |-----------------|-----------------------------------------------------|
//! | `GET /healthz`  | `200`, body `ok\n`                                  |
//! | `GET /metrics`  | `200`, Prometheus exposition text                   |
//! | `POST /label`   | `200`/`4xx`/`5xx`, one `ssg-reply/v1` JSON document |
//! | anything else   | `404` (`405` for a known path with the wrong verb)  |
//!
//! `POST /label` takes exactly one line-protocol `LABEL` line as its body
//! and answers from the engine's result: the labels of the labeling, or
//! the error mapped onto an HTTP status via [`status_for`], so the HTTP
//! error surface is the same [`SsgError::kind`] table as the line protocol
//! and the CLI exit codes.

use crate::protocol::{
    flat_message, parse_request, parse_trace_context, LineEvent, LineReader, Request,
    PROTOCOL_VERSION,
};
use crate::server::{serve_label, Shared};
use ssg_engine::LabelOutcome;
use ssg_error::SsgError;
use ssg_telemetry::json::Json;
use ssg_telemetry::{Counter, Phase};
use std::io::{Read, Write};

/// Headers are bounded to this many total bytes; a peer streaming
/// endless headers gets `431` and a closed connection.
const MAX_HEADER_BYTES: usize = 8 * 1024;

/// `POST /label` bodies are bounded to this many bytes (`413` beyond).
const MAX_BODY_BYTES: usize = 64 * 1024;

/// Whether a first line is an HTTP request line rather than a
/// line-protocol verb: `METHOD SP TARGET SP HTTP/1.x`.
pub(crate) fn looks_like_http(line: &str) -> bool {
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("");
    let _target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    matches!(
        method,
        "GET" | "HEAD" | "POST" | "PUT" | "DELETE" | "OPTIONS" | "PATCH"
    ) && version.starts_with("HTTP/1.")
}

/// The HTTP status an [`SsgError`] maps to: caller mistakes are `4xx`,
/// deadline misses are `504`, load shedding is `503`, and everything the
/// server did to itself is `500`.
pub fn status_for(err: &SsgError) -> (u16, &'static str) {
    match err {
        SsgError::Usage(_)
        | SsgError::Parse { .. }
        | SsgError::Spec(_)
        | SsgError::ClassMismatch { .. }
        | SsgError::UnknownSolver { .. } => (400, "Bad Request"),
        SsgError::DeadlineExceeded { .. } => (504, "Gateway Timeout"),
        SsgError::QueueFull | SsgError::ShuttingDown => (503, "Service Unavailable"),
        _ => (500, "Internal Server Error"),
    }
}

fn write_response(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

fn error_body(err: &SsgError) -> String {
    Json::Object(vec![
        ("schema".into(), Json::Str("ssg-reply/v1".into())),
        ("protocol".into(), Json::Str(PROTOCOL_VERSION.into())),
        ("status".into(), Json::Str("err".into())),
        ("code".into(), Json::Str(err.kind().into())),
        ("message".into(), Json::Str(flat_message(err))),
    ])
    .render_pretty()
}

/// The `ssg-reply/v1` document of a solved request. `trace` is echoed
/// only when the request propagated one, as on the line protocol.
fn ok_body(outcome: &LabelOutcome, trace: Option<u64>) -> String {
    let colors = outcome.labeling.colors();
    let mut fields = vec![
        ("schema".into(), Json::Str("ssg-reply/v1".into())),
        ("protocol".into(), Json::Str(PROTOCOL_VERSION.into())),
        ("status".into(), Json::Str("ok".into())),
        ("span".into(), Json::U64(u64::from(outcome.labeling.span()))),
        (
            "labels".into(),
            Json::Array(colors.iter().map(|&c| Json::U64(u64::from(c))).collect()),
        ),
    ];
    if let Some(trace_id) = trace {
        fields.push(("trace".into(), Json::Str(format!("{trace_id:016x}"))));
    }
    Json::Object(fields).render_pretty()
}

/// Serves one HTTP exchange on a sniffed connection. `request_line` is
/// the already-read first line; the reader is positioned at the headers.
pub(crate) fn serve_http(
    request_line: &str,
    reader: &mut LineReader<impl Read>,
    writer: &mut impl Write,
    shared: &Shared,
) -> std::io::Result<()> {
    shared.metrics.add(Counter::NetHttpRequests, 1);
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();

    // Headers: we only care about Content-Length and X-Ssg-Trace, but
    // must consume them all (bounded) to reach the body.
    let mut content_length: usize = 0;
    let mut header_trace: Option<(u64, u64)> = None;
    let mut header_bytes = 0usize;
    loop {
        match reader.next_line()? {
            LineEvent::Line(line) => {
                if line.is_empty() {
                    break;
                }
                header_bytes += line.len();
                if header_bytes > MAX_HEADER_BYTES {
                    shared.metrics.add(Counter::NetProtocolErrors, 1);
                    return write_response(
                        writer,
                        431,
                        "Request Header Fields Too Large",
                        "text/plain; charset=utf-8",
                        "header section too large\n",
                    );
                }
                if let Some((name, value)) = line.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        content_length = value.trim().parse().unwrap_or(usize::MAX);
                    } else if name.eq_ignore_ascii_case("x-ssg-trace") {
                        // Same `<hex64-trace>/<hex64-span>` grammar as the
                        // line protocol's `trace=` option; a malformed
                        // header is ignored rather than failing the
                        // request — trace context is advisory.
                        header_trace = parse_trace_context(value.trim()).ok();
                    }
                }
            }
            LineEvent::Overlong => {
                shared.metrics.add(Counter::NetProtocolErrors, 1);
                return write_response(
                    writer,
                    431,
                    "Request Header Fields Too Large",
                    "text/plain; charset=utf-8",
                    "header line too long\n",
                );
            }
            LineEvent::TimedOut => {
                if shared.is_shutting_down() {
                    return Ok(());
                }
                continue;
            }
            LineEvent::Eof => return Ok(()),
        }
    }

    match (method.as_str(), target.as_str()) {
        ("GET", "/healthz") => {
            write_response(writer, 200, "OK", "text/plain; charset=utf-8", "ok\n")
        }
        ("GET", "/metrics") => write_response(
            writer,
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &crate::prometheus_text(&shared.metrics),
        ),
        ("POST", "/label") => {
            if content_length > MAX_BODY_BYTES {
                shared.metrics.add(Counter::NetProtocolErrors, 1);
                let err =
                    SsgError::parse("http body", format!("body exceeds {MAX_BODY_BYTES} bytes"));
                return write_response(
                    writer,
                    413,
                    "Content Too Large",
                    "application/json",
                    &error_body(&err),
                );
            }
            let body = reader.read_exact_body(content_length, || !shared.is_shutting_down())?;
            let body = String::from_utf8_lossy(&body);
            let line = body.lines().next().unwrap_or("").trim();
            match parse_request(line) {
                Ok(Request::Label(mut spec)) => {
                    // An inline `trace=` option wins; the header covers
                    // clients that post a plain LABEL line.
                    if spec.trace.is_none() {
                        spec.trace = header_trace;
                    }
                    let serve = shared.metrics.time(Phase::Serve);
                    let ((status, reason), body) = match serve_label(&spec, shared) {
                        Ok(outcome) => {
                            let trace = spec.trace.map(|(trace_id, _)| trace_id);
                            ((200, "OK"), ok_body(&outcome, trace))
                        }
                        Err(err) => (status_for(&err), error_body(&err)),
                    };
                    drop(serve);
                    write_response(writer, status, reason, "application/json", &body)
                }
                Ok(_) => {
                    shared.metrics.add(Counter::NetProtocolErrors, 1);
                    let err = SsgError::parse("http body", "POST /label takes one LABEL line");
                    let (status, reason) = status_for(&err);
                    write_response(
                        writer,
                        status,
                        reason,
                        "application/json",
                        &error_body(&err),
                    )
                }
                Err(err) => {
                    shared.metrics.add(Counter::NetProtocolErrors, 1);
                    let (status, reason) = status_for(&err);
                    write_response(
                        writer,
                        status,
                        reason,
                        "application/json",
                        &error_body(&err),
                    )
                }
            }
        }
        (_, "/healthz" | "/metrics" | "/label") => {
            shared.metrics.add(Counter::NetProtocolErrors, 1);
            write_response(
                writer,
                405,
                "Method Not Allowed",
                "text/plain; charset=utf-8",
                "method not allowed\n",
            )
        }
        _ => {
            shared.metrics.add(Counter::NetProtocolErrors, 1);
            write_response(
                writer,
                404,
                "Not Found",
                "text/plain; charset=utf-8",
                "not found\n",
            )
        }
    }
}
