//! Loopback integration tests: a real [`Server`] on an ephemeral port,
//! real sockets, both protocols. Every request/response byte sequence
//! here is derivable from `PROTOCOL.md` alone.

use ssg_net::protocol::{parse_response, Response};
use ssg_net::{Server, ServerConfig};
use ssg_telemetry::json::Json;
use ssg_telemetry::Metrics;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn connect(server: &Server) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect to loopback server");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (reader, stream)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply line");
    line.trim_end().to_string()
}

#[test]
fn line_protocol_round_trip() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut reader, mut writer) = connect(&server);

    writer.write_all(b"PING\n").unwrap();
    assert_eq!(read_line(&mut reader), "PONG");

    writer
        .write_all(b"LABEL corridor 40 7 2,1\nLABEL backbone 25 3 1,1\n")
        .unwrap();
    for expect_n in [40usize, 25] {
        let reply = read_line(&mut reader);
        match parse_response(&reply).unwrap() {
            Response::Ok {
                span,
                colors,
                trace,
            } => {
                assert_eq!(trace, None, "untraced requests get no trace echo: {reply}");
                assert_eq!(colors.len(), expect_n, "one label per station: {reply}");
                assert_eq!(
                    span,
                    colors.iter().copied().max().unwrap(),
                    "span is the largest label: {reply}"
                );
            }
            other => panic!("expected OK, got {other:?}"),
        }
    }

    // Identical requests are reproducible: same (workload, n, seed, sep)
    // names the same instance, so the reply bytes match.
    writer
        .write_all(b"LABEL corridor 40 7 2,1\nLABEL corridor 40 7 2,1\n")
        .unwrap();
    let a = read_line(&mut reader);
    let b = read_line(&mut reader);
    assert_eq!(a, b);

    writer.write_all(b"QUIT\n").unwrap();
    assert_eq!(read_line(&mut reader), "BYE");
    let stats = server.shutdown();
    assert_eq!(stats.completed, 4);
}

#[test]
fn malformed_requests_answer_err_without_killing_the_connection() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut reader, mut writer) = connect(&server);

    for (bad, expect_kind) in [
        ("FROB", "parse"),
        ("LABEL mesh 10 1 2,1", "parse"),
        ("LABEL corridor 10 1 1,2", "spec"), // increasing separations
        ("LABEL corridor ten 1 2,1", "parse"),
        ("PING extra", "parse"),
    ] {
        writer.write_all(format!("{bad}\n").as_bytes()).unwrap();
        let reply = read_line(&mut reader);
        match parse_response(&reply).unwrap() {
            Response::Err { code, .. } => {
                assert_eq!(code, expect_kind, "for request {bad:?}: {reply}")
            }
            other => panic!("expected ERR for {bad:?}, got {other:?}"),
        }
    }

    // The connection survived all of that.
    writer.write_all(b"LABEL platoon 30 1 3,1\nQUIT\n").unwrap();
    assert!(read_line(&mut reader).starts_with("OK "));
    assert_eq!(read_line(&mut reader), "BYE");
    server.shutdown();
}

#[test]
fn oversized_request_line_answers_err_and_recovers() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut reader, mut writer) = connect(&server);

    let mut big = vec![b'X'; ssg_net::MAX_LINE_BYTES + 100];
    big.push(b'\n');
    writer.write_all(&big).unwrap();
    let reply = read_line(&mut reader);
    match parse_response(&reply).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, "parse"),
        other => panic!("expected ERR, got {other:?}"),
    }
    writer.write_all(b"PING\n").unwrap();
    assert_eq!(read_line(&mut reader), "PONG");
    server.shutdown();
}

#[test]
fn http_endpoints_on_the_same_port() {
    let cfg = ServerConfig {
        metrics: Metrics::enabled(),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();

    let http = |request: String| -> (u16, String) {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw).into_owned();
        let (head, body) = text.split_once("\r\n\r\n").expect("header break");
        let status: u16 = head
            .lines()
            .next()
            .unwrap()
            .split(' ')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        (status, body.to_string())
    };

    let (status, body) = http("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".into());
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // Warm the counters, then scrape.
    let payload = "LABEL corridor 40 7 2,1";
    let (status, body) = http(format!(
        "POST /label HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    ));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"schema\": \"ssg-reply/v1\""), "{body}");
    assert!(body.contains("\"status\": \"ok\""), "{body}");
    assert!(body.contains("\"span\""), "{body}");

    let (status, body) = http("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n".into());
    assert_eq!(status, 200);
    assert!(body.contains("ssg_net_requests_total 1"), "{body}");
    assert!(body.contains("ssg_net_http_requests_total"), "{body}");

    // A malformed LABEL body is a 400 with the same err-kind table.
    let bad = "LABEL mesh 10 1 2,1";
    let (status, body) = http(format!(
        "POST /label HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{bad}",
        bad.len()
    ));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\": \"parse\""), "{body}");

    let (status, _) = http("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n".into());
    assert_eq!(status, 404);

    let (status, _) = http("DELETE /healthz HTTP/1.1\r\nHost: t\r\n\r\n".into());
    assert_eq!(status, 405);

    server.shutdown();
}

/// Posts one `LABEL` line to `/label`; returns the status and the parsed
/// `ssg-reply/v1` body.
fn post_label(server: &Server, line: &str) -> (u16, Json) {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!(
        "POST /label HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{line}",
        line.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header break");
    let status = head.split(' ').nth(1).unwrap().parse().unwrap();
    (status, Json::parse(body).expect("ssg-reply/v1 is JSON"))
}

#[test]
fn post_label_answers_the_line_protocol_labels() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut reader, mut writer) = connect(&server);
    for line in [
        "LABEL corridor 300 7 2,1",
        "LABEL platoon 120 9 5,2",
        "LABEL backbone 200 3 3,1,1",
    ] {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let Response::Ok { span, colors, .. } = parse_response(&read_line(&mut reader)).unwrap()
        else {
            panic!("{line}: expected OK");
        };
        let (status, doc) = post_label(&server, line);
        assert_eq!(status, 200, "{line}: {doc:?}");
        let labels: Vec<u32> = doc
            .get("labels")
            .and_then(Json::as_array)
            .expect("labels array")
            .iter()
            .map(|l| l.as_u64().expect("label is a number") as u32)
            .collect();
        assert_eq!(labels, colors, "{line}");
        assert_eq!(
            doc.get("span").and_then(Json::as_u64),
            Some(u64::from(span))
        );
        assert!(doc.get("trace").is_none(), "untraced: no echo");
    }
    server.shutdown();
}

#[test]
fn post_label_maps_a_missed_deadline_to_504() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let (status, doc) = post_label(&server, "LABEL corridor 200 7 2,1 deadline_ms=0");
    assert_eq!(status, 504, "{doc:?}");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("err"));
    assert_eq!(
        doc.get("code").and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    let message = doc.get("message").and_then(Json::as_str).unwrap();
    assert!(
        !message.is_empty() && !message.contains('\n'),
        "{message:?}"
    );
    server.shutdown();
}

#[test]
fn metrics_endpoint_matches_the_cli_renderer() {
    // The one-function-two-callers satellite: the /metrics body IS
    // prometheus_text() of the server's handle, byte for byte.
    let cfg = ServerConfig {
        metrics: Metrics::enabled(),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let (_, body) = text.split_once("\r\n\r\n").unwrap();
    // Rendered after the scrape, so the scrape's own counter bump is
    // already visible in both. Only the uptime sample ticks between the
    // two renders: it must parse in both and must not run backwards.
    let direct = ssg_net::prometheus_text(server.metrics());
    assert_eq!(body.lines().count(), direct.lines().count());
    assert_eq!(body.ends_with('\n'), direct.ends_with('\n'));
    let uptime = |line: &str| {
        line.strip_prefix("ssg_uptime_seconds ")
            .map(|v| v.parse::<f64>().expect("uptime sample parses"))
    };
    let mut uptime_samples = 0;
    for (scraped, rendered) in body.lines().zip(direct.lines()) {
        match (uptime(scraped), uptime(rendered)) {
            (Some(s), Some(d)) => {
                assert!(
                    s <= d,
                    "scraped uptime {s} is after the direct render's {d}"
                );
                uptime_samples += 1;
            }
            _ => assert_eq!(scraped, rendered),
        }
    }
    assert_eq!(uptime_samples, 1);
    server.shutdown();
}

#[test]
fn deadline_miss_under_saturating_burst_answers_deadline_exceeded() {
    // One worker and zero-millisecond deadlines: every request has
    // expired by the time the worker dequeues it.
    let cfg = ServerConfig {
        workers: 1,
        metrics: Metrics::with_tracing(4096),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let (mut reader, mut writer) = connect(&server);

    let burst: String = (0..4)
        .map(|_| "LABEL corridor 200 7 2,1 deadline_ms=0\n")
        .collect();
    writer.write_all(burst.as_bytes()).unwrap();
    let mut misses = 0u64;
    for _ in 0..4 {
        let reply = read_line(&mut reader);
        if let Response::Err { code, .. } = parse_response(&reply).unwrap() {
            assert_eq!(code, "deadline_exceeded", "{reply}");
            misses += 1;
        }
    }
    assert!(misses > 0, "a 0ms deadline must miss");

    // The miss left an incident in the flight recorder (the serve-path
    // auto-dump trigger), and the connection is still usable.
    let recorder = server.metrics().recorder().expect("tracing enabled");
    assert!(recorder.incident_count() > 0);
    writer.write_all(b"LABEL corridor 40 7 2,1\n").unwrap();
    assert!(read_line(&mut reader).starts_with("OK "));

    let stats = server.shutdown();
    assert_eq!(stats.deadline_misses, misses);
}

#[test]
fn graceful_drain_completes_in_flight_requests() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut reader, mut writer) = connect(&server);

    // Pipeline a backlog, then immediately begin shutdown from another
    // thread before reading any replies: the drain must serve the whole
    // received backlog, not cut it off with ERR shutting_down.
    let backlog: String = (0..6).map(|_| "LABEL corridor 300 7 2,1\n").collect();
    writer.write_all(backlog.as_bytes()).unwrap();
    writer.flush().unwrap();
    let drainer = std::thread::spawn(move || server.shutdown());

    let mut ok = 0;
    for _ in 0..6 {
        let reply = read_line(&mut reader);
        match parse_response(&reply).unwrap() {
            Response::Ok { .. } => ok += 1,
            other => panic!("drain dropped an in-flight request: {other:?}"),
        }
    }
    assert_eq!(ok, 6);
    let stats = drainer.join().unwrap();
    assert_eq!(stats.completed, 6);

    // New connections are refused once the listener is down.
    assert!(
        TcpStream::connect_timeout(&"127.0.0.1:1".parse().unwrap(), Duration::from_millis(1))
            .is_err()
    );
}

#[test]
fn shutdown_verb_is_loopback_gated_and_sets_the_flag() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    assert!(!server.shutdown_requested());
    let (mut reader, mut writer) = connect(&server);
    writer.write_all(b"SHUTDOWN\n").unwrap();
    assert_eq!(read_line(&mut reader), "BYE");
    assert!(server.shutdown_requested());
    server.shutdown();
}

#[test]
fn traced_label_echoes_the_trace_id_and_tags_the_server_recorder() {
    let cfg = ServerConfig {
        metrics: Metrics::with_tracing(4096),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let (mut reader, mut writer) = connect(&server);

    let trace_id = 0x00c0_ffee_0000_0001u64;
    writer
        .write_all(
            format!("LABEL corridor 40 7 2,1 trace={trace_id:016x}/000000000000002a\n").as_bytes(),
        )
        .unwrap();
    let reply = read_line(&mut reader);
    match parse_response(&reply).unwrap() {
        Response::Ok { trace, .. } => {
            assert_eq!(
                trace,
                Some(trace_id),
                "OK line echoes the trace id: {reply}"
            )
        }
        other => panic!("expected OK, got {other:?}"),
    }

    // The server's whole engine chain landed on the propagated lane, and
    // the solve span adopted the client's span id as its wire parent.
    let recorder = server.metrics().recorder().expect("tracing enabled");
    let events = recorder.events_for(trace_id);
    let names: Vec<&str> = events.iter().map(|e| e.name).collect();
    for needle in ["engine.enqueue", "engine.dequeue", "engine.solve"] {
        assert!(names.contains(&needle), "{needle} missing from {names:?}");
    }
    let solve = events.iter().find(|e| e.name == "engine.solve").unwrap();
    assert_eq!(solve.parent_id, 0x2a, "solve nests under the client span");

    // An untraced request on the same connection stays off that lane.
    writer.write_all(b"LABEL corridor 40 8 2,1\n").unwrap();
    assert!(read_line(&mut reader).starts_with("OK "));
    assert_eq!(recorder.events_for(trace_id).len(), events.len());
    server.shutdown();
}

#[test]
fn loadgen_initiated_traces_stitch_into_one_merged_chrome_trace() {
    use ssg_net::loadgen::{loadgen_trace_id, run_loadgen, LoadgenConfig};
    use ssg_telemetry::json::Json;
    use ssg_telemetry::{export, Metrics, TraceDump};

    let cfg = ServerConfig {
        metrics: Metrics::with_tracing(8192),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();

    let client_metrics = Metrics::with_tracing(8192);
    let lg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        rps: 200.0,
        duration: Duration::from_millis(100),
        conns: 2,
        metrics: client_metrics.clone(),
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&lg).expect("loadgen run");
    assert!(report.ok > 0, "some requests completed: {report:?}");
    assert_eq!(report.protocol_errors, 0, "every echo matched: {report:?}");

    // The first scheduled request's trace id — recomputed, not captured —
    // appears verbatim in the server's recorder.
    let first = loadgen_trace_id(lg.spec.seed, 0);
    let server_rec = server.metrics().recorder().unwrap();
    assert!(
        !server_rec.events_for(first).is_empty(),
        "loadgen trace id {first:#x} missing from the server dump"
    );
    let client_rec = client_metrics.recorder().unwrap();
    assert!(!client_rec.events_for(first).is_empty());

    // Merge the two dumps: one valid trace-event JSON whose client
    // request span wraps the server's engine chain for the same trace.
    let client_dump = TraceDump::from_json(&client_rec.to_json()).unwrap();
    let server_dump = TraceDump::from_json(&server_rec.to_json()).unwrap();
    let merged = export::merged_chrome_trace(&client_dump, &server_dump);
    let rendered = merged.render();
    let reparsed = Json::parse(&rendered).expect("merged export is valid JSON");
    let events = match &reparsed {
        Json::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents"),
        other => panic!("{other:?}"),
    };
    let Json::Array(events) = events else {
        panic!("traceEvents is an array")
    };
    // For the recomputed trace id: client.request must open before and
    // close after every server-side engine span of that trace.
    let of_name = |name: &str, ph: &str| -> Vec<f64> {
        events
            .iter()
            .filter_map(|e| {
                let Json::Object(f) = e else { return None };
                let get = |k: &str| f.iter().find(|(n, _)| n == k).map(|(_, v)| v);
                let is = |k: &str, want: &str| matches!(get(k), Some(Json::Str(s)) if s == want);
                let traced = match get("args") {
                    Some(Json::Object(a)) => a.iter().any(|(n, v)| {
                        n == "trace_id"
                            && matches!(v, Json::Str(s) if *s == format!("{first:016x}"))
                    }),
                    _ => false,
                };
                if is("name", name) && is("ph", ph) && traced {
                    match get("ts") {
                        Some(Json::F64(ts)) => Some(*ts),
                        Some(Json::U64(ts)) => Some(*ts as f64),
                        _ => None,
                    }
                } else {
                    None
                }
            })
            .collect()
    };
    let open = of_name("client.request", "B");
    let close = of_name("client.request", "E");
    assert_eq!(open.len(), 1, "one client.request B for the first trace");
    assert_eq!(close.len(), 1);
    let solve_b = of_name("engine.solve", "B");
    let solve_e = of_name("engine.solve", "E");
    assert_eq!(solve_b.len(), 1, "one engine.solve B for the first trace");
    assert!(open[0] <= solve_b[0], "client span opens before the solve");
    assert!(close[0] >= solve_e[0], "client span closes after the solve");

    server.shutdown();
}

#[test]
fn max_conns_refuses_excess_connections() {
    let cfg = ServerConfig {
        max_conns: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let (mut reader1, mut writer1) = connect(&server);
    // Prove the first connection is established and being served.
    writer1.write_all(b"PING\n").unwrap();
    assert_eq!(read_line(&mut reader1), "PONG");

    // The second connection is turned away with a best-effort ERR.
    let (mut reader2, _writer2) = connect(&server);
    let reply = read_line(&mut reader2);
    match parse_response(&reply).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, "queue_full"),
        other => panic!("expected refusal, got {other:?}"),
    }

    // Once the first hangs up, a slot frees.
    writer1.write_all(b"QUIT\n").unwrap();
    assert_eq!(read_line(&mut reader1), "BYE");
    drop((reader1, writer1));
    for attempt in 0.. {
        let (mut r, mut w) = connect(&server);
        w.write_all(b"PING\n").unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        if line.trim_end() == "PONG" {
            break;
        }
        assert!(attempt < 100, "slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

/// The labels of an `OK` reply, or a panic naming the reply.
fn ok_labels(reply: &str) -> Vec<u32> {
    match parse_response(reply) {
        Ok(Response::Ok { colors, .. }) => colors,
        other => panic!("expected OK, got {other:?}"),
    }
}

/// The code of an `ERR` reply, or a panic naming the reply.
fn err_code(reply: &str) -> String {
    match parse_response(reply) {
        Ok(Response::Err { code, .. }) => code,
        other => panic!("expected ERR, got {other:?}"),
    }
}

#[test]
fn pipelined_replies_keep_request_order_when_workers_finish_out_of_order() {
    // Two workers: the small second request finishes long before the
    // large first one, and its reply must wait its turn.
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let (mut reader, mut writer) = connect(&server);
    writer
        .write_all(
            b"LABEL corridor 65536 1 2,1\n\
              LABEL corridor 10 2 1,1\n\
              PING\n\
              LABEL mesh 1 1 1\n\
              LABEL platoon 30 1 3,1 deadline_ms=0\n\
              QUIT\n",
        )
        .unwrap();
    assert_eq!(ok_labels(&read_line(&mut reader)).len(), 65536);
    assert_eq!(ok_labels(&read_line(&mut reader)).len(), 10);
    assert_eq!(read_line(&mut reader), "PONG");
    assert_eq!(err_code(&read_line(&mut reader)), "parse");
    assert_eq!(err_code(&read_line(&mut reader)), "deadline_exceeded");
    assert_eq!(read_line(&mut reader), "BYE");
    server.shutdown();
}

#[test]
fn a_connection_keeps_at_most_two_requests_in_the_engine() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut reader, mut writer) = connect(&server);
    let backlog: String = (0..64)
        .map(|k| format!("LABEL corridor 4000 {k} 2,1\n"))
        .collect();
    writer.write_all(backlog.as_bytes()).unwrap();

    // Read nothing for a while: the connection may still only hold two
    // requests in the engine, whatever the peer has sent.
    let until = std::time::Instant::now() + Duration::from_millis(300);
    let mut most = 0;
    while std::time::Instant::now() < until {
        most = most.max(server.stats().in_flight);
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(most <= 2, "{most} requests of one connection in the engine");

    for k in 0..64 {
        let reply = read_line(&mut reader);
        assert_eq!(ok_labels(&reply).len(), 4000, "reply {k}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 64);
}

#[test]
fn a_peer_vanishing_mid_pipeline_leaves_the_server_serving() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    {
        let (_reader, mut writer) = connect(&server);
        let backlog: String = (0..50)
            .map(|k| format!("LABEL corridor 4000 {k} 2,1\n"))
            .collect();
        writer.write_all(backlog.as_bytes()).unwrap();
        // Both halves close here, with every reply unread.
    }

    let (mut reader, mut writer) = connect(&server);
    writer
        .write_all(b"PING\nLABEL corridor 40 7 2,1\nQUIT\n")
        .unwrap();
    assert_eq!(read_line(&mut reader), "PONG");
    assert_eq!(ok_labels(&read_line(&mut reader)).len(), 40);
    assert_eq!(read_line(&mut reader), "BYE");

    let stats = server.shutdown();
    assert_eq!(stats.completed, stats.submitted, "{stats:?}");
    assert_eq!(stats.in_flight, 0, "{stats:?}");
}

#[test]
fn drain_abandons_a_peer_that_stopped_reading() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let (_reader, mut writer) = connect(&server);
    // About 200 KB per reply: far more than the socket buffers of both
    // ends hold, so the server ends up blocked writing to this peer.
    let sent = 200;
    let backlog: String = (0..sent)
        .map(|k| format!("LABEL corridor 65536 {k} 2,1\n"))
        .collect();
    writer.write_all(backlog.as_bytes()).unwrap();

    // Wait until the server stops making progress on this connection.
    let mut last = server.stats();
    let mut quiet_since = std::time::Instant::now();
    while quiet_since.elapsed() < Duration::from_secs(1) {
        std::thread::sleep(Duration::from_millis(20));
        let now = server.stats();
        if now.completed != last.completed || now.in_flight != 0 {
            quiet_since = std::time::Instant::now();
        }
        last = now;
    }
    assert!(
        last.completed < sent,
        "the socket buffers never filled: {last:?}"
    );

    let drainer = std::thread::spawn(move || server.shutdown());
    let started = std::time::Instant::now();
    while !drainer.is_finished() {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the drain waited on a peer that does not read"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = drainer.join().unwrap();
    assert_eq!(stats.in_flight, 0, "{stats:?}");
}

#[test]
fn pipelined_requests_keep_their_serve_telemetry() {
    use ssg_telemetry::{Counter, Phase};
    let cfg = ServerConfig {
        metrics: Metrics::enabled(),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let (mut reader, mut writer) = connect(&server);
    let mut pipeline: String = (0..5)
        .map(|k| format!("LABEL corridor 200 {k} 2,1\n"))
        .collect();
    pipeline.push_str("LABEL mesh 1 1 1\n");
    writer.write_all(pipeline.as_bytes()).unwrap();
    for _ in 0..5 {
        assert_eq!(ok_labels(&read_line(&mut reader)).len(), 200);
    }
    assert_eq!(err_code(&read_line(&mut reader)), "parse");

    // Every reply is recorded before it is written.
    let snap = server.metrics().snapshot();
    assert_eq!(snap.phase_count(Phase::Serve), 5);
    assert_eq!(snap.counter(Counter::NetProtocolErrors), 1);
    let text = ssg_net::prometheus_text(server.metrics());
    assert!(text.contains("ssg_net_requests_total 5\n"), "{text}");
    server.shutdown();
}
