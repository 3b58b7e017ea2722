//! End-to-end tests of the `ssg` command-line binary (Cargo builds it and
//! exposes the path via `CARGO_BIN_EXE_ssg`).

use std::io::Write;
use std::process::Command;

fn ssg() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ssg"))
}

#[test]
fn gen_classify_color_pipeline() {
    // Generate a platoon workload.
    let out = ssg()
        .args(["gen", "platoon", "25", "3", "11"])
        .output()
        .expect("gen runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    assert!(header.starts_with("25 "));
    // Persist to a temp file.
    let dir = std::env::temp_dir().join("ssg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("platoon.g");
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(text.as_bytes()).unwrap();
    drop(f);

    // Classify: proper interval.
    let out = ssg()
        .args(["classify", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("class=ProperInterval"), "{text}");

    // Color with L(2,1): no violations expected, exit code 0.
    let out = ssg()
        .args(["color", path.to_str().unwrap(), "2,1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("violations=0"), "{text}");
    // One channel line per vertex.
    assert_eq!(text.lines().count(), 1 + 25);
}

#[test]
fn backbone_is_a_tree_and_colors_optimally() {
    let out = ssg().args(["gen", "backbone", "40", "5"]).output().unwrap();
    assert!(out.status.success());
    let dir = std::env::temp_dir().join("ssg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("backbone.g");
    std::fs::write(&path, &out.stdout).unwrap();
    let out = ssg()
        .args(["classify", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("class=Tree"));
    let out = ssg()
        .args(["color", path.to_str().unwrap(), "1,1"])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("guarantee=optimal"), "{text}");
    assert!(text.contains("violations=0"));
}

#[test]
fn usage_errors_exit_nonzero() {
    let out = ssg().output().unwrap();
    assert!(!out.status.success());
    let out = ssg()
        .args(["color", "/nonexistent/file", "2,1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = ssg().args(["gen", "nonsense", "5"]).output().unwrap();
    assert!(!out.status.success());
    // Increasing separations are invalid.
    let dir = std::env::temp_dir().join("ssg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.g");
    std::fs::write(&path, "2 1\n0 1\n").unwrap();
    let out = ssg()
        .args(["color", path.to_str().unwrap(), "1,2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // A malformed optional positional is a usage error, never a silent
    // fallback to its default.
    for args in [
        &["churn", "abc"][..],
        &["churn", "5", "O7"],
        &["gen", "corridor", "10", "x"],
        &["gen", "platoon", "10", "four", "42"],
    ] {
        let out = ssg().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn bench_emits_text_and_json_reports() {
    let out = ssg()
        .args(["bench", "--n", "80", "--reps", "1", "--seed", "5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for id in ["A1", "A2", "A3", "A4", "A5"] {
        assert!(text.contains(id), "{text}");
    }

    let out = ssg()
        .args([
            "bench", "--format", "json", "--n", "80", "--reps", "1", "--seed", "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.starts_with('{') && json.ends_with("}\n"), "{json}");
    assert!(json.contains("\"schema\": \"ssg-bench/v2\""), "{json}");
    assert!(json.contains("\"palette_probes\""), "{json}");
    assert!(json.contains("\"histograms\""), "{json}");
    for section in [
        "\"solver_solve\"",
        "\"queue_wait\"",
        "\"request_latency\"",
        "\"p99\"",
    ] {
        assert!(json.contains(section), "missing {section} in {json}");
    }

    // Bad flags are usage errors.
    let out = ssg().args(["bench", "--n", "1"]).output().unwrap();
    assert!(!out.status.success());
    let out = ssg().args(["bench", "--frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn color_emits_json_on_request() {
    let out = ssg().args(["gen", "corridor", "15", "9"]).output().unwrap();
    assert!(out.status.success());
    let dir = std::env::temp_dir().join("ssg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corridor.g");
    std::fs::write(&path, &out.stdout).unwrap();

    let out = ssg()
        .args(["color", path.to_str().unwrap(), "1,1", "--format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"schema\": \"ssg-color/v1\""), "{json}");
    assert!(json.contains("\"violations\": 0"), "{json}");
    assert!(json.contains("\"colors\""), "{json}");

    // Unknown format values are usage errors (exit 2).
    let out = ssg()
        .args(["color", path.to_str().unwrap(), "1,1", "--format", "xml"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn batch_routes_request_files_through_the_engine() {
    let dir = std::env::temp_dir().join("ssg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let reqs = dir.join("demo.reqs");
    std::fs::write(
        &reqs,
        "# three workloads, one per paper class\n\
         corridor 40 1 1\n\
         platoon 30 2 3,1 solver=unit_interval_l_delta1_delta2\n\
         \n\
         backbone 25 3 1,1 deadline_ms=60000\n",
    )
    .unwrap();

    let out = ssg()
        .args(["batch", reqs.to_str().unwrap(), "--workers", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("req 2: ok"), "{text}");
    assert!(text.contains("algorithm=\"tree_l1\""), "{text}");
    assert!(text.contains("failed=0"), "{text}");

    let out = ssg()
        .args(["batch", reqs.to_str().unwrap(), "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"schema\": \"ssg-batch/v1\""), "{json}");
    assert!(json.contains("\"completed\": 3"), "{json}");
}

/// The `span=` field of the first line of `text` that has one.
fn span_field(text: &str) -> &str {
    text.split_whitespace()
        .find_map(|w| w.strip_prefix("span="))
        .unwrap_or_else(|| panic!("no span= in {text}"))
}

#[test]
fn color_and_batch_route_a_platoon_alike() {
    // `ssg color` classifies the bare graph, `ssg batch` serves the
    // unit-interval representation: both must reach the same solver.
    let dir = std::env::temp_dir().join("ssg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let out = ssg()
        .args(["gen", "platoon", "200", "4", "7"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let graph = dir.join("platoon200.g");
    std::fs::write(&graph, &out.stdout).unwrap();
    let reqs = dir.join("platoon200.reqs");
    std::fs::write(&reqs, "platoon 200 7 5,1\n").unwrap();

    let out = ssg()
        .args(["color", graph.to_str().unwrap(), "5,1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let color = String::from_utf8(out.stdout).unwrap();
    assert!(color.contains("unit-l-d1d2 (Theorem 3)"), "{color}");
    let out = ssg()
        .args(["batch", reqs.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let batch = String::from_utf8(out.stdout).unwrap();
    assert!(
        batch.contains("algorithm=\"unit_interval_l_delta1_delta2\""),
        "{batch}"
    );
    assert_eq!(span_field(&color), span_field(&batch), "{color}\n{batch}");
}

#[test]
fn batch_maps_per_request_errors_to_exit_codes() {
    let dir = std::env::temp_dir().join("ssg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();

    // An unknown solver is reported per-request and exits 3.
    let reqs = dir.join("badsolver.reqs");
    std::fs::write(&reqs, "corridor 10 1 1 solver=nope\n").unwrap();
    let out = ssg()
        .args(["batch", reqs.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("kind=unknown_solver"), "{text}");

    // A missing request file is an I/O error (exit 1); a malformed line is
    // a parse error (exit 2); a bad flag is a usage error (exit 2).
    let out = ssg().args(["batch", "/nonexistent.reqs"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let reqs = dir.join("malformed.reqs");
    std::fs::write(&reqs, "corridor ten 1 1\n").unwrap();
    let out = ssg()
        .args(["batch", reqs.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = ssg()
        .args(["batch", "x.reqs", "--frobnicate"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn churn_prints_both_policies() {
    let out = ssg().args(["churn", "5", "3"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("optimal_l1:"));
    assert!(text.contains("greedy:"));
    // Per-epoch solve-time percentiles ride along for each policy.
    assert_eq!(text.matches("epoch solve: p50=").count(), 2, "{text}");
    assert!(text.contains("p99="), "{text}");
}

#[test]
fn metrics_prints_prometheus_exposition() {
    let out = ssg()
        .args(["metrics", "--n", "64", "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "# TYPE ssg_peel_steps_total counter",
        "# TYPE ssg_solver_solve_ns histogram",
        "ssg_queue_wait_ns_bucket{le=\"+Inf\"}",
        "ssg_request_latency_ns_count",
        "# TYPE ssg_queue_depth gauge",
        "ssg_in_flight_max",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    // Bad flags are usage errors.
    let out = ssg().args(["metrics", "--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn color_trace_prints_span_log_to_stderr() {
    let out = ssg()
        .args(["gen", "platoon", "20", "3", "8"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let dir = std::env::temp_dir().join("ssg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.g");
    std::fs::write(&path, &out.stdout).unwrap();

    let out = ssg()
        .args(["color", path.to_str().unwrap(), "2,1", "--trace"])
        .output()
        .unwrap();
    assert!(out.status.success());
    // stdout keeps the normal coloring output; the span log goes to stderr.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("violations=0"), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("trace:"), "{stderr}");
    assert!(stderr.contains("span"), "{stderr}");
}

#[test]
fn batch_trace_dump_writes_flight_recorder_json() {
    let dir = std::env::temp_dir().join("ssg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let reqs = dir.join("tracedump.reqs");
    std::fs::write(&reqs, "corridor 30 1 1\nplatoon 25 2 3,1\n").unwrap();
    let dump = dir.join("tracedump.json");
    let _ = std::fs::remove_file(&dump);

    let out = ssg()
        .args([
            "batch",
            reqs.to_str().unwrap(),
            "--trace-dump",
            dump.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&dump).expect("--trace-dump writes the file");
    assert!(text.contains("\"schema\": \"ssg-trace/v1\""), "{text}");
    for name in [
        "engine.enqueue",
        "engine.dequeue",
        "engine.solve",
        "engine.reply",
    ] {
        assert!(text.contains(name), "missing {name} in dump");
    }
}

#[test]
fn batch_deadline_miss_auto_dumps_the_span_chain() {
    let dir = std::env::temp_dir().join("ssg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let reqs = dir.join("deadline.reqs");
    std::fs::write(&reqs, "corridor 2000 1 1 deadline_ms=0\n").unwrap();
    let dump = dir.join("deadline.reqs.trace.json");
    let _ = std::fs::remove_file(&dump);

    let out = ssg()
        .args(["batch", reqs.to_str().unwrap(), "--workers", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "deadline miss exits 4");
    let text = std::fs::read_to_string(&dump)
        .expect("a deadline miss auto-dumps next to the request file");
    assert!(text.contains("\"incidents\": 1"), "{text}");
    // The missed request's chain is in the dump: it was enqueued, dequeued,
    // and flagged as an incident rather than solved.
    assert!(text.contains("engine.enqueue"), "{text}");
    assert!(text.contains("engine.dequeue"), "{text}");
    assert!(text.contains("engine.deadline_miss"), "{text}");
}

#[test]
fn serve_loadgen_fetch_session() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let dir = std::env::temp_dir().join("ssg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("serve.trace.json");
    let _ = std::fs::remove_file(&dump);

    // Start a server on an ephemeral port and parse the address from its
    // announce line, exactly as scripts/verify.sh does.
    let mut serve = ssg()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--trace-dump",
            dump.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve starts");
    let mut serve_out = BufReader::new(serve.stdout.take().unwrap());
    let mut announce = String::new();
    serve_out.read_line(&mut announce).unwrap();
    let addr = announce
        .trim()
        .strip_prefix("ssg-serve: listening on ")
        .expect("announce line")
        .to_string();

    // GET /healthz through the hermetic curl substitute.
    let out = ssg().args(["fetch", &addr, "/healthz"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8(out.stdout).unwrap(), "ok\n");

    // A traced POST /label: the JSON reply echoes the propagated trace id
    // and the exported client dump passes `trace check` under that id.
    let trace_export = dir.join("fetch.trace.json");
    let _ = std::fs::remove_file(&trace_export);
    let out = ssg()
        .args([
            "fetch",
            &addr,
            "/label",
            "--post",
            "LABEL corridor 24 5 2,1",
            "--trace-id",
            "c0ffee",
            "--trace-export",
            trace_export.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = String::from_utf8(out.stdout).unwrap();
    assert!(body.contains("\"trace\": \"0000000000c0ffee\""), "{body}");
    let out = ssg()
        .args([
            "trace",
            "check",
            trace_export.to_str().unwrap(),
            "--expect-trace",
            "c0ffee",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A short open-loop run; a 0ms deadline on every request forces
    // deadline misses, which must auto-dump the serve flight recorder.
    let out = ssg()
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--rps",
            "40",
            "--duration",
            "1",
            "--n",
            "32",
            "--deadline-ms",
            "0",
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"schema\": \"ssg-load/v1\""), "{json}");
    assert!(json.contains("\"deadline_exceeded\""), "{json}");

    // A clean run at the same rate: everything OK, exit 0, latency
    // percentiles from real sockets.
    let out = ssg()
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--rps",
            "40",
            "--duration",
            "1",
            "--n",
            "32",
            "--drain",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("protocol-err 0"), "{text}");
    assert!(text.contains("p99"), "{text}");

    // --drain sent SHUTDOWN; the server exits 0 on its own.
    let status = serve.wait().expect("serve exits");
    assert!(status.success());
    let mut tail = String::new();
    serve_out.read_to_string(&mut tail).unwrap();
    assert!(tail.contains("ssg-serve: drained;"), "{tail}");

    // The deadline misses from the first run auto-dumped the recorder.
    let trace = std::fs::read_to_string(&dump).expect("incident auto-dump exists");
    assert!(trace.contains("\"schema\": \"ssg-trace/v1\""), "{trace}");
    assert!(trace.contains("engine.deadline_miss"), "{trace}");
}

#[test]
fn loadgen_and_fetch_fail_cleanly_without_a_server() {
    // A connection refused is an I/O error: exit 1, no panic, no hang.
    let out = ssg()
        .args([
            "loadgen",
            "--addr",
            "127.0.0.1:1",
            "--rps",
            "10",
            "--duration",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = ssg()
        .args(["fetch", "127.0.0.1:1", "/healthz"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    // Bad flags are usage errors (exit 2).
    let out = ssg().args(["serve", "--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = ssg().args(["loadgen", "--rps", "nope"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = ssg().args(["fetch", "onlyonearg"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bench_json_alias_is_gone() {
    // The historical `--json` switch was removed after a deprecation
    // cycle; `--format json` is the only spelling and the old flag is a
    // plain usage error on every former alias site.
    let out = ssg().args(["bench", "--json"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag '--json'"), "{err}");
    let out = ssg().args(["loadgen", "--json"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = ssg().args(["bench", "--format", "yaml"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn trace_export_check_and_profile_round_trip() {
    // batch --trace-dump gives us a real ssg-trace/v1 dump to tool over.
    let dir = std::env::temp_dir().join("ssg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let reqs = dir.join("tracetool.reqs");
    std::fs::write(&reqs, "corridor 30 1 1\nbackbone 25 2 1,1\n").unwrap();
    let dump = dir.join("tracetool.dump.json");
    let export = dir.join("tracetool.trace.json");
    let _ = std::fs::remove_file(&dump);
    let _ = std::fs::remove_file(&export);

    let out = ssg()
        .args([
            "batch",
            reqs.to_str().unwrap(),
            "--trace-dump",
            dump.to_str().unwrap(),
            "--trace-export",
            export.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --trace-export wrote a trace-event document that `trace check`
    // accepts, and the untraced-request lane uses the request id (1) as
    // its trace id.
    let text = std::fs::read_to_string(&export).unwrap();
    assert!(text.contains("\"traceEvents\""), "{text}");
    assert!(text.contains("\"ph\": \"B\""), "{text}");
    let out = ssg()
        .args([
            "trace",
            "check",
            export.to_str().unwrap(),
            "--expect-trace",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `trace export` over the raw dump matches the inline export route.
    let exported2 = dir.join("tracetool2.trace.json");
    let out = ssg()
        .args([
            "trace",
            "export",
            dump.to_str().unwrap(),
            "-o",
            exported2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let out = ssg()
        .args(["trace", "check", exported2.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    // An expected trace id that never ran exits 1.
    let out = ssg()
        .args([
            "trace",
            "check",
            export.to_str().unwrap(),
            "--expect-trace",
            "deadbeef",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // The profile tree over the same dump: text names the engine chain,
    // json carries the envelope.
    let out = ssg()
        .args(["profile", dump.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("engine.solve"), "{text}");
    assert!(text.contains("self"), "{text}");
    let out = ssg()
        .args(["profile", dump.to_str().unwrap(), "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"schema\": \"ssg-profile/v1\""), "{json}");
    assert!(json.contains("\"self_ns\""), "{json}");

    // Usage and parse errors: missing operands exit 2, a non-dump file
    // exits 2 via the parse path.
    let out = ssg().args(["trace", "frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = ssg().args(["profile"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = ssg()
        .args(["profile", export.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "a trace-event file is not a dump"
    );
}

#[test]
fn lab_run_resume_report_round_trip() {
    let dir = std::env::temp_dir().join(format!("ssg-cli-lab-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("mini.lab");
    std::fs::write(
        &spec_path,
        "name = mini\n\n[grid]\nclass = corridor backbone\nn = 12\n",
    )
    .unwrap();
    let run_dir = dir.join("run");

    let out = ssg()
        .args(["lab", "run", spec_path.to_str().unwrap(), "--dir"])
        .arg(&run_dir)
        .args(["--format", "json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(table.contains("\"schema\": \"ssg-lab/v1\""), "{table}");
    let verdict = String::from_utf8(out.stderr).unwrap();
    assert!(
        verdict.contains("lab mini: ran 2 cell(s), skipped 0 (of 2)"),
        "{verdict}"
    );

    // Resume is a no-op and reproduces the table byte for byte.
    let out = ssg()
        .args(["lab", "resume"])
        .arg(&run_dir)
        .args(["--format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), table);
    let verdict = String::from_utf8(out.stderr).unwrap();
    assert!(
        verdict.contains("ran 0 cell(s), skipped 2 (of 2)"),
        "{verdict}"
    );

    // Report rebuilds the same table without executing anything.
    let out = ssg()
        .args(["lab", "report"])
        .arg(&run_dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("lab mini: ran 0 cell(s)"), "{text}");
    assert!(text.contains("class=corridor n=12"), "{text}");

    // A clean self-baseline gate exits 0; a doctored one exits 1 and
    // leaves a trace dump next to the offending row.
    let baseline_path = dir.join("baseline.json");
    std::fs::write(&baseline_path, &table).unwrap();
    let out = ssg()
        .args(["lab", "resume"])
        .arg(&run_dir)
        .args(["--baseline", baseline_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("baseline compare: clean"), "{text}");

    let doctored = table.replacen("\"span\": ", "\"span\": 4", 1);
    assert_ne!(doctored, table);
    std::fs::write(&baseline_path, doctored).unwrap();
    let out = ssg()
        .args(["lab", "resume"])
        .arg(&run_dir)
        .args(["--baseline", baseline_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("!= baseline"), "{text}");
    assert!(run_dir.join("cell-0.trace.json").exists());

    // Usage errors: missing --dir, unknown verb, bad format.
    let out = ssg()
        .args(["lab", "run", spec_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = ssg().args(["lab", "frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = ssg()
        .args(["lab", "report"])
        .arg(&run_dir)
        .args(["--format", "yaml"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lab_rejects_bad_specs_as_parse_errors() {
    let dir = std::env::temp_dir().join(format!("ssg-cli-lab-bad-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("bad.lab");
    std::fs::write(
        &spec_path,
        "name = bad\n\n[grid]\nclass = corridor\nn = 12\nfrobnicate = 1\n",
    )
    .unwrap();
    let out = ssg()
        .args(["lab", "run", spec_path.to_str().unwrap(), "--dir"])
        .arg(dir.join("run"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("frobnicate"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
