//! `ssg` — command-line channel assignment.
//!
//! ```text
//! ssg gen corridor <n> [seed]        # emit an interval-graph edge list
//! ssg gen platoon  <n> <k> [seed]    # tight unit-interval platoon
//! ssg gen backbone <n> [seed]        # random degree-4 tree
//! ssg classify <file>                # certify the graph class
//! ssg color <file> <d1[,d2,...]> [--format text|json] [--trace]
//!                                    # auto-dispatch an L(δ...) coloring;
//!                                    # --trace prints the span log to
//!                                    # stderr
//! ssg batch <file.reqs> [--workers N] [--queue-cap N] [--fail-fast]
//!           [--format text|json] [--trace]
//!           [--trace-dump <path>] [--trace-export <path>]
//!                                    # run a request file through the
//!                                    # sharded batch engine; batch always
//!                                    # records a flight recorder: --trace
//!                                    # prints its span log, --trace-dump
//!                                    # writes its JSON to <path>,
//!                                    # --trace-export writes a Chrome/
//!                                    # Perfetto trace-event JSON, and any
//!                                    # deadline miss or worker panic
//!                                    # auto-dumps to <file.reqs>.trace.json
//! ssg churn [epochs] [seed] [--incremental] [--format text|json]
//!                                    # dynamic corridor churn demo with
//!                                    # per-epoch solve-time percentiles;
//!                                    # --incremental races delta patching
//!                                    # against the from-scratch optimum
//!                                    # and exits 1 if any epoch's span
//!                                    # diverges; --format json emits an
//!                                    # ssg-churn/v1 report
//! ssg metrics [--n N] [--seed S]     # run a standard workload and print
//!                                    # Prometheus text exposition
//! ssg bench [--format text|json] [--n N] [--reps R] [--seed S]
//!           [--repeat K] [--compare BASELINE.json]
//!                                    # run A1-A5 with telemetry;
//!                                    # --format json emits an
//!                                    # ssg-bench/v2 report (latency
//!                                    # histograms included); --repeat K>1 adds
//!                                    # warm-workspace timings next to
//!                                    # the cold solves; --compare diffs
//!                                    # spans against a committed v1 or
//!                                    # v2 report and exits 1 on any
//!                                    # drift
//! ssg lab run <spec.lab> --dir DIR [--baseline TABLE.json]
//!            [--format text|json]
//!                                    # expand the spec's scenario matrix
//!                                    # and run every cell not already in
//!                                    # DIR's row log; one flushed
//!                                    # ssg-lab/v1 row per cell makes the
//!                                    # run resumable; --baseline applies
//!                                    # the span-drift gate (exit 1 on
//!                                    # drift, flight-recorder dump next
//!                                    # to each offending row); --format
//!                                    # json prints the deterministic
//!                                    # table (the committed baseline
//!                                    # artifact)
//! ssg lab resume <dir> [--baseline TABLE.json] [--format text|json]
//!                                    # continue an interrupted run from
//!                                    # the spec pinned in <dir>
//! ssg lab report <dir> [--format text|json]
//!                                    # rebuild the table from <dir>'s
//!                                    # rows without executing anything
//! ssg serve [--addr A] [--workers N] [--queue-cap N]
//!           [--backpressure block|failfast] [--deadline-ms N]
//!           [--max-conns N] [--duration SECS] [--trace-dump PATH]
//!                                    # TCP front door: ssg-proto/1 line
//!                                    # protocol + HTTP (/healthz,
//!                                    # /metrics, POST /label) on one
//!                                    # port; see PROTOCOL.md. Stops on
//!                                    # a loopback SHUTDOWN verb or when
//!                                    # --duration elapses; any incident
//!                                    # auto-dumps the flight recorder
//! ssg loadgen [--addr A] [--rps R] [--duration SECS] [--conns C]
//!             [--workload corridor|platoon|backbone] [--n N] [--seed S]
//!             [--sep d1[,d2,...]] [--solver NAME] [--deadline-ms N]
//!             [--timeout-ms N] [--drain] [--format text|json]
//!             [--trace-export <path>] [--trace-dump <path>]
//!                                    # open-loop load against a serve:
//!                                    # fixed-schedule arrivals (no
//!                                    # coordinated omission); reports
//!                                    # achieved RPS + latency tail;
//!                                    # --format json emits ssg-load/v1;
//!                                    # --drain sends SHUTDOWN after;
//!                                    # --trace-export propagates a trace
//!                                    # context on every request and
//!                                    # writes the client-side span dump
//!                                    # as Chrome trace-event JSON
//! ssg fetch <addr> <path> [--post BODY] [--trace-id HEX]
//!           [--trace-dump <path>] [--trace-export <path>]
//!                                    # one HTTP request against a serve,
//!                                    # body to stdout (exit 1 on
//!                                    # non-200) — curl for scripts;
//!                                    # --post sends BODY to <path>;
//!                                    # --trace-id propagates the given
//!                                    # trace id via X-Ssg-Trace and
//!                                    # records a client.request span,
//!                                    # dumped raw (--trace-dump) or as
//!                                    # trace-event JSON (--trace-export)
//! ssg trace export <dump.json> [--merge <dump2.json>] [-o <path>]
//!                                    # convert an ssg-trace/v1 dump to
//!                                    # Chrome/Perfetto trace-event JSON;
//!                                    # --merge aligns a second (server)
//!                                    # dump onto the first (client) dump's
//!                                    # timebase, one process lane each
//! ssg trace check <trace.json> [--expect-trace HEX]
//!                                    # validate a trace-event JSON file:
//!                                    # matched B/E pairs per lane; with
//!                                    # --expect-trace, the given trace id
//!                                    # must appear on some span
//! ssg profile <dump.json> [--format text|json]
//!                                    # fold an ssg-trace/v1 dump into a
//!                                    # self-time call tree (total/self
//!                                    # time, count, p50/p99 per node);
//!                                    # --format json emits ssg-profile/v1
//! ```
//!
//! Graph files: first line `n m`, then `m` lines `u v` (0-based).
//!
//! Request files (`ssg batch`): one request per line,
//! `<workload> <n> <seed> <d1[,d2,...]> [solver=NAME] [deadline_ms=N]`
//! with workload one of `corridor`, `platoon`, `backbone`, or
//! `file:<path>` (for which `n` and `seed` are ignored). Blank lines and
//! `#` comments are skipped.
//!
//! Every fallible command returns [`SsgError`]; [`exit_code`] maps each
//! variant to a process exit code in exactly one place:
//!
//! | code | meaning                                          |
//! |------|--------------------------------------------------|
//! | 0    | success                                          |
//! | 1    | I/O failure, or a coloring with violations       |
//! | 2    | usage / parse / specification error              |
//! | 3    | class mismatch or unknown solver                 |
//! | 4    | deadline exceeded                                |
//! | 5    | worker panic                                     |
//! | 6    | queue full / engine shutting down                |
//!
//! Sequential coloring commands dispatch through the [`SolverRegistry`]
//! with one [`Workspace`] held for the whole invocation; `ssg batch` goes
//! through the sharded [`Engine`] instead.
//!
//! [`SolverRegistry`]: strongly_simplicial::labeling::SolverRegistry

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;
use strongly_simplicial::bench::{diff_against_baseline, run_benchmarks, BenchConfig};
use strongly_simplicial::engine::{Backpressure, Engine, LabelRequest, LabelResponse};
use strongly_simplicial::lab::{
    load_dir_spec, render_drifts, render_table_text, report_dir, run_lab, LabSpec, LabSummary,
};
use strongly_simplicial::labeling::auto::Guarantee;
use strongly_simplicial::labeling::solver::{default_registry, Problem};
use strongly_simplicial::labeling::{all_violations, SeparationVector, Workspace};
use strongly_simplicial::net::Workload;
use strongly_simplicial::netsim::{
    simulate_corridor, BackboneNetwork, ChurnReport, CorridorNetwork, DynamicsConfig, Policy,
    VehicularNetwork,
};
use strongly_simplicial::prelude::*;
use strongly_simplicial::telemetry::json::Json;
use strongly_simplicial::telemetry::report::ReportEnvelope;
use strongly_simplicial::telemetry::{
    export, FlightRecorder, HistSnapshot, Histogram, Metrics, Profile, TraceDump,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ssg: {e}");
            exit_code(&e)
        }
    };
    std::process::exit(code);
}

/// Dispatches to the subcommand. `Ok` carries the exit code for
/// non-error outcomes that still signal something (a coloring with
/// violations exits 1); every failure funnels through [`exit_code`].
fn run(args: &[String]) -> Result<i32, SsgError> {
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("classify") => cmd_classify(&args[1..]),
        Some("color") => cmd_color(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("churn") => cmd_churn(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("lab") => cmd_lab(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("fetch") => cmd_fetch(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        _ => Err(SsgError::Usage(
            "ssg gen|classify|color|batch|churn|metrics|bench|lab|serve|loadgen|fetch|trace|profile ... (see the README)"
                .into(),
        )),
    }
}

/// The one place an [`SsgError`] becomes a process exit code.
fn exit_code(err: &SsgError) -> i32 {
    match err {
        SsgError::Io { .. } => 1,
        SsgError::Usage(_) | SsgError::Parse { .. } | SsgError::Spec(_) => 2,
        SsgError::ClassMismatch { .. } | SsgError::UnknownSolver { .. } => 3,
        SsgError::DeadlineExceeded { .. } => 4,
        SsgError::WorkerPanic(_) => 5,
        SsgError::QueueFull | SsgError::ShuttingDown => 6,
        // `SsgError` is #[non_exhaustive]; treat future variants as generic
        // failures rather than silently reusing a specific code.
        _ => 1,
    }
}

// ---------------------------------------------------------------------------
// Shared flag parsing
// ---------------------------------------------------------------------------

/// Output format shared by every subcommand that renders a report:
/// `color`, `batch`, `churn`, `bench`, `lab`, `loadgen`, and `profile`
/// all parse `--format text|json` through [`parse_format`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

/// Every subcommand funnels `--flag value` pairs through here so that
/// "missing value" diagnostics read the same everywhere.
fn flag_value<'a, I: Iterator<Item = &'a String>>(
    cmd: &str,
    flag: &str,
    it: &mut I,
) -> Result<&'a str, SsgError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| SsgError::Usage(format!("{cmd}: {flag} needs a value")))
}

/// `--flag value` where the value must parse as `T`.
fn parse_flag<'a, T, I>(cmd: &str, flag: &str, it: &mut I) -> Result<T, SsgError>
where
    T: std::str::FromStr,
    I: Iterator<Item = &'a String>,
{
    let raw = flag_value(cmd, flag, it)?;
    raw.parse()
        .map_err(|_| SsgError::Usage(format!("{cmd}: {flag} got `{raw}`, expected a number")))
}

/// `--format text|json`.
fn parse_format<'a, I: Iterator<Item = &'a String>>(
    cmd: &str,
    it: &mut I,
) -> Result<OutputFormat, SsgError> {
    match flag_value(cmd, "--format", it)? {
        "text" => Ok(OutputFormat::Text),
        "json" => Ok(OutputFormat::Json),
        other => Err(SsgError::Usage(format!(
            "{cmd}: --format must be `text` or `json`, got `{other}`"
        ))),
    }
}

/// A positional argument that must parse as `T`.
fn parse_positional<T: std::str::FromStr>(
    cmd: &str,
    what: &str,
    raw: Option<&String>,
) -> Result<T, SsgError> {
    let raw = raw.ok_or_else(|| SsgError::Usage(format!("{cmd}: missing {what}")))?;
    raw.parse()
        .map_err(|_| SsgError::Usage(format!("{cmd}: bad {what} `{raw}`")))
}

/// `d1[,d2,...]` → a validated separation vector.
fn parse_separations(cmd: &str, spec: &str) -> Result<SeparationVector, SsgError> {
    let deltas: Result<Vec<u32>, _> = spec.split(',').map(str::parse).collect();
    let deltas =
        deltas.map_err(|_| SsgError::Usage(format!("{cmd}: bad separation list `{spec}`")))?;
    Ok(SeparationVector::new(deltas)?)
}

/// An optional positional argument: absent takes `default`, present must
/// parse as `T`.
fn parse_optional<T: std::str::FromStr>(
    cmd: &str,
    what: &str,
    raw: Option<&String>,
    default: T,
) -> Result<T, SsgError> {
    match raw {
        None => Ok(default),
        raw => parse_positional(cmd, what, raw),
    }
}

fn parse_seed(cmd: &str, arg: Option<&String>) -> Result<u64, SsgError> {
    parse_optional(cmd, "seed", arg, 42)
}

// ---------------------------------------------------------------------------
// gen / classify
// ---------------------------------------------------------------------------

fn cmd_gen(args: &[String]) -> Result<i32, SsgError> {
    let kind = args.first().map(String::as_str).ok_or_else(|| {
        SsgError::Usage("ssg gen corridor|platoon|backbone <n> [...] [seed]".into())
    })?;
    let n: usize = parse_positional("gen", "vertex count", args.get(1))?;
    if n < 1 {
        return Err(SsgError::Usage("gen: need a positive vertex count".into()));
    }
    let g = match kind {
        "corridor" => {
            let seed = parse_seed("gen", args.get(2))?;
            let mut rng = StdRng::seed_from_u64(seed);
            CorridorNetwork::generate(n, 1.0, 1.0, 5.0, &mut rng)
                .graph()
                .clone()
        }
        "platoon" => {
            let k: usize = parse_optional("gen", "platoon k", args.get(2), 4)?;
            let seed = parse_seed("gen", args.get(3))?;
            let mut rng = StdRng::seed_from_u64(seed);
            VehicularNetwork::platoon(n, k, &mut rng).graph().clone()
        }
        "backbone" => {
            let seed = parse_seed("gen", args.get(2))?;
            let mut rng = StdRng::seed_from_u64(seed);
            BackboneNetwork::generate(n, 4, &mut rng).graph().clone()
        }
        other => {
            return Err(SsgError::Usage(format!("gen: unknown workload '{other}'")));
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if writeln!(out, "{} {}", g.num_vertices(), g.num_edges()).is_err() {
        return Ok(0); // closed pipe
    }
    for (u, v) in g.edges() {
        if writeln!(out, "{u} {v}").is_err() {
            return Ok(0);
        }
    }
    Ok(0)
}

fn read_graph(path: &str) -> Result<Graph, SsgError> {
    let file = std::fs::File::open(path).map_err(|e| SsgError::io(path, &e))?;
    let mut lines = BufReader::new(file).lines();
    let header = lines
        .next()
        .ok_or_else(|| SsgError::parse(path, "empty file"))?
        .map_err(|e| SsgError::io(path, &e))?;
    let mut it = header.split_whitespace();
    let n: usize = it
        .next()
        .ok_or_else(|| SsgError::parse(path, "missing n"))?
        .parse()
        .map_err(|_| SsgError::parse(path, "bad n"))?;
    let m: usize = it
        .next()
        .ok_or_else(|| SsgError::parse(path, "missing m"))?
        .parse()
        .map_err(|_| SsgError::parse(path, "bad m"))?;
    // Stream straight into the CSR builder: no intermediate edge Vec, and
    // bad endpoints surface once at `build()` with the offending edge.
    let mut builder = GraphBuilder::with_capacity(n, m);
    for line in lines {
        let line = line.map_err(|e| SsgError::io(path, &e))?;
        if line.trim().is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let u: u32 = it
            .next()
            .ok_or_else(|| SsgError::parse(path, "missing u"))?
            .parse()
            .map_err(|_| SsgError::parse(path, "bad u"))?;
        let v: u32 = it
            .next()
            .ok_or_else(|| SsgError::parse(path, "missing v"))?
            .parse()
            .map_err(|_| SsgError::parse(path, "bad v"))?;
        builder.add_edge(u, v);
    }
    if builder.edge_records() != m {
        return Err(SsgError::parse(
            path,
            format!("expected {m} edges, found {}", builder.edge_records()),
        ));
    }
    builder
        .build()
        .map_err(|e| SsgError::parse(path, e.to_string()))
}

fn cmd_classify(args: &[String]) -> Result<i32, SsgError> {
    let path = args
        .first()
        .ok_or_else(|| SsgError::Usage("ssg classify <file>".into()))?;
    let g = read_graph(path)?;
    println!(
        "n={} m={} class={:?}",
        g.num_vertices(),
        g.num_edges(),
        default_registry().classify(&g)
    );
    Ok(0)
}

// ---------------------------------------------------------------------------
// color
// ---------------------------------------------------------------------------

fn guarantee_str(g: &Guarantee) -> String {
    match g {
        Guarantee::Optimal => "optimal".to_string(),
        Guarantee::Approximation(f) => format!("{f}-approx"),
        Guarantee::Heuristic => "heuristic".to_string(),
    }
}

/// Prints a flight recorder's span log to stderr, one line per event, so
/// `--trace` composes with both text and JSON stdout formats.
fn print_trace(recorder: &FlightRecorder) {
    let events = recorder.events();
    eprintln!(
        "trace: {} event(s), {} dropped, {} incident(s)",
        events.len(),
        recorder.dropped(),
        recorder.incident_count()
    );
    for e in &events {
        eprintln!(
            "trace: [req {:>3}] {:<8} {:<30} span={} parent={} start={}ns dur={}ns",
            e.trace_id,
            e.kind.name(),
            e.name,
            e.span_id,
            e.parent_id,
            e.start_ns,
            e.end_ns.saturating_sub(e.start_ns)
        );
    }
}

fn cmd_color(args: &[String]) -> Result<i32, SsgError> {
    let usage =
        || SsgError::Usage("ssg color <file> <d1[,d2,...]> [--format text|json] [--trace]".into());
    let (path, sep_spec) = match (args.first(), args.get(1)) {
        (Some(p), Some(s)) => (p, s),
        _ => return Err(usage()),
    };
    let mut format = OutputFormat::Text;
    let mut trace = false;
    let mut it = args[2..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => format = parse_format("color", &mut it)?,
            "--trace" => trace = true,
            other => {
                return Err(SsgError::Usage(format!("color: unknown flag '{other}'")));
            }
        }
    }
    let sep = parse_separations("color", sep_spec)?;
    let g = read_graph(path)?;
    let mut ws = Workspace::new();
    let metrics = if trace {
        Metrics::with_tracing(4096)
    } else {
        Metrics::disabled()
    };
    let out = default_registry().auto_coloring(&g, &sep, &mut ws, &metrics);
    if let Some(recorder) = metrics.recorder() {
        print_trace(recorder);
    }
    let violations = all_violations(&g, &sep, out.labeling.colors());
    match format {
        OutputFormat::Text => {
            println!(
                "class={:?} algorithm=\"{}\" guarantee={} span={} channels={} violations={}",
                out.class,
                out.algorithm,
                guarantee_str(&out.guarantee),
                out.labeling.span(),
                out.labeling.distinct_colors(),
                violations.len()
            );
            let stdout = std::io::stdout();
            let mut w = stdout.lock();
            for (v, c) in out.labeling.colors().iter().enumerate() {
                // A closed pipe (e.g. `| head`) is a normal way to stop
                // reading.
                if writeln!(w, "{v} {c}").is_err() {
                    break;
                }
            }
        }
        OutputFormat::Json => {
            let doc = Json::Object(vec![
                ("schema".into(), Json::Str("ssg-color/v1".into())),
                ("class".into(), Json::Str(format!("{:?}", out.class))),
                ("algorithm".into(), Json::Str(out.algorithm.to_string())),
                ("guarantee".into(), Json::Str(guarantee_str(&out.guarantee))),
                ("span".into(), Json::U64(u64::from(out.labeling.span()))),
                (
                    "channels".into(),
                    Json::U64(out.labeling.distinct_colors() as u64),
                ),
                ("violations".into(), Json::U64(violations.len() as u64)),
                (
                    "colors".into(),
                    Json::Array(
                        out.labeling
                            .colors()
                            .iter()
                            .map(|&c| Json::U64(u64::from(c)))
                            .collect(),
                    ),
                ),
            ]);
            print!("{}", doc.render_pretty());
        }
    }
    Ok(if violations.is_empty() { 0 } else { 1 })
}

// ---------------------------------------------------------------------------
// batch
// ---------------------------------------------------------------------------

/// Parses one request-file line (already trimmed, non-empty, not a
/// comment) into a [`LabelRequest`] with `id = lineno`.
fn parse_request_line(path: &str, lineno: usize, line: &str) -> Result<LabelRequest, SsgError> {
    let mut fields = line.split_whitespace();
    let ctx = format!("{path}:{lineno}");
    let workload = fields
        .next()
        .ok_or_else(|| SsgError::parse(&ctx, "missing workload"))?;
    let n: usize = fields
        .next()
        .ok_or_else(|| SsgError::parse(&ctx, "missing n"))?
        .parse()
        .map_err(|_| SsgError::parse(&ctx, "bad n"))?;
    let seed: u64 = fields
        .next()
        .ok_or_else(|| SsgError::parse(&ctx, "missing seed"))?
        .parse()
        .map_err(|_| SsgError::parse(&ctx, "bad seed"))?;
    let sep_spec = fields
        .next()
        .ok_or_else(|| SsgError::parse(&ctx, "missing separation list"))?;
    let sep = parse_separations(&ctx, sep_spec)?;

    let instance = if let Some(file) = workload.strip_prefix("file:") {
        RequestInstance::Graph(read_graph(file)?)
    } else {
        if n < 1 {
            return Err(SsgError::parse(&ctx, "need a positive vertex count"));
        }
        let family = Workload::parse(workload).ok_or_else(|| {
            SsgError::parse(
                &ctx,
                format!("unknown workload `{workload}` (corridor|platoon|backbone|file:<path>)"),
            )
        })?;
        family.instance(n, seed)
    };

    let mut req = LabelRequest::new(lineno as u64, instance, sep);
    for opt in fields {
        if let Some(name) = opt.strip_prefix("solver=") {
            req = req.solver(name);
        } else if let Some(ms) = opt.strip_prefix("deadline_ms=") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| SsgError::parse(&ctx, format!("bad deadline `{opt}`")))?;
            req = req.timeout(Duration::from_millis(ms));
        } else {
            return Err(SsgError::parse(&ctx, format!("unknown option `{opt}`")));
        }
    }
    Ok(req)
}

/// Reads a whole `.reqs` file; `#` comments and blank lines are skipped.
fn read_requests(path: &str) -> Result<Vec<LabelRequest>, SsgError> {
    let file = std::fs::File::open(path).map_err(|e| SsgError::io(path, &e))?;
    let mut requests = Vec::new();
    for (idx, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| SsgError::io(path, &e))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        requests.push(parse_request_line(path, idx + 1, trimmed)?);
    }
    if requests.is_empty() {
        return Err(SsgError::parse(path, "no requests in file"));
    }
    Ok(requests)
}

fn response_to_json(r: &LabelResponse) -> Json {
    let mut obj = vec![
        ("id".into(), Json::U64(r.id)),
        ("batch_index".into(), Json::U64(r.batch_index as u64)),
        ("worker".into(), Json::U64(r.worker as u64)),
        ("ok".into(), Json::Bool(r.result.is_ok())),
    ];
    match &r.result {
        Ok(out) => {
            obj.push(("algorithm".into(), Json::Str(out.algorithm.clone())));
            obj.push(("span".into(), Json::U64(u64::from(out.labeling.span()))));
            obj.push((
                "channels".into(),
                Json::U64(out.labeling.distinct_colors() as u64),
            ));
            obj.push(("wall_ns".into(), Json::U64(out.wall.as_nanos() as u64)));
        }
        Err(e) => {
            obj.push((
                "error".into(),
                Json::Object(vec![
                    ("kind".into(), Json::Str(e.kind().into())),
                    ("message".into(), Json::Str(e.to_string())),
                ]),
            ));
        }
    }
    Json::Object(obj)
}

/// Span-event capacity of the `ssg batch` flight recorder: enough for the
/// full chains of a few thousand requests before the ring starts dropping
/// the oldest events.
const BATCH_RECORDER_CAPACITY: usize = 16 * 1024;

fn cmd_batch(args: &[String]) -> Result<i32, SsgError> {
    let path = args.first().ok_or_else(|| {
        SsgError::Usage(
            "ssg batch <file.reqs> [--workers N] [--queue-cap N] [--fail-fast] \
             [--format text|json] [--trace] [--trace-dump <path>] \
             [--trace-export <path>]"
                .into(),
        )
    })?;
    let mut workers: Option<usize> = None;
    let mut queue_cap: Option<usize> = None;
    let mut backpressure = Backpressure::Block;
    let mut format = OutputFormat::Text;
    let mut trace = false;
    let mut trace_dump: Option<String> = None;
    let mut trace_export: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => {
                let w: usize = parse_flag("batch", "--workers", &mut it)?;
                if w < 1 {
                    return Err(SsgError::Usage("batch: --workers needs >= 1".into()));
                }
                workers = Some(w);
            }
            "--queue-cap" => {
                let c: usize = parse_flag("batch", "--queue-cap", &mut it)?;
                if c < 1 {
                    return Err(SsgError::Usage("batch: --queue-cap needs >= 1".into()));
                }
                queue_cap = Some(c);
            }
            "--fail-fast" => backpressure = Backpressure::FailFast,
            "--format" => format = parse_format("batch", &mut it)?,
            "--trace" => trace = true,
            "--trace-dump" => {
                trace_dump = Some(flag_value("batch", "--trace-dump", &mut it)?.to_string());
            }
            "--trace-export" => {
                trace_export = Some(flag_value("batch", "--trace-export", &mut it)?.to_string());
            }
            other => {
                return Err(SsgError::Usage(format!("batch: unknown flag '{other}'")));
            }
        }
    }

    let requests = read_requests(path)?;
    let total = requests.len();
    // Batch always flies with the recorder on: a deadline miss or panic in
    // the field is exactly when the span chain is worth having, and the
    // per-request cost is dwarfed by the solve itself.
    let metrics = Metrics::with_tracing(BATCH_RECORDER_CAPACITY);
    let mut builder = Engine::builder()
        .backpressure(backpressure)
        .metrics(metrics.clone());
    if let Some(w) = workers {
        builder = builder.workers(w);
    }
    if let Some(c) = queue_cap {
        builder = builder.queue_capacity(c);
    }
    let engine = builder.build();
    let worker_count = engine.workers();
    let responses = engine.run_batch(requests);
    let stats = engine.stats();
    engine.shutdown();

    let first_error = responses
        .iter()
        .find_map(|r| r.result.as_ref().err())
        .cloned();
    let failed = responses.iter().filter(|r| r.result.is_err()).count();

    match format {
        OutputFormat::Text => {
            for r in &responses {
                match &r.result {
                    Ok(out) => println!(
                        "req {}: ok algorithm=\"{}\" span={} channels={} wall_us={} worker={}",
                        r.id,
                        out.algorithm,
                        out.labeling.span(),
                        out.labeling.distinct_colors(),
                        out.wall.as_micros(),
                        r.worker
                    ),
                    Err(e) => println!("req {}: error kind={} {e}", r.id, e.kind()),
                }
            }
            println!(
                "# workers={worker_count} requests={total} failed={failed} steals={} \
                 backpressure_waits={} deadline_misses={} panics={}",
                stats.steals, stats.backpressure_waits, stats.deadline_misses, stats.panics
            );
        }
        OutputFormat::Json => {
            let doc = Json::Object(vec![
                ("schema".into(), Json::Str("ssg-batch/v1".into())),
                ("workers".into(), Json::U64(worker_count as u64)),
                ("requests".into(), Json::U64(total as u64)),
                ("failed".into(), Json::U64(failed as u64)),
                (
                    "stats".into(),
                    Json::Object(vec![
                        ("submitted".into(), Json::U64(stats.submitted)),
                        ("completed".into(), Json::U64(stats.completed)),
                        ("steals".into(), Json::U64(stats.steals)),
                        (
                            "backpressure_waits".into(),
                            Json::U64(stats.backpressure_waits),
                        ),
                        ("deadline_misses".into(), Json::U64(stats.deadline_misses)),
                        ("panics".into(), Json::U64(stats.panics)),
                    ]),
                ),
                (
                    "responses".into(),
                    Json::Array(responses.iter().map(response_to_json).collect()),
                ),
            ]);
            print!("{}", doc.render_pretty());
        }
    }

    if let Some(recorder) = metrics.recorder() {
        if trace {
            print_trace(recorder);
        }
        let incidents = recorder.incident_count();
        // An explicit --trace-dump always writes; a deadline miss or worker
        // panic auto-dumps next to the request file so the evidence
        // survives the process.
        let dump_to = trace_dump.or_else(|| (incidents > 0).then(|| format!("{path}.trace.json")));
        if let Some(dump_path) = dump_to {
            std::fs::write(&dump_path, recorder.to_json().render_pretty())
                .map_err(|e| SsgError::io(&dump_path, &e))?;
            eprintln!(
                "trace: wrote flight-recorder dump ({} incident(s)) to {dump_path}",
                incidents
            );
        }
        if let Some(export_path) = &trace_export {
            let dump = TraceDump::from_json(&recorder.to_json())
                .map_err(|e| SsgError::parse(export_path.as_str(), e))?;
            let doc = export::chrome_trace(&[("batch", &dump)]);
            std::fs::write(export_path, doc.render_pretty())
                .map_err(|e| SsgError::io(export_path.as_str(), &e))?;
            eprintln!(
                "trace: wrote trace-event export ({} event(s)) to {export_path}",
                dump.events.len()
            );
        }
    }

    // Per-request failures are values; the process exit code reports the
    // first one through the same single map as top-level errors.
    Ok(first_error.as_ref().map_or(0, exit_code))
}

// ---------------------------------------------------------------------------
// churn / bench
// ---------------------------------------------------------------------------

/// The per-epoch solve times of `rep`, bucketed for quantiles.
fn epoch_solve_hist(rep: &ChurnReport) -> HistSnapshot {
    let hist = Histogram::new();
    for &ns in &rep.epoch_solve_ns {
        hist.record(ns);
    }
    hist.snapshot()
}

/// One policy's run rendered as an `ssg-churn/v1` object: aggregates,
/// per-epoch spans and recolored/frozen counts, and the epoch-solve
/// quantile summary.
fn churn_policy_json(name: &str, rep: &ChurnReport) -> Json {
    Json::Object(vec![
        ("policy".into(), Json::Str(name.into())),
        ("mean_stations".into(), Json::F64(rep.mean_stations)),
        ("mean_span".into(), Json::F64(rep.mean_span)),
        ("max_span".into(), Json::U64(u64::from(rep.max_span))),
        ("mean_churn".into(), Json::F64(rep.mean_churn)),
        ("total_retunes".into(), Json::U64(rep.total_retunes as u64)),
        ("full_resolves".into(), Json::U64(rep.full_resolves as u64)),
        (
            "epoch_spans".into(),
            Json::Array(
                rep.epoch_spans
                    .iter()
                    .map(|&s| Json::U64(u64::from(s)))
                    .collect(),
            ),
        ),
        (
            "epoch_recolored".into(),
            Json::Array(
                rep.epoch_recolored
                    .iter()
                    .map(|&c| Json::U64(c as u64))
                    .collect(),
            ),
        ),
        (
            "epoch_frozen".into(),
            Json::Array(
                rep.epoch_frozen
                    .iter()
                    .map(|&c| Json::U64(c as u64))
                    .collect(),
            ),
        ),
        ("epoch_solve".into(), epoch_solve_hist(rep).summary_json()),
    ])
}

/// The envelope stamped on `ssg churn --format json` reports.
const CHURN_ENVELOPE: ReportEnvelope = ReportEnvelope::new("ssg-churn/v1");

/// `ssg churn [epochs] [seed] [--incremental] [--format text|json]`.
///
/// From-scratch mode reruns `OptimalL1` and `Greedy` every epoch;
/// `--incremental` instead races the delta-patching path against the
/// from-scratch optimum on the same seed and checks per-epoch span
/// equality (exit 1 on divergence — the certificate contract is violated).
/// `--format json` emits an `ssg-churn/v1` document with per-epoch spans,
/// recolored counts, and epoch-solve quantiles.
fn cmd_churn(args: &[String]) -> Result<i32, SsgError> {
    let mut positional: Vec<&String> = Vec::new();
    let mut incremental = false;
    let mut format = OutputFormat::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--incremental" => incremental = true,
            "--format" => format = parse_format("churn", &mut it)?,
            other if other.starts_with("--") => {
                return Err(SsgError::Usage(format!(
                    "churn: unknown flag '{other}' (usage: ssg churn [epochs] [seed] \
                     [--incremental] [--format text|json])"
                )));
            }
            _ => positional.push(arg),
        }
    }
    let epochs: usize = parse_optional("churn", "epoch count", positional.first().copied(), 50)?;
    let seed = parse_seed("churn", positional.get(1).copied())?;
    // The from-scratch demo uses a dense corridor (big spans, heavy
    // retuning); the incremental demo spreads the same fleet over a long
    // sparse corridor so distance-2 dirty regions stay small enough for
    // the patching path to shine instead of tripping its size fallback.
    let cfg = if incremental {
        DynamicsConfig::default()
            .initial(100)
            .epochs(epochs)
            .p_depart(0.04)
            .arrivals_max(4)
            .corridor_len(400.0)
            .range_min(1.0)
            .range_max(2.0)
            .t(2)
    } else {
        DynamicsConfig::default()
            .initial(100)
            .epochs(epochs)
            .p_depart(0.08)
            .arrivals_max(10)
            .corridor_len(60.0)
            .range_min(1.0)
            .range_max(4.0)
            .t(2)
    };

    let second = if incremental {
        ("incremental", Policy::Incremental)
    } else {
        ("greedy", Policy::Greedy)
    };
    let runs: Vec<(&str, ChurnReport)> = [("optimal_l1", Policy::OptimalL1), second]
        .into_iter()
        .map(|(name, policy)| {
            let mut rng = StdRng::seed_from_u64(seed);
            (name, simulate_corridor(cfg, policy, &mut rng))
        })
        .collect();
    let spans_match = !incremental || runs[0].1.epoch_spans == runs[1].1.epoch_spans;

    if format == OutputFormat::Json {
        let doc = CHURN_ENVELOPE.stamp(vec![
            ("epochs".into(), Json::U64(epochs as u64)),
            ("seed".into(), Json::U64(seed)),
            ("incremental".into(), Json::Bool(incremental)),
            ("spans_match".into(), Json::Bool(spans_match)),
            (
                "policies".into(),
                Json::Array(runs.iter().map(|(n, r)| churn_policy_json(n, r)).collect()),
            ),
        ]);
        println!("{}", doc.render_pretty());
    } else {
        for (name, rep) in &runs {
            println!(
                "{name}: epochs={} mean_stations={:.1} mean_span={:.2} max_span={} mean_churn={:.1}% retunes={}",
                rep.epochs,
                rep.mean_stations,
                rep.mean_span,
                rep.max_span,
                rep.mean_churn * 100.0,
                rep.total_retunes
            );
            let solve = epoch_solve_hist(rep);
            println!(
                "  epoch solve: p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us",
                solve.p50() as f64 / 1e3,
                solve.p90() as f64 / 1e3,
                solve.p99() as f64 / 1e3,
                solve.max() as f64 / 1e3,
            );
            if incremental {
                println!(
                    "  recolored={} frozen={} full_resolves={}/{}",
                    rep.epoch_recolored.iter().sum::<usize>(),
                    rep.epoch_frozen.iter().sum::<usize>(),
                    rep.full_resolves,
                    rep.epochs,
                );
            }
        }
        if incremental {
            println!(
                "spans match from-scratch optimum: {}",
                if spans_match { "yes" } else { "NO" }
            );
        }
    }
    if !spans_match {
        eprintln!("ssg: incremental spans diverged from the from-scratch optimum");
        return Ok(1);
    }
    Ok(0)
}

/// `ssg metrics`: runs all five registry algorithms plus a small engine
/// batch on one enabled [`Metrics`] handle, then prints the snapshot in
/// Prometheus text exposition format — every counter, phase timer, latency
/// histogram, and gauge the stack records, ready to scrape or diff.
fn cmd_metrics(args: &[String]) -> Result<i32, SsgError> {
    let mut n: usize = 256;
    let mut seed: u64 = 42;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--n" => {
                n = parse_flag("metrics", "--n", &mut it)?;
                if n < 2 {
                    return Err(SsgError::Usage("metrics: --n needs an integer >= 2".into()));
                }
            }
            "--seed" => seed = parse_flag("metrics", "--seed", &mut it)?,
            other => {
                return Err(SsgError::Usage(format!(
                    "metrics: unknown flag '{other}' (usage: ssg metrics [--n N] [--seed S])"
                )));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let corridor = CorridorNetwork::generate(n, 1.0, 1.0, 5.0, &mut rng);
    let platoon = VehicularNetwork::platoon(n, 4, &mut rng);
    let backbone = BackboneNetwork::generate(n, 4, &mut rng);
    let ones = SeparationVector::all_ones(2);
    let d1_one = SeparationVector::delta1_then_ones(4, 2)?;
    let d1_d2 = SeparationVector::two(5, 2)?;

    let metrics = Metrics::enabled();
    let registry = default_registry();
    let mut ws = Workspace::new();
    let problems = [
        (
            "interval_l1",
            Problem::interval(corridor.representation(), &ones),
        ),
        (
            "interval_approx_delta1",
            Problem::interval(corridor.representation(), &d1_one),
        ),
        (
            "unit_interval_l_delta1_delta2",
            Problem::unit_interval(platoon.representation(), &d1_d2),
        ),
        ("tree_l1", Problem::tree(backbone.tree(), &ones)),
        (
            "tree_approx_delta1",
            Problem::tree(backbone.tree(), &d1_one),
        ),
    ];
    for (name, problem) in &problems {
        let lab = registry.solve(name, problem, &mut ws, &metrics);
        ws.recycle(lab);
    }
    // A small engine batch populates queue-wait, end-to-end latency, and
    // the queue-depth / in-flight gauges.
    let engine = Engine::builder()
        .workers(2)
        .metrics(metrics.clone())
        .build();
    let batch: Vec<LabelRequest> = (0..16)
        .map(|i| {
            LabelRequest::new(
                i,
                RequestInstance::Interval(corridor.representation().clone()),
                ones.clone(),
            )
            .solver("interval_l1")
        })
        .collect();
    let _ = engine.run_batch(batch);
    engine.shutdown();

    // Same renderer the `GET /metrics` endpoint uses — one function, two
    // callers, so the CLI and the scrape endpoint can never drift.
    print!("{}", strongly_simplicial::net::prometheus_text(&metrics));
    Ok(0)
}

fn cmd_bench(args: &[String]) -> Result<i32, SsgError> {
    let mut cfg = BenchConfig::default();
    let mut format = OutputFormat::Text;
    let mut compare: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => format = parse_format("bench", &mut it)?,
            "--compare" => {
                let path = it.next().ok_or_else(|| {
                    SsgError::Usage("bench: --compare needs a baseline JSON path".into())
                })?;
                compare = Some(path.clone());
            }
            "--n" => {
                let n: usize = parse_flag("bench", "--n", &mut it)?;
                if n < 2 {
                    return Err(SsgError::Usage("bench: --n needs an integer >= 2".into()));
                }
                cfg = cfg.n(n);
            }
            "--reps" => {
                let r: usize = parse_flag("bench", "--reps", &mut it)?;
                if r < 1 {
                    return Err(SsgError::Usage(
                        "bench: --reps needs an integer >= 1".into(),
                    ));
                }
                cfg = cfg.reps(r);
            }
            "--seed" => {
                let s: u64 = parse_flag("bench", "--seed", &mut it)?;
                cfg = cfg.seed(s);
            }
            "--repeat" => {
                let k: usize = parse_flag("bench", "--repeat", &mut it)?;
                if k < 1 {
                    return Err(SsgError::Usage(
                        "bench: --repeat needs an integer >= 1".into(),
                    ));
                }
                cfg = cfg.repeat(k);
            }
            other => {
                return Err(SsgError::Usage(format!(
                    "bench: unknown flag '{other}' (usage: ssg bench [--format text|json] [--n N] [--reps R] [--seed S] [--repeat K] [--compare BASELINE.json])"
                )));
            }
        }
    }
    let report = run_benchmarks(&cfg);
    if format == OutputFormat::Json {
        print!("{}", report.to_json().render_pretty());
    } else {
        print!("{}", report.to_text());
    }
    if let Some(path) = compare {
        let text = std::fs::read_to_string(&path).map_err(|e| SsgError::io(&path, &e))?;
        let baseline = Json::parse(&text)
            .map_err(|e| SsgError::parse(&path, format!("not valid JSON: {e}")))?;
        let diff =
            diff_against_baseline(&report, &baseline).map_err(|e| SsgError::parse(&path, e))?;
        print!("{}", diff.render());
        if !diff.is_clean() {
            return Ok(1);
        }
    }
    Ok(0)
}

// ---------------------------------------------------------------------------
// lab
// ---------------------------------------------------------------------------

const LAB_USAGE: &str = "ssg lab run <spec.lab> --dir DIR [--baseline TABLE.json] \
                         [--format text|json] | \
                         ssg lab resume <dir> [--baseline TABLE.json] \
                         [--format text|json] | \
                         ssg lab report <dir> [--format text|json]";

/// Reads and parses one JSON document (a committed lab baseline table).
fn read_json_file(path: &str) -> Result<Json, SsgError> {
    let text = std::fs::read_to_string(path).map_err(|e| SsgError::io(path, &e))?;
    Json::parse(&text).map_err(|e| SsgError::parse(path, format!("not valid JSON: {e}")))
}

/// `ssg lab run|resume|report` — the scenario-matrix front end.
///
/// `run` expands a spec file into its cell matrix and executes every cell
/// the run directory's row log does not already cover; `resume` does the
/// same from the spec pinned inside the directory; `report` rebuilds the
/// table from the rows without executing anything. All three share one
/// output path: `--format text` prints the verdict plus the aligned
/// table, `--format json` prints the deterministic `ssg-lab/v1` table —
/// the artifact committed as a baseline. With `--baseline` the table is
/// diffed with the same span-drift discipline as `ssg bench --compare`
/// (exit 1 on drift, flight-recorder dump next to each offending row).
fn cmd_lab(args: &[String]) -> Result<i32, SsgError> {
    let usage = || SsgError::Usage(LAB_USAGE.into());
    let verb = args.first().map(String::as_str).ok_or_else(usage)?;
    let mut positional: Vec<&String> = Vec::new();
    let mut dir: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut format = OutputFormat::Text;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => dir = Some(flag_value("lab", "--dir", &mut it)?.to_string()),
            "--baseline" => {
                baseline_path = Some(flag_value("lab", "--baseline", &mut it)?.to_string());
            }
            "--format" => format = parse_format("lab", &mut it)?,
            other if other.starts_with("--") => {
                return Err(SsgError::Usage(format!(
                    "lab: unknown flag '{other}' (usage: {LAB_USAGE})"
                )));
            }
            _ => positional.push(arg),
        }
    }
    let baseline = baseline_path.as_deref().map(read_json_file).transpose()?;

    let summary = match verb {
        "run" => {
            let spec_path = positional
                .first()
                .ok_or_else(|| SsgError::Usage("lab run: missing <spec.lab>".into()))?;
            let dir = dir.ok_or_else(|| SsgError::Usage("lab run: --dir is required".into()))?;
            let text = std::fs::read_to_string(spec_path.as_str())
                .map_err(|e| SsgError::io(spec_path.as_str(), &e))?;
            let spec = LabSpec::parse(&text)?;
            run_lab(std::path::Path::new(&dir), &spec, baseline.as_ref())?
        }
        "resume" => {
            let dir = positional
                .first()
                .ok_or_else(|| SsgError::Usage("lab resume: missing <dir>".into()))?;
            let dir = std::path::Path::new(dir.as_str());
            let spec = load_dir_spec(dir)?;
            run_lab(dir, &spec, baseline.as_ref())?
        }
        "report" => {
            if baseline.is_some() {
                return Err(SsgError::Usage(
                    "lab report: --baseline only applies to `lab run` / `lab resume`".into(),
                ));
            }
            let dir = positional
                .first()
                .ok_or_else(|| SsgError::Usage("lab report: missing <dir>".into()))?;
            report_dir(std::path::Path::new(dir.as_str()))?
        }
        other => {
            return Err(SsgError::Usage(format!(
                "lab: unknown verb '{other}' (usage: {LAB_USAGE})"
            )));
        }
    };
    print_lab_summary(&summary, format, baseline.is_some())
}

/// Shared `lab` output path: table to stdout, verdict and gate results to
/// stderr in JSON mode so stdout stays the pure committable table.
fn print_lab_summary(
    summary: &LabSummary,
    format: OutputFormat,
    gated: bool,
) -> Result<i32, SsgError> {
    let checked = summary
        .table
        .get("cells")
        .and_then(Json::as_array)
        .map_or(0, |cells| cells.len());
    match format {
        OutputFormat::Json => {
            print!("{}", summary.table.render_pretty());
            eprintln!("{}", summary.verdict());
            if gated {
                eprint!("{}", render_drifts(checked, &summary.drifts));
            }
        }
        OutputFormat::Text => {
            println!("{}", summary.verdict());
            print!("{}", render_table_text(&summary.table));
            if gated {
                print!("{}", render_drifts(checked, &summary.drifts));
            }
        }
    }
    if !summary.failed.is_empty() {
        eprintln!(
            "ssg: {} lab cell(s) failed: {:?}",
            summary.failed.len(),
            summary.failed
        );
        return Ok(1);
    }
    if !summary.drifts.is_empty() {
        return Ok(1);
    }
    Ok(0)
}

// ---------------------------------------------------------------------------
// serve / loadgen / fetch
// ---------------------------------------------------------------------------

/// Span-event capacity of the `ssg serve` flight recorder: sized for the
/// request chains of a sustained network run before the ring recycles.
const SERVE_RECORDER_CAPACITY: usize = 16 * 1024;

fn cmd_serve(args: &[String]) -> Result<i32, SsgError> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = ServerConfig::default();
    let mut duration: Option<Duration> = None;
    let mut trace_dump: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = flag_value("serve", "--addr", &mut it)?.to_string(),
            "--workers" => {
                let w: usize = parse_flag("serve", "--workers", &mut it)?;
                if w < 1 {
                    return Err(SsgError::Usage("serve: --workers needs >= 1".into()));
                }
                cfg.workers = w;
            }
            "--queue-cap" => {
                let c: usize = parse_flag("serve", "--queue-cap", &mut it)?;
                if c < 1 {
                    return Err(SsgError::Usage("serve: --queue-cap needs >= 1".into()));
                }
                cfg.queue_capacity = c;
            }
            "--backpressure" => match flag_value("serve", "--backpressure", &mut it)? {
                "block" => cfg.backpressure = Backpressure::Block,
                "failfast" => cfg.backpressure = Backpressure::FailFast,
                other => {
                    return Err(SsgError::Usage(format!(
                        "serve: --backpressure must be `block` or `failfast`, got `{other}`"
                    )));
                }
            },
            "--deadline-ms" => {
                let ms: u64 = parse_flag("serve", "--deadline-ms", &mut it)?;
                cfg.default_deadline = Some(Duration::from_millis(ms));
            }
            "--max-conns" => {
                let m: usize = parse_flag("serve", "--max-conns", &mut it)?;
                if m < 1 {
                    return Err(SsgError::Usage("serve: --max-conns needs >= 1".into()));
                }
                cfg.max_conns = m;
            }
            "--duration" => {
                let secs: f64 = parse_flag("serve", "--duration", &mut it)?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(SsgError::Usage(
                        "serve: --duration needs > 0 seconds".into(),
                    ));
                }
                duration = Some(Duration::from_secs_f64(secs));
            }
            "--trace-dump" => {
                trace_dump = Some(flag_value("serve", "--trace-dump", &mut it)?.to_string());
            }
            other => {
                return Err(SsgError::Usage(format!("serve: unknown flag '{other}'")));
            }
        }
    }

    // Serve always flies with the recorder on: a deadline miss or panic
    // under live traffic is exactly when the span chain matters.
    let metrics = Metrics::with_tracing(SERVE_RECORDER_CAPACITY);
    cfg.metrics = metrics.clone();
    let server = Server::bind(addr.as_str(), cfg)?;
    // Scripts parse this line to learn the ephemeral port; flush so it is
    // visible before the first request lands.
    println!("ssg-serve: listening on {}", server.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| SsgError::io("stdout", &e))?;

    let explicit_dump = trace_dump.is_some();
    let dump_path = trace_dump.unwrap_or_else(|| "ssg-serve.trace.json".to_string());
    let started = std::time::Instant::now();
    let mut dumped: u64 = 0;
    loop {
        std::thread::sleep(Duration::from_millis(100));
        // Any incident (deadline miss, worker panic) auto-dumps the flight
        // recorder while the evidence is still in the ring.
        if let Some(recorder) = metrics.recorder() {
            let incidents = recorder.incident_count();
            if incidents > dumped {
                std::fs::write(&dump_path, recorder.to_json().render_pretty())
                    .map_err(|e| SsgError::io(&dump_path, &e))?;
                eprintln!(
                    "ssg-serve: wrote flight-recorder dump ({incidents} incident(s)) to {dump_path}"
                );
                dumped = incidents;
            }
        }
        if server.shutdown_requested() {
            eprintln!("ssg-serve: shutdown requested, draining");
            break;
        }
        if let Some(d) = duration {
            if started.elapsed() >= d {
                eprintln!("ssg-serve: --duration elapsed, draining");
                break;
            }
        }
    }
    let stats = server.shutdown();
    // An explicit --trace-dump always writes a final post-drain dump (the
    // batch semantics), so a traced session yields a server-side file to
    // merge with client exports even when nothing went wrong.
    if explicit_dump {
        if let Some(recorder) = metrics.recorder() {
            std::fs::write(&dump_path, recorder.to_json().render_pretty())
                .map_err(|e| SsgError::io(&dump_path, &e))?;
            eprintln!(
                "ssg-serve: wrote flight-recorder dump ({} event(s)) to {dump_path}",
                recorder.events().len()
            );
        }
    }
    println!(
        "ssg-serve: drained; submitted={} completed={} deadline_misses={} panics={}",
        stats.submitted, stats.completed, stats.deadline_misses, stats.panics
    );
    Ok(0)
}

fn cmd_loadgen(args: &[String]) -> Result<i32, SsgError> {
    let mut cfg = LoadgenConfig::default();
    let mut format = OutputFormat::Text;
    let mut trace_export: Option<String> = None;
    let mut trace_dump: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = flag_value("loadgen", "--addr", &mut it)?.to_string(),
            "--rps" => cfg.rps = parse_flag("loadgen", "--rps", &mut it)?,
            "--duration" => {
                let secs: f64 = parse_flag("loadgen", "--duration", &mut it)?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(SsgError::Usage(
                        "loadgen: --duration needs > 0 seconds".into(),
                    ));
                }
                cfg.duration = Duration::from_secs_f64(secs);
            }
            "--conns" => {
                let c: usize = parse_flag("loadgen", "--conns", &mut it)?;
                if c < 1 {
                    return Err(SsgError::Usage("loadgen: --conns needs >= 1".into()));
                }
                cfg.conns = c;
            }
            "--workload" => {
                let token = flag_value("loadgen", "--workload", &mut it)?;
                cfg.spec.workload = Workload::parse(token).ok_or_else(|| {
                    SsgError::Usage(format!(
                        "loadgen: unknown workload `{token}` (corridor|platoon|backbone)"
                    ))
                })?;
            }
            "--n" => {
                let n: usize = parse_flag("loadgen", "--n", &mut it)?;
                if n < 1 {
                    return Err(SsgError::Usage("loadgen: --n needs >= 1".into()));
                }
                cfg.spec.n = n;
            }
            "--seed" => cfg.spec.seed = parse_flag("loadgen", "--seed", &mut it)?,
            "--sep" => {
                let spec = flag_value("loadgen", "--sep", &mut it)?;
                cfg.spec.sep = parse_separations("loadgen", spec)?;
            }
            "--solver" => {
                cfg.spec.solver = Some(flag_value("loadgen", "--solver", &mut it)?.to_string());
            }
            "--deadline-ms" => {
                cfg.spec.deadline_ms = Some(parse_flag("loadgen", "--deadline-ms", &mut it)?);
            }
            "--timeout-ms" => {
                let ms: u64 = parse_flag("loadgen", "--timeout-ms", &mut it)?;
                cfg.timeout = Duration::from_millis(ms);
            }
            "--drain" => cfg.drain = true,
            "--format" => format = parse_format("loadgen", &mut it)?,
            "--trace-export" => {
                trace_export = Some(flag_value("loadgen", "--trace-export", &mut it)?.to_string());
            }
            "--trace-dump" => {
                trace_dump = Some(flag_value("loadgen", "--trace-dump", &mut it)?.to_string());
            }
            other => {
                return Err(SsgError::Usage(format!("loadgen: unknown flag '{other}'")));
            }
        }
    }
    // Either trace flag turns on the client-side recorder, which also
    // makes every request carry a wire-propagated trace context.
    if trace_export.is_some() || trace_dump.is_some() {
        cfg.metrics = Metrics::with_tracing(SERVE_RECORDER_CAPACITY);
    }
    let report = run_loadgen(&cfg)?;
    if let Some(recorder) = cfg.metrics.recorder() {
        if let Some(path) = &trace_dump {
            std::fs::write(path, recorder.to_json().render_pretty())
                .map_err(|e| SsgError::io(path.as_str(), &e))?;
            eprintln!("trace: wrote flight-recorder dump to {path}");
        }
        if let Some(path) = &trace_export {
            let dump = TraceDump::from_json(&recorder.to_json())
                .map_err(|e| SsgError::parse(path.as_str(), e))?;
            let doc = export::chrome_trace(&[("client", &dump)]);
            std::fs::write(path, doc.render_pretty())
                .map_err(|e| SsgError::io(path.as_str(), &e))?;
            eprintln!(
                "trace: wrote trace-event export ({} event(s)) to {path}",
                dump.events.len()
            );
        }
    }
    if format == OutputFormat::Json {
        print!("{}", report.to_json().render_pretty());
    } else {
        print!("{}", report.to_text());
    }
    // A run that couldn't speak the protocol, or never completed anything,
    // failed even if the report printed.
    Ok(
        if report.protocol_errors > 0 || (report.ok + report.server_errors) == 0 {
            1
        } else {
            0
        },
    )
}

/// `ssg fetch <addr> <path> [--post BODY] [--trace-id HEX] [--trace-dump
/// <path>] [--trace-export <path>]` — one HTTP request against a front
/// door, body to stdout. The hermetic substitute for `curl` in
/// scripts/verify.sh. `--trace-id` propagates the given trace id to the
/// server via `X-Ssg-Trace` and records a local `client.request` span
/// around the exchange; `--trace-dump` writes that recorder's raw
/// `ssg-trace/v1` JSON and `--trace-export` its Chrome trace-event form.
fn cmd_fetch(args: &[String]) -> Result<i32, SsgError> {
    let usage = || {
        SsgError::Usage(
            "ssg fetch <addr> <path> [--post BODY] [--trace-id HEX] \
             [--trace-dump <path>] [--trace-export <path>]"
                .into(),
        )
    };
    let (addr, path) = match (args.first(), args.get(1)) {
        (Some(a), Some(p)) if !p.starts_with("--") => (a.as_str(), p.as_str()),
        _ => return Err(usage()),
    };
    let mut post: Option<String> = None;
    let mut trace_id: Option<u64> = None;
    let mut trace_dump: Option<String> = None;
    let mut trace_export: Option<String> = None;
    let mut it = args[2..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--post" => post = Some(flag_value("fetch", "--post", &mut it)?.to_string()),
            "--trace-id" => {
                let raw = flag_value("fetch", "--trace-id", &mut it)?;
                let id = u64::from_str_radix(raw, 16)
                    .map_err(|_| SsgError::Usage(format!("fetch: bad --trace-id `{raw}`")))?;
                if id == 0 {
                    return Err(SsgError::Usage("fetch: --trace-id must be nonzero".into()));
                }
                trace_id = Some(id);
            }
            "--trace-dump" => {
                trace_dump = Some(flag_value("fetch", "--trace-dump", &mut it)?.to_string());
            }
            "--trace-export" => {
                trace_export = Some(flag_value("fetch", "--trace-export", &mut it)?.to_string());
            }
            _ => return Err(usage()),
        }
    }

    // A traced fetch records its one client.request span locally, so the
    // dump can later be merged with (or checked against) the server's.
    let recorder = trace_id.map(|_| FlightRecorder::new(64));
    let span_id = recorder.as_ref().map_or(0, FlightRecorder::next_span_id);
    let trace_header = trace_id
        .map(|tid| format!("X-Ssg-Trace: {tid:016x}/{span_id:016x}\r\n"))
        .unwrap_or_default();
    let request = match &post {
        Some(body) => format!(
            "POST {path} HTTP/1.1\r\nHost: {addr}\r\n{trace_header}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
        None => {
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n{trace_header}Connection: close\r\n\r\n")
        }
    };

    let start = std::time::Instant::now();
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| SsgError::io(addr, &e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| SsgError::io(addr, &e))?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| SsgError::io(addr, &e))?;
    let mut raw = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut raw).map_err(|e| SsgError::io(addr, &e))?;
    if let (Some(rec), Some(tid)) = (&recorder, trace_id) {
        rec.record(strongly_simplicial::telemetry::SpanEvent {
            trace_id: tid,
            span_id,
            parent_id: 0,
            name: "client.request",
            kind: strongly_simplicial::telemetry::EventKind::Span,
            start_ns: rec.instant_ns(start),
            end_ns: rec.now_ns(),
        });
        if let Some(dump_path) = &trace_dump {
            std::fs::write(dump_path, rec.to_json().render_pretty())
                .map_err(|e| SsgError::io(dump_path.as_str(), &e))?;
        }
        if let Some(export_path) = &trace_export {
            let dump = TraceDump::from_json(&rec.to_json())
                .map_err(|e| SsgError::parse(export_path.as_str(), e))?;
            let doc = export::chrome_trace(&[("client", &dump)]);
            std::fs::write(export_path, doc.render_pretty())
                .map_err(|e| SsgError::io(export_path.as_str(), &e))?;
        }
    }
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| SsgError::parse(addr, "malformed HTTP response (no header break)"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SsgError::parse(addr, format!("bad status line `{status_line}`")))?;
    print!("{body}");
    if status == 200 {
        Ok(0)
    } else {
        eprintln!("fetch: {addr}{path} answered {status_line}");
        Ok(1)
    }
}

// ---------------------------------------------------------------------------
// trace / profile
// ---------------------------------------------------------------------------

const TRACE_USAGE: &str = "ssg trace export <dump.json> [--merge <dump2.json>] [-o <path>] | \
                           ssg trace check <trace.json> [--expect-trace HEX]";

/// Reads and re-parses one `ssg-trace/v1` flight-recorder dump file.
fn read_trace_dump(path: &str) -> Result<TraceDump, SsgError> {
    let doc = read_json_file(path)?;
    TraceDump::from_json(&doc).map_err(|e| SsgError::parse(path, e))
}

/// `ssg trace export|check` — trace-event tooling over recorder dumps.
fn cmd_trace(args: &[String]) -> Result<i32, SsgError> {
    let usage = || SsgError::Usage(TRACE_USAGE.into());
    match args.first().map(String::as_str) {
        Some("export") => {
            let mut positional: Vec<&String> = Vec::new();
            let mut merge: Option<String> = None;
            let mut out: Option<String> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--merge" => {
                        merge = Some(flag_value("trace export", "--merge", &mut it)?.to_string());
                    }
                    "-o" => out = Some(flag_value("trace export", "-o", &mut it)?.to_string()),
                    other if other.starts_with('-') => return Err(usage()),
                    _ => positional.push(arg),
                }
            }
            let dump_path = positional.first().ok_or_else(usage)?;
            if positional.len() > 1 {
                return Err(usage());
            }
            let dump = read_trace_dump(dump_path)?;
            let doc = match &merge {
                // The first dump is the client timebase; the merged dump is
                // shifted onto it.
                Some(server_path) => {
                    let server = read_trace_dump(server_path)?;
                    export::merged_chrome_trace(&dump, &server)
                }
                None => export::chrome_trace(&[("dump", &dump)]),
            };
            match out {
                Some(path) => {
                    std::fs::write(&path, doc.render_pretty())
                        .map_err(|e| SsgError::io(&path, &e))?;
                    eprintln!("trace: wrote trace-event export to {path}");
                }
                None => print!("{}", doc.render_pretty()),
            }
            Ok(0)
        }
        Some("check") => {
            let mut positional: Vec<&String> = Vec::new();
            let mut expect: Option<String> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--expect-trace" => {
                        let raw = flag_value("trace check", "--expect-trace", &mut it)?;
                        let id = u64::from_str_radix(raw, 16).map_err(|_| {
                            SsgError::Usage(format!("trace check: bad --expect-trace `{raw}`"))
                        })?;
                        expect = Some(format!("{id:016x}"));
                    }
                    other if other.starts_with('-') => return Err(usage()),
                    _ => positional.push(arg),
                }
            }
            let path = positional.first().ok_or_else(usage)?;
            if positional.len() > 1 {
                return Err(usage());
            }
            check_trace_events(path, expect.as_deref())
        }
        _ => Err(usage()),
    }
}

/// The `ssg trace check` gate: every `B` on a (pid, tid) lane must be
/// closed by a matching same-name `E` in stack order, and (optionally) the
/// expected trace id must tag at least one span. Prints a one-line verdict;
/// exit 1 on any violation.
fn check_trace_events(path: &str, expect_trace: Option<&str>) -> Result<i32, SsgError> {
    let doc = read_json_file(path)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| SsgError::parse(path, "missing traceEvents array"))?;
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> =
        std::collections::BTreeMap::new();
    let mut spans = 0usize;
    let mut expect_seen = expect_trace.is_none();
    for (i, e) in events.iter().enumerate() {
        let field_str = |k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
        let ph = field_str("ph")
            .ok_or_else(|| SsgError::parse(path, format!("event {i}: missing ph")))?;
        if ph == "M" {
            continue;
        }
        let name = field_str("name")
            .ok_or_else(|| SsgError::parse(path, format!("event {i}: missing name")))?;
        let lane = (
            e.get("pid").and_then(Json::as_u64).unwrap_or(0),
            e.get("tid").and_then(Json::as_u64).unwrap_or(0),
        );
        if let Some(want) = expect_trace {
            let tagged = matches!(
                e.get("args").and_then(|a| a.get("trace_id")).and_then(Json::as_str),
                Some(got) if got == want
            );
            if tagged && ph == "B" {
                expect_seen = true;
            }
        }
        match ph.as_str() {
            "B" => {
                spans += 1;
                stacks.entry(lane).or_default().push(name);
            }
            "E" => match stacks.entry(lane).or_default().pop() {
                Some(open) if open == name => {}
                Some(open) => {
                    eprintln!("trace check: {path}: E `{name}` closes B `{open}` (event {i})");
                    return Ok(1);
                }
                None => {
                    eprintln!("trace check: {path}: E `{name}` with no open B (event {i})");
                    return Ok(1);
                }
            },
            "i" => {}
            other => {
                eprintln!("trace check: {path}: unexpected phase `{other}` (event {i})");
                return Ok(1);
            }
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            eprintln!("trace check: {path}: unclosed B `{open}` on lane {pid}/{tid}");
            return Ok(1);
        }
    }
    if !expect_seen {
        eprintln!(
            "trace check: {path}: expected trace id {} not found on any span",
            expect_trace.unwrap_or("?")
        );
        return Ok(1);
    }
    println!(
        "trace check: {path}: {} span pair(s) matched{}",
        spans,
        expect_trace.map_or(String::new(), |t| format!(", trace {t} present"))
    );
    Ok(0)
}

/// `ssg profile <dump.json> [--format text|json]` — fold a flight-recorder
/// dump into the `ssg-profile/v1` self-time call tree.
fn cmd_profile(args: &[String]) -> Result<i32, SsgError> {
    let usage = || SsgError::Usage("ssg profile <dump.json> [--format text|json]".into());
    let path = args.first().ok_or_else(usage)?;
    if path.starts_with("--") {
        return Err(usage());
    }
    let mut format = OutputFormat::Text;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => format = parse_format("profile", &mut it)?,
            _ => return Err(usage()),
        }
    }
    let dump = read_trace_dump(path)?;
    let profile = Profile::from_dump(&dump);
    match format {
        OutputFormat::Text => print!("{}", profile.to_text()),
        OutputFormat::Json => print!("{}", profile.to_json().render_pretty()),
    }
    Ok(0)
}
