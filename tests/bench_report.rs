//! Schema tests for the `ssg-bench/v2` run report.
//!
//! * A **golden-file** test pins the rendered JSON of a fixed synthetic
//!   report byte-for-byte against `tests/golden/bench_report.json`, so any
//!   schema drift (key order, key names, number formatting) fails loudly.
//! * A **round-trip** test runs a real (tiny) benchmark, renders it, and
//!   re-parses the JSON with the minimal parser below, checking that the
//!   emitted document is valid JSON carrying the advertised fields.

use strongly_simplicial::bench::{
    run_benchmarks, AlgorithmBench, BenchConfig, BenchReport, IncrementalBench,
};
use strongly_simplicial::telemetry::{Counter, HistSnapshot, Histogram, Metrics, Snapshot};

/// A deterministic solve-time distribution from fixed observations.
fn fixed_hist(values: &[u64]) -> HistSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// A synthetic report with fixed numbers (no timing, no RNG) for the golden
/// comparison.
fn synthetic_report() -> BenchReport {
    let m = Metrics::enabled();
    m.add(Counter::PeelSteps, 12);
    m.add(Counter::PaletteProbes, 34);
    m.add(Counter::BfsNodeVisits, 5);
    BenchReport {
        config: BenchConfig::default().n(12).reps(2).seed(9).repeat(1),
        algorithms: vec![
            AlgorithmBench {
                id: "A1",
                name: "interval_l1",
                workload: "synthetic",
                params: vec![("t", 2)],
                n: 12,
                span: 4,
                wall_ns: vec![1500, 1200],
                warm_wall_ns: Vec::new(),
                counters: m.snapshot(),
                warm_counters: None,
                solve_hist: fixed_hist(&[1500, 1200]),
            },
            AlgorithmBench {
                id: "A4",
                name: "tree_l1",
                workload: "synthetic",
                params: vec![("t", 3)],
                n: 12,
                span: 6,
                wall_ns: vec![2000, 2500],
                warm_wall_ns: Vec::new(),
                counters: Snapshot::default(),
                warm_counters: None,
                solve_hist: fixed_hist(&[2000, 2500]),
            },
        ],
        engine: None,
        incremental: Some(IncrementalBench {
            stations: 240,
            epochs: 12,
            churn: 0.05,
            full_epoch_p50_ns: 8000,
            incremental_epoch_p50_ns: 1000,
            speedup_p50: 8.0,
            spans_match: true,
            span_sum: 96,
            full_resolves: 1,
            dirty_low_churn: 40,
            dirty_high_churn: 200,
        }),
    }
}

#[test]
fn golden_file_matches_rendered_schema() {
    let rendered = synthetic_report().to_json().render_pretty();
    if std::env::var_os("SSG_UPDATE_GOLDEN").is_some() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/bench_report.json"),
            &rendered,
        )
        .unwrap();
    }
    let golden = include_str!("golden/bench_report.json");
    assert_eq!(
        rendered, golden,
        "ssg-bench/v2 schema drifted; if intentional, update \
         tests/golden/bench_report.json and bump the schema version"
    );
}

#[test]
fn real_report_round_trips_through_json() {
    let cfg = BenchConfig::default().n(60).reps(2).seed(3).repeat(2);
    let report = run_benchmarks(&cfg);
    let text = report.to_json().render();
    let value = parse(&text).expect("bench report must be valid JSON");

    assert_eq!(value.get("schema").unwrap().as_str(), Some("ssg-bench/v2"));
    let config = value.get("config").unwrap();
    assert_eq!(config.get("n").unwrap().as_u64(), Some(60));
    assert_eq!(config.get("reps").unwrap().as_u64(), Some(2));
    assert_eq!(config.get("seed").unwrap().as_u64(), Some(3));

    let algorithms = value.get("algorithms").unwrap().as_array().unwrap();
    assert_eq!(algorithms.len(), 5);
    for (parsed, original) in algorithms.iter().zip(&report.algorithms) {
        assert_eq!(parsed.get("id").unwrap().as_str(), Some(original.id));
        assert_eq!(
            parsed.get("span").unwrap().as_u64(),
            Some(original.span as u64)
        );
        let wall = parsed.get("wall_ns").unwrap().as_array().unwrap();
        assert_eq!(wall.len(), cfg.reps);
        let counters = parsed.get("counters").unwrap();
        for c in Counter::ALL {
            assert_eq!(
                counters.get(c.name()).unwrap().as_u64(),
                Some(original.counters.counter(c)),
                "{} {}",
                original.id,
                c.name()
            );
        }
        // repeat = 2: one warm solve per rep, reported separately from the
        // cold path and carrying the reuse counter.
        let warm = parsed.get("warm_wall_ns").unwrap().as_array().unwrap();
        assert_eq!(warm.len(), cfg.reps * (cfg.repeat - 1));
        let warm_counters = parsed.get("warm_counters").unwrap();
        assert_eq!(
            warm_counters
                .get(Counter::WorkspaceReuses.name())
                .unwrap()
                .as_u64(),
            Some(1),
            "{}: warm solves run on a reused workspace",
            original.id
        );
        assert_eq!(
            counters.get(Counter::WorkspaceReuses.name()).unwrap().as_u64(),
            Some(0),
            "{}: cold solves never reuse",
            original.id
        );
    }

    // v2: latency-histogram summaries for every algorithm plus the engine's
    // queue-wait and end-to-end distributions.
    let histograms = value.get("histograms").unwrap();
    let solver = histograms.get("solver_solve").unwrap();
    for original in &report.algorithms {
        let row = solver.get(original.id).unwrap();
        assert_eq!(
            row.get("count").unwrap().as_u64(),
            Some(original.solve_hist.count()),
            "{}",
            original.id
        );
        assert_eq!(
            row.get("p99").unwrap().as_u64(),
            Some(original.solve_hist.p99()),
            "{}",
            original.id
        );
    }
    for section in ["queue_wait", "request_latency"] {
        let count = histograms
            .get(section)
            .and_then(|s| s.get("count"))
            .and_then(|c| c.as_u64())
            .unwrap();
        assert!(count > 0, "{section} must carry observations");
    }

    // The engine scaling section rides along on every real run.
    let engine = value.get("engine").unwrap();
    let expected = report.engine.as_ref().unwrap();
    assert_eq!(
        engine.get("requests").unwrap().as_u64(),
        Some(expected.requests as u64)
    );
    let rows = engine.get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), expected.rows.len());
    for (parsed, original) in rows.iter().zip(&expected.rows) {
        assert_eq!(
            parsed.get("workers").unwrap().as_u64(),
            Some(original.workers as u64)
        );
        assert_eq!(
            parsed.get("wall_ns").unwrap().as_u64(),
            Some(original.wall_ns)
        );
        assert_eq!(
            parsed.get("wall_ns_min").unwrap().as_u64(),
            Some(original.wall_ns_min)
        );
        assert_eq!(
            parsed.get("wall_ns_max").unwrap().as_u64(),
            Some(original.wall_ns_max)
        );
        assert_eq!(
            parsed.get("oversubscribed"),
            Some(&Value::Bool(original.oversubscribed))
        );
    }

    // The incremental churn section rides along too, with its span
    // equality flag and deterministic span_sum intact.
    let inc = value.get("incremental").unwrap();
    let expected = report.incremental.as_ref().unwrap();
    assert_eq!(
        inc.get("stations").unwrap().as_u64(),
        Some(expected.stations as u64)
    );
    assert_eq!(inc.get("span_sum").unwrap().as_u64(), Some(expected.span_sum));
    assert_eq!(inc.get("spans_match"), Some(&Value::Bool(expected.spans_match)));
    assert!(expected.spans_match, "incremental spans must match from-scratch");

}

#[test]
fn compact_and_pretty_renders_parse_identically() {
    let report = synthetic_report();
    let compact = parse(&report.to_json().render()).unwrap();
    let pretty = parse(&report.to_json().render_pretty()).unwrap();
    assert_eq!(compact, pretty);
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser, local to this test so the round
// trip is checked by code independent of the writer under test.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
            _ => None,
        }
    }
    fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
}

fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at {}", ch as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5])
                            .map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                let len = utf8_len(c);
                out.push_str(
                    std::str::from_utf8(&b[*pos..*pos + len]).map_err(|_| "bad utf8")?,
                );
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        pairs.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at {pos}")),
        }
    }
}
