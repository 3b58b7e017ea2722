//! Medians, quartiles and bound checks over saved run results — the
//! `run.sh repeat` and `run.sh compare` reports.
//!
//! A result directory holds one `<workload>.jsonl` file per workload, one
//! result line per run. The bounds come from `BENCHMARK.json`.

use crate::stats;
use ssg_telemetry::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::Path;

/// One gated end-to-end metric from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the reports use.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end gates.
    pub gates: Vec<Gate>,
}

/// Reads `BENCHMARK.json`.
pub fn load_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |v: &Json, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{}: missing string `{key}`", path.display()))
    };
    let array = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{}: missing array `{key}`", path.display()))
    };
    let workloads = array("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect::<Result<_, _>>()?;
    let gates = array("end_to_end")?
        .iter()
        .map(|g| {
            Ok(Gate {
                name: field(g, "name")?,
                lower_is_better: field(g, "better")? == "lower",
                bound: g
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: gate without a bound", path.display()))?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec { workloads, gates })
}

/// Values per metric over every run of one workload, plus the number of
/// runs that failed a correctness check.
#[derive(Debug, Default)]
pub struct Runs {
    /// Metric name → one value per run.
    pub values: BTreeMap<String, Vec<f64>>,
    /// Runs whose result line says `"correct": false`.
    pub incorrect: usize,
}

/// Reads `<dir>/<workload>.jsonl`.
pub fn load_runs(dir: &Path, workload: &str) -> Result<Runs, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("correct") != Some(&Json::Bool(true)) {
            runs.incorrect += 1;
        }
        if let Some(Json::Object(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    runs.values.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(runs)
}

/// Median, quartiles and relative spread of one metric's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of runs.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes at least two values.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = stats::quartiles(values);
        Summary {
            n: values.len(),
            median: stats::median(values),
            q1,
            q3,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when better).
pub fn worsening(gate: &Gate, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let delta = if gate.lower_is_better {
        new - base
    } else {
        base - new
    };
    delta / base.abs()
}

/// The `repeat` report: per (workload, metric) median and quartiles. A
/// gated metric other than `setup_s` whose spread is a third of its bound
/// or more is marked `UNSTEADY`.
pub fn summarize(dir: &Path, spec: &Spec) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<9} {:<34} {:>3} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for w in &spec.workloads {
        let runs = load_runs(dir, w)?;
        if runs.incorrect > 0 {
            let _ = writeln!(
                out,
                "{w}: {} run(s) failed a correctness check",
                runs.incorrect
            );
        }
        for (name, values) in &runs.values {
            if values.len() < 2 {
                continue;
            }
            let s = Summary::of(values);
            let gate = spec.gates.iter().find(|g| &g.name == name);
            let bound = gate.map_or(String::from("-"), |g| format!("{:.3}", g.bound));
            let flag = match gate {
                Some(g) if g.name != "setup_s" && s.spread() >= g.bound / 3.0 => "  UNSTEADY",
                _ => "",
            };
            let _ = writeln!(
                out,
                "{w:<9} {name:<34} {:>3} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {bound:>6}{flag}",
                s.n,
                s.median,
                s.q1,
                s.q3,
                s.spread()
            );
        }
    }
    Ok(out)
}

/// The `compare` report of result directory `new` against `base`. Returns
/// the report and whether any gated metric regressed past its bound.
pub fn compare(base: &Path, new: &Path, spec: &Spec) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<9} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "base median", "new median", "worse by", "bound"
    );
    for w in &spec.workloads {
        let (a, b) = (load_runs(base, w)?, load_runs(new, w)?);
        if b.incorrect > a.incorrect {
            regressed = true;
            let _ = writeln!(out, "{w}: {} incorrect run(s) in the new set", b.incorrect);
        }
        for gate in &spec.gates {
            let (Some(va), Some(vb)) = (a.values.get(&gate.name), b.values.get(&gate.name)) else {
                regressed = true;
                let _ = writeln!(out, "{w:<9} {:<14} missing in one of the sets", gate.name);
                continue;
            };
            if va.len() < 2 || vb.len() < 2 {
                return Err(format!("{w}/{}: need at least two runs per set", gate.name));
            }
            let (sa, sb) = (Summary::of(va), Summary::of(vb));
            let worse = worsening(gate, sa.median, sb.median);
            let all_better = vb
                .iter()
                .all(|&y| va.iter().all(|&x| worsening(gate, x, y) < 0.0));
            let verdict = if worse > gate.bound {
                regressed = true;
                "REGRESSION"
            } else if gate.name != "setup_s"
                && sa.spread().max(sb.spread()) > gate.bound
                && !all_better
            {
                "unresolved (spread wider than bound)"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{w:<9} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>5.1}%  {verdict}",
                gate.name,
                sa.median,
                sb.median,
                worse * 100.0,
                gate.bound * 100.0
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(lower: bool, bound: f64) -> Gate {
        Gate {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(&gate(true, 0.1), 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&gate(false, 0.1), 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&gate(false, 0.1), 10.0, 11.0) < 0.0);
    }

    #[test]
    fn compare_flags_a_regression_past_the_bound() {
        let dir = std::env::temp_dir().join(format!("ssg-bench-summary-{}", std::process::id()));
        let (a, b) = (dir.join("a"), dir.join("b"));
        for d in [&a, &b] {
            std::fs::create_dir_all(d).unwrap();
        }
        let line = |v: f64| {
            format!(
                r#"{{"correct":true,"attempted":1,"failed":0,"metrics":{{"p50_ms":{{"value":{v},"unit":"ms"}}}}}}"#
            )
        };
        let write = |d: &Path, vals: &[f64]| {
            let text: Vec<String> = vals.iter().map(|&v| line(v)).collect();
            std::fs::write(d.join("w.jsonl"), text.join("\n")).unwrap();
        };
        let spec = Spec {
            workloads: vec!["w".into()],
            gates: vec![Gate {
                name: "p50_ms".into(),
                lower_is_better: true,
                bound: 0.05,
            }],
        };
        write(&a, &[1.0, 1.01, 0.99, 1.0]);
        write(&b, &[1.02, 1.03, 1.01, 1.02]);
        let (report, regressed) = compare(&a, &b, &spec).unwrap();
        assert!(!regressed, "{report}");
        write(&b, &[1.2, 1.21, 1.19, 1.2]);
        let (report, regressed) = compare(&a, &b, &spec).unwrap();
        assert!(regressed && report.contains("REGRESSION"), "{report}");
        assert!(summarize(&a, &spec).unwrap().contains("p50_ms"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
