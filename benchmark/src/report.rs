//! The result of one benchmark run and its printed form.

use ssg_telemetry::json::Json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Requests (or epochs) whose output was checked.
    pub attempted: u64,
    /// Checks that failed, with the first few reasons.
    pub failed: u64,
    /// Reasons for the first failures (capped).
    pub failures: Vec<String>,
    /// The reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Ungated observations printed above the result line.
    pub notes: Vec<String>,
}

/// Failure reasons kept for the report; the count is always exact.
const MAX_REASONS: usize = 8;

impl RunReport {
    /// Records one checked output.
    pub fn check<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(reason) => {
                self.fail(reason);
                None
            }
        }
    }

    /// Records a failure of an output already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < MAX_REASONS {
            self.failures.push(reason);
        }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::U64(self.attempted)),
            ("failed".into(), Json::U64(self.failed)),
            (
                "metrics".into(),
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::Object(vec![
                                    ("value".into(), Json::F64(m.value)),
                                    ("unit".into(), Json::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable lines: notes, failures, then one line per metric.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        for reason in &self.failures {
            out.push_str(&format!("# FAILED: {reason}\n"));
        }
        out.push_str(&format!(
            "# checked {} output(s), {} failed\n",
            self.attempted, self.failed
        ));
        for m in &self.metrics {
            out.push_str(&format!("{} = {} {}\n", m.name, m.value, m.unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunReport::default();
        r.check::<()>(Ok(()));
        r.metric("p50_ms", 1.25, "ms");
        let line = r.to_json().render();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"p50_ms":{"value":1.25,"unit":"ms"}}}"#
        );
        r.check::<()>(Err("bad".into()));
        assert!(!r.correct());
        assert!(r.to_text().contains("FAILED: bad"));
        // Nothing attempted is not a correct run.
        assert!(!RunReport::default().correct());
    }
}
