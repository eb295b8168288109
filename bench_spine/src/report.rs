//! Metric collection and the two output forms: one human-readable line
//! per metric (name, value, unit, sample count) and the single JSON
//! object the driver reads from the last line of standard output.

use std::collections::BTreeMap;

use crate::json::{escape, Json};

/// The contract this benchmark is written to, compiled in so the names,
/// units and bounds have one source of truth.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Contract {
    pub fn load() -> Contract {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let specs = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| MetricSpec {
                    name: m.get("name").and_then(Json::as_str).expect("name").into(),
                    unit: m.get("unit").and_then(Json::as_str).expect("unit").into(),
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Contract {
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|w| w.get("name").and_then(Json::as_str).expect("name").into())
                .collect(),
            end_to_end: specs("end_to_end"),
            per_layer: specs("per_layer"),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// How many timed samples (or counted events) the value rests on.
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// Contract metrics, by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Context and workload-specific figures printed for the reader
    /// but not part of the contract (seed, node counts, op counts, …).
    pub notes: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        let previous = self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
        assert!(previous.is_none(), "metric {name} reported twice");
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Count one checked operation; `Err` carries what went wrong.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Check the run reported exactly the metrics the contract lists
    /// for this mode, with the units it lists.
    pub fn conforms_to(&self, specs: &[MetricSpec]) -> Result<(), String> {
        for spec in specs {
            match self.metrics.get(&spec.name) {
                None => return Err(format!("metric {} was not measured", spec.name)),
                Some(m) if m.unit != spec.unit => {
                    return Err(format!(
                        "metric {} has unit {} but BENCHMARK.json says {}",
                        spec.name, m.unit, spec.unit
                    ))
                }
                Some(m) if !m.value.is_finite() => {
                    return Err(format!("metric {} is {}", spec.name, m.value))
                }
                Some(_) => {}
            }
        }
        match self
            .metrics
            .keys()
            .find(|name| specs.iter().all(|s| s.name != **name))
        {
            Some(extra) => Err(format!("metric {extra} is not in BENCHMARK.json")),
            None => Ok(()),
        }
    }

    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.notes {
            out.push_str(&format!("# {key}: {value}\n"));
        }
        for (name, m) in &self.metrics {
            out.push_str(&format!(
                "{name:<44} {:>16.4} {:<6} n={}\n",
                m.value, m.unit, m.samples
            ));
        }
        out.push_str(&format!(
            "# attempted {} failed {} failed_ratio {}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        for why in &self.failures {
            out.push_str(&format!("# FAILED: {why}\n"));
        }
        out
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(name),
                    m.value,
                    escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_is_well_formed() {
        let c = Contract::load();
        assert_eq!(c.workloads.len(), 6);
        assert!(c.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1..=128).contains(&c.per_layer.len()));
    }

    #[test]
    fn result_line_round_trips() {
        let mut r = Report::default();
        r.set("latency_ms", 1.2034, "ms", 10);
        r.check(Ok(()));
        let doc = Json::parse(&r.render_json()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(1.0));
        let m = doc.get("metrics").unwrap().get("latency_ms").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        r.check(Err("boom".into()));
        assert!(!r.correct());
    }
}
