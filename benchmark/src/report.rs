//! What the benchmark prints and writes: the per-run metric table, the
//! driver's final JSON line, and `out/results.json` of a full set.

use crate::spec::{Metric, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, relative_spread};
use dust_bench::json::{escape, number};
use std::collections::BTreeMap;

pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run (untraced or traced) of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Samples behind each timing metric, where it has any.
    pub samples: BTreeMap<&'static str, usize>,
    /// Requests sent and checks made on their answers.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Every metric of `specs` by name with its unit, or the first one missing.
pub fn print_table(
    title: &str,
    specs: &[Metric],
    metrics: &Metrics,
    samples: &BTreeMap<&'static str, usize>,
) -> Result<(), String> {
    println!("== {title}");
    println!(
        "{:<32} {:>16} {:<6} {:>6}  {:<6} bound",
        "metric", "value", "unit", "n", "better"
    );
    for spec in specs {
        let value = metrics
            .get(spec.name)
            .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
        println!(
            "{:<32} {:>16.4} {:<6} {:>6}  {:<6} {}",
            spec.name,
            value,
            spec.unit,
            samples
                .get(spec.name)
                .map_or("-".to_string(), |n| n.to_string()),
            spec.better.as_str(),
            spec.bound
                .map_or("-".to_string(), |b| format!("{:.0} %", b * 100.0)),
        );
    }
    Ok(())
}

fn metrics_object(specs: &[Metric], metrics: &Metrics) -> String {
    let fields: Vec<String> = specs
        .iter()
        .map(|spec| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                spec.name,
                number(metrics[spec.name]),
                spec.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The last line of a driver run's standard output.
pub fn final_line(specs: &[Metric], metrics: &Metrics, attempted: u64, failed: u64) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_object(specs, metrics)
    )
}

/// One repeat (untraced + traced) of one workload inside a full set.
#[derive(Debug, Default)]
pub struct Repeat {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// The repeats of a `--repeat K` set, by workload.
#[derive(Debug, Default)]
pub struct Suite {
    pub seed: u64,
    pub seconds: f64,
    pub repeats: BTreeMap<&'static str, Vec<Repeat>>,
}

impl Suite {
    fn values(repeats: &[Repeat], name: &str, pick: fn(&Repeat) -> &Metrics) -> Vec<f64> {
        repeats.iter().map(|p| pick(p)[name]).collect()
    }

    /// Hold the set against the benchmark's own rules: every end-to-end
    /// metric's spread over the repeats within its bound, every
    /// count-type per-layer metric identical on every repeat. Prints one
    /// line per metric × workload and returns the violations.
    pub fn check_repeats(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for (workload, repeats) in &self.repeats {
            if repeats.len() < 2 {
                continue;
            }
            println!(
                "== {workload}: spread over {} repeats against the bound",
                repeats.len()
            );
            for spec in &END_TO_END {
                let values = Self::values(repeats, spec.name, |r| &r.end_to_end);
                let (spread, bound) = (relative_spread(&values), spec.bound.unwrap_or(0.0));
                let verdict = if spread <= bound { "ok" } else { "EXCEEDED" };
                println!(
                    "{:<32} median {:>14.4} {:<6} spread {:>6.2} % of bound {:>4.0} %  {verdict}",
                    spec.name,
                    median(&values),
                    spec.unit,
                    spread * 100.0,
                    bound * 100.0
                );
                if spread > bound {
                    violations.push(format!(
                        "{workload} {}: spread {spread:.4} > {bound}",
                        spec.name
                    ));
                }
            }
            for spec in PER_LAYER.iter().filter(|s| s.unit == "count") {
                let values = Self::values(repeats, spec.name, |r| &r.per_layer);
                if values.iter().any(|v| *v != values[0]) {
                    violations.push(format!(
                        "{workload} {}: count varies: {values:?}",
                        spec.name
                    ));
                }
            }
        }
        violations
    }

    /// `out/results.json`: every workload, every metric, every repeat.
    pub fn to_json(&self, workloads: &[Workload]) -> String {
        let section = |repeats: &[Repeat], specs: &[Metric], pick: fn(&Repeat) -> &Metrics| {
            let fields: Vec<String> = specs
                .iter()
                .map(|spec| {
                    let values = Self::values(repeats, spec.name, pick);
                    let listed: Vec<String> = values.iter().map(|v| number(*v)).collect();
                    format!(
                        "\"{}\":{{\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{},\"median\":{},\
                         \"values\":[{}]}}",
                        spec.name,
                        spec.unit,
                        spec.better.as_str(),
                        spec.bound.map_or("null".to_string(), number),
                        number(median(&values)),
                        listed.join(",")
                    )
                })
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let rows: Vec<String> = workloads
            .iter()
            .filter_map(|w| Some((w, self.repeats.get(w.name)?)))
            .map(|(w, repeats)| {
                format!(
                    "\"{}\":{{\"why\":\"{}\",\"attempted\":{},\"failed\":{},\"end_to_end\":{},\
                     \"per_layer\":{}}}",
                    w.name,
                    escape(w.why),
                    repeats.iter().map(|r| r.attempted).sum::<u64>(),
                    repeats.iter().map(|r| r.failed).sum::<u64>(),
                    section(repeats, &END_TO_END, |r| &r.end_to_end),
                    section(repeats, &PER_LAYER, |r| &r.per_layer),
                )
            })
            .collect();
        format!(
            "{{\"seed\":{},\"seconds\":{},\"workloads\":{{{}}}}}\n",
            self.seed,
            number(self.seconds),
            rows.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{RUN_SECONDS, WORKLOADS};
    use dust_bench::json::{self, JsonValue};

    fn keys(value: &JsonValue) -> Vec<String> {
        match value {
            JsonValue::Object(map) => map.keys().cloned().collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn names(manifest: &JsonValue, list: &str) -> Vec<String> {
        let JsonValue::Array(items) = manifest.get(list).expect(list) else {
            panic!("{list} is not a list");
        };
        let mut names: Vec<String> = items
            .iter()
            .map(|item| {
                item.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        names.sort();
        names
    }

    fn filled(specs: &[Metric]) -> Metrics {
        specs.iter().map(|s| (s.name, 1.5)).collect()
    }

    /// `results.json` and the driver's final lines carry exactly the
    /// workload and metric names `BENCHMARK.json` declares, with the same
    /// units, directions and bounds.
    #[test]
    fn results_carry_exactly_the_names_in_the_manifest() {
        let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = json::parse(&std::fs::read_to_string(manifest_path).unwrap()).unwrap();
        let mut suite = Suite::default();
        for w in &WORKLOADS {
            suite.repeats.insert(
                w.name,
                vec![Repeat {
                    end_to_end: filled(&END_TO_END),
                    per_layer: filled(&PER_LAYER),
                    attempted: 1,
                    failed: 0,
                }],
            );
        }
        let results = json::parse(&suite.to_json(&WORKLOADS)).unwrap();
        let workloads = results.get("workloads").unwrap();
        assert_eq!(keys(workloads), names(&manifest, "workloads"));
        for w in &WORKLOADS {
            let row = workloads.get(w.name).unwrap();
            assert_eq!(
                keys(row.get("end_to_end").unwrap()),
                names(&manifest, "end_to_end")
            );
            assert_eq!(
                keys(row.get("per_layer").unwrap()),
                names(&manifest, "per_layer")
            );
        }
        assert_eq!(
            manifest.get("run_seconds").and_then(JsonValue::as_usize),
            Some(RUN_SECONDS as usize)
        );
        for (list, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let JsonValue::Array(items) = manifest.get(list).unwrap() else {
                panic!()
            };
            for (item, spec) in items.iter().zip(specs) {
                let text = |key| item.get(key).and_then(JsonValue::as_str);
                assert_eq!(text("name"), Some(spec.name));
                assert_eq!(text("unit"), Some(spec.unit), "{}", spec.name);
                assert_eq!(text("better"), Some(spec.better.as_str()), "{}", spec.name);
                assert_eq!(
                    item.get("bound").and_then(JsonValue::as_f64),
                    spec.bound,
                    "{}",
                    spec.name
                );
            }
        }
        for (item, w) in match manifest.get("workloads").unwrap() {
            JsonValue::Array(items) => items.iter().zip(&WORKLOADS),
            _ => panic!(),
        } {
            assert_eq!(item.get("why").and_then(JsonValue::as_str), Some(w.why));
        }

        let line = final_line(&END_TO_END, &filled(&END_TO_END), 9, 0);
        let parsed = json::parse(&line).unwrap();
        assert_eq!(keys(&parsed), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            keys(parsed.get("metrics").unwrap()),
            names(&manifest, "end_to_end")
        );
        assert_eq!(parsed.get("correct"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn repeats_are_held_against_bounds_and_counts() {
        let repeat = |setup: f64, spans: f64| {
            let mut p = Repeat {
                end_to_end: filled(&END_TO_END),
                per_layer: filled(&PER_LAYER),
                attempted: 1,
                failed: 0,
            };
            p.end_to_end.insert("setup_s", setup);
            p.per_layer.insert("trace.spans", spans);
            p
        };
        let mut suite = Suite::default();
        suite
            .repeats
            .insert("wide_pre", vec![repeat(1.0, 14.0), repeat(1.1, 14.0)]);
        assert!(suite.check_repeats().is_empty());
        suite
            .repeats
            .insert("wide_ft", vec![repeat(1.0, 14.0), repeat(2.0, 15.0)]);
        let violations = suite.check_repeats();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("setup_s") && violations[1].contains("trace.spans"));
    }
}
