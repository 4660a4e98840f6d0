//! What a run prints: the result line the driver reads, the per-workload
//! report with quartiles and run hygiene, and `compare`, which holds two
//! sets of runs against the bounds in `BENCHMARK.json`.

use crate::stats::{median, spread, summarize};
use crate::trace::NameTotal;
use crate::{Metric, RunConfig, RunOutput};
use serde::{obj_get, Value};
use std::collections::BTreeMap;

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit
    }
}

/// The detail section of one workload's report.
pub struct Detail {
    hygiene: Value,
    entries: Vec<(String, Value)>,
    notes: Vec<Value>,
}

impl Detail {
    /// Start with the run's hygiene record: what was run, on what.
    pub fn new(cfg: &RunConfig, passes: usize) -> Detail {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Detail {
            hygiene: obj(vec![
                ("workload", s(&cfg.workload)),
                ("seed", Value::U64(cfg.seed)),
                ("seconds", Value::F64(cfg.seconds)),
                ("traced", Value::Bool(cfg.trace)),
                ("smoke", Value::Bool(cfg.smoke)),
                ("passes", Value::U64(passes as u64)),
                ("nproc", Value::U64(nproc as u64)),
                ("rustc", s(env!("ODABENCH_RUSTC"))),
                ("git_commit", s(&git_commit())),
                ("features", s("obs")),
                ("debug_assertions", Value::Bool(cfg!(debug_assertions))),
            ]),
            entries: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A sample set: count, quartiles, tail, and the raw values when
    /// they are per-pass (few) rather than per-operation (many).
    pub fn samples(&mut self, name: &str, unit: &str, values: &[f64]) {
        let sum = summarize(values);
        let mut entry = vec![
            ("unit", s(unit)),
            ("n", Value::U64(sum.n as u64)),
            ("median", Value::F64(sum.median)),
            ("q1", Value::F64(sum.q1)),
            ("q3", Value::F64(sum.q3)),
            ("p95", Value::F64(sum.p95)),
            ("p99", Value::F64(sum.p99)),
            ("max", Value::F64(sum.max)),
        ];
        if values.len() <= 64 {
            entry.push((
                "raw",
                Value::Array(values.iter().map(|&v| Value::F64(v)).collect()),
            ));
        }
        self.entries.push((name.to_string(), obj(entry)));
    }

    pub fn number(&mut self, name: &str, value: f64) {
        self.entries.push((name.to_string(), Value::F64(value)));
    }

    pub fn text(&mut self, name: &str, value: &str) {
        self.entries.push((name.to_string(), s(value)));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(Value::Str(note));
    }

    /// The per-layer ledger of the traced pass: span name, calls, total
    /// and self time.
    pub fn layer_table(&mut self, totals: &BTreeMap<&'static str, NameTotal>) {
        let rows = totals
            .iter()
            .map(|(name, t)| {
                obj(vec![
                    ("span", s(name)),
                    ("calls", Value::U64(t.count)),
                    ("total_ms", Value::F64(t.total_ns as f64 / 1e6)),
                    ("self_ms", Value::F64(t.self_ns as f64 / 1e6)),
                ])
            })
            .collect();
        self.entries
            .push(("layers".to_string(), Value::Array(rows)));
    }

    pub fn into_value(self) -> Value {
        let mut entries = vec![("run".to_string(), self.hygiene)];
        entries.extend(self.entries);
        entries.push(("notes".to_string(), Value::Array(self.notes)));
        Value::Object(entries)
    }
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj(vec![("value", Value::F64(m.value)), ("unit", s(m.unit))]),
                )
            })
            .collect(),
    )
}

/// A run is correct when nothing failed and every figure is a number.
pub fn is_correct(out: &RunOutput) -> bool {
    out.tally.failed == 0 && out.metrics.iter().all(|m| m.value.is_finite())
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value tree always serializes")
}

/// Exactly the keys of the driver's result object.
fn result_entries(out: &RunOutput) -> Vec<(&'static str, Value)> {
    vec![
        ("correct", Value::Bool(is_correct(out))),
        ("attempted", Value::U64(out.tally.attempted.max(1))),
        ("failed", Value::U64(out.tally.failed)),
        ("metrics", metrics_value(&out.metrics)),
    ]
}

/// The one-line result the driver reads.
pub fn result_line(out: &RunOutput) -> String {
    render(&obj(result_entries(out)))
}

/// The full per-workload report: the result plus detail and hygiene.
pub fn report_line(cfg: &RunConfig, out: &RunOutput) -> String {
    let mut entries = vec![
        ("workload", s(&cfg.workload)),
        ("seed", Value::U64(cfg.seed)),
    ];
    entries.extend(result_entries(out));
    entries.push(("detail", out.detail.clone()));
    render(&obj(entries))
}

// ---------------------------------------------------------------------
// BENCHMARK.json and compare
// ---------------------------------------------------------------------

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median the metric may worsen by; absent
    /// on per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
    pub run_seconds: f64,
}

fn declared(list: &Value) -> Result<Vec<Declared>, String> {
    list.as_array()
        .ok_or("metric list is not an array")?
        .iter()
        .map(|m| {
            let field = |k: &str| obj_get(m, k).ok_or(format!("metric without {k}"));
            Ok(Declared {
                name: as_str(field("name")?)
                    .ok_or("name is not text")?
                    .to_string(),
                unit: as_str(field("unit")?)
                    .ok_or("unit is not text")?
                    .to_string(),
                higher_is_better: as_str(field("better")?) == Some("higher"),
                bound: obj_get(m, "bound").and_then(as_f64),
            })
        })
        .collect()
}

pub fn parse_contract(text: &str) -> Result<Contract, String> {
    let doc = serde_json::value_from_slice(text.as_bytes()).map_err(|e| e.to_string())?;
    let field = |k: &str| obj_get(&doc, k).ok_or(format!("BENCHMARK.json has no {k}"));
    let workloads = field("workloads")?
        .as_array()
        .ok_or("workloads is not an array")?
        .iter()
        .filter_map(|w| obj_get(w, "name").and_then(as_str).map(str::to_string))
        .collect();
    Ok(Contract {
        workloads,
        end_to_end: declared(field("end_to_end")?)?,
        per_layer: declared(field("per_layer")?)?,
        run_seconds: as_f64(field("run_seconds")?).ok_or("run_seconds is not a number")?,
    })
}

/// Values per (workload, metric) from a file of report lines.
fn load_runs(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let doc =
            serde_json::value_from_slice(line.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
        let Some(workload) = obj_get(&doc, "workload").and_then(as_str) else {
            continue;
        };
        let metrics = obj_get(&doc, "metrics")
            .and_then(Value::as_object)
            .unwrap_or(&[]);
        for (name, m) in metrics {
            if let Some(v) = obj_get(m, "value").and_then(as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// How one (metric, workload) row compares between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread wider than the bound: the data cannot say.
    Unresolved,
}

pub fn verdict(a: &[f64], b: &[f64], metric: &Declared) -> (Verdict, f64, f64) {
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    let (ma, mb) = (median(a), median(b));
    let worse_by = if metric.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let widest = spread(a).max(spread(b));
    let v = if widest > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (v, worse_by, widest)
}

/// `compare a b`: one row per (end-to-end metric, workload); exit code 1
/// when any row is worse, 2 when any is unresolved and none worse.
pub fn compare(contract: &Contract, path_a: &str, path_b: &str) -> Result<i32, String> {
    let a = load_runs(path_a)?;
    let b = load_runs(path_b)?;
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "spread", "bound"
    );
    let mut worst = 0;
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let key = (workload.clone(), metric.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<18} {:<22} missing from one side", metric.name);
                worst = worst.max(2);
                continue;
            };
            let (v, worse_by, widest) = verdict(va, vb, metric);
            let label = match v {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{workload:<18} {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.1}%  {label}",
                metric.name,
                median(va),
                median(vb),
                100.0 * worse_by,
                100.0 * widest,
                100.0 * metric.bound.unwrap_or(0.0),
            );
            worst = worst.max(match v {
                Verdict::Ok => 0,
                Verdict::Unresolved => 2,
                Verdict::Worse => 3,
            });
        }
    }
    Ok(match worst {
        3 => 1,
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> Declared {
        Declared {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(
            verdict(&steady, &slower, &metric(false, 0.1)).0,
            Verdict::Worse
        );
        assert_eq!(verdict(&steady, &slower, &metric(true, 0.1)).0, Verdict::Ok);
        assert_eq!(
            verdict(&slower, &steady, &metric(true, 0.1)).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &steady, &metric(false, 0.1)).0,
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady, &noisy, &metric(false, 0.1)).0,
            Verdict::Unresolved
        );
    }
}
