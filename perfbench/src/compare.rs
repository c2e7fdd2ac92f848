//! `chromata-bench compare A B`: two sets of recorded runs, metric by
//! metric, against the bounds in `BENCHMARK.json`.
//!
//! A record file holds one JSON object per line, as `run --record`
//! appends them: `{"workload", "seed", "trace", "result"}`. For each
//! workload and end-to-end metric the comparison prints both medians,
//! both spreads (quartile distance over median), both run counts and the
//! bound, then a verdict: `within`, `regressed`, `improved`, or
//! `unresolved` when either set's spread is wider than the bound. Exact
//! per-layer counts must be identical across every traced run of a seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;

use crate::metrics::{self, Better};
use crate::stats::Summary;

/// One recorded run.
struct Record {
    workload: String,
    seed: Option<f64>,
    traced: bool,
    metrics: BTreeMap<String, f64>,
}

/// The comparison's table, and whether it found a regression or a
/// count that changed.
pub struct Comparison {
    /// The printed table.
    pub table: String,
    /// Whether any metric regressed beyond its bound or any exact count
    /// differs.
    pub regressed: bool,
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::Int(n) => Some(n as f64),
        Value::UInt(n) => Some(n as f64),
        Value::Float(x) => Some(x),
        _ => None,
    }
}

fn parse_records(text: &str, origin: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc: Value =
            serde_json::from_str(line).map_err(|e| format!("{origin}:{}: not JSON: {e}", i + 1))?;
        let Value::String(workload) = &doc["workload"] else {
            return Err(format!("{origin}:{}: no `workload`", i + 1));
        };
        let Value::Object(fields) = &doc["result"]["metrics"] else {
            return Err(format!("{origin}:{}: no `result.metrics`", i + 1));
        };
        let metrics = fields
            .iter()
            .filter_map(|(name, m)| number(&m["value"]).map(|v| (name.clone(), v)))
            .collect();
        records.push(Record {
            workload: workload.clone(),
            seed: number(&doc["seed"]),
            traced: number(&doc["trace"]) == Some(1.0),
            metrics,
        });
    }
    Ok(records)
}

/// Regression bounds by end-to-end metric name, from `BENCHMARK.json`.
fn bounds(benchmark: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc: Value = serde_json::from_str(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Value::Array(entries) = &doc["end_to_end"] else {
        return Err("BENCHMARK.json: no `end_to_end` list".to_owned());
    };
    let mut out = BTreeMap::new();
    for entry in entries {
        let (Value::String(name), Some(bound)) = (&entry["name"], number(&entry["bound"])) else {
            return Err("BENCHMARK.json: an end_to_end entry lacks `name` or `bound`".to_owned());
        };
        out.insert(name.clone(), bound);
    }
    Ok(out)
}

/// Values of `metric` on `workload` across `records`.
fn values(records: &[Record], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// The verdict for one metric: how much worse B is than A as a share of
/// A's median (negative when better), and the label.
fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> (f64, &'static str) {
    let change = if a.median == 0.0 {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let label = if a.spread() > bound || b.spread() > bound {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else if worse < -bound {
        "improved"
    } else {
        "within"
    };
    (worse, label)
}

/// Compares record sets `a` and `b` (file contents) under the bounds in
/// `benchmark` (the contents of `BENCHMARK.json`).
///
/// # Errors
///
/// Fails when a record or `BENCHMARK.json` cannot be read.
pub fn compare(a: &str, b: &str, benchmark: &str) -> Result<Comparison, String> {
    let a = parse_records(a, "A")?;
    let b = parse_records(b, "B")?;
    let bounds = bounds(benchmark)?;
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();

    let mut table = String::new();
    let mut regressed = false;
    let _ = writeln!(
        table,
        "{:<15} {:<24} {:>13} {:>7} {:>3} {:>13} {:>7} {:>3} {:>6} {:>8}  verdict",
        "workload",
        "metric",
        "A median",
        "A iqr",
        "nA",
        "B median",
        "B iqr",
        "nB",
        "bound",
        "worse"
    );
    for &workload in &workloads {
        for spec in &metrics::END_TO_END {
            let (va, vb) = (
                values(&a, workload, false, spec.name),
                values(&b, workload, false, spec.name),
            );
            let (Some(sa), Some(sb)) = (Summary::of(&va), Summary::of(&vb)) else {
                continue;
            };
            let bound = bounds.get(spec.name).copied().unwrap_or(0.0);
            let (worse, label) = verdict(&sa, &sb, spec.better, bound);
            regressed |= label == "regressed";
            let _ = writeln!(
                table,
                "{workload:<15} {:<24} {:>13.6} {:>6.1}% {:>3} {:>13.6} {:>6.1}% {:>3} {:>5.0}% {:>+7.1}%  {label}",
                spec.name,
                sa.median,
                sa.spread() * 100.0,
                sa.n,
                sb.median,
                sb.spread() * 100.0,
                sb.n,
                bound * 100.0,
                worse * 100.0,
            );
        }
        let mut seeds: Vec<f64> = a
            .iter()
            .chain(&b)
            .filter(|r| r.workload == workload && r.traced)
            .filter_map(|r| r.seed)
            .collect();
        seeds.sort_by(f64::total_cmp);
        seeds.dedup();
        for seed in seeds {
            for spec in metrics::PER_LAYER.iter().filter(|s| s.unit == "count") {
                let all: Vec<f64> = a
                    .iter()
                    .chain(&b)
                    .filter(|r| r.workload == workload && r.traced && r.seed == Some(seed))
                    .filter_map(|r| r.metrics.get(spec.name).copied())
                    .collect();
                let Some(&first) = all.first() else {
                    continue;
                };
                let identical = all.iter().all(|&v| v == first);
                regressed |= !identical;
                let _ = writeln!(
                    table,
                    "{workload:<15} {:<24} seed {seed}: {} over {} traced run(s)",
                    spec.name,
                    if identical {
                        format!("identical ({first})")
                    } else {
                        format!("DIFFERS {all:?}")
                    },
                    all.len()
                );
            }
        }
    }
    Ok(Comparison { table, regressed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, ops: f64) -> String {
        format!(
            r#"{{"workload":"{workload}","seed":1,"trace":0,"result":{{"correct":true,"attempted":1,"failed":0,"metrics":{{"ops_per_s":{{"value":{ops},"unit":"1/s"}}}}}}}}"#
        )
    }

    const BENCH: &str =
        r#"{"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0].map(|v| record("w", v)).join("\n");
        let same = [100.0, 100.5, 99.5].map(|v| record("w", v)).join("\n");
        let slower = [80.0, 81.0, 79.0].map(|v| record("w", v)).join("\n");
        let faster = [130.0, 131.0, 129.0].map(|v| record("w", v)).join("\n");
        let noisy = [50.0, 100.0, 150.0].map(|v| record("w", v)).join("\n");
        let line = |b: &str| compare(&a, b, BENCH).unwrap().table;
        assert!(line(&same).contains("within"));
        assert!(line(&slower).contains("regressed"));
        assert!(compare(&a, &slower, BENCH).unwrap().regressed);
        assert!(line(&faster).contains("improved"));
        assert!(line(&noisy).contains("unresolved"));
    }

    #[test]
    fn malformed_records_are_reported() {
        assert!(compare("not json", "", BENCH).is_err());
        assert!(compare(&record("w", 1.0), "", "{}").is_err());
    }
}
