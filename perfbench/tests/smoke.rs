//! Runs every workload once at smoke scale and checks the result schema
//! against `BENCHMARK.json`.

use std::path::PathBuf;

use chromata_perfbench::metrics::{Spec, END_TO_END, PER_LAYER};
use chromata_perfbench::{run, Plan, Workload};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn string(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn assert_catalogue_matches(listed: &Value, catalogue: &[Spec]) {
    let listed: Vec<(String, String, String)> = array(listed)
        .iter()
        .map(|m| {
            (
                string(&m["name"]).to_owned(),
                string(&m["unit"]).to_owned(),
                string(&m["better"]).to_owned(),
            )
        })
        .collect();
    let ours: Vec<(String, String, String)> = catalogue
        .iter()
        .map(|s| {
            (
                s.name.to_owned(),
                s.unit.to_owned(),
                s.better.label().to_owned(),
            )
        })
        .collect();
    assert_eq!(
        listed, ours,
        "BENCHMARK.json and the runner's catalogue differ"
    );
}

#[test]
fn benchmark_json_matches_the_runner() {
    let doc = benchmark_json();
    assert_catalogue_matches(&doc["end_to_end"], &END_TO_END);
    assert_catalogue_matches(&doc["per_layer"], &PER_LAYER);
    let workloads: Vec<&str> = array(&doc["workloads"])
        .iter()
        .map(|w| string(&w["name"]))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

/// One test runs the workloads in turn: they share the process-wide
/// artifact store, so they must not run concurrently.
#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        let plan = Plan {
            seed: 1,
            seconds: 1.0,
            trace: true,
            smoke: true,
            work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
        };
        let (report, tracer) = run(workload, &plan).expect("workload sets up");
        let name = workload.name();
        assert!(report.failures.is_empty(), "{name}: {:?}", report.failures);
        assert!(report.correct(true), "{name}: not correct");
        assert!(!tracer.spans().is_empty(), "{name}: no spans recorded");
        for spec in END_TO_END {
            let m = &report.end_to_end[spec.name];
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{name}: end-to-end {} = {}",
                spec.name,
                m.value
            );
        }
        for (traced, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let line: Value = serde_json::from_str(&report.result_line(traced)).unwrap();
            let Value::Object(keys) = &line else {
                panic!("{name}: result is not an object")
            };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line["correct"], Value::Bool(true));
            assert_eq!(line["failed"], Value::Int(0));
            let Value::Object(metrics) = &line["metrics"] else {
                panic!("{name}: metrics is not an object")
            };
            assert_eq!(metrics.len(), catalogue.len(), "{name}: metric count");
            for spec in catalogue {
                assert_eq!(
                    string(&line["metrics"][spec.name]["unit"]),
                    spec.unit,
                    "{name}: unit of {}",
                    spec.name
                );
            }
        }
    }
}
