//! Name-drift guard: every workload, at smoke sizes, must emit exactly
//! the metric and workload names `BENCHMARK.json` declares, in its
//! order, with its units, finite values and no failed operation.
//!
//! Run with `cargo test --release`: the workloads are sized for an
//! optimised build (the binary itself refuses to run without one).

use odabench::report::{parse_contract, Contract, Declared};
use odabench::workloads::{self, WORKLOADS};
use odabench::{RunConfig, DEFAULT_SECONDS};

fn contract() -> Contract {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_contract(&text).expect("BENCHMARK.json parses")
}

fn smoke(workload: &str, trace: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.2,
        trace,
        smoke: true,
    }
}

fn assert_matches(workload: &str, declared: &[Declared], trace: bool) {
    let out = workloads::run(&smoke(workload, trace)).expect("workload runs");
    assert_eq!(out.tally.failed, 0, "{workload}: {:?}", out.tally.notes);
    let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let want: Vec<(&str, &str)> = declared
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    assert_eq!(
        got, want,
        "{workload} (trace {trace}): names or units drifted"
    );
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
        assert!(
            !m.name.is_empty()
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {:?}",
            m.name
        );
    }
    if !trace {
        for m in &out.metrics {
            assert!(m.value > 0.0, "{workload}: end-to-end {} is 0", m.name);
        }
    }
    assert_eq!(
        serde::obj_get(&out.detail, "chrome_trace").is_some(),
        trace,
        "a traced run names its Chrome trace file"
    );
}

#[test]
fn workload_names_match_the_contract() {
    let c = contract();
    assert_eq!(c.workloads, WORKLOADS);
    assert_eq!(c.run_seconds, DEFAULT_SECONDS);
    assert!(c
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let c = contract();
    // One after the other: the workloads time themselves.
    for workload in WORKLOADS {
        assert_matches(workload, &c.end_to_end, false);
        assert_matches(workload, &c.per_layer, true);
    }
}
