//! Self-test of the benchmark on its `smoke` fixture: every metric that
//! `BENCHMARK.json` names is printed, with its unit, in both modes, and a
//! bad invocation fails without printing a result.

use std::collections::BTreeMap;
use std::process::{Command, Output};

use serde::Deserialize;

#[derive(Deserialize)]
struct MetricDef {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Definition {
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

fn definition() -> Definition {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fuseme-perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn smoke(trace: &str) -> ResultLine {
    let out = bench(&[
        "--workload",
        "smoke",
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        trace,
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "smoke run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is the result object")
}

fn assert_reports(result: &ResultLine, defs: &[MetricDef]) {
    assert!(result.correct);
    assert!(result.attempted >= 1);
    assert_eq!(result.failed, 0);
    let printed: Vec<&String> = result.metrics.keys().collect();
    let mut named: Vec<&String> = defs.iter().map(|d| &d.name).collect();
    named.sort();
    assert_eq!(printed, named, "printed metrics differ from BENCHMARK.json");
    for def in defs {
        let m = &result.metrics[&def.name];
        assert_eq!(m.unit, def.unit, "unit of {}", def.name);
        assert!(m.value.is_finite(), "{} = {}", def.name, m.value);
    }
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    assert_reports(&smoke("0"), &definition().end_to_end);
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    assert_reports(&smoke("1"), &definition().per_layer);
}

#[test]
fn bad_invocation_fails_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "smoke",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "smoke"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
