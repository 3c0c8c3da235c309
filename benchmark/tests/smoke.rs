//! Runs every declared workload under `--smoke`, untraced and traced, and
//! checks that what the program emits is exactly what `BENCHMARK.json`
//! declares.

use std::collections::BTreeSet;
use std::process::Command;

use sdm_util::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn declared(json: &Json, section: &str) -> BTreeSet<String> {
    json.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named entry")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one workload and returns the metric names of its result line.
fn emitted(workload: &str, trace: &str) -> BTreeSet<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_sdm-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is one JSON object");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1
    );
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            assert!(
                m.get("unit").and_then(Json::as_str).is_some(),
                "{name} has a unit"
            );
            name.clone()
        })
        .collect()
}

#[test]
fn emitted_names_equal_declared_names() {
    let json = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let workloads = declared(&json, "workloads");
    let end_to_end = declared(&json, "end_to_end");
    let per_layer = declared(&json, "per_layer");
    assert_eq!(workloads.len(), 6);
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(well_formed(name), "{name} must match [A-Za-z0-9_.-]+");
    }
    for workload in &workloads {
        assert_eq!(emitted(workload, "0"), end_to_end, "{workload} untraced");
        assert_eq!(emitted(workload, "1"), per_layer, "{workload} traced");
    }
}

#[test]
fn unknown_workloads_and_flags_are_refused() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--iters-scale", "2"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_sdm-benchmark"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!output.status.success(), "{args:?} must be refused");
        assert!(output.stdout.is_empty(), "{args:?} must print no result");
    }
}
