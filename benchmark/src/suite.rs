//! Whole-suite modes: every workload in its own process, one after the
//! other — `run_all` (untraced then traced) and `check_repeat` (the
//! untraced suite twice, compared against the declared bounds).

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use sdm_util::Json;

use crate::{Args, WORKLOADS};

/// The declaration this package implements; its bounds and directions
/// drive `--check-repeat`.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// What one child run printed; the default is a run that failed.
#[derive(Default)]
struct ChildRun {
    ok: bool,
    metrics: BTreeMap<String, f64>,
    digest: String,
}

fn run_child(workload: &str, args: &Args, trace: bool) -> ChildRun {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate own executable");
        return ChildRun::default();
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child and collects its pipes.
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cannot run {workload}: {e}");
            return ChildRun::default();
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or("");
    for line in &lines {
        println!("{line}");
    }
    println!("result {workload} trace={} {result}", u8::from(trace));
    let digest = lines
        .iter()
        .find(|l| l.starts_with("digest "))
        .map_or(String::new(), |l| l.to_string());
    let mut metrics = BTreeMap::new();
    let parsed = Json::parse(result).ok();
    if let Some(pairs) = parsed
        .as_ref()
        .and_then(|j| j.get("metrics"))
        .and_then(Json::as_obj)
    {
        for (name, m) in pairs {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                metrics.insert(name.clone(), v);
            }
        }
    }
    let correct = parsed
        .as_ref()
        .and_then(|j| j.get("correct"))
        .and_then(Json::as_bool)
        .unwrap_or(false);
    ChildRun {
        ok: output.status.success() && correct,
        metrics,
        digest,
    }
}

/// Every workload, untraced then traced, sequentially; non-zero exit if
/// any run reports a correctness failure.
pub fn run_all(args: &Args) -> ExitCode {
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            let run = run_child(workload, args, trace);
            if !run.ok {
                eprintln!("FAIL {workload} (trace {})", u8::from(trace));
                all_ok = false;
            }
        }
    }
    println!("suite {}", if all_ok { "ok" } else { "FAILED" });
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(name, higher_is_better, bound)` of every declared end-to-end metric.
fn declared_bounds() -> Vec<(String, bool, f64)> {
    let json = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json declares end_to_end metrics")
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "higher",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Runs the untraced suite twice, the second time in reverse workload
/// order, and fails if any end-to-end metric of any workload moved by
/// more than its bound or any digest line changed.
pub fn check_repeat(args: &Args) -> ExitCode {
    let bounds = declared_bounds();
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    let mut passes: Vec<BTreeMap<&str, ChildRun>> = Vec::new();
    for reverse in [false, true] {
        let mut order = names.clone();
        if reverse {
            order.reverse();
        }
        passes.push(
            order
                .into_iter()
                .map(|w| (w, run_child(w, args, false)))
                .collect(),
        );
    }

    let mut all_ok = true;
    println!(
        "{:<24} {:<12} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for w in &names {
        let (a, b) = (&passes[0][w], &passes[1][w]);
        if !(a.ok && b.ok) {
            println!("{w:<24} a run failed its correctness checks");
            all_ok = false;
        }
        if a.digest != b.digest {
            println!("{w:<24} digest differs between the two runs");
            all_ok = false;
        }
        for (metric, higher_better, bound) in &bounds {
            let (Some(&x), Some(&y)) = (a.metrics.get(metric), b.metrics.get(metric)) else {
                println!("{w:<24} {metric:<12} missing");
                all_ok = false;
                continue;
            };
            // How much worse the second run reads, as a share of the first.
            let worse = if *higher_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let exceeded = worse.abs() > *bound;
            let verdict = if exceeded { "EXCEEDED" } else { "" };
            println!(
                "{w:<24} {metric:<12} {x:>16.4} {y:>16.4} {worse:>+9.4} {bound:>7.2} {verdict}"
            );
            all_ok &= !exceeded;
        }
    }
    println!("check-repeat {}", if all_ok { "ok" } else { "FAILED" });
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
