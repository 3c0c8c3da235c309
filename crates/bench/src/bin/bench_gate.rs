//! The benchmark regression gate: compares a fresh micro-benchmark result
//! file against the committed baseline and fails (exit code 1) when any
//! paired benchmark's median regressed beyond the threshold — unless the
//! absolute delta sits below the applicable noise floor (`--noise-floor`,
//! default 50 ns globally; repeat with `GROUP=NS` to set per-group
//! floors), where single-core timer jitter dwarfs the signal. The
//! `table_scale` group defaults to a 10 µs floor: its big-table numbers
//! move with the host's memory system, and its real contract is the
//! dedicated scaling check below, not pairwise nanosecond diffs.
//!
//! The fresh file is produced by the bench harness itself, e.g.
//!
//! ```sh
//! SDM_BENCH_OUT=results/BENCH_pr10.json cargo bench --workspace --offline
//! cargo run --release --offline -p sdm-bench --bin bench_gate
//! ```
//!
//! which is exactly what `ci.sh` does.
//!
//! Besides pairwise regressions the gate checks one speedup target on
//! the current file alone: the flow-sharding speedup
//! (`sharding/hp_10m_shards1` vs `.../hp_10m_shards4`) — the 4-shard run
//! must be ≥2x faster. It is enforced only on hosts with at least 4
//! hardware threads and reported informationally otherwise — a 1-core CI
//! box cannot speed up by threading.
//!
//! A second check is hardware-independent: the `warm_start` group records
//! the simplex **pivot counts** of a warm-started epoch re-solve sweep
//! next to a cold one (see `benches/warm_start.rs`), and the gate fails
//! when warm-starting stopped saving pivots — an algorithmic property, so
//! it is enforced on every host.
//!
//! A third check covers policy-state scaling (`benches/table_scale.rs`,
//! also enforced on every host): the hot-working-set lookup at 1M entries
//! must stay within 1.5x of the 10k-entry cost (same keys probed, so the
//! ratio is structural, not a DRAM artifact), and the recorded
//! exhaustion-attack counters must show the negative cache holding its
//! capacity cap. Bytes-per-entry figures are printed alongside.
//!
//! `--write-baseline` refuses to overwrite a committed
//! `results/BENCH_*.json` comparison input unless `--force` is also
//! given: those files are the trajectory record future PRs diff against,
//! and clobbering one silently rewrites history.
//!
//! Run with `--help` for the flag and exit-code reference.

use std::process::ExitCode;

use sdm_bench::arg_value;
use sdm_util::bench_diff::{diff, gate, group_speedup, median_for, unpaired_new};
use sdm_util::json::Json;
use sdm_util::par::hardware_threads;

const HELP: &str = "\
bench_gate — compare fresh micro-benchmark results against the committed baseline

USAGE:
  cargo run --release -p sdm-bench --bin bench_gate [FLAGS]

FLAGS:
  --baseline PATH         baseline JSON file
                          (default: results/BENCH_baseline.json)
  --current PATH          fresh JSON file produced via SDM_BENCH_OUT
                          (default: results/BENCH_pr10.json)
  --max-regress PCT       fail when a paired benchmark's median regressed
                          by more than PCT percent (default: 25)
  --noise-floor [GROUP=]NS
                          ignore paired regressions whose absolute median
                          delta is at most NS nanoseconds — sub-jitter
                          changes on tiny microbenches flap rather than
                          measure. Bare NS sets the global floor (default
                          50); GROUP=NS sets a per-group floor and may be
                          repeated. Built-in per-group default:
                          table_scale=10000 (big-table medians track the
                          host memory system; the scaling contract is the
                          dedicated 1.5x check instead)
  --max-hot-ratio X       required table_scale lookup_hot_1m over
                          lookup_hot_10k median ratio — the policy-state
                          scaling contract, enforced on every host
                          (default: 1.5)
  --min-shard-speedup X   required sharding/hp_10m_shards1-over-shards4
                          median ratio; enforced only on hosts with >= 4
                          hardware threads (default: 2.0)
  --write-baseline        on success, copy the current file over the
                          baseline (adopt the new numbers); refuses a
                          committed results/BENCH_*.json target unless
                          --force is also given
  --force                 allow --write-baseline to overwrite a committed
                          results/BENCH_*.json comparison input
  --help                  print this reference and exit

EXIT CODES:
  0  gate passed (and baseline updated, if --write-baseline)
  1  a benchmark regressed beyond --max-regress, the sharding speedup
     target was missed on a >= 4-core host, the warm-start pivot check
     failed, the table-scale hot-lookup ratio or negative-cache cap
     check failed, an input file was missing/unparsable, no benchmarks
     paired between the files, --write-baseline targeted a committed
     results/BENCH_*.json without --force, or the baseline could not be
     written";

/// Whether `path` looks like a committed `results/BENCH_*.json`
/// comparison input (the perf-trajectory record): an *existing* file
/// named `BENCH_*.json` inside a `results/` directory. Freshly produced
/// scratch outputs elsewhere may be overwritten freely.
fn is_committed_baseline(path: &str) -> bool {
    let p = std::path::Path::new(path);
    let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let in_results = p
        .parent()
        .and_then(|d| d.file_name())
        .and_then(|n| n.to_str())
        == Some("results");
    in_results && name.starts_with("BENCH_") && name.ends_with(".json") && p.is_file()
}

fn load(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))
}

/// Checks the sharding speedup; returns `false` when the check is
/// enforced and fails.
fn shard_speedup_check(current: &Json, min_speedup: f64) -> bool {
    let (Some(s1), Some(s4)) = (
        median_for(current, "sharding", "hp_10m_shards1"),
        median_for(current, "sharding", "hp_10m_shards4"),
    ) else {
        println!("# sharding speedup: benches not present in current run, skipped");
        return true;
    };
    let speedup = s1 / s4;
    let cores = hardware_threads();
    if cores >= 4 {
        println!(
            "# sharding speedup: {speedup:.2}x at 4 shards ({cores} cores, required >= {min_speedup:.2}x)"
        );
        if speedup < min_speedup {
            println!(
                "bench gate FAILED — 4-shard run is only {speedup:.2}x faster than 1 shard \
(required {min_speedup:.2}x on a {cores}-core host)"
            );
            return false;
        }
    } else {
        println!(
            "# sharding speedup: {speedup:.2}x at 4 shards — informational only \
(host has {cores} core(s); the >= {min_speedup:.2}x gate needs >= 4)"
        );
    }
    true
}

/// Checks that warm-starting the epoch re-solve sweep saves simplex
/// pivots over cold solves (the `warm_start` group's recorded counters);
/// returns `false` when the benches are present and warm stopped winning.
/// Pivot counts are deterministic, so — unlike the timing-based speedup
/// checks — this is enforced regardless of core count.
fn warm_start_check(current: &Json) -> bool {
    let (Some(cold), Some(warm)) = (
        median_for(current, "warm_start", "pivots_cold"),
        median_for(current, "warm_start", "pivots_warm"),
    ) else {
        println!("# warm-start pivots: benches not present in current run, skipped");
        return true;
    };
    if let (Some(c_ns), Some(w_ns)) = (
        median_for(current, "warm_start", "epoch_sweep_cold"),
        median_for(current, "warm_start", "epoch_sweep_warm"),
    ) {
        println!(
            "# warm-start re-solve latency: {:.2}x faster than cold over the epoch sweep",
            c_ns / w_ns
        );
    }
    println!(
        "# warm-start pivots: {warm:.0} warm vs {cold:.0} cold over the epoch sweep \
({:.1}% saved)",
        (1.0 - warm / cold) * 100.0
    );
    if warm >= cold {
        println!(
            "bench gate FAILED — warm-started epoch sweep must spend fewer simplex pivots \
than cold re-solves ({warm:.0} >= {cold:.0})"
        );
        return false;
    }
    true
}

/// Noise-floor configuration: a global default plus per-group overrides
/// (`--noise-floor` is repeatable; bare `NS` sets the global floor,
/// `GROUP=NS` a per-group one). `table_scale` defaults to 10 µs — see the
/// module docs.
struct NoiseFloors {
    global_ns: f64,
    per_group: Vec<(String, f64)>,
}

impl NoiseFloors {
    fn parse(args: &[String]) -> Result<NoiseFloors, String> {
        let mut floors = NoiseFloors {
            global_ns: 50.0,
            per_group: vec![("table_scale".to_string(), 10_000.0)],
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a != "--noise-floor" {
                continue;
            }
            let v = it
                .next()
                .ok_or_else(|| "--noise-floor needs a value".to_string())?;
            match v.split_once('=') {
                Some((group, ns)) => {
                    let ns: f64 = ns
                        .parse()
                        .map_err(|_| format!("bad --noise-floor value {v}"))?;
                    // last flag wins for a repeated group
                    floors.per_group.retain(|(g, _)| g != group);
                    floors.per_group.push((group.to_string(), ns));
                }
                None => {
                    floors.global_ns = v
                        .parse()
                        .map_err(|_| format!("bad --noise-floor value {v}"))?;
                }
            }
        }
        Ok(floors)
    }

    fn for_group(&self, group: &str) -> f64 {
        self.per_group
            .iter()
            .find(|(g, _)| g == group)
            .map_or(self.global_ns, |(_, ns)| *ns)
    }
}

/// Checks the policy-state scaling contract on the `table_scale` group;
/// returns `false` when the benches are present and a check fails. The
/// hot-lookup ratio compares the *same* working set probed against 10k-
/// and 1M-entry tables, so it measures structural cost (probe lengths)
/// rather than DRAM reach and is enforced on every host. The recorded
/// exhaustion-attack counters are deterministic.
fn table_scale_check(current: &Json, max_hot_ratio: f64) -> bool {
    let (Some(hot_10k), Some(hot_1m)) = (
        median_for(current, "table_scale", "lookup_hot_10k"),
        median_for(current, "table_scale", "lookup_hot_1m"),
    ) else {
        println!("# table scale: benches not present in current run, skipped");
        return true;
    };
    let mut ok = true;
    for label in ["10k", "100k", "1m"] {
        if let Some(b) = median_for(current, "table_scale", &format!("bytes_per_entry_{label}")) {
            println!("# table_scale bytes/entry at {label:<4} {b:>8.1}");
        }
    }
    let ratio = hot_1m / hot_10k;
    println!(
        "# table_scale hot-lookup scaling: {ratio:.2}x from 10k to 1M entries \
(required <= {max_hot_ratio:.2}x, enforced on every host)"
    );
    if ratio > max_hot_ratio {
        println!(
            "bench gate FAILED — hot-working-set lookup at 1M entries costs {ratio:.2}x \
the 10k cost (required <= {max_hot_ratio:.2}x)"
        );
        ok = false;
    }
    if let (Some(len), Some(cap), Some(ev)) = (
        median_for(current, "table_scale", "negcache_len_attack"),
        median_for(current, "table_scale", "negcache_cap_attack"),
        median_for(current, "table_scale", "negcache_evictions_attack"),
    ) {
        println!(
            "# table_scale exhaustion attack: {len:.0} negative entries live of {cap:.0} cap \
({ev:.0} evicted)"
        );
        if len > cap {
            println!(
                "bench gate FAILED — negative cache exceeded its capacity cap under the \
exhaustion attack ({len:.0} > {cap:.0})"
            );
            ok = false;
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let baseline_path = arg_value(&args, "--baseline")
        .unwrap_or_else(|| "results/BENCH_baseline.json".to_string());
    let current_path = arg_value(&args, "--current")
        .unwrap_or_else(|| "results/BENCH_pr10.json".to_string());
    let max_regress_pct: f64 = arg_value(&args, "--max-regress")
        .and_then(|s| s.parse().ok())
        .unwrap_or(25.0);
    let min_shard_speedup: f64 = arg_value(&args, "--min-shard-speedup")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);
    let max_hot_ratio: f64 = arg_value(&args, "--max-hot-ratio")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.5);
    let noise_floors = match NoiseFloors::parse(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let force = args.iter().any(|a| a == "--force");
    let fail_ratio = 1.0 + max_regress_pct / 100.0;

    // Refuse up front, before any timing runs are compared: adopting new
    // numbers over a committed comparison input rewrites the trajectory
    // record and must be an explicit decision.
    if write_baseline && !force && is_committed_baseline(&baseline_path) {
        eprintln!(
            "bench_gate: refusing --write-baseline over committed baseline {baseline_path}; \
pass --force to overwrite it"
        );
        return ExitCode::FAILURE;
    }

    let (baseline, current) = match (load(&baseline_path), load(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for r in [b, c] {
                if let Err(e) = r {
                    eprintln!("bench_gate: {e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };

    let deltas = diff(&baseline, &current);
    if deltas.is_empty() {
        eprintln!("bench_gate: no benchmarks paired between the two files");
        return ExitCode::FAILURE;
    }

    println!("# bench gate: {current_path} vs {baseline_path}");
    println!("# fail threshold: >{max_regress_pct:.0}% median regression");
    for d in &deltas {
        println!("{}", d.format_line());
    }
    for (group, name) in unpaired_new(&baseline, &current) {
        println!("{group}/{name:<32} new (no baseline)");
    }

    let mut groups: Vec<&str> = deltas.iter().map(|d| d.group.as_str()).collect();
    groups.dedup();
    println!("\n# per-group geometric-mean speedup (baseline / new):");
    for g in groups {
        if let Some(s) = group_speedup(&deltas, g) {
            println!("{g:<24} {s:>6.2}x");
        }
    }

    let shards_ok = shard_speedup_check(&current, min_shard_speedup);
    let warm_ok = warm_start_check(&current);
    let scale_ok = table_scale_check(&current, max_hot_ratio);

    let mut failures = gate(&deltas, fail_ratio);
    // Sub-noise-floor absolute deltas cannot be measured reliably on this
    // hardware: a 25% regression on a 70 ns microbench is ~18 ns — inside
    // timer jitter — and would flap the gate. The floor applies per group
    // so heavyweight groups can opt out of nanosecond pairing entirely.
    failures.retain(|d| d.new_ns - d.baseline_ns > noise_floors.for_group(&d.group));
    if failures.is_empty() && shards_ok && warm_ok && scale_ok {
        println!("\nbench gate PASSED ({} benchmarks compared)", deltas.len());
        if write_baseline {
            match std::fs::copy(&current_path, &baseline_path) {
                Ok(_) => println!("baseline updated: {current_path} -> {baseline_path}"),
                Err(e) => {
                    eprintln!("bench_gate: cannot write baseline {baseline_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        ExitCode::SUCCESS
    } else {
        if !failures.is_empty() {
            println!("\nbench gate FAILED — {} regression(s):", failures.len());
            for d in &failures {
                println!("  {}", d.format_line());
            }
        }
        ExitCode::FAILURE
    }
}
