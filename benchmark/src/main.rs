//! `sdm-benchmark`: six workloads, five bounded end-to-end metrics (plus
//! `fail_share`) and an outside-in per-layer cost model for the SDM
//! enforcement stack. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! sdm-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! sdm-benchmark [--seed N] [--seconds S] [--smoke]       every workload, both passes
//! sdm-benchmark --check-repeat [--seed N] [--seconds S]  repeatability self-check
//! ```

mod dataplane;
mod epoch;
mod fig4;
mod harness;
mod metrics;
mod pkt;
mod reach;
mod span;
mod suite;
mod units;
mod world;

use std::process::ExitCode;

use harness::{Outcome, RunCfg};
use metrics::{
    median, peak_rss_mb, quantile, stratified, tail_q, MetricDef, END_TO_END, PER_LAYER,
};
use sdm_util::Json;
use span::Tracer;

/// Every workload, in the order the suite runs them, with the reason it
/// exists (also recorded in `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "campus_pkt_burst",
        "long cached flows, all packets at tick 0: queue ring path, routing, flow-table hits",
    ),
    (
        "campus_pkt_label_paced",
        "label switching with paced, interleaved flows: label tables, control packets, heap spill",
    ),
    (
        "campus_churn_2k",
        "2,010 rules, almost every packet a first packet: classification, inserts, expiry, eviction",
    ),
    (
        "campus_fig4_agg",
        "HP, Rand, cold LP solve, LB at 10M packets over the sharded aggregate path",
    ),
    (
        "campus_epoch",
        "the measure, warm re-solve, verify, swap control loop, one epoch per iteration",
    ),
    (
        "waxman_reach",
        "from-scratch symbolic isolation check on the Waxman-425 world",
    ),
];

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 14.0;
const DEFAULT_SEED: u64 = 3;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub check_repeat: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        check_repeat: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {v}"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: not a duration: {v}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload {w} (expected one of {})",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    match name {
        "campus_pkt_burst" => pkt::run(&pkt::BURST, cfg, tr),
        "campus_pkt_label_paced" => pkt::run(&pkt::LABEL_PACED, cfg, tr),
        "campus_churn_2k" => pkt::run(&pkt::CHURN_2K, cfg, tr),
        "campus_fig4_agg" => fig4::run(cfg, tr),
        "campus_epoch" => epoch::run(cfg, tr),
        "waxman_reach" => reach::run(cfg, tr),
        other => unreachable!("parse_args admits only declared workloads, got {other}"),
    }
}

/// Where traces go: `benchmark/out/` from the repository root, `out/`
/// from inside the package.
fn trace_dir() -> std::path::PathBuf {
    if std::path::Path::new("benchmark").is_dir() {
        "benchmark/out".into()
    } else {
        "out".into()
    }
}

/// One metric's value and the number of samples behind it.
struct Reported {
    def: &'static MetricDef,
    value: f64,
    samples: usize,
}

fn end_to_end(out: &Outcome) -> Vec<Reported> {
    let p50 = stratified(&out.iter_ms, |_| 0.5);
    let n = out.iterations();
    let values = [
        (out.units_per_iter / (p50 / 1e3), n),
        (p50, n),
        (stratified(&out.iter_ms, tail_q), n),
        (median(&out.setup_s), out.setup_s.len()),
        (peak_rss_mb(), 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, samples))| Reported {
            def,
            value,
            samples,
        })
        .collect()
}

fn per_layer(out: &Outcome) -> Vec<Reported> {
    PER_LAYER
        .iter()
        .map(|def| Reported {
            def,
            value: out.layers.get(def.name),
            samples: out.iterations(),
        })
        .collect()
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(out: &Outcome, reported: &[Reported]) -> String {
    let metrics = reported.iter().map(|r| {
        // JSON has no NaN or infinity; a degenerate ratio reads 0.
        let value = if r.value.is_finite() { r.value } else { 0.0 };
        let metric = Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(r.def.unit.to_string())),
        ]);
        (r.def.name, metric)
    });
    Json::obj([
        ("correct", Json::Bool(out.checks.failed == 0)),
        ("attempted", Json::Num(out.checks.attempted.max(1) as f64)),
        ("failed", Json::Num(out.checks.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_compact_string()
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let mut tr = Tracer::new(cfg.trace);
    let out = run_workload(name, &cfg, &mut tr);
    let reported = if cfg.trace {
        per_layer(&out)
    } else {
        end_to_end(&out)
    };

    let provenance = Json::obj([
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("nproc", Json::Num(sdm_util::par::hardware_threads() as f64)),
        ("shards", Json::Num(out.shards as f64)),
        ("rustc", Json::Str(env!("SDM_BENCHMARK_RUSTC").to_string())),
        ("iterations", Json::Num(out.iterations() as f64)),
        ("strata", Json::Num(out.iter_ms.len() as f64)),
    ]);
    println!("provenance {provenance}");
    for r in &reported {
        println!(
            "metric {name} {:<40} {:>18.6} {:<6} n={}",
            r.def.name, r.value, r.def.unit, r.samples
        );
    }
    if !cfg.trace {
        let all = out.iter_ms.concat();
        println!(
            "metric {name} {:<40} {:>18.6} {:<6} (min {:.3} max {:.3} ms)",
            "iter_ms_range",
            quantile(&all, 1.0) - quantile(&all, 0.0),
            "ms",
            quantile(&all, 0.0),
            quantile(&all, 1.0),
        );
    }
    println!(
        "metric {name} {:<40} {:>18.6} {:<6} ({} failed of {} attempted)",
        "fail_share",
        out.checks.failed as f64 / out.checks.attempted.max(1) as f64,
        "ratio",
        out.checks.failed,
        out.checks.attempted
    );
    for (stratum, ms) in out.iter_ms.iter().enumerate() {
        println!("samples {name} iter_ms stratum={stratum} {ms:.3?}");
    }
    println!("samples {name} setup_s {:.6?}", out.setup_s);
    println!("digest {name} seed={} {}", cfg.seed, out.digest);
    for msg in &out.checks.messages {
        eprintln!("FAIL {name}: {msg}");
    }

    if cfg.trace {
        let dir = trace_dir();
        let path = dir.join(format!("trace_{name}.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tr.to_json(name, cfg.seed)));
        match written {
            Ok(()) => println!("trace {name} {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    println!("{}", result_line(&out, &reported));
    if out.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // The program's environment knobs (`SDM_BATCH`, `SDM_SHARDS`,
    // `SDM_THREADS`, `SDM_TELEMETRY`, `SDM_BENCH_*`, ...) are cleared so
    // its defaults are what is measured.
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("SDM_"))
        .collect();
    for var in knobs {
        std::env::remove_var(var);
    }

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdm-benchmark: {e}");
            eprintln!(
                "usage: sdm-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                 [--smoke] [--check-repeat]"
            );
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.check_repeat) {
        (Some(name), _) => run_one(name, &args),
        (None, true) => suite::check_repeat(&args),
        (None, false) => suite::run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload campus_epoch --seed 11 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("campus_epoch"));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 2.5, true));
    }

    /// `BENCHMARK.json` and the tables in this package declare the same
    /// workloads (with reasons) and metrics (with units).
    #[test]
    fn declaration_matches_the_program() {
        let json = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let pairs = |section: &str, second: &str| -> Vec<(String, String)> {
            json.get(section)
                .and_then(Json::as_arr)
                .expect("declared section")
                .iter()
                .map(|e| {
                    let field = |k| {
                        e.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (field("name"), field(second))
                })
                .collect()
        };
        let own = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        let workloads: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(pairs("workloads", "why"), workloads);
        assert_eq!(pairs("end_to_end", "unit"), own(END_TO_END));
        assert_eq!(pairs("per_layer", "unit"), own(PER_LAYER));
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--trace 2",
            "--iters-scale 2",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
