//! Regenerates **Table III**: per-type maximum and minimum middlebox loads
//! on the campus topology under HP / Rand / LB enforcement.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin table3_distribution
//!     [--packets N]   total packets (default 10000000, the figure's top end)
//!     [--seed N]      world seed (default 3)
//!
//! Environment: `SDM_SHARDS` sets the flow-shard count (default:
//! autodetected core count). The table on stdout is byte-identical for any
//! shard count — CI diffs SDM_SHARDS=1 against SDM_SHARDS=4 to prove it.
//! Per-phase wall-clock goes to stderr so it never perturbs that diff.

use std::time::Instant;

use sdm_bench::{arg_num, ExperimentConfig, World, PLOT_ORDER};
use sdm_util::par::shard_count;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let total: u64 = arg_num(&args, "--packets", 10_000_000);
    let shards = shard_count();

    println!("# Table III — load distribution (max/min packets per middlebox type),");
    println!("# campus topology at {total} total packets");
    let t0 = Instant::now(); // lint:allow(wall-clock)
    let world = World::build(&ExperimentConfig::campus(seed));
    eprintln!("[table3] build world: {:.3}s", t0.elapsed().as_secs_f64());
    let t1 = Instant::now(); // lint:allow(wall-clock)
    let flows = world.flows(total, seed.wrapping_add(42));
    eprintln!(
        "[table3] generate {} flows: {:.3}s",
        flows.len(),
        t1.elapsed().as_secs_f64()
    );
    let t2 = Instant::now(); // lint:allow(wall-clock)
    let c = world.compare_strategies(&flows);
    eprintln!(
        "[table3] run 3 strategies ({shards} shard{}): {:.3}s",
        if shards == 1 { "" } else { "s" },
        t2.elapsed().as_secs_f64()
    );

    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "Middlebox", "Hot-potato", "Random", "Load-balance"
    );
    for f in PLOT_ORDER {
        let (hp, rd, lb) = (
            c.hp.report.row(f),
            c.rand.report.row(f),
            c.lb.report.row(f),
        );
        println!(
            "{:<12} {:>14} {:>14} {:>14}",
            format!("{} max.", f.abbrev()),
            hp.map_or(0, |r| r.max),
            rd.map_or(0, |r| r.max),
            lb.map_or(0, |r| r.max),
        );
        println!(
            "{:<12} {:>14} {:>14} {:>14}",
            format!("{} min.", f.abbrev()),
            hp.map_or(0, |r| r.min),
            rd.map_or(0, |r| r.min),
            lb.map_or(0, |r| r.min),
        );
    }
    println!("# expected shape (paper): LB's max/min spread is far narrower than");
    println!("# Rand's, which is far narrower than HP's; WP and TM stay less");
    println!("# balanced than FW/IDS because fewer replicas exist.");
}
