//! Regenerates **Figure 5**: maximum load on any FW / IDS / WP / TM
//! middlebox versus total traffic volume on the Waxman topology (25 cores,
//! 400 edges), under HP / Rand / LB enforcement.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin fig5_waxman
//!     [--volumes 1,2,...,10]   total packets, in millions (default 1..10)
//!     [--seed N]               world seed (default 3)
//!
//! Environment: `SDM_SHARDS` sets the flow-shard count of each run
//! (default: autodetected core count); output is identical for any value.

use sdm_bench::{
    arg_num, arg_value, figure_header, figure_row, parse_num, ExperimentConfig, World,
};
use sdm_util::par::par_map;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let volumes: Vec<u64> = arg_value(&args, "--volumes")
        .map(|s| {
            s.split(',')
                .map(|v| parse_num("--volumes", v.trim()))
                .collect()
        })
        .unwrap_or_else(|| (1..=10).collect());

    println!("# Figure 5 — Waxman topology: max middlebox load vs traffic volume");
    println!("# columns per type: hot-potato (HP), random (Rd), load-balanced (LB)");
    let world = World::build(&ExperimentConfig::waxman(seed));
    println!("{}", figure_header());
    // each volume is an independent experiment: sweep them on scoped
    // threads, and shard the flows of each run on top (SDM_SHARDS)
    let rows = par_map(&volumes, |_, &m| {
        let total = m * 1_000_000;
        let flows = world.flows(total, seed.wrapping_add(m));
        let c = world.compare_strategies(&flows);
        figure_row(total, &c)
    });
    for row in rows {
        println!("{row}");
    }
    println!("# expected shape (paper): loads grow linearly; LB < Rand < HP for every type");
}
