//! Ablation A: effect of the candidate-set size `k` (|M_x^e|) on the
//! load-balanced strategy's maximum middlebox load. `k = 1` degenerates to
//! hot-potato (§III.C); larger `k` gives the LP more room to balance.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin k_sweep
//!     [--packets N]  total packets (default 5000000)
//!     [--seed N]     world seed (default 3)

use sdm_bench::{arg_num, ExperimentConfig, World, PLOT_ORDER};
use sdm_core::KConfig;
use sdm_util::par::par_map;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let total: u64 = arg_num(&args, "--packets", 5_000_000);

    println!("# Ablation A — k-sweep on the campus topology, LB strategy,");
    println!("# {total} total packets. k = 1 is equivalent to hot-potato.");
    println!(
        "{:>3} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "k", "lambda", "FW-max", "IDS-max", "WP-max", "TM-max"
    );
    // Each k-point is an independent world: build, run and solve them in
    // parallel, print in order afterwards.
    let ks: Vec<usize> = (1..=7).collect();
    let rows = par_map(&ks, |_, &k| {
        let mut cfg = ExperimentConfig::campus(seed);
        cfg.k = KConfig::uniform(k);
        let world = World::build(&cfg);
        let flows = world.flows(total, seed.wrapping_add(7));
        let c = world.compare_strategies(&flows);
        let maxes: Vec<u64> = PLOT_ORDER
            .iter()
            .map(|&f| c.lb.report.row(f).map_or(0, |r| r.max))
            .collect();
        (k, c.lb_report.lambda, maxes)
    });
    for (k, lambda, maxes) in rows {
        println!(
            "{:>3} {:>12.0} {:>12} {:>12} {:>12} {:>12}",
            k, lambda, maxes[0], maxes[1], maxes[2], maxes[3]
        );
    }
    println!("# expected shape: max loads drop steeply from k=1 and flatten once");
    println!("# k approaches the number of deployed replicas per type.");
}
