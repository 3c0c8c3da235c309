//! Ablation B: the full Eq. (1) formulation versus the reduced Eq. (2)
//! formulation of the load-balancing LP (§III.C). Both reach the same
//! optimal λ; Eq. (2) exists to cut variables, constraints and solve time.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin lp_formulations
//!     [--packets N]   total packets (default 500000)
//!     [--seed N]      world seed (default 3)

use std::time::Instant;

use sdm_bench::{arg_num, ExperimentConfig, World};
use sdm_core::{LbOptions, Strategy};
use sdm_workload::PolicyClassCounts;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let total: u64 = arg_num(&args, "--packets", 500_000);

    println!("# Ablation B — Eq. (1) full vs Eq. (2) reduced LP formulation,");
    println!("# campus topology, {total} packets, 3 policies per class.");
    let mut cfg = ExperimentConfig::campus(seed);
    cfg.policy_counts = PolicyClassCounts {
        many_to_one: 3,
        one_to_many: 3,
        one_to_one: 3,
        companions: false,
    };
    let world = World::build(&cfg);
    let flows = world.flows(total, seed.wrapping_add(5));
    let measure = world.run_strategy(Strategy::HotPotato, None, &flows);

    let t = Instant::now(); // lint:allow(wall-clock)
    let (w2, reduced) = world
        .controller
        .solve_load_balanced(&measure.measurements, LbOptions::default())
        .expect("reduced LP must solve");
    let reduced_time = t.elapsed();

    let t = Instant::now(); // lint:allow(wall-clock)
    let (w1, full) = world
        .controller
        .solve_load_balanced_full(&measure.measurements, LbOptions::default())
        .expect("full LP must solve");
    let full_time = t.elapsed();

    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>14} {:>12}",
        "formulation", "lambda", "variables", "constraints", "pivots", "time"
    );
    println!(
        "{:<18} {:>12.1} {:>12} {:>12} {:>14} {:>12?}",
        "Eq. (2) reduced",
        reduced.lambda,
        reduced.variables,
        reduced.constraints,
        reduced.iterations,
        reduced_time
    );
    println!(
        "{:<18} {:>12.1} {:>12} {:>12} {:>14} {:>12?}",
        "Eq. (1) full",
        full.lambda,
        full.variables,
        full.constraints,
        full.iterations,
        full_time
    );
    let gap = (full.lambda - reduced.lambda).abs() / reduced.lambda.max(1e-12);
    println!("# relative lambda gap: {gap:.2e} (expected ~0: same optimum)");
    println!(
        "# variable reduction: {:.1}x",
        full.variables as f64 / reduced.variables.max(1) as f64
    );
    println!(
        "# controller -> data-plane config: Eq.(2) {} B vs Eq.(1) {} B ({:.1}x less to push)",
        w2.footprint_bytes(),
        w1.footprint_bytes(),
        w1.footprint_bytes() as f64 / w2.footprint_bytes().max(1) as f64
    );
}
