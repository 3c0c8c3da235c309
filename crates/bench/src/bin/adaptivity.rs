//! Ablation F: measurement-driven adaptation. The traffic matrix drifts
//! between epochs; compares re-solving the LP on fresh measurements
//! against keeping the stale epoch-1 weights (and against hot-potato).
//! This exercises the paper's control loop: "periodically, all policy
//! proxies send their measured traffic volumes to the controller" (§III.C).
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin adaptivity
//!     [--packets N]  packets per epoch (default 1000000)
//!     [--seed N]     world seed (default 3)

use sdm_bench::{arg_num, ExperimentConfig, World};
use sdm_core::{LbOptions, Strategy};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let total: u64 = arg_num(&args, "--packets", 1_000_000);

    println!("# Ablation F — adaptation to traffic drift, campus topology,");
    println!("# {total} packets per epoch.");
    let world = World::build(&ExperimentConfig::campus(seed));

    // Epoch 1 and a drifted epoch 2 (different flow seed = different
    // sources, destinations and flow sizes; same policy classes).
    let epoch1 = world.flows(total, seed.wrapping_add(21));
    let epoch2 = world.flows(total, seed.wrapping_add(1_000_003));

    let hp1 = world.run_strategy(Strategy::HotPotato, None, &epoch1);
    let (w1, _) = world
        .controller
        .solve_load_balanced(&hp1.measurements, LbOptions::default())
        .expect("epoch-1 LP");

    // Epoch 2 under three configurations.
    let hp2 = world.run_strategy(Strategy::HotPotato, None, &epoch2);
    let stale = world.run_strategy(Strategy::LoadBalanced, Some(w1.clone()), &epoch2);
    let (w2, _) = world
        .controller
        .solve_load_balanced(&hp2.measurements, LbOptions::default())
        .expect("epoch-2 LP");
    let fresh = world.run_strategy(Strategy::LoadBalanced, Some(w2), &epoch2);

    println!(
        "{:<22} {:>14} {:>14}",
        "epoch-2 configuration", "max load", "vs fresh"
    );
    let f = fresh.report.overall_max();
    for (name, run) in [
        ("hot-potato", &hp2),
        ("stale epoch-1 weights", &stale),
        ("fresh epoch-2 weights", &fresh),
    ] {
        let m = run.report.overall_max();
        println!(
            "{:<22} {:>14} {:>13.1}%",
            name,
            m,
            100.0 * m as f64 / f.max(1) as f64
        );
    }
    println!("# expected shape: stale weights still beat hot-potato by a wide");
    println!("# margin (the drift keeps class mixes), but re-solving on fresh");
    println!("# measurements recovers the remaining gap.");
}
