//! Ablation E: dependability under middlebox failure. Crashes the most
//! loaded firewall mid-experiment, shows the loss before the controller
//! reacts, then the recomputed assignments/LP routing around the failure.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin failure_recovery
//!     [--packets N]  total packets per phase (default 1000000)
//!     [--seed N]     world seed (default 3)

use sdm_bench::{arg_num, ExperimentConfig, World};
use sdm_core::{EnforcementOptions, LbOptions, Strategy};
use sdm_policy::NetworkFunction;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let total: u64 = arg_num(&args, "--packets", 1_000_000);

    println!("# Ablation E — middlebox failure and controller recovery,");
    println!("# campus topology, {total} packets per phase, LB strategy.");
    let mut world = World::build(&ExperimentConfig::campus(seed));
    let flows = world.flows(total, seed.wrapping_add(13));

    // Phase 0: healthy network, measured + load-balanced.
    let hp = world.run_strategy(Strategy::HotPotato, None, &flows);
    let (weights, report) = world
        .controller
        .solve_load_balanced(&hp.measurements, LbOptions::default())
        .expect("LP solves");
    let lb = world.run_strategy(Strategy::LoadBalanced, Some(weights.clone()), &flows);
    let victim = world
        .deployment
        .offering(NetworkFunction::Firewall)
        .into_iter()
        .max_by_key(|m| lb.loads[m.index()])
        .expect("a firewall exists");
    println!(
        "phase 0 (healthy):   delivered {:>9}, lambda {:>9.0}, victim {victim} carried {}",
        lb.delivered,
        report.lambda,
        lb.loads[victim.index()]
    );

    // Phase 1: the victim crashes; stale configuration keeps steering into
    // the black hole.
    let mut stale = world.controller.enforcement(
        Strategy::LoadBalanced,
        Some(weights),
        EnforcementOptions::default(),
    );
    stale.fail_middlebox(victim);
    for f in &flows {
        stale.inject_flow(f.five_tuple, f.packets, 512);
    }
    stale.run();
    let lost = stale.mbox_state(victim).lock().counters.dropped_failed;
    println!(
        "phase 1 (stale cfg): delivered {:>9}, blackholed {lost} packets at the crashed box",
        stale.sim().stats().delivered + stale.sim().stats().delivered_external,
    );

    // Phase 2: the controller reacts — recomputes assignments and the LP
    // without the victim.
    world.controller.fail_middlebox(victim);
    let (weights2, report2) = world
        .controller
        .solve_load_balanced(&hp.measurements, LbOptions::default())
        .expect("LP solves without the victim");
    let mut healed = world.controller.enforcement(
        Strategy::LoadBalanced,
        Some(weights2),
        EnforcementOptions::default(),
    );
    healed.fail_middlebox(victim); // box is still down in the data plane
    for f in &flows {
        healed.inject_flow(f.five_tuple, f.packets, 512);
    }
    healed.run();
    println!(
        "phase 2 (recovered): delivered {:>9}, lambda {:>9.0}, victim load {}",
        healed.sim().stats().delivered + healed.sim().stats().delivered_external,
        report2.lambda,
        healed.middlebox_loads()[victim.index()]
    );
    println!("# expected shape: phase 1 loses exactly the victim's share; phase 2");
    println!("# delivers 100% with a modestly higher lambda (one fewer replica).");
}
