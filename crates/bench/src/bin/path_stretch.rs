//! Ablation G: the routing cost of policy enforcement — average link hops
//! per delivered packet with middlebox steering versus plain shortest-path
//! delivery, per strategy. Quantifies the "detour" price of hot-potato
//! steering and how load balancing trades extra distance for lower peak
//! load.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin path_stretch
//!     [--packets N]  total packets (default 1000000)
//!     [--seed N]     world seed (default 3)

use sdm_bench::{arg_num, ExperimentConfig, World};
use sdm_core::{LbOptions, Strategy};
use sdm_netsim::{Packet, Simulator};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let total: u64 = arg_num(&args, "--packets", 1_000_000);

    println!("# Ablation G — path stretch of policy enforcement,");
    println!("# campus topology, {total} packets.");
    let world = World::build(&ExperimentConfig::campus(seed));
    let flows = world.flows(total, seed.wrapping_add(33));

    // Baseline: the same packets with no proxies/middleboxes at all.
    let mut plain = Simulator::new(world.controller.plan());
    for f in &flows {
        let stub = plain.addresses().stub_of(f.five_tuple.src).unwrap();
        plain.inject_from_stub(stub, Packet::with_weight(f.five_tuple, 512, f.packets));
    }
    plain.run_until_idle();
    let plain_delivered = plain.stats().delivered + plain.stats().delivered_external;
    let base = plain.stats().link_hops as f64 / plain_delivered.max(1) as f64;
    println!(
        "{:<14} {:>12} {:>14} {:>10}",
        "configuration", "delivered", "hops/packet", "stretch"
    );
    println!("{:<14} {:>12} {:>14.3} {:>9.2}x", "no policies", plain_delivered, base, 1.0);

    let hp = world.run_strategy(Strategy::HotPotato, None, &flows);
    let (w, _) = world
        .controller
        .solve_load_balanced(&hp.measurements, LbOptions::default())
        .expect("LP solves");
    for (name, run) in [
        ("hot-potato", world.run_strategy(Strategy::HotPotato, None, &flows)),
        ("random", world.run_strategy(Strategy::Random { salt: 7 }, None, &flows)),
        ("load-balanced", world.run_strategy(Strategy::LoadBalanced, Some(w), &flows)),
    ] {
        // link_hops counted inside the strategy run's simulator
        let hops = run.hops_per_packet();
        println!(
            "{:<14} {:>12} {:>14.3} {:>9.2}x",
            name,
            run.delivered,
            hops,
            hops / base
        );
    }
    println!("# expected shape: enforcement costs extra hops (the chain detour);");
    println!("# hot-potato has the shortest detours by construction, LB pays a");
    println!("# modest extra stretch for its balanced load.");
}
