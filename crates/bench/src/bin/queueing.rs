//! Ablation H: what load imbalance *costs* — give every middlebox the same
//! finite processing rate and measure queueing delay under hot-potato,
//! random and load-balanced enforcement. Peak load translates directly
//! into waiting time at the hottest box, which is why the paper minimizes
//! the maximum load factor λ.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin queueing
//!     [--flows N]    flows (default 4000, packet-level)
//!     [--window N]   arrival window in ticks (default 2000000)
//!     [--service N]  middlebox service ticks per packet (default 150)
//!     [--seed N]     world seed (default 3)
//!
//! This experiment is **not shard-safe**: finite service rates make flows
//! contend for the same middlebox queues, so splitting them across
//! independent shard engines would change every waiting time. It therefore
//! ignores `SDM_SHARDS` and always runs single-shard
//! ([`sdm_core::resolve_shards`] with `shard_safe = false`).

use sdm_bench::{arg_num, ExperimentConfig, World};
use sdm_core::{resolve_shards, EnforcementOptions, LbOptions, Strategy};
use sdm_netsim::SimTime;
use sdm_util::par::shard_count;
use sdm_workload::WorkloadConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Shared middlebox queues couple the flows: force the single-shard
    // fallback no matter what SDM_SHARDS asks for.
    let shards = resolve_shards(shard_count(), false);
    assert_eq!(shards, 1);
    if shard_count() > 1 {
        eprintln!("[queueing] shared-queue experiment: ignoring SDM_SHARDS, running 1 shard");
    }
    let seed: u64 = arg_num(&args, "--seed", 3);
    let n_flows: usize = arg_num(&args, "--flows", 4000);
    let window: u64 = arg_num(&args, "--window", 2_000_000);
    let service: u64 = arg_num(&args, "--service", 150);

    println!("# Ablation H — queueing delay under finite middlebox capacity,");
    println!("# campus topology, {n_flows} flows over a {window}-tick window,");
    println!("# service time {service} ticks/packet at every middlebox.");
    let world = World::build(&ExperimentConfig::campus(seed));
    let flows = sdm_workload::generate_flows(
        &world.generated,
        world.controller.addr_plan(),
        &WorkloadConfig {
            flows: n_flows,
            seed: seed.wrapping_add(23),
            ..Default::default()
        },
    );
    let total_pkts: u64 = flows.iter().map(|f| f.packets.min(50)).sum();
    println!("# {total_pkts} packets injected");

    // LB weights from an (unqueued) measurement pass.
    let mut measure = world
        .controller
        .enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    for f in &flows {
        measure.inject_flow(f.five_tuple, f.packets.min(50), 300);
    }
    measure.run();
    let (weights, _) = world
        .controller
        .solve_load_balanced(&measure.measurements(), LbOptions::default())
        .expect("LP solves");

    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "strategy", "delivered", "avg wait", "max wait", "avg e2e", "max e2e"
    );
    for (name, strategy, w) in [
        ("hot-potato", Strategy::HotPotato, None),
        ("random", Strategy::Random { salt: 5 }, None),
        ("load-balanced", Strategy::LoadBalanced, Some(weights)),
    ] {
        let mut enf = world
            .controller
            .enforcement(strategy, w, EnforcementOptions::default());
        enf.set_middlebox_service_time(service);
        // Poisson-ish arrivals: flow i starts at a hashed offset in the
        // window, its packets spaced 64 ticks apart.
        for (i, f) in flows.iter().enumerate() {
            let start = (i as u64).wrapping_mul(2654435761) % window;
            enf.inject_flow_packets(f.five_tuple, f.packets.min(50), 300, SimTime(start), 64);
        }
        enf.run();
        let s = enf.sim().stats();
        let delivered = s.delivered + s.delivered_external;
        println!(
            "{:<14} {:>12} {:>12.1} {:>12} {:>12.1} {:>12}",
            name,
            delivered,
            s.device_wait_total as f64 / delivered.max(1) as f64,
            s.device_wait_max,
            s.avg_latency(),
            s.latency_max
        );
    }
    println!("# expected shape: load balancing cuts both the average and the worst");
    println!("# queueing delay versus hot-potato — the operational payoff of a");
    println!("# smaller maximum load factor.");
}
