//! Ablation D: effectiveness of the §III.D flow cache — per-packet hit
//! rates at the proxies under the evaluation workload (packet-level
//! simulation), and the per-lookup cost of the compiled tuple-space
//! classifier versus the linear scan as the policy table grows.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin flow_cache
//!     [--packets N]  total packets, packet-level (default 200000)
//!     [--seed N]     world seed (default 3)

use std::time::Instant;

use sdm_bench::{arg_num, ExperimentConfig, World};
use sdm_core::Strategy;
use sdm_netsim::{FiveTuple, Ipv4Addr, Prefix, Protocol, SimTime, StubId};
use sdm_policy::{ActionList, ClassifierKind, LocalClassifier, NetworkFunction, Policy,
                 PolicySet, PortMatch, TrafficDescriptor};
use sdm_workload::generate_flows_with_total;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let total: u64 = arg_num(&args, "--packets", 200_000);

    println!("# Ablation D — flow-cache hit rate and classifier cost,");
    println!("# campus topology, {total} packets injected individually.");
    let world = World::build(&ExperimentConfig::campus(seed));
    let flows = generate_flows_with_total(
        &world.generated,
        world.controller.addr_plan(),
        &Default::default(),
        total,
    );

    let mut enf = world
        .controller
        .enforcement(Strategy::HotPotato, None, Default::default());
    for (i, f) in flows.iter().enumerate() {
        enf.inject_flow_packets(f.five_tuple, f.packets, 512, SimTime(i as u64 % 1000), 5);
    }
    enf.run();

    let (mut hits, mut misses) = (0u64, 0u64);
    for s in 0..world.controller.addr_plan().stub_count() {
        let st = enf.proxy_state(StubId(s as u32));
        let stats = st.lock().flows.stats();
        hits += stats.hits;
        misses += stats.misses;
    }
    let pkts: u64 = flows.iter().map(|f| f.packets).sum();
    println!(
        "{} flows, {} packets: {} cache hits, {} misses",
        flows.len(),
        pkts,
        hits,
        misses
    );
    println!(
        "hit rate: {:.2}% (multi-field classification for only {:.2}% of packets;",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
        100.0 * misses as f64 / (hits + misses).max(1) as f64,
    );
    println!(
        "ideal = one miss per flow = {:.2}%)",
        100.0 * flows.len() as f64 / pkts as f64
    );

    // Classifier micro-cost: linear scan vs compiled tuple-space index,
    // growing policy-table sizes (synthetic prefix policies).
    println!("\n# classifier cost per lookup vs policy-table size");
    println!("{:>9} {:>14} {:>14}", "policies", "linear", "compiled");
    let sample: Vec<FiveTuple> = (0..50_000u32)
        .map(|i| FiveTuple {
            src: Ipv4Addr(0x0a000000 | (i * 97) & 0xFFFFF),
            dst: Ipv4Addr(0x0a000000 | (i * 131) & 0xFFFFF),
            src_port: (i % 50_000) as u16,
            dst_port: (i % 64) as u16 * 16,
            proto: Protocol::Tcp,
        })
        .collect();
    for n in [30usize, 300, 3000] {
        let table = synthetic_policies(n).project_all();
        let [(acc, linear), (acc2, compiled)] =
            [ClassifierKind::Linear, ClassifierKind::TupleSpace].map(|kind| {
                let classifier = LocalClassifier::new(table.clone(), kind);
                let t = Instant::now(); // lint:allow(wall-clock)
                let mut acc = 0usize;
                for ft in &sample {
                    acc += classifier.first_match(ft).map_or(0, |(id, _)| id.index());
                }
                (acc, t.elapsed())
            });
        assert_eq!(acc, acc2, "classifiers must agree at n={n}");
        println!(
            "{:>9} {:>12?}/l {:>12?}/l",
            n,
            linear / sample.len() as u32,
            compiled / sample.len() as u32
        );
    }
    println!("# expected shape: near-ideal hit rate; compiled lookup cost stays flat");
    println!("# while the linear scan grows with the table.");
}

/// Synthetic single-field-heavy policies spread over 10.0.0.0/8 prefixes.
fn synthetic_policies(n: usize) -> PolicySet {
    let mut set = PolicySet::new();
    for i in 0..n {
        let src = Prefix::new(Ipv4Addr(0x0a000000 | ((i as u32 * 4096) & 0xFFFFFF)), 20);
        let d = TrafficDescriptor::new()
            .src_prefix(src)
            .dst_port(PortMatch::Exact((i % 1024) as u16));
        set.push(Policy::new(d, ActionList::chain([NetworkFunction::Ids])));
    }
    set
}
