//! Ablation C: steering encodings compared — plain IP-over-IP (§III.B),
//! label switching (§III.E) and strict source routing (the segment-routing
//! style baseline of §V). Packet-level simulation with near-MTU packets;
//! reports header overhead, fragmentation, control-plane cost and the
//! per-flow state footprint at middleboxes.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin label_switching
//!     [--flows N]     number of flows (default 200)
//!     [--pkts N]      packets per flow (default 50)
//!     [--payload N]   payload bytes (default 1470: fits the 1500 MTU bare,
//!                     exceeds it under one tunnel header or >7 SR segments)
//!     [--emulate]     emulate fragmentation/reassembly instead of counting
//!     [--seed N]      world seed (default 3)

use sdm_bench::{arg_num, ExperimentConfig, World};
use sdm_core::{EnforcementOptions, SteeringEncoding, Strategy};
use sdm_netsim::SimTime;
use sdm_workload::WorkloadConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let n_flows: usize = arg_num(&args, "--flows", 200);
    let pkts: u64 = arg_num(&args, "--pkts", 50);
    let payload: u32 = arg_num(&args, "--payload", 1470);
    let emulate = args.iter().any(|a| a == "--emulate");

    println!("# Ablation C — steering encodings (§III.B vs §III.E vs §V SR baseline),");
    println!("# campus topology, {n_flows} flows x {pkts} packets, payload {payload} B, MTU 1500.");
    let world = World::build(&ExperimentConfig::campus(seed));
    let flows = {
        let cfg = WorkloadConfig {
            flows: n_flows,
            seed: seed.wrapping_add(9),
            ..Default::default()
        };
        sdm_workload::generate_flows(&world.generated, world.controller.addr_plan(), &cfg)
    };

    let mut results = Vec::new();
    for (name, encoding) in [
        ("IP-over-IP", SteeringEncoding::IpOverIp),
        ("label-switch", SteeringEncoding::LabelSwitching),
        ("source-route", SteeringEncoding::SourceRouting),
    ] {
        let mut enf = world.controller.enforcement(
            Strategy::HotPotato,
            None,
            EnforcementOptions {
                encoding,
                ..Default::default()
            },
        );
        if emulate {
            enf.sim_mut()
                .set_fragmentation(sdm_netsim::FragmentationMode::Emulate);
        }
        for (i, f) in flows.iter().enumerate() {
            // Stagger packets so the label-ready control round trip can
            // complete between a flow's first and second packet.
            enf.inject_flow_packets(f.five_tuple, pkts, payload, SimTime(i as u64), 64);
        }
        enf.run();
        let s = enf.sim().stats().clone();
        let state: usize = world
            .deployment
            .iter()
            .map(|(id, _)| enf.mbox_state(id).lock().labels.len())
            .sum();
        results.push((name, s, state));
    }

    println!(
        "{:<14} {:>10} {:>12} {:>15} {:>11} {:>8} {:>12} {:>10} {:>10}",
        "mode", "delivered", "encap hops", "extra hdr B", "frag evts", "control", "mbox entries",
        "fragments", "reassembly"
    );
    for (name, s, state) in &results {
        println!(
            "{:<14} {:>10} {:>12} {:>15} {:>11} {:>8} {:>12} {:>10} {:>10}",
            name,
            s.delivered + s.delivered_external,
            s.encapsulated_hops,
            s.extra_header_bytes,
            s.frag_events,
            s.control_received,
            state,
            s.fragments_created,
            s.reassembly_events,
        );
    }
    let (_, tunnel, _) = &results[0];
    let (_, label, _) = &results[1];
    let (_, sr, _) = &results[2];
    assert_eq!(
        tunnel.delivered + tunnel.delivered_external,
        label.delivered + label.delivered_external,
        "all modes must deliver identically"
    );
    assert_eq!(
        tunnel.delivered + tunnel.delivered_external,
        sr.delivered + sr.delivered_external,
        "all modes must deliver identically"
    );
    println!(
        "# fragmentation avoided by label switching: {:.1}% of tunnel-mode events",
        100.0 * (1.0 - label.frag_events as f64 / tunnel.frag_events.max(1) as f64)
    );
    println!("# expected shape: label switching ~eliminates encapsulation and");
    println!("# fragmentation at the cost of per-flow middlebox state + one control");
    println!("# packet per flow; source routing needs no state but pays header");
    println!("# bytes on every packet (and fragments when segments push the packet");
    println!("# past the MTU), which is the overhead §V argues against.");
}
