//! Integration tests of the §III.E label-switching enhancement: exact
//! behavioural equivalence with IP-over-IP steering, fragmentation
//! avoidance, and soft-state edge cases.

use sdm::core::{EnforcementOptions, Strategy};
use sdm::netsim::SimTime;
use sdm_bench::{ExperimentConfig, World};
use sdm_workload::WorkloadConfig;

fn options(label_switching: bool) -> EnforcementOptions {
    EnforcementOptions {
        encoding: if label_switching {
            sdm::core::SteeringEncoding::LabelSwitching
        } else {
            sdm::core::SteeringEncoding::IpOverIp
        },
        ..Default::default()
    }
}

/// Same flows, packet-level, both modes: identical delivery and identical
/// per-middlebox loads (the steering decision is the same; only the
/// encoding differs).
#[test]
fn label_switching_is_load_equivalent_to_tunneling() {
    let world = World::build(&ExperimentConfig::campus(3));
    let flows = sdm_workload::generate_flows(
        &world.generated,
        world.controller.addr_plan(),
        &WorkloadConfig {
            flows: 80,
            seed: 5,
            ..Default::default()
        },
    );
    let mut results = Vec::new();
    for ls in [false, true] {
        let mut enf = world
            .controller
            .enforcement(Strategy::HotPotato, None, options(ls));
        for (i, f) in flows.iter().enumerate() {
            enf.inject_flow_packets(
                f.five_tuple,
                f.packets.min(20),
                800,
                SimTime(i as u64),
                150,
            );
        }
        enf.run();
        results.push((
            enf.sim().stats().delivered + enf.sim().stats().delivered_external,
            enf.middlebox_loads(),
            enf.sim().stats().encapsulated_hops,
            enf.sim().stats().frag_events,
        ));
    }
    let (d0, l0, enc0, _frag0) = &results[0];
    let (d1, l1, enc1, _frag1) = &results[1];
    assert_eq!(d0, d1, "delivery must match");
    assert_eq!(l0, l1, "middlebox loads must match");
    assert!(enc1 < enc0, "label mode must encapsulate less");
}

/// With near-MTU packets, tunnel mode fragments on every encapsulated hop;
/// label mode fragments only while setting up (first packet of each flow).
#[test]
fn fragmentation_only_during_setup_under_label_switching() {
    let world = World::build(&ExperimentConfig::campus(3));
    let flows = sdm_workload::generate_flows(
        &world.generated,
        world.controller.addr_plan(),
        &WorkloadConfig {
            flows: 30,
            seed: 5,
            ..Default::default()
        },
    );
    let mut frag = Vec::new();
    for ls in [false, true] {
        let mut enf = world
            .controller
            .enforcement(Strategy::HotPotato, None, options(ls));
        for (i, f) in flows.iter().enumerate() {
            // payload 1470: inner packet 1490 <= MTU, tunneled 1510 > MTU
            enf.inject_flow_packets(f.five_tuple, 10, 1470, SimTime(i as u64), 200);
        }
        enf.run();
        frag.push(enf.sim().stats().frag_events);
    }
    assert!(frag[0] > 0, "tunnel mode must fragment near-MTU packets");
    assert!(
        frag[1] * 5 <= frag[0],
        "label mode must avoid most fragmentation: {} vs {}",
        frag[1],
        frag[0]
    );
}

/// A flow-cache expiry mid-flow falls back to the slow path and re-tunnels
/// (a fresh label): traffic keeps flowing, nothing is lost.
#[test]
fn cache_expiry_mid_flow_recovers() {
    let world = World::build(&ExperimentConfig::campus(3));
    let mut opts = options(true);
    opts.flow_ttl = 500; // expires between widely spaced packets
    opts.label_ttl = 500;
    let mut enf = world
        .controller
        .enforcement(Strategy::HotPotato, None, opts);
    let flows = sdm_workload::generate_flows(
        &world.generated,
        world.controller.addr_plan(),
        &WorkloadConfig {
            flows: 1,
            seed: 5,
            ..Default::default()
        },
    );
    let ft = flows[0].five_tuple;
    // 10 packets spaced 2000 ticks apart: every packet finds its cache
    // entry expired and restarts flow setup
    enf.inject_flow_packets(ft, 10, 400, SimTime(0), 2000);
    enf.run();
    assert_eq!(
        enf.sim().stats().delivered + enf.sim().stats().delivered_external,
        10,
        "all packets delivered despite expiry"
    );
    let src_stub = world.controller.addr_plan().stub_of(ft.src).unwrap();
    let st = enf.proxy_state(src_stub);
    let stats = st.lock().flows.stats();
    assert!(stats.expired >= 9, "expiries observed: {stats:?}");
}

/// Strict source routing delivers identically to tunneling (same boxes in
/// the same order for every flow) while leaving zero per-flow state at
/// middleboxes.
#[test]
fn source_routing_is_load_equivalent_and_stateless() {
    let world = World::build(&ExperimentConfig::campus(3));
    let flows = sdm_workload::generate_flows(
        &world.generated,
        world.controller.addr_plan(),
        &WorkloadConfig {
            flows: 60,
            seed: 5,
            ..Default::default()
        },
    );
    let mut outcomes = Vec::new();
    for encoding in [
        sdm::core::SteeringEncoding::IpOverIp,
        sdm::core::SteeringEncoding::SourceRouting,
    ] {
        let mut enf = world.controller.enforcement(
            Strategy::HotPotato,
            None,
            EnforcementOptions {
                encoding,
                ..Default::default()
            },
        );
        for (i, f) in flows.iter().enumerate() {
            enf.inject_flow_packets(f.five_tuple, f.packets.min(10), 400, SimTime(i as u64), 50);
        }
        enf.run();
        let state: u64 = enf.snapshot().footprint.mbox_label_entries.iter().sum();
        outcomes.push((
            enf.sim().stats().delivered + enf.sim().stats().delivered_external,
            enf.middlebox_loads(),
            state,
            enf.sim().stats().encapsulated_hops,
        ));
    }
    let (d_tun, loads_tun, _, enc_tun) = &outcomes[0];
    let (d_sr, loads_sr, state_sr, enc_sr) = &outcomes[1];
    assert_eq!(d_tun, d_sr, "identical delivery");
    assert_eq!(loads_tun, loads_sr, "identical middlebox loads");
    assert_eq!(*state_sr, 0, "SR leaves no middlebox state");
    assert_eq!(*enc_sr, 0, "SR never encapsulates");
    assert!(*enc_tun > 0);
}

/// Label-switched packets whose label table entry has expired are dropped
/// and counted, never mis-delivered.
#[test]
fn label_miss_drops_are_counted() {
    let world = World::build(&ExperimentConfig::campus(3));
    // proxy keeps its flow entry alive (long flow ttl) but the middlebox
    // label tables expire quickly -> label-switched packet hits a miss
    let opts = EnforcementOptions {
        encoding: sdm::core::SteeringEncoding::LabelSwitching,
        label_ttl: 100,
        ..Default::default()
    };
    let mut enf = world
        .controller
        .enforcement(Strategy::HotPotato, None, opts);
    let flows = sdm_workload::generate_flows(
        &world.generated,
        world.controller.addr_plan(),
        &WorkloadConfig {
            flows: 1,
            seed: 5,
            ..Default::default()
        },
    );
    let ft = flows[0].five_tuple;
    enf.inject_flow_packets(ft, 6, 400, SimTime(0), 3000);
    enf.run();
    let stats = enf.sim().stats();
    let delivered = stats.delivered + stats.delivered_external;
    // first packet delivers via tunnels; later label-switched ones find
    // expired label entries somewhere and are dropped + counted
    assert!(delivered < 6, "some label misses expected");
    let misses: u64 = enf.snapshot().mbox_counters.iter().map(|c| c.label_misses).sum();
    assert!(misses > 0, "label misses must be counted");
    assert_eq!(delivered + misses, 6, "every packet accounted for");
}
