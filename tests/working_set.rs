//! The simulator's working set follows the traffic in flight, not the
//! size of the workload: a paced packet-level run holds a small fraction
//! of its packets in the arena and the event queue at any one time. This
//! is the deterministic count behind the benchmark's `peak_rss_mb` on the
//! paced workloads — no wall clock, no allocator. Likewise, routing state
//! follows the destinations traffic is sent to, not the node count, the
//! per-packet state that does not fit a packet record lives and dies
//! with its packet, and the soft-state tables hold the flows alive within
//! one TTL, not every flow the run has seen.

use std::collections::BTreeSet;

use sdm::core::{
    Controller, Deployment, Enforcement, EnforcementOptions, KConfig, MiddleboxId, MiddleboxSpec,
    SteeringEncoding, Strategy,
};
use sdm::netsim::{FiveTuple, FragmentationMode, Label, Packet, Protocol, SimTime, StubId};
use sdm::policy::{
    ActionList, FlowTable, LabelKey, LabelTable, NetworkFunction, Policy, PolicyId, PolicySet,
    TrafficDescriptor,
};
use sdm::topology::hierarchical::{hierarchical, HierarchicalConfig};
use sdm_bench::{ExperimentConfig, World};
use sdm_workload::WorkloadConfig;

mod common;
use common::compare;

const FLOWS: usize = 200;
const PACKETS_PER_FLOW: u64 = 500;
const PAYLOAD: u32 = 512;
/// Flow `i` starts at tick `i × STRIDE` and sends one packet every `GAP`
/// ticks (the `campus_pkt_label_paced` schedule).
const STRIDE: u64 = 1;
const GAP: u64 = 4;

#[test]
fn paced_run_holds_the_in_flight_window_not_the_workload() {
    let world = World::build(&ExperimentConfig::campus(3));
    let flows = sdm_workload::generate_flows(
        &world.generated,
        world.controller.addr_plan(),
        &WorkloadConfig {
            flows: FLOWS,
            seed: 5,
            ..Default::default()
        },
    );
    let fresh = || -> Enforcement {
        let options = EnforcementOptions {
            encoding: SteeringEncoding::LabelSwitching,
            ..Default::default()
        };
        world
            .controller
            .enforcement(Strategy::HotPotato, None, options)
    };

    let mut streamed = fresh();
    for (i, f) in flows.iter().enumerate() {
        let start = SimTime(i as u64 * STRIDE);
        streamed.inject_flow_packets(f.five_tuple, PACKETS_PER_FLOW, PAYLOAD, start, GAP);
    }
    streamed.run();

    let packets = FLOWS as u64 * PACKETS_PER_FLOW;
    let sim = streamed.sim();
    let stats = sim.stats();
    assert_eq!(stats.delivered + stats.delivered_external, packets);
    assert!(stats.control_received > 0, "label switching sends control packets");
    assert_eq!(
        sim.arena().allocations(),
        packets + stats.control_received,
        "one allocation per data packet and per control packet"
    );
    assert_eq!(sim.arena().in_use(), 0);
    let bound = packets as usize / 20;
    assert!(
        sim.arena().high_water() < bound,
        "{} packet slots for {packets} packets",
        sim.arena().high_water()
    );
    assert!(
        sim.queue_high_water() < bound,
        "{} events in flight for {packets} packets",
        sim.queue_high_water()
    );

    // The same schedule registered packet by packet is the same run.
    let mut expanded = fresh();
    let addrs = world.controller.addr_plan();
    for (i, f) in flows.iter().enumerate() {
        let stub = addrs.stub_of(f.five_tuple.src).expect("flows start in a stub");
        for k in 0..PACKETS_PER_FLOW {
            let at = SimTime(i as u64 * STRIDE + k * GAP);
            expanded
                .sim_mut()
                .inject_from_stub_at(stub, Packet::data(f.five_tuple, PAYLOAD), at);
        }
    }
    expanded.run();
    compare(&expanded.snapshot(), &streamed.snapshot(), "streamed vs per-packet")
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        expanded.sim().arena().allocations(),
        sim.arena().allocations()
    );
}

/// One-packet flows, one per tick, under a TTL a hundredth of the run:
/// every flow matches a policy, so each leaves a positive flow entry at
/// its proxy and at the firewall and a label entry at the firewall, and
/// none is ever looked up again. The insert path alone must reclaim them:
/// every flow and label table stays within what the flows of one TTL
/// window need — in entries at the end, and in bytes at its peak — not
/// what the workload's 20,000 flows would.
#[test]
fn flow_state_follows_live_flows_not_the_workload() {
    use NetworkFunction::Firewall;
    const ONE_PACKET_FLOWS: u64 = 20_000;
    const TTL: u64 = 200;
    let plan = sdm::topology::campus::campus(1);
    let mut dep = Deployment::new();
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
    let mut policies = PolicySet::new();
    policies.push(Policy::new(TrafficDescriptor::new(), ActionList::chain([Firewall])));
    let c = Controller::new(plan, dep, policies, KConfig::uniform(1));
    let options = EnforcementOptions {
        encoding: SteeringEncoding::LabelSwitching,
        flow_ttl: TTL,
        label_ttl: TTL,
        ..Default::default()
    };
    let mut enf = c.enforcement(Strategy::HotPotato, None, options);
    let addrs = c.addr_plan();
    let stubs = addrs.stubs().count() as u32;
    let flow = |i: u64| {
        let s = i as u32 % stubs;
        FiveTuple {
            src: addrs.host(StubId(s), 1 + i as u32 % 200),
            dst: addrs.host(StubId((s + 1) % stubs), 1),
            src_port: (i % 60_000) as u16,
            dst_port: 80,
            proto: Protocol::Tcp,
        }
    };
    for i in 0..ONE_PACKET_FLOWS {
        enf.inject_flow_packets(flow(i), 1, PAYLOAD, SimTime(i), 1);
    }
    enf.run();
    let stats = enf.sim().stats();
    assert_eq!(stats.delivered + stats.delivered_external, ONE_PACKET_FLOWS);

    // What the flows of one TTL window occupy, with room to spare: tables
    // holding four windows' worth.
    let actions = ActionList::chain([Firewall]);
    let mut flow_window = FlowTable::new(TTL);
    let mut label_window = LabelTable::new(TTL);
    for i in 0..4 * TTL {
        flow_window.insert_positive(flow(i), PolicyId(0), &actions, SimTime(0));
        let key = LabelKey {
            src: flow(i).src,
            label: Label(i as u16),
        };
        label_window.insert(key, actions.clone(), PolicyId(0), 0, None, None, SimTime(0));
    }
    let fw = enf.mbox_state(MiddleboxId(0));
    let fw = fw.lock();
    assert_eq!(fw.flows.stats().misses, ONE_PACKET_FLOWS, "every flow met the firewall");
    let mut tables: Vec<(usize, usize, usize)> = addrs
        .stubs()
        .map(|s| {
            let p = enf.proxy_state(s);
            let p = p.lock();
            (p.flows.len(), p.flows.allocated_bytes(), flow_window.allocated_bytes())
        })
        .collect();
    tables.push((fw.flows.len(), fw.flows.allocated_bytes(), flow_window.allocated_bytes()));
    tables.push((fw.labels.len(), fw.labels.allocated_bytes(), label_window.allocated_bytes()));
    for (len, bytes, window) in tables {
        assert!(len as u64 <= TTL, "{len} entries resident after the run");
        assert!(
            bytes <= window,
            "{bytes} bytes of table at its peak, {window} for four TTL windows of flows"
        );
    }
    assert!(fw.flows.stats().expired > 0, "flow entries were reclaimed");
    assert!(fw.labels.expired() > 0, "label entries were reclaimed");
}

/// What a 64-byte packet record cannot hold lives beside the arena and is
/// freed with the packet: a strict source route's pending segments, and
/// an emulated fragmentation's parked parent. A `SourceRouting` run, one
/// that also fragments (the parent parks holding its route), and a
/// label-switching one that fragments during setup all end with both
/// side tables empty, every slot free, and the arena allocating once per
/// data packet, control packet and fragment.
#[test]
fn source_route_state_is_freed_with_its_packet() {
    let world = World::build(&ExperimentConfig::campus(3));
    let flows = sdm_workload::generate_flows(
        &world.generated,
        world.controller.addr_plan(),
        &WorkloadConfig {
            flows: 60,
            seed: 9,
            ..Default::default()
        },
    );
    const PER_FLOW: u64 = 20;
    let runs = [
        (
            SteeringEncoding::SourceRouting,
            512,
            FragmentationMode::CountOnly,
        ),
        // 1470 B payload + inner header fits the 1500 B MTU; any pending
        // segment or tunnel header pushes it over
        (
            SteeringEncoding::SourceRouting,
            1470,
            FragmentationMode::Emulate,
        ),
        (
            SteeringEncoding::LabelSwitching,
            1470,
            FragmentationMode::Emulate,
        ),
    ];
    for (encoding, payload, fragmentation) in runs {
        let case = format!("{encoding:?}, {payload} B, {fragmentation:?}");
        let options = EnforcementOptions {
            encoding,
            ..Default::default()
        };
        let mut enf = world
            .controller
            .enforcement(Strategy::HotPotato, None, options);
        enf.sim_mut().set_fragmentation(fragmentation);
        for (i, f) in flows.iter().enumerate() {
            enf.inject_flow_packets(f.five_tuple, PER_FLOW, payload, SimTime(i as u64), 3);
        }
        enf.run();
        let run = enf.snapshot();
        let sim = enf.sim();
        let stats = sim.stats();
        let packets = flows.len() as u64 * PER_FLOW;
        assert_eq!(
            stats.delivered + stats.delivered_external,
            packets,
            "{case}"
        );
        assert_eq!(sim.arena().in_use(), 0, "{case}");
        assert_eq!(
            sim.arena().routes_in_use(),
            0,
            "{case}: source routes freed"
        );
        assert_eq!(
            sim.pending_reassemblies(),
            0,
            "{case}: every split reassembled"
        );
        assert_eq!(
            sim.arena().allocations(),
            packets + stats.control_received + stats.fragments_created,
            "{case}: one allocation per data packet, control packet and fragment"
        );
        let steered: u64 = run.proxy_counters.iter().map(|c| c.steered).sum();
        assert!(steered > 0, "{case}: policy traffic was steered");
        if encoding == SteeringEncoding::SourceRouting {
            let routed: u64 = run.mbox_counters.iter().map(|c| c.source_routed_in).sum();
            assert!(routed > 0, "{case}: middleboxes advanced source routes");
        }
        if fragmentation == FragmentationMode::Emulate {
            assert!(
                stats.fragments_created > 0,
                "{case}: near-MTU packets fragment"
            );
            assert!(stats.reassembly_events > 0, "{case}");
        }
    }
}

/// Routing state follows the destinations packets are sent to, not the
/// topology: on the 21,130-node hierarchical fabric (20,480 stubs) the
/// controller and the simulator each fill only the routing rows their
/// traffic needs.
#[test]
fn routing_rows_follow_destinations() {
    let plan = hierarchical(&HierarchicalConfig::large(), 1);
    assert_eq!(plan.topology().node_count(), 21_130);
    let deployment = Deployment::evaluation_default(&plan, 7);
    let mut policies = PolicySet::new();
    policies.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([NetworkFunction::Firewall, NetworkFunction::Ids]),
    ));
    // Routers the controller routes towards: middleboxes and gateways.
    let mut targets: BTreeSet<usize> = deployment.iter().map(|(_, s)| s.router.index()).collect();
    targets.extend(plan.gateways().iter().map(|g| g.index()));
    let controller = Controller::new(plan, deployment, policies, KConfig::paper_default());
    let mut enf = controller.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());

    // 300 flows among 8 stubs spread over the fabric, half of them web,
    // and one more to the last stub.
    let addrs = controller.addr_plan();
    let stubs: Vec<StubId> = (0..8).map(|i| StubId(i * 2_560)).collect();
    let last = StubId(20_479);
    let controller_rows = targets.len();
    let mut injected = 0;
    for i in 0..301u32 {
        let (src, dst) = match i {
            300 => (stubs[0], last),
            _ => (stubs[i as usize % 8], stubs[(i as usize * 3 + 1) % 8]),
        };
        targets.insert(addrs.edge_router(dst).index());
        let ft = FiveTuple {
            src: addrs.host(src, 1),
            dst: addrs.host(dst, 2),
            src_port: 1_000 + i as u16,
            dst_port: if i % 2 == 0 { 80 } else { 443 },
            proto: Protocol::Tcp,
        };
        enf.inject_flow(ft, 4, 500);
        injected += 4;
    }
    enf.run();
    assert_eq!(enf.sim().stats().delivered, injected);

    let sim_rows = targets.len();
    assert!(
        controller.routes().rows_built() <= controller_rows,
        "controller built {} rows for {controller_rows} box/gateway routers",
        controller.routes().rows_built()
    );
    assert!(
        enf.sim().routes().rows_built() <= sim_rows,
        "simulator built {} rows for {sim_rows} destination/box/gateway routers",
        enf.sim().routes().rows_built()
    );
}
