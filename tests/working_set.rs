//! The simulator's working set follows the traffic in flight, not the
//! size of the workload: a paced packet-level run holds a small fraction
//! of its packets in the arena and the event queue at any one time. This
//! is the deterministic count behind the benchmark's `peak_rss_mb` on the
//! paced workloads — no wall clock, no allocator. Likewise, routing state
//! follows the destinations traffic is sent to, not the node count.

use std::collections::BTreeSet;

use sdm::core::{
    Controller, Deployment, Enforcement, EnforcementOptions, KConfig, SteeringEncoding, Strategy,
};
use sdm::netsim::{FiveTuple, Packet, Protocol, SimTime, StubId};
use sdm::policy::{ActionList, NetworkFunction, Policy, PolicySet, TrafficDescriptor};
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

/// Routing state follows the destinations packets are sent to, not the
/// topology: on a 4,490-node hierarchical world the controller and the
/// simulator each fill only the routing rows their traffic needs.
#[test]
fn routing_rows_follow_destinations() {
    let plan = hierarchical(
        &HierarchicalConfig {
            edges_per_router: 6,
            ..HierarchicalConfig::large()
        },
        1,
    );
    assert_eq!(plan.topology().node_count(), 4_490);
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

    // 300 flows among 8 stubs spread over the fabric, half of them web.
    let addrs = controller.addr_plan();
    let stubs: Vec<StubId> = (0..8).map(|i| StubId(i * 480)).collect();
    let controller_rows = targets.len();
    let mut injected = 0;
    for i in 0..300u32 {
        let (src, dst) = (stubs[i as usize % 8], stubs[(i as usize * 3 + 1) % 8]);
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
