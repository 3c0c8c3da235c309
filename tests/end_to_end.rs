//! Workspace integration tests: full controller → proxy → middlebox
//! pipelines, verifying chain traversal order, multi-policy enforcement,
//! and inbound/outbound handling.

use sdm::core::{
    Controller, Deployment, EnforcementOptions, KConfig, SteeringEncoding, MiddleboxSpec, Strategy,
};
use sdm::netsim::{FiveTuple, Packet, Protocol, SimTime, StubId, MAX_TUNNEL_DEPTH};
use sdm::policy::{
    ActionList, LabelKey, NetworkFunction, Policy, PolicySet, TrafficDescriptor,
};
use sdm::topology::campus::campus;

use NetworkFunction::*;

fn flow(c: &Controller, from: u32, to: u32, sp: u16, dp: u16) -> FiveTuple {
    FiveTuple {
        src: c.addr_plan().host(StubId(from), 0),
        dst: c.addr_plan().host(StubId(to), 0),
        src_port: sp,
        dst_port: dp,
        proto: Protocol::Tcp,
    }
}

/// One box per function; the label tables left behind prove the traversal
/// order: the first box's entry points at the second box, the last box's
/// entry carries the final destination.
#[test]
fn chain_order_is_enforced() {
    let plan = campus(2);
    let mut dep = Deployment::new();
    let fw = dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
    let ids = dep.add(MiddleboxSpec::new(Ids, plan.cores()[9], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Firewall, Ids]),
    ));
    let c = Controller::new(plan, dep, pol, KConfig::uniform(1));
    let mut enf = c.enforcement(
        Strategy::HotPotato,
        None,
        EnforcementOptions {
            encoding: SteeringEncoding::LabelSwitching,
            ..Default::default()
        },
    );
    let ft = flow(&c, 0, 6, 1000, 80);
    enf.inject_flow_packets(ft, 5, 500, SimTime(0), 300);
    enf.run();
    assert_eq!(enf.sim().stats().delivered, 5);

    // FW's label entry must point at IDS (the *next* hop), not at the
    // destination; IDS's entry must store the final destination.
    let fw_state = enf.mbox_state(fw);
    let ids_state = enf.mbox_state(ids);
    let ids_addr = enf.config().mbox_addr(ids);
    let mut fw_tbl = fw_state.lock();
    let mut ids_tbl = ids_state.lock();
    assert_eq!(fw_tbl.labels.len(), 1);
    assert_eq!(ids_tbl.labels.len(), 1);
    // find the key via the known flow source + label 0 (first allocation)
    let key = LabelKey {
        src: ft.src,
        label: sdm::netsim::Label(0),
    };
    let fw_entry = fw_tbl.labels.lookup(key, SimTime(10_000)).expect("FW entry");
    assert_eq!(fw_entry.next_hop, Some(ids_addr), "FW must forward to IDS");
    assert_eq!(fw_entry.final_dst, None);
    let ids_entry = ids_tbl.labels.lookup(key, SimTime(10_000)).expect("IDS entry");
    assert_eq!(ids_entry.next_hop, None);
    assert_eq!(ids_entry.final_dst, Some(ft.dst), "IDS must restore dst");
}

/// Reversing the action list reverses the label-table roles.
#[test]
fn reversed_chain_reverses_roles() {
    let plan = campus(2);
    let mut dep = Deployment::new();
    let fw = dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
    let ids = dep.add(MiddleboxSpec::new(Ids, plan.cores()[9], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Ids, Firewall]), // reversed
    ));
    let c = Controller::new(plan, dep, pol, KConfig::uniform(1));
    let mut enf = c.enforcement(
        Strategy::HotPotato,
        None,
        EnforcementOptions {
            encoding: SteeringEncoding::LabelSwitching,
            ..Default::default()
        },
    );
    let ft = flow(&c, 0, 6, 1000, 80);
    enf.inject_flow_packets(ft, 3, 500, SimTime(0), 300);
    enf.run();
    assert_eq!(enf.sim().stats().delivered, 3);
    let key = LabelKey {
        src: ft.src,
        label: sdm::netsim::Label(0),
    };
    let fw_addr = enf.config().mbox_addr(fw);
    let ids_state = enf.mbox_state(ids);
    let mut ids_tbl = ids_state.lock();
    let e = ids_tbl.labels.lookup(key, SimTime(10_000)).expect("IDS entry");
    assert_eq!(e.next_hop, Some(fw_addr), "IDS now forwards to FW");
    let fw_state = enf.mbox_state(fw);
    let mut fw_tbl = fw_state.lock();
    let e = fw_tbl.labels.lookup(key, SimTime(10_000)).expect("FW entry");
    assert_eq!(e.final_dst, Some(ft.dst), "FW is now the last hop");
}

/// First-match semantics across proxies: a more specific early policy wins
/// over a later wildcard one.
#[test]
fn first_match_priority_respected_in_network() {
    let plan = campus(2);
    let mut dep = Deployment::new();
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
    dep.add(MiddleboxSpec::new(Ids, plan.cores()[9], 1.0));
    let addr_plan = sdm::netsim::AddressPlan::new(&plan);
    let mut pol = PolicySet::new();
    // stub 0's web traffic is explicitly permitted...
    pol.push(Policy::permit(
        TrafficDescriptor::new()
            .src_prefix(addr_plan.subnet(StubId(0)))
            .dst_port(80),
    ));
    // ...everything else on port 80 goes through FW
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Firewall]),
    ));
    let c = Controller::new(plan, dep, pol, KConfig::uniform(1));
    let mut enf = c.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    enf.inject_flow(flow(&c, 0, 5, 100, 80), 10, 100); // permitted
    enf.inject_flow(flow(&c, 1, 5, 100, 80), 10, 100); // firewalled
    enf.run();
    assert_eq!(enf.sim().stats().delivered, 20);
    let loads = enf.middlebox_loads();
    assert_eq!(loads[0], 10, "only stub 1's flow hits the FW");
    assert_eq!(loads[1], 0);
}

/// Multi-function middlebox applies consecutive chain functions locally
/// (one visit, two applications).
#[test]
fn multi_function_box_applies_consecutively() {
    let plan = campus(2);
    let mut dep = Deployment::new();
    let combo = dep.add(MiddleboxSpec {
        functions: [Firewall, Ids].into_iter().collect(),
        router: plan.cores()[3],
        capacity: 1.0,
        attachment_kind: "off-path".into(),
    });
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Firewall, Ids]),
    ));
    let c = Controller::new(plan, dep, pol, KConfig::uniform(1));
    let mut enf = c.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    enf.inject_flow(flow(&c, 0, 4, 700, 80), 25, 100);
    enf.run();
    assert_eq!(enf.sim().stats().delivered, 25);
    assert_eq!(enf.middlebox_loads()[combo.index()], 25, "one visit only");
    let st = enf.mbox_state(combo);
    assert_eq!(st.lock().counters.applications, 50, "both functions applied");
}

/// Traffic whose function has no *available* middlebox is dropped and
/// counted as unenforceable — dependable enforcement never lets
/// policy-matching traffic bypass its chain. A plan with no implementing
/// middlebox at all is rejected statically by `Controller::new` (the
/// verifier's V002); the runtime drop path covers the remaining case, a
/// middlebox lost *after* planning.
#[test]
fn unenforceable_traffic_is_dropped_not_leaked() {
    let plan = campus(2);
    let mut dep = Deployment::new();
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
    let wp = dep.add(MiddleboxSpec::new(WebProxy, plan.cores()[2], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([WebProxy]),
    ));
    let mut c = Controller::new(plan, dep, pol, KConfig::uniform(1));
    c.fail_middlebox(wp); // the only WP dies after the plan verified
    let mut enf = c.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    enf.inject_flow(flow(&c, 0, 4, 700, 80), 10, 100);
    enf.run();
    assert_eq!(enf.sim().stats().delivered, 0, "must not bypass the chain");
    let st = enf.proxy_state(StubId(0));
    assert_eq!(st.lock().counters.unenforceable, 10);
}

/// Model limits are refused and counted, never a panic: a packet that
/// already carries the deepest tunnel stack cannot be steered, so the
/// gateway ingress proxy drops it as unenforceable while the rest of its
/// flow is enforced — every injected packet is delivered or counted.
#[test]
fn packet_at_the_tunnel_bound_is_dropped_and_counted() {
    let plan = campus(2);
    let gw = plan.gateways()[0];
    let mut dep = Deployment::new();
    let fw = dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Firewall]),
    ));
    let c = Controller::new(plan, dep, pol, KConfig::uniform(1));
    let mut enf = c.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    let ft = FiveTuple {
        src: "93.184.216.34".parse().unwrap(),
        dst: c.addr_plan().host(StubId(3), 0),
        src_port: 443,
        dst_port: 80,
        proto: Protocol::Tcp,
    };
    let mut full = Packet::with_weight(ft, 400, 5);
    for _ in 0..MAX_TUNNEL_DEPTH {
        full.encapsulate(ft.src, ft.dst).expect("below the bound");
    }
    let rest = Packet::with_weight(ft, 400, 20);
    enf.sim_mut().inject_at_router(gw, rest);
    enf.sim_mut().inject_at_router(gw, full);
    enf.run();
    let delivered = enf.sim().stats().delivered;
    let refused = enf.ingress_state(0).lock().counters.unenforceable;
    assert_eq!(refused, 5, "the packet at the bound is refused");
    // injected = delivered + counted drops, and the rest is enforced
    assert_eq!(delivered + refused, 25);
    assert_eq!(enf.middlebox_loads()[fw.index()], 20);
    assert_eq!(enf.sim().arena().in_use(), 0);
}

/// A flow count beyond one aggregate's `u32` weight (a trace file may
/// carry one) is split into full aggregates at injection: every counter
/// adds `weight`, so nothing overflows, panics or goes missing.
#[test]
fn flow_beyond_one_aggregate_is_split_not_truncated() {
    let plan = campus(2);
    let mut dep = Deployment::new();
    let fw = dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Firewall]),
    ));
    let c = Controller::new(plan, dep, pol, KConfig::uniform(1));
    let mut enf = c.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    let packets = (1u64 << 32) + 5;
    let ft = flow(&c, 0, 4, 700, 80);
    enf.inject_flow(ft, packets, 100);
    enf.run();
    assert_eq!(enf.sim().stats().delivered, packets);
    assert_eq!(enf.middlebox_loads()[fw.index()], packets);
    assert_eq!(enf.proxy_state(StubId(0)).lock().counters.steered, packets);
    // one full aggregate and the rest
    assert_eq!(enf.sim().arena().allocations(), 2);
    let measured = enf.measurements().volume(
        StubId(0),
        sdm::core::DestKey::Stub(StubId(4)),
        sdm::policy::PolicyId(0),
    );
    assert_eq!(measured, packets as f64);
}

/// Inbound external traffic entering at a gateway is intercepted by the
/// destination stub's proxy and delivered.
#[test]
fn gateway_inbound_traffic_delivered() {
    let plan = campus(2);
    let gw = plan.gateways()[0];
    let mut dep = Deployment::new();
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
    let c = Controller::new(plan, dep, PolicySet::new(), KConfig::uniform(1));
    let mut enf = c.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    let ft = FiveTuple {
        src: "93.184.216.34".parse().unwrap(),
        dst: c.addr_plan().host(StubId(3), 0),
        src_port: 443,
        dst_port: 50_000,
        proto: Protocol::Tcp,
    };
    enf.sim_mut()
        .inject_at_router(gw, sdm::netsim::Packet::with_weight(ft, 400, 7));
    enf.run();
    assert_eq!(enf.sim().stats().delivered, 7);
    let st = enf.proxy_state(StubId(3));
    assert_eq!(st.lock().counters.inbound, 7);
}

/// Device-side classifier (§III.D): the compiled policy table every
/// device runs by default produces byte-identical enforcement to the
/// linear reference scan.
#[test]
fn default_device_classifier_matches_linear_reference() {
    use sdm::policy::ClassifierKind;
    let plan = campus(2);
    let mut dep = Deployment::new();
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
    dep.add(MiddleboxSpec::new(Ids, plan.cores()[9], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Firewall, Ids]),
    ));
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(22),
        ActionList::chain([Ids]),
    ));
    let c = Controller::new(plan, dep, pol, KConfig::uniform(2));
    let mut outcomes = Vec::new();
    for kind in [ClassifierKind::Linear, ClassifierKind::default()] {
        let mut enf = c.enforcement(
            Strategy::HotPotato,
            None,
            EnforcementOptions {
                classifier: kind,
                ..Default::default()
            },
        );
        for i in 0..50u16 {
            enf.inject_flow(flow(&c, (i % 10) as u32, ((i + 3) % 10) as u32, 5000 + i,
                                 if i % 2 == 0 { 80 } else { 22 }), 4, 200);
        }
        enf.run();
        outcomes.push((enf.sim().stats().delivered, enf.middlebox_loads()));
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[0].0, 200);
}

/// Packet tracing proves the chain order directly: the trace of a flow
/// shows the FW device strictly before the IDS device strictly before the
/// WP device, then terminal delivery.
#[test]
fn trace_proves_chain_order() {
    let plan = campus(2);
    let mut dep = Deployment::new();
    let fw = dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
    let ids = dep.add(MiddleboxSpec::new(Ids, plan.cores()[9], 1.0));
    let wp = dep.add(MiddleboxSpec::new(WebProxy, plan.cores()[14], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Firewall, Ids, WebProxy]),
    ));
    let c = Controller::new(plan, dep, pol, KConfig::uniform(1));
    let mut enf = c.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    enf.sim_mut().enable_trace(10_000);
    let ft = flow(&c, 0, 6, 1000, 80);
    enf.inject_flow(ft, 1, 200);
    enf.run();
    assert_eq!(enf.sim().stats().delivered, 1);

    use sdm::netsim::TraceLocation;
    let trace: Vec<_> = enf.sim().trace().to_vec();
    let pos = |loc: TraceLocation| trace.iter().position(|e| e.location == loc);
    let p_fw = pos(TraceLocation::Device(enf.mbox_device(fw))).expect("FW visited");
    let p_ids = pos(TraceLocation::Device(enf.mbox_device(ids))).expect("IDS visited");
    let p_wp = pos(TraceLocation::Device(enf.mbox_device(wp))).expect("WP visited");
    let p_done = pos(TraceLocation::Delivered(StubId(6))).expect("delivered");
    assert!(p_fw < p_ids, "FW must precede IDS");
    assert!(p_ids < p_wp, "IDS must precede WP");
    assert!(p_wp < p_done, "WP must precede delivery");
}

/// Enforcement survives link failure: OSPF reconverges underneath and the
/// tunnels (addressed to middleboxes) simply follow the new shortest
/// paths — the architecture's core transparency claim.
#[test]
fn enforcement_survives_link_failure() {
    let plan = campus(2);
    let mut dep = Deployment::new();
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
    dep.add(MiddleboxSpec::new(Ids, plan.cores()[9], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Firewall, Ids]),
    ));
    let c = Controller::new(plan.clone(), dep, pol, KConfig::uniform(1));
    let mut enf = c.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    let ft = flow(&c, 0, 6, 1000, 80);
    enf.inject_flow(ft, 10, 200);
    enf.run();
    assert_eq!(enf.sim().stats().delivered, 10);

    // fail the busiest core-to-core link and rerun the same flow
    let topo = c.plan().topology();
    let busiest = (0..topo.link_count())
        .map(sdm::topology::LinkId::from_index)
        .filter(|&l| {
            let (a, b, _) = topo.link(l);
            use sdm::topology::NodeKind;
            topo.kind(a) != NodeKind::EdgeRouter && topo.kind(b) != NodeKind::EdgeRouter
        })
        .max_by_key(|&l| enf.sim().stats().link_load[l.index()]);
    if let Some(l) = busiest {
        enf.sim_mut().fail_link(l);
    }
    enf.inject_flow(ft, 10, 200);
    enf.run();
    assert_eq!(
        enf.sim().stats().delivered,
        20,
        "the chain keeps working over reconverged routes"
    );
    // both middleboxes processed both batches
    assert_eq!(enf.middlebox_loads(), vec![20, 20]);
}

/// Chains that repeat a function are rejected up front: the data plane
/// resolves chain position by function, so `FW -> IDS -> FW` would be
/// ambiguous at the second firewall.
#[test]
#[should_panic(expected = "repeats function")]
fn repeated_function_chains_rejected() {
    let plan = campus(2);
    let mut dep = Deployment::new();
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
    dep.add(MiddleboxSpec::new(Ids, plan.cores()[1], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Firewall, Ids, Firewall]),
    ));
    let _ = Controller::new(plan, dep, pol, KConfig::uniform(1));
}

/// Custom network functions work end to end, not just the paper's four.
#[test]
fn custom_functions_enforce() {
    let dpi = Custom(9);
    let scrub = Custom(10);
    let plan = campus(2);
    let mut dep = Deployment::new();
    dep.add(MiddleboxSpec::new(dpi, plan.cores()[2], 1.0));
    dep.add(MiddleboxSpec::new(scrub, plan.cores()[11], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(4433),
        ActionList::chain([dpi, scrub]),
    ));
    let c = Controller::new(plan, dep, pol, KConfig::uniform(1));
    let mut enf = c.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    enf.inject_flow(flow(&c, 1, 8, 700, 4433), 40, 100);
    enf.run();
    assert_eq!(enf.sim().stats().delivered, 40);
    assert_eq!(enf.middlebox_loads(), vec![40, 40]);
}

/// Off-path middleboxes cost access-link hops that in-path ones do not;
/// enforcement results are otherwise identical.
#[test]
fn off_path_costs_access_hops_only() {
    let mut outcomes = Vec::new();
    for in_path in [true, false] {
        let plan = campus(2);
        let mut dep = Deployment::new();
        let mut spec = MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0);
        if in_path {
            spec = spec.in_path();
        }
        dep.add(spec);
        let mut pol = PolicySet::new();
        pol.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Firewall]),
        ));
        let c = Controller::new(plan, dep, pol, KConfig::uniform(1));
        let mut enf = c.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
        enf.inject_flow(flow(&c, 0, 5, 900, 80), 10, 100);
        enf.run();
        outcomes.push((
            enf.sim().stats().delivered,
            enf.middlebox_loads(),
            enf.sim().stats().device_link_hops,
        ));
    }
    let (d_in, loads_in, access_in) = &outcomes[0];
    let (d_off, loads_off, access_off) = &outcomes[1];
    assert_eq!(d_in, d_off);
    assert_eq!(loads_in, loads_off);
    assert_eq!(*access_in, 0, "in-path: no access link");
    assert!(*access_off > 0, "off-path: access-link hops accounted");
}

/// Inbound Internet traffic is enforced at the gateway ingress proxy: it
/// traverses its chain before reaching the destination stub — no bypass.
#[test]
fn gateway_inbound_traffic_is_enforced() {
    let plan = campus(2);
    let gw = plan.gateways()[0];
    let mut dep = Deployment::new();
    let fw = dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
    let ids = dep.add(MiddleboxSpec::new(Ids, plan.cores()[9], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80), // wildcard source: includes external
        ActionList::chain([Firewall, Ids]),
    ));
    let c = Controller::new(plan, dep, pol, KConfig::uniform(1));
    let mut enf = c.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    let ft = FiveTuple {
        src: "93.184.216.34".parse().unwrap(),
        dst: c.addr_plan().host(StubId(3), 0),
        src_port: 443,
        dst_port: 80,
        proto: Protocol::Tcp,
    };
    enf.sim_mut()
        .inject_at_router(gw, sdm::netsim::Packet::with_weight(ft, 400, 25));
    enf.run();
    assert_eq!(enf.sim().stats().delivered, 25);
    let loads = enf.middlebox_loads();
    assert_eq!(loads[fw.index()], 25, "inbound traffic hits the FW");
    assert_eq!(loads[ids.index()], 25, "and the IDS");
    let ig = enf.ingress_state(0);
    assert_eq!(ig.lock().counters.steered, 25);
    // transit traffic through the gateway is NOT re-intercepted: an
    // internal flow to an external server passes the gateway untouched
    let out = FiveTuple {
        src: c.addr_plan().host(StubId(0), 0),
        dst: "93.184.216.34".parse().unwrap(),
        src_port: 50_000,
        dst_port: 9999, // matches nothing
        proto: Protocol::Tcp,
    };
    enf.inject_flow(out, 10, 400);
    enf.run();
    assert_eq!(enf.sim().stats().delivered_external, 10);
    assert_eq!(ig.lock().counters.outbound, 25, "ingress proxy saw only inbound");
}

/// The enforcement machinery is topology-agnostic: the full HP pipeline
/// works unchanged on a small hierarchical fabric (distribution backbone,
/// Waxman pods, 24 edge routers).
#[test]
fn enforcement_on_hierarchical_topology() {
    use sdm::topology::hierarchical::{hierarchical, HierarchicalConfig};
    let plan = hierarchical(
        &HierarchicalConfig {
            pairs: 2,
            pods_per_pair: 1,
            routers_per_pod: 4,
            edges_per_router: 3,
            gateways: 2,
            ..HierarchicalConfig::default()
        },
        1,
    );
    assert_eq!(plan.edges().len(), 24);
    let mut dep = Deployment::new();
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
    dep.add(MiddleboxSpec::new(Ids, plan.cores()[5], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Firewall, Ids]),
    ));
    let c = Controller::new(plan, dep, pol, KConfig::uniform(1));
    let mut enf = c.enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    for i in 0..40u16 {
        enf.inject_flow(
            flow(&c, (i % 24) as u32, ((i + 7) % 24) as u32, 6000 + i, 80),
            5,
            200,
        );
    }
    enf.run();
    assert_eq!(enf.sim().stats().delivered, 200);
    assert_eq!(enf.middlebox_loads(), vec![200, 200]);
}
