//! Pre-packaged symbolic worlds for the reach checker — shared by the
//! `sdm reach` subcommand, the `reach` bench group and the replay property
//! tests.
//!
//! Two shapes:
//!
//! * **Controller-backed** ([`world_reach`]): the campus/Waxman
//!   evaluation worlds. The [`ReachView`] is extracted from a live
//!   [`Controller`](sdm_core::Controller), so every `R0xx` witness can
//!   be lowered to a [`ReplayScenario`](sdm_verify::witness::ReplayScenario)
//!   and executed by [`crate::replay`].
//! * **Plan-backed** ([`hier_reach`]): the ≈21k-node hierarchical
//!   fabric, checked against `plan.topology().routing_tables()` like any
//!   other world. The view is assembled directly from the [`NetworkPlan`]
//!   rather than a controller only because the fabric's 20,480 stubs
//!   exceed the 4,096 that [`sdm_netsim::AddressPlan`] can address; routing
//!   memory is not the obstacle (rows fill per destination). Addressing is
//!   therefore synthetic, with stub `s` at `8.0.0.0 + (s << 12)` `/20`
//!   inside an `8.0.0.0/5` enterprise.

use sdm_core::{EnforcementOptions, Strategy};
use sdm_netsim::{Ipv4Addr, Prefix};
use sdm_policy::NetworkFunction;
use sdm_topology::hierarchical::{hierarchical, HierarchicalConfig};
use sdm_topology::NetworkPlan;
use sdm_verify::plan::{CandidateSet, ChainView, MboxView, OptionsView, PlanView, Point};
use sdm_verify::reach::{FlowClass, ReachView, RouteView, RuleView, StrategyView};

use crate::{ExperimentConfig, World};

/// A controller-backed symbolic world (campus or Waxman).
pub struct WorldReach {
    /// The live evaluation world (controller, deployment, policies).
    pub world: World,
    /// Its symbolic reach view under hot-potato steering.
    pub view: ReachView,
    /// The runtime options the view reflects (reuse them for replays so
    /// the data plane matches what was verified).
    pub options: EnforcementOptions,
}

/// Builds a controller-backed reach world under hot-potato steering.
///
/// Hot-potato gives every chain stage a singleton steering support, so
/// every witness the checker emits is deterministic and replayable.
pub fn world_reach(cfg: &ExperimentConfig) -> WorldReach {
    let world = World::build(cfg);
    let options = EnforcementOptions::default();
    let view = sdm_core::reach_view(&world.controller, Strategy::HotPotato, None, &options);
    WorldReach {
        world,
        view,
        options,
    }
}

/// Re-checks a controller-backed world in the hazard state "the
/// middlebox hot-potato pins first for the first enforced policy just
/// failed" — exactly the stale-pinned-flow window that opens when a box
/// crashes before its proxies' flow caches expire. Runs with an empty
/// assertion set, so the returned report carries only `R00x` hazard
/// findings (each lowered to a replayable scenario). Returns the failed
/// box alongside the report.
pub fn hazard_pass(wr: &mut WorldReach) -> (u32, sdm_verify::reach::ReachReport) {
    let first_fn = wr
        .view
        .rules
        .iter()
        .find_map(|r| r.chain.first().copied())
        .expect("evaluation worlds always install enforced policies");
    let failed = wr
        .view
        .plan
        .candidates
        .iter()
        .find(|c| matches!(c.point, Point::Proxy(_)) && c.function == first_fn)
        .and_then(|c| c.members.first().copied())
        .expect("every stub proxy has a candidate set per used function");

    wr.view.hazards = Some(sdm_verify::reach::HazardView {
        prev_weights: None,
        failed_now: vec![failed],
    });
    let report = sdm_verify::reach::check_assertions(
        &wr.view,
        wr.world.controller.routes(),
        &[],
    );
    wr.view.hazards = None;
    (failed, report)
}

/// Base address of the synthetic hierarchical enterprise (`8.0.0.0/5`).
pub const HIER_BASE: u32 = 0x0800_0000;
/// Prefix length of the synthetic enterprise space.
pub const HIER_ENTERPRISE_LEN: u8 = 5;
/// Bits per synthetic stub subnet (`/20` ⇒ 12 host bits… shifted by 12).
pub const HIER_STUB_SHIFT: u32 = 12;
/// Prefix length of each synthetic stub subnet.
pub const HIER_STUB_LEN: u8 = 20;
/// Middleboxes placed on the hierarchical fabric (first half firewalls,
/// second half IDSes).
pub const HIER_BOXES: usize = 8;

/// A plan-backed symbolic world over the large hierarchical fabric.
pub struct HierReach {
    /// The generated network plan (call `plan.topology().routing_tables()`
    /// for the routing view).
    pub plan: NetworkPlan,
    /// The hand-assembled symbolic view.
    pub view: ReachView,
}

/// The synthetic subnet of hierarchical stub `s`.
pub fn hier_subnet(s: u32) -> Prefix {
    Prefix::new(Ipv4Addr(HIER_BASE + (s << HIER_STUB_SHIFT)), HIER_STUB_LEN)
}

/// The policy table installed on the hierarchical fabric, in first-match
/// order. Kept tiny and aggregate — the point of the hierarchical run is
/// checker scale in *topology*, not rule count:
///
/// * `p0`: `8.0.0.0/16 → 8.1.0.0/16` via `FW`
/// * `p1`: `8.0.0.0/16 → 8.2.0.0/16` via `FW, IDS`
pub fn hier_rules() -> Vec<RuleView> {
    let p = |addr: u32, len: u8| Prefix::new(Ipv4Addr(addr), len);
    vec![
        RuleView {
            policy: 0,
            class: FlowClass::between(p(0x0800_0000, 16), p(0x0801_0000, 16)),
            chain: vec![NetworkFunction::Firewall],
        },
        RuleView {
            policy: 1,
            class: FlowClass::between(p(0x0800_0000, 16), p(0x0802_0000, 16)),
            chain: vec![NetworkFunction::Firewall, NetworkFunction::Ids],
        },
    ]
}

/// Builds the ≈21k-node hierarchical reach world: [`HierarchicalConfig::large`]
/// topology, [`HIER_BOXES`] middleboxes spread over the pod routers, the
/// [`hier_rules`] policy table, and candidate sets (closest-first, by
/// per-destination shortest-path distance) for **every** stub proxy,
/// gateway and middlebox steer point.
pub fn hier_reach(seed: u64) -> HierReach {
    let cfg = HierarchicalConfig::large();
    let plan = hierarchical(&cfg, seed);
    let view = {
        let topo = plan.topology();
        let routes = topo.routing_tables();
        let cores = plan.cores();
        let fns = [NetworkFunction::Firewall, NetworkFunction::Ids];

        let mut middleboxes = Vec::with_capacity(HIER_BOXES);
        for i in 0..HIER_BOXES {
            let router = cores[i * cores.len() / HIER_BOXES];
            middleboxes.push(MboxView {
                functions: vec![fns[if i < HIER_BOXES / 2 { 0 } else { 1 }]],
                router: router.index(),
                capacity: 1e9,
                available: true,
                addr: Ipv4Addr(0x0100_0000 + i as u32),
            });
        }

        // Candidate members for a steer point at `from`, closest first
        // (ties broken by box index, matching the controller's ordering).
        let members = |from: u32, f: NetworkFunction| -> Vec<u32> {
            let mut v: Vec<(u32, u32)> = middleboxes
                .iter()
                .enumerate()
                .filter(|(_, m)| m.functions.contains(&f))
                .map(|(i, m)| {
                    let d = RouteView::dist(&routes, from, m.router as u32)
                        .unwrap_or(u32::MAX);
                    (d, i as u32)
                })
                .collect();
            v.sort_unstable();
            v.into_iter().map(|(_, i)| i).collect()
        };

        let stub_routers: Vec<u32> =
            plan.edges().iter().map(|n| n.index() as u32).collect();
        let gateway_routers: Vec<u32> =
            plan.gateways().iter().map(|n| n.index() as u32).collect();

        let mut candidates = Vec::new();
        for (s, &r) in stub_routers.iter().enumerate() {
            for f in fns {
                candidates.push(CandidateSet {
                    point: Point::Proxy(s as u32),
                    function: f,
                    members: members(r, f),
                });
            }
        }
        for (g, &r) in gateway_routers.iter().enumerate() {
            for f in fns {
                candidates.push(CandidateSet {
                    point: Point::Gateway(g as u32),
                    function: f,
                    members: members(r, f),
                });
            }
        }
        for (m, mv) in middleboxes.iter().enumerate() {
            for f in fns {
                candidates.push(CandidateSet {
                    point: Point::Middlebox(m as u32),
                    function: f,
                    members: members(mv.router as u32, f),
                });
            }
        }

        let rules = hier_rules();
        let stub_subnets: Vec<Prefix> =
            (0..stub_routers.len() as u32).map(hier_subnet).collect();
        ReachView {
            plan: PlanView {
                node_count: topo.node_count(),
                stub_subnets,
                gateway_count: gateway_routers.len(),
                middleboxes,
                policies: rules
                    .iter()
                    .map(|r| ChainView {
                        policy: r.policy,
                        chain: r.chain.clone(),
                    })
                    .collect(),
                k: fns.iter().map(|&f| (f, HIER_BOXES / 2)).collect(),
                candidates,
                weights: None,
                options: Some(OptionsView {
                    flow_ttl: 1 << 20,
                    label_ttl: 1 << 20,
                    mtu: 1500,
                }),
            },
            rules,
            stub_routers,
            gateway_routers,
            enterprise: Prefix::new(Ipv4Addr(HIER_BASE), HIER_ENTERPRISE_LEN),
            strategy: StrategyView::HotPotato,
            hazards: None,
        }
    };
    HierReach { plan, view }
}
