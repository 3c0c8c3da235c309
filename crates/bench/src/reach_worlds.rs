//! Pre-packaged symbolic worlds for the reach checker — shared by the
//! `sdm reach` subcommand and the replay property tests.
//!
//! Every world is a live [`Controller`] and the [`ReachView`]
//! [`sdm_core::reach_view`] extracts from it, checked against
//! `controller.routes()`: the same addressing, candidate sets and routing
//! the data plane runs, so every `R0xx` witness can be lowered to a
//! [`ReplayScenario`](sdm_verify::witness::ReplayScenario) and executed by
//! [`crate::replay`]. [`world_reach`] builds the campus and Waxman
//! evaluation worlds; [`hier_reach`] builds the ≈21k-node hierarchical
//! fabric with a small deployment and policy table of its own.

use sdm_core::{
    Controller, Deployment, EnforcementOptions, KConfig, MiddleboxSpec, Strategy,
};
use sdm_netsim::{AddressPlan, Prefix, StubId};
use sdm_policy::NetworkFunction::{Firewall, Ids};
use sdm_policy::{ActionList, Policy, PolicySet, TrafficDescriptor};
use sdm_topology::hierarchical::{hierarchical, HierarchicalConfig};
use sdm_verify::plan::Point;
use sdm_verify::reach::ReachView;

use crate::{ExperimentConfig, World};

/// A controller-backed symbolic world.
pub struct WorldReach {
    /// The live controller (topology, addressing, deployment, policies).
    pub controller: Controller,
    /// Its symbolic reach view under hot-potato steering.
    pub view: ReachView,
    /// The runtime options the view reflects (reuse them for replays so
    /// the data plane matches what was verified).
    pub options: EnforcementOptions,
}

/// The reach world of `controller` under hot-potato steering.
///
/// Hot-potato gives every chain stage a singleton steering support, so
/// every witness the checker emits is deterministic and replayable.
fn reach_of(controller: Controller) -> WorldReach {
    let options = EnforcementOptions::default();
    let view = sdm_core::reach_view(&controller, Strategy::HotPotato, None, &options);
    WorldReach {
        controller,
        view,
        options,
    }
}

/// Builds the reach world of an evaluation configuration (campus or
/// Waxman).
pub fn world_reach(cfg: &ExperimentConfig) -> WorldReach {
    reach_of(World::build(cfg).controller)
}

/// Re-checks a world in the hazard state "the
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
    let report = sdm_verify::reach::check_assertions(&wr.view, wr.controller.routes(), &[]);
    wr.view.hazards = None;
    (failed, report)
}

/// Middleboxes placed on the hierarchical fabric (first half firewalls,
/// second half IDSes).
pub const HIER_BOXES: usize = 8;

/// Builds the ≈21k-node hierarchical reach world:
/// [`HierarchicalConfig::large`] topology, [`HIER_BOXES`] middleboxes
/// spread evenly over the core routers, every box a candidate at every
/// steer point (`k` = 4 per function), and two policies over the first
/// three blocks of 16 stubs (`s0–15`, `s16–31`, `s32–47`), in
/// first-match order:
///
/// * `p0`: `s0–15 → s16–31` via `FW`
/// * `p1`: `s0–15 → s32–47` via `FW, IDS`
///
/// Kept tiny and aggregate — the point of the fabric is checker scale in
/// *topology*, not rule count.
pub fn hier_reach(seed: u64) -> WorldReach {
    let plan = hierarchical(&HierarchicalConfig::large(), seed);
    let cores = plan.cores();
    let mut deployment = Deployment::new();
    for i in 0..HIER_BOXES {
        let function = if i < HIER_BOXES / 2 { Firewall } else { Ids };
        deployment.add(MiddleboxSpec::new(function, cores[i * cores.len() / HIER_BOXES], 1e9));
    }

    let addrs = AddressPlan::new(&plan);
    // The aligned block of 16 stubs starting at stub `first`.
    let block = |first: u32| {
        let s = addrs.subnet(StubId(first));
        Prefix::new(s.addr(), s.len() - 4)
    };
    let mut policies = PolicySet::new();
    for (dst, chain) in [(block(16), &[Firewall][..]), (block(32), &[Firewall, Ids][..])] {
        policies.push(Policy::new(
            TrafficDescriptor::new().src_prefix(block(0)).dst_prefix(dst),
            ActionList::chain(chain.iter().copied()),
        ));
    }
    reach_of(Controller::new(plan, deployment, policies, KConfig::uniform(4)))
}
