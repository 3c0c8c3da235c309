//! Adapter between the controller's types and the `sdm-verify` static
//! plan verifier, plus the fail-fast hooks.
//!
//! `sdm-verify` sits *below* this crate in the dependency graph, so it
//! cannot see [`Controller`], [`Assignments`] or [`SteeringWeights`]
//! directly; [`plan_view`] projects them into the verifier's neutral
//! [`PlanView`] data model. Two hooks consume it:
//!
//! * [`Controller::new`] runs the **structural** verification (topology,
//!   addressing, chains, candidate sets — no weights, no runtime
//!   options) and panics on a fatal report, so a broken plan never
//!   produces a controller at all.
//! * [`Controller::run_sharded`] additionally verifies the steering
//!   weights and [`EnforcementOptions`] it was handed, so a broken LP
//!   solution or a misconfigured TTL/MTU is rejected before the first
//!   packet is injected.
//!
//! `sdm verify-plan` drives the same projection to emit the
//! JSON report for CI.

use sdm_netsim::preassigned_device_addr;
use sdm_verify::{
    CandidateSet, ChainView, MboxView, OptionsView, PlanView, Point, VerifyReport,
    WeightColumn, WeightsView,
};

use crate::controller::{Controller, EnforcementOptions};
use crate::steer::{SteerPoint, SteeringWeights};

fn point_of(p: SteerPoint) -> Point {
    match p {
        SteerPoint::Proxy(s) => Point::Proxy(s.index() as u32),
        SteerPoint::Gateway(g) => Point::Gateway(g),
        SteerPoint::Middlebox(m) => Point::Middlebox(m.0),
    }
}

/// Projects an LP solution into the verifier's neutral weight view (also
/// used by the reach tier to model the *previous* epoch's weights when
/// checking stale-flow hazards).
pub fn weights_view(w: &SteeringWeights) -> WeightsView {
    WeightsView {
        lambda: w.lambda(),
        columns: w
            .iter()
            .map(|(key, col)| WeightColumn {
                point: point_of(key.point),
                policy: key.policy.0,
                next_index: key.next_index,
                weights: col.iter().map(|&(m, v)| (m.0, v)).collect(),
            })
            .collect(),
    }
}

/// Projects the controller's state (and optionally an LP solution and
/// runtime options) into the verifier's neutral [`PlanView`].
pub fn plan_view(
    controller: &Controller,
    weights: Option<&SteeringWeights>,
    options: Option<&EnforcementOptions>,
) -> PlanView {
    let deployment = controller.deployment();
    let addr_plan = controller.addr_plan();
    let assignments = controller.assignments();

    let middleboxes: Vec<MboxView> = deployment
        .iter()
        .map(|(id, spec)| MboxView {
            functions: spec.functions.iter().copied().collect(),
            router: spec.router.index(),
            capacity: spec.capacity,
            available: !deployment.is_failed(id),
            addr: preassigned_device_addr(id.index()),
        })
        .collect();

    let policies: Vec<ChainView> = controller
        .policies()
        .iter()
        .map(|(id, p)| ChainView {
            policy: id.0,
            chain: p.actions.functions().to_vec(),
        })
        .collect();

    // Functions any chain references, first-use order.
    let mut used = Vec::new();
    for p in &policies {
        for &f in &p.chain {
            if !used.contains(&f) {
                used.push(f);
            }
        }
    }
    let k = used
        .iter()
        .map(|&f| (f, controller.k_config().k_for(f)))
        .collect();

    let mut candidates = Vec::new();
    let mut push_sets = |point: SteerPoint| {
        for &f in &used {
            // A middlebox implementing f applies it locally; it has no
            // set for f by construction and the verifier knows not to
            // expect one.
            if let SteerPoint::Middlebox(m) = point {
                if deployment.spec(m).implements(f) {
                    continue;
                }
            }
            candidates.push(CandidateSet {
                point: point_of(point),
                function: f,
                members: assignments
                    .candidates(point, f)
                    .iter()
                    .map(|m| m.0)
                    .collect(),
            });
        }
    };
    for stub in addr_plan.stubs() {
        push_sets(SteerPoint::Proxy(stub));
    }
    for g in 0..controller.plan().gateways().len() as u32 {
        push_sets(SteerPoint::Gateway(g));
    }
    for (id, _) in deployment.iter() {
        push_sets(SteerPoint::Middlebox(id));
    }

    PlanView {
        node_count: controller.plan().topology().node_count(),
        stub_subnets: addr_plan.stubs().map(|s| addr_plan.subnet(s)).collect(),
        gateway_count: controller.plan().gateways().len(),
        middleboxes,
        policies,
        k,
        candidates,
        weights: weights.map(weights_view),
        options: options.map(|o| OptionsView {
            flow_ttl: o.flow_ttl,
            label_ttl: o.label_ttl,
            mtu: o.mtu,
        }),
    }
}

/// Structural verification of a controller's plan (no weights, no
/// runtime options): what [`Controller::new`] fail-fasts on.
///
/// Uses [`sdm_verify::verify_plan_routed`] with the controller's routing
/// tables so the V005 steering-loop pass walks the *routed* realization
/// of every steering edge — the same next-hop view the reach tier
/// consumes — instead of trusting the declared tunnel edges alone.
pub fn verify_controller(controller: &Controller) -> VerifyReport {
    sdm_verify::verify_plan_routed(&plan_view(controller, None, None), controller.routes())
}

/// Full pre-run verification: structure plus the LP solution and the
/// runtime options an enforcement run was handed. What
/// [`Controller::run_sharded`] fail-fasts on. Routed like
/// [`verify_controller`].
pub fn verify_enforcement(
    controller: &Controller,
    weights: Option<&SteeringWeights>,
    options: &EnforcementOptions,
) -> VerifyReport {
    sdm_verify::verify_plan_routed(
        &plan_view(controller, weights, Some(options)),
        controller.routes(),
    )
}
