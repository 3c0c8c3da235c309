//! Adapter between the controller's types and the `sdm-verify` reach
//! (isolation) tier, plus the assertion plumbing.
//!
//! Like [`crate::verify::plan_view`], this projects controller state into
//! the checker's neutral data model — here [`ReachView`]: the structural
//! plan plus the symbolic policy table ([`RuleView`] per policy, with the
//! traffic descriptor compiled into a [`FlowClass`]), the ingress
//! attachment routers, the enterprise address space and the steering
//! strategy. Callers run [`sdm_verify::reach::check_assertions`] on it
//! against the controller's routing tables — the *same* next-hop function
//! the simulated routers forward by, which is what makes every witness
//! replayable.
//!
//! Hazard-state checking for the epoch loop lives on
//! [`crate::EpochLoop::verify_reach`], which extends the view with the
//! pre-swap weights and the currently-failed middlebox set.

use sdm_verify::reach::{FlowClass, ReachView, RuleView, StrategyView};

use crate::controller::{Controller, EnforcementOptions};
use crate::steer::{Strategy, SteeringWeights};
use crate::verify::plan_view;

/// The symbolic support model of a concrete [`Strategy`]: which candidate
/// boxes a flow *can* be steered to at a decision point.
pub fn strategy_view(strategy: Strategy) -> StrategyView {
    match strategy {
        Strategy::HotPotato => StrategyView::HotPotato,
        Strategy::Random { .. } => StrategyView::Random,
        Strategy::LoadBalanced => StrategyView::LoadBalanced,
    }
}

/// Projects the controller's state into the reach checker's
/// [`ReachView`] (no hazard state; see [`crate::EpochLoop::verify_reach`]
/// for the hazard-extended projection).
pub fn reach_view(
    controller: &Controller,
    strategy: Strategy,
    weights: Option<&SteeringWeights>,
    options: &EnforcementOptions,
) -> ReachView {
    let addr_plan = controller.addr_plan();
    let rules: Vec<RuleView> = controller
        .policies()
        .iter()
        .map(|(id, p)| RuleView {
            policy: id.0,
            class: FlowClass::from_descriptor(&p.descriptor),
            chain: p.actions.functions().to_vec(),
        })
        .collect();
    ReachView {
        plan: plan_view(controller, weights, Some(options)),
        rules,
        stub_routers: addr_plan
            .stubs()
            .map(|s| addr_plan.edge_router(s).index() as u32)
            .collect(),
        gateway_routers: controller
            .plan()
            .gateways()
            .iter()
            .map(|n| n.index() as u32)
            .collect(),
        enterprise: addr_plan.enterprise_prefix(),
        strategy: strategy_view(strategy),
        hazards: None,
    }
}
