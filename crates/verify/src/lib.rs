//! Static analysis for dependable enforcement.
//!
//! The paper's premise is *dependable* policy enforcement on
//! policy-oblivious routers; this crate makes "dependable" a statically
//! checked property rather than a hope. It provides two independent
//! passes:
//!
//! * [`plan`] — the **enforcement-plan verifier**. Given a neutral view
//!   of a deployment (topology size, addressing, middleboxes, policy
//!   chains, candidate sets `M_x^e`, LP steering weights and runtime
//!   options), [`plan::verify_plan`] proves the invariants packet
//!   delivery rests on before any packet is injected, and reports every
//!   violation as a structured [`plan::VerifyError`] with a stable
//!   `V0xx` code. `sdm-core` calls it fail-fast from `Controller::new`
//!   and `Controller::run_sharded`; `sdm verify-plan` emits
//!   the JSON report for CI.
//!
//! * [`lint`] — the **doc-path check**: [`lint::stale_doc_names`] lists
//!   every file or source symbol that README, DESIGN or EXPERIMENTS names
//!   in backticks and the tree no longer has. A `cargo test` of this
//!   crate fails on any.
//!
//! Both passes are offline and deterministic: same input, same report,
//! byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
pub mod lint;
pub mod plan;
pub mod reach;
pub mod witness;

pub use plan::{
    verify_plan, verify_plan_routed, CandidateSet, ChainView, ErrorCode, MboxView, OptionsView,
    PlanView, Point, Severity, VerifyError, VerifyReport, WeightColumn, WeightsView,
};
pub use reach::{
    check_assertions, parse_assertions, walk_route, Assertion, AssertionResult, FlowClass,
    HazardView, ProtoSet, ReachCode, ReachFinding, ReachReport, ReachView, ReachWitness,
    RouteView, RuleView, StrategyView, Walk,
};
pub use witness::{
    corpus_from_json, corpus_to_json, protocol_from_number, ReplayScenario, ReplayStep,
    StepExpect, WitnessFlow,
};
