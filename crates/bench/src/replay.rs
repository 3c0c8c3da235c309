//! Executes reach-tier counterexamples ([`ReplayScenario`]) in the
//! simulator and checks that the data plane agrees with the static
//! verdict — the closing half of the PR-10 static/dynamic agreement
//! loop.
//!
//! A scenario is a short injection script produced by
//! `sdm_verify::reach::check_assertions` as the witness of an `R0xx`
//! finding: inject a representative flow of the violating class at its
//! stub proxy, optionally fail/restore a middlebox between injections,
//! and predict for each injection whether the packets are delivered,
//! whether they die at a crashed box, and which middleboxes must (or
//! must not) process them. [`replay_scenario`] runs the script against a
//! fresh [`sdm_core::Enforcement`] and reports every prediction the simulator
//! disagreed with; CI replays the committed corpus at both shard
//! corners and fails on any disagreement.

use sdm_core::{
    Controller, EnforcementOptions, MiddleboxId, ShardedRun, SteeringWeights, Strategy,
};
use sdm_netsim::StubId;
use sdm_util::json::Json;
use sdm_verify::witness::{ReplayScenario, ReplayStep, StepExpect};

use crate::experiments::delivered;

/// Payload bytes per injected packet (well under every MTU in play, so
/// label switching never fragments the witness flow).
const REPLAY_PAYLOAD: u32 = 256;

/// The outcome of replaying one scenario.
#[derive(Debug, Clone)]
pub struct ReplayVerdict {
    /// The scenario's name (assertion + class + stub).
    pub name: String,
    /// The `R0xx` code the scenario witnesses.
    pub code: String,
    /// True when the simulator agreed with every prediction.
    pub agrees: bool,
    /// One line per disagreement (empty when `agrees`).
    pub mismatches: Vec<String>,
}

impl ReplayVerdict {
    /// JSON form for the CI report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("code", Json::from(self.code.as_str())),
            ("agrees", Json::Bool(self.agrees)),
            (
                "mismatches",
                Json::Arr(
                    self.mismatches
                        .iter()
                        .map(|m| Json::from(m.as_str()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Replays `scenario` against a fresh enforcement built from
/// `controller` and checks every per-step expectation. `strategy` and
/// `weights` must be the configuration the checker verified.
pub fn replay_scenario(
    controller: &Controller,
    strategy: Strategy,
    weights: Option<&SteeringWeights>,
    options: EnforcementOptions,
    scenario: &ReplayScenario,
) -> ReplayVerdict {
    let mut enf = controller.enforcement(strategy, weights.cloned(), options);
    let ft = scenario.flow.five_tuple();
    let mut mismatches: Vec<String> = Vec::new();

    for (i, step) in scenario.steps.iter().enumerate() {
        match step {
            ReplayStep::Inject { packets, expect } => {
                let before = enf.snapshot();
                enf.inject_flow(ft, *packets, REPLAY_PAYLOAD);
                enf.run();
                let after = enf.snapshot();

                let delivered = delivered(&after.stats) - delivered(&before.stats);
                let dropped = dropped_failed(&after) - dropped_failed(&before);
                check_inject(
                    i,
                    *packets,
                    expect,
                    delivered,
                    dropped,
                    &before.loads,
                    &after.loads,
                    &mut mismatches,
                );
            }
            ReplayStep::FailMbox(m) => {
                // The hazard scenarios rest on the flow being *pinned* to
                // the box about to fail; confirm the flow-cache state the
                // static analysis asserted before pulling the box.
                let pinned = enf
                    .proxy_state(StubId(scenario.stub))
                    .lock()
                    .flows
                    .pinned_next(ft);
                if scenario.code == "R005" && pinned != Some(*m) {
                    mismatches.push(format!(
                        "step {i}: expected flow pinned to m{m} before failure, \
found {pinned:?}"
                    ));
                }
                enf.fail_middlebox(MiddleboxId(*m));
            }
            ReplayStep::RestoreMbox(m) => enf.restore_middlebox(MiddleboxId(*m)),
        }
    }

    ReplayVerdict {
        name: scenario.name.clone(),
        code: scenario.code.clone(),
        agrees: mismatches.is_empty(),
        mismatches,
    }
}

#[allow(clippy::too_many_arguments)]
fn check_inject(
    step: usize,
    packets: u64,
    expect: &StepExpect,
    delivered: u64,
    dropped: u64,
    loads_before: &[u64],
    loads: &[u64],
    mismatches: &mut Vec<String>,
) {
    if expect.delivered && delivered != packets {
        mismatches.push(format!(
            "step {step}: predicted delivery of {packets} packets, simulator \
delivered {delivered}"
        ));
    }
    if !expect.delivered && delivered != 0 {
        mismatches.push(format!(
            "step {step}: predicted no delivery, simulator delivered {delivered}"
        ));
    }
    if expect.dropped_failed && dropped == 0 {
        mismatches.push(format!(
            "step {step}: predicted drops at a failed middlebox, none counted"
        ));
    }
    if !expect.dropped_failed && dropped != 0 {
        mismatches.push(format!(
            "step {step}: predicted no failed-box drops, simulator counted {dropped}"
        ));
    }
    for &m in &expect.must_process {
        let delta = load_delta(loads_before, loads, m);
        if delta < packets {
            mismatches.push(format!(
                "step {step}: predicted m{m} processes all {packets} packets, \
its load rose by {delta}"
            ));
        }
    }
    for &m in &expect.must_not_process {
        let delta = load_delta(loads_before, loads, m);
        if delta != 0 {
            mismatches.push(format!(
                "step {step}: predicted m{m} sees no packet, its load rose by {delta}"
            ));
        }
    }
}

fn load_delta(before: &[u64], after: &[u64], m: u32) -> u64 {
    let b = before.get(m as usize).copied().unwrap_or(0);
    let a = after.get(m as usize).copied().unwrap_or(0);
    a.saturating_sub(b)
}

/// Packets dropped at crashed middleboxes, summed over the deployment.
fn dropped_failed(run: &ShardedRun) -> u64 {
    run.mbox_counters.iter().map(|c| c.dropped_failed).sum()
}

/// Refuses a corpus that names what `controller`'s world lacks: an
/// ingress stub past the stub count, a witness source outside that
/// stub's subnet, or a failed, restored, must-process or
/// must-not-process middlebox past the deployment. The error reads
/// `scenario <i> (<name>): <reason>`.
pub(crate) fn check_corpus(
    controller: &Controller,
    corpus: &[ReplayScenario],
) -> Result<(), String> {
    let boxes = controller.deployment().len();
    let addr_plan = controller.addr_plan();
    let stubs = addr_plan.stub_count();
    for (i, sc) in corpus.iter().enumerate() {
        let refuse = |reason: String| Err(format!("scenario {i} ({}): {reason}", sc.name));
        let (stub, src) = (sc.stub, sc.flow.src);
        if stub as usize >= stubs {
            return refuse(format!("stub {stub} is out of range ({stubs} stubs)"));
        }
        if addr_plan.stub_of(src) != Some(StubId(stub)) {
            return refuse(format!("flow source {src} lies outside stub {stub}"));
        }
        let mut ids = sc.steps.iter().flat_map(|step| match step {
            ReplayStep::FailMbox(m) | ReplayStep::RestoreMbox(m) => vec![*m],
            ReplayStep::Inject { expect, .. } => {
                [&expect.must_process[..], &expect.must_not_process[..]].concat()
            }
        });
        if let Some(m) = ids.find(|&m| m as usize >= boxes) {
            return refuse(format!("middlebox m{m} is out of range ({boxes} boxes)"));
        }
    }
    Ok(())
}

/// Replays every scenario and returns the verdicts plus overall
/// agreement (used by both the `sdm reach --replay` gate and the
/// property tests).
pub fn replay_corpus(
    controller: &Controller,
    strategy: Strategy,
    weights: Option<&SteeringWeights>,
    options: EnforcementOptions,
    corpus: &[ReplayScenario],
) -> (Vec<ReplayVerdict>, bool) {
    let verdicts: Vec<ReplayVerdict> = corpus
        .iter()
        .map(|s| replay_scenario(controller, strategy, weights, options, s))
        .collect();
    let all_agree = verdicts.iter().all(|v| v.agrees);
    (verdicts, all_agree)
}
