//! PR-10 static/dynamic agreement property tests: every `R0xx` witness
//! the reach checker emits must replay in the simulator with exactly the
//! predicted outcome — at both shard corners (`SDM_SHARDS` 1/4) — and
//! deployments whose assertions all hold must produce an empty corpus
//! that trivially replays clean.
//!
//! The corners are exercised in-process by setting the environment
//! variable the replay reads; every test that sets it holds one lock, so
//! the process-global variable is never raced.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use sdm_bench::reach_worlds::{hazard_pass, hier_reach, world_reach, WorldReach};
use sdm_bench::replay::replay_corpus;
use sdm_bench::ExperimentConfig;
use sdm_core::{EnforcementOptions, EpochLoop, LbOptions, MiddleboxId, Strategy};
use sdm_netsim::Prefix;
use sdm_verify::reach::{
    check_assertions, parse_assertions, render_all_classes, Assertion, FlowClass, ReachCode,
    ReachStats,
};
use sdm_verify::ReplayScenario;
use sdm_workload::to_flow_specs;

const CAMPUS_ASSERTS: &str = include_str!("../../../results/assertions_campus.txt");
const HIER_ASSERTS: &str = include_str!("../../../results/assertions_hier.txt");

/// Held by every test that sets `SDM_SHARDS`.
static SHARDS_ENV: Mutex<()> = Mutex::new(());

/// Replays `corpus` against `wr`'s controller with sharding requested and
/// not; the simulator must confirm every witness at both corners.
fn assert_replays_at_both_corners(wr: &WorldReach, corpus: &[ReplayScenario]) {
    let _env = SHARDS_ENV.lock().unwrap_or_else(PoisonError::into_inner);
    for shards in ["1", "4"] {
        std::env::set_var("SDM_SHARDS", shards);
        let (verdicts, all_agree) =
            replay_corpus(&wr.controller, Strategy::HotPotato, None, wr.options, corpus);
        assert_eq!(verdicts.len(), corpus.len());
        let disagreements: Vec<String> = verdicts
            .iter()
            .filter(|v| !v.agrees)
            .map(|v| format!("{}: {:?}", v.name, v.mismatches))
            .collect();
        assert!(
            all_agree,
            "simulator disagreed at SDM_SHARDS={shards}:\n{}",
            disagreements.join("\n")
        );
    }
    std::env::remove_var("SDM_SHARDS");
}

#[test]
fn every_witness_replays_with_predicted_outcome_at_all_corners() {
    let assertions = parse_assertions(CAMPUS_ASSERTS).expect("campus assertions parse");
    let mut wr = world_reach(&ExperimentConfig::campus(1));
    let report = check_assertions(&wr.view, wr.controller.routes(), &assertions);
    assert!(
        !report.is_clean(),
        "the committed assertion file must contain refutable assertions"
    );
    let mut corpus = report.scenarios();
    assert!(report.has_code(ReachCode::IsolationBreach));
    assert!(report.has_code(ReachCode::WaypointBypass));

    // The epoch-hazard class: a middlebox fails while proxies still hold
    // pinned flows; the static tier must find the window...
    let (_failed, hazard_report) = hazard_pass(&mut wr);
    assert!(hazard_report.has_code(ReachCode::StalePinnedFlow));
    corpus.extend(hazard_report.scenarios());
    assert!(
        hazard_report.scenarios().iter().any(|s| s.code == "R005"),
        "the hazard pass must lower at least one stale-pin window to a scenario"
    );

    // ...and the simulator must confirm every witness.
    assert_replays_at_both_corners(&wr, &corpus);
}

#[test]
fn fabric_witnesses_replay_at_all_corners() {
    // The ≈21k-node fabric is a controller world like the campus: its
    // R001 and R002 witnesses replay on the same addressing, candidate
    // sets and routes the checker verified.
    let assertions = parse_assertions(HIER_ASSERTS).expect("hier assertions parse");
    let wr = hier_reach(1);
    let report = check_assertions(&wr.view, wr.controller.routes(), &assertions);
    let corpus = report.scenarios();
    let codes: Vec<&str> = corpus.iter().map(|s| s.code.as_str()).collect();
    assert_eq!(codes, ["R001", "R002"]);
    assert_replays_at_both_corners(&wr, &corpus);
}

#[test]
fn campus_check_work_counters_are_pinned() {
    // Where a from-scratch check of the committed campus assertions
    // spends its work: 1,302 classes traced (some peeled pieces are
    // unroutable enterprise space and yield none), 2,355 routed legs
    // whose next hops are looked up only until a node with a known
    // outcome, and text rendered for the path-carrying witnesses of
    // findings only.
    let assertions = parse_assertions(CAMPUS_ASSERTS).expect("campus assertions parse");
    let wr = world_reach(&ExperimentConfig::campus(1));
    let report = check_assertions(&wr.view, wr.controller.routes(), &assertions);
    assert_eq!(report.flow_classes, 1_302);
    assert_eq!(
        report.stats,
        ReachStats {
            ingress_pieces: 219,
            peeled_classes: 1_762,
            classes_traced: 1_302,
            witnesses_rendered: 8,
            route_legs_walked: 2_355,
            route_hops_walked: 1_705,
        }
    );
    let with_path = report
        .findings
        .iter()
        .filter(|f| f.witness.as_ref().is_some_and(|w| !w.path.is_empty()))
        .count();
    assert_eq!(report.stats.witnesses_rendered, with_path);
}

#[test]
fn lazy_witness_paths_equal_eager_paths_under_every_strategy() {
    // Every class's path rendered on the spot (`render_all_classes`)
    // against the paths `check_assertions` renders after the fact, for
    // findings only: same class and ingress, same hops. `isolate * -> *`
    // turns every delivered class into a finding, so all of them compare.
    let assertions = parse_assertions(&format!("{CAMPUS_ASSERTS}\nisolate * -> *\n"))
        .expect("campus assertions parse");
    let world = sdm_bench::World::build(&ExperimentConfig::campus(1));
    let hp = world.run_strategy(Strategy::HotPotato, None, &world.flows(50_000, 11));
    let (weights, _) = world
        .controller
        .solve_load_balanced(&hp.measurements, LbOptions::default())
        .expect("load-balancing LP must solve");
    let options = EnforcementOptions::default();
    let routes = world.controller.routes();
    for (strategy, weights) in [
        (Strategy::HotPotato, None),
        (Strategy::Random { salt: 0xDA7A }, None),
        (Strategy::LoadBalanced, Some(&weights)),
    ] {
        let view = sdm_core::reach_view(&world.controller, strategy, weights, &options);
        let mut eager: BTreeMap<(FlowClass, String), Vec<String>> = BTreeMap::new();
        for assertion in &assertions {
            let (src, dst) = match *assertion {
                Assertion::Isolated { src, dst } | Assertion::Waypoint { src, dst, .. } => {
                    (src, dst)
                }
                Assertion::LoopFree { .. } => (Prefix::ANY, Prefix::ANY),
            };
            for (class, path) in render_all_classes(&view, routes, src, dst) {
                eager.insert((class, path[0].clone()), path);
            }
        }
        let report = check_assertions(&view, routes, &assertions);
        let mut compared = 0usize;
        for witness in report.findings.iter().filter_map(|f| f.witness.as_ref()) {
            let Some(ingress_hop) = witness.path.first() else {
                continue;
            };
            assert_eq!(
                eager.get(&(witness.class, ingress_hop.clone())),
                Some(&witness.path),
                "{strategy:?}: {}",
                witness.class
            );
            compared += 1;
        }
        assert!(compared > 1_000, "{strategy:?}: only {compared} witness paths");
    }
}

#[test]
fn clean_deployment_produces_empty_corpus_and_replays_clean() {
    // Assertions the campus deployment satisfies: loop freedom, and
    // isolation from enterprise space no stub subnet backs (unroutable,
    // so the isolation holds vacuously).
    let assertions =
        parse_assertions("loop-free ttl 64\nisolate 10.0.0.0/20 -> 10.200.0.0/16\n")
            .expect("assertions parse");
    let wr = world_reach(&ExperimentConfig::campus(1));
    let report = check_assertions(&wr.view, wr.controller.routes(), &assertions);
    assert!(
        report.is_clean(),
        "unexpected findings: {:?}",
        report.findings
    );
    assert!(report.results.iter().all(|r| r.holds));
    let corpus = report.scenarios();
    assert!(corpus.is_empty());

    let (verdicts, all_agree) = replay_corpus(
        &wr.controller,
        Strategy::HotPotato,
        None,
        wr.options,
        &corpus,
    );
    assert!(all_agree && verdicts.is_empty());
}

#[test]
fn epoch_loop_exposes_stale_pin_hazard_to_the_checker() {
    // The live control loop: run an epoch (pins flows under the solved
    // weights), crash a middlebox, and ask the loop's own verification
    // hook; the mid-epoch hazard state must surface as R005.
    let world = sdm_bench::World::build(&ExperimentConfig::campus(1));
    let mut ep = EpochLoop::new(
        &world.controller,
        1,
        EnforcementOptions::default(),
        LbOptions::default(),
    );
    let flows = world.flows(50_000, 11);
    let specs = to_flow_specs(&flows, 512);
    ep.run_epoch(&specs).expect("epoch must solve");

    let clean = ep.verify_reach(&[]);
    assert!(
        !clean.has_code(ReachCode::StalePinnedFlow),
        "no stale-pin window before any failure"
    );

    for m in 0..world.deployment.len() as u32 {
        ep.fail_middlebox(MiddleboxId(m));
    }
    let report = ep.verify_reach(&[]);
    assert!(
        report.has_code(ReachCode::StalePinnedFlow),
        "all boxes failed mid-epoch: every pinned flow is stale"
    );

    ep.restore_middlebox(MiddleboxId(0));
    let partial = ep.verify_reach(&[]);
    assert!(partial.has_code(ReachCode::StalePinnedFlow));
}
