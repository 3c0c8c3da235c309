//! Reach-checker wall-clock vs topology size (PR 10): how long the
//! symbolic isolation verifier takes to prove/refute the committed
//! assertion sets on the campus (36 nodes), Waxman-425 and hierarchical
//! (≈21k nodes) fabrics, plus the flow-class counts that drove each
//! verdict.
//!
//! `*_check` times `check_assertions` alone (views and routes prebuilt —
//! on the hierarchical fabric the first check also pays the on-demand
//! per-destination Dijkstra fills, reported separately as
//! `hier_check_cold`). `hier_build` is the one-off cost of generating the
//! 21k-node fabric, building its `Controller` (addressing, candidate sets
//! and the structural plan verification `Controller::new` runs) and
//! extracting its symbolic view. The recorded
//! `*_flow_classes` counters are the number of symbolic classes examined
//! — the checker's work unit; no packet is ever enumerated.

use std::time::Instant;

use sdm_bench::reach_worlds::{hier_reach, world_reach};
use sdm_bench::ExperimentConfig;
use sdm_util::bench::Runner;
use sdm_verify::reach::{check_assertions, parse_assertions};

const CAMPUS_ASSERTS: &str = include_str!("../../../results/assertions_campus.txt");
const HIER_ASSERTS: &str = include_str!("../../../results/assertions_hier.txt");

fn main() {
    let runner = Runner::new("reach");

    // The committed campus assertion file uses the shared 10.0.0.0/8
    // stub scheme, so it checks unchanged on both controller worlds.
    let assertions = parse_assertions(CAMPUS_ASSERTS).expect("campus assertions parse");
    for (name, cfg) in [
        ("campus", ExperimentConfig::campus(1)),
        ("waxman", ExperimentConfig::waxman(1)),
    ] {
        let wr = world_reach(&cfg);
        let routes = wr.controller.routes();
        let report = check_assertions(&wr.view, routes, &assertions);
        runner.record(
            &format!("{name}_flow_classes"),
            report.flow_classes as f64,
        );
        runner.bench(&format!("{name}_check"), || {
            check_assertions(&wr.view, routes, &assertions)
        });
    }

    let assertions = parse_assertions(HIER_ASSERTS).expect("hier assertions parse");
    let t = Instant::now();
    let wr = hier_reach(1);
    runner.record("hier_build", t.elapsed().as_nanos() as f64);

    let routes = wr.controller.routes();
    let t = Instant::now();
    let report = check_assertions(&wr.view, routes, &assertions);
    runner.record("hier_check_cold", t.elapsed().as_nanos() as f64);
    runner.record("hier_flow_classes", report.flow_classes as f64);
    runner.bench("hier_check", || {
        check_assertions(&wr.view, routes, &assertions)
    });

}
