//! `waxman_reach`: the from-scratch symbolic isolation check on the
//! Waxman-425 world — `reach_view` under hot-potato, then
//! `check_assertions` against the controller's routing tables. One
//! iteration is one check.

use sdm_core::{reach_view, EnforcementOptions, Strategy};
use sdm_netsim::StubId;
use sdm_util::StdRng;
use sdm_verify::reach::{check_assertions, parse_assertions, Assertion, ReachReport, ReachView};
use sdm_workload::PolicyClassCounts;

use crate::harness::{measure, repeat_setup, Checks, Outcome, RunCfg};
use crate::metrics::{fnv, Layers};
use crate::span::Tracer;
use crate::units::routes_build_ms;
use crate::world::{Topo, World};

/// The four assertions of `results/assertions_campus.txt` — loop freedom,
/// an isolation and a waypoint between two stubs, an isolation from the
/// outside — with the two stubs drawn from the seed (seed 3 on the campus
/// file's own stubs 0 and 9 would be the committed file verbatim).
fn assertion_text(world: &World, seed: u64) -> String {
    let addrs = world.controller.addr_plan();
    let stubs = addrs.stub_count() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let a = rng.below(stubs);
    let b = (a + 1 + rng.below(stubs - 1)) % stubs;
    let (a, b) = (
        addrs.subnet(StubId(a as u32)),
        addrs.subnet(StubId(b as u32)),
    );
    format!(
        "loop-free ttl 64\nisolate {a} -> {b}\nwaypoint {a} -> {b} via FW\nisolate {a} -> 192.168.0.0/16\n"
    )
}

fn report_digest(report: &ReachReport) -> String {
    let json = report.to_json().to_compact_string();
    format!(
        "flow_classes={} findings={} holds={:?} report={:016x}",
        report.flow_classes,
        report.findings.len(),
        report.results.iter().map(|r| r.holds).collect::<Vec<_>>(),
        fnv(json.bytes().map(u64::from)),
    )
}

/// One iteration: one from-scratch check against the routing tables.
fn check(
    world: &World,
    view: &ReachView,
    assertions: &[Assertion],
    tr: &mut Tracer,
    checks: &mut Checks,
) -> ReachReport {
    let report = tr.span("verify.reach.check", || {
        check_assertions(view, world.controller.routes(), assertions)
    });
    checks.check(report.results.len() == assertions.len(), || {
        format!(
            "{} verdicts for {} assertions",
            report.results.len(),
            assertions.len()
        )
    });
    report
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let options = EnforcementOptions::default();
    // The campus world is the small input: 36 nodes against 425.
    let topo = if cfg.smoke {
        Topo::Campus
    } else {
        Topo::Waxman
    };
    let mut checks = Checks::default();
    let ((world, view, assertions), setup_s) = repeat_setup(cfg, tr, |tr| {
        let world = World::build(topo, PolicyClassCounts::default(), tr);
        let view = tr.span("core.reach.view_build", || {
            reach_view(&world.controller, Strategy::HotPotato, None, &options)
        });
        let assertions = parse_assertions(&assertion_text(&world, cfg.seed))
            .expect("generated assertions parse");
        tr.unrecorded(|tr| check(&world, &view, &assertions, tr, &mut checks));
        (world, view, assertions)
    });

    let mut last: Option<ReachReport> = None;
    let (timing, digest) = measure(cfg, tr, 15, &mut checks, |tr, _, checks| {
        let report = check(&world, &view, &assertions, tr, checks);
        let digest = report_digest(&report);
        last = Some(report);
        digest
    });
    let report = last.expect("at least one iteration ran");

    let mut layers = Layers::default();
    if cfg.trace {
        let check_ms = tr.median_ms("verify.reach.check");
        layers.set(
            "core.reach.view_build_ms",
            tr.median_ms("core.reach.view_build"),
        );
        layers.set("verify.reach.check_ms", check_ms);
        layers.set("verify.reach.flow_classes", report.flow_classes as f64);
        layers.set(
            "verify.reach.us_per_class",
            check_ms * 1e3 / report.flow_classes.max(1) as f64,
        );
        layers.set("verify.reach.findings", report.findings.len() as f64);
        layers.set("topology.routes_build_ms", routes_build_ms(&world));
        layers.set(
            "core.controller.build_ms",
            tr.median_ms("core.controller.build"),
        );
        layers.set("trace.overhead_share", timing.overhead_share());
    }

    Outcome {
        iter_ms: vec![timing.untraced_ms],
        units_per_iter: report.flow_classes as f64,
        setup_s,
        checks,
        digest,
        layers,
        shards: 1,
    }
}
