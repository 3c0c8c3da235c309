//! The control-loop and verification subcommands: `exhaustion`,
//! `resteer`, `metrics`, `reach`, `verify-plan`. Each prints one
//! deterministic document that `sdm golden` pins at 1 and 4 shards.

use std::process::ExitCode;

use sdm_core::{
    verify_controller, verify_enforcement, EnforcementOptions, EpochLoop, EpochReport,
    FlowSpec, LbOptions, MiddleboxId, ShardedRun, Strategy,
};
use sdm_util::json::Json;
use sdm_util::par::shard_count;
use sdm_verify::reach::{check_assertions, parse_assertions, Assertion, ReachReport};
use sdm_verify::witness::{corpus_from_json, corpus_to_json, ReplayScenario};
use sdm_workload::{exhaustion_attack, to_flow_specs};

use super::{packets, timed, SEED};
use crate::cli::{Args, Flag};
use crate::reach_worlds::{hazard_pass, hier_reach, world_reach, WorldReach};
use crate::replay::{check_corpus, replay_corpus};
use crate::{ExperimentConfig, World};

pub(super) const EXHAUSTION_FLAGS: &[Flag] = &[
    Flag::opt("--flows", "N", "200000", "attack flows"),
    Flag::opt("--sets", "N", "512", "capped run's negative-cache sets (8 ways each)"),
    SEED,
];

/// One-packet flows that match *no* policy: every packet forces a
/// classification miss and a negative-cache insert at its proxy. Run at
/// the default capacity (far above the attack population: no evictions)
/// and at `--sets`, where the cache must shed markers and hold its cap.
///
/// The negative cache partitions flows by stable hash exactly like the
/// shard split, so lengths and eviction counts are shard-invariant at
/// power-of-two corners. Exits 1 if any device's occupancy exceeds its cap.
pub(super) fn exhaustion(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let n_flows: usize = args.num("--flows");
    let sets: usize = args.num("--sets");
    if !sets.is_power_of_two() {
        eprintln!("--sets: must be a power of two");
        return ExitCode::FAILURE;
    }

    println!("# Exhaustion attack — negative-cache memory bound");
    println!("# campus topology, {n_flows} one-packet no-match flows");
    let world = World::build(&ExperimentConfig::campus(seed));
    let flows = exhaustion_attack(&world.generated.set, world.controller.addr_plan(), n_flows);
    let specs = to_flow_specs(&flows, 64);

    let uncapped = exhaustion_run(&world, &specs, sdm_policy::DEFAULT_NEG_SETS);
    let capped = exhaustion_run(&world, &specs, sets);

    let cap_default = sdm_policy::DEFAULT_NEG_SETS * sdm_policy::NEG_WAYS;
    let cap_small = sets * sdm_policy::NEG_WAYS;
    let ok_before = exhaustion_summary("before: default capacity", &uncapped, cap_default);
    let ok_after = exhaustion_summary("after: capped capacity", &capped, cap_small);

    // the cap changes memory, never forwarding behavior
    let same_delivery = uncapped.stats.delivered == capped.stats.delivered
        && uncapped.stats.delivered_external == capped.stats.delivered_external;
    println!("## invariants");
    println!(
        "delivery unchanged   {}",
        if same_delivery { "yes" } else { "NO" }
    );

    if ok_before && ok_after && same_delivery {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn exhaustion_run(world: &World, specs: &[FlowSpec], sets: usize) -> ShardedRun {
    let options = EnforcementOptions {
        neg_cache_sets: sets,
        ..EnforcementOptions::default()
    };
    world
        .controller
        .run_sharded(Strategy::HotPotato, None, options, specs, shard_count())
}

fn exhaustion_summary(label: &str, run: &ShardedRun, cap: usize) -> bool {
    let fp = &run.footprint;
    let mut stats = sdm_policy::FlowTableStats::default();
    for t in fp.proxy_flow_stats.iter().chain(&fp.mbox_flow_stats) {
        stats.merge(t);
    }
    // the attack installs no positives, so proxy entries *are* negatives
    let neg_entries: u64 = fp.proxy_flow_entries.iter().sum();
    let evictions: u64 = fp.proxy_neg_evictions.iter().sum::<u64>()
        + fp.ingress_neg_evictions.iter().sum::<u64>()
        + fp.mbox_neg_evictions.iter().sum::<u64>();
    let worst = fp.proxy_flow_entries.iter().copied().max().unwrap_or(0);
    println!("## {label}");
    println!("delivered            {}", run.stats.delivered + run.stats.delivered_external);
    println!("proxy lookups  hits  {}", stats.hits);
    println!("               neg   {}", stats.negative_hits);
    println!("               miss  {}", stats.misses);
    println!("neg entries (total)  {neg_entries}");
    println!("neg entries (worst)  {worst}");
    println!("per-table cap        {cap}");
    println!("evictions            {evictions}");
    let ok = worst as usize <= cap;
    println!(
        "bounded              {}",
        if ok { "yes" } else { "NO — cap exceeded" }
    );
    ok
}

const fn epochs(default: &'static str) -> Flag {
    Flag::opt("--epochs", "N", default, "epochs to run")
}

pub(super) const RESTEER_FLAGS: &[Flag] =
    &[epochs("6"), packets("200000", "packets injected per epoch"), SEED];

pub(super) const METRICS_FLAGS: &[Flag] = &[
    epochs("3"),
    packets("100000", "packets injected per epoch"),
    SEED,
    Flag::switch(
        "--full",
        "include the families that depend on SDM_SHARDS\n(histograms, pinned-replay counts)",
    ),
    Flag::switch("--prometheus", "Prometheus text exposition instead of JSON"),
];

/// The epoch schedule `resteer` and `metrics` share: `--epochs` epochs of
/// `--packets` packets through one [`EpochLoop`] over `world`, epoch `e`
/// drawing its flows from seed `--seed + 100 + population(e)`, each
/// epoch's report handed to `each` together with the loop.
fn run_epochs<'w>(
    world: &'w World,
    args: &Args,
    options: EnforcementOptions,
    population: fn(u64) -> u64,
    mut each: impl FnMut(&mut EpochLoop<'w>, &EpochReport),
) -> EpochLoop<'w> {
    let seed: u64 = args.num("--seed");
    let epochs: u64 = args.num("--epochs");
    let packets: u64 = args.num("--packets");
    let mut ep = EpochLoop::new(&world.controller, shard_count(), options, LbOptions::default());
    for e in 1..=epochs {
        let flows = world.flows(packets, seed.wrapping_add(100 + population(e)));
        let report = ep
            .run_epoch(&to_flow_specs(&flows, 512))
            .expect("epoch must solve and verify");
        each(&mut ep, &report);
    }
    ep
}

/// §III.C's loop with the busiest middlebox failing after epoch 2 and
/// returning after epoch 4. λ is printed with full `{:?}` precision so
/// even mantissa-level drift breaks the golden.
pub(super) fn resteer(args: &Args) -> ExitCode {
    let world = World::build(&ExperimentConfig::campus(args.num("--seed")));
    println!("# Online re-steer control loop: measure -> warm re-solve -> verify -> re-steer");
    println!(
        "# campus topology, {} packets/epoch, {} epochs;",
        args.num::<u64>("--packets"),
        args.num::<u64>("--epochs")
    );
    println!("# busiest middlebox fails after epoch 2, is restored after epoch 4");
    println!(
        "{:>5} {:>6} {:>12} {:>22} {:>7} {:>5} {:>9}",
        "epoch", "cells", "volume", "lambda", "pivots", "warm", "activated"
    );
    let mut victim = MiddleboxId(0);
    let ep = run_epochs(&world, args, EnforcementOptions::default(), |e| e, |ep, r| {
        println!(
            "{:>5} {:>6} {:>12.0} {:>22} {:>7} {:>5} {:>9}",
            r.epoch,
            r.cells,
            r.volume,
            format!("{:?}", r.lambda),
            r.pivots,
            r.warm,
            r.activated
        );
        if r.epoch == 2 {
            let busiest = (0u32..)
                .zip(ep.middlebox_loads())
                .max_by_key(|&(_, load)| load)
                .expect("non-empty deployment");
            victim = MiddleboxId(busiest.0);
            ep.fail_middlebox(victim);
            println!("# fail middlebox {}", victim.0);
        }
        if r.epoch == 4 {
            ep.restore_middlebox(victim);
            println!("# restore middlebox {}", victim.0);
        }
    });
    println!(
        "# delivered {} dropped_failed {}",
        ep.delivered(),
        ep.dropped_failed()
    );
    println!("# loads {:?}", ep.middlebox_loads());
    ExitCode::SUCCESS
}

/// Telemetry forced on; without `--full` the merged
/// [`sdm_telemetry::Snapshot`] is byte-identical at any shard count.
pub(super) fn metrics(args: &Args) -> ExitCode {
    let world = World::build(&ExperimentConfig::campus(args.num("--seed")));
    let options = EnforcementOptions {
        telemetry: Some(true),
        ..Default::default()
    };
    // Epochs come in pairs sharing one flow population: the second of a
    // pair re-injects the first's flows, so the snapshot exercises
    // flow-cache hits, pinned steering replays and a warm LP solve — not
    // just the all-miss cold path.
    let ep = run_epochs(&world, args, options, |e| e.div_ceil(2), |_, _| {});

    let snap = ep.telemetry_snapshot();
    let full = args.has("--full");
    if args.has("--prometheus") {
        print!("{}", snap.to_prometheus(full));
    } else {
        println!("{}", snap.to_json(full));
    }
    ExitCode::SUCCESS
}

pub(super) const REACH_FLAGS: &[Flag] = &[
    Flag::opt("--seed", "N", "1", "world seed"),
    Flag::optional("--campus-assertions", "FILE", "check FILE on the campus world"),
    Flag::optional("--hier-assertions", "FILE", "check FILE on the ≈21k-node hierarchical fabric"),
    Flag::optional("--waxman-assertions", "FILE", "check FILE on the Waxman-425 world"),
    Flag::optional("--corpus-out", "FILE", "write the campus counterexample corpus to FILE"),
    Flag::optional(
        "--replay",
        "FILE",
        "replay corpus FILE against the campus world;\nexit 1 on any disagreement",
    ),
];

/// In check mode one deterministic JSON document is printed, each check's
/// work counters ([`sdm_verify::reach::ReachStats`]) go to stderr, and the
/// exit code is 0 even when assertions are refuted — the committed
/// assertion sets intentionally contain refutable assertions so the
/// counterexample corpus is non-empty. The campus run additionally
/// verifies a hazard state: the middlebox that hot-potato steering pins
/// first is declared failed, and every stale-pinned-flow window (`R005`)
/// is reported and lowered into the corpus.
///
/// Every world — campus, the ≈21k-node hierarchical fabric and Waxman —
/// is a live controller checked against its own routing tables, so every
/// witness in the report can be replayed in the simulator.
pub(super) fn reach(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");

    if let Some(path) = args.value("--replay") {
        return reach_replay(seed, path);
    }

    let mut sections: Vec<(&str, Json)> = vec![("seed", Json::from(seed))];
    let mut corpus: Vec<ReplayScenario> = Vec::new();
    // the section every world other than the campus reports
    let sized = |nodes: usize, stubs: usize, report: &ReachReport| {
        Json::obj([
            ("nodes", Json::from(nodes)),
            ("stubs", Json::from(stubs)),
            ("report", report.to_json()),
        ])
    };

    if let Some(path) = args.value("--campus-assertions") {
        let (mut wr, report) =
            check_world("campus", path, || world_reach(&ExperimentConfig::campus(seed)));
        corpus.extend(report.scenarios());

        let (failed, hazard_report) = hazard_pass(&mut wr);
        corpus.extend(hazard_report.scenarios());
        sections.push((
            "campus",
            Json::obj([
                ("converged", report.to_json()),
                (
                    "hazard",
                    Json::obj([
                        ("failed", Json::from(failed as u64)),
                        ("report", hazard_report.to_json()),
                    ]),
                ),
            ]),
        ));
    }

    if let Some(path) = args.value("--hier-assertions") {
        let (wr, report) = check_world("hierarchical", path, || hier_reach(seed));
        sections.push((
            "hierarchical",
            sized(wr.view.plan.node_count, wr.view.stub_routers.len(), &report),
        ));
    }

    if let Some(path) = args.value("--waxman-assertions") {
        let (wr, report) =
            check_world("waxman", path, || world_reach(&ExperimentConfig::waxman(seed)));
        sections.push((
            "waxman",
            sized(wr.view.plan.node_count, wr.view.stub_routers.len(), &report),
        ));
    }

    if let Some(path) = args.value("--corpus-out") {
        let text = corpus_to_json(&corpus).to_string();
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("sdm reach: cannot write corpus '{path}': {e}");
            return ExitCode::from(2);
        }
        sections.push(("corpus_scenarios", Json::from(corpus.len())));
    }

    println!("{}", Json::obj(sections));
    ExitCode::SUCCESS
}

fn reach_replay(seed: u64, path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sdm reach: cannot read corpus '{path}': {e}");
            return ExitCode::from(2);
        }
    };
    let corpus = match corpus_from_json(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sdm reach: '{path}' is not a reach corpus: {e}");
            return ExitCode::from(2);
        }
    };

    let wr = world_reach(&ExperimentConfig::campus(seed));
    if let Err(e) = check_corpus(&wr.controller, &corpus) {
        eprintln!("sdm reach: '{path}' {e}");
        return ExitCode::from(2);
    }
    let (verdicts, all_agree) = replay_corpus(
        &wr.controller,
        Strategy::HotPotato,
        None,
        wr.options,
        &corpus,
    );
    let out = Json::obj([
        ("seed", Json::from(seed)),
        ("scenarios", Json::from(corpus.len())),
        ("agree", Json::Bool(all_agree)),
        (
            "verdicts",
            Json::Arr(verdicts.iter().map(|v| v.to_json()).collect()),
        ),
    ]);
    println!("{out}");
    if all_agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds one world and checks the assertion file at `path` on it. The
/// check's work counters and the host time of both steps go to stderr.
fn check_world(
    name: &str,
    path: &str,
    build: impl FnOnce() -> WorldReach,
) -> (WorldReach, ReachReport) {
    let assertions = load_assertions(path);
    let (wr, built) = timed(build);
    let (report, checked) =
        timed(|| check_assertions(&wr.view, wr.controller.routes(), &assertions));
    eprintln!("sdm reach: {name} {:?}", report.stats);
    eprintln!(
        "sdm reach: {name} built in {:.1} ms, checked in {:.1} ms",
        built.as_secs_f64() * 1e3,
        checked.as_secs_f64() * 1e3
    );
    (wr, report)
}

fn load_assertions(path: &str) -> Vec<Assertion> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("sdm reach: cannot read assertions '{path}': {e}");
        std::process::exit(2);
    });
    parse_assertions(&text).unwrap_or_else(|e| {
        eprintln!("sdm reach: {path}: {e}");
        std::process::exit(2);
    })
}

pub(super) const VERIFY_PLAN_FLAGS: &[Flag] =
    &[packets("200000", "measurement workload, in packets"), SEED];

/// Per topology, verifies the hot-potato plan straight out of the
/// controller, then the full load-balanced plan (LP weights plus
/// enforcement options) after a measurement workload. Exits 1 unless every
/// report is error-free.
pub(super) fn verify_plan(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let packets: u64 = args.num("--packets");

    let mut failed = false;
    for (name, cfg) in [
        ("campus", ExperimentConfig::campus(seed)),
        ("waxman", ExperimentConfig::waxman(seed)),
    ] {
        let world = World::build(&cfg);
        let static_report = verify_controller(&world.controller);

        let flows = world.flows(packets, seed.wrapping_add(17));
        let (_, weights, _) = world
            .measure_and_solve(&flows)
            .expect("load-balancing LP must solve on the evaluation worlds");
        let lb_report =
            verify_enforcement(&world.controller, Some(&weights), &EnforcementOptions::default());

        failed |= static_report.has_errors() || lb_report.has_errors();
        let out = Json::obj([
            ("topology", Json::from(name)),
            ("static", static_report.to_json()),
            ("load_balanced", lb_report.to_json()),
        ]);
        println!("{}", out.to_string_pretty());
    }

    if failed {
        eprintln!("verify_plan: plan verification FAILED (see reports above)");
        ExitCode::FAILURE
    } else {
        println!("verify_plan: all plans verified clean");
        ExitCode::SUCCESS
    }
}
