//! Every experiment of the evaluation as one `fn(&Args) -> ExitCode`,
//! registered in [`EXPERIMENTS`]. This file holds the table, the paper's
//! figures and Table III, and the ablations A–H; `run` is the scenario
//! runner behind bare `sdm [OPTIONS]`, `control` holds the control-loop
//! and verification subcommands.
//!
//! Deterministic results go to stdout and are pinned byte-for-byte by
//! [`crate::golden::GOLDENS`]; wall-clock goes to stderr. `SDM_SHARDS`
//! sets the flow-shard count of every sharded run (default: autodetected
//! core count) and never changes a byte of stdout.

mod control;
mod run;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sdm_core::{
    Enforcement, EnforcementOptions, KConfig, LbOptions, LoadRow, MiddleboxId, SteeringEncoding,
    SteeringWeights, Strategy,
};
use sdm_netsim::{
    FiveTuple, Ipv4Addr, Packet, Prefix, Protocol, SimStats, SimTime, Simulator,
};
use sdm_policy::{
    ActionList, ClassifierKind, LocalClassifier, NetworkFunction, Policy, PolicySet, PortMatch,
    TrafficDescriptor,
};
use sdm_util::par::{par_map, shard_count};
use sdm_workload::{
    generate_flows, generate_flows_with_total, Flow, PolicyClassCounts, WorkloadConfig,
};

use crate::cli::{Args, Experiment, Flag};
use crate::{figure_header, figure_row, ExperimentConfig, TopologyKind, World, PLOT_ORDER};

const SEED: Flag = Flag::opt("--seed", "N", "3", "world seed");
const TOPOLOGY: Flag = Flag::opt("--topology", "campus|waxman", "campus", "evaluation topology");

const fn packets(default: &'static str, help: &'static str) -> Flag {
    Flag::opt("--packets", "N", default, help)
}

const fn experiment(
    name: &'static str,
    summary: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> ExitCode,
) -> Experiment {
    Experiment { name, summary, flags, operands: None, run }
}

/// Every `sdm` subcommand. `run` is also what `sdm [OPTIONS]` means.
pub static EXPERIMENTS: &[Experiment] = &[
    experiment(
        "run",
        "one strategy over one generated workload; prints the per-type load report",
        run::FLAGS,
        run::run,
    ),
    experiment(
        "fig",
        "Figures 4/5: max load per middlebox type vs traffic volume, HP / Rand / LB",
        &[
            TOPOLOGY,
            Flag::opt("--volumes", "M,M,…", "1,2,3,4,5,6,7,8,9,10", "total packets, in millions"),
            SEED,
        ],
        fig,
    ),
    experiment(
        "table3",
        "Table III: per-type max/min middlebox load on the campus, HP / Rand / LB",
        &[packets("10000000", "total packets (the figure's top end)"), SEED],
        table3,
    ),
    experiment(
        "k-sweep",
        "Ablation A: candidate-set size k = 1..7 vs LB's maximum load",
        &[packets("5000000", "total packets"), SEED],
        k_sweep,
    ),
    experiment(
        "lp-formulations",
        "Ablation B: Eq. (1) full vs Eq. (2) reduced LP (solve times on stderr)",
        &[packets("500000", "total packets"), SEED],
        lp_formulations,
    ),
    experiment(
        "label-switching",
        "Ablation C: IP-over-IP vs label switching vs source routing, near-MTU packets",
        &[
            Flag::opt("--flows", "N", "200", "number of flows"),
            Flag::opt("--pkts", "N", "50", "packets per flow"),
            Flag::opt(
                "--payload",
                "N",
                "1470",
                "payload bytes: fits the 1500 MTU bare, exceeds it\n\
                 under one tunnel header or more than 7 SR segments",
            ),
            Flag::switch("--emulate", "emulate fragmentation/reassembly instead of counting"),
            SEED,
        ],
        label_switching,
    ),
    experiment(
        "flow-cache",
        "Ablation D: proxy flow-cache hit rate (classifier cost per lookup on stderr)",
        &[packets("200000", "total packets, injected individually"), SEED],
        flow_cache,
    ),
    experiment(
        "failure-recovery",
        "Ablation E: crash the busiest firewall; loss before and after the controller reacts",
        &[packets("1000000", "total packets per phase"), SEED],
        failure_recovery,
    ),
    experiment(
        "adaptivity",
        "Ablation F: traffic drift; stale epoch-1 weights vs re-solving on fresh measurements",
        &[packets("1000000", "packets per epoch"), SEED],
        adaptivity,
    ),
    experiment(
        "path-stretch",
        "Ablation G: link hops per packet with steering vs plain shortest paths",
        &[packets("1000000", "total packets"), SEED],
        path_stretch,
    ),
    experiment(
        "queueing",
        "Ablation H: queueing delay per strategy under finite middlebox service rates",
        &[
            Flag::opt("--flows", "N", "4000", "flows (packet-level)"),
            Flag::opt("--window", "N", "2000000", "arrival window in ticks"),
            Flag::opt("--service", "N", "150", "middlebox service ticks per packet"),
            SEED,
        ],
        queueing,
    ),
    experiment(
        "exhaustion",
        "flow-table exhaustion attack: negative-cache memory bound, default vs capped",
        control::EXHAUSTION_FLAGS,
        control::exhaustion,
    ),
    experiment(
        "resteer",
        "online re-steer loop: measure, warm re-solve, verify, swap; a box fails and returns",
        control::RESTEER_FLAGS,
        control::resteer,
    ),
    experiment(
        "metrics",
        "telemetry snapshot of the re-steer scenario (JSON or Prometheus text)",
        control::METRICS_FLAGS,
        control::metrics,
    ),
    experiment(
        "reach",
        "symbolic isolation check of assertion files; counterexample corpus and replay",
        control::REACH_FLAGS,
        control::reach,
    ),
    experiment(
        "verify-plan",
        "static plan verifier over the campus and Waxman worlds, HP and LB plans",
        control::VERIFY_PLAN_FLAGS,
        control::verify_plan,
    ),
    Experiment {
        name: "golden",
        summary: "re-run the subcommands behind results/ and compare (or rewrite) the bytes",
        flags: crate::golden::FLAGS,
        operands: Some("[NAME…]"),
        run: crate::golden::run,
    },
];

/// The paper's setting on `topology`.
fn config(topology: TopologyKind, seed: u64) -> ExperimentConfig {
    ExperimentConfig { topology, ..ExperimentConfig::campus(seed) }
}

/// The value of an enumerated flag (which must have a default). Like an
/// unparsable number, anything else is fatal: prints
/// `unknown <flag> '<value>' (expected a|b)` and exits non-zero.
fn choice<T: Copy>(args: &Args, key: &str, options: &[(&str, T)]) -> T {
    let given = args.value(key).expect("enumerated flags have defaults");
    match options.iter().find(|(name, _)| *name == given) {
        Some(&(_, v)) => v,
        None => {
            let names: Vec<&str> = options.iter().map(|(name, _)| *name).collect();
            eprintln!("unknown {} '{given}' (expected {})", &key[2..], names.join("|"));
            std::process::exit(1)
        }
    }
}

fn topology(args: &Args) -> TopologyKind {
    choice(
        args,
        "--topology",
        &[("campus", TopologyKind::Campus), ("waxman", TopologyKind::Waxman)],
    )
}

/// Packets that reached their destination, inside or outside the enterprise.
pub(crate) fn delivered(s: &SimStats) -> u64 {
    s.delivered + s.delivered_external
}

/// Aggregate-injects every flow at `payload` bytes per packet and runs the
/// simulation to completion.
fn inject_and_run(enf: &mut Enforcement, flows: &[Flow], payload: u32) {
    for f in flows {
        enf.inject_flow(f.five_tuple, f.packets, payload);
    }
    enf.run();
}

/// Runs `f` and reports how long the host took — for stderr only.
#[expect(
    clippy::disallowed_methods,
    reason = "a host-clock timing printed to stderr only, never into a golden"
)]
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Each volume is an independent experiment, swept on scoped threads with
/// the flows of each run sharded on top.
fn fig(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let topology = topology(args);
    let volumes: Vec<u64> = args
        .value("--volumes")
        .expect("--volumes has a default")
        .split(',')
        .map(|v| Args::parse_num("--volumes", v.trim()))
        .collect();

    let (figure, name) = match topology {
        TopologyKind::Campus => (4, "campus"),
        TopologyKind::Waxman => (5, "Waxman"),
    };
    println!("# Figure {figure} — {name} topology: max middlebox load vs traffic volume");
    println!("# columns per type: hot-potato (HP), random (Rd), load-balanced (LB)");
    let world = World::build(&config(topology, seed));
    println!("{}", figure_header());
    let rows = par_map(&volumes, |_, &m| {
        let total = m * 1_000_000;
        let flows = world.flows(total, seed.wrapping_add(m));
        let c = world.compare_strategies(&flows);
        figure_row(total, &c)
    });
    for row in rows {
        println!("{row}");
    }
    println!("# expected shape (paper): loads grow linearly; LB < Rand < HP for every type");
    ExitCode::SUCCESS
}

fn table3(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let total: u64 = args.num("--packets");
    let shards = shard_count();

    println!("# Table III — load distribution (max/min packets per middlebox type),");
    println!("# campus topology at {total} total packets");
    let (world, t) = timed(|| World::build(&ExperimentConfig::campus(seed)));
    eprintln!("[table3] build world: {:.3}s", t.as_secs_f64());
    let (flows, t) = timed(|| world.flows(total, seed.wrapping_add(42)));
    eprintln!("[table3] generate {} flows: {:.3}s", flows.len(), t.as_secs_f64());
    let (c, t) = timed(|| world.compare_strategies(&flows));
    eprintln!(
        "[table3] run 3 strategies ({shards} shard{}): {:.3}s",
        if shards == 1 { "" } else { "s" },
        t.as_secs_f64()
    );

    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "Middlebox", "Hot-potato", "Random", "Load-balance"
    );
    for f in PLOT_ORDER {
        for (which, max) in [("max.", true), ("min.", false)] {
            let pick = |r: &LoadRow| if max { r.max } else { r.min };
            let [hp, rd, lb] = [&c.hp, &c.rand, &c.lb].map(|run| run.report.row(f).map_or(0, pick));
            println!("{:<12} {hp:>14} {rd:>14} {lb:>14}", format!("{} {which}", f.abbrev()));
        }
    }
    println!("# expected shape (paper): LB's max/min spread is far narrower than");
    println!("# Rand's, which is far narrower than HP's; WP and TM stay less");
    println!("# balanced than FW/IDS because fewer replicas exist.");
    ExitCode::SUCCESS
}

fn k_sweep(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let total: u64 = args.num("--packets");

    println!("# Ablation A — k-sweep on the campus topology, LB strategy,");
    println!("# {total} total packets. k = 1 is equivalent to hot-potato.");
    println!(
        "{:>3} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "k", "lambda", "FW-max", "IDS-max", "WP-max", "TM-max"
    );
    // Each k-point is an independent world: build, run and solve them in
    // parallel, print in order afterwards.
    let ks: Vec<usize> = (1..=7).collect();
    let rows = par_map(&ks, |_, &k| {
        let mut cfg = ExperimentConfig::campus(seed);
        cfg.k = KConfig::uniform(k);
        let world = World::build(&cfg);
        let flows = world.flows(total, seed.wrapping_add(7));
        let c = world.compare_strategies(&flows);
        let maxes: Vec<u64> = PLOT_ORDER
            .iter()
            .map(|&f| c.lb.report.row(f).map_or(0, |r| r.max))
            .collect();
        (k, c.lb_report.lambda, maxes)
    });
    for (k, lambda, maxes) in rows {
        println!(
            "{:>3} {:>12.0} {:>12} {:>12} {:>12} {:>12}",
            k, lambda, maxes[0], maxes[1], maxes[2], maxes[3]
        );
    }
    println!("# expected shape: max loads drop steeply from k=1 and flatten once");
    println!("# k approaches the number of deployed replicas per type.");
    ExitCode::SUCCESS
}

fn lp_formulations(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let total: u64 = args.num("--packets");

    println!("# Ablation B — Eq. (1) full vs Eq. (2) reduced LP formulation,");
    println!("# campus topology, {total} packets, 3 policies per class.");
    let mut cfg = ExperimentConfig::campus(seed);
    cfg.policy_counts = PolicyClassCounts {
        many_to_one: 3,
        one_to_many: 3,
        one_to_one: 3,
        companions: false,
    };
    let world = World::build(&cfg);
    let flows = world.flows(total, seed.wrapping_add(5));
    let measure = world.run_strategy(Strategy::HotPotato, None, &flows);

    let ((w2, reduced), reduced_time) = timed(|| {
        world
            .controller
            .solve_load_balanced(&measure.measurements, LbOptions::default())
            .expect("reduced LP must solve")
    });
    let ((w1, full), full_time) = timed(|| {
        world
            .controller
            .solve_load_balanced_full(&measure.measurements, LbOptions::default())
            .expect("full LP must solve")
    });
    eprintln!("[lp-formulations] solve time: Eq. (2) {reduced_time:?}, Eq. (1) {full_time:?}");

    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>14}",
        "formulation", "lambda", "variables", "constraints", "pivots"
    );
    for (name, r) in [("Eq. (2) reduced", &reduced), ("Eq. (1) full", &full)] {
        println!(
            "{:<18} {:>12.1} {:>12} {:>12} {:>14}",
            name, r.lambda, r.variables, r.constraints, r.iterations
        );
    }
    let gap = (full.lambda - reduced.lambda).abs() / reduced.lambda.max(1e-12);
    println!("# relative lambda gap: {gap:.2e} (expected ~0: same optimum)");
    println!(
        "# variable reduction: {:.1}x",
        full.variables as f64 / reduced.variables.max(1) as f64
    );
    println!(
        "# controller -> data-plane config: Eq.(2) {} B vs Eq.(1) {} B ({:.1}x less to push)",
        w2.footprint_bytes(),
        w1.footprint_bytes(),
        w1.footprint_bytes() as f64 / w2.footprint_bytes().max(1) as f64
    );
    ExitCode::SUCCESS
}

fn label_switching(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let n_flows: usize = args.num("--flows");
    let pkts: u64 = args.num("--pkts");
    let payload: u32 = args.num("--payload");
    let emulate = args.has("--emulate");

    println!("# Ablation C — steering encodings (§III.B vs §III.E vs §V SR baseline),");
    println!("# campus topology, {n_flows} flows x {pkts} packets, payload {payload} B, MTU 1500.");
    let world = World::build(&ExperimentConfig::campus(seed));
    let flows = generate_flows(
        &world.generated,
        world.controller.addr_plan(),
        &WorkloadConfig {
            flows: n_flows,
            seed: seed.wrapping_add(9),
            ..Default::default()
        },
    );

    let mut results = Vec::new();
    for (name, encoding) in [
        ("IP-over-IP", SteeringEncoding::IpOverIp),
        ("label-switch", SteeringEncoding::LabelSwitching),
        ("source-route", SteeringEncoding::SourceRouting),
    ] {
        let mut enf = world.controller.enforcement(
            Strategy::HotPotato,
            None,
            EnforcementOptions {
                encoding,
                ..Default::default()
            },
        );
        if emulate {
            enf.sim_mut()
                .set_fragmentation(sdm_netsim::FragmentationMode::Emulate);
        }
        for (i, f) in flows.iter().enumerate() {
            // Stagger packets so the label-ready control round trip can
            // complete between a flow's first and second packet.
            enf.inject_flow_packets(f.five_tuple, pkts, payload, SimTime(i as u64), 64);
        }
        enf.run();
        let run = enf.snapshot();
        let state: u64 = run.footprint.mbox_label_entries.iter().sum();
        results.push((name, run.stats, state));
    }

    println!(
        "{:<14} {:>10} {:>12} {:>15} {:>11} {:>8} {:>12} {:>10} {:>10}",
        "mode", "delivered", "encap hops", "extra hdr B", "frag evts", "control", "mbox entries",
        "fragments", "reassembly"
    );
    for (name, s, state) in &results {
        println!(
            "{:<14} {:>10} {:>12} {:>15} {:>11} {:>8} {:>12} {:>10} {:>10}",
            name,
            delivered(s),
            s.encapsulated_hops,
            s.extra_header_bytes,
            s.frag_events,
            s.control_received,
            state,
            s.fragments_created,
            s.reassembly_events,
        );
    }
    let (_, tunnel, _) = &results[0];
    let (_, label, _) = &results[1];
    for (_, s, _) in &results {
        assert_eq!(delivered(s), delivered(tunnel), "all modes must deliver identically");
    }
    println!(
        "# fragmentation avoided by label switching: {:.1}% of tunnel-mode events",
        100.0 * (1.0 - label.frag_events as f64 / tunnel.frag_events.max(1) as f64)
    );
    println!("# expected shape: label switching ~eliminates encapsulation and");
    println!("# fragmentation at the cost of per-flow middlebox state + one control");
    println!("# packet per flow; source routing needs no state but pays header");
    println!("# bytes on every packet (and fragments when segments push the packet");
    println!("# past the MTU), which is the overhead §V argues against.");
    ExitCode::SUCCESS
}

fn flow_cache(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let total: u64 = args.num("--packets");

    println!("# Ablation D — flow-cache hit rate and classifier cost,");
    println!("# campus topology, {total} packets injected individually.");
    let world = World::build(&ExperimentConfig::campus(seed));
    let flows = generate_flows_with_total(
        &world.generated,
        world.controller.addr_plan(),
        &Default::default(),
        total,
    );

    let mut enf = world
        .controller
        .enforcement(Strategy::HotPotato, None, Default::default());
    for (i, f) in flows.iter().enumerate() {
        enf.inject_flow_packets(f.five_tuple, f.packets, 512, SimTime(i as u64 % 1000), 5);
    }
    enf.run();

    let (mut hits, mut misses) = (0u64, 0u64);
    for stats in &enf.snapshot().footprint.proxy_flow_stats {
        hits += stats.hits;
        misses += stats.misses;
    }
    let pkts: u64 = flows.iter().map(|f| f.packets).sum();
    println!(
        "{} flows, {} packets: {} cache hits, {} misses",
        flows.len(),
        pkts,
        hits,
        misses
    );
    println!(
        "hit rate: {:.2}% (multi-field classification for only {:.2}% of packets;",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
        100.0 * misses as f64 / (hits + misses).max(1) as f64,
    );
    println!(
        "ideal = one miss per flow = {:.2}%)",
        100.0 * flows.len() as f64 / pkts as f64
    );

    // Classifier micro-cost: linear scan vs compiled tuple-space index,
    // growing policy-table sizes (synthetic prefix policies).
    eprintln!("# classifier cost per lookup vs policy-table size");
    eprintln!("{:>9} {:>14} {:>14}", "policies", "linear", "compiled");
    let sample: Vec<FiveTuple> = (0..50_000u32)
        .map(|i| FiveTuple {
            src: Ipv4Addr(0x0a000000 | (i * 97) & 0xFFFFF),
            dst: Ipv4Addr(0x0a000000 | (i * 131) & 0xFFFFF),
            src_port: (i % 50_000) as u16,
            dst_port: (i % 64) as u16 * 16,
            proto: Protocol::Tcp,
        })
        .collect();
    for n in [30usize, 300, 3000] {
        let table = synthetic_policies(n).project_all();
        let [(acc, linear), (acc2, compiled)] =
            [ClassifierKind::Linear, ClassifierKind::TupleSpace].map(|kind| {
                let classifier = LocalClassifier::new(table.clone(), kind);
                timed(|| {
                    sample
                        .iter()
                        .map(|ft| classifier.first_match(ft).map_or(0, |(id, _)| id.index()))
                        .sum::<usize>()
                })
            });
        assert_eq!(acc, acc2, "classifiers must agree at n={n}");
        eprintln!(
            "{:>9} {:>12?}/l {:>12?}/l",
            n,
            linear / sample.len() as u32,
            compiled / sample.len() as u32
        );
    }
    println!("# expected shape: near-ideal hit rate; compiled lookup cost stays flat");
    println!("# while the linear scan grows with the table.");
    ExitCode::SUCCESS
}

/// Synthetic single-field-heavy policies spread over 10.0.0.0/8 prefixes.
fn synthetic_policies(n: usize) -> PolicySet {
    let mut set = PolicySet::new();
    for i in 0..n {
        let src = Prefix::new(Ipv4Addr(0x0a000000 | ((i as u32 * 4096) & 0xFFFFFF)), 20);
        let d = TrafficDescriptor::new()
            .src_prefix(src)
            .dst_port(PortMatch::Exact((i % 1024) as u16));
        set.push(Policy::new(d, ActionList::chain([NetworkFunction::Ids])));
    }
    set
}

/// LB over `flows` with `victim` crashed in the data plane — what phases 1
/// and 2 of [`failure_recovery`] share; they differ in the weights pushed.
fn run_with_victim_down(
    world: &World,
    weights: SteeringWeights,
    victim: MiddleboxId,
    flows: &[Flow],
) -> Enforcement {
    let mut enf = world.controller.enforcement(
        Strategy::LoadBalanced,
        Some(weights),
        EnforcementOptions::default(),
    );
    enf.fail_middlebox(victim);
    inject_and_run(&mut enf, flows, 512);
    enf
}

fn failure_recovery(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let total: u64 = args.num("--packets");

    println!("# Ablation E — middlebox failure and controller recovery,");
    println!("# campus topology, {total} packets per phase, LB strategy.");
    let mut world = World::build(&ExperimentConfig::campus(seed));
    let flows = world.flows(total, seed.wrapping_add(13));

    // Phase 0: healthy network, measured + load-balanced.
    let (hp, weights, report) = world.measure_and_solve(&flows).expect("LP solves");
    let lb = world.run_strategy(Strategy::LoadBalanced, Some(weights.clone()), &flows);
    let victim = world
        .deployment
        .offering(NetworkFunction::Firewall)
        .into_iter()
        .max_by_key(|m| lb.loads[m.index()])
        .expect("a firewall exists");
    println!(
        "phase 0 (healthy):   delivered {:>9}, lambda {:>9.0}, victim {victim} carried {}",
        lb.delivered,
        report.lambda,
        lb.loads[victim.index()]
    );

    // Phase 1: the victim crashes; stale configuration keeps steering into
    // the black hole.
    let stale = run_with_victim_down(&world, weights, victim, &flows);
    let lost = stale.mbox_state(victim).lock().counters.dropped_failed;
    println!(
        "phase 1 (stale cfg): delivered {:>9}, blackholed {lost} packets at the crashed box",
        delivered(stale.sim().stats()),
    );

    // Phase 2: the controller reacts — recomputes assignments and the LP
    // without the victim.
    world.controller.fail_middlebox(victim);
    let (weights2, report2) = world
        .controller
        .solve_load_balanced(&hp.measurements, LbOptions::default())
        .expect("LP solves without the victim");
    let healed = run_with_victim_down(&world, weights2, victim, &flows);
    println!(
        "phase 2 (recovered): delivered {:>9}, lambda {:>9.0}, victim load {}",
        delivered(healed.sim().stats()),
        report2.lambda,
        healed.middlebox_loads()[victim.index()]
    );
    println!("# expected shape: phase 1 loses exactly the victim's share; phase 2");
    println!("# delivers 100% with a modestly higher lambda (one fewer replica).");
    ExitCode::SUCCESS
}

fn adaptivity(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let total: u64 = args.num("--packets");

    println!("# Ablation F — adaptation to traffic drift, campus topology,");
    println!("# {total} packets per epoch.");
    let world = World::build(&ExperimentConfig::campus(seed));

    // Epoch 1 and a drifted epoch 2 (different flow seed = different
    // sources, destinations and flow sizes; same policy classes).
    let epoch1 = world.flows(total, seed.wrapping_add(21));
    let epoch2 = world.flows(total, seed.wrapping_add(1_000_003));
    let (_, w1, _) = world.measure_and_solve(&epoch1).expect("epoch-1 LP");

    // Epoch 2 under three configurations.
    let (hp2, w2, _) = world.measure_and_solve(&epoch2).expect("epoch-2 LP");
    let stale = world.run_strategy(Strategy::LoadBalanced, Some(w1), &epoch2);
    let fresh = world.run_strategy(Strategy::LoadBalanced, Some(w2), &epoch2);

    println!(
        "{:<22} {:>14} {:>14}",
        "epoch-2 configuration", "max load", "vs fresh"
    );
    let f = fresh.report.overall_max();
    for (name, run) in [
        ("hot-potato", &hp2),
        ("stale epoch-1 weights", &stale),
        ("fresh epoch-2 weights", &fresh),
    ] {
        let m = run.report.overall_max();
        println!(
            "{:<22} {:>14} {:>13.1}%",
            name,
            m,
            100.0 * m as f64 / f.max(1) as f64
        );
    }
    println!("# expected shape: stale weights still beat hot-potato by a wide");
    println!("# margin (the drift keeps class mixes), but re-solving on fresh");
    println!("# measurements recovers the remaining gap.");
    ExitCode::SUCCESS
}

fn path_stretch(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let total: u64 = args.num("--packets");

    println!("# Ablation G — path stretch of policy enforcement,");
    println!("# campus topology, {total} packets.");
    let world = World::build(&ExperimentConfig::campus(seed));
    let flows = world.flows(total, seed.wrapping_add(33));

    let mut plain = Simulator::new(world.controller.plan());
    for f in &flows {
        let stub = plain.addresses().stub_of(f.five_tuple.src).unwrap();
        for pkt in Packet::aggregates(f.five_tuple, 512, f.packets) {
            plain.inject_from_stub(stub, pkt);
        }
    }
    plain.run_until_idle();
    let plain_delivered = plain.stats().delivered + plain.stats().delivered_external;
    let base = plain.stats().link_hops as f64 / plain_delivered.max(1) as f64;
    println!(
        "{:<14} {:>12} {:>14} {:>10}",
        "configuration", "delivered", "hops/packet", "stretch"
    );
    println!("{:<14} {:>12} {:>14.3} {:>9.2}x", "no policies", plain_delivered, base, 1.0);

    let (hp, w, _) = world.measure_and_solve(&flows).expect("LP solves");
    for (name, run) in [
        ("hot-potato", hp),
        ("random", world.run_strategy(Strategy::Random { salt: 7 }, None, &flows)),
        ("load-balanced", world.run_strategy(Strategy::LoadBalanced, Some(w), &flows)),
    ] {
        let hops = run.hops_per_packet();
        println!(
            "{:<14} {:>12} {:>14.3} {:>9.2}x",
            name,
            run.delivered,
            hops,
            hops / base
        );
    }
    println!("# expected shape: enforcement costs extra hops (the chain detour);");
    println!("# hot-potato has the shortest detours by construction, LB pays a");
    println!("# modest extra stretch for its balanced load.");
    ExitCode::SUCCESS
}

/// Finite service rates make flows contend for the same middlebox queues,
/// so this experiment cannot be sharded — and is not: it drives single
/// [`sdm_core::Enforcement`]s, the only place a service time can be set.
fn queueing(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let n_flows: usize = args.num("--flows");
    let window: u64 = args.num("--window");
    let service: u64 = args.num("--service");
    if window == 0 {
        eprintln!("--window: must be at least 1");
        return ExitCode::FAILURE;
    }

    println!("# Ablation H — queueing delay under finite middlebox capacity,");
    println!("# campus topology, {n_flows} flows over a {window}-tick window,");
    println!("# service time {service} ticks/packet at every middlebox.");
    let world = World::build(&ExperimentConfig::campus(seed));
    let flows = generate_flows(
        &world.generated,
        world.controller.addr_plan(),
        &WorkloadConfig {
            flows: n_flows,
            seed: seed.wrapping_add(23),
            ..Default::default()
        },
    );
    let total_pkts: u64 = flows.iter().map(|f| f.packets.min(50)).sum();
    println!("# {total_pkts} packets injected");

    // LB weights from an (unqueued) measurement pass.
    let mut measure = world
        .controller
        .enforcement(Strategy::HotPotato, None, EnforcementOptions::default());
    for f in &flows {
        measure.inject_flow(f.five_tuple, f.packets.min(50), 300);
    }
    measure.run();
    let (weights, _) = world
        .controller
        .solve_load_balanced(&measure.measurements(), LbOptions::default())
        .expect("LP solves");

    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "strategy", "delivered", "avg wait", "max wait", "avg e2e", "max e2e"
    );
    for (name, strategy, w) in [
        ("hot-potato", Strategy::HotPotato, None),
        ("random", Strategy::Random { salt: 5 }, None),
        ("load-balanced", Strategy::LoadBalanced, Some(weights)),
    ] {
        let mut enf = world
            .controller
            .enforcement(strategy, w, EnforcementOptions::default());
        enf.set_middlebox_service_time(service);
        // Poisson-ish arrivals: flow i starts at a hashed offset in the
        // window, its packets spaced 64 ticks apart.
        for (i, f) in flows.iter().enumerate() {
            let start = (i as u64).wrapping_mul(2654435761) % window;
            enf.inject_flow_packets(f.five_tuple, f.packets.min(50), 300, SimTime(start), 64);
        }
        enf.run();
        let s = enf.sim().stats();
        let delivered = s.delivered + s.delivered_external;
        println!(
            "{:<14} {:>12} {:>12.1} {:>12} {:>12.1} {:>12}",
            name,
            delivered,
            s.device_wait_total as f64 / delivered.max(1) as f64,
            s.device_wait_max,
            s.avg_latency(),
            s.latency_max
        );
    }
    println!("# expected shape: load balancing cuts both the average and the worst");
    println!("# queueing delay versus hot-potato — the operational payoff of a");
    println!("# smaller maximum load factor.");
    ExitCode::SUCCESS
}
