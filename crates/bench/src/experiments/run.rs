//! `sdm run` — also what bare `sdm [OPTIONS]` means: builds one of the
//! paper's evaluation worlds, runs one enforcement strategy over a
//! generated (or policy-file-synthesized, or replayed) workload and prints
//! the per-type load report.

use std::process::ExitCode;

use sdm_core::{Controller, EnforcementOptions, KConfig, SteerPoint, SteeringEncoding, Strategy};
use sdm_netsim::{FiveTuple, Ipv4Addr, Protocol, StubId};
use sdm_policy::{NetworkFunction, PortMatch, ProtoMatch};
use sdm_workload::Flow;

use super::{choice, config, delivered, inject_and_run, packets, topology, SEED, TOPOLOGY};
use crate::cli::{Args, Flag};
use crate::World;

pub(super) const FLAGS: &[Flag] = &[
    TOPOLOGY,
    Flag::opt("--strategy", "hp|rand|lb", "lb", "enforcement strategy"),
    Flag::opt("--encoding", "ipip|label|sr", "ipip", "steering encoding"),
    packets("1000000", "total packets to generate"),
    SEED,
    Flag::optional("--k", "N", "uniform candidate-set size (default: the paper's 4/4/2/2)"),
    Flag::optional(
        "--policies",
        "FILE",
        "load policies from a text file (one per line,\n\
         'src=10.0.0.0/8 dport=80 => FW, IDS'); flows are\n\
         synthesized to match them",
    ),
    Flag::optional("--save-flows", "FILE", "write the generated workload as a flow trace"),
    Flag::optional("--load-flows", "FILE", "replay a previously saved flow trace"),
    Flag::switch(
        "--fail-busiest-fw",
        "crash the firewall nearest stub s0's proxy in the data\n\
         plane only; no recovery (see `sdm failure-recovery`)",
    ),
];

/// Builds flows that match the loaded policies: for each policy in turn,
/// pick a source host inside its source prefix (and inside some stub) and
/// a destination/ports satisfying the descriptor. Policies whose source
/// space contains no stub host are skipped (their traffic cannot
/// originate inside the enterprise).
fn synthesize_flows(world: &World, target_packets: u64, seed: u64) -> Vec<Flow> {
    let addrs = world.controller.addr_plan();
    let policies = world.controller.policies();
    let mut out = Vec::new();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let pick_port = |m: PortMatch, r: u64| -> u16 {
        match m {
            PortMatch::Any => 10_000 + (r % 50_000) as u16,
            PortMatch::Exact(p) => p,
            PortMatch::Range(lo, hi) => lo + (r % (hi - lo + 1) as u64) as u16,
        }
    };
    let mut total = 0u64;
    'outer: while total < target_packets {
        let mut progressed = false;
        for (id, p) in policies.iter() {
            // source: a stub whose subnet overlaps the src prefix
            let src_stub = addrs
                .stubs()
                .find(|&s| p.descriptor.src.overlaps(addrs.subnet(s)));
            let Some(src_stub) = src_stub else { continue };
            let src_host = {
                // scan for a host index matching the (possibly narrower) prefix
                (0..64u32)
                    .map(|h| addrs.host(src_stub, next() as u32 % 1000 + h))
                    .find(|&a| p.descriptor.src.contains(a))
            };
            let Some(src) = src_host else { continue };
            let dst = if p.descriptor.dst.is_any() {
                let d = loop {
                    let d = StubId((next() % addrs.stub_count() as u64) as u32);
                    if d != src_stub {
                        break d;
                    }
                };
                addrs.host(d, (next() % 900) as u32)
            } else {
                // any address inside the dst prefix
                Ipv4Addr(p.descriptor.dst.addr().0 + 1)
            };
            let ft = FiveTuple {
                src,
                dst,
                src_port: pick_port(p.descriptor.src_port, next()),
                dst_port: pick_port(p.descriptor.dst_port, next()),
                proto: match p.descriptor.proto {
                    ProtoMatch::Any => Protocol::Tcp,
                    ProtoMatch::Is(pr) => pr,
                },
            };
            // only keep it if this policy is really the first match
            if policies.first_match(&ft).map(|(i, _)| i) != Some(id) {
                continue;
            }
            let packets = 1 + next() % 60;
            total += packets;
            progressed = true;
            out.push(Flow {
                five_tuple: ft,
                packets,
                policy: id,
            });
            if total >= target_packets {
                break 'outer;
            }
        }
        if !progressed {
            break; // no policy can originate inside the enterprise
        }
    }
    out
}

pub(super) fn run(args: &Args) -> ExitCode {
    let seed: u64 = args.num("--seed");
    let packets: u64 = args.num("--packets");
    let topology = topology(args);
    let strategy = choice(
        args,
        "--strategy",
        &[
            ("hp", Strategy::HotPotato),
            ("rand", Strategy::Random { salt: seed }),
            ("lb", Strategy::LoadBalanced),
        ],
    );
    let encoding = choice(
        args,
        "--encoding",
        &[
            ("ipip", SteeringEncoding::IpOverIp),
            ("label", SteeringEncoding::LabelSwitching),
            ("sr", SteeringEncoding::SourceRouting),
        ],
    );
    let k = args.value("--k").map(|v| Args::parse_num::<usize>("--k", v));
    let fail_fw = args.has("--fail-busiest-fw");
    let policy_file = args.value("--policies");
    let save_flows = args.value("--save-flows");
    let load_flows = args.value("--load-flows");

    let mut cfg = config(topology, seed);
    if let Some(k) = k {
        if k == 0 {
            eprintln!("--k must be at least 1");
            return ExitCode::FAILURE;
        }
        cfg.k = KConfig::uniform(k);
    }

    let mut world = World::build(&cfg);

    // Optionally replace the generated policies with a user-supplied file.
    if let Some(path) = policy_file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let set = match sdm_policy::parse_policies(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if set.is_empty() {
            eprintln!("{path}: no policies");
            return ExitCode::FAILURE;
        }
        for (shadowed, by) in set.find_shadowed() {
            eprintln!("warning: policy {shadowed} is shadowed by {by} and can never fire");
        }
        world.controller = match Controller::try_new(
            world.controller.plan().clone(),
            world.deployment.clone(),
            set,
            world.controller.k_config().clone(),
        ) {
            Ok(c) => c,
            Err(report) => {
                eprintln!("{path}: policies cannot be enforced on this world:\n{report}");
                return ExitCode::FAILURE;
            }
        };
    }
    println!(
        "world: {:?} topology, {} middleboxes, {} policies, seed {seed}",
        topology,
        world.deployment.len(),
        world.controller.policies().len()
    );
    let flows = if let Some(path) = load_flows {
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| sdm_workload::flows_from_text(&t).map_err(|e| e.to_string()))
        {
            Ok(flows) => {
                // A trace is operator text: a source outside every stub
                // subnet has no proxy to enter at.
                let addrs = world.controller.addr_plan();
                let foreign = |f: &&Flow| addrs.stub_of(f.five_tuple.src).is_none();
                if let Some(bad) = flows.iter().find(foreign) {
                    eprintln!(
                        "{path}: flow {}: source is not inside any stub subnet of this world",
                        bad.five_tuple
                    );
                    return ExitCode::FAILURE;
                }
                println!("replaying {} flows from {path}", flows.len());
                flows
            }
            Err(e) => {
                eprintln!("cannot load flows from {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if policy_file.is_some() {
        synthesize_flows(&world, packets, seed.wrapping_add(17))
    } else {
        world.flows(packets, seed.wrapping_add(17))
    };
    if let Some(path) = save_flows {
        if let Err(e) = std::fs::write(path, sdm_workload::flows_to_text(&flows)) {
            eprintln!("cannot save flows to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("saved {} flows to {path}", flows.len());
    }
    let total: u64 = flows.iter().map(|f| f.packets).sum();
    println!("workload: {} flows, {total} packets", flows.len());

    // Load-balanced needs a measurement pass + LP.
    let weights = if strategy == Strategy::LoadBalanced {
        match world.measure_and_solve(&flows) {
            Ok((_, w, report)) => {
                println!(
                    "LP: lambda {:.0}, {} vars, {} constraints, {} pivots, config {} B",
                    report.lambda,
                    report.variables,
                    report.constraints,
                    report.iterations,
                    w.footprint_bytes()
                );
                Some(w)
            }
            Err(e) => {
                eprintln!("load-balancing failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let mut enf = world.controller.enforcement(
        strategy,
        weights,
        EnforcementOptions {
            encoding,
            ..Default::default()
        },
    );
    let victim = fail_fw.then(|| {
        let v = world
            .controller
            .assignments()
            .closest(
                SteerPoint::Proxy(StubId(0)),
                NetworkFunction::Firewall,
            )
            .expect("a firewall exists");
        enf.fail_middlebox(v);
        println!("crashed firewall {v} in the data plane");
        v
    });
    inject_and_run(&mut enf, &flows, 512);

    let stats = enf.sim().stats();
    println!(
        "\ndelivered {} / {total} packets ({} link hops, {} encapsulated, {} frag events)",
        delivered(stats),
        stats.link_hops,
        stats.encapsulated_hops,
        stats.frag_events
    );
    println!("\nper-type loads:\n{}", enf.load_report(&world.deployment));

    if let Some(v) = victim {
        let dropped = enf.mbox_state(v).lock().counters.dropped_failed;
        println!("blackholed at crashed {v}: {dropped} packets");
        println!("(run the controller recovery: see `sdm failure-recovery`)");
    }
    ExitCode::SUCCESS
}
