//! `sdm` — command-line scenario runner for the SDM policy-enforcement
//! reproduction.
//!
//! Builds one of the paper's evaluation worlds, runs an enforcement
//! strategy over a generated workload and prints the per-type load report.
//!
//! Examples:
//!
//! ```text
//! sdm --topology campus --strategy lb --packets 1000000
//! sdm --topology waxman --strategy hp --packets 500000 --seed 7
//! sdm --strategy lb --encoding label --k 3 --fail-busiest-fw
//! ```

use std::process::ExitCode;

use sdm::core::{
    EnforcementOptions, KConfig, LbOptions, SteerPoint, SteeringEncoding, Strategy,
};
use sdm::policy::NetworkFunction;
use sdm_bench::{arg_num, arg_value, parse_num, ExperimentConfig, TopologyKind, World};

const HELP: &str = "\
sdm — dependable policy enforcement in traditional non-SDN networks

USAGE:
    sdm [OPTIONS]

OPTIONS:
    --topology <campus|waxman>   evaluation topology        [default: campus]
    --strategy <hp|rand|lb>      enforcement strategy       [default: lb]
    --encoding <ipip|label|sr>   steering encoding          [default: ipip]
    --packets <N>                total packets to generate  [default: 1000000]
    --seed <N>                   world + workload seed      [default: 3]
    --k <N>                      uniform candidate-set size (default: paper's 4/4/2/2)
    --policies <FILE>            load policies from a text file (one per line,
                                 'src=10.0.0.0/8 dport=80 => FW, IDS'); flows are
                                 synthesized to match them
    --save-flows <FILE>          write the generated workload as a flow trace
    --load-flows <FILE>          replay a previously saved flow trace
    --fail-busiest-fw            crash the busiest firewall and recover
    --help                       print this help
";

/// Builds flows that match the loaded policies: for each policy in turn,
/// pick a source host inside its source prefix (and inside some stub) and
/// a destination/ports satisfying the descriptor. Policies whose source
/// space contains no stub host are skipped (their traffic cannot
/// originate inside the enterprise).
fn synthesize_flows(world: &World, target_packets: u64, seed: u64) -> Vec<sdm_workload::Flow> {
    use sdm::netsim::{FiveTuple, Protocol};
    use sdm::policy::{PortMatch, ProtoMatch};
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
                    let d = sdm::netsim::StubId((next() % addrs.stub_count() as u64) as u32);
                    if d != src_stub {
                        break d;
                    }
                };
                addrs.host(d, (next() % 900) as u32)
            } else {
                // any address inside the dst prefix
                sdm::netsim::Ipv4Addr(p.descriptor.dst.addr().0 + 1)
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
            out.push(sdm_workload::Flow {
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }

    let seed: u64 = arg_num(&args, "--seed", 3);
    let packets: u64 = arg_num(&args, "--packets", 1_000_000);
    let topology = match arg_value(&args, "--topology").as_deref() {
        None | Some("campus") => TopologyKind::Campus,
        Some("waxman") => TopologyKind::Waxman,
        Some(other) => {
            eprintln!("unknown topology '{other}' (expected campus|waxman)");
            return ExitCode::FAILURE;
        }
    };
    let strategy = match arg_value(&args, "--strategy").as_deref() {
        Some("hp") => Strategy::HotPotato,
        Some("rand") => Strategy::Random { salt: seed },
        None | Some("lb") => Strategy::LoadBalanced,
        Some(other) => {
            eprintln!("unknown strategy '{other}' (expected hp|rand|lb)");
            return ExitCode::FAILURE;
        }
    };
    let encoding = match arg_value(&args, "--encoding").as_deref() {
        None | Some("ipip") => SteeringEncoding::IpOverIp,
        Some("label") => SteeringEncoding::LabelSwitching,
        Some("sr") => SteeringEncoding::SourceRouting,
        Some(other) => {
            eprintln!("unknown encoding '{other}' (expected ipip|label|sr)");
            return ExitCode::FAILURE;
        }
    };
    let k = arg_value(&args, "--k").map(|v| parse_num::<usize>("--k", &v));
    let fail_fw = args.iter().any(|a| a == "--fail-busiest-fw");
    let policy_file = arg_value(&args, "--policies");
    let save_flows = arg_value(&args, "--save-flows");
    let load_flows = arg_value(&args, "--load-flows");

    let mut cfg = match topology {
        TopologyKind::Campus => ExperimentConfig::campus(seed),
        TopologyKind::Waxman => ExperimentConfig::waxman(seed),
    };
    if let Some(k) = k {
        if k == 0 {
            eprintln!("--k must be at least 1");
            return ExitCode::FAILURE;
        }
        cfg.k = KConfig::uniform(k);
    }

    let mut world = World::build(&cfg);

    // Optionally replace the generated policies with a user-supplied file.
    if let Some(path) = &policy_file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let set = match sdm::policy::parse_policies(&text) {
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
        world.controller = sdm::core::Controller::new(
            world.controller.plan().clone(),
            world.deployment.clone(),
            set,
            world.controller.k_config().clone(),
        );
    }
    println!(
        "world: {:?} topology, {} middleboxes, {} policies, seed {seed}",
        topology,
        world.deployment.len(),
        world.controller.policies().len()
    );
    let flows = if let Some(path) = &load_flows {
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| sdm_workload::flows_from_text(&t).map_err(|e| e.to_string()))
        {
            Ok(f) => {
                println!("replaying {} flows from {path}", f.len());
                f
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
    if let Some(path) = &save_flows {
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
        let hp = world.run_strategy(Strategy::HotPotato, None, &flows);
        match world
            .controller
            .solve_load_balanced(&hp.measurements, LbOptions::default())
        {
            Ok((w, report)) => {
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
        weights.clone(),
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
                SteerPoint::Proxy(sdm::netsim::StubId(0)),
                NetworkFunction::Firewall,
            )
            .expect("a firewall exists");
        enf.fail_middlebox(v);
        println!("crashed firewall {v} in the data plane");
        v
    });
    for f in &flows {
        enf.inject_flow(f.five_tuple, f.packets, 512);
    }
    enf.run();

    let stats = enf.sim().stats();
    println!(
        "\ndelivered {} / {total} packets ({} link hops, {} encapsulated, {} frag events)",
        stats.delivered + stats.delivered_external,
        stats.link_hops,
        stats.encapsulated_hops,
        stats.frag_events
    );
    println!("\nper-type loads:\n{}", enf.load_report(&world.deployment));

    if let Some(v) = victim {
        let dropped = enf.mbox_state(v).lock().counters.dropped_failed;
        println!("blackholed at crashed {v}: {dropped} packets");
        println!("(run the controller recovery: see the failure_recovery experiment)");
    }
    ExitCode::SUCCESS
}
