//! Property test for the batched drain: running the same deployment,
//! strategy and flow population at drain limit 1 (every device run one
//! packet long — the run caches and the deferred trace flush never
//! engage), a small odd limit (3) and the default (256) is
//! **bit-identical** — simulator stats, middlebox loads, traffic
//! measurements, per-device counters and soft-state footprints, all read
//! off `Enforcement::snapshot` — across randomized deployments, strategies,
//! steering encodings and soft-state TTLs.
//!
//! Drain limits are set per-`Enforcement` via `sim_mut().set_batch_size`,
//! the same loop at every limit.

use sdm::core::{
    Controller, Deployment, EnforcementOptions, FlowSpec, KConfig, MiddleboxSpec, ShardedRun,
    Strategy as Steering, SteeringEncoding,
};
use sdm::netsim::{FiveTuple, Packet, Protocol, StubId};
use sdm::policy::{ActionList, NetworkFunction, Policy, PolicySet, TrafficDescriptor};
use sdm::util::prop::{check, Config};
use sdm::util::rng::StdRng;
use sdm_bench::{ExperimentConfig, World};
use sdm_workload::{to_flow_specs, WorkloadConfig};

mod common;
use common::{compare, with_ttl, TTL_DRAWS};

fn run_with_batch(
    controller: &Controller,
    strategy: Steering,
    options: EnforcementOptions,
    specs: &[FlowSpec],
    batch: usize,
) -> ShardedRun {
    let mut enf = controller.enforcement(strategy, None, options);
    enf.sim_mut().set_batch_size(batch);
    for s in specs {
        enf.inject_flow(s.flow, s.packets, s.payload);
    }
    enf.run();
    enf.snapshot()
}

#[test]
fn batched_runs_are_bit_identical_to_scalar() {
    check(
        "batched_runs_are_bit_identical_to_scalar",
        &Config::with_cases(6),
        |rng: &mut StdRng| {
            let seed = rng.gen_range(1u64..1000);
            let mbox_counts = [
                rng.gen_range(1usize..4),
                rng.gen_range(2usize..6),
                rng.gen_range(2usize..6),
                rng.gen_range(1usize..4),
            ];
            let packets = rng.gen_range(5_000u64..30_000);
            let flow_seed = rng.next_u64();
            // mode packs (strategy, encoding): strategy = mode % 2
            // (HP / Random), encoding = mode / 2 (IpOverIp /
            // LabelSwitching / SourceRouting).
            let mode = rng.gen_range(0u8..6);
            let batch = rng.gen_range(2usize..32);
            let ttl = rng.gen_range(TTL_DRAWS);
            (seed, mbox_counts, packets, flow_seed, mode, batch, ttl)
        },
        |&(seed, mbox_counts, packets, flow_seed, mode, batch, ttl)| {
            let cfg = ExperimentConfig {
                mbox_counts,
                ..ExperimentConfig::campus(seed)
            };
            let world = World::build(&cfg);
            let flows = sdm_workload::generate_flows_with_total(
                &world.generated,
                world.controller.addr_plan(),
                &WorkloadConfig {
                    seed: flow_seed,
                    ..Default::default()
                },
                packets,
            );
            let specs = to_flow_specs(&flows, 512);
            let strategy = match mode % 2 {
                0 => Steering::HotPotato,
                _ => Steering::Random { salt: flow_seed },
            };
            let options = EnforcementOptions {
                encoding: match mode / 2 {
                    0 => SteeringEncoding::IpOverIp,
                    1 => SteeringEncoding::LabelSwitching,
                    _ => SteeringEncoding::SourceRouting,
                },
                ..Default::default()
            };
            let options = with_ttl(options, ttl);

            let scalar = run_with_batch(&world.controller, strategy, options, &specs, 1);
            let small = run_with_batch(&world.controller, strategy, options, &specs, batch);
            let big = run_with_batch(&world.controller, strategy, options, &specs, 256);
            compare(&scalar, &small, &format!("batch {batch} vs scalar"))?;
            compare(&scalar, &big, "batch 256 vs scalar")?;
            Ok(())
        },
    );
}

/// Mid-experiment middlebox failure and restore: `dropped_failed`
/// accounting (and every other counter) must not depend on the drain
/// limit. Pins the PR-7 run-invalidation fix — a failure observed
/// inside a run ends the cached tunnel/label stretches, so
/// packets after a flip never resume a pre-failure decision.
#[test]
fn failure_accounting_is_batch_invariant() {
    let world = World::build(&ExperimentConfig::campus(5));
    let flows = world.flows(20_000, 7);
    let specs = to_flow_specs(&flows, 512);

    let run = |batch: usize| {
        let mut enf = world.controller.enforcement(
            Steering::HotPotato,
            None,
            EnforcementOptions::default(),
        );
        enf.sim_mut().set_batch_size(batch);
        let (healthy, rest) = specs.split_at(specs.len() / 2);
        for s in healthy {
            enf.inject_flow(s.flow, s.packets, s.payload);
        }
        enf.run();
        // Fail the busiest box mid-experiment (loads are deterministic,
        // so every batch size picks the same victim): flows steered
        // towards it must blackhole there, counted in dropped_failed.
        let loads = enf.middlebox_loads();
        let busiest = loads
            .iter()
            .enumerate()
            .max_by_key(|&(_, l)| l)
            .map(|(i, _)| i)
            .unwrap();
        let victim = world
            .controller
            .deployment()
            .iter()
            .nth(busiest)
            .unwrap()
            .0;
        enf.fail_middlebox(victim);
        for s in rest {
            enf.inject_flow(s.flow, s.packets, s.payload);
        }
        enf.run();
        // Restore and replay: post-restore traffic must flow again.
        enf.restore_middlebox(victim);
        for s in rest {
            enf.inject_flow(s.flow, s.packets, s.payload);
        }
        enf.run();
        enf.snapshot()
    };

    let (one, full) = (run(1), run(256));
    let dropped: u64 = one.mbox_counters.iter().map(|c| c.dropped_failed).sum();
    assert!(dropped > 0, "scenario must actually exercise the failed path");
    compare(&one, &full, "failure accounting").unwrap();
}

/// The per-packet trace log is batch-size invariant: the engine defers
/// each run-mate's device-arrival record and flushes it just before
/// that packet's delivery record, the interleaving a run of one
/// produces. Compared event-for-event at batch 1 vs 3 vs 256, and again
/// under truncation to check the overflow counter.
#[test]
fn packet_traces_are_batch_invariant() {
    let world = World::build(&ExperimentConfig::campus(4));
    let flows = world.flows(3_000, 9);
    let specs = to_flow_specs(&flows, 512);

    let run = |batch: usize, limit: usize| {
        let mut enf = world.controller.enforcement(
            Steering::HotPotato,
            None,
            EnforcementOptions::default(),
        );
        enf.sim_mut().set_batch_size(batch);
        enf.sim_mut().enable_trace(limit);
        for s in &specs {
            enf.inject_flow(s.flow, s.packets, s.payload);
        }
        enf.run();
        (enf.sim().trace().to_vec(), enf.sim().trace_dropped())
    };

    let (scalar, scalar_dropped) = run(1, 1_000_000);
    assert!(!scalar.is_empty(), "scenario must produce trace events");
    assert_eq!(scalar_dropped, 0, "limit must not truncate the full log");
    for batch in [3usize, 256] {
        let (batched, dropped) = run(batch, 1_000_000);
        assert_eq!(batched.len(), scalar.len(), "batch {batch}: trace length");
        assert_eq!(batched, scalar, "batch {batch}: per-packet trace order");
        assert_eq!(dropped, 0, "batch {batch}: no truncation");
    }

    // Truncated logs agree too: the same prefix survives and the same
    // number of events overflows, because the emission order is equal.
    let limit = scalar.len() / 2;
    let (s_trunc, s_drop) = run(1, limit);
    let (b_trunc, b_drop) = run(256, limit);
    assert_eq!(s_trunc.len(), limit);
    assert_eq!(s_trunc, b_trunc, "truncated trace prefix");
    assert_eq!(s_drop, b_drop, "overflow count");
    assert!(s_drop > 0, "truncation must actually occur");
}

/// The full figure pipeline (LP-weighted load balancing included) is
/// batch-size invariant: the exact configuration Figures 4–5 and
/// Table III run, compared at drain limit 1 vs the default.
#[test]
fn lb_pipeline_is_batch_invariant() {
    let world = World::build(&ExperimentConfig::campus(3));
    let flows = world.flows(40_000, 11);
    let specs = to_flow_specs(&flows, 512);
    for strategy in [Steering::HotPotato, Steering::Random { salt: 11 }] {
        let run = |batch| {
            let options = EnforcementOptions::default();
            run_with_batch(&world.controller, strategy, options, &specs, batch)
        };
        compare(&run(1), &run(256), "figure pipeline").unwrap();
    }
}

/// External-source flows entering at a gateway go through the same
/// probe → pin → encode body as stub traffic, run cache included:
/// packets injected back-to-back at the gateway form same-flow runs at
/// its ingress proxy, and a `LabelReady` landing in the middle of a
/// flow's run must end the cached decision so the rest of the run sees
/// the flag. Compared at drain limits 1/3/256 under every encoding.
#[test]
fn gateway_ingress_is_batch_invariant() {
    use NetworkFunction::{Firewall, Ids};
    let plan = sdm::topology::campus::campus(2);
    let gw = plan.gateways()[0];
    let mut dep = Deployment::new();
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[4], 1.0));
    dep.add(MiddleboxSpec::new(Ids, plan.cores()[9], 1.0));
    let mut pol = PolicySet::new();
    pol.push(Policy::new(
        TrafficDescriptor::new().dst_port(80), // wildcard source: includes external
        ActionList::chain([Firewall, Ids]),
    ));
    let c = Controller::new(plan, dep, pol, KConfig::uniform(2));
    // Devices attach middleboxes first, then stub proxies, then gateways.
    let ingress_addr = sdm::netsim::preassigned_device_addr(
        c.deployment().len() + c.addr_plan().stubs().count(),
    );
    let flow = |f: u32| FiveTuple {
        src: sdm::netsim::Ipv4Addr(0x5DB8_D800 + f),
        dst: c.addr_plan().host(StubId(f % 4), f),
        src_port: 4000 + f as u16,
        // the last flow matches no policy: negative-cache run-mates
        dst_port: if f == 5 { 9999 } else { 80 },
        proto: Protocol::Tcp,
    };

    for encoding in [
        SteeringEncoding::IpOverIp,
        SteeringEncoding::LabelSwitching,
        SteeringEncoding::SourceRouting,
    ] {
        let run = |batch: usize| {
            let options = EnforcementOptions {
                encoding,
                ..Default::default()
            };
            let mut enf = c.enforcement(Steering::Random { salt: 5 }, None, options);
            enf.sim_mut().set_batch_size(batch);
            enf.sim_mut().enable_trace(1_000_000);
            // Round 0 sets the flows up; round 1 replays them against
            // pinned (and, under label switching, flagged) entries.
            for round in 0..2 {
                for f in 0..6u32 {
                    let ft = flow(f);
                    for i in 0..8 {
                        if round == 0 && i == 4 {
                            let ctrl = Packet::control(ingress_addr, ft);
                            enf.sim_mut().inject_at_router(gw, ctrl);
                        }
                        enf.sim_mut().inject_at_router(gw, Packet::data(ft, 400));
                    }
                }
                enf.run();
            }
            (enf.snapshot(), enf.sim().trace().to_vec())
        };

        let (scalar, scalar_trace) = run(1);
        let ig = &scalar.ingress_counters[0];
        assert_eq!(ig.outbound, 96, "{encoding:?}: every data packet met the ingress proxy");
        assert!(ig.control_received >= 6, "{encoding:?}: mid-run LabelReady packets");
        assert_eq!(scalar.stats.delivered, 96, "{encoding:?}: nothing lost");
        assert!(
            encoding != SteeringEncoding::LabelSwitching || ig.label_switched > 0,
            "the mid-run LabelReady must switch the rest of its run"
        );
        for batch in [3usize, 256] {
            let (batched, trace) = run(batch);
            compare(&scalar, &batched, &format!("{encoding:?} batch {batch}")).unwrap();
            assert_eq!(trace, scalar_trace, "{encoding:?} batch {batch}: trace");
        }
    }
}
