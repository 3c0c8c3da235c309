//! Property test for the flow-sharded parallel data plane:
//! `run_sharded(N)` is **bit-identical** to `run_sharded(1)` — the
//! one-`Enforcement` run — in loads, delivery/drop counters, traffic
//! measurements, per-device counters and soft-state footprints, on
//! randomized deployments, strategies, flow populations and soft-state
//! TTLs (short ones make entries expire and get reclaimed mid-run).

use sdm::core::{
    EnforcementOptions, LbOptions, ShardedRun, SteeringWeights, Strategy as Steering,
    SteeringEncoding,
};
use sdm::util::prop::{check, Config};
use sdm::util::rng::StdRng;
use sdm_bench::{ExperimentConfig, World};
use sdm_workload::{to_flow_specs, WorkloadConfig};

mod common;
use common::{compare, with_ttl, TTL_DRAWS};

#[test]
fn sharded_runs_are_bit_identical_to_legacy() {
    check(
        "sharded_runs_are_bit_identical_to_legacy",
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
            // (HP / Random), label switching when mode >= 2
            let mode = rng.gen_range(0u8..4);
            let shards = rng.gen_range(2usize..6);
            let ttl = rng.gen_range(TTL_DRAWS);
            (seed, mbox_counts, packets, flow_seed, mode, shards, ttl)
        },
        |&(seed, mbox_counts, packets, flow_seed, mode, shards, ttl)| {
            let (strategy_pick, label_switching) = (mode % 2, mode >= 2);
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
            // LB needs LP weights and is covered by the pipeline test
            // below; here HP and flow-sticky Random exercise the runtime.
            let strategy = match strategy_pick {
                0 => Steering::HotPotato,
                _ => Steering::Random { salt: flow_seed },
            };
            let options = EnforcementOptions {
                encoding: if label_switching {
                    SteeringEncoding::LabelSwitching
                } else {
                    SteeringEncoding::IpOverIp
                },
                ..Default::default()
            };
            let options = with_ttl(options, ttl);

            let one = world
                .controller
                .run_sharded(strategy, None, options, &specs, 1);
            let many = world
                .controller
                .run_sharded(strategy, None, options, &specs, shards);
            compare(&one, &many, &format!("{shards} shards vs 1"))
        },
    );
}

/// The load-balanced strategy (LP weights installed) through the sharded
/// runtime at pinned shard counts, against `World::compare_strategies` —
/// the exact configuration Figures 4–5 and Table III run, at whatever
/// shard count this host autodetects.
#[test]
fn sharded_lb_pipeline_matches_legacy_comparison() {
    let world = World::build(&ExperimentConfig::campus(3));
    let flows = world.flows(40_000, 11);
    let specs = to_flow_specs(&flows, 512);
    let auto = world.compare_strategies(&flows);
    for shards in [1usize, 4] {
        let run = |strategy, weights: Option<&SteeringWeights>| {
            world
                .controller
                .run_sharded(strategy, weights, EnforcementOptions::default(), &specs, shards)
        };
        let delivered = |r: &ShardedRun| r.stats.delivered + r.stats.delivered_external;
        let hp = run(Steering::HotPotato, None);
        let rand = run(Steering::Random { salt: 0xDA7A }, None);
        let (weights, lb_report) = world
            .controller
            .solve_load_balanced(&hp.measurements, LbOptions::default())
            .expect("load-balancing LP must solve");
        let lb = run(Steering::LoadBalanced, Some(&weights));
        assert_eq!(hp.loads, auto.hp.loads, "HP loads, {shards} shards");
        assert_eq!(rand.loads, auto.rand.loads, "Rand loads, {shards} shards");
        assert_eq!(lb.loads, auto.lb.loads, "LB loads, {shards} shards");
        assert_eq!(delivered(&hp), auto.hp.delivered);
        assert_eq!(delivered(&lb), auto.lb.delivered);
        assert_eq!(hp.stats.link_hops, auto.hp.link_hops);
        assert_eq!(lb.stats.link_hops, auto.lb.link_hops);
        assert_eq!(
            lb_report.lambda, auto.lb_report.lambda,
            "LP on merged measurements must see identical input"
        );
    }
}
