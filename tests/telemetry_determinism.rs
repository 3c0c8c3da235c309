//! Property test for the telemetry subsystem (ISSUE 8 tentpole): the
//! invariant-family snapshot export is **byte-identical** across the two
//! execution axes — `SDM_SHARDS` (1 vs 4, merged in shard-index order)
//! and the drain limit (1 vs 256) — on randomized deployments, flow
//! populations and soft-state TTLs.
//!
//! Non-invariant families (queue-occupancy / run-length histograms,
//! pinned-replay counts) legitimately depend on the execution
//! configuration; the registry marks them and the default (`full =
//! false`) exports exclude them — the last test proves that exclusion is
//! load-bearing, not decorative.
//!
//! Shard counts and drain limits are set programmatically (per-call
//! argument / `sim_mut().set_batch_size`), and telemetry is forced on via
//! [`EnforcementOptions::telemetry`], so the test is immune to env races
//! in a parallel test run.

use sdm::core::{EnforcementOptions, Strategy as Steering};
use sdm::util::prop::{check, Config};
use sdm::util::prop_assert_eq;
use sdm::util::rng::StdRng;
use sdm_bench::{ExperimentConfig, World};
use sdm_workload::{to_flow_specs, WorkloadConfig};

mod common;
use common::{with_ttl, TTL_DRAWS};

#[test]
fn telemetry_snapshots_are_corner_invariant() {
    check(
        "telemetry_snapshots_are_corner_invariant",
        &Config::with_cases(4),
        |rng: &mut StdRng| {
            let seed = rng.gen_range(1u64..1000);
            let mbox_counts = [
                rng.gen_range(1usize..4),
                rng.gen_range(2usize..6),
                rng.gen_range(2usize..6),
                rng.gen_range(1usize..4),
            ];
            let packets = rng.gen_range(5_000u64..20_000);
            let flow_seed = rng.next_u64();
            let ttl = rng.gen_range(TTL_DRAWS);
            (seed, mbox_counts, packets, flow_seed, ttl)
        },
        |&(seed, mbox_counts, packets, flow_seed, ttl)| {
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
            let options = with_ttl(
                EnforcementOptions {
                    telemetry: Some(true),
                    ..Default::default()
                },
                ttl,
            );

            // Shard axis: the merged snapshot of a 4-shard run must export
            // the same invariant bytes as the single-shard run.
            let one =
                world
                    .controller
                    .run_sharded(Steering::HotPotato, None, options, &specs, 1);
            let four =
                world
                    .controller
                    .run_sharded(Steering::HotPotato, None, options, &specs, 4);
            prop_assert_eq!(
                &four.telemetry.to_json(false),
                &one.telemetry.to_json(false),
                "SDM_SHARDS 1 vs 4"
            );

            // Batch axis: drain limit 1 vs 256 on one enforcement.
            let run_batch = |batch: usize| {
                let mut enf = world
                    .controller
                    .enforcement(Steering::HotPotato, None, options);
                enf.sim_mut().set_batch_size(batch);
                for s in &specs {
                    enf.inject_flow(s.flow, s.packets, s.payload);
                }
                enf.run();
                enf.telemetry_snapshot()
            };
            prop_assert_eq!(
                &run_batch(256).to_json(false),
                &run_batch(1).to_json(false),
                "drain limit 1 vs 256"
            );
            Ok(())
        },
    );
}

/// The `full = true` export is *expected* to differ across the batch axis
/// (the queue-occupancy and run-length histograms describe the drains
/// themselves), which is exactly why the goldens and the property above
/// use the invariant-only export.
#[test]
fn full_export_depends_on_execution_config() {
    let world = World::build(&ExperimentConfig::campus(6));
    let flows = world.flows(10_000, 13);
    let specs = to_flow_specs(&flows, 512);
    let options = EnforcementOptions {
        telemetry: Some(true),
        ..Default::default()
    };
    let run_batch = |batch: usize| {
        let mut enf = world
            .controller
            .enforcement(Steering::HotPotato, None, options);
        enf.sim_mut().set_batch_size(batch);
        for s in &specs {
            enf.inject_flow(s.flow, s.packets, s.payload);
        }
        enf.run();
        enf.telemetry_snapshot()
    };
    let scalar = run_batch(1);
    let vector = run_batch(256);
    assert_eq!(
        scalar.to_json(false),
        vector.to_json(false),
        "invariant families must still agree"
    );
    assert_ne!(
        scalar.to_json(true),
        vector.to_json(true),
        "histogram families must expose the execution configuration"
    );
}
