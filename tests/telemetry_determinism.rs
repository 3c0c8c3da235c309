//! Property test for the telemetry subsystem: the invariant-family
//! snapshot export is **byte-identical** across three axes — `SDM_SHARDS`
//! (1 vs 4, merged in shard-index order), the drain limit (1 vs 256) and
//! [`EnforcementOptions::telemetry`] (`Some(true)` vs `Some(false)`) — on
//! randomized deployments, flow populations and soft-state TTLs. The last
//! axis is the zero-perturbation check: turning the drain histograms on
//! changes nothing but those two families.
//!
//! Non-invariant families (queue-occupancy / run-length histograms, sweep
//! passes, trace truncation) legitimately depend on the execution
//! configuration; the registry marks them and the default (`full =
//! false`) exports exclude them — the last test proves that exclusion is
//! load-bearing, not decorative.
//!
//! Shard counts, drain limits and the histogram switch are set
//! programmatically (per-call argument / `sim_mut().set_batch_size` /
//! options), so the test is immune to env races in a parallel test run.

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

            // Histogram axis: the same world with the drain histograms
            // off records the same run, and exports differ only in them.
            let off = world.controller.run_sharded(
                Steering::HotPotato,
                None,
                EnforcementOptions {
                    telemetry: Some(false),
                    ..options
                },
                &specs,
                1,
            );
            common::compare(&one, &off, "telemetry on vs off")?;
            prop_assert_eq!(
                &off.telemetry.to_json(false),
                &one.telemetry.to_json(false),
                "telemetry on vs off"
            );
            let (on_full, off_full) = (one.telemetry.to_json(true), off.telemetry.to_json(true));
            prop_assert_eq!(
                on_full.lines().count(),
                off_full.lines().count(),
                "full export families"
            );
            for (on, off) in on_full.lines().zip(off_full.lines()) {
                let histogram = on.starts_with("  \"sdm_queue_occupancy\"")
                    || on.starts_with("  \"sdm_batch_run_length\"");
                if !histogram {
                    prop_assert_eq!(on, off, "full export outside the drain histograms");
                }
            }
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
