//! Deterministic metrics exporter: runs the online re-steer scenario
//! (campus topology, epoch loop with warm LP re-solves) with telemetry
//! forced on and prints the merged [`sdm_telemetry::Snapshot`].
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin sdm-metrics
//!     [--epochs N]     epochs to run (default 3)
//!     [--packets N]    packets injected per epoch (default 100000)
//!     [--seed N]       world seed (default 3)
//!     [--full]         include non-invariant families (histograms,
//!                      pinned-replay counts — these depend on the
//!                      SDM_SHARDS configuration)
//!     [--prometheus]   Prometheus text exposition instead of JSON
//!
//! Environment: `SDM_SHARDS` sets the shard count. Without `--full`, the
//! output is **byte-identical** at any shard count — `ci.sh` diffs
//! 1-shard and 4-shard runs against the committed golden
//! `results/telemetry_golden.json`.

use sdm_bench::{arg_num, ExperimentConfig, World};
use sdm_core::{EnforcementOptions, EpochLoop, LbOptions};
use sdm_util::par::shard_count;
use sdm_workload::to_flow_specs;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let epochs: u64 = arg_num(&args, "--epochs", 3);
    let packets: u64 = arg_num(&args, "--packets", 100_000);
    let full = args.iter().any(|a| a == "--full");
    let prometheus = args.iter().any(|a| a == "--prometheus");

    let world = World::build(&ExperimentConfig::campus(seed));
    let options = EnforcementOptions {
        telemetry: Some(true),
        ..Default::default()
    };
    let mut ep = EpochLoop::new(&world.controller, shard_count(), options, LbOptions::default());
    for e in 1..=epochs {
        // Epochs come in pairs sharing one flow population: the second of
        // a pair re-injects the first's flows, so the snapshot exercises
        // flow-cache hits, pinned steering replays and a warm LP solve —
        // not just the all-miss cold path.
        let flows = world.flows(packets, seed.wrapping_add(100 + e.div_ceil(2)));
        let specs = to_flow_specs(&flows, 512);
        ep.run_epoch(&specs).expect("epoch must solve and verify");
    }

    let snap = ep.telemetry_snapshot();
    if prometheus {
        print!("{}", snap.to_prometheus(full));
    } else {
        println!("{}", snap.to_json(full));
    }
}
