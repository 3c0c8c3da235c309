//! The online re-steer scenario (§III.C): a fixed epoch schedule through
//! [`sdm_core::EpochLoop`] — measure one epoch's traffic, warm re-solve
//! the steering LP from the previous epoch's simplex basis, verify the
//! plan, swap the weights into the running data plane — with a middlebox
//! failure after epoch 2 and a restore after epoch 4.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin resteer
//!     [--epochs N]    epochs to run (default 6)
//!     [--packets N]   packets injected per epoch (default 200000)
//!     [--seed N]      world seed (default 3)
//!
//! Environment: `SDM_SHARDS` sets the shard count. The table on stdout is
//! **byte-identical** at any shard count — `ci.sh` diffs 1-shard and
//! 4-shard runs against the committed golden
//! `results/resteer_golden.txt`. λ is printed with full `{:?}` precision
//! so even mantissa-level drift breaks the diff.

use sdm_bench::{arg_num, ExperimentConfig, World};
use sdm_core::{EnforcementOptions, EpochLoop, LbOptions, MiddleboxId};
use sdm_util::par::shard_count;
use sdm_workload::to_flow_specs;

fn busiest(loads: &[u64]) -> MiddleboxId {
    MiddleboxId(
        loads
            .iter()
            .enumerate()
            .max_by_key(|&(_, l)| l)
            .map(|(i, _)| i as u32)
            .expect("non-empty deployment"),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let epochs: u64 = arg_num(&args, "--epochs", 6);
    let packets: u64 = arg_num(&args, "--packets", 200_000);

    let world = World::build(&ExperimentConfig::campus(seed));
    let mut ep = EpochLoop::new(
        &world.controller,
        shard_count(),
        EnforcementOptions::default(),
        LbOptions::default(),
    );

    println!("# Online re-steer control loop: measure -> warm re-solve -> verify -> re-steer");
    println!("# campus topology, {packets} packets/epoch, {epochs} epochs;");
    println!("# busiest middlebox fails after epoch 2, is restored after epoch 4");
    println!(
        "{:>5} {:>6} {:>12} {:>22} {:>7} {:>5} {:>9}",
        "epoch", "cells", "volume", "lambda", "pivots", "warm", "activated"
    );
    let mut victim = MiddleboxId(0);
    for e in 1..=epochs {
        let flows = world.flows(packets, seed.wrapping_add(100 + e));
        let specs = to_flow_specs(&flows, 512);
        let r = ep.run_epoch(&specs).expect("epoch must solve and verify");
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
        if e == 2 {
            victim = busiest(&ep.middlebox_loads());
            ep.fail_middlebox(victim);
            println!("# fail middlebox {}", victim.0);
        }
        if e == 4 {
            ep.restore_middlebox(victim);
            println!("# restore middlebox {}", victim.0);
        }
    }
    println!(
        "# delivered {} dropped_failed {}",
        ep.delivered(),
        ep.dropped_failed()
    );
    println!("# loads {:?}", ep.middlebox_loads());
}
