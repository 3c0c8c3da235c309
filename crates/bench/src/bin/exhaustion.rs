//! The flow-table **exhaustion attack** scenario (PR 9): floods the campus
//! enforcement plane with one-packet flows that match *no* policy, so
//! every packet forces a classification miss and a negative-cache insert
//! at its proxy — the soft-state memory-exhaustion vector against
//! SDM-style proxies. Runs the same attack twice:
//!
//! * **uncapped** — the default negative-cache capacity (far above the
//!   attack population: memory grows with the attack, no evictions);
//! * **capped** — a small per-table capacity, where the set-associative
//!   cache must shed stale markers and hold the line.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin exhaustion
//!     [--flows N]  attack flows (default 200000)
//!     [--sets N]   capped run's negative-cache sets (default 512 → 4096 cap)
//!     [--seed N]   world seed (default 3)
//!
//! Environment: `SDM_SHARDS` selects the parallel corner.
//! Everything on stdout is byte-identical across power-of-two corners —
//! the negative cache partitions flows by stable hash exactly like the
//! shard split, so lengths and eviction counts are shard-invariant; CI
//! diffs `SDM_SHARDS=1` vs `4`. Exits 1 if any
//! device's negative-cache occupancy exceeds its cap.

use sdm_bench::{arg_num, ExperimentConfig, World};
use sdm_core::{EnforcementOptions, ShardedRun, Strategy};
use sdm_util::par::shard_count;
use sdm_workload::{exhaustion_attack, to_flow_specs};

fn run(world: &World, specs: &[sdm_core::FlowSpec], sets: usize, shards: usize) -> ShardedRun {
    let options = EnforcementOptions {
        neg_cache_sets: sets,
        ..EnforcementOptions::default()
    };
    world
        .controller
        .run_sharded(Strategy::HotPotato, None, options, specs, shards)
}

fn summarize(label: &str, run: &ShardedRun, cap: usize) -> bool {
    let fp = &run.footprint;
    let stats = {
        let mut s = sdm_policy::FlowTableStats::default();
        for t in fp.proxy_flow_stats.iter().chain(&fp.mbox_flow_stats) {
            s.merge(t);
        }
        s
    };
    let neg_entries: u64 = {
        // live flow entries minus positives = negative markers; the
        // attack installs no positives, so proxy entries *are* negatives
        fp.proxy_flow_entries.iter().sum()
    };
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let n_flows: usize = arg_num(&args, "--flows", 200_000);
    let sets: usize = arg_num(&args, "--sets", 512);
    let shards = shard_count();

    println!("# Exhaustion attack — negative-cache memory bound");
    println!("# campus topology, {n_flows} one-packet no-match flows");
    let world = World::build(&ExperimentConfig::campus(seed));
    let flows = exhaustion_attack(
        &world.generated.set,
        world.controller.addr_plan(),
        n_flows,
    );
    let specs = to_flow_specs(&flows, 64);

    let uncapped = run(&world, &specs, sdm_policy::DEFAULT_NEG_SETS, shards);
    let capped = run(&world, &specs, sets, shards);

    let cap_default = sdm_policy::DEFAULT_NEG_SETS * sdm_policy::NEG_WAYS;
    let cap_small = sets * sdm_policy::NEG_WAYS;
    let ok_before = summarize("before: default capacity", &uncapped, cap_default);
    let ok_after = summarize("after: capped capacity", &capped, cap_small);

    // the cap changes memory, never forwarding behavior
    let same_delivery = uncapped.stats.delivered == capped.stats.delivered
        && uncapped.stats.delivered_external == capped.stats.delivered_external;
    println!("## invariants");
    println!(
        "delivery unchanged   {}",
        if same_delivery { "yes" } else { "NO" }
    );

    if !(ok_before && ok_after && same_delivery) {
        std::process::exit(1);
    }
}
