//! Benchmark: packets-per-second of the data path on the Figure-4 campus
//! hot-potato workload.
//!
//! Two regimes are measured:
//!
//! - **aggregate** (`hp_10m_*`): the full 10M-packet population injected
//!   through the exact flow-aggregate fast path (one weighted event per
//!   flow), at 1 and 4 shards — the configuration every figure binary
//!   runs. Aggregates collapse each flow into a single event, so
//!   same-flow runs have length 1 and the batched drain can only amortise
//!   queue drains and device-lock acquisition.
//! - **packet-level** (`hp_1m_pktlevel_*`): a 1M-packet slice of the same
//!   population injected as individual back-to-back packets. Consecutive
//!   same-flow packets form real runs at each device, so the per-run
//!   flow/label-table probe amortisation engages.
//!
//! The `b256` in the bench names is the engine's fixed drain limit; it
//! stays in the names so the medians keep pairing with the committed
//! ledgers.

use std::hint::black_box;

use sdm_bench::{ExperimentConfig, World};
use sdm_core::Strategy;
use sdm_util::bench::Runner;

/// Aggregate-path packet volume.
const PACKETS: u64 = 10_000_000;

/// Packet-level volume (one event per packet per hop — two orders of
/// magnitude more events per packet than the aggregate path).
const PACKETS_PKTLEVEL: u64 = 1_000_000;

fn main() {
    // A full run takes seconds; keep the default sample count small
    // unless the caller asked for something specific.
    if std::env::var_os("SDM_BENCH_SAMPLES").is_none() {
        std::env::set_var("SDM_BENCH_SAMPLES", "5");
    }

    let world = World::build(&ExperimentConfig::campus(3));
    let flows = world.flows(PACKETS, 3u64.wrapping_add(10));
    let pkt_flows = world.flows(PACKETS_PKTLEVEL, 3u64.wrapping_add(10));
    eprintln!(
        "throughput workload: {} flows, {} packets aggregate; {} flows, {} packets packet-level; {} hardware threads",
        flows.len(),
        flows.iter().map(|f| f.packets).sum::<u64>(),
        pkt_flows.len(),
        pkt_flows.iter().map(|f| f.packets).sum::<u64>(),
        sdm_util::par::hardware_threads(),
    );

    let mut group = Runner::new("throughput");
    let report = |name: &str, packets: u64, median_ns: f64| {
        let pps = packets as f64 / (median_ns / 1e9);
        eprintln!("{:<40} {pps:>10.0} pkt/s", format!("throughput/{name}"));
    };
    for (name, shards) in [("hp_10m_b256_shards1", 1usize), ("hp_10m_b256_shards4", 4)] {
        let res = group.bench(name, || {
            black_box(
                world
                    .run_strategy_sharded(Strategy::HotPotato, None, &flows, shards)
                    .delivered,
            )
        });
        report(name, PACKETS, res.median_ns);
    }
    let res = group.bench("hp_1m_pktlevel_b256", || {
        black_box(
            world
                .run_strategy_packets(Strategy::HotPotato, None, &pkt_flows)
                .delivered,
        )
    });
    report("hp_1m_pktlevel_b256", PACKETS_PKTLEVEL, res.median_ns);
    group.finish();
}
