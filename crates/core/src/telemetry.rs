//! Deterministic metrics scraping: assembles the [`sdm_telemetry::Snapshot`]
//! of a run record from the numbers [`Enforcement::snapshot`] collected on
//! its one walk over the device states, plus what the simulator keeps
//! beside the record. No device state is locked here.
//!
//! Every value scraped is an additive fold over per-device numbers, so the
//! per-shard snapshots produced under `SDM_SHARDS > 1` merge (in shard
//! index order) to exactly the single-shard snapshot for every family
//! marked `invariant` in the [`sdm_telemetry::REGISTRY`].
//!
//! [`Enforcement::snapshot`]: crate::Enforcement::snapshot

use sdm_netsim::Simulator;
use sdm_telemetry::family;

use crate::shard::ShardedRun;

/// Device-kind label indices, matching [`sdm_telemetry::DEVICE_KINDS`].
pub(crate) const KIND_PROXY: usize = 0;
pub(crate) const KIND_INGRESS: usize = 1;
pub(crate) const KIND_MBOX: usize = 2;

/// Hop label indices, matching [`sdm_telemetry::STEER_HOPS`].
const HOP_PROXY: usize = 0;
const HOP_MBOX: usize = 1;

/// Fills in the `telemetry` field (all zeros on entry) of one
/// enforcement's record from its other fields, already collected;
/// `sweeps` is the flow-table sweep passes per device kind. From `sim`
/// come the two numbers that depend on how the run was driven and so
/// stay out of the record: trace truncation and the drain histograms.
///
/// Every family is either order-independent (sums) or dense-indexed by
/// the device itself.
pub(crate) fn scrape(
    run: &mut ShardedRun,
    sweeps: [u64; sdm_telemetry::DEVICE_KINDS.len()],
    sim: &Simulator,
) {
    let ShardedRun {
        telemetry: snap,
        footprint: fp,
        stats,
        loads,
        proxy_counters,
        ingress_counters,
        mbox_counters,
        ..
    } = run;

    // Flow-cache counters, folded per device kind under its label.
    let tables = [
        (KIND_PROXY, &fp.proxy_flow_stats, &fp.proxy_flow_entries),
        (KIND_INGRESS, &fp.ingress_flow_stats, &fp.ingress_flow_entries),
        (KIND_MBOX, &fp.mbox_flow_stats, &fp.mbox_flow_entries),
    ];
    for (kind, stats, entries) in tables {
        for s in stats {
            snap.add_labeled(family::FLOW_HITS, kind, s.hits);
            snap.add_labeled(family::FLOW_MISSES, kind, s.misses);
            snap.add_labeled(family::FLOW_NEGATIVE_HITS, kind, s.negative_hits);
            snap.add_labeled(family::FLOW_EXPIRED, kind, s.expired);
        }
        snap.add_labeled(family::FLOW_SWEEPS, kind, sweeps[kind]);
        snap.add_labeled(family::FLOW_ENTRIES, kind, entries.iter().sum());
    }
    for c in proxy_counters.iter().chain(ingress_counters.iter()) {
        snap.add(family::LABEL_SWITCHED, c.label_switched);
        snap.add_labeled(family::STEER_DECISIONS, HOP_PROXY, c.steer_decisions);
        snap.add_labeled(family::STEER_PINNED, HOP_PROXY, c.steer_pinned);
    }
    snap.add(family::LABEL_ENTRIES, fp.mbox_label_entries.iter().sum());
    for (i, (c, &load)) in mbox_counters.iter().zip(loads.iter()).enumerate() {
        snap.add(family::LABEL_MISSES, c.label_misses);
        snap.add_labeled(family::STEER_DECISIONS, HOP_MBOX, c.steer_decisions);
        snap.add_labeled(family::STEER_PINNED, HOP_MBOX, c.steer_pinned);
        snap.add_dense(family::MBOX_LOAD, i, load);
        snap.add_dense(family::MBOX_DROPS, i, c.dropped_failed);
    }

    snap.add(family::PACKETS_DELIVERED, stats.delivered);
    snap.add(family::LINK_HOPS, stats.link_hops);
    snap.add(family::DROPPED_TTL, stats.dropped_ttl);
    snap.add(family::TRACE_DROPPED, sim.trace_dropped());
    if let Some(h) = sim.drain_histograms() {
        snap.add_hist(family::QUEUE_OCCUPANCY, &h.queue_occupancy);
        snap.add_hist(family::BATCH_RUN_LENGTH, &h.run_length);
    }
}
