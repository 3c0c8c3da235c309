//! Shared by the equivalence suites: two runs over the same flows are
//! compared field by field on the one run record. Each test crate that
//! includes this module uses a subset of it.
#![allow(dead_code)]

use sdm::core::{EnforcementOptions, ShardedRun};
use sdm::util::prop_assert_eq;

/// Soft-state TTL draws for the equivalence suites: 0 keeps the default
/// (longer than any run, so nothing expires); 1..=6 ticks makes flow and
/// label entries expire, and get reclaimed, within an aggregate run.
pub const TTL_DRAWS: std::ops::Range<u64> = 0..7;

/// `options` with `flow_ttl = label_ttl = ttl`, or unchanged for 0.
pub fn with_ttl(options: EnforcementOptions, ttl: u64) -> EnforcementOptions {
    if ttl == 0 {
        return options;
    }
    EnforcementOptions {
        flow_ttl: ttl,
        label_ttl: ttl,
        ..options
    }
}

/// Every field of the record that must not depend on how the run was
/// driven (shard count, drain limit): all but `shards` itself and
/// `telemetry`, whose invariant families `tests/telemetry_determinism.rs`
/// compares.
pub fn compare(reference: &ShardedRun, other: &ShardedRun, label: &str) -> Result<(), String> {
    prop_assert_eq!(other.events, reference.events, "{label}: events");
    prop_assert_eq!(&other.stats, &reference.stats, "{label}: sim stats");
    prop_assert_eq!(&other.loads, &reference.loads, "{label}: loads");
    prop_assert_eq!(
        other.measurements.iter().collect::<Vec<_>>(),
        reference.measurements.iter().collect::<Vec<_>>(),
        "{label}: traffic matrix"
    );
    prop_assert_eq!(
        &other.proxy_counters,
        &reference.proxy_counters,
        "{label}: proxy counters"
    );
    prop_assert_eq!(
        &other.ingress_counters,
        &reference.ingress_counters,
        "{label}: ingress counters"
    );
    prop_assert_eq!(
        &other.mbox_counters,
        &reference.mbox_counters,
        "{label}: middlebox counters"
    );
    prop_assert_eq!(
        &other.footprint,
        &reference.footprint,
        "{label}: state footprint"
    );
    Ok(())
}
