//! The benchmark's metric vocabulary (mirrored by `../BENCHMARK.json`; the
//! smoke test asserts the two agree) and the small statistics it reports.

use std::collections::BTreeMap;

/// One declared metric: its name and unit as printed and as declared in
/// `BENCHMARK.json`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system waits for; emitted by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    m("pkt_per_s", "1/s"),
    m("iter_ms_p50", "ms"),
    m("iter_ms_p95", "ms"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer counts, unit costs and spans; emitted by traced runs. A
/// metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m("netsim.events", "count"),
    m("netsim.events_per_pkt", "count"),
    m("netsim.link_hops_per_pkt", "count"),
    m("netsim.arena.allocs_per_pkt", "count"),
    m("netsim.ns_per_event", "ns"),
    m("netsim.queue.op_ns", "ns"),
    m("netsim.queue.depth_p99", "count"),
    m("netsim.batch.run_len_mean", "count"),
    m("netsim.engine.plain_hop_ns", "ns"),
    m("netsim.inject_ns_per_pkt", "ns"),
    m("topology.next_hop_ns", "ns"),
    m("topology.routes_build_ms", "ms"),
    m("policy.flow_table.hit_ns", "ns"),
    m("policy.flow_table.hit_share", "ratio"),
    m("policy.flow_table.lookups", "count"),
    m("policy.flow_table.miss_ns", "ns"),
    m("policy.flow_table.insert_ns", "ns"),
    m("policy.flow_table.sweep_step_ns", "ns"),
    m("policy.flow_table.entries_max", "count"),
    m("policy.flow_table.expired", "count"),
    m("policy.flow_table.neg_evictions", "count"),
    m("policy.classifier.first_match_ns", "ns"),
    m("policy.classifier.calls", "count"),
    m("policy.classifier.rules_max", "count"),
    m("policy.label_table.lookup_ns", "ns"),
    m("policy.label_table.switched_share", "ratio"),
    m("core.control_pkts", "count"),
    m("core.steer.select_ns", "ns"),
    m("core.steer.decisions", "count"),
    m("core.steer.pinned_share", "ratio"),
    m("core.controller.build_ms", "ms"),
    m("core.controller.enforcement_build_ms", "ms"),
    m("workload.generate_ms", "ms"),
    m("core.fig4.hp_ms", "ms"),
    m("core.fig4.rand_ms", "ms"),
    m("core.fig4.lb_ms", "ms"),
    m("core.lp_model.cold_solve_ms", "ms"),
    m("core.shard.speedup_2", "ratio"),
    m("core.lp_model.lb_over_hp_maxload", "ratio"),
    m("core.epoch.dataplane_ms", "ms"),
    m("core.measure.merge_ms", "ms"),
    m("core.lp_model.warm_solve_ms", "ms"),
    m("core.lp_model.warm_share", "ratio"),
    m("lp.simplex.pivots_per_solve", "count"),
    m("core.lp_model.vars", "count"),
    m("core.lp_model.constraints", "count"),
    m("verify.plan.check_ms", "ms"),
    m("core.epoch.swap_ms", "ms"),
    m("core.reach.view_build_ms", "ms"),
    m("verify.reach.check_ms", "ms"),
    m("verify.reach.flow_classes", "count"),
    m("verify.reach.us_per_class", "us"),
    m("verify.reach.findings", "count"),
    m("model.queue_share", "ratio"),
    m("model.engine_share", "ratio"),
    m("model.routing_share", "ratio"),
    m("model.flow_table_share", "ratio"),
    m("model.classifier_share", "ratio"),
    m("model.label_table_share", "ratio"),
    m("model.steer_share", "ratio"),
    m("model.residual_share", "ratio"),
    m("trace.overhead_share", "ratio"),
];

/// Per-layer values of one traced run, keyed by a [`PER_LAYER`] name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in [`PER_LAYER`]: an undeclared
    /// metric would silently never be printed.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quantile `iter_ms_p95` reads off `n` samples: 0.95, lowered until
/// about three samples lie at or beyond it (0.7 of 10 samples, 0.95 from
/// 60 on), and never below the median. A percentile with one sample
/// beyond it is that sample: on a host that stalls for a second now and
/// then it reports the host.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 3.0 / n.max(1) as f64).clamp(0.5, 0.95)
}

/// The mean over strata of each stratum's `q(len)`-quantile. Strata hold
/// different work (the flow populations of `campus_epoch`), so a quantile
/// of the pooled samples would mostly say which stratum was slowest.
pub fn stratified(strata: &[Vec<f64>], q: impl Fn(usize) -> f64) -> f64 {
    let per_stratum: f64 = strata.iter().map(|s| quantile(s, q(s.len()))).sum();
    per_stratum / strata.len().max(1) as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a sequence of words: the digest lines compress load
/// vectors and per-epoch sequences to one comparable number. The
/// benchmark's own, not the tree's `FxHasher`, so digests of two commits
/// compare even if one of them changes that hasher.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_three_samples_beyond() {
        assert_eq!(tail_q(0), 0.5);
        assert_eq!(tail_q(6), 0.5);
        assert!((tail_q(10) - 0.7).abs() < 1e-12);
        assert_eq!(tail_q(60), 0.95);
        assert_eq!(tail_q(600), 0.95);
    }

    #[test]
    fn strata_are_averaged_not_pooled() {
        let strata = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0, 40.0]];
        assert_eq!(stratified(&strata, |_| 0.5), (2.0 + 25.0) / 2.0);
        assert_eq!(stratified(&[], |_| 0.5), 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
