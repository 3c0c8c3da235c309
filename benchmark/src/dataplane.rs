//! What a data-plane run left behind, read through the library's public
//! accessors: the counts behind the digest line, the correctness checks
//! and the per-layer cost model.

use sdm_core::{Enforcement, MboxCounters, ProxyCounters, ShardedRun};
use sdm_netsim::SimStats;
use sdm_policy::FlowTableStats;
use sdm_telemetry::{family, Snapshot};

use crate::harness::Checks;
use crate::metrics::fnv;
use crate::world::World;

/// Counters of one finished run (one `Enforcement`, or the fold of a
/// sharded run).
pub struct DataPlane {
    pub events: u64,
    pub stats: SimStats,
    pub loads: Vec<u64>,
    /// Flow-cache counters summed over every proxy and middlebox.
    pub flow: FlowTableStats,
    /// Flow-cache entries resident at the end, summed over devices.
    pub entries_total: u64,
    /// The largest single flow cache at the end.
    pub entries_max: u64,
    pub neg_evictions: u64,
    /// The largest single label table at the end.
    pub label_entries_max: u64,
    pub proxy: ProxyCounters,
    pub mbox: MboxCounters,
    /// Packets allocated in the arena (0 for sharded runs, which do not
    /// expose their simulators).
    pub arena_allocs: u64,
    pub telemetry: Snapshot,
}

impl DataPlane {
    pub fn of_enforcement(world: &World, enf: &Enforcement, events: u64) -> DataPlane {
        let mut dp = DataPlane {
            events,
            stats: enf.sim().stats().clone(),
            loads: enf.middlebox_loads(),
            flow: FlowTableStats::default(),
            entries_total: 0,
            entries_max: 0,
            neg_evictions: 0,
            label_entries_max: 0,
            proxy: ProxyCounters::default(),
            mbox: MboxCounters::default(),
            arena_allocs: enf.sim().arena().allocations(),
            telemetry: enf.telemetry_snapshot(),
        };
        let stubs = world.controller.addr_plan().stubs();
        let gateways = 0..enf.ingress_count();
        let proxies = stubs
            .map(|s| enf.proxy_state(s))
            .chain(gateways.map(|g| enf.ingress_state(g)));
        for state in proxies {
            let st = state.lock();
            dp.proxy.merge(&st.counters);
            dp.add_table(
                st.flows.stats(),
                st.flows.len(),
                st.flows.negative_evictions(),
            );
        }
        for (id, _) in world.deployment.iter() {
            let state = enf.mbox_state(id);
            let st = state.lock();
            dp.mbox.merge(&st.counters);
            dp.add_table(
                st.flows.stats(),
                st.flows.len(),
                st.flows.negative_evictions(),
            );
            dp.label_entries_max = dp.label_entries_max.max(st.labels.len() as u64);
        }
        dp
    }

    pub fn of_sharded(run: &ShardedRun) -> DataPlane {
        let mut dp = DataPlane {
            events: run.events,
            stats: run.stats.clone(),
            loads: run.loads.clone(),
            flow: FlowTableStats::default(),
            entries_total: 0,
            entries_max: 0,
            neg_evictions: 0,
            label_entries_max: run
                .footprint
                .mbox_label_entries
                .iter()
                .copied()
                .max()
                .unwrap_or(0),
            proxy: ProxyCounters::default(),
            mbox: MboxCounters::default(),
            arena_allocs: 0,
            telemetry: run.telemetry.clone(),
        };
        let fp = &run.footprint;
        for c in run.proxy_counters.iter().chain(&run.ingress_counters) {
            dp.proxy.merge(c);
        }
        for c in &run.mbox_counters {
            dp.mbox.merge(c);
        }
        for s in fp.proxy_flow_stats.iter().chain(&fp.mbox_flow_stats) {
            dp.flow.merge(s);
        }
        let entries = fp
            .proxy_flow_entries
            .iter()
            .chain(&fp.ingress_flow_entries)
            .chain(&fp.mbox_flow_entries);
        for &e in entries {
            dp.entries_total += e;
            dp.entries_max = dp.entries_max.max(e);
        }
        let evictions = fp
            .proxy_neg_evictions
            .iter()
            .chain(&fp.ingress_neg_evictions)
            .chain(&fp.mbox_neg_evictions);
        dp.neg_evictions = evictions.sum();
        dp
    }

    fn add_table(&mut self, stats: FlowTableStats, len: usize, evictions: u64) {
        self.flow.merge(&stats);
        self.entries_total += len as u64;
        self.entries_max = self.entries_max.max(len as u64);
        self.neg_evictions += evictions;
    }

    pub fn delivered(&self) -> u64 {
        self.stats.delivered + self.stats.delivered_external
    }

    /// Packets the run lost, by every drop counter the stack keeps.
    pub fn dropped(&self) -> u64 {
        self.stats.dropped_ttl
            + self.stats.unroutable
            + self.proxy.unenforceable
            + self.mbox.unenforceable
            + self.mbox.label_misses
            + self.mbox.dropped_failed
    }

    /// Fresh steering decisions and pinned replays, from telemetry (both
    /// 0 when the run had telemetry off).
    pub fn steer(&self) -> (u64, u64) {
        let sum = |fam| self.telemetry.value(fam, 0) + self.telemetry.value(fam, 1);
        (sum(family::STEER_DECISIONS), sum(family::STEER_PINNED))
    }

    /// Every simulated statistic that must repeat bit for bit.
    pub fn digest(&self, world: &World) -> String {
        format!(
            "events={} delivered={} external={} link_hops={} device_hops={} encap_hops={} \
             frag={} control={} latency_total={} loads={:016x} fn_loads={:?} ft_hits={} \
             ft_neg_hits={} ft_misses={} ft_expired={} ft_entries={} neg_evictions={} \
             label_switched={} dropped={}",
            self.events,
            self.stats.delivered,
            self.stats.delivered_external,
            self.stats.link_hops,
            self.stats.device_link_hops,
            self.stats.encapsulated_hops,
            self.stats.frag_events,
            self.stats.control_received,
            self.stats.latency_total,
            fnv(self.loads.iter().copied()),
            world.function_loads(&self.loads),
            self.flow.hits,
            self.flow.negative_hits,
            self.flow.misses,
            self.flow.expired,
            self.entries_total,
            self.neg_evictions,
            self.mbox.label_switched_in,
            self.dropped(),
        )
    }

    /// Every injected packet is delivered, none is dropped, and each
    /// function processed exactly the packets whose policy requires it.
    pub fn check(&self, world: &World, injected: u64, expected: [u64; 4], checks: &mut Checks) {
        let lost = injected.saturating_sub(self.delivered());
        checks.ops(injected, lost.max(self.dropped()), "packets delivered");
        checks.check(self.delivered() <= injected, || {
            format!("delivered {} of {injected} injected", self.delivered())
        });
        let got = world.function_loads(&self.loads);
        checks.check(got == expected, || {
            format!("per-function loads {got:?}, policies require {expected:?}")
        });
    }
}
