//! Flow-sharded parallel enforcement: partition a flow list by flow hash
//! into N shards, run N independent [`Enforcement`] instances on worker
//! threads, and deterministically merge their statistics into one result.
//!
//! Soundness rests on flow stickiness (§III.B): every per-flow decision —
//! steering, flow-cache entries, label bindings — is a pure function of the
//! five-tuple and the (read-only) controller configuration, so flows never
//! interact. Partitioning by [`FiveTuple::stable_hash`] keeps each flow's
//! packets in one shard, and all merged quantities are either exact integer
//! sums/maxima or integer-valued traffic volumes, so
//! `run_sharded(N) == run_sharded(1)` bit-for-bit for any N.
//!
//! The one exception is *shared middlebox queueing*
//! ([`Enforcement::set_middlebox_service_time`], Ablation H): there flows
//! contend for the same server, so sharding would change the answer. The
//! guarantee is structural: a service time can only be set on a single
//! [`Enforcement`], and [`Controller::run_sharded`] builds its shard
//! engines itself, so the sharded path cannot be handed one.
//!
//! Each shard owns a private simulator running the one event loop
//! (`sdm-netsim`'s tick-batched drain), whose split of arrivals into
//! device runs is unobservable; the merge below folds shard results in
//! fixed shard-index order, so any `SDM_SHARDS` value produces the same
//! bytes (`sdm golden --check` pins this on the Table III output at 1 and 4
//! shards).

use sdm_netsim::{FiveTuple, SimStats};
use sdm_policy::FlowTableStats;
use sdm_util::par;

use crate::controller::{Controller, Enforcement, EnforcementOptions};
use crate::deployment::Deployment;
use crate::measure::TrafficMatrix;
use crate::report::LoadReport;
use crate::runtime::{MboxCounters, ProxyCounters};
use crate::steer::{SteeringWeights, Strategy};

/// One flow to inject: the aggregate-injection triple of
/// [`Enforcement::inject_flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// The flow's five-tuple (also the shard key).
    pub flow: FiveTuple,
    /// Packets in the flow.
    pub packets: u64,
    /// Payload bytes per packet.
    pub payload: u32,
}

/// The shard a flow belongs to: `stable_hash() mod shards`.
///
/// Deterministic across runs and platforms (the hash is the same FNV-style
/// mix the steering layer uses), and identical five-tuples always land in
/// the same shard, so per-flow soft state never splits.
pub fn shard_of(flow: &FiveTuple, shards: usize) -> usize {
    if shards <= 1 {
        0
    } else {
        (flow.stable_hash() % shards as u64) as usize
    }
}

/// Soft-state footprint of the data plane after a run: entry counts and
/// flow-cache statistics per device, index-aligned with the controller's
/// stub / gateway / middlebox orders. Merged additively across shards —
/// each flow's entries live in exactly one shard, so the sums equal a
/// single-shard run's counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateFootprint {
    /// Live flow-cache entries per stub proxy.
    pub proxy_flow_entries: Vec<u64>,
    /// Flow-cache hit/miss/expiry counters per stub proxy.
    pub proxy_flow_stats: Vec<FlowTableStats>,
    /// Live flow-cache entries per gateway ingress proxy.
    pub ingress_flow_entries: Vec<u64>,
    /// Live flow-cache entries per middlebox.
    pub mbox_flow_entries: Vec<u64>,
    /// Live label-table entries per middlebox (§III.E).
    pub mbox_label_entries: Vec<u64>,
    /// Flow-cache counters per middlebox.
    pub mbox_flow_stats: Vec<FlowTableStats>,
    /// Negative-cache evictions per stub proxy (non-zero only when the
    /// capped negative cache is under exhaustion pressure; see
    /// [`sdm_policy::FlowTable::negative_evictions`]). The set-associative
    /// cache partitions flows by stable hash, so these counts are invariant
    /// across `SDM_SHARDS` like every other footprint field.
    pub proxy_neg_evictions: Vec<u64>,
    /// Negative-cache evictions per gateway ingress proxy.
    pub ingress_neg_evictions: Vec<u64>,
    /// Negative-cache evictions per middlebox.
    pub mbox_neg_evictions: Vec<u64>,
}

impl StateFootprint {
    fn merge(&mut self, other: &StateFootprint) {
        fn add(dst: &mut [u64], src: &[u64]) {
            debug_assert_eq!(dst.len(), src.len());
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        add(&mut self.proxy_flow_entries, &other.proxy_flow_entries);
        add(&mut self.ingress_flow_entries, &other.ingress_flow_entries);
        add(&mut self.mbox_flow_entries, &other.mbox_flow_entries);
        add(&mut self.mbox_label_entries, &other.mbox_label_entries);
        add(&mut self.proxy_neg_evictions, &other.proxy_neg_evictions);
        add(&mut self.ingress_neg_evictions, &other.ingress_neg_evictions);
        add(&mut self.mbox_neg_evictions, &other.mbox_neg_evictions);
        for (d, s) in self.proxy_flow_stats.iter_mut().zip(&other.proxy_flow_stats) {
            d.merge(s);
        }
        for (d, s) in self.mbox_flow_stats.iter_mut().zip(&other.mbox_flow_stats) {
            d.merge(s);
        }
    }
}

/// The deterministically merged result of a flow-sharded run. Every field
/// is the element-wise / additive merge of the per-shard snapshots, taken
/// in shard-index order.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// How many shards the flow list was split into.
    pub shards: usize,
    /// Total simulator events processed across shards.
    pub events: u64,
    /// Merged engine statistics (sums; `*_max` fields are maxima).
    pub stats: SimStats,
    /// Per-middlebox packet loads (Figures 4–5), summed across shards.
    pub loads: Vec<u64>,
    /// Merged proxy traffic measurements (integer-valued volumes).
    pub measurements: TrafficMatrix,
    /// Merged per-stub proxy counters.
    pub proxy_counters: Vec<ProxyCounters>,
    /// Merged per-gateway ingress-proxy counters.
    pub ingress_counters: Vec<ProxyCounters>,
    /// Merged per-middlebox counters.
    pub mbox_counters: Vec<MboxCounters>,
    /// Merged soft-state footprint.
    pub footprint: StateFootprint,
    /// Merged telemetry snapshot ([`Enforcement::telemetry_snapshot`] per
    /// shard, folded in shard-index order). All zeros unless telemetry was
    /// enabled (`SDM_TELEMETRY` / [`EnforcementOptions::telemetry`]) —
    /// except the scraped table/simulator families, which are always live.
    pub telemetry: sdm_telemetry::Snapshot,
}

impl ShardedRun {
    /// Per-type load summary (Table III) over the merged loads.
    pub fn load_report(&self, deployment: &Deployment) -> LoadReport {
        LoadReport::from_loads(deployment, &self.loads)
    }
}

/// One shard's plain-data snapshot, taken inside the worker thread after
/// its private `Enforcement` ran to completion.
struct ShardSnapshot {
    events: u64,
    stats: SimStats,
    loads: Vec<u64>,
    measurements: TrafficMatrix,
    proxy_counters: Vec<ProxyCounters>,
    ingress_counters: Vec<ProxyCounters>,
    mbox_counters: Vec<MboxCounters>,
    footprint: StateFootprint,
    telemetry: sdm_telemetry::Snapshot,
}

fn snapshot(controller: &Controller, enf: &Enforcement, events: u64) -> ShardSnapshot {
    let stubs = controller.addr_plan().stub_count();
    let gateways = controller.plan().gateways().len();
    let mboxes = controller.deployment().len();

    let mut proxy_counters = Vec::with_capacity(stubs);
    let mut proxy_flow_entries = Vec::with_capacity(stubs);
    let mut proxy_flow_stats = Vec::with_capacity(stubs);
    let mut proxy_neg_evictions = Vec::with_capacity(stubs);
    for stub in controller.addr_plan().stubs() {
        let state = enf.proxy_state(stub);
        let st = state.lock();
        proxy_counters.push(st.counters);
        proxy_flow_entries.push(st.flows.len() as u64);
        proxy_flow_stats.push(st.flows.stats());
        proxy_neg_evictions.push(st.flows.negative_evictions());
    }

    let mut ingress_counters = Vec::with_capacity(gateways);
    let mut ingress_flow_entries = Vec::with_capacity(gateways);
    let mut ingress_neg_evictions = Vec::with_capacity(gateways);
    for g in 0..gateways {
        let state = enf.ingress_state(g);
        let st = state.lock();
        ingress_counters.push(st.counters);
        ingress_flow_entries.push(st.flows.len() as u64);
        ingress_neg_evictions.push(st.flows.negative_evictions());
    }

    let mut mbox_counters = Vec::with_capacity(mboxes);
    let mut mbox_flow_entries = Vec::with_capacity(mboxes);
    let mut mbox_label_entries = Vec::with_capacity(mboxes);
    let mut mbox_flow_stats = Vec::with_capacity(mboxes);
    let mut mbox_neg_evictions = Vec::with_capacity(mboxes);
    for (id, _) in controller.deployment().iter() {
        let state = enf.mbox_state(id);
        let st = state.lock();
        mbox_counters.push(st.counters);
        mbox_flow_entries.push(st.flows.len() as u64);
        mbox_label_entries.push(st.labels.len() as u64);
        mbox_flow_stats.push(st.flows.stats());
        mbox_neg_evictions.push(st.flows.negative_evictions());
    }

    ShardSnapshot {
        events,
        stats: enf.sim().stats().clone(),
        loads: enf.middlebox_loads(),
        measurements: enf.measurements(),
        proxy_counters,
        ingress_counters,
        mbox_counters,
        footprint: StateFootprint {
            proxy_flow_entries,
            proxy_flow_stats,
            ingress_flow_entries,
            mbox_flow_entries,
            mbox_label_entries,
            mbox_flow_stats,
            proxy_neg_evictions,
            ingress_neg_evictions,
            mbox_neg_evictions,
        },
        telemetry: enf.telemetry_snapshot(),
    }
}

impl Controller {
    /// Runs `flows` through `shards` independent enforcement instances in
    /// parallel and merges the results deterministically.
    ///
    /// Flows are bucketed by [`shard_of`] (preserving input order inside a
    /// bucket); each worker builds its own [`Enforcement`] — a cheap clone
    /// of the controller's read-only plan, assignments and weights —
    /// injects its bucket, runs to completion and snapshots plain data.
    /// Snapshots are folded in shard-index order, so the result is
    /// independent of thread scheduling: `run_sharded(n)` is bit-identical
    /// to `run_sharded(1)` and to a legacy single-`Enforcement` run over
    /// the same flow list.
    ///
    /// The worker-thread count is governed separately by `SDM_THREADS`
    /// (see [`sdm_util::par::thread_count`]); the shard count only decides
    /// the partition, so the same `shards` value reproduces the same
    /// output on any machine.
    ///
    /// # Panics
    ///
    /// Panics if any flow's source is outside every stub subnet (as
    /// [`Enforcement::inject_flow`] does).
    pub fn run_sharded(
        &self,
        strategy: Strategy,
        weights: Option<&SteeringWeights>,
        options: EnforcementOptions,
        flows: &[FlowSpec],
        shards: usize,
    ) -> ShardedRun {
        // Fail-fast (see ISSUE 5 / sdm-verify): prove the full enforcement
        // plan — including the LP solution and the runtime options — before
        // any packet is injected. A broken weight column or a zero TTL
        // panics here with the structured V0xx report instead of silently
        // blackholing traffic mid-run.
        let report = crate::verify::verify_enforcement(self, weights, &options);
        assert!(!report.has_errors(), "{report}");

        let shards = shards.max(1);
        let mut buckets: Vec<Vec<FlowSpec>> = vec![Vec::new(); shards];
        for spec in flows {
            buckets[shard_of(&spec.flow, shards)].push(*spec);
        }

        let snapshots = par::par_map(&buckets, |_, bucket| {
            let mut enf = self.enforcement(strategy, weights.cloned(), options);
            for spec in bucket {
                enf.inject_flow(spec.flow, spec.packets, spec.payload);
            }
            let events = enf.run();
            snapshot(self, &enf, events)
        });

        let mut iter = snapshots.into_iter();
        // lint:allow(hot-path-panic) — `shards.max(1)` above guarantees a first bucket
        let first = iter.next().expect("at least one shard");
        let mut run = ShardedRun {
            shards,
            events: first.events,
            stats: first.stats,
            loads: first.loads,
            measurements: first.measurements,
            proxy_counters: first.proxy_counters,
            ingress_counters: first.ingress_counters,
            mbox_counters: first.mbox_counters,
            footprint: first.footprint,
            telemetry: first.telemetry,
        };
        for s in iter {
            run.events += s.events;
            run.stats.merge(&s.stats);
            debug_assert_eq!(run.loads.len(), s.loads.len());
            for (d, v) in run.loads.iter_mut().zip(&s.loads) {
                *d += v;
            }
            run.measurements.merge(&s.measurements);
            for (d, v) in run.proxy_counters.iter_mut().zip(&s.proxy_counters) {
                d.merge(v);
            }
            for (d, v) in run.ingress_counters.iter_mut().zip(&s.ingress_counters) {
                d.merge(v);
            }
            for (d, v) in run.mbox_counters.iter_mut().zip(&s.mbox_counters) {
                d.merge(v);
            }
            run.footprint.merge(&s.footprint);
            run.telemetry.merge(&s.telemetry);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::MiddleboxSpec;
    use crate::steer::KConfig;
    use sdm_netsim::{Protocol, StubId};
    use sdm_policy::{ActionList, NetworkFunction::*, Policy, PolicySet, TrafficDescriptor};
    use sdm_topology::campus::campus;

    fn controller() -> Controller {
        let plan = campus(1);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[8], 1.0));
        dep.add(MiddleboxSpec::new(Ids, plan.cores()[4], 1.0));
        let mut policies = PolicySet::new();
        policies.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Firewall, Ids]),
        ));
        Controller::new(plan, dep, policies, KConfig::uniform(2))
    }

    fn flows(c: &Controller, n: u16) -> Vec<FlowSpec> {
        (0..n)
            .map(|i| FlowSpec {
                flow: FiveTuple {
                    src: c.addr_plan().host(StubId((i % 8) as u32), i as u32 % 50),
                    dst: c.addr_plan().host(StubId(((i % 8) + 1) as u32), 1),
                    src_port: 1024 + i,
                    dst_port: 80,
                    proto: Protocol::Tcp,
                },
                packets: 1 + (i as u64 % 40),
                payload: 512,
            })
            .collect()
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let c = controller();
        for spec in flows(&c, 64) {
            for shards in [1usize, 2, 3, 4, 8] {
                let s = shard_of(&spec.flow, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(&spec.flow, shards), "stable");
            }
            assert_eq!(shard_of(&spec.flow, 0), 0);
        }
    }

    #[test]
    fn sharded_run_matches_legacy_enforcement() {
        let c = controller();
        let specs = flows(&c, 200);

        // Legacy: one Enforcement over the whole list.
        let mut enf = c.enforcement(Strategy::HotPotato, None, Default::default());
        for s in &specs {
            enf.inject_flow(s.flow, s.packets, s.payload);
        }
        enf.run();
        let legacy_loads = enf.middlebox_loads();
        let legacy_stats = enf.sim().stats().clone();

        for shards in [1usize, 3, 4] {
            let run = c.run_sharded(Strategy::HotPotato, None, Default::default(), &specs, shards);
            assert_eq!(run.shards, shards);
            assert_eq!(run.loads, legacy_loads, "loads, {shards} shards");
            assert_eq!(run.stats.delivered, legacy_stats.delivered);
            assert_eq!(run.stats.link_hops, legacy_stats.link_hops);
            assert_eq!(run.stats.dropped_ttl, legacy_stats.dropped_ttl);
            assert_eq!(run.stats.unroutable, legacy_stats.unroutable);
            assert_eq!(run.measurements.grand_total(), enf.measurements().grand_total());
            let total_entries: u64 = run.footprint.proxy_flow_entries.iter().sum();
            let legacy_entries: u64 = c
                .addr_plan()
                .stubs()
                .map(|s| enf.proxy_state(s).lock().flows.len() as u64)
                .sum();
            assert_eq!(total_entries, legacy_entries, "proxy cache footprint");
        }
    }

    #[test]
    fn merge_is_independent_of_worker_threads() {
        let c = controller();
        let specs = flows(&c, 120);
        std::env::remove_var("SDM_THREADS");
        let a = c.run_sharded(Strategy::Random { salt: 7 }, None, Default::default(), &specs, 4);
        std::env::set_var("SDM_THREADS", "1");
        let b = c.run_sharded(Strategy::Random { salt: 7 }, None, Default::default(), &specs, 4);
        std::env::remove_var("SDM_THREADS");
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.events, b.events);
        assert_eq!(a.stats.delivered, b.stats.delivered);
        assert_eq!(a.proxy_counters, b.proxy_counters);
        assert_eq!(a.footprint, b.footprint);
    }
}
