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
//! device runs is unobservable. Every shard reports the same record a
//! single [`Enforcement`] does ([`Enforcement::snapshot`]) and
//! [`ShardedRun::merge`] folds them in fixed shard-index order, so any
//! `SDM_SHARDS` value produces the same bytes (`sdm golden --check` pins
//! this on the Table III output at 1 and 4 shards).

use sdm_netsim::{FiveTuple, SimStats};
use sdm_policy::FlowTableStats;
use sdm_util::par;

#[cfg(doc)]
use crate::controller::Enforcement;
use crate::controller::{Controller, EnforcementOptions};
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

/// Splits `flows` into one bucket per shard by [`shard_of`], preserving
/// input order inside a bucket. The one partition both
/// [`Controller::run_sharded`] and [`crate::EpochLoop`] inject from.
pub(crate) fn bucket_flows(flows: &[FlowSpec], shards: usize) -> Vec<Vec<FlowSpec>> {
    let mut buckets = vec![Vec::new(); shards];
    for spec in flows {
        buckets[shard_of(&spec.flow, shards)].push(*spec);
    }
    buckets
}

/// Soft-state footprint of the data plane after a run: entry counts and
/// flow-cache statistics per device, index-aligned with the controller's
/// stub / gateway / middlebox orders. Part of the [`ShardedRun`] record,
/// so a single [`Enforcement`] and a sharded run report the same fields.
/// Merged additively across shards — each flow's entries live in exactly
/// one shard, so the sums equal a single-shard run's counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateFootprint {
    /// Live flow-cache entries per stub proxy.
    pub proxy_flow_entries: Vec<u64>,
    /// Flow-cache hit/miss/expiry counters per stub proxy.
    pub proxy_flow_stats: Vec<FlowTableStats>,
    /// Live flow-cache entries per gateway ingress proxy.
    pub ingress_flow_entries: Vec<u64>,
    /// Flow-cache counters per gateway ingress proxy.
    pub ingress_flow_stats: Vec<FlowTableStats>,
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
        let stats = [
            (&mut self.proxy_flow_stats, &other.proxy_flow_stats),
            (&mut self.ingress_flow_stats, &other.ingress_flow_stats),
            (&mut self.mbox_flow_stats, &other.mbox_flow_stats),
        ];
        for (dst, src) in stats {
            for (d, s) in dst.iter_mut().zip(src) {
                d.merge(s);
            }
        }
    }
}

/// The run record: what a run left behind in its devices and simulator.
/// A single [`Enforcement`] reports it ([`Enforcement::snapshot`], `shards`
/// = 1), [`Controller::run_sharded`] and [`crate::EpochLoop::snapshot`]
/// return the [`ShardedRun::merge`] of their shards' records in
/// shard-index order — one type, so every consumer reads the same fields
/// whichever way the run was driven.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// How many per-shard records were folded into this one.
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
    /// Merged telemetry snapshot, scraped from the fields above plus the
    /// numbers each simulator keeps beside its record (trace truncation,
    /// and the drain histograms, which stay empty unless
    /// [`EnforcementOptions::telemetry`] was `Some(true)`).
    pub telemetry: sdm_telemetry::Snapshot,
}

impl ShardedRun {
    /// Per-type load summary (Table III) over the merged loads.
    pub fn load_report(&self, deployment: &Deployment) -> LoadReport {
        LoadReport::from_loads(deployment, &self.loads)
    }

    /// Folds another record over the same controller into this one — the
    /// only cross-shard fold. Every field is an exact integer sum or
    /// maximum (or an integer-valued traffic volume), so the result does
    /// not depend on how flows were split.
    pub fn merge(&mut self, other: &ShardedRun) {
        self.shards += other.shards;
        self.events += other.events;
        self.stats.merge(&other.stats);
        debug_assert_eq!(self.loads.len(), other.loads.len());
        for (d, v) in self.loads.iter_mut().zip(&other.loads) {
            *d += v;
        }
        self.measurements.merge(&other.measurements);
        for (d, v) in self.proxy_counters.iter_mut().zip(&other.proxy_counters) {
            d.merge(v);
        }
        for (d, v) in self.ingress_counters.iter_mut().zip(&other.ingress_counters) {
            d.merge(v);
        }
        for (d, v) in self.mbox_counters.iter_mut().zip(&other.mbox_counters) {
            d.merge(v);
        }
        self.footprint.merge(&other.footprint);
        self.telemetry.merge(&other.telemetry);
    }

    /// Merges per-shard records in the order given (shard-index order).
    #[expect(clippy::expect_used, reason = "both callers hold at least one shard")]
    pub(crate) fn fold(records: impl IntoIterator<Item = ShardedRun>) -> ShardedRun {
        records
            .into_iter()
            .reduce(|mut run, record| {
                run.merge(&record);
                run
            })
            .expect("at least one shard")
    }
}

impl Controller {
    /// Runs `flows` through `shards` independent enforcement instances in
    /// parallel and merges the results deterministically.
    ///
    /// Flows are bucketed by [`shard_of`] (preserving input order inside a
    /// bucket); each worker builds its own [`Enforcement`] — a cheap clone
    /// of the controller's read-only plan, assignments and weights —
    /// injects its bucket and runs to completion. Every shard then settles
    /// its soft state at the last tick over *all* shards — the tick a
    /// single-shard run ends at — and takes its [`Enforcement::snapshot`].
    /// The records are folded in shard-index order, so the result is
    /// independent of thread scheduling:
    /// `run_sharded(n)` is bit-identical to `run_sharded(1)` and, `shards`
    /// aside, to the snapshot of one `Enforcement` over the same flow list.
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

        let buckets = bucket_flows(flows, shards.max(1));
        let ran = par::par_map(&buckets, |_, bucket| {
            let mut enf = self.enforcement(strategy, weights.cloned(), options);
            for spec in bucket {
                enf.inject_flow(spec.flow, spec.packets, spec.payload);
            }
            enf.run();
            enf
        });
        let last = ran.iter().map(|enf| enf.sim().now()).max().unwrap_or_default();
        ShardedRun::fold(ran.iter().map(|enf| {
            enf.settle(last);
            enf.snapshot()
        }))
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

    /// Every field of the record but `shards` and the telemetry families
    /// that depend on the execution (queue occupancy, run length).
    fn assert_same_record(got: &ShardedRun, want: &ShardedRun, label: &str) {
        assert_eq!(got.events, want.events, "{label}: events");
        assert_eq!(got.stats, want.stats, "{label}: stats");
        assert_eq!(got.loads, want.loads, "{label}: loads");
        assert_eq!(
            got.measurements.iter().collect::<Vec<_>>(),
            want.measurements.iter().collect::<Vec<_>>(),
            "{label}: traffic matrix"
        );
        assert_eq!(got.proxy_counters, want.proxy_counters, "{label}: proxy counters");
        assert_eq!(got.ingress_counters, want.ingress_counters, "{label}: ingress counters");
        assert_eq!(got.mbox_counters, want.mbox_counters, "{label}: middlebox counters");
        assert_eq!(got.footprint, want.footprint, "{label}: footprint");
        assert_eq!(
            got.telemetry.to_json(false),
            want.telemetry.to_json(false),
            "{label}: invariant telemetry"
        );
    }

    #[test]
    fn sharded_run_matches_one_enforcement() {
        let c = controller();
        let specs = flows(&c, 200);
        // Traffic entering at a gateway has an external source, which a
        // `run_sharded` flow list cannot carry (`inject_flow` wants a stub
        // source) — so the ingress half takes the same bucket / snapshot /
        // fold steps by hand.
        let gw = c.plan().gateways()[0];
        let inbound: Vec<FlowSpec> = specs[..40]
            .iter()
            .enumerate()
            .map(|(i, s)| FlowSpec {
                flow: FiveTuple {
                    src: sdm_netsim::Ipv4Addr(0x5DB8_D800 + i as u32),
                    ..s.flow
                },
                ..*s
            })
            .collect();
        let run = |stub: &[FlowSpec], inbound: &[FlowSpec]| {
            let mut enf = c.enforcement(Strategy::HotPotato, None, Default::default());
            for s in stub {
                enf.inject_flow(s.flow, s.packets, s.payload);
            }
            for s in inbound {
                for pkt in sdm_netsim::Packet::aggregates(s.flow, s.payload, s.packets) {
                    enf.sim_mut().inject_at_router(gw, pkt);
                }
            }
            enf.run();
            enf.snapshot()
        };
        let one = run(&specs, &[]);
        let one_inbound = run(&specs, &inbound);
        assert_eq!(one.shards, 1);
        assert!(one_inbound.ingress_counters[0].steered > 0, "gateway proxy must steer");
        assert!(one_inbound.footprint.ingress_flow_stats[0].misses > 0);

        for shards in [1usize, 3, 4] {
            let sharded =
                c.run_sharded(Strategy::HotPotato, None, Default::default(), &specs, shards);
            assert_eq!(sharded.shards, shards);
            assert_same_record(&sharded, &one, &format!("{shards} shards"));

            let folded = ShardedRun::fold(
                bucket_flows(&specs, shards)
                    .iter()
                    .zip(&bucket_flows(&inbound, shards))
                    .map(|(stub, inbound)| run(stub, inbound)),
            );
            assert_eq!(folded.shards, shards);
            assert_same_record(&folded, &one_inbound, &format!("{shards} shards, inbound"));
        }
    }

    /// Under a TTL shorter than the run, shards that go idle early are
    /// settled at the last tick over all shards, so the soft-state
    /// footprint is the single run's at every shard count: a handful of
    /// flows keeps the shards' last ticks apart, and a TTL about one path
    /// long leaves entries alive at a shard's own last tick but not at
    /// the run's.
    #[test]
    fn shards_settle_at_the_last_tick_of_the_whole_run() {
        let c = controller();
        let options = EnforcementOptions {
            flow_ttl: 6,
            label_ttl: 6,
            ..Default::default()
        };
        for n in [8u16, 20] {
            let specs = flows(&c, n);
            let one = c.run_sharded(Strategy::HotPotato, None, options, &specs, 1);
            let expired: u64 = one.footprint.mbox_flow_stats.iter().map(|s| s.expired).sum();
            assert!(expired > 0, "{n} flows: entries expire within the run");
            for shards in [2usize, 3, 4] {
                let sharded = c.run_sharded(Strategy::HotPotato, None, options, &specs, shards);
                assert_same_record(&sharded, &one, &format!("{n} flows, {shards} shards"));
            }
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
