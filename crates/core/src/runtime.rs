//! Shared runtime state for the enforcement devices: the read-only
//! controller-installed configuration, and the per-device mutable state the
//! experiment harness inspects after a run.

use std::sync::Arc;

use sdm_util::sync::Mutex;
use sdm_util::FxHashMap;

use sdm_netsim::{AddressPlan, Ipv4Addr};
use sdm_policy::{FlowTable, LabelAllocator, LabelTable};

use crate::deployment::MiddleboxId;
use crate::measure::DestKey;
use crate::steer::{
    Assignments, CommodityKey, SteerPoint, SteeringEncoding, SteeringWeights, Strategy, WeightKey,
};
use sdm_netsim::FiveTuple;
use sdm_policy::PolicyId;

/// Interior-mutable holder for the installed LP split weights.
///
/// Devices share the [`RuntimeConfig`] through an `Arc`, so the §III.C
/// re-steer control loop cannot replace the config wholesale between
/// epochs without rebuilding every device (and losing the flow tables
/// that make live flows sticky). Instead the weights live behind this
/// cell: the controller [`WeightsCell::swap`]s a freshly solved table in
/// at an epoch boundary, and each selection takes a cheap
/// [`WeightsCell::snapshot`] handle. Selections run only on flow-cache
/// misses, so the lock is off the per-packet fast path.
#[derive(Debug, Default)]
pub struct WeightsCell {
    inner: Mutex<Option<Arc<SteeringWeights>>>,
}

impl WeightsCell {
    /// Wraps an initial weight table (or none, for weightless strategies).
    pub fn new(weights: Option<SteeringWeights>) -> Self {
        WeightsCell {
            inner: Mutex::new(weights.map(Arc::new)),
        }
    }

    /// A shared handle to the currently installed table.
    pub fn snapshot(&self) -> Option<Arc<SteeringWeights>> {
        self.inner.lock().clone()
    }

    /// Installs a new table, returning the previous one.
    pub fn swap(&self, weights: Option<SteeringWeights>) -> Option<Arc<SteeringWeights>> {
        std::mem::replace(&mut *self.inner.lock(), weights.map(Arc::new))
    }
}

/// Read-only configuration the controller pushes to every proxy and
/// middlebox before traffic starts (§III.B: assignments and policies;
/// §III.C: weights, which alone are swappable between epochs).
#[derive(Debug)]
pub struct RuntimeConfig {
    /// Enforcement strategy in force.
    pub strategy: Strategy,
    /// Candidate sets `M_x^e` for every steer point.
    pub assignments: Assignments,
    /// LP split weights (present only under load-balanced enforcement);
    /// swappable by the epoch control loop.
    pub weights: WeightsCell,
    /// Tunnel endpoint address of each middlebox, by id.
    pub mbox_addrs: Vec<Ipv4Addr>,
    /// The network addressing plan (to resolve destination stubs).
    pub addr_plan: AddressPlan,
    /// How steering is encoded on the wire (§III.B/E, §V).
    pub encoding: SteeringEncoding,
    /// Functions implemented per middlebox (by id); lets proxies emulate
    /// downstream selections when building strict source routes.
    pub mbox_functions: Vec<std::collections::BTreeSet<sdm_policy::NetworkFunction>>,
}

impl RuntimeConfig {
    /// The address of a middlebox's tunnel endpoint.
    pub fn mbox_addr(&self, m: MiddleboxId) -> Ipv4Addr {
        self.mbox_addrs[m.index()]
    }

    /// Whether the §III.E label-switching enhancement is active.
    pub fn label_switching(&self) -> bool {
        self.encoding == SteeringEncoding::LabelSwitching
    }

    /// Emulates the whole chain selection for `flow` under policy
    /// `policy` with action list `actions`, starting at the proxy of
    /// `stub`: returns the distinct middleboxes visited, in order. Used to
    /// build strict source routes. Returns `None` if some function has no
    /// middlebox.
    pub fn resolve_chain(
        &self,
        origin: SteerPoint,
        policy: PolicyId,
        actions: &sdm_policy::ActionList,
        flow: &FiveTuple,
    ) -> Option<Vec<MiddleboxId>> {
        let mut chain = Vec::new();
        let first = actions.first()?;
        let mut current = self.select(origin, policy, first, 0, flow)?;
        chain.push(current);
        let mut idx = 0;
        while let Some(next_fn) = actions.get(idx + 1) {
            if self.mbox_functions[current.index()].contains(&next_fn) {
                // applied locally at `current`; no extra hop
                idx += 1;
                continue;
            }
            current = self.select(
                SteerPoint::Middlebox(current),
                policy,
                next_fn,
                (idx + 1) as u16,
                flow,
            )?;
            chain.push(current);
            idx += 1;
        }
        Some(chain)
    }

    /// Flow-sticky selection of the next middlebox for `flow` at `point`,
    /// towards the function at `next_index` of policy `policy`'s chain.
    ///
    /// Combines the candidate set, the installed weights (if any) and the
    /// strategy; returns `None` if no middlebox offers the function.
    /// Equivalent to [`RuntimeConfig::select_for_commodity`] without
    /// commodity context.
    pub fn select(
        &self,
        point: SteerPoint,
        policy: PolicyId,
        function: sdm_policy::NetworkFunction,
        next_index: u16,
        flow: &FiveTuple,
    ) -> Option<MiddleboxId> {
        self.select_for_commodity(point, policy, function, next_index, flow, None)
    }

    /// Like [`RuntimeConfig::select`], but when the flow's (source stub,
    /// destination) commodity is known, per-commodity Eq. (1) weights take
    /// precedence over the aggregate Eq. (2) weights.
    pub fn select_for_commodity(
        &self,
        point: SteerPoint,
        policy: PolicyId,
        function: sdm_policy::NetworkFunction,
        next_index: u16,
        flow: &FiveTuple,
        commodity: Option<(sdm_netsim::StubId, DestKey)>,
    ) -> Option<MiddleboxId> {
        let candidates = self.assignments.candidates(point, function);
        let key = WeightKey {
            point,
            policy,
            next_index,
        };
        let table = self.weights.snapshot();
        let weights = table.as_deref().and_then(|w| {
            commodity
                .and_then(|(src, dst)| w.get_fine(&CommodityKey { key, src, dst }))
                .or_else(|| w.get(&key))
        });
        crate::steer::select_next(self.strategy, candidates, weights, flow)
    }

    /// The commodity of a packet, derived from its *original* endpoints
    /// (which survive label switching's destination rewrites).
    pub fn commodity_of(&self, pkt: &sdm_netsim::Packet) -> Option<(sdm_netsim::StubId, DestKey)> {
        let original = pkt.original();
        let src = self.addr_plan.stub_of(original.src)?;
        let dst = match self.addr_plan.stub_of(original.dst) {
            Some(s) => DestKey::Stub(s),
            None => DestKey::External,
        };
        Some((src, dst))
    }
}

/// Counters a policy proxy accumulates while enforcing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyCounters {
    /// Outbound packets intercepted (weighted).
    pub outbound: u64,
    /// Inbound packets delivered into the stub (weighted).
    pub inbound: u64,
    /// Outbound packets forwarded without any policy action.
    pub permitted: u64,
    /// Outbound packets steered into a middlebox chain.
    pub steered: u64,
    /// Packets forwarded via label switching instead of IP-over-IP.
    pub label_switched: u64,
    /// Label-ready control packets received.
    pub control_received: u64,
    /// Packets dropped because no middlebox offers a required function.
    pub unenforceable: u64,
    /// Fresh first-hop selections: one per flow that reaches the steering
    /// step without a pin. Unweighted, unlike the fields above: an
    /// aggregate of any weight is one decision.
    pub steer_decisions: u64,
    /// Steering lookups answered by the flow's pinned selection.
    /// Unweighted: one per packet or aggregate that replays the pin.
    pub steer_pinned: u64,
}

impl ProxyCounters {
    /// Adds another proxy's counters into this one (used when merging the
    /// per-shard devices of a flow-sharded run).
    pub fn merge(&mut self, other: &ProxyCounters) {
        self.outbound += other.outbound;
        self.inbound += other.inbound;
        self.permitted += other.permitted;
        self.steered += other.steered;
        self.label_switched += other.label_switched;
        self.control_received += other.control_received;
        self.unenforceable += other.unenforceable;
        self.steer_decisions += other.steer_decisions;
        self.steer_pinned += other.steer_pinned;
    }
}

/// Mutable state of one policy proxy, shared between the device inside the
/// simulator and the harness outside it.
#[derive(Debug)]
pub struct ProxyState {
    /// The §III.D flow cache.
    pub flows: FlowTable,
    /// Label allocator for §III.E.
    pub labels: LabelAllocator,
    /// Enforcement counters.
    pub counters: ProxyCounters,
    /// Measured `T_{s,d,p}` volumes of this proxy's stub `s`, by
    /// destination and policy, since the controller last drained them
    /// (§III.C). Integer packets: the controller converts each cell to
    /// `f64` once, which is exact below 2^53.
    pub measured: FxHashMap<(DestKey, PolicyId), u64>,
}

impl ProxyState {
    /// Fresh state with the given flow-cache ttl and negative-cache set
    /// count (`neg_sets`, a power of two — see
    /// [`sdm_policy::FlowTable::with_negative_sets`]).
    pub fn new(flow_ttl: u64, neg_sets: usize) -> Self {
        ProxyState {
            flows: FlowTable::with_negative_sets(flow_ttl, neg_sets),
            labels: LabelAllocator::new(),
            counters: ProxyCounters::default(),
            measured: FxHashMap::default(),
        }
    }
}

/// Counters a middlebox accumulates while enforcing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MboxCounters {
    /// Network-function applications performed (weighted; one packet may
    /// receive several consecutive functions on a multi-function box).
    pub applications: u64,
    /// Tunneled (IP-over-IP) packets received.
    pub tunneled_in: u64,
    /// Label-switched packets received.
    pub label_switched_in: u64,
    /// Label-switched packets whose label had no table entry (dropped).
    pub label_misses: u64,
    /// Source-routed packets received (SR baseline encoding).
    pub source_routed_in: u64,
    /// Tunneled packets that matched no local policy (forwarded untouched).
    pub unmatched: u64,
    /// Packets dropped because the next function has no middlebox.
    pub unenforceable: u64,
    /// Packets dropped because this box has crashed.
    pub dropped_failed: u64,
    /// Fresh next-middlebox selections: one per flow that reaches a chain
    /// hop here without a pin. Unweighted, unlike the fields above.
    pub steer_decisions: u64,
    /// Next-middlebox lookups answered by the flow's pinned selection.
    /// Unweighted: one per packet or aggregate that replays the pin.
    pub steer_pinned: u64,
}

impl MboxCounters {
    /// Adds another middlebox's counters into this one (used when merging
    /// the per-shard devices of a flow-sharded run).
    pub fn merge(&mut self, other: &MboxCounters) {
        self.applications += other.applications;
        self.tunneled_in += other.tunneled_in;
        self.label_switched_in += other.label_switched_in;
        self.label_misses += other.label_misses;
        self.source_routed_in += other.source_routed_in;
        self.unmatched += other.unmatched;
        self.unenforceable += other.unenforceable;
        self.dropped_failed += other.dropped_failed;
        self.steer_decisions += other.steer_decisions;
        self.steer_pinned += other.steer_pinned;
    }
}

/// Mutable state of one middlebox.
#[derive(Debug)]
pub struct MboxState {
    /// The §III.D flow cache (middleboxes keep one too).
    pub flows: FlowTable,
    /// The §III.E label table.
    pub labels: LabelTable,
    /// Enforcement counters.
    pub counters: MboxCounters,
    /// Crash flag: a failed box blackholes everything it receives (the
    /// failure model used by the dependability tests).
    pub failed: bool,
}

impl MboxState {
    /// Fresh state with the given soft-state ttls and negative-cache set
    /// count (see [`ProxyState::new`]).
    pub fn new(flow_ttl: u64, label_ttl: u64, neg_sets: usize) -> Self {
        MboxState {
            flows: FlowTable::with_negative_sets(flow_ttl, neg_sets),
            labels: LabelTable::new(label_ttl),
            counters: MboxCounters::default(),
            failed: false,
        }
    }
}

/// Convenience alias: shared handle to per-device state.
pub type Shared<T> = Arc<Mutex<T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{Deployment, MiddleboxSpec};
    use crate::steer::{Assignments, KConfig, Strategy};
    use sdm_netsim::{AddressPlan, FiveTuple, Protocol, StubId};
    use sdm_policy::{ActionList, NetworkFunction::*};
    use sdm_topology::campus::campus;

    fn config() -> RuntimeConfig {
        let plan = campus(1);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        dep.add(MiddleboxSpec::new(Ids, plan.cores()[4], 1.0));
        dep.add(MiddleboxSpec::new(WebProxy, plan.cores()[9], 1.0));
        let routes = plan.topology().routing_tables();
        let assignments = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::uniform(1));
        RuntimeConfig {
            strategy: Strategy::HotPotato,
            assignments,
            weights: WeightsCell::new(None),
            mbox_addrs: (0..3).map(sdm_netsim::preassigned_device_addr).collect(),
            addr_plan: AddressPlan::new(&plan),
            encoding: SteeringEncoding::IpOverIp,
            mbox_functions: dep.iter().map(|(_, s)| s.functions.clone()).collect(),
        }
    }

    fn ft() -> FiveTuple {
        FiveTuple {
            src: "10.0.0.9".parse().unwrap(),
            dst: "10.0.16.9".parse().unwrap(), // stub 1 (/20 subnets)
            src_port: 4000,
            dst_port: 80,
            proto: Protocol::Tcp,
        }
    }

    #[test]
    fn resolve_chain_visits_every_function_in_order() {
        let cfg = config();
        let chain = cfg
            .resolve_chain(
                SteerPoint::Proxy(StubId(0)),
                PolicyId(0),
                &ActionList::chain([Firewall, Ids, WebProxy]),
                &ft(),
            )
            .expect("all functions deployed");
        assert_eq!(chain.len(), 3);
        // single-function boxes: the chain is exactly FW, IDS, WP box ids
        assert_eq!(
            chain,
            vec![MiddleboxId(0), MiddleboxId(1), MiddleboxId(2)]
        );
    }

    #[test]
    fn resolve_chain_fails_on_missing_function() {
        let cfg = config();
        assert!(cfg
            .resolve_chain(
                SteerPoint::Proxy(StubId(0)),
                PolicyId(0),
                &ActionList::chain([TrafficMonitor]),
                &ft(),
            )
            .is_none());
    }

    #[test]
    fn commodity_resolution() {
        let cfg = config();
        let pkt = sdm_netsim::Packet::data(ft(), 100);
        let (src, dst) = cfg.commodity_of(&pkt).unwrap();
        assert_eq!(src, StubId(0));
        assert_eq!(dst, DestKey::Stub(StubId(1)));
        let mut ext = ft();
        ext.dst = "8.8.8.8".parse().unwrap();
        let pkt = sdm_netsim::Packet::data(ext, 100);
        assert_eq!(cfg.commodity_of(&pkt).unwrap().1, DestKey::External);
        let mut foreign = ft();
        foreign.src = "8.8.8.8".parse().unwrap();
        let pkt = sdm_netsim::Packet::data(foreign, 100);
        assert!(cfg.commodity_of(&pkt).is_none(), "external source has no stub");
    }
}
