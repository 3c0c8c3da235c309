//! The policy proxy (§III.A–B): intercepts all traffic entering or leaving
//! its stub network, matches outbound packets against its policy table
//! `P_x`, steers policy traffic into middlebox chains via IP-over-IP (or
//! label switching once established), measures per-policy volumes, and
//! delivers inbound traffic into the stub.
//!
//! The same device attached at an Internet gateway (the proxy-`y` wiring
//! of Figure 2) enforces policies on traffic *entering* the enterprise.
//! Without it, inbound traffic would reach its destination proxy and be
//! delivered without ever traversing its chain — the bypass the
//! architecture must prevent.

use std::sync::Arc;

use sdm_util::sync::Mutex;

use sdm_netsim::{Device, DeviceCtx, Packet, PacketId, PacketKind, Prefix};
use sdm_policy::{FlowEntry, FlowKey, LocalClassifier, PolicyId};

use crate::measure::{DestKey, TrafficMatrix};
use crate::runtime::{ProxyState, RuntimeConfig, Shared};
use crate::steer::SteerPoint;

/// What one same-flow stretch of a run resolved: the flow's key, hashed
/// once, and the flow-cache view its first packet found or inserted —
/// matched policy and class (`None` = no policy), label, label-switched
/// flag, and the pinned first-hop middlebox, which the stretch updates
/// when its first packet pins one. Run-mates reuse it instead of
/// re-probing the cache.
struct FlowRun {
    key: FlowKey,
    entry: FlowEntry,
}

/// The `T_{s,d,p}` volume of the current same-(destination, policy)
/// stretch of a run, recorded into the shared matrix once per stretch and
/// at the end of the run rather than under its lock once per packet.
/// Weights are integers and every volume stays below 2^53, so the summed
/// `f64` cells are exactly those per-packet recording produced.
type Tally = Option<(DestKey, PolicyId, u64)>;

/// The policy-proxy device for one stub network or one gateway.
pub struct ProxyDevice {
    point: SteerPoint,
    /// The stub's subnet; `None` at a gateway, which has nothing to
    /// deliver into (and no `T_{s,d,p}` row to measure).
    subnet: Option<Prefix>,
    policies: LocalClassifier,
    config: Arc<RuntimeConfig>,
    state: Shared<ProxyState>,
    measurements: Arc<Mutex<TrafficMatrix>>,
}

impl ProxyDevice {
    /// Creates the proxy steering from `point` — `Proxy(stub)` in front of
    /// a stub network, `Gateway(index)` at an Internet gateway — with its
    /// controller-installed local policy table `P_x`.
    pub fn new(
        point: SteerPoint,
        policies: LocalClassifier,
        config: Arc<RuntimeConfig>,
        state: Shared<ProxyState>,
        measurements: Arc<Mutex<TrafficMatrix>>,
    ) -> Self {
        let subnet = match point {
            SteerPoint::Proxy(stub) => Some(config.addr_plan.subnet(stub)),
            _ => None,
        };
        ProxyDevice {
            point,
            subnet,
            policies,
            config,
            state,
            measurements,
        }
    }

    fn dest_key(&self, pkt: &Packet) -> DestKey {
        match self.config.addr_plan.stub_of(pkt.inner.dst) {
            Some(s) => DestKey::Stub(s),
            None => DestKey::External,
        }
    }

    /// Resolves the steering decision for an outbound packet: flow-cache
    /// fast path (§III.D), falling back to the multi-field policy lookup
    /// and caching the result (with optional label allocation, §III.E).
    /// The insert and the label update after a miss reuse the miss's probe.
    fn probe_flow(
        &self,
        state: &mut ProxyState,
        key: FlowKey,
        now: sdm_netsim::SimTime,
        weight: u64,
    ) -> FlowEntry {
        if let Some(entry) = state.flows.lookup(key, now, weight) {
            return entry;
        }
        // Slow path: multi-field policy lookup, then cache.
        let Some((id, policy)) = self.policies.first_match(key.key()) else {
            return state.flows.insert_negative(key, now);
        };
        let mut entry = state.flows.insert_positive(key, id, &policy.actions, now);
        if self.config.label_switching() && !policy.actions.is_permit() {
            entry.label = state.labels.allocate();
            if let Some(l) = entry.label {
                state.flows.set_label(key, l);
            }
        }
        entry
    }

    /// Adds one steered packet to the run's measurement stretch, first
    /// recording the previous stretch if the key changed.
    fn measure(&self, tally: &mut Tally, dest: DestKey, policy: PolicyId, weight: u64) {
        match tally {
            Some((d, p, volume)) if *d == dest && *p == policy => *volume += weight,
            _ => {
                self.record(tally.take());
                *tally = Some((dest, policy, weight));
            }
        }
    }

    /// Records a finished measurement stretch (§III.C); gateways measure
    /// nothing.
    fn record(&self, tally: Tally) {
        if let (SteerPoint::Proxy(stub), Some((dest, policy, volume))) = (self.point, tally) {
            self.measurements
                .lock()
                .record(stub, dest, policy, volume as f64);
        }
    }

    /// Applies a resolved [`FlowRun`] to one outbound (already measured)
    /// packet: permit / source-route / label-switch / encapsulate. The
    /// proxy state lock is already held.
    fn steer_outbound(
        &self,
        ctx: &mut DeviceCtx<'_>,
        state: &mut ProxyState,
        pkt: PacketId,
        weight: u64,
        run: &mut FlowRun,
    ) {
        let Some((policy_id, class)) = run.entry.action else {
            // No policy: forward unchanged.
            state.counters.permitted += weight;
            ctx.forward(pkt);
            return;
        };
        let actions = state.flows.actions(class);

        if actions.is_permit() {
            state.counters.permitted += weight;
            ctx.forward(pkt);
            return;
        }

        // Strict source routing: compute the whole chain here and embed it.
        if self.config.encoding == crate::steer::SteeringEncoding::SourceRouting {
            let Some(chain) =
                self.config
                    .resolve_chain(self.point, policy_id, actions, run.key.key())
            else {
                state.counters.unenforceable += weight;
                ctx.drop_pkt(pkt);
                return;
            };
            let final_dst = ctx.pkt(pkt).inner.dst;
            let mut segments: Vec<sdm_netsim::Ipv4Addr> =
                chain.iter().map(|&m| self.config.mbox_addr(m)).collect();
            segments.push(final_dst);
            if ctx.set_source_route(pkt, segments).is_err() {
                // longer than the header can carry: refused, not leaked
                state.counters.unenforceable += weight;
                ctx.drop_pkt(pkt);
                return;
            }
            state.counters.steered += weight;
            ctx.forward(pkt);
            return;
        }

        // Steer to the first function's middlebox. A pin recorded on the
        // flow entry wins: live flows keep their original selection even
        // after the epoch loop swapped in new weights (§III.B stickiness).
        let first_fn = actions.first();
        let next = match run.entry.pinned_next {
            Some(raw) => {
                self.config.tel.steer_pin_replay(sdm_telemetry::Hop::Proxy);
                crate::deployment::MiddleboxId(raw)
            }
            None => {
                let commodity = self.config.commodity_of(ctx.pkt(pkt));
                let Some(next) = first_fn.and_then(|first_fn| {
                    self.config.select_for_commodity(
                        self.point, policy_id, first_fn, 0, run.key.key(), commodity,
                    )
                }) else {
                    state.counters.unenforceable += weight;
                    ctx.drop_pkt(pkt); // drop: the policy cannot be enforced
                    return;
                };
                // The pin lands on the entry the stretch's probe found, and
                // the run carries it: run-mates replay it exactly as their
                // own lookups would, so a flow counts one fresh decision
                // and one replay per later packet however arrivals split
                // into runs.
                state.flows.pin_next(run.key, next.0);
                run.entry.pinned_next = Some(next.0);
                self.config.tel.steer_decision(sdm_telemetry::Hop::Proxy);
                next
            }
        };
        let next_addr = self.config.mbox_addr(next);
        let label = run.entry.label;

        if run.entry.label_switched && self.config.label_switching() {
            // §III.E fast path: label + destination rewrite, no tunnel.
            if let Some(l) = label {
                let p = ctx.pkt_mut(pkt);
                p.label = Some(l);
                p.inner.dst = next_addr;
                state.counters.label_switched += weight;
                state.counters.steered += weight;
                ctx.forward(pkt);
                return;
            }
        }

        // §III.B: IP-over-IP with the proxy as outer source. A packet that
        // already carries the deepest tunnel stack cannot be steered.
        let entry = ctx.addr();
        let p = ctx.pkt_mut(pkt);
        if p.encapsulate(entry, next_addr).is_err() {
            state.counters.unenforceable += weight;
            ctx.drop_pkt(pkt);
            return;
        }
        p.label = label;
        state.counters.steered += weight;
        ctx.forward(pkt);
    }

    /// Handles a label-ready control packet (§III.E). Returns `true` if the
    /// packet was consumed.
    fn handle_control(
        &self,
        ctx: &mut DeviceCtx<'_>,
        state: &mut ProxyState,
        pkt: PacketId,
    ) -> bool {
        let p = ctx.pkt(pkt);
        if p.kind != PacketKind::LabelReady {
            return false;
        }
        state.counters.control_received += p.weight();
        state.flows.flag_label_switched(p.original());
        ctx.drop_pkt(pkt);
        true
    }

    /// Delivers an inbound packet into the stub. Returns `true` if the
    /// packet was addressed to us and consumed (never at a gateway).
    fn handle_inbound(
        &self,
        ctx: &mut DeviceCtx<'_>,
        state: &mut ProxyState,
        pkt: PacketId,
    ) -> bool {
        if self.subnet.is_some_and(|s| s.contains(ctx.pkt(pkt).current_dst())) {
            state.counters.inbound += ctx.pkt(pkt).weight();
            while ctx.pkt_mut(pkt).decapsulate().is_some() {}
            ctx.deliver_local(pkt);
            return true;
        }
        false
    }
}

impl Device for ProxyDevice {
    /// One lock acquisition for the whole run, and one flow-table probe
    /// per consecutive same-flow stretch — run-mates reuse the stretch's
    /// `FlowRun` (recording their cache hits via
    /// [`sdm_policy::FlowTable::record_run_hit`]) instead of re-probing.
    ///
    /// How arrivals split into runs is unobservable: a lookup by a
    /// run-mate is a guaranteed hit returning exactly the run's view, pin
    /// included, and control/inbound packets conservatively end the
    /// current stretch because they can mutate flow state (e.g. flag a
    /// flow label-switched mid-tick). Measurements are summed per stretch and recorded by the
    /// end of the run, which no cell can tell from per-packet recording.
    fn receive(&mut self, ctx: &mut DeviceCtx<'_>, pkts: &[PacketId]) {
        let mut state = self.state.lock();
        let mut run: Option<FlowRun> = None;
        let mut tally: Tally = None;
        for &pkt in pkts {
            if self.handle_control(ctx, &mut state, pkt) || self.handle_inbound(ctx, &mut state, pkt)
            {
                // Control packets mutate flow state; end the run so the
                // next data packet re-probes and observes the update.
                run = None;
                continue;
            }
            let (ft, weight) = {
                let p = ctx.pkt(pkt);
                (p.five_tuple(), p.weight())
            };
            // Leaving our stub — or, at a gateway, entering the enterprise.
            state.counters.outbound += weight;
            let run = match &mut run {
                // A run-mate's own lookup would land on the cached
                // entry: count the hit — classified by the entry's
                // negativity, as a real lookup would classify it.
                Some(r) if *r.key.key() == ft => {
                    if r.entry.is_negative() {
                        state.flows.record_run_negative_hit(weight);
                    } else {
                        state.flows.record_run_hit(weight);
                    }
                    r
                }
                _ => {
                    let key = FlowKey::new(ft);
                    let entry = self.probe_flow(&mut state, key, ctx.now(), weight);
                    run.insert(FlowRun { key, entry })
                }
            };
            // Measure T_{s,d,p} for the controller (§III.C).
            if let (SteerPoint::Proxy(_), Some((policy, _))) = (self.point, run.entry.action) {
                self.measure(&mut tally, self.dest_key(ctx.pkt(pkt)), policy, weight);
            }
            self.steer_outbound(ctx, &mut state, pkt, weight, run);
        }
        self.record(tally);
    }
}

#[cfg(test)]
mod tests {
    //! Proxy behaviour is exercised end-to-end in the controller tests and
    //! the workspace integration tests; unit tests here cover the pieces
    //! that do not need a running simulator.

    use super::*;
    use crate::deployment::{Deployment, MiddleboxSpec};
    use crate::steer::{Assignments, KConfig, Strategy};
    use sdm_netsim::{AddressPlan, StubId};
    use sdm_policy::NetworkFunction::*;
    use sdm_topology::campus::campus;

    #[test]
    fn dest_key_resolves_stub_and_external() {
        let plan = campus(1);
        let addr_plan = AddressPlan::new(&plan);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        let routes = plan.topology().routing_tables();
        let assignments = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::uniform(1));
        let config = Arc::new(RuntimeConfig {
            strategy: Strategy::HotPotato,
            assignments,
            weights: crate::runtime::WeightsCell::new(None),
            mbox_addrs: vec![sdm_netsim::preassigned_device_addr(0)],
            addr_plan: addr_plan.clone(),
            encoding: Default::default(),
            mbox_functions: dep.iter().map(|(_, s)| s.functions.clone()).collect(),
            tel: Arc::new(sdm_telemetry::ShardTelemetry::new(false)),
        });
        let proxy = ProxyDevice::new(
            SteerPoint::Proxy(StubId(0)),
            LocalClassifier::new(Default::default(), Default::default()),
            config,
            Arc::new(Mutex::new(ProxyState::new(1000, sdm_policy::DEFAULT_NEG_SETS))),
            Arc::new(Mutex::new(TrafficMatrix::new())),
        );
        let internal = Packet::data(
            sdm_netsim::FiveTuple {
                src: addr_plan.host(StubId(0), 0),
                dst: addr_plan.host(StubId(3), 0),
                src_port: 1,
                dst_port: 2,
                proto: sdm_netsim::Protocol::Tcp,
            },
            10,
        );
        assert_eq!(proxy.dest_key(&internal), DestKey::Stub(StubId(3)));
        let mut external = internal;
        external.inner.dst = "8.8.8.8".parse().unwrap();
        assert_eq!(proxy.dest_key(&external), DestKey::External);
    }
}
