//! The software-defined middlebox (§III.A–E): applies its network
//! function(s), resolves the governing policy via flow cache or policy
//! table, steers packets onwards via IP-over-IP, installs label-table
//! entries, and handles label-switched packets with destination rewriting.

use std::collections::BTreeSet;
use std::sync::Arc;

use sdm_netsim::{Device, DeviceCtx, FiveTuple, Ipv4Addr, Label, Packet, PacketId, SimTime};
use sdm_policy::{
    ActionList, FlowKey, LabelKey, LocalClassifier, NetworkFunction, PolicyClassId, PolicyId,
};

use crate::deployment::MiddleboxId;
use crate::runtime::{MboxState, RuntimeConfig, Shared};
use crate::steer::SteerPoint;

/// What one tunneled flow's stretch resolved at this box, reused by the
/// consecutive same-flow packets of a run so the flow-table probe, the
/// chain-position scan and the label-table install happen once per
/// stretch. The packet's label is part of the stretch key because label
/// presence decides whether a label-table entry is installed.
struct TunnelRun {
    /// The flow, hashed once.
    key: FlowKey,
    label: Option<Label>,
    policy_id: PolicyId,
    class: PolicyClassId,
    /// This box's stretch of the chain: the first function it implements
    /// and the last of the consecutive ones after it. `None`: it
    /// implements none (the packet is forwarded unmatched).
    span: Option<(usize, usize)>,
    /// The function after the span; `None` at the chain's last box.
    next_fn: Option<NetworkFunction>,
    /// The pinned next middlebox (raw id): found by the probe, or set by
    /// the stretch's first selection.
    pinned: Option<u32>,
}

/// A label-switched stretch: its key and where the entry it found sends
/// packets — `(next_hop, final_dst)`, or `None` on a miss.
type LabelRun = Option<(LabelKey, Option<(Option<Ipv4Addr>, Option<Ipv4Addr>)>)>;

/// One software-defined middlebox device.
pub struct MiddleboxDevice {
    id: MiddleboxId,
    functions: BTreeSet<NetworkFunction>,
    policies: LocalClassifier,
    config: Arc<RuntimeConfig>,
    state: Shared<MboxState>,
}

impl MiddleboxDevice {
    /// Creates the device with its controller-installed policy table.
    pub fn new(
        id: MiddleboxId,
        functions: BTreeSet<NetworkFunction>,
        policies: LocalClassifier,
        config: Arc<RuntimeConfig>,
        state: Shared<MboxState>,
    ) -> Self {
        MiddleboxDevice {
            id,
            functions,
            policies,
            config,
            state,
        }
    }

    /// This box's stretch of `actions`: the first index whose function we
    /// implement, and the last index of the consecutive run of functions
    /// we also implement from there.
    fn my_span(&self, actions: &ActionList) -> Option<(usize, usize)> {
        let fns = actions.functions();
        let pos = fns.iter().position(|f| self.functions.contains(f))?;
        let len = fns[pos..]
            .iter()
            .take_while(|f| self.functions.contains(f))
            .count();
        Some((pos, pos + len - 1))
    }

    /// Resolves the governing policy for a (decapsulated) tunneled packet:
    /// flow cache first, then the policy table (caching the match, at the
    /// cell the miss found). `None` means no policy matched at all.
    fn resolve_tunneled(
        &self,
        state: &mut MboxState,
        ft: FiveTuple,
        label: Option<Label>,
        now: SimTime,
        weight: u64,
    ) -> Option<TunnelRun> {
        let key = FlowKey::new(ft);
        let entry = match state.flows.lookup(key, now, weight) {
            Some(e) if !e.is_negative() => e,
            _ => {
                let (id, policy) = self.policies.first_match(&ft)?;
                state.flows.insert_positive(key, id, &policy.actions, now)
            }
        };
        let (policy_id, class) = entry.action?;
        let actions = state.flows.actions(class);
        let span = self.my_span(actions);
        Some(TunnelRun {
            key,
            label,
            policy_id,
            class,
            span,
            next_fn: span.and_then(|(_, end)| actions.get(end + 1)),
            pinned: entry.pinned_next,
        })
    }

    /// Applies this box's function(s) to a resolved tunneled packet and
    /// steers it onwards (next-hop tunnel or last-hop §III.E handling).
    ///
    /// `install_labels = false` is the run-mate mode: the stretch's
    /// first packet already installed an identical label-table
    /// entry at this instant, so re-inserting is skipped. Everything
    /// observable per packet (counters, control emission, rewrites) still
    /// happens here.
    fn apply_tunneled(
        &self,
        ctx: &mut DeviceCtx<'_>,
        state: &mut MboxState,
        pkt: PacketId,
        proxy_addr: Ipv4Addr,
        run: &mut TunnelRun,
        install_labels: bool,
    ) {
        let weight = ctx.pkt(pkt).weight();
        let now = ctx.now();
        // Apply our function, plus any consecutive functions we also
        // implement locally.
        let Some((pos, end)) = run.span else {
            state.counters.unmatched += weight;
            ctx.forward(pkt);
            return;
        };
        state.counters.applications += weight * (end - pos + 1) as u64;

        match run.next_fn {
            Some(next_fn) => {
                // Steer to the next middlebox. The pin recorded on this
                // box's flow entry wins, so a weight swap between epochs
                // never re-steers a live flow mid-chain (§III.B
                // stickiness). The run carries the pin its probe found at
                // this instant, or the one its first packet set.
                let next = match run.pinned {
                    Some(raw) => {
                        state.counters.steer_pinned += 1;
                        MiddleboxId(raw)
                    }
                    None => {
                        let commodity = self.config.commodity_of(ctx.pkt(pkt));
                        let Some(next) = self.config.select_for_commodity(
                            SteerPoint::Middlebox(self.id),
                            run.policy_id,
                            next_fn,
                            (end + 1) as u16,
                            run.key.key(),
                            commodity,
                        ) else {
                            state.counters.unenforceable += weight;
                            ctx.drop_pkt(pkt);
                            return;
                        };
                        state.flows.pin_next(run.key, next.0);
                        run.pinned = Some(next.0);
                        state.counters.steer_decisions += 1;
                        next
                    }
                };
                let next_addr = self.config.mbox_addr(next);
                // Install the label-table entry for later label switching.
                if install_labels {
                    if let Some(l) = ctx.pkt(pkt).label {
                        state.labels.insert(
                            LabelKey {
                                src: ctx.pkt(pkt).inner.src,
                                label: l,
                            },
                            state.flows.actions(run.class).clone(),
                            run.policy_id,
                            pos,
                            Some(next_addr),
                            None,
                            now,
                        );
                    }
                }
                if ctx.pkt_mut(pkt).encapsulate(proxy_addr, next_addr).is_err() {
                    // still tunneled after our decapsulation: over the bound
                    state.counters.unenforceable += weight;
                    ctx.drop_pkt(pkt);
                    return;
                }
                ctx.forward(pkt);
            }
            None => {
                // Last middlebox in the chain (§III.E): store the final
                // destination, notify the proxy, forward the original
                // packet towards its destination.
                if let Some(l) = ctx.pkt(pkt).label {
                    if install_labels {
                        state.labels.insert(
                            LabelKey {
                                src: ctx.pkt(pkt).inner.src,
                                label: l,
                            },
                            state.flows.actions(run.class).clone(),
                            run.policy_id,
                            pos,
                            None,
                            Some(ctx.pkt(pkt).inner.dst),
                            now,
                        );
                    }
                    if self.config.label_switching() {
                        let control = Packet::control(proxy_addr, *run.key.key());
                        let control = ctx.alloc(control);
                        ctx.forward(control);
                        ctx.forward(pkt);
                        return;
                    }
                }
                ctx.forward(pkt);
            }
        }
    }

    /// Handles a tunneled (IP-over-IP) packet addressed to this box.
    /// Consecutive packets of the same flow (and label) reuse the first
    /// packet's [`TunnelRun`] — the flow-table probe becomes a
    /// [`sdm_policy::FlowTable::record_run_hit`] and the label-table
    /// install is skipped (it would overwrite an identical entry).
    fn receive_tunneled(
        &self,
        ctx: &mut DeviceCtx<'_>,
        state: &mut MboxState,
        pkt: PacketId,
        run: &mut Option<TunnelRun>,
    ) {
        let proxy_addr = ctx.pkt(pkt).current_src(); // kept as outer src end-to-end (§III.E)
        ctx.pkt_mut(pkt).decapsulate();
        let (ft, weight, label) = {
            let p = ctx.pkt(pkt);
            (p.five_tuple(), p.weight(), p.label)
        };
        state.counters.tunneled_in += weight;
        let run_mate = matches!(run, Some(r) if *r.key.key() == ft && r.label == label);
        if run_mate {
            // A lookup here would be a guaranteed hit returning exactly
            // the run's view.
            state.flows.record_run_hit(weight);
        } else {
            *run = self.resolve_tunneled(state, ft, label, ctx.now(), weight);
        }
        let Some(r) = run else {
            // A tunneled packet should always match (the sender matched
            // it); tolerate and forward untouched. No flow-cache entry
            // was installed, so the next same-flow packet must re-probe
            // (and count a miss): the run stays empty.
            state.counters.unmatched += weight;
            ctx.forward(pkt);
            return;
        };
        self.apply_tunneled(ctx, state, pkt, proxy_addr, r, !run_mate);
    }

    /// Handles a source-routed packet: apply the function, pop the next
    /// segment, forward. No per-flow state is consulted or installed.
    fn handle_source_routed(&self, ctx: &mut DeviceCtx<'_>, state: &mut MboxState, pkt: PacketId) {
        let weight = ctx.pkt(pkt).weight();
        state.counters.source_routed_in += weight;
        state.counters.applications += weight;
        if ctx.advance_source_route(pkt) {
            ctx.forward(pkt);
        } else {
            // an exhausted route here would mean the proxy built a route
            // not ending in the destination; unreachable in practice
            // because a source route always ends in the destination.
            ctx.drop_pkt(pkt);
        }
    }

    /// Applies a resolved label-table entry — where it sends packets,
    /// `(next_hop, final_dst)` — to one labeled packet: function
    /// application counter, destination rewrite, forward.
    fn apply_labeled(
        &self,
        ctx: &mut DeviceCtx<'_>,
        state: &mut MboxState,
        pkt: PacketId,
        weight: u64,
        hop: (Option<Ipv4Addr>, Option<Ipv4Addr>),
    ) {
        state.counters.applications += weight;
        match hop {
            (Some(next), _) => {
                ctx.pkt_mut(pkt).inner.dst = next;
            }
            (None, Some(dst)) => {
                ctx.pkt_mut(pkt).inner.dst = dst;
            }
            (None, None) => {
                state.counters.label_misses += weight;
                ctx.drop_pkt(pkt);
                return;
            }
        }
        ctx.forward(pkt);
    }

    /// Handles a label-switched packet (not encapsulated, addressed to
    /// us). Consecutive packets with the same `⟨src, label⟩` key reuse the
    /// first packet's lookup result: a lookup by a run-mate would only
    /// re-refresh `last_seen` to the same instant, so skipping it is
    /// unobservable.
    fn receive_labeled(
        &self,
        ctx: &mut DeviceCtx<'_>,
        state: &mut MboxState,
        pkt: PacketId,
        run: &mut LabelRun,
    ) {
        let weight = ctx.pkt(pkt).weight();
        state.counters.label_switched_in += weight;
        let Some(label) = ctx.pkt(pkt).label else {
            // No table access: the current run stays valid.
            state.counters.label_misses += weight;
            ctx.drop_pkt(pkt); // addressed to us without label or tunnel
            return;
        };
        let key = LabelKey {
            src: ctx.pkt(pkt).inner.src,
            label,
        };
        if !matches!(run, Some((k, _)) if *k == key) {
            let hop = state
                .labels
                .lookup(key, ctx.now())
                .map(|e| (e.next_hop, e.final_dst));
            *run = Some((key, hop));
        }
        match run {
            Some((_, Some(hop))) => self.apply_labeled(ctx, state, pkt, weight, *hop),
            _ => {
                state.counters.label_misses += weight;
                ctx.drop_pkt(pkt);
            }
        }
    }
}

impl Device for MiddleboxDevice {
    /// One lock acquisition for the whole run, one flow/label-table probe
    /// per consecutive same-key stretch.
    ///
    /// How arrivals split into runs is unobservable: run-mates reuse a
    /// probe result their own probe is guaranteed to reproduce (see
    /// `receive_tunneled` / `receive_labeled`), and a packet of a
    /// different kind conservatively ends the current stretch — tunneled
    /// packets are the only writers of the label table, so a label
    /// stretch never survives one.
    fn receive(&mut self, ctx: &mut DeviceCtx<'_>, pkts: &[PacketId]) {
        let mut state = self.state.lock();
        let state = &mut *state;
        let mut tunnel_run: Option<TunnelRun> = None;
        let mut label_run: LabelRun = None;
        for &pkt in pkts {
            if state.failed {
                // A failure observed mid-run also ends every cached stretch:
                // if `failed` flips back before the run is exhausted
                // (control-driven restore), the remainder must re-probe
                // rather than resume a pre-failure decision.
                tunnel_run = None;
                label_run = None;
                state.counters.dropped_failed += ctx.pkt(pkt).weight();
                ctx.drop_pkt(pkt);
                continue;
            }
            if ctx.pkt(pkt).is_encapsulated() {
                label_run = None;
                self.receive_tunneled(ctx, state, pkt, &mut tunnel_run);
            } else if ctx.pkt(pkt).has_source_route() {
                tunnel_run = None;
                label_run = None;
                self.handle_source_routed(ctx, state, pkt);
            } else {
                tunnel_run = None;
                self.receive_labeled(ctx, state, pkt, &mut label_run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Middlebox behaviour is exercised end-to-end in the controller tests;
    //! here we cover position resolution in isolation.

    use super::*;
    use crate::deployment::{Deployment, MiddleboxSpec};
    use crate::steer::{Assignments, KConfig, Strategy};
    use sdm_util::sync::Mutex;
    use sdm_netsim::AddressPlan;
    use sdm_policy::NetworkFunction::*;
    use sdm_topology::campus::campus;

    fn device(functions: &[NetworkFunction]) -> MiddleboxDevice {
        let plan = campus(1);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        let routes = plan.topology().routing_tables();
        let assignments = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::uniform(1));
        let config = Arc::new(RuntimeConfig {
            strategy: Strategy::HotPotato,
            assignments,
            weights: crate::runtime::WeightsCell::new(None),
            mbox_addrs: vec![sdm_netsim::preassigned_device_addr(0)],
            addr_plan: AddressPlan::new(&plan),
            encoding: Default::default(),
            mbox_functions: dep.iter().map(|(_, s)| s.functions.clone()).collect(),
        });
        MiddleboxDevice::new(
            MiddleboxId(0),
            functions.iter().copied().collect(),
            LocalClassifier::new(Default::default(), Default::default()),
            config,
            Arc::new(Mutex::new(MboxState::new(1000, 1000, sdm_policy::DEFAULT_NEG_SETS))),
        )
    }

    #[test]
    fn my_span_finds_first_implemented() {
        let dev = device(&[Ids]);
        let chain = ActionList::chain([Firewall, Ids, WebProxy]);
        assert_eq!(dev.my_span(&chain), Some((1, 1)));
        let dev2 = device(&[TrafficMonitor]);
        assert_eq!(dev2.my_span(&chain), None);
    }

    #[test]
    fn multi_function_span_starts_earliest_and_covers_consecutive() {
        let dev = device(&[Ids, Firewall]);
        let chain = ActionList::chain([Firewall, Ids, WebProxy]);
        assert_eq!(dev.my_span(&chain), Some((0, 1)));
        // a later occurrence after a gap is not part of the span
        let gapped = ActionList::chain([Firewall, WebProxy, Ids]);
        assert_eq!(dev.my_span(&gapped), Some((0, 0)));
    }
}
