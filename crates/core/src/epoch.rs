//! The online re-steer control loop (§III.C): at every epoch boundary the
//! controller **measures** the traffic the proxies reported, **re-solves**
//! the load-balancing LP — re-entering the previous epoch's solved
//! bases via [`LbWarmCache`] — **verifies** the resulting plan
//! with the static `sdm-verify` checks, and only then **re-steers** by
//! swapping the new [`SteeringWeights`] into the running data plane.
//!
//! Two invariants the loop maintains:
//!
//! * **Flow stickiness.** Weight swaps only affect flows whose first
//!   packet arrives after the swap; live flows keep the next hop pinned
//!   in their flow-table entries (see `FlowEntry::pinned_next`), so
//!   mid-epoch packets never re-classify onto a different middlebox.
//! * **Determinism.** Flows are bucketed onto per-shard [`Enforcement`]s
//!   by [`shard_of`](crate::shard_of) and all cross-shard merges fold in
//!   shard-index order, so every epoch's measurements, LP solve and
//!   activation are byte-identical across `SDM_SHARDS` settings and drain
//!   limits.
//!
//! The per-shard simulations persist across epochs — that is what makes
//! stickiness meaningful: the flow tables survive the weight swap.

use crate::controller::{Controller, Enforcement, EnforcementOptions};
use crate::deployment::MiddleboxId;
use crate::lp_model::{LbError, LbOptions, LbWarmCache};
use crate::measure::TrafficMatrix;
use crate::shard::{bucket_flows, FlowSpec, ShardedRun};
use crate::steer::{SteeringWeights, Strategy};
use crate::verify::verify_enforcement;

/// Why an epoch could not be activated.
#[derive(Debug)]
pub enum EpochError {
    /// The LP re-solve failed (infeasible / unbounded / over budget).
    Lb(LbError),
    /// The re-solved plan failed the pre-activation `sdm-verify` checks;
    /// the previous epoch's weights stay in force.
    Rejected(sdm_verify::VerifyReport),
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpochError::Lb(e) => write!(f, "epoch re-solve failed: {e}"),
            EpochError::Rejected(r) => {
                write!(f, "epoch plan rejected by verifier: {} error(s)", r.errors().count())
            }
        }
    }
}

impl std::error::Error for EpochError {}

impl From<LbError> for EpochError {
    fn from(e: LbError) -> Self {
        EpochError::Lb(e)
    }
}

/// What one epoch produced, for logging and the golden re-steer scenario.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// 1-based epoch number.
    pub epoch: u32,
    /// Cells in this epoch's measured traffic matrix.
    pub cells: usize,
    /// Total measured volume this epoch.
    pub volume: f64,
    /// Optimal load factor λ of the re-solve (0 when no traffic).
    pub lambda: f64,
    /// Simplex pivots the re-solve spent (both passes).
    pub pivots: u64,
    /// Whether both solves re-entered the bases retained from the
    /// previous epoch.
    pub warm: bool,
    /// Whether new weights were activated (false for an empty epoch).
    pub activated: bool,
}

/// Control-plane telemetry accumulated across the epoch loop's lifetime:
/// plain counters (no atomics — the loop is single-threaded), exported
/// into an [`sdm_telemetry::Snapshot`] via [`EpochLoop::export_lp_into`].
///
/// All counts are functions of the merged (shard-invariant) traffic
/// matrix and the deterministic LP, so they are byte-identical across
/// `SDM_SHARDS` settings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LpTelemetry {
    /// LP re-solves that ran cold (no reusable retained state).
    pub solves_cold: u64,
    /// LP re-solves that re-entered the previous epoch's bases.
    pub solves_warm: u64,
    /// Simplex pivots across all solves (warm solves count their
    /// dual-repair pivots here).
    pub pivots: u64,
    /// Epoch plans rejected by the pre-activation verifier gate.
    pub rejections: u64,
    /// Epoch plans that activated (weights swapped into the data plane).
    pub activations: u64,
}

/// The controller-side epoch loop driving a set of persistent per-shard
/// [`Enforcement`]s. What the loop's data plane did is read off
/// [`EpochLoop::snapshot`] — the same [`ShardedRun`] record a single
/// `Enforcement` and a sharded run report.
///
/// ```
/// use sdm_core::*;
/// use sdm_policy::{ActionList, NetworkFunction, Policy, PolicySet, TrafficDescriptor};
/// use sdm_netsim::{FiveTuple, Protocol, StubId};
///
/// let plan = sdm_topology::campus::campus(1);
/// let deployment = Deployment::evaluation_default(&plan, 7);
/// let mut policies = PolicySet::new();
/// policies.push(Policy::new(
///     TrafficDescriptor::new().dst_port(80),
///     ActionList::chain([NetworkFunction::Firewall]),
/// ));
/// let controller = Controller::new(plan, deployment, policies, KConfig::paper_default());
/// let mut epochs = EpochLoop::new(&controller, 2, EnforcementOptions::default(),
///                                 LbOptions::default());
/// let flow = FiveTuple {
///     src: controller.addr_plan().host(StubId(0), 1),
///     dst: controller.addr_plan().host(StubId(5), 1),
///     src_port: 40000, dst_port: 80, proto: Protocol::Tcp,
/// };
/// let report = epochs
///     .run_epoch(&[FlowSpec { flow, packets: 500, payload: 512 }])
///     .unwrap();
/// assert!(report.activated);
/// assert_eq!(epochs.delivered(), 500);
/// ```
pub struct EpochLoop<'a> {
    controller: &'a Controller,
    options: EnforcementOptions,
    lb: LbOptions,
    shards: Vec<Enforcement>,
    cache: LbWarmCache,
    epoch: u32,
    lp_tel: LpTelemetry,
    /// Weights in force in the data plane right now (`None` until the
    /// first activation: the bootstrap hot-potato fallback).
    current_weights: Option<SteeringWeights>,
    /// Weights that were in force *before* the most recent activation —
    /// the state still-pinned flows were steered under. Hazard input for
    /// the reach tier's stale-pinned-flow (R005) check.
    prev_weights: Option<SteeringWeights>,
    /// Middleboxes currently failed in the shard data planes (sorted by
    /// index). Flows pinned before the failure still target them.
    failed: Vec<MiddleboxId>,
}

impl<'a> EpochLoop<'a> {
    /// Builds `shards` persistent load-balanced enforcement simulations.
    /// The first epoch starts weightless (hot-potato-equivalent fallback
    /// of [`Strategy::LoadBalanced`]) — exactly the paper's bootstrap:
    /// measurements exist only after traffic flowed.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(
        controller: &'a Controller,
        shards: usize,
        options: EnforcementOptions,
        lb: LbOptions,
    ) -> Self {
        assert!(shards > 0, "epoch loop needs at least one shard");
        let shards = (0..shards)
            .map(|_| controller.enforcement(Strategy::LoadBalanced, None, options))
            .collect();
        EpochLoop {
            controller,
            options,
            lb,
            shards,
            cache: LbWarmCache::new(),
            epoch: 0,
            lp_tel: LpTelemetry::default(),
            current_weights: None,
            prev_weights: None,
            failed: Vec::new(),
        }
    }

    /// Sets every shard's drain limit (see
    /// [`sdm_netsim::Simulator::set_batch_size`]; the equivalence tests
    /// compare limit 1 against the default).
    pub fn set_batch_size(&mut self, batch: usize) {
        for enf in &mut self.shards {
            enf.sim_mut().set_batch_size(batch);
        }
    }

    /// Runs one full epoch: inject `flows` (bucketed by
    /// [`shard_of`](crate::shard_of)),
    /// drive every shard to idle, drain and merge the epoch's traffic
    /// measurements, warm re-solve the LP, verify the plan, and swap the
    /// new weights into every shard.
    ///
    /// On error the data plane keeps the previous weights — a failed
    /// re-solve or a rejected plan never disturbs enforcement.
    ///
    /// # Errors
    ///
    /// [`EpochError::Lb`] if the LP re-solve fails; [`EpochError::Rejected`]
    /// if the solved plan fails the `sdm-verify` pre-activation checks.
    pub fn run_epoch(&mut self, flows: &[FlowSpec]) -> Result<EpochReport, EpochError> {
        self.epoch += 1;
        let buckets = bucket_flows(flows, self.shards.len());
        for (enf, bucket) in self.shards.iter_mut().zip(&buckets) {
            for spec in bucket {
                enf.inject_flow(spec.flow, spec.packets, spec.payload);
            }
            enf.run();
        }

        // Controller-side aggregation, folded in shard-index order so the
        // matrix (and hence the LP) is shard-count invariant.
        let mut traffic = TrafficMatrix::new();
        for enf in &self.shards {
            traffic.merge(&enf.take_measurements());
        }
        let mut report = EpochReport {
            epoch: self.epoch,
            cells: traffic.len(),
            volume: traffic.grand_total(),
            lambda: 0.0,
            pivots: 0,
            warm: false,
            activated: false,
        };
        if traffic.is_empty() {
            return Ok(report);
        }

        let (weights, lb) =
            self.controller
                .solve_load_balanced_with_cache(&traffic, self.lb, &mut self.cache)?;
        report.lambda = lb.lambda;
        report.pivots = lb.iterations;
        report.warm = lb.warm;
        if lb.warm {
            self.lp_tel.solves_warm += 1;
        } else {
            self.lp_tel.solves_cold += 1;
        }
        self.lp_tel.pivots += lb.iterations;

        // Pre-activation gate: re-run the static weight checks on every
        // epoch's plan; a rejected plan leaves the old weights in force.
        let verdict = verify_enforcement(self.controller, Some(&weights), &self.options);
        if verdict.has_errors() {
            self.lp_tel.rejections += 1;
            return Err(EpochError::Rejected(verdict));
        }

        for enf in &self.shards {
            enf.update_weights(Some(weights.clone()));
        }
        // Remember the pre-swap state: flows pinned before this
        // activation were steered under it, and the reach tier's hazard
        // pass needs it to find stale `pinned_next` windows.
        self.prev_weights = self.current_weights.take();
        self.current_weights = Some(weights);
        self.lp_tel.activations += 1;
        report.activated = true;
        Ok(report)
    }

    /// Crashes a middlebox in every shard's data plane (the §IV.C
    /// dependability scenario); pair with `Controller::fail_middlebox` on
    /// a mutable controller to also repair the candidate sets.
    pub fn fail_middlebox(&mut self, id: MiddleboxId) {
        for enf in &mut self.shards {
            enf.fail_middlebox(id);
        }
        if let Err(at) = self.failed.binary_search(&id) {
            self.failed.insert(at, id);
        }
    }

    /// Restores a crashed middlebox in every shard's data plane.
    pub fn restore_middlebox(&mut self, id: MiddleboxId) {
        for enf in &mut self.shards {
            enf.restore_middlebox(id);
        }
        if let Ok(at) = self.failed.binary_search(&id) {
            self.failed.remove(at);
        }
    }

    /// The hazard state the reach tier verifies on top of the converged
    /// plan: the pre-swap weights (the state still-pinned flows were
    /// steered under) and the currently-failed middlebox set.
    pub fn hazard_view(&self) -> sdm_verify::reach::HazardView {
        sdm_verify::reach::HazardView {
            prev_weights: self.prev_weights.as_ref().map(crate::verify::weights_view),
            failed_now: self.failed.iter().map(|m| m.0).collect(),
        }
    }

    /// Runs the reach (isolation) checker on `assertions` in the loop's
    /// *current* state — including the mid-epoch hazards
    /// ([`Self::hazard_view`]) the converged-plan checks cannot see: stale
    /// pinned flows across the last weight swap and middleboxes failed
    /// between epochs.
    pub fn verify_reach(
        &self,
        assertions: &[sdm_verify::reach::Assertion],
    ) -> sdm_verify::reach::ReachReport {
        let mut view = crate::reach::reach_view(
            self.controller,
            Strategy::LoadBalanced,
            self.current_weights.as_ref(),
            &self.options,
        );
        view.hazards = Some(self.hazard_view());
        sdm_verify::reach::check_assertions(&view, self.controller.routes(), assertions)
    }

    /// The loop's run record so far: its shards' records
    /// ([`Enforcement::snapshot`]) merged in shard-index order — the same
    /// type a single `Enforcement` and [`Controller::run_sharded`] report.
    /// Its `measurements` hold only what no epoch has drained yet.
    pub fn snapshot(&self) -> ShardedRun {
        ShardedRun::fold(self.shards.iter().map(Enforcement::snapshot))
    }

    /// Per-middlebox packet loads summed across shards.
    pub fn middlebox_loads(&self) -> Vec<u64> {
        self.snapshot().loads
    }

    /// Packets terminally delivered across all shards.
    pub fn delivered(&self) -> u64 {
        let stats = self.snapshot().stats;
        stats.delivered + stats.delivered_external
    }

    /// Packets dropped by crashed middleboxes across all shards.
    pub fn dropped_failed(&self) -> u64 {
        self.snapshot().mbox_counters.iter().map(|c| c.dropped_failed).sum()
    }

    /// The per-shard enforcement simulations (shard-index order).
    pub fn shards(&self) -> &[Enforcement] {
        &self.shards
    }

    /// Adds the control-plane counters to `snap` under the
    /// `sdm_lp_*` / `sdm_epoch_*` families.
    pub fn export_lp_into(&self, snap: &mut sdm_telemetry::Snapshot) {
        use sdm_telemetry::family;
        // LP_MODES = ["cold", "warm"]
        snap.add_labeled(family::LP_SOLVES, 0, self.lp_tel.solves_cold);
        snap.add_labeled(family::LP_SOLVES, 1, self.lp_tel.solves_warm);
        snap.add(family::LP_PIVOTS, self.lp_tel.pivots);
        snap.add(family::EPOCH_REJECTIONS, self.lp_tel.rejections);
        snap.add(family::EPOCH_ACTIVATIONS, self.lp_tel.activations);
    }

    /// The full telemetry snapshot of the loop: the `telemetry` of
    /// [`EpochLoop::snapshot`] plus the control-plane counters.
    pub fn telemetry_snapshot(&self) -> sdm_telemetry::Snapshot {
        let mut snap = self.snapshot().telemetry;
        self.export_lp_into(&mut snap);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{Deployment, MiddleboxSpec};
    use crate::steer::KConfig;
    use sdm_netsim::{FiveTuple, Protocol, StubId};
    use sdm_policy::{ActionList, NetworkFunction::*, Policy, PolicySet, TrafficDescriptor};

    fn controller() -> Controller {
        let plan = sdm_topology::campus::campus(1);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[4], 1.0));
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[9], 1.0));
        let mut policies = PolicySet::new();
        policies.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Firewall]),
        ));
        Controller::new(plan, dep, policies, KConfig::paper_default())
    }

    fn web_flow(c: &Controller, from: u32, to: u32, sp: u16) -> FiveTuple {
        FiveTuple {
            src: c.addr_plan().host(StubId(from), sp as u32),
            dst: c.addr_plan().host(StubId(to), 1),
            src_port: 40000 + sp,
            dst_port: 80,
            proto: Protocol::Tcp,
        }
    }

    fn specs(c: &Controller, salt: u16, count: u16) -> Vec<FlowSpec> {
        (0..count)
            .map(|i| FlowSpec {
                flow: web_flow(c, (i % 4) as u32, 4 + (i % 3) as u32, salt + i),
                packets: 100 + (i as u64 * 13) % 400,
                payload: 512,
            })
            .collect()
    }

    #[test]
    fn epochs_measure_solve_and_activate() {
        let c = controller();
        let mut ep = EpochLoop::new(&c, 2, EnforcementOptions::default(), LbOptions::default());
        let r1 = ep.run_epoch(&specs(&c, 1, 40)).unwrap();
        assert!(r1.activated);
        assert!(r1.lambda > 0.0);
        assert!(!r1.warm, "first epoch has no basis to reuse");
        // same flow population again: the support is unchanged, so the
        // second epoch warm-starts and needs (far) fewer pivots
        let r2 = ep.run_epoch(&specs(&c, 1, 40)).unwrap();
        assert!(r2.activated);
        assert!(r2.warm, "identical support must warm-start");
        assert!(
            r2.pivots < r1.pivots,
            "warm re-solve must spend fewer pivots ({} vs {})",
            r2.pivots,
            r1.pivots
        );
        assert_eq!(r2.epoch, 2);
        assert!(ep.delivered() > 0);
    }

    #[test]
    fn empty_epoch_is_a_noop() {
        let c = controller();
        let mut ep = EpochLoop::new(&c, 1, EnforcementOptions::default(), LbOptions::default());
        let r = ep.run_epoch(&[]).unwrap();
        assert!(!r.activated);
        assert_eq!(r.cells, 0);
        assert_eq!(r.pivots, 0);
    }

    #[test]
    fn perturbed_traffic_still_warm_starts() {
        let c = controller();
        let mut ep = EpochLoop::new(&c, 2, EnforcementOptions::default(), LbOptions::default());
        let base = specs(&c, 1, 30);
        ep.run_epoch(&base).unwrap();
        // same flows, different volumes: same support ⇒ same LP shape
        let perturbed: Vec<FlowSpec> = base
            .iter()
            .map(|s| FlowSpec {
                packets: s.packets + 50,
                ..*s
            })
            .collect();
        let r = ep.run_epoch(&perturbed).unwrap();
        assert!(r.warm);
        assert!(r.activated);
    }

    #[test]
    fn loop_failure_drops_then_restore_recovers() {
        let c = controller();
        let mut ep = EpochLoop::new(&c, 2, EnforcementOptions::default(), LbOptions::default());
        ep.run_epoch(&specs(&c, 1, 30)).unwrap();
        let victim = {
            let loads = ep.middlebox_loads();
            MiddleboxId(
                loads
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, l)| l)
                    .map(|(i, _)| i as u32)
                    .unwrap(),
            )
        };
        ep.fail_middlebox(victim);
        // fresh flows so selections are not pinned from epoch 1
        ep.run_epoch(&specs(&c, 1000, 30)).unwrap();
        assert!(ep.dropped_failed() > 0, "failed box must blackhole traffic");
        ep.restore_middlebox(victim);
        let before = ep.dropped_failed();
        ep.run_epoch(&specs(&c, 2000, 30)).unwrap();
        // note: some new flows may still hash onto the (weightless epoch-1
        // plan's) victim while it was down — but after restore nothing
        // more is dropped
        assert_eq!(ep.dropped_failed(), before, "restored box drops nothing");
    }
}
