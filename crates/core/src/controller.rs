//! The middlebox controller (§III.A–C): knows the topology, the middlebox
//! placement and the policies; computes assignments (`m_x^e`, `M_x^e`),
//! distributes per-node policy tables (`P_x`), aggregates traffic
//! measurements and solves the load-balancing LP; and wires up a complete
//! enforcement simulation.
//!
//! Unlike an SDN controller it is *not* on the data path: everything it
//! produces is pushed to the proxies and middleboxes ahead of traffic.

use std::sync::Arc;

use sdm_util::sync::Mutex;

use sdm_netsim::{
    preassigned_device_addr, AddressPlan, Attachment, FiveTuple, Packet, SimTime, Simulator,
    StubId,
};
use sdm_policy::{ClassifierKind, LocalClassifier, PolicySet, ProjectedPolicies};
use sdm_topology::{NetworkPlan, RoutingTables};

use crate::deployment::{Deployment, MiddleboxId};
use crate::lp_model::{
    build_full, build_reduced, build_reduced_with_cache, LbError, LbOptions, LbReport,
    LbWarmCache,
};
use crate::measure::TrafficMatrix;
use crate::middlebox::MiddleboxDevice;
use crate::proxy::ProxyDevice;
use crate::report::LoadReport;
use crate::runtime::{MboxState, ProxyState, RuntimeConfig, Shared, WeightsCell};
use crate::shard::{ShardedRun, StateFootprint};
use crate::steer::{Assignments, KConfig, SteerPoint, SteeringEncoding, SteeringWeights, Strategy};
use crate::telemetry::{KIND_INGRESS, KIND_MBOX, KIND_PROXY};

/// Options for building an enforcement simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnforcementOptions {
    /// How steering is encoded on the wire.
    pub encoding: SteeringEncoding,
    /// Soft-state lifetime of flow-cache entries (ticks).
    pub flow_ttl: u64,
    /// Soft-state lifetime of label-table entries (ticks).
    pub label_ttl: u64,
    /// Uniform link MTU for fragmentation accounting.
    pub mtu: u32,
    /// Lookup structure for the per-device policy tables (§III.D).
    pub classifier: ClassifierKind,
    /// Hot-path telemetry collection: `Some(b)` forces it on/off, `None`
    /// defers to the `SDM_TELEMETRY` environment variable
    /// ([`sdm_telemetry::env_enabled`]).
    pub telemetry: Option<bool>,
    /// Negative-cache sets per flow table (must be a power of two; the cap
    /// is `neg_cache_sets * `[`sdm_policy::NEG_WAYS`] markers). Bounds the
    /// memory a flow-table exhaustion attack can pin per device; the
    /// default ([`sdm_policy::DEFAULT_NEG_SETS`]) is far above legitimate
    /// negative-entry populations, so eviction engages only under attack.
    pub neg_cache_sets: usize,
}

impl Default for EnforcementOptions {
    fn default() -> Self {
        EnforcementOptions {
            encoding: SteeringEncoding::IpOverIp,
            flow_ttl: 1_000_000,
            label_ttl: 1_000_000,
            mtu: 1500,
            classifier: ClassifierKind::TupleSpace,
            telemetry: None,
            neg_cache_sets: sdm_policy::DEFAULT_NEG_SETS,
        }
    }
}

/// Size of the configuration a controller distributes (§V scalability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigFootprint {
    /// Devices the controller manages (proxies + middleboxes) — *not* the
    /// routers, which stay untouched.
    pub managed_devices: usize,
    /// Total policy-table entries installed across proxies.
    pub proxy_policy_entries: u64,
    /// Total policy-table entries installed across middleboxes.
    pub mbox_policy_entries: u64,
    /// Total candidate-set (`M_x^e`) entries installed.
    pub candidate_entries: u64,
    /// Estimated bytes of policy tables.
    pub policy_bytes: u64,
    /// Estimated bytes of candidate sets.
    pub candidate_bytes: u64,
    /// Estimated bytes of LP split weights (0 without load balancing).
    pub weight_bytes: u64,
}

impl ConfigFootprint {
    /// Total estimated bytes distributed.
    pub fn total_bytes(&self) -> u64 {
        self.policy_bytes + self.candidate_bytes + self.weight_bytes
    }
}

/// The central controller.
///
/// # Example
///
/// ```
/// use sdm_core::{Controller, Deployment, KConfig, Strategy, EnforcementOptions};
/// use sdm_policy::PolicySet;
///
/// let plan = sdm_topology::campus::campus(1);
/// let deployment = Deployment::evaluation_default(&plan, 7);
/// let controller = Controller::new(plan, deployment, PolicySet::new(), KConfig::paper_default());
/// let mut enf = controller.enforcement(Strategy::HotPotato, None,
///                                      EnforcementOptions::default());
/// enf.run();
/// assert_eq!(enf.middlebox_loads().iter().sum::<u64>(), 0); // no traffic yet
/// ```
pub struct Controller {
    plan: NetworkPlan,
    addr_plan: AddressPlan,
    routes: RoutingTables,
    deployment: Deployment,
    policies: PolicySet,
    k: KConfig,
    assignments: Assignments,
}

impl Controller {
    /// Creates the controller and converges its view of routing and
    /// assignments.
    ///
    /// # Panics
    ///
    /// Panics where [`Controller::try_new`] returns an error; the panic
    /// message is the full diagnostic report with `V0xx` error codes.
    pub fn new(
        plan: NetworkPlan,
        deployment: Deployment,
        policies: PolicySet,
        k: KConfig,
    ) -> Self {
        Self::try_new(plan, deployment, policies, k).unwrap_or_else(|report| panic!("{report}"))
    }

    /// [`Controller::new`] for operator-supplied input: hands the
    /// structural report back instead of panicking.
    ///
    /// # Errors
    ///
    /// The report of the static plan verifier
    /// ([`crate::verify_controller`]) when it finds a fatal
    /// misconfiguration: a policy chain that repeats a function (e.g.
    /// `FW → IDS → FW` — the data plane resolves a middlebox's chain
    /// position by its function, which is ambiguous under repetition), a
    /// function no available middlebox implements, a steer point with no
    /// candidate for a required function, a steering loop, an address
    /// collision, or a middlebox attached to a non-existent router.
    pub fn try_new(
        plan: NetworkPlan,
        deployment: Deployment,
        policies: PolicySet,
        k: KConfig,
    ) -> Result<Self, sdm_verify::VerifyReport> {
        let routes = plan.topology().routing_tables();
        let addr_plan = AddressPlan::new(&plan);
        let assignments = Assignments::compute_with_gateways(
            &deployment,
            &routes,
            plan.edges(),
            plan.gateways(),
            &k,
        );
        let controller = Controller {
            plan,
            addr_plan,
            routes,
            deployment,
            policies,
            k,
            assignments,
        };
        let report = crate::verify::verify_controller(&controller);
        if report.has_errors() {
            return Err(report);
        }
        Ok(controller)
    }

    /// The network plan under management.
    pub fn plan(&self) -> &NetworkPlan {
        &self.plan
    }

    /// The addressing plan.
    pub fn addr_plan(&self) -> &AddressPlan {
        &self.addr_plan
    }

    /// Converged routing tables.
    pub fn routes(&self) -> &RoutingTables {
        &self.routes
    }

    /// The middlebox deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The network-wide policy list.
    pub fn policies(&self) -> &PolicySet {
        &self.policies
    }

    /// The candidate-set configuration.
    pub fn k_config(&self) -> &KConfig {
        &self.k
    }

    /// The computed candidate sets `M_x^e`.
    pub fn assignments(&self) -> &Assignments {
        &self.assignments
    }

    /// Reacts to a middlebox failure: marks it failed in the deployment
    /// and recomputes all candidate sets so freshly built enforcement
    /// routes around it. Existing [`Enforcement`] instances are
    /// unaffected (their devices were configured before the failure); use
    /// [`Enforcement::fail_middlebox`] to crash a box inside a running
    /// simulation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fail_middlebox(&mut self, id: MiddleboxId) {
        self.deployment.fail(id);
        self.repair_assignments(id);
    }

    /// Clears a failure mark and recomputes candidate sets.
    pub fn restore_middlebox(&mut self, id: MiddleboxId) {
        self.deployment.restore(id);
        self.repair_assignments(id);
    }

    /// Incremental candidate-set repair after `changed` flipped its
    /// availability: rebuilds only the columns for the functions that box
    /// implements (see [`Assignments::repair_for_middlebox`]); equivalent
    /// to the full recompute but proportionally cheaper.
    fn repair_assignments(&mut self, changed: MiddleboxId) {
        self.assignments.repair_for_middlebox(
            changed,
            &self.deployment,
            &self.routes,
            self.plan.edges(),
            self.plan.gateways(),
            &self.k,
        );
    }

    /// The local policy table for a gateway ingress proxy: policies whose
    /// source space reaches outside the enterprise (traffic from inside is
    /// already enforced by its stub proxy).
    pub fn ingress_policies(&self) -> ProjectedPolicies {
        let enterprise = self.addr_plan.enterprise_prefix();
        let ids: Vec<_> = self
            .policies
            .iter()
            .filter(|(_, p)| !p.descriptor.src.is_subset_of(enterprise))
            .map(|(id, _)| id)
            .collect();
        self.policies.project(&ids)
    }

    /// Estimates the configuration the controller must distribute to the
    /// data plane — the scalability argument of §V ("only select network
    /// devices are connected to the controller"), quantified.
    pub fn config_footprint(&self, weights: Option<&SteeringWeights>) -> ConfigFootprint {
        // bytes per policy entry: descriptor (13 B packed) + chain
        const POLICY_BYTES: u64 = 16;
        // bytes per candidate-set entry: function tag + middlebox address
        const CANDIDATE_BYTES: u64 = 6;
        let functions = self.deployment.functions();
        let mut proxy_policy_entries = 0u64;
        let mut candidate_entries = 0u64;
        for stub in self.addr_plan.stubs() {
            proxy_policy_entries += self.proxy_policies(stub).len() as u64;
            for &f in &functions {
                candidate_entries += self
                    .assignments
                    .candidates(SteerPoint::Proxy(stub), f)
                    .len() as u64;
            }
        }
        let mut mbox_policy_entries = 0u64;
        for (id, _) in self.deployment.iter() {
            mbox_policy_entries += self.middlebox_policies(id).len() as u64;
            for &f in &functions {
                candidate_entries += self
                    .assignments
                    .candidates(SteerPoint::Middlebox(id), f)
                    .len() as u64;
            }
        }
        let weight_bytes = weights.map_or(0, |w| w.footprint_bytes());
        ConfigFootprint {
            managed_devices: self.addr_plan.stub_count()
                + self.deployment.len()
                + self.plan.gateways().len(),
            proxy_policy_entries,
            mbox_policy_entries,
            candidate_entries,
            policy_bytes: (proxy_policy_entries + mbox_policy_entries) * POLICY_BYTES,
            candidate_bytes: candidate_entries * CANDIDATE_BYTES,
            weight_bytes,
        }
    }

    /// The local policy table `P_x` for a proxy: policies whose descriptors
    /// can match traffic sourced from its subnet (§III.B).
    pub fn proxy_policies(&self, stub: StubId) -> ProjectedPolicies {
        let subnet = self.addr_plan.subnet(stub);
        let ids = self.policies.relevant_to_source(subnet);
        self.policies.project(&ids)
    }

    /// The local policy table `P_x` for a middlebox: policies whose action
    /// lists contain any function it performs (§III.B).
    pub fn middlebox_policies(&self, id: MiddleboxId) -> ProjectedPolicies {
        let functions: Vec<_> = self
            .deployment
            .spec(id)
            .functions
            .iter()
            .copied()
            .collect();
        let ids = self.policies.relevant_to_functions(&functions);
        self.policies.project(&ids)
    }

    /// Solves the reduced load-balancing LP (Eq. 2) on measured traffic.
    ///
    /// # Errors
    ///
    /// See [`LbError`].
    pub fn solve_load_balanced(
        &self,
        traffic: &TrafficMatrix,
        options: LbOptions,
    ) -> Result<(SteeringWeights, LbReport), LbError> {
        build_reduced(&self.deployment, &self.assignments, &self.policies, traffic, options)
    }

    /// Like [`Controller::solve_load_balanced`], but re-enters the solved
    /// tableaus `cache` retained from the previous epoch's solve when the
    /// traffic changed the program's right-hand sides only — the warm
    /// path of the online re-steer control loop. Falls back to a cold
    /// solve (and refreshes the cache) whenever the traffic support, the
    /// candidate sets or a capacity changed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Controller::solve_load_balanced`].
    pub fn solve_load_balanced_with_cache(
        &self,
        traffic: &TrafficMatrix,
        options: LbOptions,
        cache: &mut LbWarmCache,
    ) -> Result<(SteeringWeights, LbReport), LbError> {
        build_reduced_with_cache(
            &self.deployment,
            &self.assignments,
            &self.policies,
            traffic,
            options,
            Some(cache),
        )
    }

    /// Solves the full per-(s,d,p) LP (Eq. 1); for the formulation
    /// ablation.
    ///
    /// # Errors
    ///
    /// See [`LbError`].
    pub fn solve_load_balanced_full(
        &self,
        traffic: &TrafficMatrix,
        options: LbOptions,
    ) -> Result<(SteeringWeights, LbReport), LbError> {
        build_full(&self.deployment, &self.assignments, &self.policies, traffic, options)
    }

    /// Builds a ready-to-run enforcement simulation: one simulator with all
    /// middleboxes and one policy proxy per stub attached and configured.
    ///
    /// `weights` must be provided for [`Strategy::LoadBalanced`] (obtained
    /// from [`Controller::solve_load_balanced`]); it is ignored by the
    /// other strategies.
    pub fn enforcement(
        &self,
        strategy: Strategy,
        weights: Option<SteeringWeights>,
        options: EnforcementOptions,
    ) -> Enforcement {
        let mbox_addrs: Vec<_> = (0..self.deployment.len())
            .map(preassigned_device_addr)
            .collect();
        let tel = Arc::new(sdm_telemetry::ShardTelemetry::new(
            options.telemetry.unwrap_or_else(sdm_telemetry::env_enabled),
        ));
        let config = Arc::new(RuntimeConfig {
            strategy,
            assignments: self.assignments.clone(),
            weights: WeightsCell::new(weights),
            mbox_addrs,
            addr_plan: self.addr_plan.clone(),
            encoding: options.encoding,
            mbox_functions: self
                .deployment
                .iter()
                .map(|(_, spec)| spec.functions.clone())
                .collect(),
            tel: Arc::clone(&tel),
        });

        let mut sim = Simulator::new(&self.plan);
        sim.set_mtu(options.mtu);
        sim.set_telemetry(Arc::clone(&tel));
        let measurements = Arc::new(Mutex::new(TrafficMatrix::new()));

        // Middleboxes first so their device ids (and addresses) are dense
        // from zero, matching `preassigned_device_addr`.
        let mut mbox_devices = Vec::with_capacity(self.deployment.len());
        let mut mbox_states = Vec::with_capacity(self.deployment.len());
        for (id, spec) in self.deployment.iter() {
            let state: Shared<MboxState> = Arc::new(Mutex::new(MboxState::new(
                options.flow_ttl,
                options.label_ttl,
                options.neg_cache_sets,
            )));
            let device = MiddleboxDevice::new(
                id,
                spec.functions.clone(),
                LocalClassifier::new(self.middlebox_policies(id), options.classifier),
                Arc::clone(&config),
                Arc::clone(&state),
            );
            let (dev, addr) = sim.attach(spec.router, spec.attachment(), Box::new(device));
            debug_assert_eq!(addr, config.mbox_addr(id));
            mbox_devices.push(dev);
            mbox_states.push(state);
        }

        // One proxy per stub network (§III.A). In-path attachment: the
        // proxy sits between the stub and its edge router.
        let mut proxy_states = Vec::with_capacity(self.plan.edges().len());
        for stub in self.addr_plan.stubs() {
            let state: Shared<ProxyState> =
                Arc::new(Mutex::new(ProxyState::new(options.flow_ttl, options.neg_cache_sets)));
            let device = ProxyDevice::new(
                SteerPoint::Proxy(stub),
                LocalClassifier::new(self.proxy_policies(stub), options.classifier),
                Arc::clone(&config),
                Arc::clone(&state),
                Arc::clone(&measurements),
            );
            let (dev, _) = sim.attach(
                self.addr_plan.edge_router(stub),
                Attachment::InPath,
                Box::new(device),
            );
            sim.set_stub_handler(stub, dev);
            proxy_states.push(state);
        }

        // Gateway ingress proxies (Figure 2's proxy-y wiring): enforce
        // policies on traffic entering from outside.
        let mut ingress_states = Vec::with_capacity(self.plan.gateways().len());
        for (gi, &gw) in self.plan.gateways().iter().enumerate() {
            let state: Shared<ProxyState> =
                Arc::new(Mutex::new(ProxyState::new(options.flow_ttl, options.neg_cache_sets)));
            let device = ProxyDevice::new(
                SteerPoint::Gateway(gi as u32),
                LocalClassifier::new(self.ingress_policies(), options.classifier),
                Arc::clone(&config),
                Arc::clone(&state),
                Arc::clone(&measurements),
            );
            let (dev, _) = sim.attach(gw, Attachment::InPath, Box::new(device));
            sim.set_ingress_handler(gw, dev);
            ingress_states.push(state);
        }

        Enforcement {
            sim,
            mbox_devices,
            mbox_states,
            proxy_states,
            ingress_states,
            measurements,
            config,
            tel,
            deployment_len: self.deployment.len(),
            events: 0,
        }
    }
}

/// A wired-up enforcement simulation: inject traffic, run, read loads.
pub struct Enforcement {
    sim: Simulator,
    mbox_devices: Vec<sdm_netsim::DeviceId>,
    mbox_states: Vec<Shared<MboxState>>,
    proxy_states: Vec<Shared<ProxyState>>,
    ingress_states: Vec<Shared<ProxyState>>,
    measurements: Arc<Mutex<TrafficMatrix>>,
    config: Arc<RuntimeConfig>,
    tel: Arc<sdm_telemetry::ShardTelemetry>,
    deployment_len: usize,
    /// Events processed by every [`Enforcement::run`] so far.
    events: u64,
}

impl Enforcement {
    /// The underlying simulator (read access for statistics).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable access to the simulator (e.g. to change the MTU).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The runtime configuration in force.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Number of gateway ingress proxies attached.
    pub fn ingress_count(&self) -> usize {
        self.ingress_states.len()
    }

    /// The run record of this enforcement so far — the same [`ShardedRun`]
    /// a sharded run folds its shards into, with `shards` = 1. This is the
    /// only walk over every device state in the library: per-device
    /// counters and soft-state footprint, the simulator's statistics, the
    /// proxies' traffic measurements, and the telemetry snapshot built from
    /// those numbers.
    pub fn snapshot(&self) -> ShardedRun {
        let mut footprint = StateFootprint::default();
        // Flow-table sweep passes per device kind: telemetry-only, so not
        // a footprint field.
        let mut sweeps = [0u64; sdm_telemetry::DEVICE_KINDS.len()];

        let mut proxy_counters = Vec::with_capacity(self.proxy_states.len());
        for state in &self.proxy_states {
            let st = state.lock();
            proxy_counters.push(st.counters);
            footprint.proxy_flow_entries.push(st.flows.len() as u64);
            footprint.proxy_flow_stats.push(st.flows.stats());
            footprint.proxy_neg_evictions.push(st.flows.negative_evictions());
            sweeps[KIND_PROXY] += st.flows.sweeps();
        }

        let mut ingress_counters = Vec::with_capacity(self.ingress_states.len());
        for state in &self.ingress_states {
            let st = state.lock();
            ingress_counters.push(st.counters);
            footprint.ingress_flow_entries.push(st.flows.len() as u64);
            footprint.ingress_flow_stats.push(st.flows.stats());
            footprint.ingress_neg_evictions.push(st.flows.negative_evictions());
            sweeps[KIND_INGRESS] += st.flows.sweeps();
        }

        let mut mbox_counters = Vec::with_capacity(self.mbox_states.len());
        for state in &self.mbox_states {
            let st = state.lock();
            mbox_counters.push(st.counters);
            footprint.mbox_flow_entries.push(st.flows.len() as u64);
            footprint.mbox_label_entries.push(st.labels.len() as u64);
            footprint.mbox_flow_stats.push(st.flows.stats());
            footprint.mbox_neg_evictions.push(st.flows.negative_evictions());
            sweeps[KIND_MBOX] += st.flows.sweeps();
        }

        let mut run = ShardedRun {
            shards: 1,
            events: self.events,
            stats: self.sim.stats().clone(),
            loads: self.middlebox_loads(),
            measurements: self.measurements(),
            proxy_counters,
            ingress_counters,
            mbox_counters,
            footprint,
            telemetry: sdm_telemetry::Snapshot::new(),
        };
        crate::telemetry::scrape(&mut run, sweeps, self.sim.trace_dropped(), &self.tel);
        run
    }

    /// The deterministic metrics [`sdm_telemetry::Snapshot`] of this
    /// enforcement: the `telemetry` field of [`Enforcement::snapshot`].
    pub fn telemetry_snapshot(&self) -> sdm_telemetry::Snapshot {
        self.snapshot().telemetry
    }

    /// Injects one flow as a single aggregate event of `packets` identical
    /// packets (the exact fast path for load experiments). A count beyond
    /// one aggregate's `u32` weight — trace files may carry one — is split
    /// into full aggregates ([`Packet::aggregates`]); every counter adds
    /// `weight`, so the split is invisible in the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the flow's source address is not inside any stub subnet.
    #[expect(
        clippy::expect_used,
        reason = "a flow outside every stub is a caller bug, documented under # Panics"
    )]
    pub fn inject_flow(&mut self, flow: FiveTuple, packets: u64, payload: u32) {
        let stub = self
            .config
            .addr_plan
            .stub_of(flow.src)
            .expect("flow source must lie in a stub subnet");
        for pkt in Packet::aggregates(flow, payload, packets) {
            self.sim.inject_from_stub(stub, pkt);
        }
    }

    /// Injects one flow as `packets` individual packets starting at
    /// `start`, one every `gap` ticks (packet-level mode; lets control
    /// round trips complete between packets).
    ///
    /// # Panics
    ///
    /// Panics if the flow's source address is not inside any stub subnet.
    #[expect(
        clippy::expect_used,
        reason = "a flow outside every stub is a caller bug, documented under # Panics"
    )]
    pub fn inject_flow_packets(
        &mut self,
        flow: FiveTuple,
        packets: u64,
        payload: u32,
        start: SimTime,
        gap: u64,
    ) {
        let stub = self
            .config
            .addr_plan
            .stub_of(flow.src)
            .expect("flow source must lie in a stub subnet");
        self.sim
            .inject_stream_from_stub(stub, flow, payload, packets, start, gap);
    }

    /// Runs the simulation to completion and settles every soft-state
    /// table at its last tick ([`sdm_policy::FlowTable::settle`]), so the
    /// record counts exactly the entries alive then; returns events
    /// processed.
    pub fn run(&mut self) -> u64 {
        let events = self.sim.run_until_idle();
        self.events += events;
        self.settle(self.sim.now());
        events
    }

    /// Reclaims every flow-cache and label-table entry stale at `now`
    /// (one full pass per table, free while nothing can be stale), so the
    /// footprint counts exactly the entries alive at `now`, whatever
    /// order the inserts ran in.
    pub(crate) fn settle(&self, now: SimTime) {
        for state in self.proxy_states.iter().chain(&self.ingress_states) {
            state.lock().flows.settle(now);
        }
        for state in &self.mbox_states {
            let mut st = state.lock();
            st.flows.settle(now);
            st.labels.settle(now);
        }
    }

    /// Per-middlebox packet loads (indexed by [`MiddleboxId`]) — the
    /// quantity of Figures 4–5.
    pub fn middlebox_loads(&self) -> Vec<u64> {
        self.mbox_devices
            .iter()
            .map(|d| self.sim.stats().device_received[d.index()])
            .collect()
    }

    /// Per-type load summary (Table III).
    pub fn load_report(&self, deployment: &Deployment) -> LoadReport {
        assert_eq!(deployment.len(), self.deployment_len, "deployment mismatch");
        LoadReport::from_loads(deployment, &self.middlebox_loads())
    }

    /// Snapshot of the traffic measurements the proxies collected.
    pub fn measurements(&self) -> TrafficMatrix {
        self.measurements.lock().clone()
    }

    /// Drains the accumulated traffic measurements, leaving an empty
    /// matrix behind. The epoch control loop calls this at each epoch
    /// boundary so every re-solve sees exactly one epoch's traffic.
    pub fn take_measurements(&self) -> TrafficMatrix {
        std::mem::take(&mut *self.measurements.lock())
    }

    /// Swaps a new weight table into the shared runtime config (§III.C
    /// re-steering). Takes effect for *new* flows on their next
    /// flow-cache miss; live flows stay sticky to their cached decision.
    pub fn update_weights(&self, weights: Option<SteeringWeights>) {
        self.config.weights.swap(weights);
    }

    /// Handle to one proxy's mutable state (flow cache, counters).
    pub fn proxy_state(&self, stub: StubId) -> Shared<ProxyState> {
        Arc::clone(&self.proxy_states[stub.index()])
    }

    /// Handle to one gateway ingress proxy's state (index into the plan's
    /// gateway list).
    pub fn ingress_state(&self, gateway: usize) -> Shared<ProxyState> {
        Arc::clone(&self.ingress_states[gateway])
    }

    /// Handle to one middlebox's mutable state (tables, counters).
    pub fn mbox_state(&self, id: MiddleboxId) -> Shared<MboxState> {
        Arc::clone(&self.mbox_states[id.index()])
    }

    /// Gives every middlebox the same finite processing rate (see
    /// [`sdm_netsim::Simulator::set_device_service_time`]); packets then
    /// queue in front of overloaded boxes, turning load imbalance into
    /// observable delay.
    pub fn set_middlebox_service_time(&mut self, ticks_per_packet: u64) {
        for i in 0..self.mbox_devices.len() {
            let dev = self.mbox_devices[i];
            self.sim.set_device_service_time(dev, ticks_per_packet);
        }
    }

    /// Crashes a middlebox inside this running simulation: from now on it
    /// blackholes everything it receives. Pair with
    /// [`Controller::fail_middlebox`] + a fresh enforcement to model the
    /// controller's recovery.
    pub fn fail_middlebox(&mut self, id: MiddleboxId) {
        self.mbox_states[id.index()].lock().failed = true;
    }

    /// Restores a crashed middlebox inside this running simulation.
    pub fn restore_middlebox(&mut self, id: MiddleboxId) {
        self.mbox_states[id.index()].lock().failed = false;
    }

    /// Device id of a middlebox inside the simulator.
    pub fn mbox_device(&self, id: MiddleboxId) -> sdm_netsim::DeviceId {
        self.mbox_devices[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::MiddleboxSpec;
    use crate::measure::DestKey;
    use sdm_netsim::Protocol;
    use sdm_policy::{ActionList, NetworkFunction::*, Policy, PolicyId, TrafficDescriptor};
    use sdm_topology::campus::campus;

    fn world(label_switching: bool) -> (Controller, EnforcementOptions) {
        let plan = campus(1);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[8], 1.0));
        dep.add(MiddleboxSpec::new(Ids, plan.cores()[4], 1.0));
        let mut policies = PolicySet::new();
        // web traffic: FW -> IDS
        policies.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Firewall, Ids]),
        ));
        let controller = Controller::new(plan, dep, policies, KConfig::uniform(2));
        let options = EnforcementOptions {
            encoding: if label_switching {
                SteeringEncoding::LabelSwitching
            } else {
                SteeringEncoding::IpOverIp
            },
            ..Default::default()
        };
        (controller, options)
    }

    fn web_flow(c: &Controller, from: u32, to: u32, sp: u16) -> FiveTuple {
        FiveTuple {
            src: c.addr_plan().host(StubId(from), 0),
            dst: c.addr_plan().host(StubId(to), 0),
            src_port: sp,
            dst_port: 80,
            proto: Protocol::Tcp,
        }
    }

    #[test]
    fn hot_potato_chain_end_to_end() {
        let (c, opts) = world(false);
        let mut enf = c.enforcement(Strategy::HotPotato, None, opts);
        let ft = web_flow(&c, 0, 5, 1000);
        enf.inject_flow(ft, 100, 500);
        enf.run();
        // delivered to stub 5
        assert_eq!(enf.sim().stats().delivered, 100);
        let loads = enf.middlebox_loads();
        // exactly one FW and the IDS processed the flow
        assert_eq!(loads[2], 100, "IDS load");
        assert_eq!(loads[0] + loads[1], 100, "one FW");
        assert!(loads[0] == 0 || loads[1] == 0);
        // measurements recorded
        let tm = enf.measurements();
        assert_eq!(tm.volume(StubId(0), DestKey::Stub(StubId(5)), PolicyId(0)), 100.0);
    }

    #[test]
    fn non_matching_traffic_bypasses_middleboxes() {
        let (c, opts) = world(false);
        let mut enf = c.enforcement(Strategy::HotPotato, None, opts);
        let mut ft = web_flow(&c, 0, 5, 1000);
        ft.dst_port = 22; // no policy
        enf.inject_flow(ft, 50, 500);
        enf.run();
        assert_eq!(enf.sim().stats().delivered, 50);
        assert_eq!(enf.middlebox_loads().iter().sum::<u64>(), 0);
        // negative caching: second flow packet batch hits the cache
        // (counters are weighted: the first aggregate of 50 packets counts
        // as 50 misses)
        let st = enf.proxy_state(StubId(0));
        assert_eq!(st.lock().flows.stats().misses, 50);
        enf.inject_flow(ft, 50, 500);
        enf.run();
        assert_eq!(st.lock().flows.stats().hits, 50);
    }

    #[test]
    fn random_strategy_spreads_over_candidates() {
        let (c, opts) = world(false);
        let mut enf = c.enforcement(Strategy::Random { salt: 42 }, None, opts);
        for sp in 0..200 {
            enf.inject_flow(web_flow(&c, 0, 5, 1000 + sp), 1, 100);
        }
        enf.run();
        let loads = enf.middlebox_loads();
        assert!(loads[0] > 20, "fw0 unused: {loads:?}");
        assert!(loads[1] > 20, "fw1 unused: {loads:?}");
        assert_eq!(loads[0] + loads[1], 200);
    }

    #[test]
    fn load_balanced_follows_lp_weights() {
        let (c, opts) = world(false);
        // measurement pass under hot-potato
        let mut measure = c.enforcement(Strategy::HotPotato, None, opts);
        for sp in 0..400u16 {
            measure.inject_flow(web_flow(&c, (sp % 4) as u32, 5, 1000 + sp), 10, 100);
        }
        measure.run();
        let tm = measure.measurements();
        assert_eq!(tm.total(PolicyId(0)), 4000.0);
        let (weights, report) = c.solve_load_balanced(&tm, LbOptions::default()).unwrap();
        // two equal FWs: each should carry 2000; IDS carries 4000
        assert!((report.lambda - 4000.0).abs() < 1e-6);
        let mut enf = c.enforcement(Strategy::LoadBalanced, Some(weights), opts);
        for sp in 0..400u16 {
            enf.inject_flow(web_flow(&c, (sp % 4) as u32, 5, 1000 + sp), 10, 100);
        }
        enf.run();
        let loads = enf.middlebox_loads();
        // hash-based splitting approximates the 50/50 optimum
        let frac = loads[0] as f64 / 4000.0;
        assert!((0.40..0.60).contains(&frac), "loads={loads:?}");
        assert_eq!(loads[2], 4000);
    }

    #[test]
    fn label_switching_equivalent_delivery_less_encapsulation() {
        let (c, opts_tunnel) = world(false);
        let (c2, opts_label) = world(true);

        // same flow pattern under both modes, packet-level
        let mut tun = c.enforcement(Strategy::HotPotato, None, opts_tunnel);
        let ft = web_flow(&c, 0, 5, 2000);
        tun.inject_flow_packets(ft, 50, 500, SimTime(0), 100);
        tun.run();

        let mut lab = c2.enforcement(Strategy::HotPotato, None, opts_label);
        let ft2 = web_flow(&c2, 0, 5, 2000);
        lab.inject_flow_packets(ft2, 50, 500, SimTime(0), 100);
        lab.run();

        // identical delivery and identical middlebox loads
        assert_eq!(tun.sim().stats().delivered, 50);
        assert_eq!(lab.sim().stats().delivered, 50);
        assert_eq!(tun.middlebox_loads(), lab.middlebox_loads());
        // label switching drastically reduces encapsulated hops
        assert!(
            lab.sim().stats().encapsulated_hops < tun.sim().stats().encapsulated_hops,
            "label {} vs tunnel {}",
            lab.sim().stats().encapsulated_hops,
            tun.sim().stats().encapsulated_hops
        );
        // the proxy flagged the flow and label-switched later packets
        let st = lab.proxy_state(StubId(0));
        let counters = st.lock().counters;
        assert!(counters.control_received >= 1);
        assert!(counters.label_switched > 0);
    }

    #[test]
    fn config_footprint_scales_with_managed_devices_only() {
        let (c, _) = world(false);
        let fp = c.config_footprint(None);
        // 3 middleboxes + 10 proxies + 2 gateway ingress proxies, never
        // the routers themselves
        assert_eq!(fp.managed_devices, 15);
        assert!(fp.proxy_policy_entries > 0);
        assert!(fp.candidate_entries > 0);
        assert_eq!(fp.weight_bytes, 0);
        assert!(fp.total_bytes() > 0);
        // with LP weights the footprint grows by exactly their bytes
        let mut measure = c.enforcement(Strategy::HotPotato, None, Default::default());
        measure.inject_flow(web_flow(&c, 0, 5, 1000), 100, 100);
        measure.run();
        let (w, _) = c
            .solve_load_balanced(&measure.measurements(), LbOptions::default())
            .unwrap();
        let fp2 = c.config_footprint(Some(&w));
        assert_eq!(fp2.total_bytes(), fp.total_bytes() + w.footprint_bytes());
    }

    #[test]
    fn inbound_traffic_is_delivered_via_proxy() {
        let (c, opts) = world(false);
        let mut enf = c.enforcement(Strategy::HotPotato, None, opts);
        let ft = web_flow(&c, 3, 7, 1234);
        enf.inject_flow(ft, 10, 100);
        enf.run();
        assert_eq!(enf.sim().stats().delivered, 10);
        let dst_proxy = enf.proxy_state(StubId(7));
        assert_eq!(dst_proxy.lock().counters.inbound, 10);
    }

    /// A flow entering at a gateway is one fresh steering decision at the
    /// proxy hop and one pin replay per later packet, like a stub flow —
    /// whatever the drain limit.
    #[test]
    fn gateway_ingress_decisions_are_counted() {
        use sdm_telemetry::{family, Hop};
        let (c, opts) = world(false);
        let gw = c.plan().gateways()[0];
        let ft = FiveTuple {
            src: "93.184.216.34".parse().unwrap(),
            ..web_flow(&c, 0, 3, 443)
        };
        for batch in [1, 256] {
            let opts = EnforcementOptions {
                telemetry: Some(true),
                ..opts
            };
            let mut enf = c.enforcement(Strategy::HotPotato, None, opts);
            enf.sim_mut().set_batch_size(batch);
            for burst in [1, 5] {
                for _ in 0..burst {
                    enf.sim_mut().inject_at_router(gw, sdm_netsim::Packet::data(ft, 100));
                }
                enf.run();
            }
            assert_eq!(enf.sim().stats().delivered, 6);
            let snap = enf.telemetry_snapshot();
            let proxy = Hop::Proxy as usize;
            assert_eq!(snap.value(family::STEER_DECISIONS, proxy), 1, "limit {batch}");
            assert_eq!(snap.value(family::STEER_PINNED, proxy), 5, "limit {batch}");
        }
    }

    /// Five packets of one fresh flow arriving in one tick: each hop makes
    /// one fresh steering decision and replays its pin for the other four,
    /// whether the packets reach it one per run or as one run.
    #[test]
    fn stub_flow_pin_replays_are_drain_limit_invariant() {
        use sdm_telemetry::{family, Hop};
        let (c, opts) = world(false);
        let ft = web_flow(&c, 0, 5, 3000);
        for batch in [1, 3, 256] {
            let opts = EnforcementOptions {
                telemetry: Some(true),
                ..opts
            };
            let mut enf = c.enforcement(Strategy::HotPotato, None, opts);
            enf.sim_mut().set_batch_size(batch);
            for _ in 0..5 {
                enf.sim_mut().inject_from_stub(StubId(0), sdm_netsim::Packet::data(ft, 100));
            }
            enf.run();
            assert_eq!(enf.sim().stats().delivered, 5);
            let snap = enf.telemetry_snapshot();
            for hop in [Hop::Proxy, Hop::Middlebox] {
                let h = hop as usize;
                assert_eq!(snap.value(family::STEER_DECISIONS, h), 1, "{hop:?}, limit {batch}");
                assert_eq!(snap.value(family::STEER_PINNED, h), 4, "{hop:?}, limit {batch}");
            }
        }
    }

    /// A middlebox on a router the topology does not have is a V015
    /// report, not an index panic in the routing lookups before it.
    #[test]
    fn middlebox_on_missing_router_is_v015() {
        let plan = campus(1);
        let ghost = sdm_topology::NodeId::from_index(plan.topology().node_count() + 5);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        dep.add(MiddleboxSpec::new(Ids, ghost, 1.0));
        let mut policies = PolicySet::new();
        policies.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Firewall, Ids]),
        ));
        let Err(report) = Controller::try_new(plan, dep, policies, KConfig::uniform(2)) else {
            panic!("a dangling attachment must be refused");
        };
        assert!(report.to_string().contains("V015"), "{report}");
    }

    #[test]
    #[should_panic(expected = "stub subnet")]
    fn foreign_source_rejected() {
        let (c, opts) = world(false);
        let mut enf = c.enforcement(Strategy::HotPotato, None, opts);
        let ft = FiveTuple {
            src: "8.8.8.8".parse().unwrap(),
            dst: c.addr_plan().host(StubId(0), 0),
            src_port: 1,
            dst_port: 80,
            proto: Protocol::Tcp,
        };
        enf.inject_flow(ft, 1, 100);
    }
}
