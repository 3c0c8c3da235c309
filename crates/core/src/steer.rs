//! Steering: candidate middlebox sets (`m_x^e`, `M_x^e`), the three
//! enforcement strategies, and flow-sticky next-hop selection (§III.B–C).

use std::fmt;

use sdm_util::FxHashMap;

use sdm_netsim::{FiveTuple, StubId};
use sdm_policy::{NetworkFunction, PolicyId};
use sdm_topology::RoutingTables;

use crate::deployment::{Deployment, MiddleboxId};

/// A place that makes steering decisions: a policy proxy or a middlebox —
/// the paper's "arbitrary proxy or middlebox x".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SteerPoint {
    /// The policy proxy of a stub network.
    Proxy(StubId),
    /// A middlebox.
    Middlebox(MiddleboxId),
    /// The ingress policy proxy at a gateway (dense index into the plan's
    /// gateway list); enforces policies on traffic entering from outside.
    Gateway(u32),
}

impl fmt::Display for SteerPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SteerPoint::Proxy(s) => write!(f, "proxy({s})"),
            SteerPoint::Middlebox(m) => write!(f, "mbox({m})"),
            SteerPoint::Gateway(g) => write!(f, "gw({g})"),
        }
    }
}

/// Per-function candidate-set sizes `k` (§III.C / §IV.A).
#[derive(Debug, Clone, PartialEq)]
pub struct KConfig {
    per_function: FxHashMap<NetworkFunction, usize>,
    default_k: usize,
}

impl KConfig {
    /// Uniform `k` for every function. `k = 1` reduces the load-balanced
    /// strategy to hot-potato.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn uniform(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        KConfig {
            per_function: FxHashMap::default(),
            default_k: k,
        }
    }

    /// The paper's evaluation setting: `k = 4` for FW and IDS, `k = 2` for
    /// WP and TM.
    pub fn paper_default() -> Self {
        let mut cfg = KConfig::uniform(1);
        cfg.set(NetworkFunction::Firewall, 4);
        cfg.set(NetworkFunction::Ids, 4);
        cfg.set(NetworkFunction::WebProxy, 2);
        cfg.set(NetworkFunction::TrafficMonitor, 2);
        cfg
    }

    /// Sets `k` for one function.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn set(&mut self, f: NetworkFunction, k: usize) {
        assert!(k >= 1, "k must be at least 1");
        self.per_function.insert(f, k);
    }

    /// The `k` in force for a function.
    pub fn k_for(&self, f: NetworkFunction) -> usize {
        self.per_function.get(&f).copied().unwrap_or(self.default_k)
    }
}

impl Default for KConfig {
    fn default() -> Self {
        KConfig::paper_default()
    }
}

/// The controller-computed candidate sets: for every steer point `x` and
/// function `e`, the `k` closest middleboxes offering `e` (`M_x^e`), sorted
/// closest-first so index 0 is the hot-potato target `m_x^e` (§III.B–C).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Assignments {
    proxy: Vec<FxHashMap<NetworkFunction, Vec<MiddleboxId>>>,
    mbox: Vec<FxHashMap<NetworkFunction, Vec<MiddleboxId>>>,
    gateway: Vec<FxHashMap<NetworkFunction, Vec<MiddleboxId>>>,
}

impl Assignments {
    /// Computes candidate sets for every proxy (one per stub) and every
    /// middlebox from routing distances.
    ///
    /// A middlebox that itself offers `e` is excluded from its own
    /// candidate set for `e` (it applies the function locally instead).
    pub fn compute(
        deployment: &Deployment,
        routes: &RoutingTables,
        edge_routers: &[sdm_topology::NodeId],
        k: &KConfig,
    ) -> Self {
        Self::compute_with_gateways(deployment, routes, edge_routers, &[], k)
    }

    /// Like [`Assignments::compute`], additionally building candidate sets
    /// for ingress proxies at the listed gateways.
    pub fn compute_with_gateways(
        deployment: &Deployment,
        routes: &RoutingTables,
        edge_routers: &[sdm_topology::NodeId],
        gateways: &[sdm_topology::NodeId],
        k: &KConfig,
    ) -> Self {
        let mut all = Assignments {
            proxy: vec![FxHashMap::default(); edge_routers.len()],
            mbox: vec![FxHashMap::default(); deployment.len()],
            gateway: vec![FxHashMap::default(); gateways.len()],
        };
        for e in deployment.functions() {
            all.fill_function(e, deployment, routes, edge_routers, gateways, k);
        }
        all
    }

    /// (Re)builds the candidate lists for function `e` at every steer
    /// point: the one loop a full build runs for every deployed function
    /// and a repair for the changed box's functions.
    fn fill_function(
        &mut self,
        e: NetworkFunction,
        deployment: &Deployment,
        routes: &RoutingTables,
        edge_routers: &[sdm_topology::NodeId],
        gateways: &[sdm_topology::NodeId],
        k: &KConfig,
    ) {
        let offer = deployment.offering(e);
        let closest = |from| k_closest_boxes(&offer, deployment, routes, from, k.k_for(e));
        for (per_fn, &edge) in self.proxy.iter_mut().zip(edge_routers) {
            per_fn.insert(e, closest(edge));
        }
        for (per_fn, &gw) in self.gateway.iter_mut().zip(gateways) {
            per_fn.insert(e, closest(gw));
        }
        for (per_fn, (_, spec)) in self.mbox.iter_mut().zip(deployment.iter()) {
            // A box that implements `e` applies it locally and gets no
            // list; any other box is not in `offer`, so none needs excluding.
            if !spec.implements(e) {
                per_fn.insert(e, closest(spec.router));
            }
        }
    }

    /// Incrementally repairs the candidate sets after middlebox `changed`
    /// failed or was restored (a box joining or dying): only the columns
    /// for the functions `changed` implements are recomputed — every
    /// other function's offering set is unaffected by the flip, so its
    /// lists are left untouched. Produces exactly what a full
    /// [`Assignments::compute_with_gateways`] over the same deployment
    /// state would (pinned by a property test).
    ///
    /// Cost: `O(points × |functions(changed)|)` list rebuilds instead of
    /// the full `O(points × |Π|)`.
    pub fn repair_for_middlebox(
        &mut self,
        changed: MiddleboxId,
        deployment: &Deployment,
        routes: &RoutingTables,
        edge_routers: &[sdm_topology::NodeId],
        gateways: &[sdm_topology::NodeId],
        k: &KConfig,
    ) {
        for &e in &deployment.spec(changed).functions {
            self.fill_function(e, deployment, routes, edge_routers, gateways, k);
        }
    }

    /// The candidate set `M_x^e`, closest first. Empty if no middlebox
    /// offers `e` reachable from `x`.
    pub fn candidates(&self, point: SteerPoint, e: NetworkFunction) -> &[MiddleboxId] {
        let map = match point {
            SteerPoint::Proxy(s) => self.proxy.get(s.index()),
            SteerPoint::Middlebox(m) => self.mbox.get(m.index()),
            SteerPoint::Gateway(g) => self.gateway.get(g as usize),
        };
        map.and_then(|m| m.get(&e)).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The hot-potato target `m_x^e` (the closest middlebox offering `e`).
    pub fn closest(&self, point: SteerPoint, e: NetworkFunction) -> Option<MiddleboxId> {
        self.candidates(point, e).first().copied()
    }
}

/// Sorts `offer` by routing distance from `from` (ties by id) and keeps
/// the first `k`.
fn k_closest_boxes(
    offer: &[MiddleboxId],
    deployment: &Deployment,
    routes: &RoutingTables,
    from: sdm_topology::NodeId,
    k: usize,
) -> Vec<MiddleboxId> {
    let mut with_dist: Vec<(u32, MiddleboxId)> = offer
        .iter()
        .filter_map(|&m| {
            routes
                .dist(from, deployment.spec(m).router)
                .map(|d| (d, m))
        })
        .collect();
    with_dist.sort_by_key(|&(d, id)| (d, id));
    with_dist.truncate(k);
    with_dist.into_iter().map(|(_, id)| id).collect()
}

/// Key identifying one steering decision: who decides (`point`), under
/// which policy, towards which position in the action list (`next_index`
/// = 0 means "towards the first function", i.e. a proxy decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeightKey {
    /// The deciding proxy or middlebox.
    pub point: SteerPoint,
    /// The governing policy.
    pub policy: PolicyId,
    /// Index of the *next* function in the policy's action list.
    pub next_index: u16,
}

/// A commodity qualifier for the full Eq. (1) formulation: the weights
/// `t_{s,d,p}(x, y)` additionally depend on the flow's source stub and
/// destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommodityKey {
    /// The base decision key.
    pub key: WeightKey,
    /// Source stub network of the flow.
    pub src: sdm_netsim::StubId,
    /// Destination of the flow.
    pub dst: crate::measure::DestKey,
}

/// The LP solution turned into forwarding state: per [`WeightKey`], the
/// split weights `t_{e,p}(x, y)` over the candidate middleboxes (§III.C).
///
/// When produced by the full Eq. (1) formulation, per-commodity weights
/// `t_{s,d,p}(x, y)` are additionally installed under [`CommodityKey`]s;
/// lookups fall back from fine to aggregate.
#[derive(Debug, Clone, Default)]
pub struct SteeringWeights {
    weights: FxHashMap<WeightKey, Vec<(MiddleboxId, f64)>>,
    fine: FxHashMap<CommodityKey, Vec<(MiddleboxId, f64)>>,
    lambda: f64,
}

impl SteeringWeights {
    /// Creates an empty weight table reporting load factor `lambda`.
    pub fn new(lambda: f64) -> Self {
        SteeringWeights {
            weights: FxHashMap::default(),
            fine: FxHashMap::default(),
            lambda,
        }
    }

    /// Installs per-commodity weights (Eq. 1 granularity).
    pub fn set_fine(&mut self, key: CommodityKey, weights: Vec<(MiddleboxId, f64)>) {
        self.fine.insert(key, weights);
    }

    /// Per-commodity weights for a key, if installed.
    pub fn get_fine(&self, key: &CommodityKey) -> Option<&[(MiddleboxId, f64)]> {
        self.fine.get(key).map(|v| v.as_slice())
    }

    /// Number of per-commodity entries.
    pub fn fine_len(&self) -> usize {
        self.fine.len()
    }

    /// The optimal maximum load factor λ the LP achieved.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Installs the weights for one key. Non-positive weights are kept (a
    /// zero-weight candidate is simply never selected).
    pub fn set(&mut self, key: WeightKey, weights: Vec<(MiddleboxId, f64)>) {
        self.weights.insert(key, weights);
    }

    /// The weights for one key, if the LP produced any.
    pub fn get(&self, key: &WeightKey) -> Option<&[(MiddleboxId, f64)]> {
        self.weights.get(key).map(|v| v.as_slice())
    }

    /// Number of keys with installed weights.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if no weights are installed.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Iterates over every aggregate column: `(key, weights)` pairs in
    /// arbitrary (but per-build deterministic) order. Consumers that need
    /// a stable order must sort; the plan verifier sorts its diagnostics.
    pub fn iter(&self) -> impl Iterator<Item = (&WeightKey, &[(MiddleboxId, f64)])> + '_ {
        self.weights.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Estimated bytes the controller must push to the data plane to
    /// install these weights: each aggregate entry costs one key (12 B)
    /// plus 12 B per `(middlebox, weight)` pair, each per-commodity entry
    /// an additional 8 B of commodity qualifier. This is the
    /// "communication overhead for the controller to send these values"
    /// that §III.C's reduced formulation exists to shrink.
    pub fn footprint_bytes(&self) -> u64 {
        const KEY: u64 = 12;
        const PAIR: u64 = 12;
        const COMMODITY: u64 = 8;
        let coarse: u64 = self
            .weights
            .values()
            .map(|v| KEY + PAIR * v.len() as u64)
            .sum();
        let fine: u64 = self
            .fine
            .values()
            .map(|v| KEY + COMMODITY + PAIR * v.len() as u64)
            .sum();
        coarse + fine
    }
}

/// How steering decisions are *encoded* on the wire, orthogonal to which
/// middlebox is selected ([`Strategy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteeringEncoding {
    /// Every packet is tunneled IP-over-IP hop by hop (§III.B). Grows each
    /// packet by one IP header, risking fragmentation.
    #[default]
    IpOverIp,
    /// §III.E: the first packet of a flow tunnels and installs label-table
    /// entries; after the label-ready control packet returns, packets are
    /// steered by destination rewriting plus an in-header label — no size
    /// increase, per-flow state at every middlebox on the path.
    LabelSwitching,
    /// Strict source routing (the segment-routing-style baseline discussed
    /// in §V): the proxy computes the whole middlebox chain up front and
    /// embeds it in the packet header. No per-flow state at middleboxes,
    /// but every pending segment costs header bytes — the overhead the
    /// paper's label-switching design avoids.
    SourceRouting,
}

/// The enforcement strategy in force (§IV.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Hot-potato: always the closest middlebox `m_x^e`.
    HotPotato,
    /// Random: a flow-sticky uniformly random member of `M_x^e`; `salt`
    /// decorrelates choices across steer points.
    Random {
        /// Hash salt mixed into the flow hash.
        salt: u64,
    },
    /// Load-balanced: flow-hash mapped into the LP split weights.
    LoadBalanced,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Picks the next middlebox for a flow among `candidates` (closest-first,
/// as produced by [`Assignments`]).
///
/// * Hot-potato ignores weights and picks the closest.
/// * Random hashes the flow with the salt for a sticky uniform choice.
/// * Load-balanced maps the flow's unit hash into the cumulative weight
///   vector (the probabilistic selection of §III.C); if no weights exist
///   for the key (e.g. no traffic was measured for the policy) it falls
///   back to hot-potato.
///
/// Returns `None` when `candidates` is empty.
pub fn select_next(
    strategy: Strategy,
    candidates: &[MiddleboxId],
    weights: Option<&[(MiddleboxId, f64)]>,
    flow: &FiveTuple,
) -> Option<MiddleboxId> {
    if candidates.is_empty() {
        return None;
    }
    match strategy {
        Strategy::HotPotato => Some(candidates[0]),
        Strategy::Random { salt } => {
            let u = (splitmix(flow.stable_hash() ^ salt) >> 11) as f64 / (1u64 << 53) as f64;
            let idx = ((u * candidates.len() as f64) as usize).min(candidates.len() - 1);
            Some(candidates[idx])
        }
        Strategy::LoadBalanced => {
            let Some(w) = weights else {
                return Some(candidates[0]);
            };
            let total: f64 = w.iter().map(|&(_, v)| v.max(0.0)).sum();
            if total <= f64::EPSILON {
                return Some(candidates[0]);
            }
            let r = flow.unit_hash() * total;
            let mut acc = 0.0;
            let mut last_positive = None;
            for &(m, v) in w {
                if v > 0.0 {
                    acc += v;
                    last_positive = Some(m);
                    if r < acc {
                        return Some(m);
                    }
                }
            }
            // Float accumulation can leave `acc` a hair below `total` while
            // `unit_hash` is arbitrarily close to 1.0, so the loop may fall
            // through. The fallback must be the last *positive*-weight
            // candidate: a zero-weight candidate is one the LP explicitly
            // routed no traffic to, and hash values on the bucket edge must
            // never select it. `total > 0` guarantees at least one.
            last_positive
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_netsim::Protocol;
    use sdm_policy::NetworkFunction::*;
    use sdm_topology::campus::campus;

    fn flow(sp: u16) -> FiveTuple {
        FiveTuple {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.1.0.1".parse().unwrap(),
            src_port: sp,
            dst_port: 80,
            proto: Protocol::Tcp,
        }
    }

    fn mid(i: u32) -> MiddleboxId {
        MiddleboxId(i)
    }

    #[test]
    fn repair_matches_full_recompute_across_fail_restore() {
        use crate::deployment::MiddleboxSpec;
        let plan = campus(3);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[5], 1.0));
        dep.add(MiddleboxSpec::new(Ids, plan.cores()[2], 1.0));
        dep.add(MiddleboxSpec::new(Ids, plan.cores()[7], 1.0));
        let mut multi = MiddleboxSpec::new(WebProxy, plan.cores()[9], 1.0);
        multi.functions.insert(TrafficMonitor);
        dep.add(multi);
        let routes = plan.topology().routing_tables();
        let k = KConfig::paper_default();
        let full = |dep: &Deployment| {
            Assignments::compute_with_gateways(
                dep,
                &routes,
                plan.edges(),
                plan.gateways(),
                &k,
            )
        };
        let mut repaired = full(&dep);
        // every box, failed then restored — including the multi-function
        // one and the sole survivors of a function
        for i in 0..dep.len() as u32 {
            dep.fail(mid(i));
            repaired.repair_for_middlebox(
                mid(i), &dep, &routes, plan.edges(), plan.gateways(), &k,
            );
            assert_eq!(repaired, full(&dep), "after failing {i}");
            dep.restore(mid(i));
            repaired.repair_for_middlebox(
                mid(i), &dep, &routes, plan.edges(), plan.gateways(), &k,
            );
            assert_eq!(repaired, full(&dep), "after restoring {i}");
        }
        // overlapping failures
        dep.fail(mid(0));
        repaired.repair_for_middlebox(mid(0), &dep, &routes, plan.edges(), plan.gateways(), &k);
        dep.fail(mid(2));
        repaired.repair_for_middlebox(mid(2), &dep, &routes, plan.edges(), plan.gateways(), &k);
        assert_eq!(repaired, full(&dep), "two concurrent failures");
    }

    #[test]
    fn k_config_defaults_match_paper() {
        let k = KConfig::paper_default();
        assert_eq!(k.k_for(Firewall), 4);
        assert_eq!(k.k_for(Ids), 4);
        assert_eq!(k.k_for(WebProxy), 2);
        assert_eq!(k.k_for(TrafficMonitor), 2);
        assert_eq!(k.k_for(Custom(9)), 1);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_rejected() {
        let _ = KConfig::uniform(0);
    }

    #[test]
    fn assignments_sizes_and_order() {
        let plan = campus(1);
        let dep = Deployment::evaluation_default(&plan, 2);
        let routes = plan.topology().routing_tables();
        let asg = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::paper_default());
        for s in 0..plan.edges().len() {
            let point = SteerPoint::Proxy(StubId(s as u32));
            let fw = asg.candidates(point, Firewall);
            assert_eq!(fw.len(), 4);
            // sorted closest-first
            let edge = plan.edges()[s];
            let d = |m: MiddleboxId| routes.dist(edge, dep.spec(m).router).unwrap();
            for w in fw.windows(2) {
                assert!(d(w[0]) <= d(w[1]));
            }
            assert_eq!(asg.closest(point, Firewall), Some(fw[0]));
            assert_eq!(asg.candidates(point, WebProxy).len(), 2);
        }
    }

    #[test]
    fn middlebox_excluded_from_own_function_set() {
        let plan = campus(1);
        let dep = Deployment::evaluation_default(&plan, 2);
        let routes = plan.topology().routing_tables();
        let asg = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::paper_default());
        for (id, spec) in dep.iter() {
            for &f in &spec.functions {
                // a box offering f has no candidate set for f
                assert!(asg.candidates(SteerPoint::Middlebox(id), f).is_empty());
            }
            // but has candidates for other functions
            let other = if spec.implements(Firewall) { Ids } else { Firewall };
            let c = asg.candidates(SteerPoint::Middlebox(id), other);
            assert!(!c.is_empty());
            assert!(!c.contains(&id));
        }
    }

    #[test]
    fn hot_potato_picks_closest() {
        let c = [mid(3), mid(1), mid(2)];
        assert_eq!(
            select_next(Strategy::HotPotato, &c, None, &flow(1)),
            Some(mid(3))
        );
        assert_eq!(select_next(Strategy::HotPotato, &[], None, &flow(1)), None);
    }

    #[test]
    fn random_is_flow_sticky_and_spreads() {
        let c = [mid(0), mid(1), mid(2), mid(3)];
        let s = Strategy::Random { salt: 7 };
        let first = select_next(s, &c, None, &flow(42)).unwrap();
        for _ in 0..10 {
            assert_eq!(select_next(s, &c, None, &flow(42)), Some(first));
        }
        // across many flows, all candidates are used
        let mut seen = std::collections::HashSet::new();
        for p in 0..200 {
            seen.insert(select_next(s, &c, None, &flow(p)).unwrap());
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn lb_respects_weights_proportionally() {
        let c = [mid(0), mid(1)];
        let w = vec![(mid(0), 3.0), (mid(1), 1.0)];
        let mut counts = [0u32; 2];
        for p in 0..4000 {
            let m = select_next(Strategy::LoadBalanced, &c, Some(&w), &flow(p)).unwrap();
            counts[m.index()] += 1;
        }
        let frac = counts[0] as f64 / 4000.0;
        assert!((0.70..0.80).contains(&frac), "frac={frac}");
    }

    #[test]
    fn lb_zero_weight_candidate_never_selected() {
        let c = [mid(0), mid(1)];
        let w = vec![(mid(0), 0.0), (mid(1), 5.0)];
        for p in 0..500 {
            assert_eq!(
                select_next(Strategy::LoadBalanced, &c, Some(&w), &flow(p)),
                Some(mid(1))
            );
        }
    }

    #[test]
    fn lb_falls_back_to_hot_potato() {
        let c = [mid(7), mid(8)];
        assert_eq!(
            select_next(Strategy::LoadBalanced, &c, None, &flow(1)),
            Some(mid(7))
        );
        let zero = vec![(mid(7), 0.0), (mid(8), 0.0)];
        assert_eq!(
            select_next(Strategy::LoadBalanced, &c, Some(&zero), &flow(1)),
            Some(mid(7))
        );
    }

    #[test]
    fn gateway_candidate_sets_computed() {
        let plan = campus(1);
        let dep = Deployment::evaluation_default(&plan, 2);
        let routes = plan.topology().routing_tables();
        let asg = Assignments::compute_with_gateways(
            &dep,
            &routes,
            plan.edges(),
            plan.gateways(),
            &KConfig::paper_default(),
        );
        for g in 0..plan.gateways().len() as u32 {
            let fw = asg.candidates(SteerPoint::Gateway(g), Firewall);
            assert_eq!(fw.len(), 4, "gateway {g} FW candidates");
            assert_eq!(asg.closest(SteerPoint::Gateway(g), Firewall), Some(fw[0]));
        }
        // plain compute has no gateway sets
        let bare = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::paper_default());
        assert!(bare.candidates(SteerPoint::Gateway(0), Firewall).is_empty());
    }

    #[test]
    fn footprint_counts_weights() {
        let mut w = SteeringWeights::new(1.0);
        assert_eq!(w.footprint_bytes(), 0);
        w.set(
            WeightKey {
                point: SteerPoint::Proxy(StubId(0)),
                policy: PolicyId(0),
                next_index: 0,
            },
            vec![(mid(0), 1.0), (mid(1), 2.0)],
        );
        // one key (12) + two pairs (24)
        assert_eq!(w.footprint_bytes(), 36);
    }

    #[test]
    fn weights_table_roundtrip() {
        let mut w = SteeringWeights::new(0.42);
        let key = WeightKey {
            point: SteerPoint::Proxy(StubId(1)),
            policy: PolicyId(2),
            next_index: 0,
        };
        assert!(w.get(&key).is_none());
        w.set(key, vec![(mid(0), 1.0)]);
        assert_eq!(w.get(&key).unwrap().len(), 1);
        assert_eq!(w.lambda(), 0.42);
        assert_eq!(w.len(), 1);
    }
}
