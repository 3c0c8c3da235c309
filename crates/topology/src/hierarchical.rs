//! A hierarchical backbone × Waxman composition for policy-state scaling
//! experiments: a regular distribution backbone (pairs of
//! distribution routers, each pair internally linked, meshed across pairs
//! and uplinked to every gateway — the textbook collapsed-core enterprise
//! design) whose edge slots are replaced by *pods* — small Waxman-style
//! random core meshes, each dual-homed to its distribution pair, fanning
//! out to many edge routers.
//!
//! The composition scales to tens of thousands of nodes (see
//! [`HierarchicalConfig::large`]) while keeping the backbone diameter
//! small, which is exactly the regime where per-device flow-table size —
//! not topology — dominates enforcement cost. The generator draws from its
//! own RNG stream ([`sdm_util::rng::StdRng`] seeded per call) and is fully
//! deterministic for a given `(config, seed)`; it shares no state with
//! [`crate::waxman`], so the paper-evaluation goldens are unaffected.

use sdm_util::rng::StdRng;

use crate::graph::{NodeKind, Topology};
use crate::plan::NetworkPlan;

/// Parameters of the hierarchical generator.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalConfig {
    /// Number of distribution *pairs* in the backbone (2 pairs = 4
    /// distribution routers).
    pub pairs: usize,
    /// Pods hanging off each distribution pair.
    pub pods_per_pair: usize,
    /// Waxman-meshed core routers inside each pod.
    pub routers_per_pod: usize,
    /// Edge routers attached (round-robin) to each pod router.
    pub edges_per_router: usize,
    /// Internet gateways, connected to every distribution router.
    pub gateways: usize,
    /// Waxman `alpha` for the intra-pod mesh (reference distance scale).
    pub alpha: f64,
    /// Waxman `beta` for the intra-pod mesh (base link probability).
    pub beta: f64,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        HierarchicalConfig {
            pairs: 3,
            pods_per_pair: 6,
            routers_per_pod: 8,
            edges_per_router: 12,
            gateways: 2,
            alpha: 0.4,
            beta: 0.9,
        }
    }
}

impl HierarchicalConfig {
    /// A preset that builds a network in the tens of thousands of nodes
    /// (≈21k with these parameters) — the fabric `sdm reach` checks.
    pub fn large() -> Self {
        HierarchicalConfig {
            pairs: 4,
            pods_per_pair: 16,
            routers_per_pod: 10,
            edges_per_router: 32,
            gateways: 2,
            alpha: 0.4,
            beta: 0.9,
        }
    }

    /// Total node count the configuration will produce.
    pub fn node_count(&self) -> usize {
        self.gateways
            + 2 * self.pairs
            + self.pairs
                * self.pods_per_pair
                * (self.routers_per_pod + self.routers_per_pod * self.edges_per_router)
    }
}

/// Generates a hierarchical backbone × Waxman network.
///
/// Backbone: `pairs` distribution pairs, each router linked to its pair
/// partner, to every router of the same polarity in other pairs and
/// (from each pair's `a` router) to the next pair's `b` router, and
/// uplinked to every gateway. Each pair then anchors
/// `pods_per_pair` pods: `routers_per_pod` core routers placed uniformly
/// at random in a 100×100 region and meshed with Waxman link
/// probabilities (components stitched by nearest pairs, as in
/// [`crate::waxman::waxman_with`]), with pod routers 0 and 1 each
/// dual-homed to both routers of the owning distribution pair. Every pod
/// router finally serves `edges_per_router` edge routers.
///
/// Deterministic for a given `(config, seed)`.
///
/// # Panics
///
/// Panics if `pairs`, `pods_per_pair` or `routers_per_pod` is zero, or if
/// `routers_per_pod < 2` (the dual-homing uplink needs two pod routers).
///
/// # Example
///
/// ```
/// use sdm_topology::hierarchical::{hierarchical, HierarchicalConfig};
/// let cfg = HierarchicalConfig::default();
/// let plan = hierarchical(&cfg, 1);
/// assert_eq!(plan.topology().node_count(), cfg.node_count());
/// assert!(plan.topology().is_connected());
/// ```
pub fn hierarchical(config: &HierarchicalConfig, seed: u64) -> NetworkPlan {
    assert!(config.pairs > 0, "need at least one distribution pair");
    assert!(config.pods_per_pair > 0, "need at least one pod per pair");
    assert!(
        config.routers_per_pod >= 2,
        "need at least two routers per pod for dual-homed uplinks"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new();

    // --- backbone: distribution pairs, polarity mesh, gateway uplinks ---
    let gateways: Vec<_> = (0..config.gateways)
        .map(|i| t.add_node(NodeKind::Gateway, format!("gw{i}")))
        .collect();
    let mut dist = Vec::with_capacity(config.pairs * 2);
    for p in 0..config.pairs {
        let a = t.add_node(NodeKind::CoreRouter, format!("dist{p}a"));
        let b = t.add_node(NodeKind::CoreRouter, format!("dist{p}b"));
        t.add_link(a, b, 1).expect("pair link");
        dist.push(a);
        dist.push(b);
    }
    for i in 0..dist.len() {
        for j in (i + 1)..dist.len() {
            let (pi, pj) = (i / 2, j / 2);
            if pi == pj {
                continue;
            }
            let same_polarity = (i % 2) == (j % 2);
            let adjacent_cross = (i % 2 == 0) && (j % 2 == 1) && pj == pi + 1;
            if same_polarity || adjacent_cross {
                t.add_link(dist[i], dist[j], 1).expect("mesh link");
            }
        }
    }
    for &d in &dist {
        for &g in &gateways {
            t.add_link(d, g, 1).expect("gateway uplink");
        }
    }

    // --- pods: Waxman mesh per pod, dual-homed to the owning pair --------
    let region = 100.0;
    let l_max = region * std::f64::consts::SQRT_2;
    let mut cores = dist.clone();
    let mut edges = Vec::new();
    for p in 0..config.pairs {
        for q in 0..config.pods_per_pair {
            let routers: Vec<_> = (0..config.routers_per_pod)
                .map(|r| t.add_node(NodeKind::CoreRouter, format!("pod{p}_{q}r{r}")))
                .collect();
            let coords: Vec<(f64, f64)> = (0..config.routers_per_pod)
                .map(|_| (rng.gen_range(0.0..region), rng.gen_range(0.0..region)))
                .collect();
            let dist2 = |i: usize, j: usize| -> f64 {
                let (xi, yi) = coords[i];
                let (xj, yj) = coords[j];
                ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()
            };
            let waxman_p =
                |i: usize, j: usize| -> f64 { config.beta * (-dist2(i, j) / (config.alpha * l_max)).exp() };

            // Each pod router draws up to 2 Waxman-weighted mesh links.
            for i in 0..routers.len() {
                let mut candidates: Vec<usize> = (0..routers.len())
                    .filter(|&j| j != i && !t.has_link(routers[i], routers[j]))
                    .collect();
                let local_degree = |t: &Topology, n| {
                    routers
                        .iter()
                        .filter(|&&m| m != n && t.has_link(n, m))
                        .count()
                };
                let mut need = 2usize.saturating_sub(local_degree(&t, routers[i]));
                while need > 0 && !candidates.is_empty() {
                    let total: f64 = candidates.iter().map(|&j| waxman_p(i, j)).sum();
                    let mut pick = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
                    let mut chosen = candidates.len() - 1;
                    for (ci, &j) in candidates.iter().enumerate() {
                        pick -= waxman_p(i, j);
                        if pick <= 0.0 {
                            chosen = ci;
                            break;
                        }
                    }
                    let j = candidates.swap_remove(chosen);
                    t.add_link(routers[i], routers[j], 1)
                        .expect("candidate list excludes existing links");
                    need -= 1;
                }
            }

            // Stitch mesh components with nearest cross-component pairs.
            loop {
                let comp = pod_components(&t, &routers);
                if comp.iter().all(|&c| c == comp[0]) {
                    break;
                }
                let mut best: Option<(f64, usize, usize)> = None;
                for i in 0..routers.len() {
                    for j in (i + 1)..routers.len() {
                        if comp[i] != comp[j] {
                            let d = dist2(i, j);
                            if best.is_none_or(|(bd, _, _)| d < bd) {
                                best = Some((d, i, j));
                            }
                        }
                    }
                }
                let (_, i, j) = best.expect("disconnected mesh has a cross-component pair");
                t.add_link(routers[i], routers[j], 1)
                    .expect("cross-component pair cannot already be linked");
            }

            // Dual-homed uplinks: border routers 0 and 1 each reach both
            // routers of the owning distribution pair.
            for &border in &routers[..2] {
                t.add_link(border, dist[2 * p], 1).expect("uplink a");
                t.add_link(border, dist[2 * p + 1], 1).expect("uplink b");
            }

            // Edge fan-out.
            for (ri, &r) in routers.iter().enumerate() {
                for k in 0..config.edges_per_router {
                    let e = t.add_node(NodeKind::EdgeRouter, format!("pod{p}_{q}e{ri}_{k}"));
                    t.add_link(e, r, 1).expect("fresh edge uplink");
                    edges.push(e);
                }
            }
            cores.extend_from_slice(&routers);
        }
    }

    debug_assert!(t.is_connected());
    NetworkPlan::new(t, gateways, cores, edges)
}

/// Component label per pod router (indices aligned with `routers`),
/// considering only intra-pod links.
fn pod_components(t: &Topology, routers: &[crate::NodeId]) -> Vec<usize> {
    let mut label = vec![usize::MAX; routers.len()];
    let index_of = |n: crate::NodeId| routers.iter().position(|&c| c == n);
    let mut next = 0;
    for start in 0..routers.len() {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = next;
        let mut stack = vec![routers[start]];
        while let Some(n) = stack.pop() {
            for (m, _) in t.neighbors(n) {
                if let Some(mi) = index_of(m) {
                    if label[mi] == usize::MAX {
                        label[mi] = next;
                        stack.push(routers[mi]);
                    }
                }
            }
        }
        next += 1;
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shape_and_counts() {
        let cfg = HierarchicalConfig::default();
        let plan = hierarchical(&cfg, 1);
        assert_eq!(plan.gateways().len(), 2);
        // distribution routers + pod routers
        assert_eq!(
            plan.cores().len(),
            2 * cfg.pairs + cfg.pairs * cfg.pods_per_pair * cfg.routers_per_pod
        );
        assert_eq!(
            plan.edges().len(),
            cfg.pairs * cfg.pods_per_pair * cfg.routers_per_pod * cfg.edges_per_router
        );
        assert_eq!(plan.topology().node_count(), cfg.node_count());
        assert!(plan.topology().is_connected());
        // every edge router has exactly one uplink
        for &e in plan.edges() {
            assert_eq!(plan.topology().degree(e), 1);
        }
    }

    #[test]
    fn large_preset_reaches_tens_of_thousands_of_nodes() {
        let cfg = HierarchicalConfig::large();
        assert!(cfg.node_count() >= 20_000, "large preset must scale");
        let plan = hierarchical(&cfg, 7);
        assert_eq!(plan.topology().node_count(), cfg.node_count());
        assert!(plan.topology().is_connected());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = HierarchicalConfig::default();
        let a = hierarchical(&cfg, 42);
        let b = hierarchical(&cfg, 42);
        assert_eq!(a.topology().node_count(), b.topology().node_count());
        assert_eq!(a.topology().link_count(), b.topology().link_count());
        for l in 0..a.topology().link_count() {
            let l = crate::LinkId::from_index(l);
            assert_eq!(a.topology().link(l), b.topology().link(l));
        }
    }

    #[test]
    fn different_seed_changes_pod_meshes() {
        let cfg = HierarchicalConfig::default();
        let a = hierarchical(&cfg, 1);
        let b = hierarchical(&cfg, 2);
        // node counts agree (structure is fixed) …
        assert_eq!(a.topology().node_count(), b.topology().node_count());
        // … but some intra-pod link differs
        let differs = (0..a.topology().link_count().min(b.topology().link_count()))
            .map(crate::LinkId::from_index)
            .any(|l| a.topology().link(l) != b.topology().link(l))
            || a.topology().link_count() != b.topology().link_count();
        assert!(differs, "seeds should perturb the Waxman meshes");
    }

    #[test]
    fn pods_survive_single_border_uplink_loss() {
        // With dual-homed borders, removing one uplink keeps the pod
        // reachable from the backbone.
        let cfg = HierarchicalConfig {
            pairs: 1,
            pods_per_pair: 2,
            routers_per_pod: 4,
            edges_per_router: 1,
            ..HierarchicalConfig::default()
        };
        let plan = hierarchical(&cfg, 3);
        let t = plan.topology();
        // find one border uplink: a link between a pod router and a
        // distribution router
        let dist_a = plan.cores()[0];
        let uplink = (0..t.link_count())
            .map(crate::LinkId::from_index)
            .find(|&l| {
                let (a, b, _) = t.link(l);
                (a == dist_a || b == dist_a)
                    && t.kind(a) == NodeKind::CoreRouter
                    && t.kind(b) == NodeKind::CoreRouter
                    && a != plan.cores()[1]
                    && b != plan.cores()[1]
            })
            .expect("border uplink exists");
        let rt = t.routing_tables_excluding(&[uplink]);
        for &e in plan.edges() {
            assert!(
                rt.dist(plan.gateways()[0], e).is_some(),
                "edge unreachable after single uplink loss"
            );
        }
    }

    #[test]
    #[should_panic(expected = "two routers per pod")]
    fn rejects_single_router_pods() {
        let cfg = HierarchicalConfig {
            routers_per_pod: 1,
            ..HierarchicalConfig::default()
        };
        let _ = hierarchical(&cfg, 0);
    }
}
