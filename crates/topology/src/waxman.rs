//! The Waxman random topology used in the paper's evaluation (§IV.A):
//! 25 core routers placed uniformly at random in a 100-by-100 region and
//! interconnected with probability exponentially decreasing in distance
//! (Waxman's model, JSAC 1988), each with 4 core-to-core links; 400 edge
//! routers spread equally across cores.

use sdm_util::rng::StdRng;

use crate::graph::{NodeKind, Topology};
use crate::plan::NetworkPlan;

/// Parameters of the Waxman generator.
///
/// Defaults reproduce the paper's setting: 25 cores, 400 edges, region
/// 100×100, 4 core links per core.
#[derive(Debug, Clone, PartialEq)]
pub struct WaxmanConfig {
    /// Number of core routers.
    pub cores: usize,
    /// Number of edge routers, spread equally across cores.
    pub edges: usize,
    /// Side length of the square placement region.
    pub region: f64,
    /// Target number of core-to-core links per core router.
    pub links_per_core: usize,
    /// Waxman `alpha` parameter: scales the reference distance `alpha * L`
    /// where `L` is the maximal possible distance.
    pub alpha: f64,
    /// Waxman `beta` parameter: base connection probability.
    pub beta: f64,
}

impl Default for WaxmanConfig {
    fn default() -> Self {
        WaxmanConfig {
            cores: 25,
            edges: 400,
            region: 100.0,
            links_per_core: 4,
            alpha: 0.4,
            beta: 0.9,
        }
    }
}

/// Generates a Waxman-model topology with the paper's default parameters.
///
/// Equivalent to `waxman_with(&WaxmanConfig::default(), seed)`.
///
/// # Example
///
/// ```
/// let plan = sdm_topology::waxman::waxman(1);
/// assert_eq!(plan.cores().len(), 25);
/// assert_eq!(plan.edges().len(), 400);
/// assert!(plan.topology().is_connected());
/// ```
pub fn waxman(seed: u64) -> NetworkPlan {
    waxman_with(&WaxmanConfig::default(), seed)
}

/// Generates a Waxman-model topology with explicit parameters.
///
/// Core routers receive random coordinates in the region; each core draws
/// links to `links_per_core` peers sampled with probability proportional to
/// `beta * exp(-d / (alpha * L))`. If the core graph ends up disconnected,
/// the nearest pair of routers across components is linked (this preserves
/// the distance-sensitive character of the model). Edge routers are then
/// attached round-robin so that every core serves `edges / cores` of them
/// (the paper: "each of which is connected to an equal number of edge
/// routers").
///
/// # Panics
///
/// Panics if `cores == 0` or `edges % cores != 0`.
pub fn waxman_with(config: &WaxmanConfig, seed: u64) -> NetworkPlan {
    assert!(config.cores > 0, "need at least one core router");
    assert!(
        config.edges.is_multiple_of(config.cores),
        "edge routers must divide equally across cores (got {} edges, {} cores)",
        config.edges,
        config.cores
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new();

    let cores: Vec<_> = (0..config.cores)
        .map(|i| t.add_node(NodeKind::CoreRouter, format!("core{i}")))
        .collect();
    let coords: Vec<(f64, f64)> = (0..config.cores)
        .map(|_| {
            (
                rng.gen_range(0.0..config.region),
                rng.gen_range(0.0..config.region),
            )
        })
        .collect();
    let l_max = config.region * std::f64::consts::SQRT_2;

    let dist = |i: usize, j: usize| -> f64 {
        let (xi, yi) = coords[i];
        let (xj, yj) = coords[j];
        ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()
    };
    let waxman_p = |i: usize, j: usize| -> f64 {
        config.beta * (-dist(i, j) / (config.alpha * l_max)).exp()
    };

    // Each core picks `links_per_core` neighbors, sampled without
    // replacement with Waxman weights.
    for i in 0..config.cores {
        let mut candidates: Vec<usize> = (0..config.cores)
            .filter(|&j| j != i && !t.has_link(cores[i], cores[j]))
            .collect();
        let mut need = config.links_per_core.saturating_sub(t.degree(cores[i]));
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
            t.add_link(cores[i], cores[j], 1)
                .expect("candidate list excludes existing links");
            need -= 1;
        }
    }

    // Stitch components together with nearest cross-component pairs, if any.
    loop {
        let comp = components(&t, &cores);
        if comp.iter().all(|&c| c == comp[0]) {
            break;
        }
        let mut best: Option<(f64, usize, usize)> = None;
        for i in 0..config.cores {
            for j in (i + 1)..config.cores {
                if comp[i] != comp[j] {
                    let d = dist(i, j);
                    if best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, i, j));
                    }
                }
            }
        }
        let (_, i, j) = best.expect("disconnected graph has a cross-component pair");
        t.add_link(cores[i], cores[j], 1)
            .expect("cross-component pair cannot already be linked");
    }

    // Attach edge routers: exactly edges/cores per core.
    let per_core = config.edges / config.cores;
    let mut edges = Vec::with_capacity(config.edges);
    for (ci, &c) in cores.iter().enumerate() {
        for k in 0..per_core {
            let e = t.add_node(NodeKind::EdgeRouter, format!("edge{}_{}", ci, k));
            t.add_link(e, c, 1).expect("fresh edge uplink");
            edges.push(e);
        }
    }

    debug_assert!(t.is_connected());
    NetworkPlan::new(t, Vec::new(), cores, edges)
}

/// Component label per core (indices aligned with `cores`).
fn components(t: &Topology, cores: &[crate::NodeId]) -> Vec<usize> {
    let mut label = vec![usize::MAX; cores.len()];
    let index_of = |n: crate::NodeId| cores.iter().position(|&c| c == n);
    let mut next = 0;
    for start in 0..cores.len() {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = next;
        let mut stack = vec![cores[start]];
        while let Some(n) = stack.pop() {
            for (m, _) in t.neighbors(n) {
                if let Some(mi) = index_of(m) {
                    if label[mi] == usize::MAX {
                        label[mi] = next;
                        stack.push(cores[mi]);
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
    fn default_matches_paper_counts() {
        let plan = waxman(7);
        assert_eq!(plan.cores().len(), 25);
        assert_eq!(plan.edges().len(), 400);
        assert!(plan.gateways().is_empty());
    }

    #[test]
    fn edges_spread_equally() {
        let plan = waxman(2);
        // each core serves exactly 400/25 = 16 edge routers
        for &c in plan.cores() {
            let edge_neighbors = plan
                .topology()
                .neighbors(c)
                .filter(|&(n, _)| plan.topology().kind(n) == crate::NodeKind::EdgeRouter)
                .count();
            assert_eq!(edge_neighbors, 16);
        }
        for &e in plan.edges() {
            assert_eq!(plan.topology().degree(e), 1);
        }
    }

    #[test]
    fn cores_have_at_least_target_degree() {
        let plan = waxman(3);
        for &c in plan.cores() {
            let core_links = plan
                .topology()
                .neighbors(c)
                .filter(|&(n, _)| plan.topology().kind(n) == crate::NodeKind::CoreRouter)
                .count();
            assert!(core_links >= 4, "core {c} has only {core_links} core links");
        }
    }

    #[test]
    fn connected_and_deterministic() {
        let a = waxman(11);
        assert!(a.topology().is_connected());
        let b = waxman(11);
        assert_eq!(a.topology().link_count(), b.topology().link_count());
    }

    #[test]
    fn small_config_is_valid() {
        let cfg = WaxmanConfig {
            cores: 5,
            edges: 10,
            ..WaxmanConfig::default()
        };
        let plan = waxman_with(&cfg, 0);
        assert_eq!(plan.cores().len(), 5);
        assert_eq!(plan.edges().len(), 10);
        assert!(plan.topology().is_connected());
    }

    #[test]
    #[should_panic(expected = "divide equally")]
    fn rejects_uneven_edges() {
        let cfg = WaxmanConfig {
            cores: 3,
            edges: 10,
            ..WaxmanConfig::default()
        };
        let _ = waxman_with(&cfg, 0);
    }
}
