//! Property-based tests for the topology substrate: shortest-path routing
//! invariants on random connected graphs, and generator invariants.

use sdm_netsim::Simulator;
use sdm_topology::waxman::{waxman_with, WaxmanConfig};
use sdm_topology::{LinkId, NetworkPlan, NodeId, NodeKind, Topology};
use sdm_util::prop::{check, Config};
use sdm_util::rng::StdRng;
use sdm_util::{prop_assert, prop_assert_eq};

/// Deterministically expands `(n, seed)` into a random connected graph:
/// a random spanning tree plus extra links. Rebuilt inside each property,
/// so the harness shrinks the node count and seed.
fn connected_graph(n: usize, seed: u64) -> Topology {
    let n = n.max(2);
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 33) as usize
    };
    let mut t = Topology::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| t.add_node(NodeKind::CoreRouter, format!("n{i}")))
        .collect();
    // spanning tree
    for i in 1..n {
        let parent = next() % i;
        let cost = 1 + (next() % 10) as u32;
        t.add_link(ids[i], ids[parent], cost).unwrap();
    }
    // extra links
    let extra = next() % (n * 2);
    for _ in 0..extra {
        let a = ids[next() % n];
        let b = ids[next() % n];
        if a != b && !t.has_link(a, b) {
            let cost = 1 + (next() % 10) as u32;
            t.add_link(a, b, cost).unwrap();
        }
    }
    t
}

fn arb_graph_input(rng: &mut StdRng) -> (usize, u64) {
    (rng.gen_range(2usize..24), rng.next_u64())
}

/// Shortest-path distances are symmetric on an undirected graph.
#[test]
fn distances_symmetric() {
    check(
        "distances_symmetric",
        &Config::with_cases(64),
        arb_graph_input,
        |&(n, seed)| {
            let t = connected_graph(n, seed);
            let rt = t.routing_tables();
            for a in t.nodes() {
                for b in t.nodes() {
                    prop_assert_eq!(rt.dist(a, b), rt.dist(b, a));
                }
            }
            Ok(())
        },
    );
}

/// Distances obey the triangle inequality.
#[test]
fn triangle_inequality() {
    check(
        "triangle_inequality",
        &Config::with_cases(64),
        arb_graph_input,
        |&(n, seed)| {
            let t = connected_graph(n, seed);
            let rt = t.routing_tables();
            let nodes: Vec<_> = t.nodes().collect();
            for &a in &nodes {
                for &b in &nodes {
                    for &c in &nodes {
                        let (ab, bc, ac) = (
                            rt.dist(a, b).unwrap(),
                            rt.dist(b, c).unwrap(),
                            rt.dist(a, c).unwrap(),
                        );
                        prop_assert!(ac <= ab + bc);
                    }
                }
            }
            Ok(())
        },
    );
}

/// Reconstructed paths are loop-free, start/end correctly, follow real
/// links, and their link costs sum to the reported distance.
#[test]
fn paths_are_valid() {
    check(
        "paths_are_valid",
        &Config::with_cases(64),
        arb_graph_input,
        |&(n, seed)| {
            let t = connected_graph(n, seed);
            let rt = t.routing_tables();
            let nodes: Vec<_> = t.nodes().collect();
            for &a in &nodes {
                for &b in &nodes {
                    let p = rt.path(a, b).unwrap();
                    prop_assert_eq!(*p.nodes().first().unwrap(), a);
                    prop_assert_eq!(*p.nodes().last().unwrap(), b);
                    let mut seen = std::collections::BTreeSet::new();
                    for &n in p.nodes() {
                        prop_assert!(seen.insert(n), "loop in path");
                    }
                    let mut cost = 0u32;
                    for w in p.nodes().windows(2) {
                        let link_cost = t
                            .neighbors(w[0])
                            .find(|&(m, _)| m == w[1])
                            .map(|(_, c)| c);
                        prop_assert!(link_cost.is_some(), "path uses non-existent link");
                        cost += link_cost.unwrap();
                    }
                    prop_assert_eq!(cost, p.cost());
                    prop_assert_eq!(Some(p.cost()), rt.dist(a, b));
                }
            }
            Ok(())
        },
    );
}

/// Greedy next-hop forwarding strictly decreases the distance to the
/// destination — i.e. hop-by-hop forwarding cannot loop.
#[test]
fn next_hop_decreases_distance() {
    check(
        "next_hop_decreases_distance",
        &Config::with_cases(64),
        arb_graph_input,
        |&(n, seed)| {
            let t = connected_graph(n, seed);
            let rt = t.routing_tables();
            let nodes: Vec<_> = t.nodes().collect();
            for &a in &nodes {
                for &b in &nodes {
                    if a == b {
                        continue;
                    }
                    let nh = rt.next_hop(a, b).unwrap();
                    prop_assert!(rt.dist(nh, b).unwrap() < rt.dist(a, b).unwrap());
                }
            }
            Ok(())
        },
    );
}

/// The one tie-break rule and the failure path, against brute force. A
/// random sequence of `fail_link` / `restore_link` on a `Simulator` leaves
/// a failure set `F`; then, for every destination row of
/// `routing_tables_excluding(F)`:
///
/// * distances equal Floyd–Warshall over the surviving links;
/// * `v`'s next hop is the smallest-id neighbor `u` with
///   `d(u) + c(u, v) = d(v)`, over a surviving link that joins `v` and `u`;
///
/// and the simulator routes exactly like that fresh table.
#[test]
fn rows_match_brute_force_under_link_failures() {
    check(
        "rows_match_brute_force_under_link_failures",
        &Config::with_cases(128),
        |rng: &mut StdRng| (rng.gen_range(2usize..24), rng.next_u64(), rng.next_u64()),
        |&(n, seed, fail_seed)| {
            let t = connected_graph(n, seed);
            let nodes: Vec<NodeId> = t.nodes().collect();
            let plan = NetworkPlan::new(t.clone(), vec![], nodes.clone(), vec![]);
            let mut sim = Simulator::new(&plan);
            let mut rng = StdRng::seed_from_u64(fail_seed);
            let mut failed = vec![false; t.link_count()];
            for _ in 0..rng.gen_range(0usize..12) {
                let l = rng.gen_range(0..t.link_count());
                failed[l] = rng.gen_range(0u32..3) != 0;
                if failed[l] {
                    sim.fail_link(LinkId::from_index(l));
                } else {
                    sim.restore_link(LinkId::from_index(l));
                }
            }
            let excluded: Vec<LinkId> = (0..t.link_count())
                .filter(|&l| failed[l])
                .map(LinkId::from_index)
                .collect();
            let rt = t.routing_tables_excluding(&excluded);

            const INF: u64 = u64::MAX / 4;
            let n = nodes.len();
            let mut d = vec![INF; n * n];
            let mut cost = vec![None; n * n];
            for i in 0..n {
                d[i * n + i] = 0;
            }
            for l in (0..t.link_count()).filter(|&l| !failed[l]).map(LinkId::from_index) {
                let (a, b, c) = t.link(l);
                let (a, b) = (a.index(), b.index());
                d[a * n + b] = c as u64;
                d[b * n + a] = c as u64;
                cost[a * n + b] = Some((c as u64, l));
                cost[b * n + a] = Some((c as u64, l));
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        d[i * n + j] = d[i * n + j].min(d[i * n + k] + d[k * n + j]);
                    }
                }
            }

            for (dst, &dn) in nodes.iter().enumerate() {
                for (v, &vn) in nodes.iter().enumerate() {
                    let want = (d[v * n + dst] < INF).then(|| d[v * n + dst] as u32);
                    prop_assert_eq!(rt.dist(vn, dn), want, "dist n{v}->n{dst}");
                    let toward = (0..n).find_map(|u| {
                        let (c, l) = cost[u * n + v]?;
                        (v != dst && d[u * n + dst] + c == d[v * n + dst])
                            .then(|| (nodes[u], l))
                    });
                    prop_assert_eq!(rt.next_hop_link(vn, dn), toward, "hop n{v}->n{dst}");
                    prop_assert_eq!(sim.routes().next_hop_link(vn, dn), toward);
                    prop_assert_eq!(sim.routes().dist(vn, dn), want);
                }
            }
            Ok(())
        },
    );
}

/// Waxman generation is connected and respects counts for any valid size.
#[test]
fn waxman_always_connected() {
    check(
        "waxman_always_connected",
        &Config::with_cases(64),
        |rng: &mut StdRng| {
            (
                rng.gen_range(2usize..12),
                rng.gen_range(1usize..5),
                rng.next_u64(),
            )
        },
        |&(cores, per_core, seed)| {
            let (cores, per_core) = (cores.max(2), per_core.max(1));
            let cfg = WaxmanConfig {
                cores,
                edges: cores * per_core,
                ..WaxmanConfig::default()
            };
            let plan = waxman_with(&cfg, seed);
            prop_assert!(plan.topology().is_connected());
            prop_assert_eq!(plan.edges().len(), cores * per_core);
            Ok(())
        },
    );
}
