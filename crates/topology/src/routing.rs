//! OSPF-style shortest-path routing: one destination-rooted Dijkstra per
//! destination, run the first time anything routes towards it.
//!
//! Routers in the paper's model forward packets along OSPF shortest paths and
//! are oblivious to policies. All steering decisions made by proxies and
//! middleboxes therefore ride on these tables.

// Every hop of every packet looks up a route here: no panicking combinators.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

use crate::graph::{LinkId, NodeId, Topology};

/// A loop-free path through the network, as a sequence of node ids from
/// source to destination (both inclusive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    nodes: Vec<NodeId>,
    cost: u32,
}

impl Path {
    /// The nodes along the path, source first, destination last.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Total additive cost of the path.
    pub fn cost(&self) -> u32 {
        self.cost
    }
}

/// Shortest-path routing state, as computed by every OSPF router from the
/// flooded link-state database — the one routing oracle the controller,
/// the simulator and the verifiers share.
///
/// The table holds one *row* per destination: for every node `v`, the
/// neighbor `v` forwards to, the link that hop takes, and `v`'s distance.
/// A row is filled by one Dijkstra rooted at its destination the first
/// time anything routes towards it, so memory follows the destinations
/// actually queried (stub, gateway and middlebox routers), not `n²`. Rows
/// are `OnceLock`s: the table is `Sync` and fills without a lock.
///
/// **Tie-break.** Among equal-cost paths, `v` forwards towards `dst` to
/// the smallest-id neighbor `u` with `d(u, dst) + c(u, v) = d(v, dst)`.
/// This mirrors a fixed ECMP-free OSPF configuration and makes
/// simulations reproducible.
///
/// Node ids outside the topology are unreachable: every query about them
/// answers `None`.
///
/// # Example
///
/// ```
/// use sdm_topology::{Topology, NodeKind};
/// let mut t = Topology::new();
/// let a = t.add_node(NodeKind::EdgeRouter, "a");
/// let b = t.add_node(NodeKind::CoreRouter, "b");
/// let c = t.add_node(NodeKind::EdgeRouter, "c");
/// t.add_link(a, b, 1).unwrap();
/// t.add_link(b, c, 1).unwrap();
/// let rt = t.routing_tables();
/// assert_eq!(rt.rows_built(), 0);
/// let p = rt.path(a, c).unwrap();
/// assert_eq!(p.nodes(), &[a, b, c]);
/// assert_eq!(p.cost(), 2);
/// assert_eq!(rt.rows_built(), 1);
/// ```
#[derive(Clone)]
pub struct RoutingTables {
    /// Neighbors of `v` over the surviving links are
    /// `adj[start[v]..start[v + 1]]`, in the topology's adjacency order.
    start: Vec<u32>,
    adj: Vec<(NodeId, LinkId, u32)>,
    /// `a ^ b` for every link `a — b`, by link id: a hop's link names its
    /// next node (`v ^ ends[l]` from `v`), so a row entry needs no node
    /// field. An xor rather than the endpoint pair keeps the per-hop
    /// lookup free of a data-dependent branch (≈3 ns per hop on campus).
    ends: Vec<u32>,
    /// rows[dst]: entry `v` says how `v` reaches `dst`.
    rows: Vec<OnceLock<Box<[Hop]>>>,
}

/// How one node reaches a row's destination (8 bytes: rows are the
/// table's memory).
#[derive(Clone, Copy)]
struct Hop {
    /// The link `v` forwards on; [`UNREACHABLE`] when none (unreachable,
    /// or the destination itself).
    link: u32,
    /// Distance to the destination; [`UNREACHABLE`] when unreachable.
    dist: u32,
}

const UNREACHABLE: u32 = u32::MAX;

impl RoutingTables {
    /// An empty table over `topo` as if the `excluded` links did not
    /// exist: the adjacency is snapshotted once, without them.
    fn new(topo: &Topology, excluded: &[LinkId]) -> Self {
        let mut failed = vec![false; topo.link_count()];
        for l in excluded {
            if let Some(f) = failed.get_mut(l.index()) {
                *f = true;
            }
        }
        let n = topo.node_count();
        let mut start = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(2 * topo.link_count());
        start.push(0);
        for v in topo.nodes() {
            adj.extend(topo.adjacency(v).iter().filter(|(_, l, _)| !failed[l.index()]));
            start.push(adj.len() as u32);
        }
        RoutingTables {
            start,
            adj,
            ends: (0..topo.link_count())
                .map(|l| {
                    let (a, b, _) = topo.link(LinkId::from_index(l));
                    a.0 ^ b.0
                })
                .collect(),
            rows: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    fn neighbors(&self, v: usize) -> &[(NodeId, LinkId, u32)] {
        &self.adj[self.start[v] as usize..self.start[v + 1] as usize]
    }

    /// The node `v` reaches over `link`; `None` for [`UNREACHABLE`].
    fn far_end(&self, link: u32, v: NodeId) -> Option<NodeId> {
        Some(NodeId(v.0 ^ self.ends.get(link as usize)?))
    }

    /// The row of `dst`, computed on first use; `None` for an id outside
    /// the topology.
    fn row(&self, dst: NodeId) -> Option<&[Hop]> {
        let cell = self.rows.get(dst.index())?;
        Some(cell.get_or_init(|| self.compute_row(dst.0)))
    }

    /// How `src` reaches `dst`, or `None` if either id is out of range.
    fn hop(&self, src: NodeId, dst: NodeId) -> Option<Hop> {
        self.row(dst)?.get(src.index()).copied()
    }

    /// Dijkstra rooted at `dst`. On an undirected graph the shortest
    /// `v → dst` path reverses the tree path, so `v`'s forwarding hop is
    /// its tree parent. Costs are positive, so every equal-cost parent of
    /// `v` settles before `v` and relaxes it: keeping the smallest id on a
    /// tie implements the tie-break.
    fn compute_row(&self, dst: u32) -> Box<[Hop]> {
        let none = Hop {
            link: UNREACHABLE,
            dist: UNREACHABLE,
        };
        let mut row = vec![none; self.rows.len()];
        row[dst as usize].dist = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u32, dst)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > row[u as usize].dist {
                continue;
            }
            for &(v, link, c) in self.neighbors(u as usize) {
                let nd = d.saturating_add(c);
                let hop = row[v.index()];
                if nd < hop.dist {
                    heap.push(Reverse((nd, v.0)));
                } else if nd > hop.dist || self.far_end(hop.link, v) <= Some(NodeId(u)) {
                    continue; // longer, or tied with a parent of smaller id
                }
                row[v.index()] = Hop {
                    link: link.0,
                    dist: nd,
                };
            }
        }
        row.into_boxed_slice()
    }

    /// Shortest-path cost from `src` to `dst`, or `None` if unreachable.
    pub fn dist(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        if src == dst && src.index() < self.rows.len() {
            return Some(0);
        }
        match self.hop(src, dst)?.dist {
            UNREACHABLE => None,
            d => Some(d),
        }
    }

    /// The neighbor `src` forwards to when routing towards `dst`, or `None`
    /// if `dst` is unreachable or equals `src`.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.next_hop_link(src, dst).map(|(v, _)| v)
    }

    /// [`RoutingTables::next_hop`] together with the link the hop takes.
    pub fn next_hop_link(&self, src: NodeId, dst: NodeId) -> Option<(NodeId, LinkId)> {
        let link = self.hop(src, dst)?.link;
        Some((self.far_end(link, src)?, LinkId(link)))
    }

    /// Reconstructs the full shortest path from `src` to `dst` by chaining
    /// next-hop lookups, or `None` if unreachable.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Path> {
        let cost = self.dist(src, dst)?;
        let mut nodes = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst)?;
            nodes.push(cur);
        }
        Some(Path { nodes, cost })
    }

    /// Number of nodes these tables cover.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// How many destination rows have been computed so far.
    pub fn rows_built(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }
}

impl std::fmt::Debug for RoutingTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingTables")
            .field("nodes", &self.node_count())
            .field("rows_built", &self.rows_built())
            .finish()
    }
}

impl Topology {
    /// The routing tables OSPF converges to on this topology. Rows are
    /// computed on demand (see [`RoutingTables`]), so this is `O(n + m)`.
    pub fn routing_tables(&self) -> RoutingTables {
        RoutingTables::new(self, &[])
    }

    /// The routing tables OSPF converges to after the listed links fail
    /// (their link-state advertisements withdrawn).
    pub fn routing_tables_excluding(&self, failed: &[LinkId]) -> RoutingTables {
        RoutingTables::new(self, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    fn line(n: usize) -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let ids: Vec<_> = (0..n)
            .map(|i| t.add_node(NodeKind::CoreRouter, format!("n{i}")))
            .collect();
        for w in ids.windows(2) {
            t.add_link(w[0], w[1], 1).unwrap();
        }
        (t, ids)
    }

    #[test]
    fn line_distances() {
        let (t, ids) = line(5);
        let rt = t.routing_tables();
        assert_eq!(rt.dist(ids[0], ids[4]), Some(4));
        assert_eq!(rt.dist(ids[4], ids[0]), Some(4));
        assert_eq!(rt.dist(ids[2], ids[2]), Some(0));
        assert_eq!(rt.next_hop(ids[0], ids[4]), Some(ids[1]));
        assert_eq!(rt.next_hop(ids[2], ids[2]), None);
    }

    #[test]
    fn weighted_shortcut_preferred() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::CoreRouter, "a");
        let b = t.add_node(NodeKind::CoreRouter, "b");
        let c = t.add_node(NodeKind::CoreRouter, "c");
        t.add_link(a, b, 10).unwrap();
        let ac = t.add_link(a, c, 1).unwrap();
        t.add_link(c, b, 1).unwrap();
        let rt = t.routing_tables();
        assert_eq!(rt.dist(a, b), Some(2));
        assert_eq!(rt.next_hop_link(a, b), Some((c, ac)));
        assert_eq!(rt.path(a, b).unwrap().nodes(), &[a, c, b]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::CoreRouter, "a");
        let b = t.add_node(NodeKind::CoreRouter, "b");
        let rt = t.routing_tables();
        assert_eq!(rt.dist(a, b), None);
        assert_eq!(rt.next_hop(a, b), None);
        assert!(rt.path(a, b).is_none());
    }

    /// Regression: an id past the last node answered another pair's
    /// entry (or panicked) instead of "unreachable".
    #[test]
    fn out_of_range_ids_are_unreachable() {
        let (t, ids) = line(3);
        let rt = t.routing_tables();
        for ghost in [NodeId(3), NodeId(21), NodeId(u32::MAX)] {
            assert_eq!(rt.dist(ids[0], ghost), None);
            assert_eq!(rt.dist(ghost, ids[0]), None);
            assert_eq!(rt.dist(ghost, ghost), None);
            assert_eq!(rt.next_hop(ids[0], ghost), None);
            assert_eq!(rt.next_hop(ghost, ids[0]), None);
            assert!(rt.path(ghost, ids[0]).is_none());
        }
    }

    #[test]
    fn equal_cost_tie_breaks_deterministically() {
        // a -- b -- d and a -- c -- d, equal cost: next hop must be b (lower id).
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::CoreRouter, "a");
        let b = t.add_node(NodeKind::CoreRouter, "b");
        let c = t.add_node(NodeKind::CoreRouter, "c");
        let d = t.add_node(NodeKind::CoreRouter, "d");
        t.add_link(a, c, 1).unwrap(); // insert c-link first to stress tie-break
        t.add_link(a, b, 1).unwrap();
        t.add_link(c, d, 1).unwrap();
        t.add_link(b, d, 1).unwrap();
        let rt = t.routing_tables();
        assert_eq!(rt.dist(a, d), Some(2));
        assert_eq!(rt.next_hop(a, d), Some(b));
    }

    #[test]
    fn rows_fill_on_demand() {
        let (t, ids) = line(6);
        let rt = t.routing_tables();
        assert_eq!(rt.rows_built(), 0);
        assert_eq!(rt.dist(ids[3], ids[3]), Some(0));
        assert_eq!(rt.rows_built(), 0, "a self-distance needs no row");
        for &src in &ids {
            rt.next_hop(src, ids[5]);
        }
        assert_eq!(rt.rows_built(), 1);
        rt.dist(ids[5], ids[0]);
        assert_eq!(rt.rows_built(), 2);
    }

    #[test]
    fn path_reconstruction_matches_cost() {
        let (t, ids) = line(6);
        let rt = t.routing_tables();
        let p = rt.path(ids[0], ids[5]).unwrap();
        assert_eq!(p.cost(), 5);
        assert_eq!(p.nodes().first(), Some(&ids[0]));
        assert_eq!(p.nodes().last(), Some(&ids[5]));
    }

    #[test]
    fn link_exclusion_reroutes() {
        // triangle a-b (cost 1), b-c (1), a-c (3): normally a->c via b.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::CoreRouter, "a");
        let b = t.add_node(NodeKind::CoreRouter, "b");
        let c = t.add_node(NodeKind::CoreRouter, "c");
        let ab = t.add_link(a, b, 1).unwrap();
        t.add_link(b, c, 1).unwrap();
        t.add_link(a, c, 3).unwrap();
        let rt = t.routing_tables();
        assert_eq!(rt.dist(a, c), Some(2));
        // fail a-b: a->c must take the direct expensive link
        let rt2 = t.routing_tables_excluding(&[ab]);
        assert_eq!(rt2.dist(a, c), Some(3));
        assert_eq!(rt2.next_hop(a, c), Some(c));
        assert_eq!(rt2.dist(a, b), Some(4)); // a->c->b
    }

    #[test]
    fn link_exclusion_can_partition() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::CoreRouter, "a");
        let b = t.add_node(NodeKind::CoreRouter, "b");
        let ab = t.add_link(a, b, 1).unwrap();
        let rt = t.routing_tables_excluding(&[ab]);
        assert_eq!(rt.dist(a, b), None);
        assert!(rt.path(a, b).is_none());
    }

    /// Cross-check Dijkstra against Floyd–Warshall on a fixed mesh.
    #[test]
    fn matches_floyd_warshall() {
        let mut t = Topology::new();
        let ids: Vec<_> = (0..8)
            .map(|i| t.add_node(NodeKind::CoreRouter, format!("n{i}")))
            .collect();
        // Deterministic pseudo-random mesh.
        let mut s: u64 = 42;
        let mut rand = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as u32
        };
        for i in 0..8 {
            for j in (i + 1)..8 {
                if rand() % 3 != 0 {
                    t.add_link(ids[i], ids[j], 1 + rand() % 9).unwrap();
                }
            }
        }
        let rt = t.routing_tables();
        let n = ids.len();
        let inf = u64::MAX / 4;
        let mut fw = vec![inf; n * n];
        for i in 0..n {
            fw[i * n + i] = 0;
        }
        for li in 0..t.link_count() {
            let (a, b, c) = t.link(crate::LinkId(li as u32));
            fw[a.index() * n + b.index()] = fw[a.index() * n + b.index()].min(c as u64);
            fw[b.index() * n + a.index()] = fw[b.index() * n + a.index()].min(c as u64);
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = fw[i * n + k] + fw[k * n + j];
                    if via < fw[i * n + j] {
                        fw[i * n + j] = via;
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                let expect = if fw[i * n + j] >= inf {
                    None
                } else {
                    Some(fw[i * n + j] as u32)
                };
                assert_eq!(rt.dist(ids[i], ids[j]), expect, "pair {i}->{j}");
            }
        }
    }
}
