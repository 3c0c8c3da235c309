//! OSPF-style shortest-path routing on the transit core: one
//! destination-rooted Dijkstra per transit destination, run the first time
//! anything routes towards it. Single-homed routers (leaves) get no row and
//! no entry; they route through their attachment router's row.
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
/// **Leaves and the transit core.** A *leaf* is a node with exactly one
/// surviving link, to a router `r` that itself has at least two; every
/// other node is *transit*. Leaves are found on the adjacency left after
/// the excluded links, so a failed link can make a leaf (its router lost
/// every other link) or isolate one (its access link failed; it is then a
/// transit node with no neighbor). A shortest path between two transit
/// nodes never enters a leaf, and every `v ∉ {d, r}` reaches a leaf `d`
/// of `r` at `dist(v, r) + c(r, d)` through its hop towards `r` (OSPF's
/// stub-area argument, RFC 2328 §3.6). So:
///
/// * a leaf forwards everything on its access link;
/// * `r` reaches its leaf `d` directly;
/// * every other node reaches `d` by `r`'s row, plus `c(r, d)`.
///
/// A lookup takes at most one of these branches on each end; none
/// recurses.
///
/// **Rows.** The table holds one *row* per transit destination, with one
/// entry per transit source (a dense transit index): the node the source
/// forwards to, the link it takes and the source's distance. A row is filled by one Dijkstra over the
/// transit subgraph, rooted at its destination, the first time anything
/// routes towards it or one of its leaves. Memory therefore follows the
/// transit routers actually queried, not `n²`: Waxman-425 has 25 transit
/// nodes. Rows are `OnceLock`s: the table is `Sync` and fills without a
/// lock. [`RoutingTables::rows_built`] counts the transit rows filled.
///
/// **Tie-break.** Among equal-cost paths, `v` forwards towards `dst` to
/// the smallest-id neighbor `u` with `d(u, dst) + c(u, v) = d(v, dst)`.
/// This mirrors a fixed ECMP-free OSPF configuration and makes
/// simulations reproducible. The leaf rules keep it: towards a leaf `d`
/// of `r`, `v`'s qualifying neighbors are exactly those towards `r`.
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
/// // a and c are leaves of b, which reaches both directly: no row.
/// assert_eq!(rt.rows_built(), 0);
/// ```
#[derive(Clone)]
pub struct RoutingTables {
    /// Where each node sits, by node id.
    place: Vec<Place>,
    /// Transit neighbors of transit index `t` over the surviving links
    /// are `adj[start[t]..start[t + 1]]`: (transit index, link, cost), in
    /// the topology's adjacency order.
    start: Vec<u32>,
    adj: Vec<(u32, u32, u32)>,
    /// Node id of each transit index, ascending.
    transit: Vec<u32>,
    /// rows[t]: how every transit index reaches transit index `t`.
    rows: Vec<OnceLock<Row>>,
}

/// A node's place in the table: for a transit node, its own transit index
/// and no access link ([`UNREACHABLE`]); for a leaf, its router's transit
/// index and node id, its access link and that link's cost.
#[derive(Clone, Copy)]
struct Place {
    row: u32,
    access: u32,
    cost: u32,
    router: u32,
}

/// One transit destination's row, by transit source index.
#[derive(Clone)]
struct Row {
    /// The node the source forwards to and the link it takes, both
    /// [`UNREACHABLE`] when none (unreachable, or the destination
    /// itself). Naming the next node saves a hop-by-hop walk a second,
    /// dependent load to turn the link into a node.
    hops: Box<[(u32, u32)]>,
    /// The source's distance; [`UNREACHABLE`] when unreachable.
    dist: Box<[u32]>,
}

const UNREACHABLE: u32 = u32::MAX;

impl RoutingTables {
    /// An empty table over `topo` as if the `excluded` links did not
    /// exist: leaves are classified and the transit adjacency is
    /// snapshotted once, without them.
    fn new(topo: &Topology, excluded: &[LinkId]) -> Self {
        let mut failed = vec![false; topo.link_count()];
        for l in excluded {
            if let Some(f) = failed.get_mut(l.index()) {
                *f = true;
            }
        }
        let surviving = |v: NodeId| {
            topo.adjacency(v)
                .iter()
                .filter(|(_, l, _)| !failed[l.index()])
        };
        let degree: Vec<usize> = topo.nodes().map(|v| surviving(v).count()).collect();
        // A leaf's one surviving link, to a router with at least two.
        let attach: Vec<Option<(NodeId, LinkId, u32)>> = topo
            .nodes()
            .map(|v| match surviving(v).next() {
                Some(&(r, l, c)) if degree[v.index()] == 1 && degree[r.index()] >= 2 => {
                    Some((r, l, c))
                }
                _ => None,
            })
            .collect();
        let mut place = Vec::with_capacity(topo.node_count());
        let mut transit = Vec::new();
        for (v, a) in attach.iter().enumerate() {
            place.push(Place {
                row: transit.len() as u32,
                access: UNREACHABLE,
                cost: 0,
                router: UNREACHABLE,
            });
            if a.is_none() {
                transit.push(v as u32);
            }
        }
        // A leaf's router is transit, so its place is final by now.
        for (v, a) in attach.iter().enumerate() {
            if let Some((r, l, c)) = *a {
                place[v] = Place {
                    row: place[r.index()].row,
                    access: l.0,
                    cost: c,
                    router: r.0,
                };
            }
        }
        let mut start = Vec::with_capacity(transit.len() + 1);
        let mut adj = Vec::new();
        start.push(0);
        for &v in &transit {
            for &(u, l, c) in surviving(NodeId(v)) {
                if place[u.index()].access == UNREACHABLE {
                    adj.push((place[u.index()].row, l.0, c));
                }
            }
            start.push(adj.len() as u32);
        }
        RoutingTables {
            place,
            start,
            adj,
            rows: (0..transit.len()).map(|_| OnceLock::new()).collect(),
            transit,
        }
    }

    /// The row of transit index `t`, computed on first use; `None` when
    /// out of range.
    fn row(&self, t: u32) -> Option<&Row> {
        let cell = self.rows.get(t as usize)?;
        Some(cell.get_or_init(|| self.compute_row(t)))
    }

    /// Dijkstra over the transit subgraph, rooted at transit index `dst`.
    /// On an undirected graph the shortest `v → dst` path reverses the
    /// tree path, so `v`'s forwarding hop is its tree parent. Costs are
    /// positive, so every equal-cost parent of `v` settles before `v` and
    /// relaxes it: keeping the smallest id on a tie implements the
    /// tie-break.
    fn compute_row(&self, dst: u32) -> Row {
        let n = self.rows.len();
        let mut hops = vec![(UNREACHABLE, UNREACHABLE); n].into_boxed_slice();
        let mut dist = vec![UNREACHABLE; n].into_boxed_slice();
        dist[dst as usize] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u32, dst)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            let (at, to) = (self.start[u as usize], self.start[u as usize + 1]);
            let next = self.transit[u as usize];
            for &(v, link, c) in &self.adj[at as usize..to as usize] {
                let (v, nd) = (v as usize, d.saturating_add(c));
                if nd < dist[v] {
                    heap.push(Reverse((nd, v as u32)));
                } else if nd > dist[v] || hops[v].0 <= next {
                    continue; // longer, or tied with a parent of smaller id
                }
                hops[v] = (next, link);
                dist[v] = nd;
            }
        }
        Row { hops, dist }
    }

    /// Shortest-path cost from `src` to `dst`, or `None` if unreachable.
    pub fn dist(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        let s = *self.place.get(src.index())?;
        let d = *self.place.get(dst.index())?;
        if src == dst {
            return Some(0);
        }
        // Between the two ends' rows; a leaf adds its access link.
        let between = if s.row == d.row {
            0
        } else {
            match *self.row(d.row)?.dist.get(s.row as usize)? {
                UNREACHABLE => return None,
                x => x,
            }
        };
        match between.saturating_add(s.cost).saturating_add(d.cost) {
            UNREACHABLE => None,
            x => Some(x),
        }
    }

    /// The neighbor `src` forwards to when routing towards `dst`, or `None`
    /// if `dst` is unreachable or equals `src`.
    // Inlined into other crates: the simulator and the reach checker
    // call this (or `next_hop_link`) once per hop.
    #[inline]
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.next_hop_link(src, dst).map(|(v, _)| v)
    }

    /// [`RoutingTables::next_hop`] together with the link the hop takes.
    /// Flat: at most one leaf rule applies, and none recurses.
    #[inline]
    pub fn next_hop_link(&self, src: NodeId, dst: NodeId) -> Option<(NodeId, LinkId)> {
        let s = *self.place.get(src.index())?;
        let d = *self.place.get(dst.index())?;
        let (next, link) = if s.access != UNREACHABLE {
            // A leaf forwards everything its router reaches on its access
            // link.
            let reached = s.row == d.row
                || self.row(d.row)?.hops.get(s.row as usize)?.1 != UNREACHABLE;
            if src == dst || !reached {
                return None;
            }
            (s.router, s.access)
        } else if s.row == d.row {
            // `dst` is `src` itself (no access link) or one of its leaves.
            (dst.0, d.access)
        } else {
            *self.row(d.row)?.hops.get(s.row as usize)?
        };
        (link != UNREACHABLE).then_some((NodeId(next), LinkId(link)))
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
        self.place.len()
    }

    /// How many transit destination rows have been computed so far; at
    /// most the number of transit nodes.
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

    /// How every node reaches `dst`, by the per-destination Dijkstra over
    /// the whole graph that the transit rows replaced: the reference the
    /// leaf rules must reproduce, tie-break included.
    fn reference_row(t: &Topology, dst: NodeId) -> Vec<(Option<NodeId>, Option<u32>)> {
        let mut best: Vec<(Option<NodeId>, u32)> = vec![(None, u32::MAX); t.node_count()];
        best[dst.index()].1 = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u32, dst)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > best[u.index()].1 {
                continue;
            }
            for (v, c) in t.neighbors(u) {
                let nd = d + c;
                let (parent, dv) = best[v.index()];
                if nd < dv {
                    heap.push(Reverse((nd, v)));
                    best[v.index()] = (Some(u), nd);
                } else if nd == dv && Some(u) < parent {
                    best[v.index()].0 = Some(u);
                }
            }
        }
        best.into_iter()
            .map(|(p, d)| (p, (d != u32::MAX).then_some(d)))
            .collect()
    }

    /// Nodes that are not leaves on the intact graph (see
    /// [`RoutingTables`]): the most rows the table may ever build.
    fn non_leaves(t: &Topology) -> usize {
        let degree = |v: NodeId| t.neighbors(v).count();
        t.nodes()
            .filter(|&v| {
                let mut nbrs = t.neighbors(v);
                !matches!((nbrs.next(), nbrs.next()), (Some((r, _)), None) if degree(r) >= 2)
            })
            .count()
    }

    /// Every pair on Waxman-425 answers as the whole-graph reference does,
    /// while only the 25 transit routers ever get a row.
    #[test]
    fn waxman_rows_cover_only_the_transit_core() {
        let plan = crate::waxman::waxman(3);
        let t = plan.topology();
        assert_eq!(non_leaves(t), 25);
        let rt = t.routing_tables();
        for dst in t.nodes() {
            let want = reference_row(t, dst);
            for src in t.nodes() {
                assert_eq!(rt.next_hop(src, dst), want[src.index()].0, "{src} -> {dst}");
                assert_eq!(rt.dist(src, dst), want[src.index()].1, "{src} -> {dst}");
            }
        }
        assert!(rt.rows_built() <= 25, "{} rows", rt.rows_built());
    }

    /// The same bound on the 21k-node fabric, for a sample of
    /// destinations against every source.
    #[test]
    fn fabric_rows_cover_only_the_transit_core() {
        let plan = crate::hierarchical::hierarchical(&crate::hierarchical::HierarchicalConfig::large(), 1);
        let t = plan.topology();
        let transit = non_leaves(t);
        assert!(transit * 20 < t.node_count(), "{transit} of {}", t.node_count());
        let rt = t.routing_tables();
        let step = t.node_count() / 40;
        for dst in t.nodes().step_by(step).chain(plan.cores().iter().copied().take(4)) {
            let want = reference_row(t, dst);
            for src in t.nodes() {
                assert_eq!(rt.next_hop(src, dst), want[src.index()].0, "{src} -> {dst}");
                assert_eq!(rt.dist(src, dst), want[src.index()].1, "{src} -> {dst}");
            }
        }
        assert!(rt.rows_built() <= transit, "{} rows of {transit}", rt.rows_built());
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
