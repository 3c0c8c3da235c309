//! The network graph: typed nodes connected by weighted, undirected links.

use std::fmt;

/// Identifier of a node (router or gateway) inside a [`Topology`].
///
/// Node ids are dense indices assigned in insertion order; they are only
/// meaningful relative to the topology that issued them.
///
/// # Example
///
/// ```
/// use sdm_topology::{Topology, NodeKind};
/// let mut t = Topology::new();
/// let id = t.add_node(NodeKind::CoreRouter, "c0");
/// assert_eq!(id.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// Intended for iterating over `0..topology.node_count()`; an id that
    /// does not correspond to an existing node will be rejected by the
    /// topology methods it is passed to.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an undirected link inside a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// Returns the dense index of this link.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `LinkId` from a dense index (valid for
    /// `0..topology.link_count()`).
    pub fn from_index(index: usize) -> Self {
        LinkId(index as u32)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// The role a node plays in the traditional network.
///
/// The paper's model (§II) distinguishes *edge routers* that connect stub
/// networks from *core routers* that interconnect them; gateways connect the
/// enterprise to the Internet. Only edge routers host stub subnets (and thus
/// policy proxies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Internet gateway of the enterprise network.
    Gateway,
    /// Core router: interconnects edge routers, never hosts a stub subnet.
    CoreRouter,
    /// Edge router: connects one stub network to the core.
    EdgeRouter,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Gateway => "gateway",
            NodeKind::CoreRouter => "core",
            NodeKind::EdgeRouter => "edge",
        };
        f.write_str(s)
    }
}

/// Error returned by [`Topology`] mutation and query methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A referenced node id does not exist in this topology.
    UnknownNode(NodeId),
    /// A link would connect a node to itself.
    SelfLoop(NodeId),
    /// The two nodes are already directly connected.
    DuplicateLink(NodeId, NodeId),
    /// A link cost of zero was supplied; OSPF costs are strictly positive.
    ZeroCost,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop at node {n}"),
            TopologyError::DuplicateLink(a, b) => {
                write!(f, "duplicate link between {a} and {b}")
            }
            TopologyError::ZeroCost => write!(f, "link cost must be strictly positive"),
        }
    }
}

impl std::error::Error for TopologyError {}

#[derive(Debug, Clone)]
struct NodeInfo {
    kind: NodeKind,
    name: String,
}

/// An undirected link with an OSPF-style additive cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Link {
    pub a: NodeId,
    pub b: NodeId,
    pub cost: u32,
}

/// An undirected, weighted network graph with typed nodes.
///
/// Nodes are added with [`Topology::add_node`] and connected with
/// [`Topology::add_link`]; both return dense ids. The graph is simple (no
/// self-loops, no parallel links) and link costs are strictly positive, the
/// preconditions OSPF shortest-path computation relies on.
///
/// # Example
///
/// ```
/// use sdm_topology::{Topology, NodeKind};
///
/// let mut t = Topology::new();
/// let e0 = t.add_node(NodeKind::EdgeRouter, "e0");
/// let c0 = t.add_node(NodeKind::CoreRouter, "c0");
/// t.add_link(e0, c0, 1)?;
/// assert_eq!(t.node_count(), 2);
/// assert_eq!(t.neighbors(e0).count(), 1);
/// # Ok::<(), sdm_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    links: Vec<Link>,
    /// adjacency: for each node, (neighbor, link id, cost)
    adj: Vec<Vec<(NodeId, LinkId, u32)>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node of the given kind and returns its id.
    ///
    /// `name` is a human-readable label used in `Display` output and error
    /// messages; it need not be unique.
    pub fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeInfo {
            kind,
            name: name.into(),
        });
        self.adj.push(Vec::new());
        id
    }

    /// Connects two nodes with an undirected link of the given cost.
    ///
    /// # Errors
    ///
    /// Returns an error if either node is unknown, if `a == b`, if the two
    /// nodes are already connected, or if `cost` is zero.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, cost: u32) -> Result<LinkId, TopologyError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        if cost == 0 {
            return Err(TopologyError::ZeroCost);
        }
        if self.adj[a.index()].iter().any(|&(n, _, _)| n == b) {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { a, b, cost });
        self.adj[a.index()].push((b, id, cost));
        self.adj[b.index()].push((a, id, cost));
        Ok(id)
    }

    /// Returns true if nodes `a` and `b` are directly connected.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        a.index() < self.adj.len() && self.adj[a.index()].iter().any(|&(n, _, _)| n == b)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The kind of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not issued by this topology.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.index()].kind
    }

    /// The human-readable name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not issued by this topology.
    pub fn name(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].name
    }

    /// Iterates over all node ids in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over the neighbors of `node` as `(neighbor, cost)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not issued by this topology.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.adj[node.index()].iter().map(|&(n, _, c)| (n, c))
    }

    /// The degree (number of incident links) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not issued by this topology.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj[node.index()].len()
    }

    /// Returns the endpoints and cost of a link.
    ///
    /// # Panics
    ///
    /// Panics if `link` was not issued by this topology.
    pub fn link(&self, link: LinkId) -> (NodeId, NodeId, u32) {
        let l = self.links[link.index()];
        (l.a, l.b, l.cost)
    }

    /// True if the graph is connected (or empty).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &(m, _, _) in &self.adj[n.index()] {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    count += 1;
                    stack.push(m);
                }
            }
        }
        count == self.nodes.len()
    }

    fn check_node(&self, n: NodeId) -> Result<(), TopologyError> {
        if n.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownNode(n))
        }
    }

    pub(crate) fn adjacency(&self, node: NodeId) -> &[(NodeId, LinkId, u32)] {
        &self.adj[node.index()]
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "topology: {} nodes, {} links",
            self.node_count(),
            self.link_count()
        )?;
        for (i, n) in self.nodes.iter().enumerate() {
            writeln!(f, "  n{} [{}] {}", i, n.kind, n.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::EdgeRouter, "a");
        let b = t.add_node(NodeKind::CoreRouter, "b");
        let c = t.add_node(NodeKind::EdgeRouter, "c");
        t.add_link(a, b, 1).unwrap();
        t.add_link(b, c, 2).unwrap();
        t.add_link(a, c, 5).unwrap();
        (t, a, b, c)
    }

    #[test]
    fn adds_nodes_and_links() {
        let (t, a, b, c) = triangle();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.kind(a), NodeKind::EdgeRouter);
        assert_eq!(t.kind(b), NodeKind::CoreRouter);
        assert_eq!(t.name(c), "c");
        assert_eq!(t.degree(b), 2);
        assert!(t.has_link(a, b));
        assert!(t.has_link(b, a));
    }

    #[test]
    fn rejects_self_loop() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::CoreRouter, "a");
        assert_eq!(t.add_link(a, a, 1), Err(TopologyError::SelfLoop(a)));
    }

    #[test]
    fn rejects_duplicate_link() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::CoreRouter, "a");
        let b = t.add_node(NodeKind::CoreRouter, "b");
        t.add_link(a, b, 1).unwrap();
        assert_eq!(t.add_link(b, a, 2), Err(TopologyError::DuplicateLink(b, a)));
    }

    #[test]
    fn rejects_zero_cost() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::CoreRouter, "a");
        let b = t.add_node(NodeKind::CoreRouter, "b");
        assert_eq!(t.add_link(a, b, 0), Err(TopologyError::ZeroCost));
    }

    #[test]
    fn rejects_unknown_node() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::CoreRouter, "a");
        let ghost = NodeId(7);
        assert_eq!(t.add_link(a, ghost, 1), Err(TopologyError::UnknownNode(ghost)));
    }

    #[test]
    fn connectivity() {
        let (t, ..) = triangle();
        assert!(t.is_connected());
        let mut t2 = t.clone();
        let d = t2.add_node(NodeKind::EdgeRouter, "d");
        assert!(!t2.is_connected());
        let a = NodeId(0);
        t2.add_link(a, d, 1).unwrap();
        assert!(t2.is_connected());
    }

    #[test]
    fn empty_topology_is_connected() {
        assert!(Topology::new().is_connected());
    }

    #[test]
    fn display_is_nonempty() {
        let (t, ..) = triangle();
        let s = t.to_string();
        assert!(s.contains("3 nodes"));
        assert!(s.contains("edge"));
    }
}
