//! A generated network plan: the graph plus the role assignment the
//! generators produced (gateways, core routers, edge routers).

use crate::graph::{NodeId, NodeKind, Topology};

/// A topology together with its node-role inventory, as produced by the
/// [`crate::campus`] and [`crate::waxman`] generators.
///
/// Edge routers are the attachment points for stub networks and policy
/// proxies; core routers are the attachment points for middleboxes.
///
/// # Example
///
/// ```
/// let plan = sdm_topology::campus::campus(7);
/// assert_eq!(plan.gateways().len(), 2);
/// assert_eq!(plan.cores().len(), 16);
/// assert_eq!(plan.edges().len(), 10);
/// assert!(plan.topology().is_connected());
/// ```
#[derive(Debug, Clone)]
pub struct NetworkPlan {
    topology: Topology,
    gateways: Vec<NodeId>,
    cores: Vec<NodeId>,
    edges: Vec<NodeId>,
}

impl NetworkPlan {
    /// Assembles a plan from a topology and explicit role lists.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a listed node's [`NodeKind`] does not match
    /// its role list.
    pub fn new(
        topology: Topology,
        gateways: Vec<NodeId>,
        cores: Vec<NodeId>,
        edges: Vec<NodeId>,
    ) -> Self {
        debug_assert!(gateways.iter().all(|&n| topology.kind(n) == NodeKind::Gateway));
        debug_assert!(cores.iter().all(|&n| topology.kind(n) == NodeKind::CoreRouter));
        debug_assert!(edges.iter().all(|&n| topology.kind(n) == NodeKind::EdgeRouter));
        NetworkPlan {
            topology,
            gateways,
            cores,
            edges,
        }
    }

    /// The underlying graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Internet gateways.
    pub fn gateways(&self) -> &[NodeId] {
        &self.gateways
    }

    /// Core routers (middlebox attachment points).
    pub fn cores(&self) -> &[NodeId] {
        &self.cores
    }

    /// Edge routers (stub network / policy proxy attachment points).
    pub fn edges(&self) -> &[NodeId] {
        &self.edges
    }

    /// Number of stub networks, one per edge router.
    pub fn stub_count(&self) -> usize {
        self.edges.len()
    }
}
