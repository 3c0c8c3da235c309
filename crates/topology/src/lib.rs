//! Network topology substrate for the software-defined middlebox (SDM)
//! policy-enforcement reproduction.
//!
//! This crate models the *traditional, non-SDN network* underneath the
//! paper's architecture: a graph of gateways, core routers and edge routers
//! whose forwarding is determined purely by shortest-path routing (an
//! OSPF-style link-state computation), oblivious to any middlebox policy.
//!
//! It provides:
//!
//! * [`Topology`] — an undirected weighted graph with typed nodes
//!   ([`NodeKind`]) built through a validating builder API.
//! * [`RoutingTables`] — shortest-path distances and deterministic next
//!   hops, one Dijkstra per transit destination computed on first use
//!   (single-homed routers route through their router's row): exactly the
//!   information an OSPF router derives from link-state flooding.
//! * Topology generators reproducing the paper's two evaluation networks:
//!   [`campus::campus`] (2 gateways, 16 core routers, 10 edge routers) and
//!   [`waxman::waxman`] (25 core routers connected by the Waxman model, 400
//!   edge routers).
//!
//! # Example
//!
//! ```
//! use sdm_topology::{Topology, NodeKind};
//!
//! let mut t = Topology::new();
//! let a = t.add_node(NodeKind::EdgeRouter, "a");
//! let b = t.add_node(NodeKind::CoreRouter, "b");
//! let c = t.add_node(NodeKind::EdgeRouter, "c");
//! t.add_link(a, b, 1).unwrap();
//! t.add_link(b, c, 1).unwrap();
//! let routes = t.routing_tables();
//! assert_eq!(routes.dist(a, c), Some(2));
//! assert_eq!(routes.next_hop(a, c), Some(b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod plan;
mod routing;

pub mod campus;
pub mod hierarchical;
pub mod waxman;

pub use graph::{LinkId, NodeId, NodeKind, Topology, TopologyError};
pub use plan::NetworkPlan;
pub use routing::{Path, RoutingTables};
