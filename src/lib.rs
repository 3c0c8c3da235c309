//! Umbrella crate for the SDM policy-enforcement reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and downstream
//! users can depend on a single crate:
//!
//! * [`topology`] — network graph, OSPF-style routing, campus/Waxman generators.
//! * [`netsim`] — discrete-event packet simulator.
//! * [`policy`] — traffic descriptors, classifiers, flow caches, label tables.
//! * [`lp`] — linear-programming solver used for load-balanced enforcement.
//! * [`core`] — controller, policy proxies, middleboxes and steering strategies.
//! * [`workload`] — workload generation per the paper's evaluation section.
//! * [`verify`] — static analysis: the enforcement-plan verifier, the
//!   reachability checker and the docs' stale-name check.
//! * [`telemetry`] — deterministic metrics registry, the snapshot a run
//!   record is scraped into, and JSON/Prometheus exporters.
//! * [`util`] — in-tree infrastructure (PRNG, property-testing and bench
//!   harnesses, JSON, scoped-thread parallel map); keeps the build hermetic.
//!
//! # Example
//!
//! ```
//! use sdm::topology::campus::campus;
//! let plan = campus(1);
//! assert!(plan.topology().is_connected());
//! ```

#![forbid(unsafe_code)]

pub use sdm_core as core;
pub use sdm_lp as lp;
pub use sdm_netsim as netsim;
pub use sdm_policy as policy;
pub use sdm_telemetry as telemetry;
pub use sdm_topology as topology;
pub use sdm_util as util;
pub use sdm_verify as verify;
pub use sdm_workload as workload;
