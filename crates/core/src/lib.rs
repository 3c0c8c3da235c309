//! Dependable policy enforcement in traditional non-SDN networks — the
//! core library of the ICDCS 2019 reproduction.
//!
//! This crate implements the paper's contribution on top of the substrate
//! crates (`sdm-topology`, `sdm-netsim`, `sdm-policy`, `sdm-lp`):
//!
//! * [`Deployment`] — software-defined middleboxes: functions, placement,
//!   capacities (§III.A).
//! * [`Controller`] — the central manager: computes the hot-potato targets
//!   `m_x^e` and candidate sets `M_x^e`, installs local policy tables
//!   `P_x`, aggregates traffic measurements and solves the load-balancing
//!   LPs (§III.B–C).
//! * [`Strategy`] — hot-potato, flow-sticky random, and load-balanced
//!   enforcement with hash-based probabilistic selection (§III.B–C, §IV.B).
//! * [`Enforcement`] — a wired-up simulation of the data-plane devices —
//!   policy proxies and middleboxes, with the §III.D flow cache (negative
//!   caching included) and the §III.E label-switching enhancement that
//!   avoids packet fragmentation: inject flows, run, read the
//!   per-middlebox loads the paper's figures report — or the whole run
//!   record, [`ShardedRun`], which [`Controller::run_sharded`] and
//!   [`EpochLoop`] report too.
//!
//! # Quickstart
//!
//! ```
//! use sdm_core::*;
//! use sdm_policy::{ActionList, NetworkFunction, Policy, PolicySet, TrafficDescriptor};
//! use sdm_netsim::{FiveTuple, Protocol, StubId};
//!
//! // A campus network with the paper's middlebox deployment.
//! let plan = sdm_topology::campus::campus(1);
//! let deployment = Deployment::evaluation_default(&plan, 7);
//!
//! // One policy: all web traffic through FW -> IDS.
//! let mut policies = PolicySet::new();
//! policies.push(Policy::new(
//!     TrafficDescriptor::new().dst_port(80),
//!     ActionList::chain([NetworkFunction::Firewall, NetworkFunction::Ids]),
//! ));
//!
//! let controller = Controller::new(plan, deployment, policies, KConfig::paper_default());
//! let mut enf = controller.enforcement(Strategy::HotPotato, None,
//!                                      EnforcementOptions::default());
//! let flow = FiveTuple {
//!     src: controller.addr_plan().host(StubId(0), 1),
//!     dst: controller.addr_plan().host(StubId(5), 1),
//!     src_port: 40000, dst_port: 80, proto: Protocol::Tcp,
//! };
//! enf.inject_flow(flow, 1000, 512);
//! enf.run();
//! assert_eq!(enf.sim().stats().delivered, 1000);
//! assert!(enf.middlebox_loads().iter().sum::<u64>() >= 2000); // FW + IDS
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod deployment;
mod epoch;
mod lp_model;
mod measure;
mod middlebox;
mod proxy;
mod reach;
mod report;
mod runtime;
mod shard;
mod steer;
mod telemetry;
mod verify;

pub use controller::{ConfigFootprint, Controller, Enforcement, EnforcementOptions};
pub use deployment::{Deployment, MiddleboxId, MiddleboxSpec};
pub use epoch::{EpochError, EpochLoop, EpochReport};
pub use lp_model::{LbError, LbOptions, LbReport, LbWarmCache};
pub use measure::{DestKey, TrafficMatrix};
pub use report::{LoadReport, LoadRow};
pub use runtime::{
    MboxCounters, MboxState, ProxyCounters, ProxyState, RuntimeConfig, Shared, WeightsCell,
};
pub use shard::{shard_of, FlowSpec, ShardedRun, StateFootprint};
pub use steer::{
    select_next, Assignments, CommodityKey, KConfig, SteerPoint, SteeringEncoding,
    SteeringWeights, Strategy, WeightKey,
};
pub use reach::{reach_view, strategy_view};
pub use verify::{plan_view, verify_controller, verify_enforcement, weights_view};
