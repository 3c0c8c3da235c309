//! Workload generation for the SDM policy-enforcement experiments,
//! reproducing the evaluation setup of §IV.A:
//!
//! * **Three policy classes** — many-to-one (`FW → IDS` protecting one
//!   destination service), one-to-many (`FW → IDS → WP` on one subnet's
//!   outbound web traffic), one-to-one (`IDS → TM` between a chosen pair of
//!   subnets).
//! * **Flows** with power-law (bounded-Pareto) sizes between 1 and 5000
//!   packets, assigned one third to each policy class, scaled to total
//!   packet targets of 1M–10M.
//!
//! Everything is deterministic in the configured seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
mod flows;
mod policies;
mod shard;
mod trace;

pub use adversarial::{exhaustion_attack, flash_crowd, NO_POLICY};
pub use flows::{generate_flows, generate_flows_with_total, Flow, WorkloadConfig};
pub use shard::to_flow_specs;
pub use policies::{evaluation_policies, GeneratedPolicies, PolicyClass, PolicyClassCounts};
pub use trace::{flows_from_text, flows_to_text, ParseTraceError};
