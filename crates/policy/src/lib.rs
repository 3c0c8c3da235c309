//! Middlebox policy model for the SDM policy-enforcement reproduction.
//!
//! Implements the policy machinery of §II–III of the paper:
//!
//! * [`TrafficDescriptor`] — multi-field, wildcard-capable match conditions
//!   (the columns of Table I).
//! * [`ActionList`], [`NetworkFunction`] — ordered function chains such as
//!   `FW -> IDS -> WP`.
//! * [`Policy`], [`PolicySet`] — the network-wide ordered policy list with
//!   first-match semantics, plus the relevance projections (`P_x`) the
//!   controller installs at proxies and middleboxes.
//! * [`LocalClassifier`] — the per-device classifier: a compiled
//!   tuple-space index (one hash probe per distinct rule signature),
//!   semantically identical to the linear scan (§III.D's software lookup).
//! * [`FlowTable`], [`LabelAllocator`] — the soft-state per-flow cache with
//!   negative caching that spares most packets the multi-field lookup
//!   (§III.D), extended with the label fields of §III.E.
//! * [`LabelTable`] — the middlebox-side `⟨src|l, a⟩` table that supports
//!   label switching without IP-over-IP encapsulation (§III.E).
//!
//! # Example
//!
//! ```
//! use sdm_policy::*;
//! use sdm_netsim::{FiveTuple, Protocol};
//!
//! let mut set = PolicySet::new();
//! set.push(Policy::new(
//!     TrafficDescriptor::new().dst_port(80),
//!     ActionList::chain([NetworkFunction::Firewall, NetworkFunction::Ids]),
//! ));
//! let classifier = LocalClassifier::new(set.project_all(), ClassifierKind::default());
//! let ft = FiveTuple {
//!     src: "10.0.0.1".parse().unwrap(),
//!     dst: "10.1.0.1".parse().unwrap(),
//!     src_port: 4000, dst_port: 80, proto: Protocol::Tcp,
//! };
//! let (id, policy) = classifier.first_match(&ft).unwrap();
//! assert_eq!(id, PolicyId(0));
//! assert_eq!(policy.actions.to_string(), "FW -> IDS");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The packet path never panics: a bad packet is a counted drop.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod action;
mod classifier;
mod descriptor;
mod flow_table;
mod label_table;
mod local;
pub mod oa_table;
mod policy;
mod text;

pub use action::{ActionList, NetworkFunction};
pub use local::{ClassifierKind, LocalClassifier};
pub use descriptor::{PortMatch, ProtoMatch, TrafficDescriptor};
pub use flow_table::{ClassInterner, FlowEntry, FlowTable, FlowTableStats, LabelAllocator, PolicyClassId};
pub use label_table::{LabelEntry, LabelKey, LabelTable};
pub use oa_table::{FlowKey, Hashed, NegativeCache, OaKey, OaTable, DEFAULT_NEG_SETS, NEG_WAYS};
pub use policy::{Policy, PolicyId, PolicySet, ProjectedPolicies};
pub use text::{parse_policies, parse_policy_line, policy_to_line, ParsePolicyError};
