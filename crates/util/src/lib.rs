//! Hermetic in-tree utilities for the SDM workspace.
//!
//! This crate exists so the whole reproduction builds with **zero network
//! access and zero third-party crates** (`cargo build --release --offline`).
//! It replaces, module by module, what the workspace previously pulled from
//! crates.io:
//!
//! | module | replaces | provides |
//! |---|---|---|
//! | [`rng`] | `rand` | seeded SplitMix64/Xoshiro256** PRNG, `gen_range`, shuffle, sampling |
//! | [`prop`] | `proptest` | seeded case generation, shrinking by halving/truncation, failure-seed reporting |
//! | [`json`] | `serde` | a tiny JSON value type, writer and recursive-descent parser |
//! | [`par`] | `crossbeam` | scoped-thread ordered parallel map |
//! | [`sync`] | `parking_lot` | `std::sync::Mutex` wrapper with a non-poisoning `lock()` |
//! | [`fxhash`] | `rustc-hash` | deterministic multiply-rotate hasher for hot, trusted-key tables |
//!
//! Everything is deterministic per fixed seed, `#![forbid(unsafe_code)]`,
//! and uses the standard library only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fxhash;
pub mod json;
pub mod par;
pub mod prop;
pub mod rng;
pub mod sync;

pub use fxhash::FxHashMap;
pub use json::{Json, JsonError};
pub use rng::{SliceRandom, StdRng};
