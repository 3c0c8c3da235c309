//! Discrete-event packet-level network simulator for the SDM
//! policy-enforcement reproduction.
//!
//! This crate substitutes for the paper's OMNET++/INET evaluation platform
//! (§IV.A). It simulates a *traditional non-SDN network*: routers forward
//! packets hop by hop along converged OSPF shortest paths and know nothing
//! about policies; all programmability lives in attached [`Device`]s (the
//! policy proxies and software-defined middleboxes implemented in
//! `sdm-core`).
//!
//! Key pieces:
//!
//! * [`Ipv4Addr`], [`Prefix`], [`AddressPlan`] — addressing, one stub subnet
//!   per edge router.
//! * [`Packet`], [`FiveTuple`], [`Label`] — packets with IP-over-IP
//!   encapsulation and the §III.E steering label.
//! * [`Simulator`], [`Device`], [`SimStats`] — the event engine with
//!   per-device load, per-link load, encapsulation-overhead and
//!   fragmentation accounting.
//!
//! Packets carry a `weight` so that one event can represent many identical
//! packets of a flow: since every steering decision in the reproduced system
//! is flow-sticky, aggregating a flow's packets is lossless for all load
//! metrics. The figure-scale experiments use this fast path; protocol-level
//! tests use weight-1 packets.
//!
//! # Example
//!
//! ```
//! use sdm_netsim::{Simulator, Packet, FiveTuple, Protocol, StubId};
//!
//! let plan = sdm_topology::campus::campus(1);
//! let mut sim = Simulator::new(&plan);
//! let ft = FiveTuple {
//!     src: sim.addresses().host(StubId(0), 0),
//!     dst: sim.addresses().host(StubId(1), 0),
//!     src_port: 4000, dst_port: 80, proto: Protocol::Tcp,
//! };
//! sim.inject_from_stub(StubId(0), Packet::data(ft, 512));
//! sim.run_until_idle();
//! assert_eq!(sim.stats().delivered, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The packet path never panics: a bad packet is a counted drop.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod addr;
mod arena;
mod engine;
mod packet;
mod queue;
mod schedule;

pub use addr::{AddressPlan, Ipv4Addr, ParseAddrError, Prefix, StubId};
pub use arena::{PacketArena, PacketId};
pub use engine::{
    preassigned_device_addr, Attachment, Device, DeviceCtx, DeviceId, DrainHistograms,
    FragmentationMode, SimStats, SimTime, Simulator, TraceEvent, TraceLocation,
};
pub use queue::CalendarQueue;
pub use packet::{
    FiveTuple, FragInfo, HeaderFull, Ipv4Header, Label, Packet, PacketKind, Protocol, DEFAULT_TTL,
    IP_HEADER_LEN, MAX_TUNNEL_DEPTH, SEGMENT_LEN,
};
