//! Packets: IPv4-style headers, flow identifiers, IP-over-IP encapsulation
//! and the steering label of §III.E.
//!
//! Invariants the rest of the simulator leans on:
//!
//! * the encapsulation stack is strictly LIFO — [`Packet::encapsulate`]
//!   pushes an outer header, [`Packet::decapsulate`] pops it, and
//!   [`Packet::current_dst`] always reads the outermost header;
//! * [`Packet::five_tuple`] is the *inner* (original) flow identity, no
//!   matter how many tunnel layers are stacked on top — flow stickiness
//!   and shard/batch grouping key on it;
//! * `weight` is the packet multiplicity of an aggregate: every counter
//!   in the system adds `weight`, never `1`, so an aggregate of `w`
//!   packets is indistinguishable from `w` unit packets in all
//!   statistics.

use std::fmt;

use crate::addr::Ipv4Addr;

/// Size in bytes of one IPv4 header (no options); each IP-over-IP
/// encapsulation adds this much to the wire length of a packet.
pub const IP_HEADER_LEN: u32 = 20;

/// Transport protocol carried in the IP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protocol {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// IP-in-IP encapsulation (4), used for steering tunnels.
    IpInIp,
    /// Any other protocol number.
    Other(u8),
}

impl Protocol {
    /// The IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::IpInIp => 4,
            Protocol::Other(n) => n,
        }
    }
}

impl From<u8> for Protocol {
    fn from(n: u8) -> Self {
        match n {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            4 => Protocol::IpInIp,
            other => Protocol::Other(other),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => f.write_str("tcp"),
            Protocol::Udp => f.write_str("udp"),
            Protocol::IpInIp => f.write_str("ipip"),
            Protocol::Other(n) => write!(f, "proto{n}"),
        }
    }
}

/// The 5-element flow identifier the paper hashes for flow-sticky middlebox
/// selection and flow-cache lookups (§III.C–D): source address, destination
/// address, source port, destination port, protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Protocol,
}

impl FiveTuple {
    /// A stable 64-bit hash of the flow identifier (FNV-1a), used to map a
    /// flow onto the cumulative weight vector `t_{e,p}(x, ·)`.
    ///
    /// The function is fixed (not `RandomState`) so that *every* proxy and
    /// middlebox maps the same flow to the same point in `[0, 1)`, which is
    /// what keeps per-flow paths stable across hops.
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        };
        for b in self.src.0.to_be_bytes() {
            eat(b);
        }
        for b in self.dst.0.to_be_bytes() {
            eat(b);
        }
        for b in self.src_port.to_be_bytes() {
            eat(b);
        }
        for b in self.dst_port.to_be_bytes() {
            eat(b);
        }
        eat(self.proto.number());
        h
    }

    /// The hash mapped into the unit interval `[0, 1)`.
    pub fn unit_hash(&self) -> f64 {
        (self.stable_hash() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} ({})",
            self.src, self.src_port, self.dst, self.dst_port, self.proto
        )
    }
}

/// An IPv4 header (the fields the system touches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Protocol of the payload.
    pub proto: Protocol,
    /// Time to live, decremented per router hop.
    pub ttl: u8,
}

/// Default TTL for generated packets.
pub const DEFAULT_TTL: u8 = 64;

/// The steering label of §III.E, carried in otherwise-unused header fields
/// (ToS byte + fragmentation offset), so inserting it never grows the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub u16);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Distinguishes ordinary data packets from the label-switching control
/// packet the last middlebox sends back to the proxy (§III.E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// An ordinary data packet.
    Data,
    /// Control: "label path established for flow `f`" — carries the flow
    /// identifier so the proxy can flag its flow-table entry.
    LabelReady(FiveTuple),
}

/// A simulated packet.
///
/// A packet always carries its *inner* header (the original flow header,
/// possibly with a rewritten destination under label switching) and at most
/// a stack of *outer* tunnel headers added by IP-over-IP encapsulation.
///
/// `weight` supports the exact flow-aggregate fast path: one `Packet` can
/// represent `weight` identical packets of the same flow; every counter in
/// the simulator adds `weight` instead of 1. All steering decisions in the
/// system are per-flow (hash-based), so aggregation is lossless for load
/// accounting.
///
/// # Example
///
/// ```
/// use sdm_netsim::{Packet, FiveTuple, Protocol, Ipv4Addr};
/// let ft = FiveTuple {
///     src: "10.0.0.1".parse().unwrap(),
///     dst: "10.1.0.1".parse().unwrap(),
///     src_port: 4000, dst_port: 80, proto: Protocol::Tcp,
/// };
/// let mut p = Packet::data(ft, 1000);
/// assert_eq!(p.wire_len(), 1020);
/// p.encapsulate("172.16.0.1".parse().unwrap(), "172.16.0.2".parse().unwrap());
/// assert_eq!(p.wire_len(), 1040); // one extra IP header
/// assert_eq!(p.current_dst().to_string(), "172.16.0.2");
/// p.decapsulate().unwrap();
/// assert_eq!(p.current_dst(), ft.dst);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Inner (original) header. Label switching rewrites `inner.dst`.
    pub inner: Ipv4Header,
    /// Outer tunnel header stack; last element is outermost.
    outer: Vec<Ipv4Header>,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Steering label (§III.E), if inserted.
    pub label: Option<Label>,
    /// Transport payload length in bytes (excludes all IP headers).
    pub payload_len: u32,
    /// Number of identical packets this object represents (≥ 1).
    pub weight: u64,
    /// Data or control.
    pub kind: PacketKind,
    /// The original five-tuple at creation time; immutable bookkeeping used
    /// by measurements and tests even after label switching rewrites the
    /// inner destination.
    pub original: FiveTuple,
    /// Remaining strict source-route segments (the SR-style baseline of
    /// §V): each segment is the next address to visit, the last being the
    /// flow's true destination. Each pending segment costs
    /// [`SEGMENT_LEN`] bytes of header on the wire.
    source_route: Vec<Ipv4Addr>,
    /// Set when this packet is an emulated IP fragment.
    pub frag: Option<FragInfo>,
    /// When the packet entered the network (stamped by the inject calls);
    /// used for end-to-end latency accounting.
    pub injected_at: Option<SimTimeStamp>,
}

/// Every byte here is paid once per packet in flight, and `campus_pkt_burst`
/// has a million in flight at tick 0 — the arena is most of that run's
/// peak RSS. Two `Vec`s (48 B) and four `Option`s are what is left to
/// shrink; growing past this needs a reason.
const _: () = assert!(std::mem::size_of::<Packet>() <= 152);

/// A newtype alias for injection timestamps (ticks), kept separate from
/// the engine's `SimTime` so the packet module stays engine-independent.
pub type SimTimeStamp = u64;

/// Wire cost in bytes of one pending source-route segment.
pub const SEGMENT_LEN: u32 = 4;

/// Fragment bookkeeping when the simulator emulates IP fragmentation
/// (rather than only counting MTU violations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragInfo {
    /// Identifier of the original packet (unique per split).
    pub id: u64,
    /// This fragment's index, 0-based.
    pub index: u16,
    /// Total number of fragments of the original packet.
    pub count: u16,
}

impl Packet {
    /// Creates a data packet for flow `ft` with the given payload length.
    pub fn data(ft: FiveTuple, payload_len: u32) -> Self {
        Packet::with_weight(ft, payload_len, 1)
    }

    /// Creates an aggregate data packet representing `weight` identical
    /// packets of flow `ft`.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0`.
    pub fn with_weight(ft: FiveTuple, payload_len: u32, weight: u64) -> Self {
        assert!(weight >= 1, "packet weight must be at least 1");
        Packet {
            inner: Ipv4Header {
                src: ft.src,
                dst: ft.dst,
                proto: ft.proto,
                ttl: DEFAULT_TTL,
            },
            outer: Vec::new(),
            src_port: ft.src_port,
            dst_port: ft.dst_port,
            label: None,
            payload_len,
            weight,
            kind: PacketKind::Data,
            original: ft,
            source_route: Vec::new(),
            frag: None,
            injected_at: None,
        }
    }

    /// Creates the label-switching control packet sent from the last
    /// middlebox back to the proxy (§III.E).
    pub fn control(src: Ipv4Addr, dst: Ipv4Addr, flow: FiveTuple) -> Self {
        Packet {
            inner: Ipv4Header {
                src,
                dst,
                proto: Protocol::Other(253),
                ttl: DEFAULT_TTL,
            },
            outer: Vec::new(),
            src_port: 0,
            dst_port: 0,
            label: None,
            payload_len: 16,
            weight: 1,
            kind: PacketKind::LabelReady(flow),
            original: flow,
            source_route: Vec::new(),
            frag: None,
            injected_at: None,
        }
    }

    /// Creates one emulated IP fragment of this packet carrying
    /// `payload_len` payload bytes.
    ///
    /// The fragment is deliberately lightweight: it carries only the header
    /// routers currently forward on (the outermost one) and allocates
    /// nothing — the parent keeps its tunnel stack and source route, and
    /// the engine accounts the parent's extra header bytes per fragment
    /// separately. Fragments always have weight 1 (aggregates are never
    /// fragmented).
    pub fn fragment_of(&self, info: FragInfo, payload_len: u32) -> Packet {
        Packet {
            inner: *self.outermost(),
            outer: Vec::new(),
            src_port: self.src_port,
            dst_port: self.dst_port,
            label: None,
            payload_len,
            weight: 1,
            kind: PacketKind::Data,
            original: self.original,
            source_route: Vec::new(),
            frag: Some(info),
            injected_at: self.injected_at,
        }
    }

    /// The flow identifier as seen in the *current inner* header (after any
    /// label-switching rewrite of the destination).
    pub fn five_tuple(&self) -> FiveTuple {
        FiveTuple {
            src: self.inner.src,
            dst: self.inner.dst,
            src_port: self.src_port,
            dst_port: self.dst_port,
            proto: self.inner.proto,
        }
    }

    /// Pushes an IP-over-IP tunnel header with the given endpoints.
    ///
    /// Mirrors §III.B: "the proxy adds a new IP header on top of the
    /// original one".
    pub fn encapsulate(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        self.outer.push(Ipv4Header {
            src,
            dst,
            proto: Protocol::IpInIp,
            ttl: DEFAULT_TTL,
        });
    }

    /// Pops the outermost tunnel header, returning it.
    ///
    /// Returns `None` when the packet is not encapsulated.
    pub fn decapsulate(&mut self) -> Option<Ipv4Header> {
        self.outer.pop()
    }

    /// Whether the packet currently carries a tunnel header.
    pub fn is_encapsulated(&self) -> bool {
        !self.outer.is_empty()
    }

    /// Number of tunnel headers currently on the packet.
    pub fn tunnel_depth(&self) -> usize {
        self.outer.len()
    }

    /// The outermost header (the one routers act on).
    pub fn outermost(&self) -> &Ipv4Header {
        self.outer.last().unwrap_or(&self.inner)
    }

    /// Mutable access to the outermost header.
    pub fn outermost_mut(&mut self) -> &mut Ipv4Header {
        self.outer.last_mut().unwrap_or(&mut self.inner)
    }

    /// The destination address routers currently forward on.
    pub fn current_dst(&self) -> Ipv4Addr {
        self.outermost().dst
    }

    /// The source address of the outermost header.
    pub fn current_src(&self) -> Ipv4Addr {
        self.outermost().src
    }

    /// Total on-the-wire length: payload plus one IP header per
    /// encapsulation level plus the inner header plus any pending
    /// source-route segments.
    pub fn wire_len(&self) -> u32 {
        self.payload_len
            + IP_HEADER_LEN * (1 + self.outer.len() as u32)
            + SEGMENT_LEN * self.source_route.len() as u32
    }

    /// Installs a strict source route: the packet will visit each segment
    /// in order, the last being the true destination. The current
    /// destination is set to the first segment.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty.
    pub fn set_source_route(&mut self, segments: Vec<Ipv4Addr>) {
        assert!(!segments.is_empty(), "a source route needs at least one segment");
        let mut rest = segments;
        let first = rest.remove(0);
        self.inner.dst = first;
        self.source_route = rest;
    }

    /// Advances the source route: rewrites the destination to the next
    /// pending segment and drops it from the header. Returns false when no
    /// segments remain.
    pub fn advance_source_route(&mut self) -> bool {
        if self.source_route.is_empty() {
            return false;
        }
        let next = self.source_route.remove(0);
        self.inner.dst = next;
        true
    }

    /// Whether the packet still carries source-route segments.
    pub fn has_source_route(&self) -> bool {
        !self.source_route.is_empty()
    }

    /// The pending source-route segments (next first).
    pub fn source_route(&self) -> &[Ipv4Addr] {
        &self.source_route
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pkt[{}{}{} len={} w={}]",
            self.five_tuple(),
            if self.is_encapsulated() { " tunneled" } else { "" },
            match self.label {
                Some(l) => format!(" {l}"),
                None => String::new(),
            },
            self.wire_len(),
            self.weight,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft() -> FiveTuple {
        FiveTuple {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.1.0.9".parse().unwrap(),
            src_port: 1234,
            dst_port: 80,
            proto: Protocol::Tcp,
        }
    }

    #[test]
    fn wire_len_counts_headers() {
        let mut p = Packet::data(ft(), 100);
        assert_eq!(p.wire_len(), 120);
        p.encapsulate(Ipv4Addr(1), Ipv4Addr(2));
        assert_eq!(p.wire_len(), 140);
        p.encapsulate(Ipv4Addr(3), Ipv4Addr(4));
        assert_eq!(p.wire_len(), 160);
        p.decapsulate();
        p.decapsulate();
        assert_eq!(p.wire_len(), 120);
        assert_eq!(p.decapsulate(), None);
    }

    #[test]
    fn encapsulation_changes_routed_dst_only() {
        let mut p = Packet::data(ft(), 100);
        p.encapsulate(Ipv4Addr(77), Ipv4Addr(88));
        assert_eq!(p.current_dst(), Ipv4Addr(88));
        assert_eq!(p.current_src(), Ipv4Addr(77));
        assert_eq!(p.five_tuple(), ft());
        assert_eq!(p.outermost().proto, Protocol::IpInIp);
    }

    #[test]
    fn stable_hash_is_deterministic_and_spreads() {
        let a = ft().stable_hash();
        assert_eq!(a, ft().stable_hash());
        let mut other = ft();
        other.src_port = 1235;
        assert_ne!(a, other.stable_hash());
        let u = ft().unit_hash();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn unit_hash_is_roughly_uniform() {
        // bucket 10k distinct flows into 10 bins; each should get 600..1400
        let mut bins = [0u32; 10];
        for i in 0..10_000u32 {
            let t = FiveTuple {
                src: Ipv4Addr(0x0a000000 + i),
                dst: Ipv4Addr(0x0a010000),
                src_port: (i % 50_000) as u16,
                dst_port: 80,
                proto: Protocol::Tcp,
            };
            bins[(t.unit_hash() * 10.0) as usize] += 1;
        }
        for (i, &b) in bins.iter().enumerate() {
            assert!((600..1400).contains(&b), "bin {i} has {b}");
        }
    }

    #[test]
    fn weight_validation() {
        let p = Packet::with_weight(ft(), 10, 500);
        assert_eq!(p.weight, 500);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn zero_weight_rejected() {
        let _ = Packet::with_weight(ft(), 10, 0);
    }

    #[test]
    fn control_packet_carries_flow() {
        let c = Packet::control(Ipv4Addr(5), Ipv4Addr(6), ft());
        assert_eq!(c.kind, PacketKind::LabelReady(ft()));
        assert_eq!(c.current_dst(), Ipv4Addr(6));
        assert!(!c.is_encapsulated());
    }

    #[test]
    fn label_rewrite_keeps_original() {
        let mut p = Packet::data(ft(), 10);
        p.label = Some(Label(42));
        p.inner.dst = Ipv4Addr(999); // label switching rewrites dst
        assert_eq!(p.original, ft());
        assert_ne!(p.five_tuple(), ft());
    }

    #[test]
    fn protocol_numbers_roundtrip() {
        for n in [0u8, 4, 6, 17, 200] {
            assert_eq!(Protocol::from(n).number(), n);
        }
    }

    #[test]
    fn source_route_advances_and_costs_header_bytes() {
        let mut p = Packet::data(ft(), 100);
        let base = p.wire_len();
        let final_dst = ft().dst;
        p.set_source_route(vec![Ipv4Addr(10), Ipv4Addr(20), final_dst]);
        // first segment becomes the routed destination, two remain in-header
        assert_eq!(p.current_dst(), Ipv4Addr(10));
        assert_eq!(p.wire_len(), base + 2 * SEGMENT_LEN);
        assert!(p.has_source_route());
        assert!(p.advance_source_route());
        assert_eq!(p.current_dst(), Ipv4Addr(20));
        assert_eq!(p.wire_len(), base + SEGMENT_LEN);
        assert!(p.advance_source_route());
        assert_eq!(p.current_dst(), final_dst);
        assert_eq!(p.wire_len(), base);
        assert!(!p.advance_source_route());
        assert!(!p.has_source_route());
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_source_route_rejected() {
        let mut p = Packet::data(ft(), 100);
        p.set_source_route(Vec::new());
    }

    #[test]
    fn display_forms() {
        let p = Packet::data(ft(), 10);
        let s = p.to_string();
        assert!(s.contains("10.0.0.1:1234"));
        assert!(Label(7).to_string() == "L7");
    }
}
