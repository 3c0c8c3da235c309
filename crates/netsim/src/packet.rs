//! Packets: IPv4-style headers, flow identifiers, IP-over-IP encapsulation
//! and the steering label of §III.E.
//!
//! Invariants the rest of the simulator leans on:
//!
//! * the encapsulation stack is strictly LIFO and at most
//!   [`MAX_TUNNEL_DEPTH`] deep — [`Packet::encapsulate`] pushes an outer
//!   header (or refuses with [`HeaderFull`]), [`Packet::decapsulate`] pops
//!   it, and [`Packet::current_dst`] always reads the outermost header;
//! * [`Packet::five_tuple`] is the *inner* (original) flow identity, no
//!   matter how many tunnel layers are stacked on top — flow stickiness
//!   and shard/batch grouping key on it;
//! * `weight` is the packet multiplicity of an aggregate: every counter
//!   in the system adds `weight`, never `1`, so an aggregate of `w`
//!   packets is indistinguishable from `w` unit packets in all
//!   statistics.
//!
//! A `Packet` is a `Copy` record of 64 bytes that owns no heap: the tunnel
//! header is inline, and what does not fit a fixed header — the segments
//! of a strict source route, a fragment's link to the packet it was split
//! from — lives beside the [`PacketArena`](crate::PacketArena) slot and is
//! freed with it. In-flight bytes are therefore one arena slot per packet.

use std::fmt;

use crate::addr::Ipv4Addr;
use crate::arena::PacketId;

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
///
/// Deliberately not `Hash` (nor `Ord`): per-flow state is keyed on
/// [`FiveTuple::stable_hash`] through the policy crate's open-addressed
/// flow and label tables, so a std or Fx hash map keyed by a flow does not
/// compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Control: "label path established for the flow" — the flow is the
    /// packet's own [`Packet::original`] (see [`Packet::control`]).
    LabelReady,
}

/// The deepest IP-over-IP nesting a packet carries. Steering never nests
/// tunnels: a proxy encapsulates a packet fresh from its stub, a
/// middlebox decapsulates before it re-encapsulates towards the next box,
/// and the destination proxy strips every header. One inline level is
/// therefore all the paper's architecture needs; each further level
/// would cost 12 bytes in every packet in flight and no longer fit the
/// 64-byte record. A push beyond it is refused with [`HeaderFull`].
pub const MAX_TUNNEL_DEPTH: usize = 1;

/// A header operation the packet's fixed layout cannot hold: a tunnel
/// header beyond [`MAX_TUNNEL_DEPTH`], or a source route with more than
/// `u16::MAX` pending segments. The device attempting it drops the packet
/// and counts it — a model limit, refused rather than worked around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderFull;

impl fmt::Display for HeaderFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("packet header is full")
    }
}

impl std::error::Error for HeaderFull {}

/// Filler for an unused tunnel-stack slot (cleared on pop, so derived
/// equality compares only the live stack).
const NO_HEADER: Ipv4Header = Ipv4Header {
    src: Ipv4Addr(0),
    dst: Ipv4Addr(0),
    proto: Protocol::IpInIp,
    ttl: 0,
};

/// [`Packet::injected_at`]'s "never injected" sentinel.
const NOT_INJECTED: SimTimeStamp = SimTimeStamp::MAX;

/// Payload bytes of a label-ready control packet (the flow identifier).
const CONTROL_PAYLOAD: u32 = 16;

/// A simulated packet.
///
/// A packet always carries its *inner* header (the original flow header,
/// possibly with a rewritten destination under label switching) and at most
/// [`MAX_TUNNEL_DEPTH`] *outer* tunnel headers added by IP-over-IP
/// encapsulation.
///
/// `weight` supports the exact flow-aggregate fast path: one `Packet` can
/// represent `weight` identical packets of the same flow; every counter in
/// the simulator adds `weight` instead of 1. All steering decisions in the
/// system are per-flow (hash-based), so aggregation is lossless for load
/// accounting.
///
/// The field order is the memory order (`repr(C)`, no padding): offsets
/// are listed in DESIGN.md §8, "Packet layout".
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
/// p.encapsulate("172.16.0.1".parse().unwrap(), "172.16.0.2".parse().unwrap())
///     .expect("one tunnel level fits");
/// assert_eq!(p.wire_len(), 1040); // one extra IP header
/// assert_eq!(p.current_dst().to_string(), "172.16.0.2");
/// p.decapsulate().unwrap();
/// assert_eq!(p.current_dst(), ft.dst);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct Packet {
    /// When the packet entered the network ([`NOT_INJECTED`] until the
    /// inject calls stamp it); used for end-to-end latency accounting.
    injected_at: SimTimeStamp,
    /// Inner (original) header. Label switching rewrites `inner.dst`.
    pub inner: Ipv4Header,
    /// Tunnel header stack, outermost at `depth - 1`; slots at and above
    /// `depth` hold [`NO_HEADER`].
    outer: [Ipv4Header; MAX_TUNNEL_DEPTH],
    /// Transport payload length in bytes (excludes all IP headers).
    pub payload_len: u32,
    /// Number of identical packets this object represents (≥ 1).
    weight: u32,
    /// `inner.dst` as the packet was created — the one header field
    /// steering rewrites, so the one [`Packet::original`] keeps twice.
    orig_dst: Ipv4Addr,
    /// Set when this packet is an emulated IP fragment.
    pub frag: Option<FragInfo>,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Steering label (§III.E), if inserted.
    pub label: Option<Label>,
    /// Pending strict source-route segments (the SR-style baseline of
    /// §V), each costing [`SEGMENT_LEN`] bytes on the wire. The segments
    /// themselves live in the arena beside the packet's slot.
    pub(crate) route_left: u16,
    /// Live entries of `outer`.
    depth: u8,
    /// Data or control.
    pub kind: PacketKind,
}

/// Every byte here is paid once per packet in flight, and `campus_pkt_burst`
/// has a million in flight at tick 0 — the arena is most of that run's
/// peak RSS. A slot is an `Option<Packet>`, which the enum fields' niches
/// keep at the packet's own size.
const _: () = assert!(std::mem::size_of::<Packet>() <= 64);
const _: () = assert!(std::mem::size_of::<Option<Packet>>() <= 64);
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<Packet>()
};

/// A newtype alias for injection timestamps (ticks), kept separate from
/// the engine's `SimTime` so the packet module stays engine-independent.
pub type SimTimeStamp = u64;

/// Wire cost in bytes of one pending source-route segment.
pub const SEGMENT_LEN: u32 = 4;

/// Fragment bookkeeping when the simulator emulates IP fragmentation
/// (rather than only counting MTU violations). Everything else about the
/// split — how many fragments are outstanding, the parent's extra header
/// bytes — is the engine's reassembly state, keyed by `parent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragInfo {
    /// The packet this fragment was split from, parked in the arena until
    /// its fragments are reassembled.
    pub parent: PacketId,
}

impl Packet {
    /// Creates a data packet for flow `ft` with the given payload length.
    pub fn data(ft: FiveTuple, payload_len: u32) -> Self {
        Packet::with_weight(ft, payload_len, 1)
    }

    /// Creates an aggregate data packet representing `weight` identical
    /// packets of flow `ft`. One aggregate stands for at most `u32::MAX`
    /// packets; [`Packet::aggregates`] splits a larger count.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0`.
    pub fn with_weight(ft: FiveTuple, payload_len: u32, weight: u32) -> Self {
        assert!(weight >= 1, "packet weight must be at least 1");
        Packet {
            injected_at: NOT_INJECTED,
            inner: Ipv4Header {
                src: ft.src,
                dst: ft.dst,
                proto: ft.proto,
                ttl: DEFAULT_TTL,
            },
            outer: [NO_HEADER; MAX_TUNNEL_DEPTH],
            payload_len,
            weight,
            orig_dst: ft.dst,
            frag: None,
            src_port: ft.src_port,
            dst_port: ft.dst_port,
            label: None,
            route_left: 0,
            depth: 0,
            kind: PacketKind::Data,
        }
    }

    /// `packets` packets of flow `ft` as the fewest aggregates the weight
    /// allows: full `u32::MAX` aggregates, then the remainder (nothing for
    /// 0). Every counter adds `weight`, so the split is unobservable.
    pub fn aggregates(
        ft: FiveTuple,
        payload_len: u32,
        packets: u64,
    ) -> impl Iterator<Item = Packet> {
        let cap = u64::from(u32::MAX);
        // The remainder is below `u32::MAX`, so the cast is exact.
        let (full, rest) = (packets / cap, (packets % cap) as u32);
        let max = Packet::with_weight(ft, payload_len, u32::MAX);
        (0..full)
            .map(move |_| max)
            .chain((rest > 0).then(|| Packet::with_weight(ft, payload_len, rest)))
    }

    /// Creates the label-switching control packet the last middlebox sends
    /// back to the proxy at `to` (§III.E), reporting `flow`: the flow's own
    /// header with the destination rewritten to the proxy — the rewrite
    /// label switching itself applies — so [`Packet::original`] names the
    /// flow and no extra field carries it.
    pub fn control(to: Ipv4Addr, flow: FiveTuple) -> Self {
        let mut p = Packet::data(flow, CONTROL_PAYLOAD);
        p.inner.dst = to;
        p.kind = PacketKind::LabelReady;
        p
    }

    /// Creates one emulated IP fragment of this packet carrying
    /// `payload_len` payload bytes.
    ///
    /// The fragment carries only the header routers currently forward on
    /// (the outermost one): the parent keeps its tunnel stack and source
    /// route, and the engine accounts the parent's extra header bytes per
    /// fragment separately. Its flow is the parent's, resolved through
    /// `info` ([`PacketArena::original`](crate::PacketArena::original)).
    /// Fragments always have weight 1 (aggregates are never fragmented).
    pub fn fragment_of(&self, info: FragInfo, payload_len: u32) -> Packet {
        Packet {
            inner: *self.outermost(),
            outer: [NO_HEADER; MAX_TUNNEL_DEPTH],
            payload_len,
            weight: 1,
            frag: Some(info),
            label: None,
            route_left: 0,
            depth: 0,
            kind: PacketKind::Data,
            ..*self
        }
    }

    /// Number of identical packets this object represents (≥ 1) — what
    /// every counter adds.
    pub fn weight(&self) -> u64 {
        u64::from(self.weight)
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

    /// The flow identifier at creation time, immutable bookkeeping used by
    /// measurements and traces even after label switching or a
    /// source route rewrites the inner destination. A fragment's headers
    /// are its parent's outermost ones; its flow is resolved through the
    /// parent by [`PacketArena::original`](crate::PacketArena::original).
    pub fn original(&self) -> FiveTuple {
        FiveTuple {
            dst: self.orig_dst,
            ..self.five_tuple()
        }
    }

    /// When the packet entered the network, if it has been injected.
    pub fn injected_at(&self) -> Option<SimTimeStamp> {
        (self.injected_at != NOT_INJECTED).then_some(self.injected_at)
    }

    /// Records that the packet entered the network at `at`; a packet
    /// already stamped keeps its first stamp.
    pub fn stamp_injection(&mut self, at: SimTimeStamp) {
        if self.injected_at == NOT_INJECTED {
            self.injected_at = at;
        }
    }

    /// Pushes an IP-over-IP tunnel header with the given endpoints.
    ///
    /// Mirrors §III.B: "the proxy adds a new IP header on top of the
    /// original one". A packet already [`MAX_TUNNEL_DEPTH`] deep is left
    /// unchanged and the push refused.
    #[must_use = "a refused tunnel header leaves the packet unsteered; drop and count it"]
    pub fn encapsulate(&mut self, src: Ipv4Addr, dst: Ipv4Addr) -> Result<(), HeaderFull> {
        let slot = self
            .outer
            .get_mut(usize::from(self.depth))
            .ok_or(HeaderFull)?;
        *slot = Ipv4Header {
            src,
            dst,
            proto: Protocol::IpInIp,
            ttl: DEFAULT_TTL,
        };
        self.depth += 1;
        Ok(())
    }

    /// Pops the outermost tunnel header, returning it.
    ///
    /// Returns `None` when the packet is not encapsulated.
    pub fn decapsulate(&mut self) -> Option<Ipv4Header> {
        let top = self.depth.checked_sub(1)?;
        let hdr = std::mem::replace(self.outer.get_mut(usize::from(top))?, NO_HEADER);
        self.depth = top;
        Some(hdr)
    }

    /// Whether the packet currently carries a tunnel header.
    pub fn is_encapsulated(&self) -> bool {
        self.depth > 0
    }

    /// Number of tunnel headers currently on the packet.
    pub fn tunnel_depth(&self) -> usize {
        usize::from(self.depth)
    }

    /// The outermost header (the one routers act on).
    pub fn outermost(&self) -> &Ipv4Header {
        self.outer[..usize::from(self.depth)]
            .last()
            .unwrap_or(&self.inner)
    }

    /// Mutable access to the outermost header.
    pub fn outermost_mut(&mut self) -> &mut Ipv4Header {
        self.outer[..usize::from(self.depth)]
            .last_mut()
            .unwrap_or(&mut self.inner)
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
            + IP_HEADER_LEN * (1 + u32::from(self.depth))
            + SEGMENT_LEN * u32::from(self.route_left)
    }

    /// Whether the packet still carries source-route segments (installed
    /// and advanced through the arena: see
    /// [`PacketArena::set_source_route`](crate::PacketArena::set_source_route)).
    pub fn has_source_route(&self) -> bool {
        self.route_left > 0
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
        for level in 1..=MAX_TUNNEL_DEPTH as u32 {
            p.encapsulate(Ipv4Addr(level), Ipv4Addr(level + 100))
                .unwrap();
            assert_eq!(p.wire_len(), 120 + 20 * level);
        }
        for _ in 0..MAX_TUNNEL_DEPTH {
            assert!(p.decapsulate().is_some());
        }
        assert_eq!(p.wire_len(), 120);
        assert_eq!(p.decapsulate(), None);
        assert_eq!(p, Packet::data(ft(), 100), "popped slots are cleared");
    }

    #[test]
    fn full_tunnel_stack_refuses_and_keeps_the_packet() {
        let mut p = Packet::data(ft(), 100);
        for level in 0..MAX_TUNNEL_DEPTH as u32 {
            p.encapsulate(Ipv4Addr(level), Ipv4Addr(level + 1)).unwrap();
        }
        let full = p;
        assert_eq!(p.encapsulate(Ipv4Addr(7), Ipv4Addr(8)), Err(HeaderFull));
        assert_eq!(p, full);
        assert_eq!(p.tunnel_depth(), MAX_TUNNEL_DEPTH);
    }

    #[test]
    fn encapsulation_changes_routed_dst_only() {
        let mut p = Packet::data(ft(), 100);
        p.encapsulate(Ipv4Addr(77), Ipv4Addr(88)).unwrap();
        assert_eq!(p.current_dst(), Ipv4Addr(88));
        assert_eq!(p.current_src(), Ipv4Addr(77));
        assert_eq!(p.five_tuple(), ft());
        assert_eq!(p.outermost().proto, Protocol::IpInIp);
        p.outermost_mut().ttl -= 1;
        assert_eq!(p.inner.ttl, DEFAULT_TTL, "routers decrement the outer TTL");
    }

    /// The field order is the memory order: these are the offsets
    /// DESIGN.md §8 lists.
    #[test]
    fn layout_is_the_documented_one() {
        use std::mem::offset_of;
        let offsets = [
            offset_of!(Packet, injected_at),
            offset_of!(Packet, inner),
            offset_of!(Packet, outer),
            offset_of!(Packet, payload_len),
            offset_of!(Packet, weight),
            offset_of!(Packet, orig_dst),
            offset_of!(Packet, frag),
            offset_of!(Packet, src_port),
            offset_of!(Packet, dst_port),
            offset_of!(Packet, label),
            offset_of!(Packet, route_left),
            offset_of!(Packet, depth),
            offset_of!(Packet, kind),
        ];
        assert_eq!(offsets, [0, 8, 20, 32, 36, 40, 44, 52, 54, 56, 60, 62, 63]);
        assert_eq!(std::mem::size_of::<Packet>(), 64);
        assert_eq!(std::mem::size_of::<Option<Packet>>(), 64);
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
        assert_eq!(p.weight(), 500);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn zero_weight_rejected() {
        let _ = Packet::with_weight(ft(), 10, 0);
    }

    #[test]
    fn aggregates_split_at_the_weight_limit() {
        let weights =
            |n: u64| -> Vec<u32> { Packet::aggregates(ft(), 10, n).map(|p| p.weight).collect() };
        assert!(weights(0).is_empty());
        assert_eq!(weights(5_000), [5_000]);
        assert_eq!(weights(u64::from(u32::MAX)), [u32::MAX]);
        assert_eq!(weights((1 << 32) + 5), [u32::MAX, 6]);
        assert_eq!(weights(2 * u64::from(u32::MAX)), [u32::MAX, u32::MAX]);
    }

    #[test]
    fn control_packet_carries_flow() {
        let c = Packet::control(Ipv4Addr(6), ft());
        assert_eq!(c.kind, PacketKind::LabelReady);
        assert_eq!(c.original(), ft());
        assert_eq!(c.current_dst(), Ipv4Addr(6));
        assert_eq!(c.wire_len(), CONTROL_PAYLOAD + IP_HEADER_LEN);
        assert!(!c.is_encapsulated());
    }

    #[test]
    fn label_rewrite_keeps_original() {
        let mut p = Packet::data(ft(), 10);
        p.label = Some(Label(42));
        p.inner.dst = Ipv4Addr(999); // label switching rewrites dst
        assert_eq!(p.original(), ft());
        assert_ne!(p.five_tuple(), ft());
    }

    #[test]
    fn injection_stamp_is_set_once() {
        let mut p = Packet::data(ft(), 10);
        assert_eq!(p.injected_at(), None);
        p.stamp_injection(7);
        p.stamp_injection(9);
        assert_eq!(p.injected_at(), Some(7));
    }

    #[test]
    fn protocol_numbers_roundtrip() {
        for n in [0u8, 4, 6, 17, 200] {
            assert_eq!(Protocol::from(n).number(), n);
        }
    }

    #[test]
    fn display_forms() {
        let p = Packet::data(ft(), 10);
        let s = p.to_string();
        assert!(s.contains("10.0.0.1:1234"));
        assert!(Label(7).to_string() == "L7");
    }
}
