//! Traffic descriptors: the multi-field, wildcard-capable match part of a
//! policy (§II, Table I).

use std::fmt;

use sdm_netsim::{FiveTuple, Prefix, Protocol};

/// Match condition on a transport port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortMatch {
    /// Wildcard `*`.
    Any,
    /// A single port, e.g. `80`.
    Exact(u16),
    /// An inclusive range `lo..=hi`.
    Range(u16, u16),
}

impl PortMatch {
    /// True if `port` satisfies this condition.
    pub fn matches(self, port: u16) -> bool {
        match self {
            PortMatch::Any => true,
            PortMatch::Exact(p) => port == p,
            PortMatch::Range(lo, hi) => (lo..=hi).contains(&port),
        }
    }

    /// True if this is the wildcard.
    pub fn is_any(self) -> bool {
        self == PortMatch::Any
    }
}

impl fmt::Display for PortMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortMatch::Any => f.write_str("*"),
            PortMatch::Exact(p) => write!(f, "{p}"),
            PortMatch::Range(lo, hi) => write!(f, "{lo}-{hi}"),
        }
    }
}

impl From<u16> for PortMatch {
    fn from(p: u16) -> Self {
        PortMatch::Exact(p)
    }
}

/// Match condition on the transport protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtoMatch {
    /// Wildcard `*`.
    Any,
    /// A specific protocol.
    Is(Protocol),
}

impl ProtoMatch {
    /// True if `proto` satisfies this condition.
    pub fn matches(self, proto: Protocol) -> bool {
        match self {
            ProtoMatch::Any => true,
            ProtoMatch::Is(p) => p == proto,
        }
    }
}

impl fmt::Display for ProtoMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoMatch::Any => f.write_str("*"),
            ProtoMatch::Is(p) => write!(f, "{p}"),
        }
    }
}

/// The match half of a policy: source/destination address prefixes (with
/// wildcards), transport ports and protocol, exactly the five columns of the
/// paper's Table I (protocol defaulting to wildcard).
///
/// # Example
///
/// Policy 3 of Table I — "web access from external hosts to internal web
/// servers":
///
/// ```
/// use sdm_policy::TrafficDescriptor;
/// use sdm_netsim::{FiveTuple, Protocol};
///
/// // *, subnet a, *, 80
/// let d = TrafficDescriptor::new()
///     .dst_prefix("10.0.0.0/8".parse().unwrap())
///     .dst_port(80);
/// let pkt = FiveTuple {
///     src: "93.184.216.34".parse().unwrap(),
///     dst: "10.0.0.5".parse().unwrap(),
///     src_port: 50000, dst_port: 80, proto: Protocol::Tcp,
/// };
/// assert!(d.matches(&pkt));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrafficDescriptor {
    /// Source address prefix (wildcard: `Prefix::ANY`).
    pub src: Prefix,
    /// Destination address prefix (wildcard: `Prefix::ANY`).
    pub dst: Prefix,
    /// Source port condition.
    pub src_port: PortMatch,
    /// Destination port condition.
    pub dst_port: PortMatch,
    /// Protocol condition.
    pub proto: ProtoMatch,
}

impl Default for TrafficDescriptor {
    fn default() -> Self {
        TrafficDescriptor {
            src: Prefix::ANY,
            dst: Prefix::ANY,
            src_port: PortMatch::Any,
            dst_port: PortMatch::Any,
            proto: ProtoMatch::Any,
        }
    }
}

impl TrafficDescriptor {
    /// An all-wildcard descriptor; narrow it with the builder methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts the source address to a prefix.
    pub fn src_prefix(mut self, p: Prefix) -> Self {
        self.src = p;
        self
    }

    /// Restricts the destination address to a prefix.
    pub fn dst_prefix(mut self, p: Prefix) -> Self {
        self.dst = p;
        self
    }

    /// Restricts the source port.
    pub fn src_port(mut self, p: impl Into<PortMatch>) -> Self {
        self.src_port = p.into();
        self
    }

    /// Restricts the destination port.
    pub fn dst_port(mut self, p: impl Into<PortMatch>) -> Self {
        self.dst_port = p.into();
        self
    }

    /// Restricts the protocol.
    pub fn protocol(mut self, p: Protocol) -> Self {
        self.proto = ProtoMatch::Is(p);
        self
    }

    /// True if the flow identifier satisfies every field condition.
    pub fn matches(&self, ft: &FiveTuple) -> bool {
        self.src.contains(ft.src)
            && self.dst.contains(ft.dst)
            && self.src_port.matches(ft.src_port)
            && self.dst_port.matches(ft.dst_port)
            && self.proto.matches(ft.proto)
    }

    /// True if any source address matched by this descriptor lies inside
    /// `subnet` — the controller's test for "descriptors \[that\] contain at
    /// least one source address from the subnet behind x" (§III.B).
    pub fn source_overlaps(&self, subnet: Prefix) -> bool {
        self.src.overlaps(subnet)
    }

    /// True if every packet matched by `self` is also matched by `other` —
    /// i.e. `other` *covers* `self`. Used to detect shadowed policies
    /// under first-match semantics.
    pub fn covered_by(&self, other: &TrafficDescriptor) -> bool {
        prefix_subset(self.src, other.src)
            && prefix_subset(self.dst, other.dst)
            && port_subset(self.src_port, other.src_port)
            && port_subset(self.dst_port, other.dst_port)
            && proto_subset(self.proto, other.proto)
    }
}

/// True if every address in `a` is inside `b`.
fn prefix_subset(a: Prefix, b: Prefix) -> bool {
    b.len() <= a.len() && b.contains(a.addr())
}

/// True if every port matched by `a` is matched by `b`.
fn port_subset(a: PortMatch, b: PortMatch) -> bool {
    let (alo, ahi) = match a {
        PortMatch::Any => (0, u16::MAX),
        PortMatch::Exact(p) => (p, p),
        PortMatch::Range(lo, hi) => (lo, hi),
    };
    match b {
        PortMatch::Any => true,
        PortMatch::Exact(p) => alo == p && ahi == p,
        PortMatch::Range(lo, hi) => lo <= alo && ahi <= hi,
    }
}

/// True if every protocol matched by `a` is matched by `b`.
fn proto_subset(a: ProtoMatch, b: ProtoMatch) -> bool {
    match (a, b) {
        (_, ProtoMatch::Any) => true,
        (ProtoMatch::Is(x), ProtoMatch::Is(y)) => x == y,
        (ProtoMatch::Any, ProtoMatch::Is(_)) => false,
    }
}

impl fmt::Display for TrafficDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let src = if self.src.is_any() {
            "*".to_string()
        } else {
            self.src.to_string()
        };
        let dst = if self.dst.is_any() {
            "*".to_string()
        } else {
            self.dst.to_string()
        };
        write!(
            f,
            "src={src} dst={dst} sport={} dport={} proto={}",
            self.src_port, self.dst_port, self.proto
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_netsim::Ipv4Addr;

    fn ft(src: &str, dst: &str, sp: u16, dp: u16) -> FiveTuple {
        FiveTuple {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            src_port: sp,
            dst_port: dp,
            proto: Protocol::Tcp,
        }
    }

    #[test]
    fn wildcard_matches_everything() {
        let d = TrafficDescriptor::new();
        assert!(d.matches(&ft("1.2.3.4", "5.6.7.8", 1, 2)));
    }

    #[test]
    fn port_matching() {
        assert!(PortMatch::Any.matches(0));
        assert!(PortMatch::Exact(80).matches(80));
        assert!(!PortMatch::Exact(80).matches(81));
        assert!(PortMatch::Range(10, 20).matches(10));
        assert!(PortMatch::Range(10, 20).matches(20));
        assert!(!PortMatch::Range(10, 20).matches(21));
    }

    #[test]
    fn proto_matching() {
        assert!(ProtoMatch::Any.matches(Protocol::Udp));
        assert!(ProtoMatch::Is(Protocol::Tcp).matches(Protocol::Tcp));
        assert!(!ProtoMatch::Is(Protocol::Tcp).matches(Protocol::Udp));
    }

    #[test]
    fn prefix_fields_constrain() {
        let d = TrafficDescriptor::new()
            .src_prefix("10.1.0.0/16".parse().unwrap())
            .dst_port(80);
        assert!(d.matches(&ft("10.1.2.3", "8.8.8.8", 1000, 80)));
        assert!(!d.matches(&ft("10.2.2.3", "8.8.8.8", 1000, 80)));
        assert!(!d.matches(&ft("10.1.2.3", "8.8.8.8", 1000, 443)));
    }

    #[test]
    fn protocol_constrains() {
        let d = TrafficDescriptor::new().protocol(Protocol::Udp);
        let mut t = ft("1.1.1.1", "2.2.2.2", 1, 2);
        assert!(!d.matches(&t));
        t.proto = Protocol::Udp;
        assert!(d.matches(&t));
    }

    #[test]
    fn overlap_checks() {
        let subnet: Prefix = "10.3.0.0/16".parse().unwrap();
        let d_any = TrafficDescriptor::new();
        assert!(d_any.source_overlaps(subnet));
        let d_in = TrafficDescriptor::new().src_prefix("10.3.128.0/17".parse().unwrap());
        assert!(d_in.source_overlaps(subnet));
        let d_out = TrafficDescriptor::new().src_prefix("10.4.0.0/16".parse().unwrap());
        assert!(!d_out.source_overlaps(subnet));
    }

    #[test]
    fn display_uses_wildcards() {
        let d = TrafficDescriptor::new().dst_port(80);
        let s = d.to_string();
        assert!(s.contains("src=*"));
        assert!(s.contains("dport=80"));
    }

    #[test]
    fn host_prefix_descriptor() {
        let a: Ipv4Addr = "10.0.0.7".parse().unwrap();
        let d = TrafficDescriptor::new().src_prefix(Prefix::host(a));
        assert!(d.matches(&ft("10.0.0.7", "2.2.2.2", 1, 2)));
        assert!(!d.matches(&ft("10.0.0.8", "2.2.2.2", 1, 2)));
    }
}
