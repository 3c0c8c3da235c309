//! IPv4-style addressing: addresses, prefixes, and the deterministic
//! addressing plan that assigns one stub subnet per edge router.

use std::fmt;
use std::str::FromStr;

use sdm_topology::{NetworkPlan, NodeId};

/// An IPv4 address, stored as a host-order `u32`.
///
/// # Example
///
/// ```
/// use sdm_netsim::Ipv4Addr;
/// let a: Ipv4Addr = "10.1.2.3".parse().unwrap();
/// assert_eq!(a.octets(), [10, 1, 2, 3]);
/// assert_eq!(a.to_string(), "10.1.2.3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// Builds an address from four octets.
    pub fn from_octets(o: [u8; 4]) -> Self {
        Ipv4Addr(u32::from_be_bytes(o))
    }

    /// The four octets of the address, most significant first.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// Error parsing an [`Ipv4Addr`] or [`Prefix`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddrError(String);

impl fmt::Display for ParseAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address syntax: {}", self.0)
    }
}

impl std::error::Error for ParseAddrError {}

impl FromStr for Ipv4Addr {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for o in &mut octets {
            *o = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| ParseAddrError(s.to_string()))?;
        }
        if parts.next().is_some() {
            return Err(ParseAddrError(s.to_string()));
        }
        Ok(Ipv4Addr::from_octets(octets))
    }
}

/// A CIDR prefix, e.g. `10.3.0.0/20`.
///
/// A prefix with length 0 matches every address (the wildcard `*` of the
/// paper's policy tables).
///
/// # Example
///
/// ```
/// use sdm_netsim::{Ipv4Addr, Prefix};
/// let p: Prefix = "10.3.0.0/16".parse().unwrap();
/// assert!(p.contains("10.3.200.1".parse().unwrap()));
/// assert!(!p.contains("10.4.0.1".parse().unwrap()));
/// assert!(Prefix::ANY.contains(Ipv4Addr(0xdeadbeef)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: Ipv4Addr,
    len: u8,
}

impl Prefix {
    /// The wildcard prefix `0.0.0.0/0`, matching every address.
    pub const ANY: Prefix = Prefix {
        addr: Ipv4Addr(0),
        len: 0,
    };

    /// Creates a prefix, masking `addr` down to `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix {
            addr: Ipv4Addr(addr.0 & Self::mask(len)),
            len,
        }
    }

    /// A /32 prefix matching exactly one address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Prefix::new(addr, 32)
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The (masked) network address.
    pub fn addr(self) -> Ipv4Addr {
        self.addr
    }

    /// The prefix length in bits. (`is_empty` would be meaningless for a
    /// prefix — length 0 is the full wildcard, see [`Prefix::is_any`].)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u8 {
        self.len
    }

    /// Whether this is the full wildcard (length 0).
    pub fn is_any(self) -> bool {
        self.len == 0
    }

    /// True if `a` falls inside this prefix.
    pub fn contains(self, a: Ipv4Addr) -> bool {
        (a.0 & Self::mask(self.len)) == self.addr.0
    }

    /// True if every address in `self` lies inside `other`.
    pub fn is_subset_of(self, other: Prefix) -> bool {
        other.len <= self.len && other.contains(self.addr)
    }

    /// True if the two prefixes share at least one address.
    pub fn overlaps(self, other: Prefix) -> bool {
        let len = self.len.min(other.len);
        (self.addr.0 & Self::mask(len)) == (other.addr.0 & Self::mask(len))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Prefix {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "*" {
            return Ok(Prefix::ANY);
        }
        let (a, l) = s.split_once('/').ok_or_else(|| ParseAddrError(s.to_string()))?;
        let addr: Ipv4Addr = a.parse()?;
        let len: u8 = l.parse().map_err(|_| ParseAddrError(s.to_string()))?;
        if len > 32 {
            return Err(ParseAddrError(s.to_string()));
        }
        Ok(Prefix::new(addr, len))
    }
}

/// Identifier of a stub network (one per edge router, dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StubId(pub u32);

impl StubId {
    /// Dense index of this stub.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Base of the stub address space: `10.0.0.0/8`.
const STUB_BASE: u32 = 10 << 24;
/// Bits of `10.0.0.0/8` left for stub index and host bits together.
const STUB_SPACE_BITS: u32 = 24;
/// Most host bits a stub subnet gets (a `/20`: 4094 hosts), used by every
/// plan of up to 4,096 stubs.
const MAX_HOST_BITS: u32 = 12;
/// Fewest host bits a stub subnet keeps (a `/30`: 2 hosts), which bounds
/// the plan at `2^22` stubs.
const MIN_HOST_BITS: u32 = 2;

/// The deterministic addressing plan of a generated network: one stub
/// subnet per edge router, carved out of `10.0.0.0/8` in edge-router order.
///
/// The subnet length is derived from the stub count `n`: `/len` with
/// `len = max(20, 8 + ⌈log2 n⌉)`, so every network of up to 4,096 stubs
/// gets `/20`s, and larger ones the longest prefix that still fits all
/// stubs into the `/8` (20,480 stubs get `/23`s).
///
/// Mirrors the paper's "subnet a" style addressing (§II, Table I): policies
/// refer to stub networks by their address prefix.
///
/// # Example
///
/// ```
/// use sdm_netsim::{AddressPlan, StubId};
/// let plan = sdm_topology::campus::campus(1);
/// let addrs = AddressPlan::new(&plan);
/// let s0 = StubId(0);
/// let h = addrs.host(s0, 5);
/// assert_eq!(addrs.stub_of(h), Some(s0));
/// assert!(addrs.subnet(s0).contains(h));
/// assert_eq!(addrs.subnet(s0).len(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct AddressPlan {
    edge_routers: Vec<NodeId>,
    /// Host bits per stub subnet (`32 - len`), derived from the stub count.
    shift: u32,
}

impl AddressPlan {
    /// Builds the plan for a generated network: stub `i` sits behind
    /// `plan.edges()[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the network has more stubs than `10.0.0.0/8` holds as
    /// `/30`s (`2^22`).
    pub fn new(plan: &NetworkPlan) -> Self {
        let n = plan.edges().len();
        let stub_bits = n.next_power_of_two().trailing_zeros();
        assert!(
            stub_bits <= STUB_SPACE_BITS - MIN_HOST_BITS,
            "too many stub networks: {n} > {}",
            1usize << (STUB_SPACE_BITS - MIN_HOST_BITS)
        );
        AddressPlan {
            edge_routers: plan.edges().to_vec(),
            shift: MAX_HOST_BITS.min(STUB_SPACE_BITS - stub_bits),
        }
    }

    /// The prefix covering the whole enterprise address space (all stub
    /// subnets live inside it) — the paper's "subnet a".
    pub fn enterprise_prefix(&self) -> Prefix {
        Prefix::new(Ipv4Addr(STUB_BASE), 8)
    }

    /// Number of stub networks.
    pub fn stub_count(&self) -> usize {
        self.edge_routers.len()
    }

    /// Usable host addresses per stub subnet: valid `host_index`es of
    /// [`AddressPlan::host`] are `0..hosts_per_stub()`.
    pub fn hosts_per_stub(&self) -> u32 {
        (1 << self.shift) - 2
    }

    /// All stub ids.
    pub fn stubs(&self) -> impl Iterator<Item = StubId> + '_ {
        (0..self.edge_routers.len() as u32).map(StubId)
    }

    /// The address prefix of a stub network.
    ///
    /// # Panics
    ///
    /// Panics if `stub` is out of range.
    pub fn subnet(&self, stub: StubId) -> Prefix {
        assert!(stub.index() < self.edge_routers.len(), "unknown stub {stub}");
        Prefix::new(Ipv4Addr(STUB_BASE | (stub.0 << self.shift)), (32 - self.shift) as u8)
    }

    /// The `host_index`-th host address inside a stub subnet.
    ///
    /// # Panics
    ///
    /// Panics if `stub` is out of range or `host_index` does not fit in the
    /// subnet.
    pub fn host(&self, stub: StubId, host_index: u32) -> Ipv4Addr {
        let p = self.subnet(stub);
        assert!(
            host_index < self.hosts_per_stub(),
            "host index {host_index} outside subnet"
        );
        Ipv4Addr(p.addr().0 + 1 + host_index)
    }

    /// The stub network an address belongs to, if any.
    pub fn stub_of(&self, a: Ipv4Addr) -> Option<StubId> {
        if (a.0 >> 24) != 10 {
            return None;
        }
        let idx = (a.0 & 0x00FF_FFFF) >> self.shift;
        if (idx as usize) < self.edge_routers.len() {
            Some(StubId(idx))
        } else {
            None
        }
    }

    /// The edge router a stub network sits behind.
    ///
    /// # Panics
    ///
    /// Panics if `stub` is out of range.
    pub fn edge_router(&self, stub: StubId) -> NodeId {
        self.edge_routers[stub.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_topology::campus::campus;
    use sdm_topology::hierarchical::{hierarchical, HierarchicalConfig};
    use sdm_topology::waxman::waxman;
    use sdm_topology::{NodeKind, Topology};

    /// A plan of `n` unlinked edge routers: all `AddressPlan` reads.
    fn stubs(n: usize) -> NetworkPlan {
        let mut t = Topology::new();
        let edges = (0..n)
            .map(|i| t.add_node(NodeKind::EdgeRouter, format!("e{i}")))
            .collect();
        NetworkPlan::new(t, Vec::new(), Vec::new(), edges)
    }

    #[test]
    fn addr_roundtrip_display_parse() {
        for s in ["0.0.0.0", "255.255.255.255", "10.20.30.40"] {
            let a: Ipv4Addr = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
    }

    #[test]
    fn addr_parse_rejects_garbage() {
        assert!("1.2.3".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3.4.5".parse::<Ipv4Addr>().is_err());
        assert!("a.b.c.d".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3.256".parse::<Ipv4Addr>().is_err());
    }

    #[test]
    fn prefix_contains_and_masks() {
        let p = Prefix::new("10.3.7.9".parse().unwrap(), 16);
        assert_eq!(p.addr().to_string(), "10.3.0.0");
        assert!(p.contains("10.3.255.255".parse().unwrap()));
        assert!(!p.contains("10.4.0.0".parse().unwrap()));
    }

    #[test]
    fn prefix_any_matches_everything() {
        assert!(Prefix::ANY.contains(Ipv4Addr(0)));
        assert!(Prefix::ANY.contains(Ipv4Addr(u32::MAX)));
        assert!(Prefix::ANY.is_any());
        assert_eq!("*".parse::<Prefix>().unwrap(), Prefix::ANY);
    }

    #[test]
    fn prefix_overlap() {
        let a: Prefix = "10.0.0.0/8".parse().unwrap();
        let b: Prefix = "10.3.0.0/16".parse().unwrap();
        let c: Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(a.overlaps(b));
        assert!(b.overlaps(a));
        assert!(!a.overlaps(c));
        assert!(Prefix::ANY.overlaps(c));
    }

    #[test]
    fn prefix_parse_display_roundtrip() {
        let p: Prefix = "10.3.16.0/20".parse().unwrap();
        assert_eq!(p.to_string(), "10.3.16.0/20");
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
    }

    #[test]
    fn host_prefix_matches_exactly_one() {
        let a: Ipv4Addr = "10.0.0.7".parse().unwrap();
        let p = Prefix::host(a);
        assert!(p.contains(a));
        assert!(!p.contains(Ipv4Addr(a.0 + 1)));
    }

    #[test]
    fn plan_assigns_disjoint_subnets() {
        let plan = AddressPlan::new(&campus(1));
        for i in 0..plan.stub_count() {
            for j in 0..plan.stub_count() {
                if i != j {
                    let (a, b) = (plan.subnet(StubId(i as u32)), plan.subnet(StubId(j as u32)));
                    assert!(!a.overlaps(b), "{a} overlaps {b}");
                }
            }
        }
    }

    #[test]
    fn plan_host_lookup_roundtrip() {
        let plan = AddressPlan::new(&campus(1));
        for s in plan.stubs() {
            for h in [0u32, 1, 100, 4000] {
                let a = plan.host(s, h);
                assert_eq!(plan.stub_of(a), Some(s));
            }
        }
    }

    #[test]
    fn plan_scales_to_waxman() {
        let plan = AddressPlan::new(&waxman(1));
        assert_eq!(plan.stub_count(), 400);
        let last = StubId(399);
        let a = plan.host(last, 9);
        assert_eq!(plan.stub_of(a), Some(last));
    }

    #[test]
    fn non_stub_addr_maps_to_none() {
        let plan = AddressPlan::new(&campus(1));
        assert_eq!(plan.stub_of("172.16.0.1".parse().unwrap()), None);
        // inside 10/8 but beyond the allocated stub range
        assert_eq!(plan.stub_of("10.255.255.1".parse().unwrap()), None);
    }

    #[test]
    fn subnet_length_follows_the_stub_count() {
        for (n, len, hosts) in [
            (0, 20, 4094),
            (4_096, 20, 4094),
            (4_097, 21, 2046),
            (20_480, 23, 510),
        ] {
            let plan = AddressPlan::new(&stubs(n));
            assert_eq!(plan.hosts_per_stub(), hosts, "{n} stubs");
            if n > 0 {
                assert_eq!(plan.subnet(StubId(0)).len(), len, "{n} stubs");
                let last = plan.subnet(StubId(n as u32 - 1));
                assert!(last.is_subset_of(plan.enterprise_prefix()), "{last}");
            }
        }
    }

    #[test]
    fn fabric_plan_round_trips_and_stays_disjoint() {
        let plan = AddressPlan::new(&hierarchical(&HierarchicalConfig::large(), 1));
        assert_eq!(plan.stub_count(), 20_480);
        let last_host = plan.hosts_per_stub() - 1;
        for s in [StubId(0), StubId(20_479)] {
            for h in [0, last_host] {
                let a = plan.host(s, h);
                assert_eq!(plan.stub_of(a), Some(s), "{a}");
                assert!(plan.subnet(s).contains(a));
            }
        }
        assert_eq!(plan.host(StubId(20_479), last_host).to_string(), "10.159.255.254");
        // Consecutive subnets neither overlap nor leave a gap, so none overlap.
        let subnets: Vec<Prefix> = plan.stubs().map(|s| plan.subnet(s)).collect();
        for w in subnets.windows(2) {
            assert!(!w[0].overlaps(w[1]), "{} overlaps {}", w[0], w[1]);
            assert_eq!(w[0].addr().0 + (1 << (32 - w[0].len())), w[1].addr().0);
        }
        // the first address past the last stub belongs to none
        assert_eq!(plan.stub_of("10.160.0.1".parse().unwrap()), None);
    }
}
