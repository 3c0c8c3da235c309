//! Pass 2 — symbolic reachability over the steering graph.
//!
//! [`verify_plan`](crate::verify_plan) proves *structural* invariants; this
//! module answers the question operators actually ask: *can any packet from
//! subnet A reach subnet B without traversing a firewall?* It compiles a
//! deployment — steering graph, routing next hops, policy table, LP weight
//! support — into symbolic transfer functions over **flow classes**
//! (five-tuple predicate sets: address prefixes × port intervals × a
//! protocol bitmask), then checks operator-declared assertions by
//! propagating whole classes through the enforcement path. Work scales
//! with the number of flow classes (tens) rather than flows (millions):
//! no packet is ever enumerated.
//!
//! Three assertion forms are supported (see [`Assertion`]): isolation
//! (`A ⇏ B`), waypointing (`A → B only via FW`) and TTL-bounded loop
//! freedom. Violations are reported as `R0xx` diagnostics
//! ([`ReachCode`]), each carrying the violating flow class, the
//! hop-by-hop path, and — whenever the ingress lies inside a stub — a
//! [`ReplayScenario`] that reproduces the verdict in the simulator.
//!
//! Beyond the converged plan, the checker models the **hazard states**
//! the structural passes cannot see (see [`HazardView`]): a pinned
//! `pinned_next` flow-cache entry outliving a `fail_middlebox` (the stale
//! window between failure and the next epoch's re-steer), and label-table
//! TTL skew. Hazard findings lower into replay scripts that fail the box
//! mid-scenario, so the static verdict is confirmed by the data plane.
//!
//! Everything here is deterministic by construction: ordered containers
//! wherever order reaches output (`BTreeSet`, sorted `Vec`s — the root
//! `clippy.toml` bans `HashSet`; the per-chunk egress-split cache is an
//! `FxHashMap` that is only looked up, never iterated), findings sorted
//! and deduplicated exactly like the `V0xx` report. That holds on every
//! core too: each assertion's ingress pieces are traced in fixed-size
//! contiguous chunks, each with its own scratch and an empty leg memo, by
//! `sdm_util::par` workers, whose outputs are merged in piece order and
//! whose counters are summed, so neither the report nor its work
//! counters depend on the worker count.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::fmt;

use sdm_netsim::{FiveTuple, Ipv4Addr, Prefix};
use sdm_policy::{NetworkFunction, TrafficDescriptor};
use sdm_util::json::Json;
use sdm_util::par::{par_map_with, thread_count};
use sdm_util::FxHashMap;

use crate::index::{FirstByKey, StubIndex};
use crate::plan::{CandidateSet, PlanView, Point, WeightColumn, WeightsView};
use crate::witness::{protocol_from_number, ReplayScenario, ReplayStep, StepExpect, WitnessFlow};

/// The full inclusive port interval (the `*` port match).
const FULL_PORT_RANGE: (u16, u16) = (0, u16::MAX);

// ---------------------------------------------------------------------------
// Routing next-hop view
// ---------------------------------------------------------------------------

/// A checker-consumable view of routing: the per-hop forwarding function
/// every router applies. [`sdm_topology::RoutingTables`] — the one
/// routing oracle, filled per transit destination on demand — implements it, so
/// the checker reads exactly the simulator's forwarding on the campus
/// topology and stays memory-proportional on the ~21k-node hierarchical
/// one; tests implement it to inject broken routing.
///
/// `Sync`, because [`check_assertions`] fans its flow classes out over
/// worker threads that all read the one view (`RoutingTables` fills its
/// rows through `OnceLock`s, so concurrent first reads are safe).
pub trait RouteView: Sync {
    /// The node `from` forwards to when routing towards `dst`, or `None`
    /// when `dst` is unreachable (or equals `from`).
    fn next_hop(&self, from: u32, dst: u32) -> Option<u32>;
    /// Shortest-path cost, `None` when unreachable.
    fn dist(&self, from: u32, dst: u32) -> Option<u32>;
}

impl RouteView for sdm_topology::RoutingTables {
    fn next_hop(&self, from: u32, dst: u32) -> Option<u32> {
        sdm_topology::RoutingTables::next_hop(
            self,
            sdm_topology::NodeId::from_index(from as usize),
            sdm_topology::NodeId::from_index(dst as usize),
        )
        .map(|n| n.index() as u32)
    }
    fn dist(&self, from: u32, dst: u32) -> Option<u32> {
        sdm_topology::RoutingTables::dist(
            self,
            sdm_topology::NodeId::from_index(from as usize),
            sdm_topology::NodeId::from_index(dst as usize),
        )
    }
}

/// Result of following next hops from one router to another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Walk {
    /// Arrived; the nodes visited, endpoints inclusive.
    Arrived(Vec<u32>),
    /// A node was revisited before arrival — a forwarding micro-loop.
    /// Carries the walk up to and including the repeated node.
    Looped(Vec<u32>),
    /// Some hop had no route towards the destination.
    Unreachable,
}

/// Follows `routes` hop by hop from `from` to `to`, bounded by `budget`
/// hops. This is the **single** next-hop traversal shared by the plan
/// verifier's steering-loop pass (V005) and the reach checker, so the two
/// tiers can never disagree about what the routed path is.
pub fn walk_route(routes: &dyn RouteView, from: u32, to: u32, budget: usize) -> Walk {
    let mut path = Vec::new();
    match walk_into(routes, from, to, budget, &mut path, |_| None::<Infallible>) {
        Leg::Arrived => Walk::Arrived(path),
        Leg::Looped => Walk::Looped(path),
        Leg::Unreachable => Walk::Unreachable,
        Leg::Known(never) => match never {},
    }
}

/// How a walk written into a caller-owned buffer ended (see [`Walk`]).
enum Leg<K> {
    Arrived,
    Looped,
    Unreachable,
    /// At a node whose outcome `K` the caller already knew: the path's last.
    Known(K),
}

impl<K> Leg<K> {
    /// The next-hop lookups of the walk that wrote `path`: one per hop,
    /// and at a dead end the one that found no next hop.
    fn lookups(&self, path: &[u32]) -> usize {
        path.len() - 1 + usize::from(matches!(self, Leg::Unreachable))
    }
}

/// Walks shorter than this find a revisited node by scanning the path.
const LINEAR_SCAN_NODES: usize = 32;

/// [`walk_route`] into `path` (cleared first), so a caller tracing many
/// legs reuses one buffer, stopping early at the first node after `from`
/// (other than `to`) whose outcome `known` returns. Routed paths are a
/// handful of hops: a revisit is found by a linear scan, and only a walk
/// past [`LINEAR_SCAN_NODES`] builds an ordered set of the nodes seen.
fn walk_into<K>(
    routes: &dyn RouteView,
    from: u32,
    to: u32,
    budget: usize,
    path: &mut Vec<u32>,
    mut known: impl FnMut(u32) -> Option<K>,
) -> Leg<K> {
    path.clear();
    path.push(from);
    let mut seen: Option<BTreeSet<u32>> = None;
    let mut at = from;
    while at != to {
        let Some(next) = routes.next_hop(at, to) else {
            return Leg::Unreachable;
        };
        let revisited = if path.len() < LINEAR_SCAN_NODES {
            path.contains(&next)
        } else {
            !seen
                .get_or_insert_with(|| path.iter().copied().collect())
                .insert(next)
        };
        path.push(next);
        if revisited || path.len() > budget {
            return Leg::Looped;
        }
        if next != to {
            if let Some(end) = known(next) {
                return Leg::Known(end);
            }
        }
        at = next;
    }
    Leg::Arrived
}

/// What a trace needs of a routed leg: how it ends, not its nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Routed {
    /// Arrived after this many router hops.
    Arrived(usize),
    /// A node was revisited first.
    Looped,
    /// Some hop had no route.
    NoRoute,
}

impl Routed {
    /// The outcome of a walk that takes `hops` more hops to get here.
    fn after(self, hops: usize) -> Routed {
        match self {
            Routed::Arrived(h) => Routed::Arrived(h + hops),
            other => other,
        }
    }
}

/// Leg outcomes per destination, for the nodes one chunk's walks passed
/// through — the transit core of a routed topology, since a single-homed
/// router is only ever a leg's endpoint. A row is kept per destination a
/// leg was routed towards, one byte per such node: no n × n table.
///
/// Exact: a walk from `v` to `d` ends the same way whatever led to `v`
/// (next hops are deterministic, and a budget of at least the node count
/// never binds before a revisit), so every node a walk passed through
/// shares its outcome, hop counts shortened by the hops before it. Nodes
/// numbered past the plan's node count, and arrivals more hops away than
/// a code holds, are simply walked.
#[derive(Default)]
struct LegMemo {
    /// Each node's column in every row, or `NONE` while no walk passed it.
    column: Vec<u32>,
    /// Each destination's row, or `NONE` while no leg was routed to it.
    row: Vec<u32>,
    /// The node of each column, in column order.
    passed: Vec<u32>,
    /// The destination of each row, in row order.
    dests: Vec<u32>,
    /// One row of `width` codes per destination: 0 unknown, then a
    /// [`Routed`] coded.
    codes: Vec<u8>,
    width: usize,
}

const NONE: u32 = u32::MAX;
const LOOPED: u8 = 1;
const NO_ROUTE: u8 = 2;
const ARRIVED: u8 = 3;

impl LegMemo {
    fn new(nodes: usize) -> LegMemo {
        LegMemo {
            column: vec![NONE; nodes],
            row: vec![NONE; nodes],
            passed: Vec::new(),
            dests: Vec::new(),
            codes: Vec::new(),
            width: 0,
        }
    }

    /// Forgets every outcome, in time proportional to what was recorded
    /// rather than to the node count.
    fn clear(&mut self) {
        for v in self.passed.drain(..) {
            self.column[v as usize] = NONE;
        }
        for d in self.dests.drain(..) {
            self.row[d as usize] = NONE;
        }
        self.codes.clear();
    }

    /// `to`'s row, made on first use; `None` past the node count.
    fn row(&mut self, to: u32) -> Option<usize> {
        let row = self.row.get_mut(to as usize)?;
        if *row == NONE {
            *row = self.dests.len() as u32;
            self.dests.push(to);
            self.codes.resize(self.dests.len() * self.width, 0);
        }
        Some(*row as usize)
    }

    /// The outcome recorded for `v` in `row`.
    fn get(&self, row: usize, v: u32) -> Option<Routed> {
        let column = *self.column.get(v as usize)?;
        if column == NONE {
            return None;
        }
        match self.codes[row * self.width + column as usize] {
            0 => None,
            LOOPED => Some(Routed::Looped),
            NO_ROUTE => Some(Routed::NoRoute),
            code => Some(Routed::Arrived((code - ARRIVED) as usize)),
        }
    }

    /// Records `outcome` for `v` in `row`, giving `v` a column on first
    /// use; an arrival too far for a code is not recorded.
    fn set(&mut self, row: usize, v: u32, outcome: Routed) {
        let code = match outcome {
            Routed::Looped => LOOPED,
            Routed::NoRoute => NO_ROUTE,
            Routed::Arrived(h) => match u8::try_from(h).ok().and_then(|h| h.checked_add(ARRIVED)) {
                Some(code) => code,
                None => return,
            },
        };
        let Some(column) = self.column.get_mut(v as usize) else {
            return;
        };
        if *column == NONE {
            *column = self.passed.len() as u32;
            self.passed.push(v);
        }
        let column = *column as usize;
        if column == self.width {
            self.widen();
        }
        self.codes[row * self.width + column] = code;
    }

    /// Doubles the row width, keeping every row's codes.
    fn widen(&mut self) {
        let width = (self.width * 2).max(16);
        let mut codes = vec![0; self.dests.len() * width];
        if self.width > 0 {
            for (new, old) in codes.chunks_mut(width).zip(self.codes.chunks(self.width)) {
                new[..self.width].copy_from_slice(old);
            }
        }
        self.codes = codes;
        self.width = width;
    }
}

// ---------------------------------------------------------------------------
// Flow classes: the symbolic packet domain
// ---------------------------------------------------------------------------

/// A set of IANA protocol numbers as a 256-bit mask. Closed under the
/// boolean operations the class algebra needs; never enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProtoSet([u64; 4]);

impl ProtoSet {
    /// Every protocol.
    pub const ANY: ProtoSet = ProtoSet([u64::MAX; 4]);

    /// The empty set.
    pub const EMPTY: ProtoSet = ProtoSet([0; 4]);

    /// The singleton set `{n}`.
    pub fn single(n: u8) -> ProtoSet {
        let mut words = [0u64; 4];
        words[(n >> 6) as usize] = 1u64 << (n & 63);
        ProtoSet(words)
    }

    /// True if `n` is in the set.
    pub fn contains(self, n: u8) -> bool {
        self.0[(n >> 6) as usize] >> (n & 63) & 1 == 1
    }

    /// Set intersection.
    pub fn intersect(self, other: ProtoSet) -> ProtoSet {
        ProtoSet([
            self.0[0] & other.0[0],
            self.0[1] & other.0[1],
            self.0[2] & other.0[2],
            self.0[3] & other.0[3],
        ])
    }

    /// Set difference `self \ other`.
    pub fn subtract(self, other: ProtoSet) -> ProtoSet {
        ProtoSet([
            self.0[0] & !other.0[0],
            self.0[1] & !other.0[1],
            self.0[2] & !other.0[2],
            self.0[3] & !other.0[3],
        ])
    }

    /// True if no protocol is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == [0; 4]
    }

    /// A representative member, preferring TCP for natural witnesses.
    pub fn representative(self) -> Option<u8> {
        if self.contains(6) {
            return Some(6);
        }
        for (w, word) in self.0.iter().enumerate() {
            if *word != 0 {
                return Some((w as u8) << 6 | word.trailing_zeros() as u8);
            }
        }
        None
    }
}

impl fmt::Display for ProtoSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ProtoSet::ANY {
            return f.write_str("*");
        }
        if self.is_empty() {
            return f.write_str("none");
        }
        match self.representative() {
            Some(n) if ProtoSet::single(n) == *self => match n {
                6 => f.write_str("tcp"),
                17 => f.write_str("udp"),
                other => write!(f, "proto{other}"),
            },
            _ => f.write_str("set"),
        }
    }
}

/// A symbolic set of five-tuples: the product of source/destination
/// prefixes, inclusive port intervals and a protocol set. The checker's
/// unit of work — classes are intersected, subtracted and steered, never
/// enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowClass {
    /// Source address prefix.
    pub src: Prefix,
    /// Destination address prefix.
    pub dst: Prefix,
    /// Inclusive source-port interval.
    pub src_ports: (u16, u16),
    /// Inclusive destination-port interval.
    pub dst_ports: (u16, u16),
    /// Allowed protocols.
    pub protos: ProtoSet,
}

impl FlowClass {
    /// The universe: every five-tuple.
    pub fn any() -> FlowClass {
        FlowClass {
            src: Prefix::ANY,
            dst: Prefix::ANY,
            src_ports: FULL_PORT_RANGE,
            dst_ports: FULL_PORT_RANGE,
            protos: ProtoSet::ANY,
        }
    }

    /// All traffic from `src` to `dst`, any ports, any protocol.
    pub fn between(src: Prefix, dst: Prefix) -> FlowClass {
        FlowClass {
            src,
            dst,
            ..FlowClass::any()
        }
    }

    /// The class matched by a policy descriptor. `PortMatch`/`ProtoMatch`
    /// embed exactly into intervals and protocol sets, so this is lossless.
    pub fn from_descriptor(d: &TrafficDescriptor) -> FlowClass {
        FlowClass {
            src: d.src,
            dst: d.dst,
            src_ports: port_interval(d.src_port),
            dst_ports: port_interval(d.dst_port),
            protos: proto_set(d.proto),
        }
    }

    /// The intersection, or `None` when disjoint.
    pub fn intersect(&self, other: &FlowClass) -> Option<FlowClass> {
        let src = prefix_intersect(self.src, other.src)?;
        let dst = prefix_intersect(self.dst, other.dst)?;
        let src_ports = interval_intersect(self.src_ports, other.src_ports)?;
        let dst_ports = interval_intersect(self.dst_ports, other.dst_ports)?;
        let protos = self.protos.intersect(other.protos);
        if protos.is_empty() {
            return None;
        }
        Some(FlowClass {
            src,
            dst,
            src_ports,
            dst_ports,
            protos,
        })
    }

    /// The set difference `self \ other` as a disjoint union of classes
    /// (the standard difference-of-products decomposition: peel one field
    /// at a time, keeping the remainder wildcarded on later fields). The
    /// result has at most `2·32 + 2·2 + 1` pieces and is sorted, so
    /// downstream reports are deterministic.
    pub fn subtract(&self, other: &FlowClass) -> Vec<FlowClass> {
        let mut out = Vec::new();
        self.subtract_into(other, &mut out);
        out
    }

    /// [`FlowClass::subtract`] appended to `out`, which the caller owns
    /// and reuses: the pieces of `self \ other`, sorted among themselves
    /// — `self` alone when the two are disjoint.
    fn subtract_into(&self, other: &FlowClass, out: &mut Vec<FlowClass>) {
        let Some(meet) = self.intersect(other) else {
            return out.push(*self);
        };
        let start = out.len();
        // Field 1: src addresses outside other.src.
        prefix_subtract(self.src, other.src, |src| out.push(FlowClass { src, ..*self }));
        // Field 2: dst addresses outside other.dst (src already narrowed).
        prefix_subtract(self.dst, other.dst, |dst| {
            out.push(FlowClass { src: meet.src, dst, ..*self });
        });
        // Field 3: source ports.
        interval_subtract(self.src_ports, other.src_ports, |src_ports| {
            out.push(FlowClass {
                src: meet.src,
                dst: meet.dst,
                src_ports,
                ..*self
            });
        });
        // Field 4: destination ports.
        interval_subtract(self.dst_ports, other.dst_ports, |dst_ports| {
            out.push(FlowClass {
                dst_ports,
                protos: self.protos,
                ..meet
            });
        });
        // Field 5: protocols.
        let protos = self.protos.subtract(other.protos);
        if !protos.is_empty() {
            out.push(FlowClass { protos, ..meet });
        }
        out[start..].sort_unstable();
    }

    /// A concrete member of the class, used to seed witnesses. The source
    /// and destination pick the first *host* address of their prefixes
    /// (network base + 1, matching the simulator's host numbering) so a
    /// class aligned to a stub subnet yields an injectable flow.
    pub fn representative(&self) -> FiveTuple {
        FiveTuple {
            src: representative_addr(self.src),
            dst: representative_addr(self.dst),
            src_port: self.src_ports.0,
            dst_port: self.dst_ports.0,
            proto: protocol_from_number(self.protos.representative().unwrap_or(6)),
        }
    }
}

impl fmt::Display for FlowClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show_prefix = |p: Prefix| {
            if p.is_any() {
                "*".to_string()
            } else {
                p.to_string()
            }
        };
        write!(
            f,
            "[src={} dst={} sport={} dport={} proto={}]",
            show_prefix(self.src),
            show_prefix(self.dst),
            show_interval(self.src_ports),
            show_interval(self.dst_ports),
            self.protos
        )
    }
}

fn show_interval(iv: (u16, u16)) -> String {
    if iv == FULL_PORT_RANGE {
        "*".to_string()
    } else if iv.0 == iv.1 {
        format!("{}", iv.0)
    } else {
        format!("{}-{}", iv.0, iv.1)
    }
}

fn representative_addr(p: Prefix) -> Ipv4Addr {
    if p.len() >= 31 {
        p.addr()
    } else {
        Ipv4Addr(p.addr().0 + 1)
    }
}

fn port_interval(m: sdm_policy::PortMatch) -> (u16, u16) {
    match m {
        sdm_policy::PortMatch::Any => FULL_PORT_RANGE,
        sdm_policy::PortMatch::Exact(p) => (p, p),
        sdm_policy::PortMatch::Range(lo, hi) => (lo, hi),
    }
}

fn proto_set(m: sdm_policy::ProtoMatch) -> ProtoSet {
    match m {
        sdm_policy::ProtoMatch::Any => ProtoSet::ANY,
        sdm_policy::ProtoMatch::Is(p) => ProtoSet::single(p.number()),
    }
}

fn prefix_intersect(a: Prefix, b: Prefix) -> Option<Prefix> {
    if !a.overlaps(b) {
        return None;
    }
    Some(if a.len() >= b.len() { a } else { b })
}

/// `a \ b` as a disjoint set of prefixes, handed to `emit` in ascending
/// `(address, length)` order: nothing when `a ⊆ b`, `a` when disjoint,
/// otherwise the siblings peeled off while descending from `a` to `b`.
/// The sibling at depth `l` is `b`'s ancestor at `l` with its last bit
/// flipped; those below `b` (flipped 1 → 0) rise with depth and those
/// above it (0 → 1) fall, so shallowest-first then deepest-first is
/// already address order and nothing is collected or sorted.
fn prefix_subtract(a: Prefix, b: Prefix, mut emit: impl FnMut(Prefix)) {
    if !a.overlaps(b) {
        return emit(a);
    }
    if a.is_subset_of(b) {
        return;
    }
    // b is a strict subset of a: peel siblings.
    let bit = |len: u8| 1u32 << (32 - len as u32);
    let sibling = |len: u8| Prefix::new(Ipv4Addr(b.addr().0 ^ bit(len)), len);
    let depths = a.len() + 1..=b.len();
    for len in depths.clone().filter(|&l| b.addr().0 & bit(l) != 0) {
        emit(sibling(len));
    }
    for len in depths.rev().filter(|&l| b.addr().0 & bit(l) == 0) {
        emit(sibling(len));
    }
}

fn interval_intersect(a: (u16, u16), b: (u16, u16)) -> Option<(u16, u16)> {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    if lo <= hi {
        Some((lo, hi))
    } else {
        None
    }
}

/// `a \ b` as at most two intervals, handed to `emit` lowest first.
fn interval_subtract(a: (u16, u16), b: (u16, u16), mut emit: impl FnMut((u16, u16))) {
    if b.1 < a.0 || b.0 > a.1 {
        return emit(a);
    }
    if b.0 > a.0 {
        emit((a.0, b.0 - 1));
    }
    if b.1 < a.1 {
        emit((b.1 + 1, a.1));
    }
}

// ---------------------------------------------------------------------------
// Assertions
// ---------------------------------------------------------------------------

/// An operator-declared safety assertion over the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assertion {
    /// `A ⇏ B`: no packet sourced in `src` may be delivered to `dst`.
    Isolated {
        /// Source address space.
        src: Prefix,
        /// Destination address space.
        dst: Prefix,
    },
    /// `A → B only via f`: every delivered packet from `src` to `dst`
    /// must traverse a middlebox implementing `via`.
    Waypoint {
        /// Source address space.
        src: Prefix,
        /// Destination address space.
        dst: Prefix,
        /// The function that must be on the path.
        via: NetworkFunction,
    },
    /// Every enforcement path terminates within `ttl` router hops —
    /// TTL-bounded loop freedom.
    LoopFree {
        /// The hop budget (the IP TTL the operator configures).
        ttl: u32,
    },
}

impl fmt::Display for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |p: Prefix| {
            if p.is_any() {
                "*".to_string()
            } else {
                p.to_string()
            }
        };
        match self {
            Assertion::Isolated { src, dst } => {
                write!(f, "isolate {} -> {}", show(*src), show(*dst))
            }
            Assertion::Waypoint { src, dst, via } => {
                write!(f, "waypoint {} -> {} via {}", show(*src), show(*dst), via)
            }
            Assertion::LoopFree { ttl } => write!(f, "loop-free ttl {ttl}"),
        }
    }
}

/// Parses an assertion file: one assertion per line, `#` comments and
/// blank lines ignored. The grammar matches [`Assertion`]'s `Display`:
///
/// ```text
/// isolate 10.0.0.0/20 -> 10.0.48.0/20
/// waypoint 10.0.0.0/20 -> * via FW
/// loop-free ttl 64
/// ```
///
/// An error names the line and the column (1-based, in characters) of
/// the offending token — the end of the line when one is missing — and
/// quotes the line.
pub fn parse_assertions(text: &str) -> Result<Vec<Assertion>, String> {
    parse_assertions_at(text).map_err(|e| e.to_string())
}

/// Where and why an assertion file does not parse.
#[derive(Debug)]
struct ParseError {
    line: usize,
    column: usize,
    message: String,
    text: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {} (in '{}')",
            self.line, self.column, self.message, self.text
        )
    }
}

fn parse_assertions_at(text: &str) -> Result<Vec<Assertion>, ParseError> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let code = raw.split('#').next().unwrap_or("");
        let mut words = Words::new(code);
        if words.words.is_empty() {
            continue;
        }
        let parsed = parse_line(&mut words).map_err(|(column, message)| ParseError {
            line: lineno + 1,
            column,
            message,
            text: code.trim().to_string(),
        })?;
        out.push(parsed);
    }
    Ok(out)
}

/// A token error: the 1-based column it points at, and what is wrong.
type TokenError = (usize, String);

/// The words of one assertion line, each with the column it starts at,
/// consumed left to right.
struct Words<'t> {
    words: Vec<(usize, &'t str)>,
    next: usize,
    /// The column just past the last word, where a missing one is due.
    end: usize,
}

impl<'t> Words<'t> {
    fn new(line: &'t str) -> Self {
        let column = |byte: usize| line[..byte].chars().count() + 1;
        // A word is a subslice of `line`; its address gives its offset.
        let offset = |word: &str| word.as_ptr() as usize - line.as_ptr() as usize;
        Words {
            words: line.split_whitespace().map(|w| (column(offset(w)), w)).collect(),
            next: 0,
            end: column(line.trim_end().len()),
        }
    }

    /// The next word, or an error at the end of the line naming `what`
    /// is missing.
    fn take(&mut self, what: &str) -> Result<(usize, &'t str), TokenError> {
        let word = self.words.get(self.next).copied();
        self.next += 1;
        word.ok_or_else(|| (self.end, format!("missing {what}")))
    }

    fn keyword(&mut self, keyword: &str) -> Result<(), TokenError> {
        match self.take(&format!("'{keyword}'"))? {
            (_, word) if word == keyword => Ok(()),
            (column, word) => Err((column, format!("expected '{keyword}', found '{word}'"))),
        }
    }

    fn prefix(&mut self, what: &str) -> Result<Prefix, TokenError> {
        let (column, word) = self.take(what)?;
        parse_prefix(word).map_err(|m| (column, m))
    }

    /// Refuses a word left over after a complete assertion.
    fn finish(&self) -> Result<(), TokenError> {
        match self.words.get(self.next) {
            Some(&(column, word)) => Err((column, format!("unexpected '{word}' after the assertion"))),
            None => Ok(()),
        }
    }
}

fn parse_line(words: &mut Words<'_>) -> Result<Assertion, TokenError> {
    let (column, head) = words.take("assertion")?;
    let parsed = match head {
        "isolate" => {
            let src = words.prefix("source prefix")?;
            words.keyword("->")?;
            let dst = words.prefix("destination prefix")?;
            Assertion::Isolated { src, dst }
        }
        "waypoint" => {
            let src = words.prefix("source prefix")?;
            words.keyword("->")?;
            let dst = words.prefix("destination prefix")?;
            words.keyword("via")?;
            let (column, via) = words.take("network function")?;
            let via = NetworkFunction::from_abbrev(via)
                .ok_or_else(|| (column, format!("unknown network function '{via}'")))?;
            Assertion::Waypoint { src, dst, via }
        }
        "loop-free" => {
            words.keyword("ttl")?;
            let (column, ttl) = words.take("ttl")?;
            let ttl = ttl.parse().map_err(|_| (column, format!("bad ttl '{ttl}'")))?;
            Assertion::LoopFree { ttl }
        }
        other => {
            return Err((
                column,
                format!("unrecognized assertion '{other}' (expected isolate, waypoint or loop-free)"),
            ))
        }
    };
    words.finish()?;
    Ok(parsed)
}

fn parse_prefix(s: &str) -> Result<Prefix, String> {
    if s == "*" {
        return Ok(Prefix::ANY);
    }
    s.parse()
        .map_err(|_| format!("'{s}' is not an address prefix"))
}

// ---------------------------------------------------------------------------
// The reach view: what the checker consumes
// ---------------------------------------------------------------------------

/// One policy-table rule in symbolic form, in first-match order.
#[derive(Debug, Clone)]
pub struct RuleView {
    /// The policy id.
    pub policy: u32,
    /// The class of five-tuples the rule matches.
    pub class: FlowClass,
    /// The enforcement chain (empty = permit).
    pub chain: Vec<NetworkFunction>,
}

/// The steering strategy, as far as symbolic *support* is concerned: which
/// candidate boxes can a flow of a class be sent to at a decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyView {
    /// Always the nearest candidate (`members[0]`).
    HotPotato,
    /// Sticky hash over the whole candidate set: any member.
    Random,
    /// The LP solution's positive-weight column members; hot-potato
    /// fallback when no column is installed or it is all-zero.
    LoadBalanced,
}

/// The hazard states to verify in addition to the converged plan.
#[derive(Debug, Clone, Default)]
pub struct HazardView {
    /// The weight columns that were live *before* the most recent
    /// activation — the state stale pinned flows were steered under.
    /// `None` means the current weights are also the pre-swap state.
    pub prev_weights: Option<WeightsView>,
    /// Middleboxes failed in the current state (sorted). Flows pinned
    /// before the failure still carry `pinned_next` entries towards them.
    pub failed_now: Vec<u32>,
}

/// The complete input to [`check_assertions`]: the structural plan view
/// plus the symbolic policy table, ingress attachment points, steering
/// strategy and optional hazard state.
#[derive(Debug, Clone)]
pub struct ReachView {
    /// The structural plan (middleboxes, candidate sets, weights,
    /// options) shared with [`crate::verify_plan`].
    pub plan: PlanView,
    /// The policy table in first-match order.
    pub rules: Vec<RuleView>,
    /// Router node of each stub network's edge router (`stub_routers[s]`
    /// is where proxy `s` sits).
    pub stub_routers: Vec<u32>,
    /// Router node of each gateway.
    pub gateway_routers: Vec<u32>,
    /// The enterprise address space: destinations inside it that lie in
    /// no stub subnet are unroutable; destinations outside it exit via a
    /// gateway.
    pub enterprise: Prefix,
    /// The steering strategy in force.
    pub strategy: StrategyView,
    /// Hazard state to verify, when present.
    pub hazards: Option<HazardView>,
}

/// The two generations of remainders [`ReachView::peel`] alternates
/// between: what is still unmatched, and what the current rule leaves.
#[derive(Default)]
struct PeelBufs {
    remaining: Vec<FlowClass>,
    next: Vec<FlowClass>,
}

impl ReachView {
    /// First-match compilation of `class` against the policy table into
    /// `out` (cleared first): the disjoint pieces of `class`, each tagged
    /// with the rule that governs it (`None` = default permit). Pieces
    /// and order are deterministic; `out` and `bufs` are the caller's, so
    /// a warm caller allocates nothing.
    fn peel<'v>(
        &'v self,
        class: FlowClass,
        bufs: &mut PeelBufs,
        out: &mut Vec<(FlowClass, Option<&'v RuleView>)>,
    ) {
        out.clear();
        let PeelBufs { remaining, next } = bufs;
        remaining.clear();
        remaining.push(class);
        for rule in &self.rules {
            // Every piece lies inside `class`, so a rule disjoint from it
            // can neither match nor split one.
            if class.intersect(&rule.class).is_none() {
                continue;
            }
            next.clear();
            for piece in remaining.iter() {
                match piece.intersect(&rule.class) {
                    Some(hit) => {
                        out.push((hit, Some(rule)));
                        piece.subtract_into(&rule.class, next);
                    }
                    None => next.push(*piece),
                }
            }
            std::mem::swap(remaining, next);
            if remaining.is_empty() {
                break;
            }
        }
        out.extend(remaining.iter().map(|&piece| (piece, None)));
    }

    fn ingress_router(&self, ingress: Ingress) -> Option<u32> {
        match ingress {
            Ingress::Stub(s) => self.stub_routers.get(s as usize).copied(),
            Ingress::Gateway(g) => self.gateway_routers.get(g as usize).copied(),
        }
    }

    fn ingress_point(&self, ingress: Ingress) -> Point {
        match ingress {
            Ingress::Stub(s) => Point::Proxy(s),
            Ingress::Gateway(g) => Point::Gateway(g),
        }
    }
}

/// Where a flow class enters enforcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ingress {
    Stub(u32),
    Gateway(u32),
}

impl fmt::Display for Ingress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ingress::Stub(s) => write!(f, "proxy(s{s})"),
            Ingress::Gateway(g) => write!(f, "gw({g})"),
        }
    }
}

/// Where a flow class leaves the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Egress {
    Stub(u32),
    External,
}

// ---------------------------------------------------------------------------
// Findings and report
// ---------------------------------------------------------------------------

/// Every violation class the reach checker can report, with a stable
/// wire code (`R0xx`). Codes are part of the JSON report format; add new
/// classes at the end and never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReachCode {
    /// An `isolate A -> B` assertion is refuted: a flow class from `A` is
    /// delivered to `B`.
    IsolationBreach,
    /// A `waypoint A -> B via f` assertion is refuted: a flow class is
    /// delivered without any middlebox implementing `f` on its path.
    WaypointBypass,
    /// A `loop-free ttl N` assertion is refuted: an enforcement path
    /// loops, or exceeds the hop budget before delivery.
    TtlExceeded,
    /// A flow class blackholes: a steering stage on its path has no
    /// available candidate, so matching packets are dropped, not
    /// enforced.
    BlackholeClass,
    /// Hazard: a flow pinned (`pinned_next`) before a weight swap or
    /// middlebox failure still targets a box that is now failed — the
    /// stale-flow-cache window between failure and re-steer.
    StalePinnedFlow,
    /// Hazard: the label-table TTL exceeds the flow-cache TTL for a
    /// label-switched class, so a stale `⟨src|l, a⟩` binding can outlive
    /// its flow entry and collide with a reallocated label.
    LabelTtlSkew,
}

impl ReachCode {
    /// The stable wire code (`R0xx`).
    pub fn as_str(self) -> &'static str {
        match self {
            ReachCode::IsolationBreach => "R001",
            ReachCode::WaypointBypass => "R002",
            ReachCode::TtlExceeded => "R003",
            ReachCode::BlackholeClass => "R004",
            ReachCode::StalePinnedFlow => "R005",
            ReachCode::LabelTtlSkew => "R006",
        }
    }

    /// Human-readable name matching the enum variant.
    pub fn name(self) -> &'static str {
        match self {
            ReachCode::IsolationBreach => "isolation-breach",
            ReachCode::WaypointBypass => "waypoint-bypass",
            ReachCode::TtlExceeded => "ttl-exceeded",
            ReachCode::BlackholeClass => "blackhole-class",
            ReachCode::StalePinnedFlow => "stale-pinned-flow",
            ReachCode::LabelTtlSkew => "label-ttl-skew",
        }
    }
}

impl fmt::Display for ReachCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.as_str(), self.name())
    }
}

/// The witness attached to a finding: the violating flow class, the
/// hop-by-hop path that exhibits it, and (when the ingress is a stub
/// proxy) a simulator replay script.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachWitness {
    /// The violating flow class.
    pub class: FlowClass,
    /// Human-readable hop-by-hop path: steer points, middleboxes and the
    /// router nodes walked between them.
    pub path: Vec<String>,
    /// The executable counterexample, when one can be injected.
    pub scenario: Option<ReplayScenario>,
}

/// One reach-tier finding.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachFinding {
    /// The violation class.
    pub code: ReachCode,
    /// The assertion (or hazard) the finding is about.
    pub subject: String,
    /// Human-readable explanation.
    pub detail: String,
    /// The witness, when the violation is exhibitable.
    pub witness: Option<ReachWitness>,
}

impl fmt::Display for ReachFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.code, self.subject, self.detail)?;
        if let Some(w) = &self.witness {
            write!(f, " [witness {} via {}]", w.class, w.path.join(" "))?;
        }
        Ok(())
    }
}

/// Per-assertion verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertionResult {
    /// The assertion, rendered in the input grammar.
    pub assertion: String,
    /// True when no finding refutes it.
    pub holds: bool,
    /// Number of flow classes examined while checking it.
    pub classes_checked: usize,
}

/// The checker's result: per-assertion verdicts plus every finding,
/// sorted deterministically by (code, subject, detail).
#[derive(Debug, Clone, Default)]
pub struct ReachReport {
    /// One entry per input assertion, in input order.
    pub results: Vec<AssertionResult>,
    /// Every finding, sorted and deduplicated.
    pub findings: Vec<ReachFinding>,
    /// Total flow classes examined.
    pub flow_classes: usize,
    /// Where the work went. Not part of [`ReachReport::to_json`]: the
    /// report says what was found, this says what finding it cost.
    pub stats: ReachStats,
}

/// Work counters of one [`check_assertions`] call, stage by stage of the
/// class pipeline (ingress split → first-match peel → egress split →
/// trace → witness). Deterministic: counts, never clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReachStats {
    /// Pieces the ingress split produced (one per stub or gateway a
    /// class can enter at, per destination piece).
    pub ingress_pieces: usize,
    /// Pieces first-match peeling against the policy table produced.
    pub peeled_classes: usize,
    /// Flow classes whose enforcement path was traced (those with an
    /// egress router; `flow_classes` also counts the rest).
    pub classes_traced: usize,
    /// Witness paths rendered to text — one per path-carrying finding,
    /// not one per class.
    pub witnesses_rendered: usize,
    /// Routed legs followed: one per leg traced, and again one per leg
    /// of each rendered witness.
    pub route_legs_walked: usize,
    /// Next-hop lookups those legs made. A trace's leg stops at the first
    /// node whose outcome its chunk's leg memo knows; a witness's leg is
    /// walked hop by hop.
    pub route_hops_walked: usize,
}

impl ReachStats {
    /// Adds `other`'s counts: the workers of a pass each count their own
    /// pieces, and the sums are what one worker would have counted.
    fn absorb(&mut self, other: &ReachStats) {
        self.ingress_pieces += other.ingress_pieces;
        self.peeled_classes += other.peeled_classes;
        self.classes_traced += other.classes_traced;
        self.witnesses_rendered += other.witnesses_rendered;
        self.route_legs_walked += other.route_legs_walked;
        self.route_hops_walked += other.route_hops_walked;
    }
}

impl ReachReport {
    /// True if every assertion holds and no hazard fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// True if a finding with this code is present.
    pub fn has_code(&self, code: ReachCode) -> bool {
        self.findings.iter().any(|f| f.code == code)
    }

    /// Every replayable scenario in the report, in finding order.
    pub fn scenarios(&self) -> Vec<ReplayScenario> {
        self.findings
            .iter()
            .filter_map(|f| f.witness.as_ref().and_then(|w| w.scenario.clone()))
            .collect()
    }

    /// The JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("verifier", Json::from("sdm-reach")),
            ("flow_classes", Json::from(self.flow_classes)),
            ("violations", Json::from(self.findings.len())),
            (
                "assertions",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("assertion", Json::from(r.assertion.as_str())),
                                ("holds", Json::Bool(r.holds)),
                                ("classes_checked", Json::from(r.classes_checked)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "findings",
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|d| {
                            let witness = match &d.witness {
                                None => Json::Null,
                                Some(w) => Json::obj([
                                    ("class", Json::from(w.class.to_string())),
                                    (
                                        "path",
                                        Json::Arr(
                                            w.path
                                                .iter()
                                                .map(|h| Json::from(h.as_str()))
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "scenario",
                                        w.scenario
                                            .as_ref()
                                            .map(ReplayScenario::to_json)
                                            .unwrap_or(Json::Null),
                                    ),
                                ]),
                            };
                            Json::obj([
                                ("code", Json::from(d.code.as_str())),
                                ("name", Json::from(d.code.name())),
                                ("subject", Json::from(d.subject.as_str())),
                                ("detail", Json::from(d.detail.as_str())),
                                ("witness", witness),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for ReachReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "reach: {} assertion(s), {} flow class(es), {} finding(s)",
            self.results.len(),
            self.flow_classes,
            self.findings.len()
        )?;
        for r in &self.results {
            writeln!(
                f,
                "  {} {} ({} classes)",
                if r.holds { "HOLDS  " } else { "REFUTED" },
                r.assertion,
                r.classes_checked
            )?;
        }
        for d in &self.findings {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

/// The LP weight columns keyed by `(point, policy, next_index)`.
type Columns<'a> = FirstByKey<(Point, u32, u16), &'a WeightColumn>;

fn columns(weights: Option<&WeightsView>) -> Columns<'_> {
    FirstByKey::new(
        weights
            .iter()
            .flat_map(|w| &w.columns)
            .map(|c| ((c.point, c.policy, c.next_index), c)),
    )
}

/// One hop of a structural trace. A trace is kept as these until a
/// finding needs its witness path; only then is it rendered to text.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Middlebox `m`, already reached, applies the next function locally.
    Apply(NetworkFunction, u32),
    /// A routed leg between two routers (walked again when rendered).
    Route(u32, u32),
    /// Arrival at the steered-to middlebox.
    Mbox(u32),
    /// Delivery at the egress router.
    Deliver(u32),
}

/// A fully-expanded enforcement path for one flow class from one ingress:
/// the steering stages chosen (deterministically, the first support
/// member at each stage) and the routed legs between them.
#[derive(Default)]
struct PathTrace {
    /// The router the ingress attaches to.
    ingress_router: u32,
    /// Middlebox visited at each chain stage.
    stages: Vec<u32>,
    /// The hops, in order.
    steps: Vec<Step>,
    /// Total router hops walked.
    router_hops: usize,
    /// The union of every stage's *support* (all boxes the flow could
    /// have been sent to under the strategy), for sound bypass claims.
    support_union: Vec<u32>,
}

impl PathTrace {
    /// Empties the trace for the next one, keeping its buffers.
    fn clear(&mut self) {
        self.ingress_router = 0;
        self.stages.clear();
        self.steps.clear();
        self.router_hops = 0;
        self.support_union.clear();
    }
}

/// How a traced path ends.
#[derive(Clone, Copy)]
enum End {
    /// It reaches the egress router.
    Delivered,
    /// A steering stage had no available candidate.
    Blackhole(NetworkFunction),
    /// A routed leg looped (the trace's last step).
    Looped,
    /// Routing has no path for a leg, or the ingress has no router.
    NoRoute,
}

/// The read-only half of one `check_assertions` call: the inputs and the
/// indices built once over them. Every worker of a class pass borrows
/// it; what a worker writes lives in its own [`Worker`].
struct Checker<'a> {
    view: &'a ReachView,
    routes: &'a dyn RouteView,
    stubs: StubIndex,
    candidates: FirstByKey<(Point, NetworkFunction), &'a CandidateSet>,
    columns: Columns<'a>,
    /// Workers per class pass; `None` asks `sdm_util::par::thread_count`.
    workers: Option<usize>,
    /// Ingress pieces per chunk: [`PIECES_PER_CHUNK`], fewer in tests
    /// so that small worlds still spread.
    chunk_len: usize,
}

thread_local! {
    /// The leg memo of the chunks traced on this thread, emptied after
    /// each. Its node index is as long as the node count, which the
    /// chunks of a 21k-node fabric check should not each build afresh;
    /// kept per thread, a memo never moves between allocator arenas.
    static LEG_MEMO: RefCell<LegMemo> = RefCell::new(LegMemo::default());
}

/// One chunk's scratch: the walk buffer, the support buffer, the leg
/// memo, and the work counters of the pieces it traced.
struct Worker {
    path: Vec<u32>,
    support: Vec<u32>,
    memo: LegMemo,
    stats: ReachStats,
}

impl Worker {
    fn new(memo: LegMemo) -> Worker {
        Worker {
            path: Vec::new(),
            support: Vec::new(),
            memo,
            stats: ReachStats::default(),
        }
    }
}

/// Ingress pieces per chunk of a class pass. A chunk is traced with one
/// [`Worker`]'s scratch, leg memo and egress splits included, and its
/// boundaries do not depend on the worker count, so neither does any
/// work counter. Both caches start empty in every chunk, so a chunk is
/// long enough for them to fill and pay off (on Waxman-425, chunks of 64
/// pieces made the check about a third slower than chunks of 1,024),
/// and a pass of one chunk — an `isolate` between two subnets, the whole
/// campus — stays on the calling thread.
const PIECES_PER_CHUNK: usize = 1024;

/// Where destination prefixes leave the network, split once per prefix a
/// chunk meets: a peeled class's egress pieces depend on its destination
/// alone. Only ever looked up, so its hashing order reaches no output.
#[derive(Default)]
struct EgressSplits {
    /// Each split destination's run in `splits`.
    runs: FxHashMap<Prefix, (usize, usize)>,
    splits: Vec<(Egress, Prefix)>,
    stubs: Vec<u32>,
}

/// What one class pass found: the visit outputs in piece order, the
/// number of classes and the summed work counters.
struct Pass<T> {
    found: Vec<T>,
    classes: usize,
    stats: ReachStats,
}

impl<'a> Checker<'a> {
    fn new(view: &'a ReachView, routes: &'a dyn RouteView, workers: Option<usize>) -> Self {
        Checker {
            view,
            routes,
            stubs: StubIndex::new(&view.plan.stub_subnets),
            candidates: FirstByKey::new(
                view.plan.candidates.iter().map(|c| ((c.point, c.function), c)),
            ),
            columns: columns(view.plan.weights.as_ref()),
            workers,
            chunk_len: PIECES_PER_CHUNK,
        }
    }

    /// The set of middleboxes a fresh flow can be steered to at `point`
    /// for chain stage `next_index` of `policy` (function `f`), under the
    /// weight `columns`, into `out` (cleared first). Sorted; empty when
    /// the decision blackholes.
    #[allow(clippy::too_many_arguments)]
    fn support(
        &self,
        point: Point,
        policy: u32,
        next_index: u16,
        f: NetworkFunction,
        columns: &Columns<'_>,
        include_failed: bool,
        out: &mut Vec<u32>,
    ) {
        let members: &[u32] = self
            .candidates
            .get((point, f))
            .map_or(&[], |c| c.members.as_slice());
        let alive = |m: &u32| {
            include_failed
                || self
                    .view
                    .plan
                    .middleboxes
                    .get(*m as usize)
                    .is_some_and(|mb| mb.available)
        };
        out.clear();
        if self.view.strategy == StrategyView::LoadBalanced {
            if let Some(c) = columns.get((point, policy, next_index)) {
                out.extend(
                    c.weights
                        .iter()
                        .filter(|&&(m, v)| v > 0.0 && members.contains(&m))
                        .map(|&(m, _)| m)
                        .filter(alive),
                );
            }
        }
        let take = match self.view.strategy {
            StrategyView::Random => usize::MAX,
            // Load-balanced falls back to hot-potato without a positive
            // column member.
            StrategyView::HotPotato | StrategyView::LoadBalanced => 1,
        };
        if out.is_empty() {
            out.extend(members.iter().copied().filter(alive).take(take));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Splits `class` by where its sources enter the network into `out`
    /// (cleared first): one piece per overlapping stub proxy, plus (if
    /// any source space is left outside every stub) the gateway ingress
    /// for external sources. `stubs` is a scratch buffer.
    fn ingresses(&self, class: FlowClass, stubs: &mut Vec<u32>, out: &mut Vec<(Ingress, FlowClass)>) {
        out.clear();
        self.stubs.overlapping(class.src, stubs);
        for &s in stubs.iter() {
            let subnet = self.view.plan.stub_subnets[s as usize];
            if let Some(src) = prefix_intersect(class.src, subnet) {
                // Traffic that stays inside the subnet never crosses the
                // stub's proxy — it is switched locally, outside the
                // steering fabric this checker models — so peel the
                // stub's own subnet off the destination space.
                prefix_subtract(class.dst, subnet, |dst| {
                    out.push((Ingress::Stub(s), FlowClass { src, dst, ..class }));
                });
            }
        }
        let gateways = self.view.gateway_routers.len() as u32;
        self.stubs.uncovered(class.src, |src| {
            // Sources inside the enterprise but in no stub don't exist;
            // everything else enters through the gateways.
            if !src.is_subset_of(self.view.enterprise) {
                out.extend((0..gateways).map(|g| (Ingress::Gateway(g), FlowClass { src, ..class })));
            }
        });
    }

    /// Where the destination space `dst` can be delivered — internal
    /// stubs, the external world, or nowhere — as `(egress, piece of
    /// dst)` pairs, split on the first call for `dst` and looked up after.
    fn egresses<'s>(&self, cache: &'s mut EgressSplits, dst: Prefix) -> &'s [(Egress, Prefix)] {
        let EgressSplits { runs, splits, stubs } = cache;
        let (start, end) = *runs.entry(dst).or_insert_with(|| {
            let start = splits.len();
            self.stubs.overlapping(dst, stubs);
            for &s in stubs.iter() {
                let subnet = self.view.plan.stub_subnets[s as usize];
                if let Some(piece) = prefix_intersect(dst, subnet) {
                    splits.push((Egress::Stub(s), piece));
                }
            }
            if !self.view.gateway_routers.is_empty() {
                self.stubs.uncovered(dst, |piece| {
                    // Enterprise space with no stub behind it is unroutable.
                    if !piece.is_subset_of(self.view.enterprise) {
                        splits.push((Egress::External, piece));
                    }
                });
            }
            (start, splits.len())
        });
        &splits[start..end]
    }

    /// Routes one leg through the chunk's leg memo: walked from `from`
    /// until it arrives, loops, dead-ends or meets a node whose outcome
    /// towards `to` is known, and every node passed records its own.
    fn walk(&self, w: &mut Worker, from: u32, to: u32) -> Routed {
        w.stats.route_legs_walked += 1;
        let Worker { path, memo, stats, .. } = w;
        let row = memo.row(to);
        let known = |memo: &LegMemo, v: u32| row.and_then(|row| memo.get(row, v));
        if let Some(outcome) = known(memo, from) {
            return outcome;
        }
        // The memo holds only walks over nodes below the node count, the
        // ones the budget never binds for.
        let nodes = self.view.plan.node_count;
        let mut in_range = (from as usize) < nodes;
        let leg = walk_into(self.routes, from, to, self.budget(), path, |v| {
            in_range &= (v as usize) < nodes;
            known(memo, v).filter(|_| in_range)
        });
        stats.route_hops_walked += leg.lookups(path);
        let end = match leg {
            Leg::Arrived => Routed::Arrived(0),
            Leg::Looped => Routed::Looped,
            Leg::Unreachable => Routed::NoRoute,
            Leg::Known(end) => end,
        };
        let hops = path.len() - 1;
        if let Some(row) = row.filter(|_| path.iter().all(|&v| (v as usize) < nodes)) {
            for (i, &v) in path.iter().enumerate().skip(1) {
                if v != to && memo.get(row, v).is_none() {
                    memo.set(row, v, end.after(hops - i));
                }
            }
        }
        end.after(hops)
    }

    /// The hop budget of a walk: at least the node count, so it only
    /// binds on a node numbered past it.
    fn budget(&self) -> usize {
        self.view.plan.node_count.max(2)
    }

    /// Traces the steering stages of `rule` from `ingress`: the strategy's
    /// first support member at each stage and the routed leg to it, ending
    /// at `Ok(router)` of the last stage or at the `Err` that stopped it.
    /// What is left of a path — the leg to the egress router — depends on
    /// the class's egress alone, so one staged trace serves every egress
    /// piece of a peeled class. The trace is written into `trace`.
    fn trace_stages(
        &self,
        w: &mut Worker,
        trace: &mut PathTrace,
        ingress: Ingress,
        rule: Option<&RuleView>,
    ) -> Result<u32, End> {
        let view = self.view;
        let chain: &[NetworkFunction] = rule.map(|r| r.chain.as_slice()).unwrap_or(&[]);
        let policy = rule.map(|r| r.policy).unwrap_or(0);
        trace.clear();
        let Some(mut at_router) = view.ingress_router(ingress) else {
            return Err(End::NoRoute);
        };
        trace.ingress_router = at_router;
        let mut point = view.ingress_point(ingress);
        for (stage_index, &f) in chain.iter().enumerate() {
            // A box implementing the next function applies it locally.
            if let Point::Middlebox(m) = point {
                if view.plan.middleboxes[m as usize].functions.contains(&f) {
                    trace.steps.push(Step::Apply(f, m));
                    continue;
                }
            }
            let next_index = stage_index as u16;
            self.support(point, policy, next_index, f, &self.columns, false, &mut w.support);
            let Some(&target) = w.support.first() else {
                return Err(End::Blackhole(f));
            };
            trace.support_union.extend_from_slice(&w.support);
            let target_router = view.plan.middleboxes[target as usize].router as u32;
            trace.steps.push(Step::Route(at_router, target_router));
            match self.walk(w, at_router, target_router) {
                Routed::Arrived(hops) => trace.router_hops += hops,
                Routed::Looped => return Err(End::Looped),
                Routed::NoRoute => return Err(End::NoRoute),
            }
            trace.steps.push(Step::Mbox(target));
            trace.stages.push(target);
            at_router = target_router;
            point = Point::Middlebox(target);
        }
        trace.support_union.sort_unstable();
        trace.support_union.dedup();
        Ok(at_router)
    }

    /// Streams the (ingress, rule, egress) pieces of the traffic
    /// `src -> dst` — each with a single governing rule, ingress point
    /// and egress kind — through `visit`, one traced class at a time:
    /// nothing per class outlives its visit but what `visit` returns.
    ///
    /// This is the one class pipeline. The ingress pieces are cut into
    /// contiguous chunks of `chunk_len`, dealt to `sdm_util::par`
    /// workers; each chunk is traced with its own [`Worker`] scratch, and
    /// the chunks' outputs are concatenated in chunk order and their
    /// counters summed. A class's trace depends only on its piece and the
    /// read-only [`Checker`], and a chunk's counters only on its pieces,
    /// so the [`Pass`] is the same at every worker count.
    fn for_each_class<T, V>(&self, src: Prefix, dst: Prefix, visit: V) -> Pass<T>
    where
        T: Send,
        V: Fn(&Self, &mut Worker, Ingress, FlowClass, Option<&'a RuleView>, &PathTrace, End) -> Option<T>
            + Sync,
    {
        let mut pieces = Vec::new();
        self.ingresses(FlowClass::between(src, dst), &mut Vec::new(), &mut pieces);
        let chunks: Vec<&[(Ingress, FlowClass)]> = pieces.chunks(self.chunk_len.max(1)).collect();
        let workers = self.workers.unwrap_or_else(|| thread_count(chunks.len()));
        let parts = par_map_with(workers, &chunks, |_, chunk| self.trace_pieces(chunk, &visit));
        let mut pass = Pass {
            found: Vec::new(),
            classes: 0,
            stats: ReachStats::default(),
        };
        for part in parts {
            pass.found.extend(part.found);
            pass.classes += part.classes;
            pass.stats.absorb(&part.stats);
        }
        pass
    }

    /// One worker's share of [`Checker::for_each_class`]: `pieces` peeled,
    /// split by egress, traced and visited in order, every buffer reused
    /// from one piece to the next.
    fn trace_pieces<T, V>(&self, pieces: &[(Ingress, FlowClass)], visit: &V) -> Pass<T>
    where
        V: Fn(&Self, &mut Worker, Ingress, FlowClass, Option<&'a RuleView>, &PathTrace, End) -> Option<T>,
    {
        let view = self.view;
        let mut memo = LEG_MEMO.take();
        if memo.column.len() != view.plan.node_count {
            memo = LegMemo::new(view.plan.node_count);
        }
        let mut w = Worker::new(memo);
        let mut peel_bufs = PeelBufs::default();
        let mut peeled = Vec::new();
        let mut egresses = EgressSplits::default();
        let mut trace = PathTrace::default();
        let mut found = Vec::new();
        let mut classes = 0usize;
        for &(ingress, in_class) in pieces {
            w.stats.ingress_pieces += 1;
            view.peel(in_class, &mut peel_bufs, &mut peeled);
            for &(peeled_class, rule) in &peeled {
                w.stats.peeled_classes += 1;
                let mut staged: Option<Result<u32, End>> = None;
                for &(egress, dst) in self.egresses(&mut egresses, peeled_class.dst) {
                    let class = FlowClass { dst, ..peeled_class };
                    classes += 1;
                    let Some(out_router) = egress_router(view, egress) else {
                        continue;
                    };
                    w.stats.classes_traced += 1;
                    let stages = *staged
                        .get_or_insert_with(|| self.trace_stages(&mut w, &mut trace, ingress, rule));
                    let staged_len = (trace.steps.len(), trace.router_hops);
                    let end = match stages {
                        Err(end) => end,
                        Ok(at_router) => {
                            trace.steps.push(Step::Route(at_router, out_router));
                            match self.walk(&mut w, at_router, out_router) {
                                Routed::Arrived(hops) => {
                                    trace.router_hops += hops;
                                    trace.steps.push(Step::Deliver(out_router));
                                    End::Delivered
                                }
                                Routed::Looped => End::Looped,
                                Routed::NoRoute => End::NoRoute,
                            }
                        }
                    };
                    found.extend(visit(self, &mut w, ingress, class, rule, &trace, end));
                    trace.steps.truncate(staged_len.0);
                    trace.router_hops = staged_len.1;
                }
            }
        }
        w.memo.clear();
        LEG_MEMO.set(w.memo);
        Pass {
            found,
            classes,
            stats: w.stats,
        }
    }

    /// Renders a structural trace as the hop-by-hop witness path of a
    /// finding, walking its routed legs again for their nodes.
    fn render(&self, w: &mut Worker, ingress: Ingress, trace: &PathTrace) -> Vec<String> {
        w.stats.witnesses_rendered += 1;
        let mut hops = vec![format!("{ingress}@n{}", trace.ingress_router)];
        for step in &trace.steps {
            hops.push(match *step {
                Step::Apply(f, m) => format!("apply({f})@m{m}"),
                Step::Mbox(m) => format!("mbox(m{m})"),
                Step::Deliver(n) => format!("deliver@n{n}"),
                Step::Route(from, to) => {
                    // A leg without a route ends its trace unshown, so
                    // only arrivals and loops are ever rendered.
                    let path = &mut w.path;
                    let leg =
                        walk_into(self.routes, from, to, self.budget(), path, |_| None::<Infallible>);
                    w.stats.route_legs_walked += 1;
                    w.stats.route_hops_walked += leg.lookups(path);
                    let label = match leg {
                        Leg::Looped => "loop",
                        Leg::Arrived | Leg::Unreachable => "route",
                        Leg::Known(never) => match never {},
                    };
                    let nodes: Vec<String> = w.path.iter().map(|n| format!("n{n}")).collect();
                    format!("{label}[{}]", nodes.join("->"))
                }
            });
        }
        hops
    }
}

/// Checks `assertions` against the deployment and returns the sorted
/// report. `routes` must be the same next-hop view the simulator's
/// routers use ([`RouteView`]).
///
/// Cost follows the flow classes produced, not the network: stub subnets
/// are found through an index built once per call, classes are traced
/// as they are produced and dropped, and a witness path is rendered only
/// for a class that becomes a finding ([`ReachReport::stats`] counts
/// each stage). Work that cannot differ is done once: the peel skips
/// the rules disjoint from an ingress piece, a destination prefix is
/// split by egress once per chunk of ingress pieces, and a routed leg is
/// followed only to the first node whose outcome towards the same
/// destination the chunk's leg memo holds. Each assertion's ingress
/// pieces are cut into fixed-size chunks (`PIECES_PER_CHUNK`), spread over
/// `sdm_util::par::thread_count` workers (`SDM_THREADS` caps them; a
/// pass of one chunk stays on the calling thread) that share the
/// read-only inputs and reuse their own buffers, so a class costs no
/// allocation. The report — findings, verdicts, `to_json` and `stats` —
/// is the same at every worker count: chunk boundaries do not depend on
/// it, outputs are merged in ingress-piece order and counters summed.
pub fn check_assertions(
    view: &ReachView,
    routes: &dyn RouteView,
    assertions: &[Assertion],
) -> ReachReport {
    run_checks(&Checker::new(view, routes, None), assertions)
}

/// [`check_assertions`] over a built checker, whose worker count tests
/// may fix.
fn run_checks(cx: &Checker<'_>, assertions: &[Assertion]) -> ReachReport {
    let mut findings: Vec<ReachFinding> = Vec::new();
    let mut results: Vec<AssertionResult> = Vec::new();
    let mut flow_classes = 0usize;
    let mut stats = ReachStats::default();

    for assertion in assertions {
        let pass = match *assertion {
            Assertion::Isolated { src, dst } => check_isolation(cx, src, dst, assertion),
            Assertion::Waypoint { src, dst, via } => check_waypoint(cx, src, dst, via, assertion),
            Assertion::LoopFree { ttl } => check_loop_free(cx, ttl, assertion),
        };
        flow_classes += pass.classes;
        stats.absorb(&pass.stats);
        results.push(AssertionResult {
            assertion: assertion.to_string(),
            holds: pass.found.is_empty(),
            classes_checked: pass.classes,
        });
        findings.extend(pass.found);
    }

    check_hazards(cx, &mut findings);

    findings.sort_by(|a, b| {
        (a.code, &a.subject, &a.detail).cmp(&(b.code, &b.subject, &b.detail))
    });
    findings.dedup_by(|a, b| a.code == b.code && a.subject == b.subject && a.detail == b.detail);
    ReachReport {
        results,
        findings,
        flow_classes,
        stats,
    }
}

/// Every flow class of `src -> dst` that is delivered or loops, with its
/// path rendered on the spot — the eager counterpart of the witness
/// paths [`check_assertions`] renders for findings only. Test support:
/// the two must agree path for path.
#[doc(hidden)]
pub fn render_all_classes(
    view: &ReachView,
    routes: &dyn RouteView,
    src: Prefix,
    dst: Prefix,
) -> Vec<(FlowClass, Vec<String>)> {
    render_classes(&Checker::new(view, routes, None), src, dst)
}

fn render_classes(cx: &Checker<'_>, src: Prefix, dst: Prefix) -> Vec<(FlowClass, Vec<String>)> {
    cx.for_each_class(src, dst, |cx, w, ingress, class, _, trace, end| {
        matches!(end, End::Delivered | End::Looped).then(|| (class, cx.render(w, ingress, trace)))
    })
    .found
}

fn egress_router(view: &ReachView, egress: Egress) -> Option<u32> {
    match egress {
        Egress::Stub(s) => view.stub_routers.get(s as usize).copied(),
        // External traffic exits via the first gateway (symbolically any
        // gateway reaches the same external world).
        Egress::External => view.gateway_routers.first().copied(),
    }
}

fn policy_label(rule: Option<&RuleView>, permit: &str) -> String {
    match rule {
        Some(r) => format!("policy p{}", r.policy),
        None => permit.to_string(),
    }
}

fn check_isolation(
    cx: &Checker<'_>,
    src: Prefix,
    dst: Prefix,
    assertion: &Assertion,
) -> Pass<ReachFinding> {
    cx.for_each_class(src, dst, |cx, w, ingress, class, rule, trace, end| match end {
        End::Delivered => {
            let scenario = make_scenario(
                cx.view,
                ingress,
                &class,
                trace,
                ReachCode::IsolationBreach,
                assertion,
            );
            Some(ReachFinding {
                code: ReachCode::IsolationBreach,
                subject: assertion.to_string(),
                detail: format!(
                    "flow class {class} from {ingress} is delivered ({}); \
nothing on its path drops it",
                    policy_label(rule, "default permit")
                ),
                witness: Some(ReachWitness {
                    class,
                    path: cx.render(w, ingress, trace),
                    scenario,
                }),
            })
        }
        End::Blackhole(stage) => Some(blackhole_finding(assertion, &class, stage)),
        // Looping or unroutable traffic is not *delivered*, so the
        // isolation assertion is not refuted by it.
        End::Looped | End::NoRoute => None,
    })
}

fn check_waypoint(
    cx: &Checker<'_>,
    src: Prefix,
    dst: Prefix,
    via: NetworkFunction,
    assertion: &Assertion,
) -> Pass<ReachFinding> {
    cx.for_each_class(src, dst, |cx, w, ingress, class, rule, trace, end| match end {
        End::Delivered => {
            if rule.is_some_and(|r| r.chain.contains(&via)) {
                return None; // every support member of the via stage implements it
            }
            // Delivered without the function on its chain: bypass.
            // The claim "no box implementing `via` processed it" is
            // only sound for boxes outside every stage's support.
            let avoided: Vec<u32> = (0u32..)
                .zip(&cx.view.plan.middleboxes)
                .filter(|(i, m)| m.functions.contains(&via) && !trace.support_union.contains(i))
                .map(|(i, _)| i)
                .collect();
            let scenario = make_bypass_scenario(cx.view, ingress, &class, trace, &avoided);
            Some(ReachFinding {
                code: ReachCode::WaypointBypass,
                subject: assertion.to_string(),
                detail: format!(
                    "flow class {class} from {ingress} is delivered under {} \
whose chain does not include {via}",
                    policy_label(rule, "the default permit")
                ),
                witness: Some(ReachWitness {
                    class,
                    path: cx.render(w, ingress, trace),
                    scenario,
                }),
            })
        }
        End::Blackhole(stage) => Some(blackhole_finding(assertion, &class, stage)),
        End::Looped | End::NoRoute => None,
    })
}

fn check_loop_free(cx: &Checker<'_>, ttl: u32, assertion: &Assertion) -> Pass<ReachFinding> {
    // Loop freedom quantifies over *all* traffic: every flow class from
    // every ingress, traced and counted like any other. The ANY → ANY
    // peel yields each policy rule's classes and the default-permit
    // remainder (`rule` = `None`), which is traced over its plain
    // shortest paths; both can end `Looped` or exceed the ttl.
    cx.for_each_class(Prefix::ANY, Prefix::ANY, |cx, w, ingress, class, _, trace, end| {
        let detail = match end {
            End::Delivered if trace.router_hops as u32 > ttl => format!(
                "flow class {class} from {ingress} needs {} router hops, \
exceeding the ttl budget {ttl}",
                trace.router_hops
            ),
            End::Looped => format!(
                "flow class {class} from {ingress} enters a routed \
forwarding loop; packets die by TTL, never by delivery"
            ),
            End::Blackhole(stage) => return Some(blackhole_finding(assertion, &class, stage)),
            End::Delivered | End::NoRoute => return None,
        };
        Some(ReachFinding {
            code: ReachCode::TtlExceeded,
            subject: assertion.to_string(),
            detail,
            witness: Some(ReachWitness {
                class,
                path: cx.render(w, ingress, trace),
                scenario: None,
            }),
        })
    })
}

fn blackhole_finding(assertion: &Assertion, class: &FlowClass, stage: NetworkFunction) -> ReachFinding {
    ReachFinding {
        code: ReachCode::BlackholeClass,
        subject: assertion.to_string(),
        detail: format!(
            "flow class {class} blackholes: steering stage {stage} has no \
available candidate middlebox"
        ),
        witness: Some(ReachWitness {
            class: *class,
            path: Vec::new(),
            scenario: None,
        }),
    }
}

/// Hazard pass: stale pinned flows across a weight swap or failure, and
/// label-TTL skew. Runs over every policy rule's class.
fn check_hazards(cx: &Checker<'_>, findings: &mut Vec<ReachFinding>) {
    let view = cx.view;
    let Some(hazards) = &view.hazards else { return };

    // R006: label-table TTL skew affects every label-switched class.
    if let Some(o) = &view.plan.options {
        if o.label_ttl > o.flow_ttl {
            for rule in view.rules.iter().filter(|r| !r.chain.is_empty()) {
                findings.push(ReachFinding {
                    code: ReachCode::LabelTtlSkew,
                    subject: format!("policy(p{})", rule.policy),
                    detail: format!(
                        "label-switched class {} rides labels with ttl {} while \
its flow entry expires after {}; a reallocated label can collide with the stale \
⟨src|l, a⟩ binding mid-path",
                        rule.class, o.label_ttl, o.flow_ttl
                    ),
                    witness: Some(ReachWitness {
                        class: rule.class,
                        path: Vec::new(),
                        scenario: None,
                    }),
                });
            }
        }
    }

    // R005: a flow steered and pinned under the pre-hazard state whose
    // pinned target is now failed. The pre-hazard support is computed
    // with the previous weights and *including* now-failed boxes.
    if hazards.failed_now.is_empty() {
        return;
    }
    let prev_columns = hazards.prev_weights.as_ref().map(|w| columns(Some(w)));
    let prev_columns = prev_columns.as_ref().unwrap_or(&cx.columns);
    let (mut stubs, mut ingresses, mut prev_support) = (Vec::new(), Vec::new(), Vec::new());
    for rule in view.rules.iter().filter(|r| !r.chain.is_empty()) {
        cx.ingresses(rule.class, &mut stubs, &mut ingresses);
        for &(ingress, class) in &ingresses {
            let point = view.ingress_point(ingress);
            let f = rule.chain[0];
            cx.support(point, rule.policy, 0, f, prev_columns, true, &mut prev_support);
            let stale: Vec<u32> = prev_support
                .iter()
                .copied()
                .filter(|m| hazards.failed_now.binary_search(m).is_ok())
                .collect();
            if stale.is_empty() {
                continue;
            }
            // A deterministic replay needs the pre-hazard pin target to
            // be forced: only a singleton support pins predictably.
            let scenario = if prev_support.len() == 1 {
                make_stale_pin_scenario(view, ingress, &class, prev_support[0])
            } else {
                None
            };
            findings.push(ReachFinding {
                code: ReachCode::StalePinnedFlow,
                subject: format!("{point} policy(p{})", rule.policy),
                detail: format!(
                    "flows of class {class} pinned before the hazard target {} \
for {f}; {} now failed — pinned packets drop until the flow entry expires or the \
next epoch re-steers",
                    join_boxes(&prev_support),
                    join_boxes(&stale),
                ),
                witness: Some(ReachWitness {
                    class,
                    path: vec![format!("{point}"), format!("pinned->m{}", stale[0])],
                    scenario,
                }),
            });
        }
    }
}

fn join_boxes(boxes: &[u32]) -> String {
    boxes
        .iter()
        .map(|m| format!("m{m}"))
        .collect::<Vec<_>>()
        .join(",")
}

// ---------------------------------------------------------------------------
// Witness lowering
// ---------------------------------------------------------------------------

/// Packets per injection: enough to survive batching corners, small
/// enough to keep replay instant.
const WITNESS_PACKETS: u64 = 8;

fn witness_flow(class: &FlowClass) -> WitnessFlow {
    let ft = class.representative();
    WitnessFlow {
        src: ft.src,
        dst: ft.dst,
        src_port: ft.src_port,
        dst_port: ft.dst_port,
        proto: ft.proto.number(),
    }
}

/// A delivery witness (isolation breach): inject and expect delivery,
/// with every deterministic stage box required to process the flow.
fn make_scenario(
    view: &ReachView,
    ingress: Ingress,
    class: &FlowClass,
    trace: &PathTrace,
    code: ReachCode,
    assertion: &Assertion,
) -> Option<ReplayScenario> {
    let Ingress::Stub(stub) = ingress else {
        return None; // gateway ingress cannot be injected at a proxy
    };
    // Per-stage processing is only a sound expectation when the strategy
    // is deterministic (each stage's support was a singleton).
    let deterministic = trace.support_union.len() == trace.stages.len()
        && view.strategy != StrategyView::Random;
    let must_process = if deterministic {
        trace.stages.clone()
    } else {
        Vec::new()
    };
    Some(ReplayScenario {
        name: format!("{assertion} :: {class} @ s{stub}"),
        code: code.as_str().to_string(),
        stub,
        flow: witness_flow(class),
        steps: vec![ReplayStep::Inject {
            packets: WITNESS_PACKETS,
            expect: StepExpect {
                delivered: true,
                dropped_failed: false,
                must_process,
                must_not_process: Vec::new(),
            },
        }],
    })
}

/// A bypass witness: inject, expect delivery, and require that no box in
/// `avoided` (implementers of the waypoint function outside every stage
/// support) processes a packet.
fn make_bypass_scenario(
    view: &ReachView,
    ingress: Ingress,
    class: &FlowClass,
    trace: &PathTrace,
    avoided: &[u32],
) -> Option<ReplayScenario> {
    let Ingress::Stub(stub) = ingress else {
        return None;
    };
    let deterministic = trace.support_union.len() == trace.stages.len()
        && view.strategy != StrategyView::Random;
    Some(ReplayScenario {
        name: format!("waypoint-bypass :: {class} @ s{stub}"),
        code: ReachCode::WaypointBypass.as_str().to_string(),
        stub,
        flow: witness_flow(class),
        steps: vec![ReplayStep::Inject {
            packets: WITNESS_PACKETS,
            expect: StepExpect {
                delivered: true,
                dropped_failed: false,
                must_process: if deterministic {
                    trace.stages.clone()
                } else {
                    Vec::new()
                },
                must_not_process: avoided.to_vec(),
            },
        }],
    })
}

/// A stale-pin hazard witness: inject while `target` is alive (the flow
/// pins to it), fail it, inject again and expect `dropped_failed` to
/// rise; restore to leave the world clean.
fn make_stale_pin_scenario(
    _view: &ReachView,
    ingress: Ingress,
    class: &FlowClass,
    target: u32,
) -> Option<ReplayScenario> {
    let Ingress::Stub(stub) = ingress else {
        return None;
    };
    Some(ReplayScenario {
        name: format!("stale-pin m{target} :: {class} @ s{stub}"),
        code: ReachCode::StalePinnedFlow.as_str().to_string(),
        stub,
        flow: witness_flow(class),
        steps: vec![
            ReplayStep::Inject {
                packets: WITNESS_PACKETS,
                expect: StepExpect {
                    delivered: true,
                    dropped_failed: false,
                    must_process: vec![target],
                    must_not_process: Vec::new(),
                },
            },
            ReplayStep::FailMbox(target),
            ReplayStep::Inject {
                packets: WITNESS_PACKETS,
                expect: StepExpect {
                    delivered: false,
                    dropped_failed: true,
                    // The stale pin still forwards every packet *to* the
                    // dead box (its receive counter rises); they die
                    // there instead of being re-steered.
                    must_process: vec![target],
                    must_not_process: Vec::new(),
                },
            },
            ReplayStep::RestoreMbox(target),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ChainView, MboxView, OptionsView};
    use std::collections::BTreeSet;
    use sdm_policy::NetworkFunction::*;

    fn prefix(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    // -- flow-class algebra --------------------------------------------

    /// The pieces [`prefix_subtract`] emits, collected.
    fn prefix_pieces(a: Prefix, b: Prefix) -> Vec<Prefix> {
        let mut out = Vec::new();
        prefix_subtract(a, b, |p| out.push(p));
        out
    }

    #[test]
    fn prefix_subtract_peels_siblings() {
        let a = prefix("10.0.0.0/8");
        let b = prefix("10.0.48.0/20");
        let pieces = prefix_pieces(a, b);
        // 12 sibling prefixes (one per bit between /8 and /20).
        assert_eq!(pieces.len(), 12);
        // Disjoint, none contains b, and together with b they cover a.
        let total: u64 = pieces.iter().map(|p| 1u64 << (32 - p.len())).sum();
        assert_eq!(total + (1u64 << 12), 1u64 << 24);
        for p in &pieces {
            assert!(!p.overlaps(b), "{p} overlaps {b}");
            assert!(p.is_subset_of(a));
        }
        assert!(prefix_pieces(b, a).is_empty());
        assert_eq!(prefix_pieces(b, prefix("11.0.0.0/8")), vec![b]);
    }

    // The class algebra as it was before it wrote into caller-owned
    // buffers, kept verbatim as the reference the properties compare
    // against.

    fn prefix_subtract_ref(a: Prefix, b: Prefix) -> Vec<Prefix> {
        if !a.overlaps(b) {
            return vec![a];
        }
        if a.is_subset_of(b) {
            return Vec::new();
        }
        // b is a strict subset of a: peel siblings.
        let mut out = Vec::new();
        let mut cur = a;
        while cur.len() < b.len() {
            let child_len = cur.len() + 1;
            let bit = 1u32 << (32 - child_len as u32);
            let low = Prefix::new(cur.addr(), child_len);
            let high = Prefix::new(Ipv4Addr(cur.addr().0 | bit), child_len);
            if b.addr().0 & bit == 0 {
                out.push(high);
                cur = low;
            } else {
                out.push(low);
                cur = high;
            }
        }
        out.sort_by_key(|p| (p.addr().0, p.len()));
        out
    }

    fn interval_subtract_ref(a: (u16, u16), b: (u16, u16)) -> Vec<(u16, u16)> {
        if b.1 < a.0 || b.0 > a.1 {
            return vec![a];
        }
        let mut out = Vec::new();
        if b.0 > a.0 {
            out.push((a.0, b.0 - 1));
        }
        if b.1 < a.1 {
            out.push((b.1 + 1, a.1));
        }
        out
    }

    impl FlowClass {
        fn subtract_ref(&self, other: &FlowClass) -> Vec<FlowClass> {
            let Some(_) = self.intersect(other) else {
                return vec![*self];
            };
            let mut out: Vec<FlowClass> = Vec::new();
            // Field 1: src addresses outside other.src.
            for p in prefix_subtract_ref(self.src, other.src) {
                out.push(FlowClass { src: p, ..*self });
            }
            let src = match prefix_intersect(self.src, other.src) {
                Some(p) => p,
                None => {
                    out.sort();
                    return out;
                }
            };
            // Field 2: dst addresses outside other.dst (src already narrowed).
            for p in prefix_subtract_ref(self.dst, other.dst) {
                out.push(FlowClass { src, dst: p, ..*self });
            }
            let Some(dst) = prefix_intersect(self.dst, other.dst) else {
                out.sort();
                return out;
            };
            // Field 3: source ports.
            for iv in interval_subtract_ref(self.src_ports, other.src_ports) {
                out.push(FlowClass {
                    src,
                    dst,
                    src_ports: iv,
                    ..*self
                });
            }
            let Some(src_ports) = interval_intersect(self.src_ports, other.src_ports) else {
                out.sort();
                return out;
            };
            // Field 4: destination ports.
            for iv in interval_subtract_ref(self.dst_ports, other.dst_ports) {
                out.push(FlowClass {
                    src,
                    dst,
                    src_ports,
                    dst_ports: iv,
                    ..*self
                });
            }
            let Some(dst_ports) = interval_intersect(self.dst_ports, other.dst_ports) else {
                out.sort();
                return out;
            };
            // Field 5: protocols.
            let protos = self.protos.subtract(other.protos);
            if !protos.is_empty() {
                out.push(FlowClass {
                    src,
                    dst,
                    src_ports,
                    dst_ports,
                    protos,
                });
            }
            out.sort();
            out
        }
    }

    impl ReachView {
        fn peel_ref(&self, class: FlowClass) -> Vec<(FlowClass, Option<&RuleView>)> {
            let mut remaining = vec![class];
            let mut out: Vec<(FlowClass, Option<&RuleView>)> = Vec::new();
            for rule in &self.rules {
                let mut next_remaining = Vec::new();
                for piece in remaining {
                    if let Some(hit) = piece.intersect(&rule.class) {
                        out.push((hit, Some(rule)));
                    }
                    next_remaining.extend(piece.subtract_ref(&rule.class));
                }
                remaining = next_remaining;
                if remaining.is_empty() {
                    break;
                }
            }
            for piece in remaining {
                out.push((piece, None));
            }
            out
        }
    }

    /// A class from small numbers: pool prefixes (nested, equal and
    /// neighbouring ones likely, lengths 0–32), port intervals with ends
    /// drawn from corners that touch 0 and 65535, and any, TCP or UDP.
    type ClassSpec = ((u8, u8), (u8, u8), (u8, u8), (u8, u8), u8);

    fn pool_class((src, dst, src_ports, dst_ports, proto): ClassSpec) -> FlowClass {
        const PORTS: [u16; 9] = [0, 1, 79, 80, 81, 1023, 1024, 65534, 65535];
        let interval = |(a, b): (u8, u8)| {
            let (a, b) = (PORTS[a as usize % PORTS.len()], PORTS[b as usize % PORTS.len()]);
            (a.min(b), a.max(b))
        };
        FlowClass {
            src: pool_prefix(src),
            dst: pool_prefix(dst),
            src_ports: interval(src_ports),
            dst_ports: interval(dst_ports),
            protos: match proto % 4 {
                0 | 1 => ProtoSet::ANY,
                2 => ProtoSet::single(6),
                _ => ProtoSet::single(17),
            },
        }
    }

    fn gen_spec(rng: &mut sdm_util::StdRng) -> ClassSpec {
        let mut pair = || (rng.next_u32() as u8, rng.next_u32() as u8);
        (pair(), pair(), pair(), pair(), rng.next_u32() as u8)
    }

    /// The number of five-tuples in `c`.
    fn volume(c: &FlowClass) -> u128 {
        let prefix = |p: Prefix| 1u128 << (32 - p.len());
        let ports = |(lo, hi): (u16, u16)| u128::from(hi - lo) + 1;
        let protos: u32 = c.protos.0.iter().map(|w| w.count_ones()).sum();
        prefix(c.src) * prefix(c.dst) * ports(c.src_ports) * ports(c.dst_ports) * u128::from(protos)
    }

    #[test]
    fn class_subtract_is_disjoint_and_covering() {
        use sdm_util::prop::{check, Config};
        check(
            "a.subtract(b) partitions a \\ b",
            &Config::with_cases(2_000),
            |rng| (gen_spec(rng), gen_spec(rng)),
            |&(a, b)| {
                let (a, b) = (pool_class(a), pool_class(b));
                let pieces = a.subtract(&b);
                for (i, p) in pieces.iter().enumerate() {
                    sdm_util::prop_assert_eq!(p.intersect(&a), Some(*p), "{p} lies inside {a}");
                    sdm_util::prop_assert!(p.intersect(&b).is_none(), "{p} intersects {b}");
                    for q in &pieces[i + 1..] {
                        sdm_util::prop_assert!(p.intersect(q).is_none(), "{p} overlaps {q}");
                    }
                }
                // Disjoint pieces inside a \ b whose sizes add up to it
                // cover it.
                let meet = a.intersect(&b).map_or(0, |m| volume(&m));
                let covered: u128 = pieces.iter().map(volume).sum();
                sdm_util::prop_assert_eq!(covered + meet, volume(&a));
                Ok(())
            },
        );
    }

    #[test]
    fn buffered_class_algebra_equals_the_reference() {
        use sdm_util::prop::{check, Config};
        check(
            "subtract / prefix_subtract / interval_subtract / peel == reference",
            &Config::with_cases(2_000),
            |rng| {
                let rules = rng.gen_range(0..8usize);
                (gen_spec(rng), gen_spec(rng), (0..rules).map(|_| gen_spec(rng)).collect::<Vec<_>>())
            },
            |(a, b, rules)| {
                let (a, b) = (pool_class(*a), pool_class(*b));
                for (x, y) in [(a.src, b.src), (a.dst, b.dst), (a.src, b.dst), (b.src, a.src)] {
                    sdm_util::prop_assert_eq!(prefix_pieces(x, y), prefix_subtract_ref(x, y), "{x} \\ {y}");
                }
                for (x, y) in [(a.src_ports, b.src_ports), (a.dst_ports, b.dst_ports)] {
                    let mut got = Vec::new();
                    interval_subtract(x, y, |iv| got.push(iv));
                    sdm_util::prop_assert_eq!(got, interval_subtract_ref(x, y));
                }
                sdm_util::prop_assert_eq!(a.subtract(&b), a.subtract_ref(&b), "{a} \\ {b}");
                // Appending leaves what the buffer held alone.
                let mut out = vec![b];
                a.subtract_into(&b, &mut out);
                sdm_util::prop_assert_eq!(out[0], b);
                sdm_util::prop_assert_eq!(out[1..].to_vec(), a.subtract_ref(&b));

                let (view, _) = line_view();
                let view = ReachView {
                    rules: (0u32..)
                        .zip(rules)
                        .map(|(policy, &spec)| RuleView { policy, class: pool_class(spec), chain: Vec::new() })
                        .collect(),
                    ..view
                };
                let tagged = |pieces: &[(FlowClass, Option<&RuleView>)]| -> Vec<(FlowClass, Option<u32>)> {
                    pieces.iter().map(|&(c, r)| (c, r.map(|r| r.policy))).collect()
                };
                // One set of buffers, reused across classes.
                let (mut bufs, mut peeled) = (PeelBufs::default(), Vec::new());
                for class in [a, b, FlowClass::any()] {
                    view.peel(class, &mut bufs, &mut peeled);
                    sdm_util::prop_assert_eq!(tagged(&peeled), tagged(&view.peel_ref(class)), "peel {class}");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn proto_set_algebra() {
        let any = ProtoSet::ANY;
        let tcp = ProtoSet::single(6);
        assert!(any.contains(6) && any.contains(255));
        assert!(tcp.contains(6) && !tcp.contains(17));
        assert!(any.subtract(tcp).contains(17));
        assert!(!any.subtract(tcp).contains(6));
        assert!(tcp.intersect(ProtoSet::single(17)).is_empty());
        assert_eq!(tcp.representative(), Some(6));
        assert_eq!(ProtoSet::EMPTY.representative(), None);
        assert_eq!(any.representative(), Some(6), "prefers tcp");
        assert_eq!(format!("{tcp}"), "tcp");
        assert_eq!(format!("{}", ProtoSet::single(17)), "udp");
        assert_eq!(format!("{any}"), "*");
    }

    #[test]
    fn representative_is_a_member() {
        let c = FlowClass {
            src: prefix("10.0.0.0/20"),
            dst: prefix("10.0.48.0/20"),
            src_ports: (1000, 2000),
            dst_ports: (80, 80),
            protos: ProtoSet::single(17),
        };
        let ft = c.representative();
        assert!(c.src.contains(ft.src));
        assert!(c.dst.contains(ft.dst));
        assert_eq!(ft.src.0, c.src.addr().0 + 1, "first host address");
        assert_eq!(ft.src_port, 1000);
        assert_eq!(ft.dst_port, 80);
        assert_eq!(ft.proto.number(), 17);
    }

    // -- assertion parsing ---------------------------------------------

    #[test]
    fn assertion_grammar_round_trips() {
        let text = "\
# comment
isolate 10.0.0.0/20 -> 10.0.48.0/20

waypoint 10.0.0.0/20 -> * via FW
loop-free ttl 64   # trailing comment
";
        let parsed = parse_assertions(text).unwrap();
        assert_eq!(parsed.len(), 3);
        let rendered: Vec<String> = parsed.iter().map(|a| a.to_string()).collect();
        let reparsed = parse_assertions(&rendered.join("\n")).unwrap();
        assert_eq!(parsed, reparsed);
    }

    #[test]
    fn assertion_parse_errors_name_the_line() {
        // (text, line, column, what the message says)
        let cases = [
            ("isolate 10.0.0.0/20 10.0.48.0/20", 1, 21, "expected '->', found '10.0.48.0/20'"),
            ("waypoint * -> * via BOGUS", 1, 21, "unknown network function 'BOGUS'"),
            ("waypoint * -> * by FW", 1, 17, "expected 'via', found 'by'"),
            ("# header\n\nisolate 10.0.0.0/33 -> *", 3, 9, "'10.0.0.0/33' is not an address prefix"),
            ("loop-free ttl 64\n  isolate * -> * extra  # comment", 2, 18, "unexpected 'extra'"),
            ("frobnicate * -> *", 1, 1, "unrecognized assertion 'frobnicate'"),
            ("isolate 10.0.0.0/20", 1, 20, "missing '->'"),
            ("isolate 10.0.0.0/20 ->  # no destination", 1, 23, "missing destination prefix"),
            ("loop-free ttl sixty", 1, 15, "bad ttl 'sixty'"),
            ("loop-free", 1, 10, "missing 'ttl'"),
            ("\tisolate é -> *", 1, 10, "'é' is not an address prefix"),
        ];
        for (text, line, column, message) in cases {
            let err = parse_assertions_at(text).unwrap_err();
            assert_eq!((err.line, err.column), (line, column), "{text:?}: {err}");
            assert!(err.message.contains(message), "{text:?}: {err}");
            let shown = parse_assertions(text).unwrap_err();
            assert!(shown.starts_with(&format!("line {line}, column {column}: ")), "{shown}");
        }
    }

    #[test]
    fn mutated_assertion_files_never_panic_and_errors_point_inside_them() {
        const FILES: [&str; 2] = [
            include_str!("../../../results/assertions_campus.txt"),
            include_str!("../../../results/assertions_hier.txt"),
        ];
        // Bytes the grammar cares about, and ones that break UTF-8.
        const BYTES: &[u8] = b" \t\r\n#*->/.0123456789abcdefviaFWIDSttl\xc3\xa9\xff";
        sdm_util::prop::fuzz_text(
            "parse_assertions over byte-mutated assertion files",
            2_000,
            &FILES,
            BYTES,
            |text| {
                if let Err(e) = parse_assertions_at(text) {
                    let line = text.lines().nth(e.line.wrapping_sub(1));
                    sdm_util::prop_assert!(line.is_some(), "{e}: the text has {} lines", text.lines().count());
                    let chars = line.unwrap_or_default().chars().count();
                    sdm_util::prop_assert!((1..=chars + 1).contains(&e.column), "{e}: the line has {chars} characters");
                }
                Ok(())
            },
        );
    }

    // -- walk_route ----------------------------------------------------

    /// A routing view given by an explicit next-hop table.
    struct TableRoutes {
        next: Vec<Vec<Option<u32>>>, // next[from][dst]
    }

    impl RouteView for TableRoutes {
        fn next_hop(&self, from: u32, dst: u32) -> Option<u32> {
            self.next[from as usize][dst as usize]
        }
        fn dist(&self, from: u32, dst: u32) -> Option<u32> {
            if from == dst {
                Some(0)
            } else {
                self.next_hop(from, dst).map(|_| 1)
            }
        }
    }

    #[test]
    fn walk_route_detects_micro_loops() {
        // 0 -> 1 -> 2 fine; 0 -> 1 <-> 0 for dst 3 loops.
        let mut next = vec![vec![None; 4]; 4];
        next[0][2] = Some(1);
        next[1][2] = Some(2);
        next[0][3] = Some(1);
        next[1][3] = Some(0);
        let r = TableRoutes { next };
        assert_eq!(walk_route(&r, 0, 2, 10), Walk::Arrived(vec![0, 1, 2]));
        assert_eq!(walk_route(&r, 0, 3, 10), Walk::Looped(vec![0, 1, 0]));
        assert_eq!(walk_route(&r, 2, 3, 10), Walk::Unreachable);
        assert_eq!(walk_route(&r, 2, 2, 10), Walk::Arrived(vec![2]));
    }

    /// The walk as it was before it stopped allocating a set per leg.
    fn walk_route_ref(routes: &dyn RouteView, from: u32, to: u32, budget: usize) -> Walk {
        let mut path = vec![from];
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        seen.insert(from);
        let mut at = from;
        while at != to {
            let Some(next) = routes.next_hop(at, to) else {
                return Walk::Unreachable;
            };
            path.push(next);
            if !seen.insert(next) {
                return Walk::Looped(path);
            }
            if path.len() > budget {
                return Walk::Looped(path);
            }
            at = next;
        }
        Walk::Arrived(path)
    }

    #[test]
    fn walk_route_verdicts_match_the_set_based_walk() {
        // A 100-node ring towards node 99, so walks run well past the
        // linear-scan length, with node `back` bent back to node `to`
        // for destination 99: a loop closing after `back - to + 1` hops.
        const N: u32 = 100;
        for (back, to) in [(5u32, 5u32), (5, 0), (40, 3), (40, 39), (80, 31), (98, 0)] {
            let mut next = vec![vec![None; N as usize]; N as usize];
            for from in 0..N - 1 {
                next[from as usize][(N - 1) as usize] = Some(from + 1);
            }
            next[back as usize][(N - 1) as usize] = Some(to);
            let r = TableRoutes { next };
            for from in [0u32, 3, 39, 41] {
                for budget in [2usize, 10, 31, 32, 33, 45, 1_000] {
                    let walk = walk_route(&r, from, N - 1, budget);
                    assert_eq!(walk, walk_route_ref(&r, from, N - 1, budget), "{from} {budget}");
                    if let Walk::Looped(path) = &walk {
                        let last = path[path.len() - 1];
                        let repeats = path[..path.len() - 1].contains(&last);
                        assert!(repeats || path.len() > budget, "{path:?}");
                    }
                }
            }
        }
        // The straight ring: arrival when the budget allows it, a
        // `path.len() > budget` loop verdict when it does not.
        let mut next = vec![vec![None; N as usize]; N as usize];
        for from in 0..N - 1 {
            next[from as usize][(N - 1) as usize] = Some(from + 1);
        }
        let r = TableRoutes { next };
        assert_eq!(walk_route(&r, 0, N - 1, 100), Walk::Arrived((0..N).collect()));
        assert_eq!(walk_route(&r, 0, N - 1, 99), Walk::Looped((0..N).collect()));
        assert_eq!(walk_route(&r, 0, N - 1, 40), walk_route_ref(&r, 0, N - 1, 40));
    }

    // -- end-to-end checking on a hand-built view ----------------------

    /// A small deployment on a 6-node line topology:
    ///   n0 (stub0) - n1 - n2 - n3 - n4 (stub1) - n5 (gateway)
    /// Middleboxes: m0 = FW @ n1, m1 = FW @ n3, m2 = IDS @ n2.
    /// Policy p0: stub0/20 -> stub1/20 : FW.  Everything else: permit.
    fn line_view() -> (ReachView, TableRoutes) {
        let s0 = prefix("10.0.0.0/20");
        let s1 = prefix("10.0.16.0/20");
        let mbox = |fns: Vec<NetworkFunction>, router: usize, i: u32| MboxView {
            functions: fns,
            router,
            capacity: 1.0,
            available: true,
            addr: Ipv4Addr::from_octets([172, 16, 0, 1 + i as u8]),
        };
        let mut candidates = Vec::new();
        for p in 0..2u32 {
            candidates.push(CandidateSet {
                point: Point::Proxy(p),
                function: Firewall,
                members: vec![0, 1],
            });
            candidates.push(CandidateSet {
                point: Point::Proxy(p),
                function: Ids,
                members: vec![2],
            });
        }
        candidates.push(CandidateSet {
            point: Point::Gateway(0),
            function: Firewall,
            members: vec![1, 0],
        });
        candidates.push(CandidateSet {
            point: Point::Gateway(0),
            function: Ids,
            members: vec![2],
        });
        let plan = PlanView {
            node_count: 6,
            stub_subnets: vec![s0, s1],
            gateway_count: 1,
            middleboxes: vec![
                mbox(vec![Firewall], 1, 0),
                mbox(vec![Firewall], 3, 1),
                mbox(vec![Ids], 2, 2),
            ],
            policies: vec![ChainView {
                policy: 0,
                chain: vec![Firewall],
            }],
            k: vec![(Firewall, 2), (Ids, 1)],
            candidates,
            weights: None,
            options: Some(OptionsView {
                flow_ttl: 1_000,
                label_ttl: 1_000,
                mtu: 1500,
            }),
        };
        let view = ReachView {
            plan,
            rules: vec![RuleView {
                policy: 0,
                class: FlowClass::between(s0, s1),
                chain: vec![Firewall],
            }],
            stub_routers: vec![0, 4],
            gateway_routers: vec![5],
            enterprise: prefix("10.0.0.0/8"),
            strategy: StrategyView::HotPotato,
            hazards: None,
        };
        // Line routing: next hop towards any dst is the neighbor in its
        // direction.
        let mut next = vec![vec![None; 6]; 6];
        for from in 0..6u32 {
            for dst in 0..6u32 {
                if from == dst {
                    continue;
                }
                next[from as usize][dst as usize] =
                    Some(if dst > from { from + 1 } else { from - 1 });
            }
        }
        (view, TableRoutes { next })
    }

    #[test]
    fn isolation_refuted_with_delivery_witness() {
        let (view, routes) = line_view();
        let assertions =
            parse_assertions("isolate 10.0.0.0/20 -> 10.0.16.0/20").unwrap();
        let report = check_assertions(&view, &routes, &assertions);
        assert!(!report.results[0].holds);
        assert!(report.has_code(ReachCode::IsolationBreach));
        let f = &report.findings[0];
        let w = f.witness.as_ref().unwrap();
        // HotPotato: the flow pins to m0 (nearest FW), path is concrete.
        let s = w.scenario.as_ref().unwrap();
        assert_eq!(s.stub, 0);
        let inject = &s.steps[0];
        match inject {
            ReplayStep::Inject { expect, .. } => {
                assert!(expect.delivered);
                assert_eq!(expect.must_process, vec![0]);
            }
            other => panic!("unexpected first step {other:?}"),
        }
        assert!(w.path.iter().any(|h| h.contains("mbox(m0)")), "{:?}", w.path);
    }

    #[test]
    fn isolation_holds_for_unroutable_enterprise_space() {
        let (view, routes) = line_view();
        // 10.15.0.0/16 is enterprise space with no stub behind it.
        let assertions =
            parse_assertions("isolate 10.0.0.0/20 -> 10.15.0.0/16").unwrap();
        let report = check_assertions(&view, &routes, &assertions);
        assert!(report.results[0].holds, "{report}");
        assert!(report.is_clean());
    }

    #[test]
    fn waypoint_holds_when_chain_contains_function() {
        let (view, routes) = line_view();
        let assertions =
            parse_assertions("waypoint 10.0.0.0/20 -> 10.0.16.0/20 via FW").unwrap();
        let report = check_assertions(&view, &routes, &assertions);
        assert!(report.results[0].holds, "{report}");
    }

    #[test]
    fn waypoint_bypass_refuted_with_avoid_set() {
        let (view, routes) = line_view();
        // Reverse direction is not covered by p0: default permit, no FW.
        let assertions =
            parse_assertions("waypoint 10.0.16.0/20 -> 10.0.0.0/20 via FW").unwrap();
        let report = check_assertions(&view, &routes, &assertions);
        assert!(!report.results[0].holds);
        assert!(report.has_code(ReachCode::WaypointBypass));
        let f = report
            .findings
            .iter()
            .find(|f| f.code == ReachCode::WaypointBypass)
            .unwrap();
        let s = f.witness.as_ref().unwrap().scenario.as_ref().unwrap();
        match &s.steps[0] {
            ReplayStep::Inject { expect, .. } => {
                assert!(expect.delivered);
                // Neither firewall may see the flow.
                assert_eq!(expect.must_not_process, vec![0, 1]);
            }
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn loop_free_holds_on_consistent_routing_and_refutes_on_loops() {
        let (view, routes) = line_view();
        let ok = check_assertions(&view, &routes, &parse_assertions("loop-free ttl 64").unwrap());
        assert!(ok.results[0].holds, "{ok}");

        // Break routing: walking from n0 towards n4 now oscillates.
        let (view, mut routes) = line_view();
        routes.next[1][4] = Some(0);
        routes.next[0][4] = Some(1);
        let bad = check_assertions(&view, &routes, &parse_assertions("loop-free ttl 64").unwrap());
        assert!(!bad.results[0].holds);
        assert!(bad.has_code(ReachCode::TtlExceeded));

        // Tight TTL budget: the legitimate path needs more hops.
        let (view, routes) = line_view();
        let tight = check_assertions(&view, &routes, &parse_assertions("loop-free ttl 2").unwrap());
        assert!(tight.has_code(ReachCode::TtlExceeded));
    }

    #[test]
    fn blackhole_reported_when_all_candidates_failed() {
        let (mut view, routes) = line_view();
        view.plan.middleboxes[0].available = false;
        view.plan.middleboxes[1].available = false;
        let report = check_assertions(
            &view,
            &routes,
            &parse_assertions("isolate 10.0.0.0/20 -> 10.0.16.0/20").unwrap(),
        );
        // Not delivered — the isolation is *not* refuted — but the class
        // blackholes, which is its own finding.
        assert!(report.has_code(ReachCode::BlackholeClass));
        assert!(!report.has_code(ReachCode::IsolationBreach));
    }

    #[test]
    fn stale_pin_hazard_detected_with_replayable_witness() {
        let (mut view, routes) = line_view();
        // m0 (the pinned hot-potato target) fails after flows pinned.
        view.plan.middleboxes[0].available = false;
        view.hazards = Some(HazardView {
            prev_weights: None,
            failed_now: vec![0],
        });
        let report = check_assertions(&view, &routes, &[]);
        assert!(report.has_code(ReachCode::StalePinnedFlow), "{report}");
        let f = report
            .findings
            .iter()
            .find(|f| f.code == ReachCode::StalePinnedFlow)
            .unwrap();
        let s = f.witness.as_ref().unwrap().scenario.as_ref().unwrap();
        assert_eq!(s.code, "R005");
        // Script shape: inject (pins to m0), fail m0, inject (drops).
        assert!(matches!(s.steps[0], ReplayStep::Inject { .. }));
        assert_eq!(s.steps[1], ReplayStep::FailMbox(0));
        match &s.steps[2] {
            ReplayStep::Inject { expect, .. } => assert!(expect.dropped_failed),
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn label_ttl_skew_hazard_detected() {
        let (mut view, routes) = line_view();
        view.plan.options = Some(OptionsView {
            flow_ttl: 100,
            label_ttl: 1_000,
            mtu: 1500,
        });
        view.hazards = Some(HazardView::default());
        let report = check_assertions(&view, &routes, &[]);
        assert!(report.has_code(ReachCode::LabelTtlSkew), "{report}");
    }

    #[test]
    fn findings_are_sorted_and_report_serializes() {
        let (mut view, routes) = line_view();
        view.plan.middleboxes[0].available = false;
        view.hazards = Some(HazardView {
            prev_weights: None,
            failed_now: vec![0],
        });
        let assertions = parse_assertions(
            "isolate 10.0.0.0/20 -> 10.0.16.0/20\nwaypoint 10.0.16.0/20 -> 10.0.0.0/20 via FW",
        )
        .unwrap();
        let report = check_assertions(&view, &routes, &assertions);
        let codes: Vec<_> = report.findings.iter().map(|f| f.code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted, "findings must be code-sorted");
        let json = report.to_json().to_string_pretty();
        assert!(json.contains("\"verifier\": \"sdm-reach\""), "{json}");
        assert!(json.contains("R005"), "{json}");
        // Scenario extraction only returns replayable witnesses.
        for s in report.scenarios() {
            assert!(!s.steps.is_empty());
        }
    }

    #[test]
    fn reach_codes_are_unique_and_stable() {
        let all = [
            ReachCode::IsolationBreach,
            ReachCode::WaypointBypass,
            ReachCode::TtlExceeded,
            ReachCode::BlackholeClass,
            ReachCode::StalePinnedFlow,
            ReachCode::LabelTtlSkew,
        ];
        let mut wire: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        wire.sort();
        wire.dedup();
        assert_eq!(wire.len(), all.len());
        assert_eq!(ReachCode::IsolationBreach.as_str(), "R001");
        assert_eq!(ReachCode::LabelTtlSkew.as_str(), "R006");
    }

    // -- the class pipeline against its full-loop references -----------

    /// The loops over *every* stub subnet and the linear candidate scan
    /// the indexed versions replaced, kept verbatim as the references
    /// the differential tests compare against.
    impl ReachView {
        fn candidates_for_ref(&self, point: Point, f: NetworkFunction) -> Option<&CandidateSet> {
            self.plan
                .candidates
                .iter()
                .find(|c| c.point == point && c.function == f)
        }

        fn ingresses_ref(&self, class: FlowClass) -> Vec<(Ingress, FlowClass)> {
            let mut out = Vec::new();
            let mut external_src = vec![class.src];
            for (s, subnet) in self.plan.stub_subnets.iter().enumerate() {
                if let Some(src) = prefix_intersect(class.src, *subnet) {
                    // Traffic that stays inside the subnet never crosses the
                    // stub's proxy — it is switched locally, outside the
                    // steering fabric this checker models — so peel the
                    // stub's own subnet off the destination space.
                    for dst in prefix_subtract_ref(class.dst, *subnet) {
                        out.push((
                            Ingress::Stub(s as u32),
                            FlowClass { src, dst, ..class },
                        ));
                    }
                }
                external_src = external_src
                    .into_iter()
                    .flat_map(|p| prefix_subtract_ref(p, *subnet))
                    .collect();
            }
            for src in external_src {
                // Sources inside the enterprise but in no stub don't exist;
                // everything else enters through the gateways.
                if src.is_subset_of(self.enterprise) {
                    continue;
                }
                for (g, _) in self.gateway_routers.iter().enumerate() {
                    out.push((Ingress::Gateway(g as u32), FlowClass { src, ..class }));
                }
            }
            out
        }

        fn egresses_ref(&self, class: FlowClass) -> Vec<(Egress, FlowClass)> {
            let mut out = Vec::new();
            let mut rest = vec![class.dst];
            for (s, subnet) in self.plan.stub_subnets.iter().enumerate() {
                if let Some(dst) = prefix_intersect(class.dst, *subnet) {
                    out.push((Egress::Stub(s as u32), FlowClass { dst, ..class }));
                }
                rest = rest
                    .into_iter()
                    .flat_map(|p| prefix_subtract_ref(p, *subnet))
                    .collect();
            }
            for dst in rest {
                if dst.is_subset_of(self.enterprise) {
                    // Enterprise space with no stub behind it: unroutable.
                    continue;
                }
                if !self.gateway_routers.is_empty() {
                    out.push((Egress::External, FlowClass { dst, ..class }));
                }
            }
            out
        }
    }

    /// The pre-streaming pipeline: every class of `src -> dst`
    /// materialised by the reference splits, each traced with its hops
    /// formatted eagerly as the trace goes (steering support comes from
    /// `cx`). Classes that are neither delivered nor looping carry no path.
    fn rendered_classes_ref(
        cx: &Checker<'_>,
        src: Prefix,
        dst: Prefix,
    ) -> Vec<(FlowClass, Vec<String>)> {
        let view = cx.view;
        let budget = view.plan.node_count.max(2);
        let nodes = |label: &str, path: &[u32]| {
            let nodes: Vec<String> = path.iter().map(|n| format!("n{n}")).collect();
            format!("{label}[{}]", nodes.join("->"))
        };
        let mut out = Vec::new();
        let mut support = Vec::new();
        for (ingress, in_class) in view.ingresses_ref(FlowClass::between(src, dst)) {
            for (peeled, rule) in view.peel_ref(in_class) {
                'class: for (egress, class) in view.egresses_ref(peeled) {
                    let Some(egress_router) = egress_router(view, egress) else {
                        continue;
                    };
                    let chain: &[NetworkFunction] = rule.map_or(&[], |r| r.chain.as_slice());
                    let policy = rule.map_or(0, |r| r.policy);
                    let Some(mut at_router) = view.ingress_router(ingress) else {
                        continue;
                    };
                    let mut point = view.ingress_point(ingress);
                    let mut hops = vec![format!("{ingress}@n{at_router}")];
                    for (stage_index, &f) in chain.iter().enumerate() {
                        if let Point::Middlebox(m) = point {
                            if view.plan.middleboxes[m as usize].functions.contains(&f) {
                                hops.push(format!("apply({f})@m{m}"));
                                continue;
                            }
                        }
                        let next_index = stage_index as u16;
                        cx.support(point, policy, next_index, f, &cx.columns, false, &mut support);
                        let Some(&target) = support.first() else {
                            continue 'class;
                        };
                        let target_router = view.plan.middleboxes[target as usize].router as u32;
                        match walk_route(cx.routes, at_router, target_router, budget) {
                            Walk::Arrived(path) => hops.push(nodes("route", &path)),
                            Walk::Looped(path) => {
                                hops.push(nodes("loop", &path));
                                out.push((class, hops));
                                continue 'class;
                            }
                            Walk::Unreachable => continue 'class,
                        }
                        hops.push(format!("mbox(m{target})"));
                        at_router = target_router;
                        point = Point::Middlebox(target);
                    }
                    match walk_route(cx.routes, at_router, egress_router, budget) {
                        Walk::Arrived(path) => {
                            hops.push(nodes("route", &path));
                            hops.push(format!("deliver@n{egress_router}"));
                        }
                        Walk::Looped(path) => hops.push(nodes("loop", &path)),
                        Walk::Unreachable => continue,
                    }
                    out.push((class, hops));
                }
            }
        }
        out
    }

    #[test]
    fn streamed_lazy_paths_equal_the_materialised_eager_ones() {
        let weights = WeightsView {
            lambda: 1.0,
            columns: vec![
                WeightColumn {
                    point: Point::Proxy(0),
                    policy: 0,
                    next_index: 0,
                    weights: vec![(0, 0.0), (1, 0.7)],
                },
                // A second column under the same key: the first one wins.
                WeightColumn {
                    point: Point::Proxy(0),
                    policy: 0,
                    next_index: 0,
                    weights: vec![(0, 1.0)],
                },
            ],
        };
        let mut compared = 0usize;
        for strategy in [
            StrategyView::HotPotato,
            StrategyView::Random,
            StrategyView::LoadBalanced,
        ] {
            for variant in 0..4 {
                let (mut view, mut routes) = line_view();
                view.strategy = strategy;
                view.plan.weights = Some(weights.clone());
                match variant {
                    0 => {}
                    // Routing from n0 towards n4 oscillates: looping legs.
                    1 => {
                        routes.next[1][4] = Some(0);
                        routes.next[0][4] = Some(1);
                    }
                    // p0 becomes FW, IDS and m0 implements both, so the
                    // second stage is applied locally at m0.
                    2 => {
                        view.rules[0].chain = vec![Firewall, Ids];
                        view.plan.middleboxes[0].functions = vec![Firewall, Ids];
                    }
                    // Nested and duplicate stub subnets, one stub without
                    // a router.
                    _ => {
                        view.plan.stub_subnets.push(prefix("10.0.0.0/16"));
                        view.plan.stub_subnets.push(prefix("10.0.16.0/20"));
                        view.plan.stub_subnets.push(prefix("10.0.17.0/24"));
                        view.stub_routers.extend([2, 3]);
                    }
                }
                let cx = Checker::new(&view, &routes, None);
                let eager = rendered_classes_ref(&cx, Prefix::ANY, Prefix::ANY);
                let lazy = render_all_classes(&view, &routes, Prefix::ANY, Prefix::ANY);
                assert_eq!(lazy, eager, "{strategy:?} variant {variant}");
                assert!(!lazy.is_empty());
                compared += lazy.len();
                // The weight column sends p0 to m1, past the bent routing
                // and the two-function box; hot-potato meets both.
                let hop = |want: &str| lazy.iter().any(|(_, p)| p.iter().any(|h| h.starts_with(want)));
                if strategy == StrategyView::HotPotato {
                    assert_eq!(hop("loop["), variant == 1);
                    assert_eq!(hop("apply(IDS)@m0"), variant == 2);
                }
            }
        }
        assert!(compared > 100, "{compared}");
    }

    /// A prefix from two small numbers: a base drawn from a pool that
    /// makes nesting, duplicates and neighbours likely, and a length that
    /// is often one of the corner cases.
    fn pool_prefix((slot, len): (u8, u8)) -> Prefix {
        let base = match slot % 8 {
            0 => 0x0a00_0000,                              // 10.0.0.0
            1..=4 => 0x0a00_0000 | (slot as u32 / 8) << 12, // 10.0.x.0 stubs
            5 => 0x0a00_0000 | (slot as u32) << 16,         // elsewhere in 10/8
            6 => 0xc0a8_0000 | (slot as u32) << 8,          // 192.168.x.0
            _ => (slot as u32) << 24 | 0x00ff_ff01,
        };
        let len = match len % 12 {
            0 => 0,
            1 => 32,
            2 => 8,
            3 => 16,
            4..=7 => 20,
            8 => 24,
            _ => len % 33,
        };
        Prefix::new(Ipv4Addr(base), len)
    }

    #[test]
    fn indexed_splits_equal_the_full_loops_on_arbitrary_subnet_lists() {
        use sdm_util::prop::{check, Config};
        check(
            "ingresses/egresses: index == full loop",
            &Config::with_cases(600),
            |rng| {
                let stubs = rng.gen_range(0..14usize);
                let subnets: Vec<(u8, u8)> = (0..stubs)
                    .map(|_| (rng.next_u32() as u8, rng.next_u32() as u8))
                    .collect();
                let mut pick = || (rng.next_u32() as u8, rng.next_u32() as u8);
                (subnets, pick(), pick(), pick(), rng.gen_range(0..4u8))
            },
            |(subnets, src, dst, enterprise, gateways)| {
                let view = ReachView {
                    plan: PlanView {
                        stub_subnets: subnets.iter().copied().map(pool_prefix).collect(),
                        ..PlanView::default()
                    },
                    rules: Vec::new(),
                    stub_routers: (0..subnets.len() as u32).collect(),
                    gateway_routers: (0..*gateways as u32).map(|g| 100 + g).collect(),
                    enterprise: pool_prefix(*enterprise),
                    strategy: StrategyView::HotPotato,
                    hazards: None,
                };
                let routes = TableRoutes { next: Vec::new() };
                let cx = Checker::new(&view, &routes, None);
                let class = FlowClass::between(pool_prefix(*src), pool_prefix(*dst));
                // Buffers that held something else before: each split
                // clears what it writes.
                let mut stubs = vec![7];
                let mut ingresses = vec![(Ingress::Gateway(9), FlowClass::any())];
                cx.ingresses(class, &mut stubs, &mut ingresses);
                sdm_util::prop_assert_eq!(ingresses, view.ingresses_ref(class));
                // A cache that split other destinations first, and a
                // second lookup of the same one.
                let mut egresses = EgressSplits::default();
                for dst in [class.src, class.dst, Prefix::ANY, class.dst] {
                    let split: Vec<(Egress, FlowClass)> = cx
                        .egresses(&mut egresses, dst)
                        .iter()
                        .map(|&(egress, dst)| (egress, FlowClass { dst, ..class }))
                        .collect();
                    let class = FlowClass { dst, ..class };
                    sdm_util::prop_assert_eq!(split, view.egresses_ref(class), "{dst}");
                }
                // The same through the overlap and remainder queries alone.
                for q in [class.src, class.dst] {
                    let brute: Vec<u32> = (0u32..)
                        .zip(&view.plan.stub_subnets)
                        .filter(|(_, p)| p.overlaps(q))
                        .map(|(s, _)| s)
                        .collect();
                    cx.stubs.overlapping(q, &mut stubs);
                    sdm_util::prop_assert_eq!(stubs, brute);
                    let mut rest = vec![q];
                    for subnet in &view.plan.stub_subnets {
                        rest = rest.into_iter().flat_map(|p| prefix_subtract_ref(p, *subnet)).collect();
                    }
                    let mut uncovered = Vec::new();
                    cx.stubs.uncovered(q, |p| uncovered.push(p));
                    sdm_util::prop_assert_eq!(uncovered, rest, "what {q} keeps");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn keyed_lookups_return_what_the_linear_scans_return() {
        use sdm_util::prop::{check, Config};
        let points = [Point::Proxy(0), Point::Proxy(1), Point::Gateway(0), Point::Middlebox(0)];
        check(
            "candidates_for / weight column: keyed == first linear match",
            &Config::with_cases(200),
            |rng| {
                let n = rng.gen_range(0..12usize);
                (0..n)
                    .map(|_| (rng.gen_range(0..4u8), rng.gen_range(0..2u8)))
                    .collect::<Vec<(u8, u8)>>()
            },
            |keys| {
                let (mut view, routes) = line_view();
                // Entry `i` is recognisable by its payload `i`.
                view.plan.candidates = (0u32..)
                    .zip(keys)
                    .map(|(i, &(p, f))| CandidateSet {
                        point: points[p as usize],
                        function: [Firewall, Ids][f as usize],
                        members: vec![i],
                    })
                    .collect();
                let weights = WeightsView {
                    lambda: 1.0,
                    columns: (0u32..)
                        .zip(keys)
                        .map(|(i, &(p, f))| WeightColumn {
                            point: points[p as usize],
                            policy: f as u32,
                            next_index: 0,
                            weights: vec![(i, 1.0)],
                        })
                        .collect(),
                };
                let cx = Checker::new(&view, &routes, None);
                let cols = columns(Some(&weights));
                for point in points {
                    for (f, function) in [Firewall, Ids].into_iter().enumerate() {
                        sdm_util::prop_assert_eq!(
                            cx.candidates.get((point, function)).map(|c| &c.members),
                            view.candidates_for_ref(point, function).map(|c| &c.members)
                        );
                        sdm_util::prop_assert_eq!(
                            cols.get((point, f as u32, 0)).map(|c| &c.weights),
                            weights
                                .columns
                                .iter()
                                .find(|c| c.point == point && c.policy == f as u32)
                                .map(|c| &c.weights)
                        );
                    }
                }
                Ok(())
            },
        );
    }

    // -- the fan-out: one report at every worker count -----------------

    /// An eight-router ring with four stubs, a gateway and three boxes,
    /// routed the shorter way round (clockwise on a tie):
    ///
    ///   n0 (s0) - n1 [m0 FW] - n2 (s1) - n3 [m2 IDS] - n4 (s2) -
    ///   n5 [m1 FW] - n6 (s3) - n7 (gateway) - back to n0
    ///
    /// Policies: p0 s0 -> s2 via FW; p1 s1 -> * tcp/80 via FW, IDS;
    /// p2 * -> s3 via IDS.
    fn ring_view() -> (ReachView, TableRoutes) {
        const N: u32 = 8;
        let subnets: Vec<Prefix> = (0..4).map(|s| prefix(&format!("10.0.{}.0/20", s * 16))).collect();
        let mbox = |functions: Vec<NetworkFunction>, router: usize, i: u8| MboxView {
            functions,
            router,
            capacity: 1.0,
            available: true,
            addr: Ipv4Addr::from_octets([172, 16, 0, 1 + i]),
        };
        let mut candidates = Vec::new();
        for point in (0..4).map(Point::Proxy).chain([Point::Gateway(0)]) {
            candidates.push(CandidateSet { point, function: Firewall, members: vec![0, 1] });
            candidates.push(CandidateSet { point, function: Ids, members: vec![2] });
        }
        for m in 0..2 {
            candidates.push(CandidateSet { point: Point::Middlebox(m), function: Ids, members: vec![2] });
        }
        let chain = |policy: u32, chain: Vec<NetworkFunction>| ChainView { policy, chain };
        let plan = PlanView {
            node_count: N as usize,
            stub_subnets: subnets.clone(),
            gateway_count: 1,
            middleboxes: vec![
                mbox(vec![Firewall], 1, 0),
                mbox(vec![Firewall], 5, 1),
                mbox(vec![Ids], 3, 2),
            ],
            policies: vec![
                chain(0, vec![Firewall]),
                chain(1, vec![Firewall, Ids]),
                chain(2, vec![Ids]),
            ],
            k: vec![(Firewall, 2), (Ids, 1)],
            candidates,
            weights: None,
            options: Some(OptionsView { flow_ttl: 1_000, label_ttl: 1_000, mtu: 1500 }),
        };
        let web = FlowClass {
            dst_ports: (80, 80),
            protos: ProtoSet::single(6),
            ..FlowClass::between(subnets[1], Prefix::ANY)
        };
        let rule = |policy: u32, class: FlowClass, chain: Vec<NetworkFunction>| RuleView { policy, class, chain };
        let view = ReachView {
            plan,
            rules: vec![
                rule(0, FlowClass::between(subnets[0], subnets[2]), vec![Firewall]),
                rule(1, web, vec![Firewall, Ids]),
                rule(2, FlowClass::between(Prefix::ANY, subnets[3]), vec![Ids]),
            ],
            stub_routers: vec![0, 2, 4, 6],
            gateway_routers: vec![7],
            enterprise: prefix("10.0.0.0/8"),
            strategy: StrategyView::HotPotato,
            hazards: None,
        };
        let mut next = vec![vec![None; N as usize]; N as usize];
        for from in 0..N {
            for dst in (0..N).filter(|&d| d != from) {
                let clockwise = (dst + N - from) % N;
                next[from as usize][dst as usize] =
                    Some(if clockwise <= N / 2 { (from + 1) % N } else { (from + N - 1) % N });
            }
        }
        (view, TableRoutes { next })
    }

    /// The line deployment behind 25 stubs: nested, duplicate and
    /// neighbouring subnets, a `/16` over the original `/20`s, routers
    /// spread along the line, and every other new proxy without
    /// candidates (its chained classes blackhole).
    fn many_stub_view() -> (ReachView, TableRoutes) {
        let (mut view, routes) = line_view();
        let extra = [
            "10.0.0.0/16", "10.0.16.0/20", "10.0.17.0/24", "10.0.32.0/20", "10.0.32.0/20",
            "10.0.48.0/21", "10.0.56.0/21", "10.1.0.0/16", "10.1.0.0/17", "10.0.64.0/18",
            "10.0.128.0/20", "10.0.144.0/20", "10.0.144.0/24", "10.0.145.0/24", "10.2.0.0/15",
            "10.0.0.0/20", "10.0.160.0/19", "10.0.192.0/20", "10.0.208.0/20", "10.0.224.0/19",
            "10.4.0.0/14", "10.4.0.0/32", "10.3.0.0/23",
        ];
        for (i, p) in (0u32..).zip(extra) {
            let stub = view.plan.stub_subnets.len() as u32;
            view.plan.stub_subnets.push(prefix(p));
            view.stub_routers.push([0, 4, 2, 3, 1][i as usize % 5]);
            if i % 2 == 0 {
                view.plan.candidates.push(CandidateSet { point: Point::Proxy(stub), function: Firewall, members: vec![1, 0] });
                view.plan.candidates.push(CandidateSet { point: Point::Proxy(stub), function: Ids, members: vec![2] });
            }
        }
        view.rules.push(RuleView {
            policy: 1,
            class: FlowClass {
                dst_ports: (0, 1023),
                ..FlowClass::between(prefix("10.0.0.0/16"), prefix("10.1.0.0/16"))
            },
            chain: vec![Ids, Firewall],
        });
        (view, routes)
    }

    #[test]
    fn reports_do_not_depend_on_the_worker_count() {
        let assertions = parse_assertions(
            "loop-free ttl 64\nloop-free ttl 3\nisolate * -> *\n\
             isolate 10.0.0.0/20 -> 192.168.0.0/16\nwaypoint * -> * via FW\n\
             waypoint 10.0.0.0/16 -> 10.0.16.0/20 via IDS",
        )
        .unwrap();
        let column = |point, policy, weights| WeightColumn { point, policy, next_index: 0, weights };
        let weights = WeightsView {
            lambda: 1.0,
            columns: (0..4)
                .map(Point::Proxy)
                .chain([Point::Gateway(0)])
                .flat_map(|p| [column(p, 0, vec![(0, 0.0), (1, 0.7)]), column(p, 1, vec![(0, 0.5), (1, 0.5)])])
                .collect(),
        };
        type Fixture = fn() -> (ReachView, TableRoutes);
        let fixtures: [(&str, Fixture); 3] =
            [("line", line_view), ("ring", ring_view), ("many-stub", many_stub_view)];
        let mut worlds = Vec::new();
        for (name, build) in fixtures {
            for strategy in [StrategyView::HotPotato, StrategyView::Random, StrategyView::LoadBalanced] {
                let (mut view, routes) = build();
                view.strategy = strategy;
                view.plan.weights = Some(weights.clone());
                worlds.push((format!("{name} {strategy:?}"), view, routes));
            }
            // Flows pinned under the previous weights to a box that has
            // since failed, and label entries outliving flow entries.
            let (mut view, routes) = build();
            view.plan.middleboxes[0].available = false;
            view.plan.options = Some(OptionsView { flow_ttl: 100, label_ttl: 1_000, mtu: 1500 });
            view.hazards = Some(HazardView { prev_weights: Some(weights.clone()), failed_now: vec![0] });
            worlds.push((format!("{name} hazard"), view, routes));
        }
        let mut piece_counts = Vec::new();
        for (name, view, routes) in &worlds {
            let on = |chunk_len, workers| Checker {
                chunk_len,
                ..Checker::new(view, routes, Some(workers))
            };
            let one = run_checks(&on(PIECES_PER_CHUNK, 1), &assertions);
            let rendered = render_classes(&on(PIECES_PER_CHUNK, 1), Prefix::ANY, Prefix::ANY);
            assert!(!one.findings.is_empty() && !rendered.is_empty(), "{name}");
            let mut pieces = Vec::new();
            on(1, 1).ingresses(FlowClass::any(), &mut Vec::new(), &mut pieces);
            piece_counts.push(pieces.len());
            // The fixtures' few dozen pieces only spread in small chunks.
            let chunked = run_checks(&on(3, 1), &assertions);
            assert_eq!(chunked.to_json().to_string(), one.to_json().to_string(), "{name} in chunks");
            // A fresh leg memo per chunk walks more hops, and nothing else.
            let hops = chunked.stats.route_hops_walked;
            assert_eq!(chunked.stats, ReachStats { route_hops_walked: hops, ..one.stats }, "{name}");
            assert!(hops >= one.stats.route_hops_walked, "{name}");
            for workers in [2, 3, 8] {
                let many = run_checks(&on(3, workers), &assertions);
                let at = format!("{name} at {workers} workers");
                assert_eq!(many.to_json().to_string(), one.to_json().to_string(), "{at}");
                assert_eq!(many.stats, chunked.stats, "{at}");
                assert_eq!(render_classes(&on(3, workers), Prefix::ANY, Prefix::ANY), rendered, "{at}");
            }
        }
        // A last chunk shorter than the others is covered.
        assert!(piece_counts.iter().any(|n| n % 3 != 0), "{piece_counts:?}");
    }

    // -- the leg memo ----------------------------------------------------

    /// No next hop, in a drawn next-hop column.
    const DEAD_END: u16 = u16::MAX;

    /// A drawn world of legs: the node count, next-hop columns towards a
    /// few destinations (`column[v]` is `v`'s next hop, [`DEAD_END`] or a
    /// node; entries past its end are dead ends), and legs as (source,
    /// column) pairs.
    type LegWorld = (u16, Vec<(u16, Vec<u16>)>, Vec<(u16, u8)>);

    fn gen_leg_world(rng: &mut sdm_util::StdRng) -> LegWorld {
        // A quarter of the worlds hold a chain through every node, longer
        // than a memo code holds.
        let long = rng.gen_bool(0.25);
        let n = if long { rng.gen_range(260..=320u16) } else { rng.gen_range(2..=24u16) };
        let below = |rng: &mut sdm_util::StdRng, k: u16| rng.below(u64::from(k)) as u16;
        let columns = (0..rng.gen_range(1..=3usize))
            .map(|_| {
                let d = below(rng, n);
                let mut column: Vec<u16> = (0..n)
                    .map(|_| match rng.below(10) {
                        0 => DEAD_END,
                        1 | 2 => d,
                        _ => below(rng, n),
                    })
                    .collect();
                if long {
                    // Every other node in a drawn order, the last one
                    // arriving, bending back into the chain or dead-ending.
                    let mut order: Vec<u16> = (0..n).filter(|&v| v != d).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, below(rng, i as u16 + 1) as usize);
                    }
                    for pair in order.windows(2) {
                        column[pair[0] as usize] = pair[1];
                    }
                    let last = order[order.len() - 1] as usize;
                    column[last] = match rng.below(3) {
                        0 => d,
                        1 => order[below(rng, n / 2) as usize],
                        _ => DEAD_END,
                    };
                    // A few side branches into the chain.
                    for _ in 0..4 {
                        let v = below(rng, n) as usize;
                        column[v] = below(rng, n);
                    }
                }
                (d, column)
            })
            .collect();
        let legs = (0..rng.gen_range(1..=60usize)).map(|_| (below(rng, n), rng.next_u32() as u8)).collect();
        (n, columns, legs)
    }

    #[test]
    fn memoised_legs_end_like_their_walks() {
        use sdm_util::prop::{check, Config};
        check(
            "leg memo == walk_route, and a node once passed is never walked again",
            &Config::with_cases(300),
            gen_leg_world,
            |(n, columns, legs)| {
                let n = (*n).max(2) as usize;
                if columns.is_empty() {
                    return Ok(());
                }
                let dests: Vec<u32> = columns.iter().map(|(d, _)| u32::from(*d) % n as u32).collect();
                let mut next = vec![vec![None; n]; n];
                for (&d, (_, column)) in dests.iter().zip(columns) {
                    for (v, &hop) in column.iter().enumerate().take(n).filter(|&(v, _)| v != d as usize) {
                        next[v][d as usize] = (hop != DEAD_END).then_some(u32::from(hop) % n as u32);
                    }
                }
                let routes = TableRoutes { next };
                let view = ReachView {
                    plan: PlanView { node_count: n, ..PlanView::default() },
                    rules: Vec::new(),
                    stub_routers: Vec::new(),
                    gateway_routers: Vec::new(),
                    enterprise: Prefix::ANY,
                    strategy: StrategyView::HotPotato,
                    hazards: None,
                };
                let cx = Checker::new(&view, &routes, Some(1));
                let mut w = Worker::new(LegMemo::new(n));
                // Per destination, the nodes some earlier walk passed
                // through whose outcome fits a code.
                let mut passed = vec![BTreeSet::new(); n];
                for &(from, column) in legs {
                    // Now and then a memo emptied for the next chunk.
                    if column % 16 == 15 {
                        w.memo.clear();
                        passed.iter_mut().for_each(BTreeSet::clear);
                    }
                    let (from, to) = (u32::from(from) % n as u32, dests[column as usize % dests.len()]);
                    let hops_before = w.stats.route_hops_walked;
                    let got = cx.walk(&mut w, from, to);
                    let walk = walk_route(&routes, from, to, cx.budget());
                    let (want, path) = match walk {
                        Walk::Arrived(path) => (Routed::Arrived(path.len() - 1), path),
                        Walk::Looped(path) => (Routed::Looped, path),
                        Walk::Unreachable => (Routed::NoRoute, Vec::new()),
                    };
                    sdm_util::prop_assert_eq!(got, want, "leg n{from} -> n{to}");
                    if passed[to as usize].contains(&from) {
                        let walked = w.stats.route_hops_walked - hops_before;
                        sdm_util::prop_assert_eq!(walked, 0, "n{from} was passed on the way to n{to}");
                    }
                    // An unreachable leg's nodes, up to its dead end.
                    let path = if want == Routed::NoRoute {
                        let mut path = vec![from];
                        while let Some(hop) = routes.next_hop(path[path.len() - 1], to) {
                            path.push(hop);
                        }
                        path
                    } else {
                        path
                    };
                    let fits = |i: usize| !matches!(want, Routed::Arrived(h) if h - i > usize::from(u8::MAX - ARRIVED));
                    passed[to as usize].extend(
                        path.iter().enumerate().skip(1).filter(|&(i, &v)| v != to && fits(i)).map(|(_, &v)| v),
                    );
                }
                Ok(())
            },
        );
    }
}
