//! Property tests for the policy crate. The central invariant: the
//! compiled tuple-space classifier is *exactly* equivalent to the linear
//! first-match scan over arbitrary policy sets, projections and packets.
//!
//! Each case is a shrinkable `(counts…, seed)` tuple; the domain objects
//! (policy sets, packets) are rebuilt deterministically from the seed
//! inside the property, so shrinking reduces the instance dimensions.

use std::collections::HashMap;

use sdm_netsim::{FiveTuple, Ipv4Addr, Label, Prefix, Protocol, SimTime};
use sdm_policy::{
    ActionList, ClassifierKind, FlowEntry, FlowTable, FlowTableStats, LabelEntry, LabelKey,
    LabelTable, LocalClassifier, NetworkFunction, Policy, PolicyId, PolicySet, PortMatch,
    ProtoMatch, TrafficDescriptor, NEG_WAYS,
};
use sdm_util::prop::{check, Config};
use sdm_util::rng::StdRng;
use sdm_util::{prop_assert, prop_assert_eq};

fn gen_prefix(rng: &mut StdRng) -> Prefix {
    Prefix::new(Ipv4Addr(rng.next_u32()), rng.gen_range(0u8..=32))
}

fn gen_port_match(rng: &mut StdRng) -> PortMatch {
    match rng.gen_range(0u8..3) {
        0 => PortMatch::Any,
        1 => PortMatch::Exact(rng.gen_range(0u16..200)),
        _ => {
            let a = rng.gen_range(0u16..100);
            let b = rng.gen_range(0u16..100);
            PortMatch::Range(a.min(b), a.max(b))
        }
    }
}

fn gen_proto(rng: &mut StdRng) -> Protocol {
    if rng.gen_bool(0.5) {
        Protocol::Tcp
    } else {
        Protocol::Udp
    }
}

fn gen_descriptor(rng: &mut StdRng) -> TrafficDescriptor {
    let mut d = TrafficDescriptor::new()
        .src_prefix(gen_prefix(rng))
        .dst_prefix(gen_prefix(rng))
        .src_port(gen_port_match(rng))
        .dst_port(gen_port_match(rng));
    if rng.gen_bool(0.5) {
        d = d.protocol(gen_proto(rng));
    }
    d
}

fn gen_policy(rng: &mut StdRng) -> Policy {
    let d = gen_descriptor(rng);
    let n_fns = rng.gen_range(0usize..4);
    let functions: Vec<NetworkFunction> = (0..n_fns)
        .map(|_| NetworkFunction::EVALUATION_SET[rng.gen_range(0usize..4)])
        .collect();
    Policy::new(d, ActionList::chain(functions))
}

/// A policy set of exactly `n` policies, deterministic in `seed`.
fn gen_policy_set(n: usize, seed: u64) -> PolicySet {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| gen_policy(&mut rng)).collect()
}

/// Packets biased towards the same address space the descriptors use, so
/// matches actually occur.
fn gen_packet(rng: &mut StdRng) -> FiveTuple {
    let (src, dst) = (rng.next_u32(), rng.next_u32());
    let fuzz = rng.gen_range(0u8..6);
    FiveTuple {
        // keep some high bits fixed sometimes to hit narrow prefixes
        src: Ipv4Addr(if fuzz.is_multiple_of(3) { src & 0x00FF_FFFF } else { src }),
        dst: Ipv4Addr(if fuzz.is_multiple_of(2) { dst & 0x0000_FFFF } else { dst }),
        src_port: rng.gen_range(0u16..250),
        dst_port: rng.gen_range(0u16..250),
        proto: gen_proto(rng),
    }
}

fn gen_packets(n: usize, seed: u64) -> Vec<FiveTuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| gen_packet(&mut rng)).collect()
}

/// Addresses, ports and protocols from pools of a few values each, so that
/// independently drawn rules and packets collide: duplicate and shadowed
/// descriptors, ranges over exact ports, `/32` rules that do get hit.
/// Prefix lengths come from the first `shapes` of [`CLASH_LENS`]: few
/// shapes put many rules (and several matches) into each signature group.
const CLASH_LENS: [u8; 5] = [16, 0, 32, 8, 27];

fn clash_addr(rng: &mut StdRng) -> Ipv4Addr {
    Ipv4Addr(0x0a00_0000 | rng.gen_range(0u32..3) << 16 | rng.gen_range(0u32..3))
}

fn clash_prefix(rng: &mut StdRng, shapes: usize) -> Prefix {
    Prefix::new(clash_addr(rng), CLASH_LENS[rng.gen_range(0..shapes)])
}

fn clash_port(rng: &mut StdRng) -> PortMatch {
    let (a, b) = (rng.gen_range(0u16..6), rng.gen_range(0u16..6));
    match rng.gen_range(0u8..3) {
        0 => PortMatch::Any,
        1 => PortMatch::Exact(a),
        _ => PortMatch::Range(a.min(b), a.max(b)),
    }
}

fn clash_proto(rng: &mut StdRng) -> Protocol {
    // `Other(6)` carries TCP's protocol number but is a distinct value
    [Protocol::Tcp, Protocol::Udp, Protocol::IpInIp, Protocol::Other(6), Protocol::Other(200)]
        [rng.gen_range(0usize..5)]
}

fn clash_set(n: usize, shapes: usize, seed: u64) -> PolicySet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = PolicySet::new();
    for i in 0..n {
        let mut d = TrafficDescriptor {
            src: clash_prefix(&mut rng, shapes),
            dst: clash_prefix(&mut rng, shapes),
            src_port: clash_port(&mut rng),
            dst_port: clash_port(&mut rng),
            proto: if rng.gen_bool(0.5) { ProtoMatch::Any } else { ProtoMatch::Is(clash_proto(&mut rng)) },
        };
        if i > 0 && rng.gen_bool(0.2) {
            // an exact duplicate of an earlier rule, with its own actions
            d = set.get(PolicyId(rng.gen_range(0..i as u32))).unwrap().descriptor;
        }
        set.push(Policy::new(d, actions_for(i as u32)));
    }
    set
}

/// The one differential property: the compiled classifier returns exactly
/// what the linear reference returns — the same *global* id and the same
/// policy — over the whole set and over a projection with sparse ids
/// (`keep_one_in` = 0 keeps nothing: the empty projection).
#[test]
fn compiled_equals_linear_scan() {
    check(
        "compiled_equals_linear_scan",
        &Config::with_cases(256),
        |rng: &mut StdRng| {
            (
                rng.gen_range(0usize..40),
                rng.gen_range(1usize..50),
                rng.gen_range(1usize..=CLASH_LENS.len()),
                rng.gen_range(0u32..4),
                rng.next_u64(),
            )
        },
        |&(n_policies, n_packets, shapes, keep_one_in, seed)| {
            let set = clash_set(n_policies, shapes.clamp(1, CLASH_LENS.len()), seed);
            let whole = LocalClassifier::new(set.project_all(), ClassifierKind::TupleSpace);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
            let kept: Vec<PolicyId> = set
                .iter()
                .map(|(id, _)| id)
                .filter(|_| keep_one_in > 0 && rng.gen_range(0..keep_one_in) == 0)
                .collect();
            let projection = set.project(&kept);
            let local = LocalClassifier::new(projection.clone(), ClassifierKind::TupleSpace);
            for _ in 0..n_packets.max(1) {
                let ft = FiveTuple {
                    src: clash_addr(&mut rng),
                    dst: clash_addr(&mut rng),
                    src_port: rng.gen_range(0u16..7),
                    dst_port: rng.gen_range(0u16..7),
                    proto: clash_proto(&mut rng),
                };
                prop_assert_eq!(whole.first_match(&ft), set.first_match(&ft), "set, packet {}", ft);
                prop_assert_eq!(
                    local.first_match(&ft),
                    projection.first_match(&ft),
                    "projection {:?}, packet {}",
                    kept,
                    ft
                );
            }
            Ok(())
        },
    );
}

/// The worst case for tuple-space search: every rule its own `(src_len,
/// dst_len)` signature — 1,089 groups of one rule. Lookups degrade to one
/// probe per rule but stay exact and never panic.
#[test]
fn one_signature_per_rule_stays_exact() {
    let (src, dst) = (Ipv4Addr(0x0a01_0203), Ipv4Addr(0xc0a8_fe01));
    let set: PolicySet = (0..=32u8)
        .flat_map(|s| (0..=32u8).map(move |d| (s, d)))
        // narrowest rules first, so the first match varies with the packet
        .rev()
        .map(|(s, d)| {
            Policy::permit(
                TrafficDescriptor::new()
                    .src_prefix(Prefix::new(src, s))
                    .dst_prefix(Prefix::new(dst, d)),
            )
        })
        .collect();
    assert!(set.len() >= 500);
    let compiled = LocalClassifier::new(set.project_all(), ClassifierKind::TupleSpace);
    // flip one bit of each address at every position (32 = none flipped)
    for sb in 0..=32u32 {
        for db in 0..=32u32 {
            let flip = |a: Ipv4Addr, bit: u32| Ipv4Addr(a.0 ^ 1u32.checked_shl(bit).unwrap_or(0));
            let ft = FiveTuple {
                src: flip(src, sb),
                dst: flip(dst, db),
                src_port: 1,
                dst_port: 2,
                proto: Protocol::Tcp,
            };
            assert_eq!(compiled.first_match(&ft), set.first_match(&ft), "packet {ft}");
        }
    }
}

/// first_match always returns the minimal matching id.
#[test]
fn first_match_is_minimal() {
    check(
        "first_match_is_minimal",
        &Config::with_cases(256),
        |rng: &mut StdRng| (rng.gen_range(0usize..40), rng.next_u64()),
        |&(n_policies, seed)| {
            let set = gen_policy_set(n_policies, seed);
            let ft = gen_packet(&mut StdRng::seed_from_u64(seed ^ 0xF00D));
            let all: Vec<PolicyId> = set
                .iter()
                .filter(|(_, p)| p.descriptor.matches(&ft))
                .map(|(id, _)| id)
                .collect();
            prop_assert_eq!(set.first_match(&ft).map(|(id, _)| id), all.first().copied());
            Ok(())
        },
    );
}

/// Relevance projections are sound: a packet sourced in a subnet can
/// only match a policy that the projection for that subnet contains.
#[test]
fn projection_soundness() {
    check(
        "projection_soundness",
        &Config::with_cases(256),
        |rng: &mut StdRng| {
            (
                rng.gen_range(0usize..40),
                rng.gen_range(0u8..=24),
                rng.next_u64(),
            )
        },
        |&(n_policies, len, seed)| {
            let set = gen_policy_set(n_policies, seed);
            let ft = gen_packet(&mut StdRng::seed_from_u64(seed ^ 0xBEEF));
            let subnet = Prefix::new(ft.src, len.min(24)); // subnet containing the source
            let ids = set.relevant_to_source(subnet);
            let proj = set.project(&ids);
            prop_assert_eq!(
                set.first_match(&ft).map(|(id, _)| id),
                proj.first_match(&ft).map(|(id, _)| id)
            );
            Ok(())
        },
    );
}

/// The text format round-trips arbitrary policies exactly.
#[test]
fn text_format_round_trips() {
    check(
        "text_format_round_trips",
        &Config::with_cases(256),
        |rng: &mut StdRng| (rng.gen_range(0usize..40), rng.next_u64()),
        |&(n_policies, seed)| {
            let policy_set = gen_policy_set(n_policies, seed);
            for (_, p) in policy_set.iter() {
                let line = sdm_policy::policy_to_line(p);
                let back = sdm_policy::parse_policy_line(&line, 1)
                    .unwrap_or_else(|e| panic!("reparse of '{line}' failed: {e}"));
                prop_assert_eq!(p, &back, "via '{}'", line);
            }
            Ok(())
        },
    );
}

/// Soundness of the shadowing check: `covered_by` implies actual
/// coverage — any packet the covered descriptor matches, the covering
/// one matches too.
#[test]
fn covered_by_is_sound() {
    check(
        "covered_by_is_sound",
        &Config::with_cases(256),
        |rng: &mut StdRng| rng.next_u64(),
        |&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = gen_descriptor(&mut rng);
            let b = gen_descriptor(&mut rng);
            let packets = gen_packets(30, seed ^ 0xCAFE);
            if a.covered_by(&b) {
                for ft in &packets {
                    if a.matches(ft) {
                        prop_assert!(b.matches(ft), "covering descriptor missed {ft}");
                    }
                }
            }
            Ok(())
        },
    );
}

/// Soundness of `find_shadowed`: a flagged policy can truly never be
/// the first match.
#[test]
fn shadowed_policies_never_fire() {
    check(
        "shadowed_policies_never_fire",
        &Config::with_cases(256),
        |rng: &mut StdRng| (rng.gen_range(0usize..40), rng.next_u64()),
        |&(n_policies, seed)| {
            let set = gen_policy_set(n_policies, seed);
            let packets = gen_packets(40, seed ^ 0xD00D);
            let shadowed: Vec<PolicyId> =
                set.find_shadowed().into_iter().map(|(s, _)| s).collect();
            for ft in &packets {
                if let Some((id, _)) = set.first_match(ft) {
                    prop_assert!(!shadowed.contains(&id), "shadowed {id} fired for {ft}");
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Soft-state tables against `std::collections::HashMap` models
//
// The reference models below are the documented semantics written plainly
// over std maps — expiry at `age >= ttl`, one side per flow, the negative
// cache's sets and ways with stalest-first displacement — and *lazy*: a
// stale entry stays until an op touches it. The tables also reclaim on
// their insert path, at a cadence the models do not follow, so the
// properties split what they compare:
//
// * exact after every op: lookup views, mutator returns, hits, misses and
//   the whole negative side (no insert step walks it);
// * bounded after every op: `len()` lies between the model's live count
//   and its resident count, and every entry ever created is resident,
//   expired or evicted (`lives = len + expired + evicted`);
// * exact after settling both at the final instant: `len`, every stat
//   (`expired` included) and the evictions.
//
// Shrinking reduces the instance dimensions, so a failure reports a
// minimal op sequence.
// ---------------------------------------------------------------------------

/// The action list a generated policy id maps to — a pure function, so the
/// table and the model intern identical classes.
fn actions_for(policy: u32) -> ActionList {
    ActionList::chain(
        (0..=(policy as usize % 3))
            .map(|i| NetworkFunction::EVALUATION_SET[(policy as usize + i) % 4]),
    )
}

#[derive(Debug, Clone, Copy)]
enum TableOp {
    Lookup { key: usize, weight: u64 },
    InsertPos { key: usize, policy: u32 },
    InsertNeg { key: usize },
    SetLabel { key: usize, label: u16 },
    PinNext { key: usize, next: u32 },
    FlagSwitched { key: usize },
    ReadPin { key: usize },
    Purge,
}

impl TableOp {
    fn key(&self) -> Option<usize> {
        match *self {
            TableOp::Lookup { key, .. }
            | TableOp::InsertPos { key, .. }
            | TableOp::InsertNeg { key }
            | TableOp::SetLabel { key, .. }
            | TableOp::PinNext { key, .. }
            | TableOp::FlagSwitched { key }
            | TableOp::ReadPin { key } => Some(key),
            TableOp::Purge => None,
        }
    }
}

/// One random op over `n_keys` keys. When `neg_bias` is set the mix is
/// dominated by negative inserts, to drive the capacity-capped negative
/// cache into eviction.
fn gen_op(rng: &mut StdRng, n_keys: usize, neg_bias: bool) -> TableOp {
    let key = rng.gen_range(0..n_keys);
    let roll = rng.gen_range(0u8..16);
    if neg_bias && roll < 8 {
        return TableOp::InsertNeg { key };
    }
    match roll {
        0..=5 => TableOp::Lookup { key, weight: rng.gen_range(1u64..4) },
        6..=8 => TableOp::InsertPos { key, policy: rng.gen_range(0u32..5) },
        9..=10 => TableOp::InsertNeg { key },
        11 => TableOp::SetLabel { key, label: rng.gen_range(0u16..100) },
        12 => TableOp::PinNext { key, next: rng.gen_range(0u32..16) },
        13 => TableOp::FlagSwitched { key },
        14 => TableOp::ReadPin { key },
        _ => TableOp::Purge,
    }
}

/// A timestamped op sequence, deterministic in `seed`, with monotone
/// non-decreasing time (the table's documented clock contract).
fn gen_table_ops(
    n_keys: usize,
    n_ops: usize,
    ttl: u64,
    seed: u64,
    neg_bias: bool,
) -> Vec<(SimTime, TableOp)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0u64;
    (0..n_ops)
        .map(|_| {
            now += rng.gen_range(0..=(ttl / 3).max(1));
            (SimTime(now), gen_op(&mut rng, n_keys, neg_bias))
        })
        .collect()
}

/// A lookup's view with the class resolved to its action list, so views
/// from different tables (or a model) compare by content.
type View = (Option<(PolicyId, ActionList)>, Option<Label>, bool, Option<u32>);

fn view(t: &FlowTable, e: Option<FlowEntry>) -> Option<View> {
    e.map(|e| {
        let action = e.action.map(|(p, class)| (p, t.actions(class).clone()));
        (action, e.label, e.label_switched, e.pinned_next)
    })
}

/// Comparable outcome of one op.
#[derive(Debug, PartialEq)]
enum OpOut {
    Entry(Option<View>),
    Flag(bool),
    Pin(Option<u32>),
    Count(usize),
}

fn apply_real(t: &mut FlowTable, keys: &[FiveTuple], now: SimTime, op: TableOp) -> OpOut {
    match op {
        TableOp::Lookup { key, weight } => {
            let e = t.lookup(keys[key], now, weight);
            OpOut::Entry(view(t, e))
        }
        TableOp::InsertPos { key, policy } => {
            t.insert_positive(keys[key], PolicyId(policy), actions_for(policy), now);
            OpOut::Count(0)
        }
        TableOp::InsertNeg { key } => {
            t.insert_negative(keys[key], now);
            OpOut::Count(0)
        }
        TableOp::SetLabel { key, label } => OpOut::Flag(t.set_label(keys[key], Label(label))),
        TableOp::PinNext { key, next } => OpOut::Flag(t.pin_next(keys[key], next)),
        TableOp::FlagSwitched { key } => OpOut::Flag(t.flag_label_switched(keys[key])),
        TableOp::ReadPin { key } => OpOut::Pin(t.pinned_next(keys[key])),
        TableOp::Purge => OpOut::Count(t.sweep(now, usize::MAX)),
    }
}

#[derive(Debug, Clone)]
struct ModelPos {
    policy: PolicyId,
    actions: ActionList,
    label: Option<Label>,
    pinned: Option<u32>,
    label_switched: bool,
    last_seen: u64,
}

/// Negative-cache set: `NEG_WAYS` ways of `(flow, last_seen)`.
type ModelSet = [Option<(FiveTuple, u64)>; NEG_WAYS];

/// `FlowTable`'s documented semantics over std maps.
#[derive(Debug)]
struct ModelTable {
    pos: HashMap<FiveTuple, ModelPos>,
    /// Negative sets by index `stable_hash % set_count`.
    neg: HashMap<usize, ModelSet>,
    set_count: usize,
    ttl: u64,
    stats: FlowTableStats,
    evictions: u64,
    /// Entries created: inserts of a flow with no live entry on either
    /// side (replacing a stale one ends that life as an expiry).
    lives: u64,
    /// The latest `now` an op passed to the table: entries stale at it
    /// are absent for the mutators and the pin read.
    clock: SimTime,
}

impl ModelTable {
    fn new(ttl: u64, set_count: usize) -> Self {
        ModelTable {
            pos: HashMap::new(),
            neg: HashMap::new(),
            set_count,
            ttl,
            stats: FlowTableStats::default(),
            evictions: 0,
            lives: 0,
            clock: SimTime(0),
        }
    }

    /// The flow's positive entry if it is alive at the clock.
    fn live_pos(&mut self, ft: &FiveTuple) -> Option<&mut ModelPos> {
        let (clock, ttl) = (self.clock, self.ttl);
        self.pos.get_mut(ft).filter(|e| clock.0.saturating_sub(e.last_seen) < ttl)
    }

    /// Ends the flow's current entry, if any, before an insert of either
    /// side: a live one carries over (no new life), a stale one expires.
    fn end_for_insert(&mut self, ft: &FiveTuple, now: SimTime) {
        let seen = match self.pos.remove(ft) {
            Some(e) => Some(e.last_seen),
            None => self.neg_way(ft).and_then(|w| w.take()).map(|(_, seen)| seen),
        };
        match seen {
            Some(seen) if !self.stale(seen, now) => {}
            Some(_) => {
                self.stats.expired += 1;
                self.lives += 1;
            }
            None => self.lives += 1,
        }
    }

    fn set_of(&mut self, ft: &FiveTuple) -> &mut ModelSet {
        let idx = (ft.stable_hash() % self.set_count as u64) as usize;
        self.neg.entry(idx).or_insert([None; NEG_WAYS])
    }

    fn neg_way(&mut self, ft: &FiveTuple) -> Option<&mut Option<(FiveTuple, u64)>> {
        self.set_of(ft)
            .iter_mut()
            .find(|w| matches!(w, Some((k, _)) if k == ft))
    }

    fn stale(&self, last_seen: u64, now: SimTime) -> bool {
        now.0.saturating_sub(last_seen) >= self.ttl
    }

    fn lookup(&mut self, ft: &FiveTuple, now: SimTime, weight: u64) -> Option<View> {
        if let Some(e) = self.pos.get(ft) {
            if self.stale(e.last_seen, now) {
                self.pos.remove(ft);
                self.stats.expired += 1;
                self.stats.misses += weight;
                return None;
            }
            let e = self.pos.get_mut(ft).expect("present");
            e.last_seen = now.0;
            self.stats.hits += weight;
            return Some((
                Some((e.policy, e.actions.clone())),
                e.label,
                e.label_switched,
                e.pinned,
            ));
        }
        let ttl = self.ttl;
        match self.neg_way(ft) {
            Some(way) => {
                let (_, last_seen) = way.as_mut().expect("resident");
                if now.0.saturating_sub(*last_seen) >= ttl {
                    *way = None;
                    self.stats.expired += 1;
                    self.stats.misses += weight;
                    None
                } else {
                    *last_seen = now.0;
                    self.stats.hits += weight;
                    self.stats.negative_hits += weight;
                    Some((None, None, false, None))
                }
            }
            None => {
                self.stats.misses += weight;
                None
            }
        }
    }

    fn insert_negative(&mut self, ft: FiveTuple, now: SimTime) {
        // the flow's own marker keeps its way; otherwise the first free
        // way, else the stalest (lowest index on ties) is displaced
        let own = self.set_of(&ft).iter().position(|w| matches!(w, Some((k, _)) if *k == ft));
        self.end_for_insert(&ft, now);
        let set = *self.set_of(&ft);
        let way = match own.or_else(|| set.iter().position(|w| w.is_none())) {
            Some(way) => way,
            None => {
                let stalest = (0..NEG_WAYS)
                    .min_by_key(|&w| set[w].map(|(_, seen)| seen))
                    .expect("ways");
                let (_, seen) = set[stalest].expect("full set");
                if self.stale(seen, now) {
                    self.stats.expired += 1;
                } else {
                    self.evictions += 1;
                }
                stalest
            }
        };
        self.set_of(&ft)[way] = Some((ft, now.0));
    }

    fn purge(&mut self, now: SimTime) -> usize {
        let ttl = self.ttl;
        let before = self.len();
        self.pos.retain(|_, e| now.0.saturating_sub(e.last_seen) < ttl);
        for set in self.neg.values_mut() {
            for w in set.iter_mut() {
                if matches!(w, Some((_, seen)) if now.0.saturating_sub(*seen) >= ttl) {
                    *w = None;
                }
            }
        }
        let dropped = before - self.len();
        self.stats.expired += dropped as u64;
        dropped
    }

    fn negative_len(&self) -> usize {
        self.neg.values().flatten().filter(|w| w.is_some()).count()
    }

    fn len(&self) -> usize {
        self.pos.len() + self.negative_len()
    }

    /// Resident entries still alive at `now`.
    fn live_len(&self, now: SimTime) -> usize {
        let pos = self.pos.values().filter(|e| !self.stale(e.last_seen, now)).count();
        let neg = self.neg.values().flatten().flatten();
        pos + neg.filter(|(_, seen)| !self.stale(*seen, now)).count()
    }

    fn update(&mut self, ft: &FiveTuple, f: impl FnOnce(&mut ModelPos)) -> OpOut {
        OpOut::Flag(self.live_pos(ft).map(f).is_some())
    }

    fn apply(&mut self, keys: &[FiveTuple], now: SimTime, op: TableOp) -> OpOut {
        // every op that hands the table a `now` moves its clock
        if !matches!(
            op,
            TableOp::SetLabel { .. }
                | TableOp::PinNext { .. }
                | TableOp::FlagSwitched { .. }
                | TableOp::ReadPin { .. }
        ) {
            self.clock = now;
        }
        match op {
            TableOp::Lookup { key, weight } => OpOut::Entry(self.lookup(&keys[key], now, weight)),
            TableOp::InsertPos { key, policy } => {
                self.end_for_insert(&keys[key], now);
                let entry = ModelPos {
                    policy: PolicyId(policy),
                    actions: actions_for(policy),
                    label: None,
                    pinned: None,
                    label_switched: false,
                    last_seen: now.0,
                };
                self.pos.insert(keys[key], entry);
                OpOut::Count(0)
            }
            TableOp::InsertNeg { key } => {
                self.insert_negative(keys[key], now);
                OpOut::Count(0)
            }
            TableOp::SetLabel { key, label } => {
                self.update(&keys[key], |e| e.label = Some(Label(label)))
            }
            TableOp::PinNext { key, next } => self.update(&keys[key], |e| e.pinned = Some(next)),
            TableOp::FlagSwitched { key } => self.update(&keys[key], |e| e.label_switched = true),
            TableOp::ReadPin { key } => {
                OpOut::Pin(self.live_pos(&keys[key]).and_then(|e| e.pinned))
            }
            TableOp::Purge => OpOut::Count(self.purge(now)),
        }
    }
}

/// `FlowTable` is observationally the lazy std-map model (see the section
/// comment for what is exact, bounded, and exact once settled). A full
/// purge is a settle: it may drop fewer entries than the model's (insert
/// steps got there first) but leaves identical lengths and stats. A slow
/// clock keeps up to a few hundred flows live (several probe-array
/// grows), a short ttl makes both sides expire, and one or two negative
/// sets (8–16 markers) keep the negative cache displacing.
#[test]
fn flow_table_matches_hashmap_model() {
    check(
        "flow_table_matches_hashmap_model",
        &Config::with_cases(128),
        |rng: &mut StdRng| {
            (
                rng.gen_range(1usize..300),
                rng.gen_range(1usize..900),
                rng.gen_range(2u64..12),
                rng.gen_range(1u32..64),
                rng.gen_range(1usize..3),
                rng.next_u64(),
            )
        },
        |&(n_keys, n_ops, ttl, tick_one_in, neg_sets, seed)| {
            let n_keys = n_keys.max(1);
            let ttl = ttl.max(1);
            let neg_sets = if neg_sets >= 2 { 2 } else { 1 };
            let keys = gen_packets(n_keys, seed ^ 0x0A7A);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut real = FlowTable::with_negative_sets(ttl, neg_sets);
            let mut model = ModelTable::new(ttl, neg_sets);
            let mut now = SimTime(0);
            for step in 0..n_ops {
                now.0 += u64::from(rng.gen_range(0..tick_one_in.max(1)) == 0);
                let op = gen_op(&mut rng, n_keys, false);
                let a = apply_real(&mut real, &keys, now, op);
                let b = model.apply(&keys, now, op);
                let (rs, ms) = (real.stats(), model.stats);
                match (&a, &b) {
                    (OpOut::Count(got), OpOut::Count(want)) if matches!(op, TableOp::Purge) => {
                        prop_assert!(got <= want, "purge at step {}: {} > {}", step, got, want);
                        prop_assert_eq!(rs, ms, "stats after purge at step {}", step);
                        prop_assert_eq!(real.len(), model.len(), "len after purge, step {}", step);
                    }
                    _ => prop_assert_eq!(&a, &b, "step {} ({:?} at {:?})", step, op, now),
                }
                prop_assert_eq!(
                    (rs.hits, rs.negative_hits, rs.misses),
                    (ms.hits, ms.negative_hits, ms.misses),
                    "hits and misses after step {}",
                    step
                );
                prop_assert_eq!(real.negative_len(), model.negative_len(), "step {}", step);
                prop_assert_eq!(real.negative_evictions(), model.evictions, "step {}", step);
                let len = real.len();
                prop_assert!(
                    model.live_len(now) <= len && len <= model.len(),
                    "len {} outside live {} ..= resident {} after step {}",
                    len,
                    model.live_len(now),
                    model.len(),
                    step
                );
                prop_assert_eq!(
                    model.lives,
                    len as u64 + rs.expired + real.negative_evictions(),
                    "lives = resident + expired + evicted after step {}",
                    step
                );
            }
            real.settle(now);
            model.purge(now);
            prop_assert_eq!(real.len(), model.len(), "len once settled");
            prop_assert_eq!(real.stats(), model.stats, "stats once settled");
            prop_assert_eq!(real.negative_evictions(), model.evictions, "evictions once settled");
            Ok(())
        },
    );
}

#[derive(Debug, Clone, Copy)]
enum LabelOp {
    Insert { policy: u32, position: usize, last: bool },
    Lookup,
}

/// What a label-table lookup reports, by content.
type LabelView = (ActionList, PolicyId, usize, Option<Ipv4Addr>, Option<Ipv4Addr>);

/// `LabelTable`'s documented semantics over a std map, lazy like
/// [`ModelTable`]: a stale entry stays until a lookup or insert touches it.
#[derive(Default)]
struct LabelModel {
    map: HashMap<LabelKey, (LabelView, u64)>,
    expired: u64,
    lives: u64,
}

impl LabelModel {
    fn insert(&mut self, k: LabelKey, v: LabelView, now: u64, ttl: u64) {
        match self.map.insert(k, (v, now)) {
            Some((_, seen)) if now.saturating_sub(seen) < ttl => {}
            Some(_) => {
                self.expired += 1;
                self.lives += 1;
            }
            None => self.lives += 1,
        }
    }

    fn lookup(&mut self, k: &LabelKey, now: u64, ttl: u64) -> Option<LabelView> {
        match self.map.get_mut(k) {
            Some((_, seen)) if now.saturating_sub(*seen) >= ttl => {
                self.map.remove(k);
                self.expired += 1;
                None
            }
            Some((v, seen)) => {
                *seen = now;
                Some(v.clone())
            }
            None => None,
        }
    }

    fn live_len(&self, now: u64, ttl: u64) -> usize {
        self.map.values().filter(|(_, seen)| now.saturating_sub(*seen) < ttl).count()
    }

    fn settle(&mut self, now: u64, ttl: u64) {
        let before = self.map.len();
        self.map.retain(|_, (_, seen)| now.saturating_sub(*seen) < ttl);
        self.expired += (before - self.map.len()) as u64;
    }
}

fn label_view(e: &LabelEntry) -> LabelView {
    (e.actions.clone(), e.policy, e.position, e.next_hop, e.final_dst)
}

/// `LabelTable` is observationally the lazy map model: identical lookup
/// results after every op; `len()` between the model's live and resident
/// counts and `lives = len + expired` after every op; identical `len` and
/// `expired` once both are settled at the final instant. Enough keys to
/// cross several probe-array grows.
#[test]
fn label_table_matches_hashmap_model() {
    check(
        "label_table_matches_hashmap_model",
        &Config::with_cases(128),
        |rng: &mut StdRng| {
            (
                rng.gen_range(1usize..400),
                rng.gen_range(1usize..900),
                rng.gen_range(1u64..12),
                rng.gen_range(1u32..64),
                rng.next_u64(),
            )
        },
        |&(n_keys, n_ops, ttl, tick_one_in, seed)| {
            let n_keys = n_keys.max(1);
            let ttl = ttl.max(1);
            let mut rng = StdRng::seed_from_u64(seed);
            // a few sources × many labels: shared sources, distinct keys
            let keys: Vec<LabelKey> = (0..n_keys)
                .map(|i| LabelKey {
                    src: Ipv4Addr(0x0a00_0000 + rng.gen_range(0u32..4)),
                    label: Label(i as u16),
                })
                .collect();
            let mut real = LabelTable::new(ttl);
            let mut model = LabelModel::default();
            let mut now = 0u64;
            for step in 0..n_ops {
                now += u64::from(rng.gen_range(0..tick_one_in.max(1)) == 0);
                let k = keys[rng.gen_range(0..n_keys)];
                let op = gen_label_op(&mut rng);
                let (a, b) = match op {
                    LabelOp::Insert { policy, position, last } => {
                        let v = label_entry(policy, position, last);
                        real.insert(k, v.0.clone(), v.1, v.2, v.3, v.4, SimTime(now));
                        model.insert(k, v, now, ttl);
                        (None, None)
                    }
                    LabelOp::Lookup => (
                        real.lookup(k, SimTime(now)).map(label_view),
                        model.lookup(&k, now, ttl),
                    ),
                };
                prop_assert_eq!(&a, &b, "step {} ({:?} of {} at {})", step, op, k, now);
                let (len, live) = (real.len(), model.live_len(now, ttl));
                prop_assert!(
                    live <= len && len <= model.map.len(),
                    "len {} outside live {} ..= resident {} after step {}",
                    len,
                    live,
                    model.map.len(),
                    step
                );
                prop_assert_eq!(
                    model.lives,
                    len as u64 + real.expired(),
                    "lives = resident + expired after step {}",
                    step
                );
            }
            real.settle(SimTime(now));
            model.settle(now, ttl);
            prop_assert_eq!(real.len(), model.map.len(), "len once settled");
            prop_assert_eq!(real.expired(), model.expired, "expired once settled");
            Ok(())
        },
    );
}

fn gen_label_op(rng: &mut StdRng) -> LabelOp {
    match rng.gen_range(0u8..8) {
        0..=2 => LabelOp::Insert {
            policy: rng.gen_range(0u32..5),
            position: rng.gen_range(0usize..3),
            last: rng.gen_bool(0.5),
        },
        _ => LabelOp::Lookup,
    }
}

/// The label entry an `Insert` op installs, by content.
fn label_entry(policy: u32, position: usize, last: bool) -> LabelView {
    let (next, dst) = if last {
        (None, Some(Ipv4Addr(0x0b00_0000 + policy)))
    } else {
        (Some(Ipv4Addr(0xac10_0000 + policy)), None)
    };
    (actions_for(policy), PolicyId(policy), position, next, dst)
}

/// Interleaving budgeted sweeps anywhere in an op sequence never changes
/// what lookups observe: sweep drops exactly the entries lookup would
/// reject, so hit/miss/negative accounting and all views stay identical.
/// Settling both at the final instant leaves the same residents and the
/// same `expired`: an entry's expiry is counted once, whichever path
/// reclaimed it.
#[test]
fn budgeted_sweep_is_transparent_to_lookups() {
    check(
        "budgeted_sweep_is_transparent_to_lookups",
        &Config::with_cases(192),
        |rng: &mut StdRng| {
            (
                rng.gen_range(1usize..32),
                rng.gen_range(1usize..120),
                rng.gen_range(2u64..40),
                rng.next_u64(),
            )
        },
        |&(n_keys, n_ops, ttl, seed)| {
            let n_keys = n_keys.max(1);
            let ttl = ttl.max(1);
            let keys = gen_packets(n_keys, seed ^ 0x53EE);
            let ops = gen_table_ops(n_keys, n_ops, ttl, seed, false);
            let mut plain = FlowTable::new(ttl);
            let mut swept = FlowTable::new(ttl);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB0D6);
            let mut end = SimTime(0);
            for (step, &(now, op)) in ops.iter().enumerate() {
                end = now;
                if rng.gen_bool(0.4) {
                    let _ = swept.sweep(now, rng.gen_range(1usize..16));
                }
                let a = apply_real(&mut plain, &keys, now, op);
                let b = apply_real(&mut swept, &keys, now, op);
                // Mutator/purge returns can legitimately differ (the sweep
                // may already have dropped a stale entry); lookups cannot.
                if let (OpOut::Entry(ea), OpOut::Entry(eb)) = (&a, &b) {
                    prop_assert_eq!(ea, eb, "lookup view at step {}", step);
                }
                let (sa, sb) = (plain.stats(), swept.stats());
                prop_assert_eq!(sa.hits, sb.hits, "hits after step {}", step);
                prop_assert_eq!(sa.negative_hits, sb.negative_hits, "neg hits, step {}", step);
                prop_assert_eq!(sa.misses, sb.misses, "misses after step {}", step);
            }
            plain.settle(end);
            swept.settle(end);
            prop_assert_eq!(plain.len(), swept.len(), "residents once settled");
            prop_assert_eq!(plain.stats(), swept.stats(), "stats once settled");
            Ok(())
        },
    );
}

/// The label-table twin of `budgeted_sweep_is_transparent_to_lookups`:
/// settling at random instants (extra full reclaim passes on top of the
/// insert steps) never changes a lookup, and both tables end with the same
/// residents and `expired` once settled.
#[test]
fn label_reclaim_is_transparent_to_lookups() {
    check(
        "label_reclaim_is_transparent_to_lookups",
        &Config::with_cases(192),
        |rng: &mut StdRng| {
            (
                rng.gen_range(1usize..48),
                rng.gen_range(1usize..160),
                rng.gen_range(1u64..40),
                rng.next_u64(),
            )
        },
        |&(n_keys, n_ops, ttl, seed)| {
            let (n_keys, ttl) = (n_keys.max(1), ttl.max(1));
            let mut rng = StdRng::seed_from_u64(seed);
            let keys: Vec<LabelKey> = (0..n_keys)
                .map(|i| LabelKey {
                    src: Ipv4Addr(0x0a00_0000 + rng.gen_range(0u32..4)),
                    label: Label(i as u16),
                })
                .collect();
            let mut plain = LabelTable::new(ttl);
            let mut settled = LabelTable::new(ttl);
            let mut now = 0u64;
            for step in 0..n_ops {
                now += rng.gen_range(0..=(ttl / 3).max(1));
                if rng.gen_bool(0.3) {
                    settled.settle(SimTime(now));
                }
                let k = keys[rng.gen_range(0..n_keys)];
                match gen_label_op(&mut rng) {
                    LabelOp::Insert { policy, position, last } => {
                        let v = label_entry(policy, position, last);
                        for t in [&mut plain, &mut settled] {
                            t.insert(k, v.0.clone(), v.1, v.2, v.3, v.4, SimTime(now));
                        }
                    }
                    LabelOp::Lookup => {
                        let a = plain.lookup(k, SimTime(now)).map(label_view);
                        let b = settled.lookup(k, SimTime(now)).map(label_view);
                        prop_assert_eq!(a, b, "lookup of {} at step {}", k, step);
                    }
                }
            }
            plain.settle(SimTime(now));
            settled.settle(SimTime(now));
            prop_assert_eq!(plain.len(), settled.len(), "residents once settled");
            prop_assert_eq!(plain.expired(), settled.expired(), "expired once settled");
            Ok(())
        },
    );
}

/// Run-mate accounting is exact: for a run of `w` same-flow
/// packets at one instant, `lookup(weight w)`, per-packet `lookup(weight 1)`
/// ×`w`, and the engine's `lookup(1)` + `record_run_*hit(w-1)` shortcut all
/// leave identical stats and state — the drain-limit invariance at table level.
#[test]
fn run_mate_accounting_matches_per_packet_lookups() {
    check(
        "run_mate_accounting_matches_per_packet_lookups",
        &Config::with_cases(192),
        |rng: &mut StdRng| {
            (
                rng.gen_range(1usize..32),
                rng.gen_range(1usize..100),
                rng.gen_range(2u64..40),
                rng.next_u64(),
            )
        },
        |&(n_keys, n_ops, ttl, seed)| {
            let n_keys = n_keys.max(1);
            let ttl = ttl.max(1);
            let keys = gen_packets(n_keys, seed ^ 0xBA7C);
            let ops = gen_table_ops(n_keys, n_ops, ttl, seed, false);
            let mut weighted = FlowTable::new(ttl);
            let mut per_packet = FlowTable::new(ttl);
            let mut shortcut = FlowTable::new(ttl);
            for (step, &(now, op)) in ops.iter().enumerate() {
                if let TableOp::Lookup { key, weight } = op {
                    let ft = &keys[key];
                    let a = weighted.lookup(ft, now, weight);
                    let mut b = None;
                    for _ in 0..weight {
                        b = per_packet.lookup(ft, now, 1);
                    }
                    let c = shortcut.lookup(ft, now, 1);
                    match &c {
                        Some(e) if e.is_negative() => {
                            shortcut.record_run_negative_hit(weight - 1)
                        }
                        Some(_) => shortcut.record_run_hit(weight - 1),
                        // miss: the engine re-looks-up run-mates only after
                        // an insert; with none, they miss individually
                        None => {
                            for _ in 1..weight {
                                let _ = shortcut.lookup(ft, now, 1);
                            }
                        }
                    }
                    prop_assert_eq!(&a, &b, "weighted vs per-packet, step {}", step);
                    prop_assert_eq!(&a, &c, "weighted vs shortcut, step {}", step);
                } else {
                    let _ = apply_real(&mut weighted, &keys, now, op);
                    let _ = apply_real(&mut per_packet, &keys, now, op);
                    let _ = apply_real(&mut shortcut, &keys, now, op);
                }
                prop_assert_eq!(weighted.stats(), per_packet.stats(), "per-packet, step {}", step);
                prop_assert_eq!(weighted.stats(), shortcut.stats(), "shortcut, step {}", step);
                prop_assert_eq!(weighted.len(), per_packet.len(), "len, step {}", step);
                prop_assert_eq!(weighted.len(), shortcut.len(), "len, step {}", step);
            }
            Ok(())
        },
    );
}

/// Negative-cache eviction is invariant under flow sharding: running one
/// table versus `shards` tables fed by `stable_hash % shards` (the engine's
/// exact shard split) yields identical eviction counts at every step and,
/// once every table is settled at the final instant (as a sharded run
/// settles its shards), identical occupancy and stats — even deep in the
/// eviction regime of a tiny capacity. This is why an exhaustion attack's
/// footprint is byte-identical across `SDM_SHARDS` corners: each
/// power-of-two shard count partitions whole cache sets.
#[test]
fn negative_eviction_invariant_under_shard_partition() {
    check(
        "negative_eviction_invariant_under_shard_partition",
        &Config::with_cases(192),
        |rng: &mut StdRng| {
            (
                rng.gen_range(1usize..200),
                rng.gen_range(1usize..300),
                rng.next_u64(),
            )
        },
        |&(n_keys, n_ops, seed)| {
            let n_keys = n_keys.max(1);
            let ttl = 1_000_000; // expiry out of the way: eviction is the subject
            let keys = gen_packets(n_keys, seed ^ 0xE71C);
            let ops = gen_table_ops(n_keys, n_ops, ttl, seed, true);
            let sets = 4usize; // 32-marker cap: tiny, so evictions are common
            for shards in [2usize, 4] {
                let mut single = FlowTable::with_negative_sets(ttl, sets);
                let mut parts: Vec<FlowTable> =
                    (0..shards).map(|_| FlowTable::with_negative_sets(ttl, sets)).collect();
                let mut end = SimTime(0);
                for &(now, op) in &ops {
                    end = now;
                    let _ = apply_real(&mut single, &keys, now, op);
                    match op.key() {
                        Some(k) => {
                            let s = (keys[k].stable_hash() % shards as u64) as usize;
                            let _ = apply_real(&mut parts[s], &keys, now, op);
                        }
                        // keyless ops (purge) hit every shard, like the engine
                        None => {
                            for p in &mut parts {
                                let _ = apply_real(p, &keys, now, op);
                            }
                        }
                    }
                    let merged: u64 = parts.iter().map(|p| p.negative_evictions()).sum();
                    prop_assert_eq!(single.negative_evictions(), merged, "{} shards", shards);
                }
                single.settle(end);
                for p in &mut parts {
                    p.settle(end);
                }
                let merged_len: usize = parts.iter().map(|p| p.len()).sum();
                let merged_neg: usize = parts.iter().map(|p| p.negative_len()).sum();
                let merged_evict: u64 = parts.iter().map(|p| p.negative_evictions()).sum();
                let merged_stats = parts.iter().fold(FlowTableStats::default(), |mut s, p| {
                    s.merge(&p.stats());
                    s
                });
                prop_assert_eq!(single.len(), merged_len, "{} shards", shards);
                prop_assert_eq!(single.negative_len(), merged_neg, "{} shards", shards);
                prop_assert_eq!(single.negative_evictions(), merged_evict, "{} shards", shards);
                prop_assert_eq!(single.stats(), merged_stats, "{} shards", shards);
            }
            Ok(())
        },
    );
}

/// Flow-table round trip: whatever is inserted is returned while fresh,
/// gone once expired.
#[test]
fn flow_table_soft_state() {
    check(
        "flow_table_soft_state",
        &Config::with_cases(256),
        |rng: &mut StdRng| {
            (
                rng.gen_range(1u64..1000),
                rng.gen_range(0u64..2000),
                rng.next_u64(),
            )
        },
        |&(ttl, gap, seed)| {
            let ttl = ttl.max(1);
            let ft = gen_packet(&mut StdRng::seed_from_u64(seed));
            let mut table = FlowTable::new(ttl);
            table.insert_positive(ft, PolicyId(0), ActionList::permit(), SimTime(0));
            let found = table.lookup(ft, SimTime(gap), 1).is_some();
            prop_assert_eq!(found, gap < ttl, "an entry lives exactly ttl ticks");
            Ok(())
        },
    );
}
