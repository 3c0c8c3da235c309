//! The per-node flow cache of §III.D: a table from flow identifier to
//! action list that spares most packets the multi-field policy lookup, with
//! soft-state expiry and negative caching, extended with the label fields
//! of §III.E.
//!
//! The storage layer is the open-addressed [`OaTable`] plus the
//! capacity-capped [`NegativeCache`] (see [`crate::oa_table`]), and positive
//! entries hold a 4-byte [`PolicyClassId`] into a per-table [`ClassInterner`]
//! instead of a cloned action list — SoftCell-style aggregation, so resident
//! state grows with the number of *distinct policies*, not flows.
//!
//! Every operation takes a [`FlowKey`], the 5-tuple hashed once; a device
//! builds one per same-flow stretch. A hit is one probe, a miss hands its
//! probe cell to the insert that follows, and a pin or label update on
//! the entry a lookup just found does not probe at all.
//!
//! Soft state expires on the table's own insert path: every positive
//! insert runs one [`Reclaim`] step over the positive slab, so resident
//! state follows the flows alive within one TTL, not the whole workload.

use std::borrow::Borrow;
use std::fmt;

use sdm_netsim::{FiveTuple, Label, SimTime};
use sdm_util::FxHashMap;

use crate::action::ActionList;
use crate::oa_table::{
    expired, FlowKey, NegativeCache, OaTable, Reclaim, SoftState, DEFAULT_NEG_SETS,
};
use crate::policy::PolicyId;

/// Sentinel for the packed `Option<u32>` fields of [`PosEntry`].
const NONE_U32: u32 = u32::MAX;

/// Handle to an interned policy class: one distinct `(policy, action list)`
/// pair a flow can map to. Positive flow entries store this 4-byte id, so a
/// million flows sharing 40 policies keep 40 action lists resident, not a
/// million clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyClassId(pub u32);

/// Interns `(policy, action list)` pairs into dense [`PolicyClassId`]s.
/// Ids are assigned in first-intern order, so they are deterministic per
/// table (a pure function of the flow-arrival history).
#[derive(Debug, Default)]
pub struct ClassInterner {
    by_policy: FxHashMap<PolicyId, PolicyClassId>,
    classes: Vec<(PolicyId, ActionList)>,
}

impl ClassInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the class id for `policy`, creating it (with a clone of
    /// `actions`) on first sight. A policy's action list is immutable for
    /// the lifetime of an enforcement plan, so the id is a faithful alias.
    pub fn intern(&mut self, policy: PolicyId, actions: &ActionList) -> PolicyClassId {
        if let Some(id) = self.by_policy.get(&policy) {
            return *id;
        }
        let id = PolicyClassId(self.classes.len() as u32);
        self.classes.push((policy, actions.clone()));
        self.by_policy.insert(policy, id);
        id
    }

    /// Resolves a class id this interner issued back to its
    /// `(policy, action list)` pair.
    ///
    /// # Panics
    ///
    /// Panics on an id another interner issued.
    pub fn resolve(&self, id: PolicyClassId) -> &(PolicyId, ActionList) {
        &self.classes[id.0 as usize]
    }

    /// Number of distinct classes interned.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Approximate heap bytes held by the interner.
    pub fn allocated_bytes(&self) -> usize {
        self.classes.capacity() * std::mem::size_of::<(PolicyId, ActionList)>()
            + self.by_policy.capacity()
                * (std::mem::size_of::<PolicyId>() + std::mem::size_of::<PolicyClassId>())
    }
}

/// Resident positive entry: 4-byte class handle plus the packed label /
/// pin / switch fields of §III.E and the soft-state clock.
#[derive(Debug, Clone, Copy)]
struct PosEntry {
    class: PolicyClassId,
    /// `Label` as u32, `NONE_U32` = unassigned.
    label: u32,
    /// Pinned first-hop middlebox raw id, `NONE_U32` = unpinned.
    pinned: u32,
    label_switched: bool,
    last_seen: SimTime,
}

impl SoftState for PosEntry {
    fn last_seen(&self) -> SimTime {
        self.last_seen
    }
}

/// What the cache knows about one flow — the `Copy` view
/// [`FlowTable::lookup`] reads out of the packed resident entry. The action
/// list stays in the table: borrow it with [`FlowTable::actions`]. The
/// default value is the negative marker's view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowEntry {
    /// The matched policy and its interned class (resolve the action list
    /// with [`FlowTable::actions`]); `None` is the negative-cache marker
    /// `⟨f, null⟩` — the flow matches no policy and is forwarded untouched.
    pub action: Option<(PolicyId, PolicyClassId)>,
    /// The locally-unique steering label assigned by a proxy (§III.E).
    pub label: Option<Label>,
    /// Set once the proxy received the label-ready control packet; from
    /// then on packets are label-switched instead of tunneled.
    pub label_switched: bool,
    /// The first-hop middlebox (raw id) this flow was steered to when the
    /// entry was created. Pinning it here makes live flows *sticky*: a
    /// later weight update re-steers only new flows, so mid-epoch packets
    /// never re-classify onto a different box (§III.B flow stickiness,
    /// preserved across the §III.C re-steer control loop).
    pub pinned_next: Option<u32>,
}

impl FlowEntry {
    /// True if this is a negative (no-policy) entry.
    pub fn is_negative(&self) -> bool {
        self.action.is_none()
    }
}

/// Outcome counters of a flow table, for the cache-effectiveness ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Weighted lookups that found a live entry.
    pub hits: u64,
    /// The subset of `hits` that landed on a negative (`⟨f, null⟩`) entry —
    /// packets spared the policy lookup only to be forwarded untouched.
    pub negative_hits: u64,
    /// Weighted lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Entries reclaimed after their soft-state TTL, each counted once
    /// however it went: by a lookup, a reclaim step, a sweep, a settle,
    /// or displaced (or replaced) by an insert.
    pub expired: u64,
}

impl FlowTableStats {
    /// Adds another table's counters into this one (used when merging the
    /// per-shard tables of a flow-sharded run).
    pub fn merge(&mut self, other: &FlowTableStats) {
        self.hits += other.hits;
        self.negative_hits += other.negative_hits;
        self.misses += other.misses;
        self.expired += other.expired;
    }
}

/// Soft-state flow cache: `⟨f, a⟩` pairs keyed by 5-tuple, timed out after
/// `ttl` ticks without a matching packet (§III.D).
///
/// Expiry boundary: an entry last refreshed at time `t` is alive for
/// lookups at `t .. t + ttl - 1` and expired from `t + ttl` on — i.e. it
/// lives for exactly `ttl` ticks. Every path that drops a stale entry
/// applies that one rule, so a reclaim followed by a lookup at the same
/// `now` can never resurrect an entry, and what a lookup observes never
/// depends on when reclaim ran.
///
/// Reclaim: each [`FlowTable::insert_positive`] first examines a few
/// positive slab slots from a persistent cursor and removes the stale
/// entries — skipped for one comparison while the cursor's floor proves
/// nothing can be stale. The negative side is never walked that way: it
/// stays capacity-capped, so its way layout (and eviction order) is a
/// function of each set's own history. [`FlowTable::settle`] is one full
/// pass over both sides, after which [`FlowTable::len`] counts exactly the
/// entries alive at that instant.
///
/// The table's clock is the latest `now` any operation gave it. An entry
/// stale at that clock is gone for every operation, reclaimed or not: the
/// label, pin and flag updates and [`FlowTable::pinned_next`] treat it as
/// absent, so no result depends on the reclaim cadence.
///
/// Positive entries live in an open-addressed slab table that grows by
/// rebuilding its probe array; negative markers live in a capacity-capped
/// set-associative cache whose deterministic eviction bounds the memory an
/// exhaustion attack (millions of one-packet no-policy flows) can pin.
/// A flow is resident in at most one of the two structures.
///
/// # Example
///
/// ```
/// use sdm_policy::{FlowTable, ActionList, NetworkFunction, PolicyId};
/// use sdm_netsim::{FiveTuple, Protocol, SimTime};
///
/// let mut table = FlowTable::new(100);
/// let ft = FiveTuple {
///     src: "10.0.0.1".parse().unwrap(), dst: "10.1.0.1".parse().unwrap(),
///     src_port: 4000, dst_port: 80, proto: Protocol::Tcp,
/// };
/// assert!(table.lookup(&ft, SimTime(0), 1).is_none());
/// table.insert_positive(ft, PolicyId(0),
///     ActionList::chain([NetworkFunction::Firewall]), SimTime(0));
/// assert!(table.lookup(&ft, SimTime(50), 1).is_some());   // alive
/// assert!(table.lookup(&ft, SimTime(500), 1).is_none());  // expired
/// ```
#[derive(Debug)]
pub struct FlowTable {
    /// Positive entries (flow -> interned policy class + label fields).
    pos: OaTable<FiveTuple, PosEntry>,
    /// The key the last lookup found on neither side (cleared by any
    /// negative insert): an `insert_positive` of it skips the negative-set
    /// scan that lookup already made.
    absent: Option<FlowKey>,
    /// Negative markers, capacity-capped (see [`NegativeCache`]).
    neg: NegativeCache,
    /// Interned `(policy, action list)` classes referenced by `pos`.
    classes: ClassInterner,
    ttl: u64,
    stats: FlowTableStats,
    /// Reclaim walks that ran: steps past the guard, sweeps and settles
    /// (not part of [`FlowTableStats`]: the cadence depends on each
    /// table's insert order, which varies with sharding, while the stats
    /// struct is compared bit-for-bit across those corners).
    sweeps: u64,
    /// The table's clock: the latest `now` any operation passed. Debug
    /// builds assert it never runs backwards: ages use a saturating
    /// subtraction, so a clock that runs backwards would silently read
    /// refreshed-in-the-future entries as fresh forever instead of
    /// failing loudly.
    watermark: SimTime,
    /// The positive slab's reclaim cursor: insert steps, sweeps, settles.
    pos_reclaim: Reclaim,
    /// The negative cache's cursor: sweeps and settles only.
    neg_reclaim: Reclaim,
}

impl FlowTable {
    /// Creates an empty table whose entries expire `ttl` ticks after their
    /// last matching packet, with the default negative-cache capacity
    /// ([`DEFAULT_NEG_SETS`] sets).
    ///
    /// # Panics
    ///
    /// Panics if `ttl == 0`.
    pub fn new(ttl: u64) -> Self {
        Self::with_negative_sets(ttl, DEFAULT_NEG_SETS)
    }

    /// [`FlowTable::new`] with an explicit negative-cache set count (the
    /// cap is `neg_sets * `[`crate::oa_table::NEG_WAYS`] entries).
    ///
    /// # Panics
    ///
    /// Panics if `ttl == 0` or `neg_sets` is not a power of two.
    pub fn with_negative_sets(ttl: u64, neg_sets: usize) -> Self {
        assert!(ttl > 0, "flow-table ttl must be positive");
        FlowTable {
            pos: OaTable::new(),
            absent: None,
            neg: NegativeCache::new(neg_sets),
            classes: ClassInterner::new(),
            ttl,
            stats: FlowTableStats::default(),
            sweeps: 0,
            watermark: SimTime(0),
            pos_reclaim: Reclaim::default(),
            neg_reclaim: Reclaim::default(),
        }
    }

    /// Moves the table's clock to `now`.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(
            now >= self.watermark,
            "flow-table clock moved backwards: {now:?} < {:?}",
            self.watermark
        );
        self.watermark = now;
    }

    /// The flow's positive entry if it is alive at the table's clock.
    fn live_mut(&mut self, key: FlowKey) -> Option<&mut PosEntry> {
        let (now, ttl) = (self.watermark, self.ttl);
        self.pos.get_mut(key).filter(|e| !expired(e.last_seen, now, ttl))
    }

    /// The `Copy` view of a positive entry.
    fn view(&self, e: &PosEntry) -> FlowEntry {
        FlowEntry {
            action: Some((self.classes.resolve(e.class).0, e.class)),
            label: if e.label == NONE_U32 { None } else { Some(Label(e.label as u16)) },
            label_switched: e.label_switched,
            pinned_next: if e.pinned == NONE_U32 { None } else { Some(e.pinned) },
        }
    }

    /// The action list of a class this table interned (the `class` of a
    /// [`FlowEntry`] it returned), borrowed rather than cloned.
    ///
    /// # Panics
    ///
    /// Panics on a class another table interned.
    pub fn actions(&self, class: PolicyClassId) -> &ActionList {
        &self.classes.resolve(class).1
    }

    /// Looks up a flow, refreshing its soft state. `weight` packets are
    /// accounted to the hit/miss counters. Expired entries are removed and
    /// count as misses. An entry expires exactly `ttl` ticks after its
    /// last refresh (see the type-level docs for the boundary rule).
    ///
    /// One probe of the positive table and, if that misses, one scan of
    /// the flow's negative set. A miss leaves both results for the
    /// `insert_positive` of the same key that usually follows.
    ///
    /// Debug builds panic if `now` moves backwards across calls; release
    /// builds saturate, which would otherwise mask the error.
    pub fn lookup(
        &mut self,
        key: impl Into<FlowKey>,
        now: SimTime,
        weight: u64,
    ) -> Option<FlowEntry> {
        let key = key.into();
        self.advance(now);
        let ttl = self.ttl;
        // Positive table first (a flow is resident in at most one side).
        if let Some(e) = self.pos.get_mut(key) {
            if !expired(e.last_seen, now, ttl) {
                e.last_seen = now;
                let e = *e;
                self.absent = None;
                self.stats.hits += weight;
                return Some(self.view(&e));
            }
            self.pos.remove(key);
            self.stats.expired += 1;
        } else {
            match self.neg.get_mut(&key) {
                Some(ls) if !expired(*ls, now, ttl) => {
                    *ls = now;
                    self.absent = None;
                    self.stats.hits += weight;
                    self.stats.negative_hits += weight;
                    return Some(FlowEntry::default());
                }
                Some(_) => {
                    self.neg.remove(&key);
                    self.stats.expired += 1;
                }
                None => {}
            }
        }
        self.absent = Some(key);
        self.stats.misses += weight;
        None
    }

    /// Vector-path hit accounting: counts `weight` packets as cache hits
    /// *without* probing the table.
    ///
    /// Only valid when the immediately preceding operation on this table
    /// was a [`FlowTable::lookup`] or insert of the **same flow at the
    /// same instant** — i.e. for the run-mates of a consecutive same-flow
    /// run in a batch. The entry is then guaranteed present and already
    /// refreshed at `now`, so a real lookup would be a pure hit whose only
    /// effect is `hits += weight`; this records exactly that, keeping the
    /// counters bit-identical to per-packet lookups while skipping the
    /// hash and the probe.
    pub fn record_run_hit(&mut self, weight: u64) {
        self.stats.hits += weight;
    }

    /// [`FlowTable::record_run_hit`] for run-mates of a *negative*-cached
    /// flow: counts the hit **and** its negative subset, keeping the
    /// counters bit-identical to per-packet lookups (which classify each
    /// hit by the entry they land on).
    pub fn record_run_negative_hit(&mut self, weight: u64) {
        self.stats.hits += weight;
        self.stats.negative_hits += weight;
    }

    /// Inserts (or replaces) a positive entry mapping the flow to a policy's
    /// action list, and returns its view. The list is interned: the
    /// resident entry stores a 4-byte [`PolicyClassId`], not a clone.
    ///
    /// First runs one reclaim step (see the type docs), so the insert
    /// still leaves its probe cell for the label and pin updates that
    /// follow. A stale entry of the same flow that the insert replaces
    /// counts as expired.
    pub fn insert_positive(
        &mut self,
        key: impl Into<FlowKey>,
        policy: PolicyId,
        actions: impl Borrow<ActionList>,
        now: SimTime,
    ) -> FlowEntry {
        let key = key.into();
        self.advance(now);
        let ttl = self.ttl;
        if self.absent.take() != Some(key) {
            if let Some(seen) = self.neg.remove(&key) {
                self.stats.expired += u64::from(expired(seen, now, ttl));
            }
        }
        if let Some(n) = self.pos_reclaim.step(&mut self.pos, now, ttl) {
            self.sweeps += 1;
            self.stats.expired += n as u64;
        }
        let class = self.classes.intern(policy, actions.borrow());
        let replaced = self.pos.insert(
            key,
            PosEntry {
                class,
                label: NONE_U32,
                pinned: NONE_U32,
                label_switched: false,
                last_seen: now,
            },
        );
        if let Some(old) = replaced {
            self.stats.expired += u64::from(expired(old.last_seen, now, ttl));
        }
        FlowEntry {
            action: Some((policy, class)),
            ..FlowEntry::default()
        }
    }

    /// Inserts the negative marker `⟨f, null⟩` so later packets of the flow
    /// skip the policy table entirely (§III.D), and returns its view.
    /// Subject to the negative cache's capacity cap: a full set
    /// deterministically displaces its stalest marker. Displacing a live
    /// marker is an eviction (it only re-exposes that flow to one policy
    /// lookup — correctness is unaffected); displacing a stale one is an
    /// expiry.
    pub fn insert_negative(&mut self, key: impl Into<FlowKey>, now: SimTime) -> FlowEntry {
        let key = key.into();
        self.advance(now);
        let ttl = self.ttl;
        self.absent = None;
        if let Some(old) = self.pos.remove(key) {
            self.stats.expired += u64::from(expired(old.last_seen, now, ttl));
        }
        self.stats.expired += u64::from(self.neg.insert(&key, now, ttl));
        FlowEntry::default()
    }

    /// Applies `update` to the flow's live positive entry; false if the
    /// flow is unknown, stale or negative-cached. No probe when the last
    /// lookup or insert was of this flow.
    fn update(&mut self, key: impl Into<FlowKey>, update: impl FnOnce(&mut PosEntry)) -> bool {
        self.live_mut(key.into()).map(update).is_some()
    }

    /// Attaches a steering label to an existing *positive* entry
    /// (proxy-side, §III.E; negative flows never carry labels). Returns
    /// false if the flow is unknown or negative-cached.
    pub fn set_label(&mut self, key: impl Into<FlowKey>, label: Label) -> bool {
        self.update(key, |e| e.label = label.0 as u32)
    }

    /// Reads a flow's pinned next hop without refreshing soft state or
    /// touching the hit/miss counters. Callers must have resolved the flow
    /// with [`FlowTable::lookup`] at the current instant first (so an
    /// entry that expired since the table's clock cannot leak a stale pin).
    pub fn pinned_next(&self, key: impl Into<FlowKey>) -> Option<u32> {
        self.pos
            .get(key.into())
            .filter(|e| !expired(e.last_seen, self.watermark, self.ttl))
            .and_then(|e| if e.pinned == NONE_U32 { None } else { Some(e.pinned) })
    }

    /// Pins the flow's first-hop middlebox so subsequent packets reuse the
    /// same selection even after a weight update (flow stickiness across
    /// re-steer epochs). Only positive entries steer, so only they can be
    /// pinned. Returns false if the flow is unknown or negative-cached.
    pub fn pin_next(&mut self, key: impl Into<FlowKey>, next: u32) -> bool {
        debug_assert!(next != NONE_U32, "u32::MAX is the unpinned sentinel");
        self.update(key, |e| e.pinned = next)
    }

    /// Flags an entry for label switching after the control packet returned
    /// (§III.E). Returns false if the flow is unknown or negative-cached.
    pub fn flag_label_switched(&mut self, key: impl Into<FlowKey>) -> bool {
        self.update(key, |e| e.label_switched = true)
    }

    /// Explicit budgeted expiry walk: examines at most `budget` positive
    /// slab slots and at most `budget` negative-cache slots, each from its
    /// side's persistent cursor (the positive one is the cursor insert
    /// steps advance), and drops the stale entries. Returns how many it
    /// dropped. Not guarded: a budget of `usize::MAX` visits every slot
    /// of both sides once. Allocation-free at any table size.
    ///
    /// The data path never calls this — inserts reclaim on their own and
    /// [`FlowTable::settle`] finishes a run — so a walk here only moves
    /// *when* a stale entry is counted, never what a lookup observes.
    pub fn sweep(&mut self, now: SimTime, budget: usize) -> usize {
        self.advance(now);
        self.sweeps += 1;
        let ttl = self.ttl;
        let dropped = self.pos_reclaim.walk(&mut self.pos, now, ttl, budget)
            + self.neg_reclaim.walk(&mut self.neg, now, ttl, budget);
        self.stats.expired += dropped as u64;
        dropped
    }

    /// Reclaims every entry stale at `now`: one full pass over each side,
    /// skipped (one comparison) for a side whose floor proves nothing can
    /// be stale. Afterwards [`FlowTable::len`] is exactly the number of
    /// entries alive at `now` — independent of how inserts were
    /// interleaved — which is what makes end-of-run footprints identical
    /// across shard counts and drain limits. Returns how many it dropped.
    pub fn settle(&mut self, now: SimTime) -> usize {
        self.advance(now);
        let ttl = self.ttl;
        let pos = self.pos_reclaim.settle(&mut self.pos, now, ttl);
        let neg = self.neg_reclaim.settle(&mut self.neg, now, ttl);
        if pos.is_some() || neg.is_some() {
            self.sweeps += 1;
        }
        let dropped = pos.unwrap_or(0) + neg.unwrap_or(0);
        self.stats.expired += dropped as u64;
        dropped
    }

    /// Resident entry count, positive and negative sides combined: every
    /// entry alive at the last instant, plus stale ones not yet reclaimed
    /// (none right after a [`FlowTable::settle`]).
    pub fn len(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/expiry counters.
    pub fn stats(&self) -> FlowTableStats {
        self.stats
    }

    /// Reclaim walks that ran over this table's lifetime: insert steps
    /// past the guard, [`FlowTable::sweep`] calls and settles.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Resident negative markers.
    pub fn negative_len(&self) -> usize {
        self.neg.len()
    }

    /// Live negative markers displaced by capacity eviction (an exhaustion
    /// attack shows up here; a displaced marker that had already expired
    /// counts in [`FlowTableStats::expired`] instead). Invariant across
    /// power-of-two shard counts, see [`crate::oa_table`].
    pub fn negative_evictions(&self) -> u64 {
        self.neg.evictions()
    }

    /// Heap bytes held by the table (probe arrays, slab, negative sets,
    /// interner) — allocation, not occupancy.
    pub fn allocated_bytes(&self) -> usize {
        self.pos.allocated_bytes() + self.neg.allocated_bytes() + self.classes.allocated_bytes()
    }
}

impl fmt::Display for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flow-table: {} entries, {} hits ({} negative), {} misses, {} expired",
            self.len(),
            self.stats.hits,
            self.stats.negative_hits,
            self.stats.misses,
            self.stats.expired
        )
    }
}

/// Allocates labels that are locally unique among live flows (§III.E: "an
/// extra label field, l, which is locally unique in the table").
///
/// Freed labels are recycled; allocation fails only when all 2^16 labels
/// are simultaneously live.
#[derive(Debug, Default)]
pub struct LabelAllocator {
    next: u32,
    free: Vec<Label>,
    live: u32,
}

impl LabelAllocator {
    /// Creates an allocator with all labels free.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a label, or `None` if the 16-bit space is exhausted.
    pub fn allocate(&mut self) -> Option<Label> {
        if let Some(l) = self.free.pop() {
            self.live += 1;
            return Some(l);
        }
        if self.next > u16::MAX as u32 {
            return None;
        }
        let l = Label(self.next as u16);
        self.next += 1;
        self.live += 1;
        Some(l)
    }

    /// Returns a label to the pool.
    pub fn release(&mut self, label: Label) {
        self.free.push(label);
        self.live = self.live.saturating_sub(1);
    }

    /// Number of labels currently allocated.
    pub fn live(&self) -> u32 {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::NetworkFunction::*;
    use sdm_netsim::Protocol;

    fn ft(sp: u16) -> FiveTuple {
        FiveTuple {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.1.0.1".parse().unwrap(),
            src_port: sp,
            dst_port: 80,
            proto: Protocol::Tcp,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut t = FlowTable::new(100);
        assert!(t.lookup(ft(1), SimTime(0), 1).is_none());
        t.insert_positive(ft(1), PolicyId(3), ActionList::chain([Firewall]), SimTime(0));
        let e = t.lookup(ft(1), SimTime(10), 5).unwrap();
        assert_eq!(e.action.as_ref().unwrap().0, PolicyId(3));
        assert_eq!(
            t.stats(),
            FlowTableStats { hits: 5, negative_hits: 0, misses: 1, expired: 0 }
        );
    }

    #[test]
    fn one_probe_per_operation() {
        use crate::oa_table::walks;
        let mut t = FlowTable::new(100);
        for p in 0..40u16 {
            let key = FlowKey::new(ft(p));
            let cap = t.pos.capacity();
            let before = walks();
            assert!(t.lookup(key, SimTime(0), 1).is_none());
            let e = t.insert_positive(key, PolicyId(1), ActionList::chain([Ids]), SimTime(0));
            let grew = usize::from(t.pos.capacity() != cap);
            assert_eq!(walks() - before, 1 + grew as u64, "miss -> insert of flow {p}");
            // updates of the entry just inserted: no walk
            let before = walks();
            assert!(t.set_label(key, Label(p)));
            assert!(t.pin_next(key, 3));
            assert_eq!(walks() - before, 0, "label + pin after insert");
            assert_eq!(e.action, Some((PolicyId(1), PolicyClassId(0))));
        }
        let key = FlowKey::new(ft(17));
        let before = walks();
        let e = t.lookup(key, SimTime(1), 1).unwrap();
        assert_eq!(walks() - before, 1, "positive hit");
        assert_eq!((e.label, e.pinned_next), (Some(Label(17)), Some(3)));
        assert_eq!(t.actions(e.action.unwrap().1), &ActionList::chain([Ids]));
        let before = walks();
        assert!(t.pin_next(key, 4));
        assert!(t.flag_label_switched(key));
        assert_eq!(walks() - before, 0, "pin + flag after a hit");
        assert_eq!(t.pinned_next(key), Some(4));
    }

    #[test]
    fn soft_state_expires_and_refreshes() {
        let mut t = FlowTable::new(100);
        t.insert_positive(ft(1), PolicyId(0), ActionList::permit(), SimTime(0));
        // refresh at t=90 extends lifetime past t=150
        assert!(t.lookup(ft(1), SimTime(90), 1).is_some());
        assert!(t.lookup(ft(1), SimTime(150), 1).is_some());
        // silence until t=300 expires it
        assert!(t.lookup(ft(1), SimTime(300), 1).is_none());
        assert_eq!(t.len(), 0);
        assert_eq!(t.stats().expired, 1);
    }

    #[test]
    fn negative_caching() {
        let mut t = FlowTable::new(100);
        t.insert_negative(ft(2), SimTime(0));
        let e = t.lookup(ft(2), SimTime(1), 1).unwrap();
        assert!(e.is_negative());
        assert!(e.action.is_none());
    }

    #[test]
    fn label_lifecycle() {
        let mut t = FlowTable::new(100);
        t.insert_positive(ft(3), PolicyId(0), ActionList::chain([Ids]), SimTime(0));
        assert!(t.set_label(ft(3), Label(7)));
        assert!(!t.flag_label_switched(ft(9)));
        assert!(t.flag_label_switched(ft(3)));
        let e = t.lookup(ft(3), SimTime(1), 1).unwrap();
        assert_eq!(e.label, Some(Label(7)));
        assert!(e.label_switched);
    }

    #[test]
    fn pin_next_sticks_to_entry() {
        let mut t = FlowTable::new(100);
        t.insert_positive(ft(4), PolicyId(0), ActionList::chain([Firewall]), SimTime(0));
        assert!(!t.pin_next(ft(9), 2), "unknown flow cannot be pinned");
        assert!(t.pin_next(ft(4), 2));
        let e = t.lookup(ft(4), SimTime(1), 1).unwrap();
        assert_eq!(e.pinned_next, Some(2));
        // re-inserting the flow clears the pin (fresh decision)
        t.insert_positive(ft(4), PolicyId(0), ActionList::chain([Firewall]), SimTime(2));
        assert_eq!(t.lookup(ft(4), SimTime(3), 1).unwrap().pinned_next, None);
    }

    #[test]
    fn amortized_sweep_drains_stale_entries_within_budget() {
        let mut t = FlowTable::new(50);
        for p in 0..10 {
            t.insert_positive(ft(p), PolicyId(0), ActionList::permit(), SimTime(p as u64));
        }
        // at t=56 with ttl 50, entries with last_seen <= 6 have reached
        // age >= ttl and are stale
        let mut dropped = 0;
        let mut calls = 0;
        while calls < 10 {
            dropped += t.sweep(SimTime(56), 3);
            calls += 1;
            if dropped == 7 {
                break;
            }
        }
        assert_eq!(dropped, 7, "sweep must find every stale entry");
        assert_eq!(t.len(), 3);
        assert!(calls >= 3, "budget 3 over 10 entries needs several calls");
        assert_eq!(t.stats().expired, 7);
    }

    #[test]
    fn sweep_spares_live_entries_and_restarts_cycles() {
        let mut t = FlowTable::new(100);
        for p in 0..8 {
            t.insert_positive(ft(p), PolicyId(0), ActionList::permit(), SimTime(0));
        }
        // everything live: a full cycle drops nothing
        for _ in 0..4 {
            assert_eq!(t.sweep(SimTime(50), 2), 0);
        }
        assert_eq!(t.len(), 8);
        // entries refreshed mid-cycle survive the next cycle too
        assert!(t.lookup(ft(0), SimTime(99), 1).is_some());
        let dropped: usize = (0..8).map(|_| t.sweep(SimTime(100), 1)).sum();
        assert_eq!(dropped + t.len(), 8);
        assert!(t.lookup(ft(0), SimTime(100), 1).is_some(), "refreshed entry lives");
    }

    #[test]
    fn sweep_agrees_with_lookup_at_the_ttl_boundary() {
        let mut t = FlowTable::new(50);
        t.insert_positive(ft(1), PolicyId(0), ActionList::permit(), SimTime(0));
        t.insert_positive(ft(2), PolicyId(0), ActionList::permit(), SimTime(1));
        // at t=50: ft(1) has age ttl (stale), ft(2) age ttl-1 (live)
        let dropped = t.sweep(SimTime(50), 10) + t.sweep(SimTime(50), 10);
        assert_eq!(dropped, 1);
        assert!(t.lookup(ft(1), SimTime(50), 1).is_none());
        assert!(t.lookup(ft(2), SimTime(50), 1).is_some());
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = FlowTableStats { hits: 1, negative_hits: 1, misses: 2, expired: 3 };
        a.merge(&FlowTableStats { hits: 10, negative_hits: 5, misses: 20, expired: 30 });
        assert_eq!(
            a,
            FlowTableStats { hits: 11, negative_hits: 6, misses: 22, expired: 33 }
        );
    }

    #[test]
    fn negative_hits_counted_as_subset_of_hits() {
        let mut t = FlowTable::new(100);
        t.insert_negative(ft(1), SimTime(0));
        t.insert_positive(ft(2), PolicyId(0), ActionList::permit(), SimTime(0));
        assert!(t.lookup(ft(1), SimTime(1), 4).unwrap().is_negative());
        assert!(!t.lookup(ft(2), SimTime(1), 2).unwrap().is_negative());
        t.record_run_negative_hit(3); // batched run-mates of ft(1)
        let s = t.stats();
        assert_eq!(s.hits, 9);
        assert_eq!(s.negative_hits, 7, "4 looked up + 3 run-mates");
    }

    #[test]
    fn sweep_calls_are_counted() {
        let mut t = FlowTable::new(100);
        assert_eq!(t.sweeps(), 0);
        t.insert_positive(ft(1), PolicyId(0), ActionList::permit(), SimTime(0));
        let _ = t.sweep(SimTime(1), 4);
        let _ = t.sweep(SimTime(2), 4);
        assert_eq!(t.sweeps(), 2);
    }

    #[test]
    fn expiry_boundary_exact_ttl() {
        // positive entry: alive at age ttl-1, expired at exactly ttl
        let mut t = FlowTable::new(100);
        t.insert_positive(ft(1), PolicyId(0), ActionList::permit(), SimTime(0));
        assert!(t.lookup(ft(1), SimTime(99), 1).is_some(), "age ttl-1 alive");
        // re-insert to reset last_seen (lookup above refreshed it)
        t.insert_positive(ft(2), PolicyId(0), ActionList::permit(), SimTime(99));
        assert!(t.lookup(ft(2), SimTime(199), 1).is_none(), "age ttl expired");
        t.insert_positive(ft(3), PolicyId(0), ActionList::permit(), SimTime(199));
        assert!(t.lookup(ft(3), SimTime(300), 1).is_none(), "age ttl+1 expired");
    }

    #[test]
    fn negative_entries_use_same_boundary() {
        let mut t = FlowTable::new(100);
        t.insert_negative(ft(1), SimTime(0));
        t.insert_negative(ft(2), SimTime(0));
        t.insert_negative(ft(3), SimTime(0));
        assert!(t.lookup(ft(1), SimTime(99), 1).is_some(), "age ttl-1 alive");
        assert!(t.lookup(ft(2), SimTime(100), 1).is_none(), "age ttl expired");
        assert!(t.lookup(ft(3), SimTime(101), 1).is_none(), "age ttl+1 expired");
    }

    #[test]
    fn sweep_and_lookup_agree_at_boundary() {
        // a full sweep at the exact expiry tick must drop what lookup would reject
        let mut t = FlowTable::new(50);
        t.insert_positive(ft(1), PolicyId(0), ActionList::permit(), SimTime(0));
        assert_eq!(t.sweep(SimTime(50), usize::MAX), 1);
        assert!(t.lookup(ft(1), SimTime(50), 1).is_none());
        // and keep what lookup would accept
        t.insert_positive(ft(2), PolicyId(0), ActionList::permit(), SimTime(50));
        assert_eq!(t.sweep(SimTime(99), usize::MAX), 0);
        assert!(t.lookup(ft(2), SimTime(99), 1).is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "clock moved backwards")]
    fn non_monotonic_now_panics_in_debug() {
        let mut t = FlowTable::new(100);
        t.insert_positive(ft(1), PolicyId(0), ActionList::permit(), SimTime(0));
        let _ = t.lookup(ft(1), SimTime(500), 1);
        let _ = t.lookup(ft(1), SimTime(10), 1); // time ran backwards
    }

    #[test]
    #[should_panic(expected = "ttl")]
    fn zero_ttl_rejected() {
        let _ = FlowTable::new(0);
    }

    #[test]
    fn policy_classes_are_interned_not_cloned() {
        let mut t = FlowTable::new(100);
        let actions = ActionList::chain([Firewall, Ids]);
        for p in 0..1000u16 {
            // 1000 flows across 3 policies -> 3 resident classes
            t.insert_positive(
                ft(p + 1),
                PolicyId((p % 3) as u32),
                actions.clone(),
                SimTime(0),
            );
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.classes.len(), 3);
        // every flow still resolves to its policy
        let e = t.lookup(ft(1), SimTime(1), 1).unwrap();
        assert_eq!(e.action.unwrap().0, PolicyId(0));
    }

    #[test]
    fn negative_side_is_capacity_capped() {
        // 2 sets x 8 ways = 16 markers max, however many flows attack
        let mut t = FlowTable::with_negative_sets(1_000_000, 2);
        for p in 0..5000u16 {
            t.insert_negative(ft(p + 1), SimTime(p as u64));
        }
        assert_eq!(t.neg.capacity(), 16);
        assert!(t.negative_len() <= 16);
        assert_eq!(
            t.negative_evictions(),
            5000 - t.negative_len() as u64,
            "every overflow insert evicted exactly one marker"
        );
        assert!(t.len() <= 16, "exhaustion attack cannot grow the table");
    }

    #[test]
    fn eviction_only_costs_a_relookup_not_correctness() {
        let mut t = FlowTable::with_negative_sets(1000, 1);
        // fill one 8-way set, then displace the stalest
        for p in 0..9u16 {
            t.insert_negative(ft(p + 1), SimTime(p as u64));
        }
        // the evicted flow is a miss again (would re-run the classifier);
        // the survivors still hit
        let survivors = (1..=9u16)
            .filter(|p| t.lookup(ft(*p), SimTime(50), 1).is_some())
            .count();
        assert_eq!(survivors, 8);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn sweep_covers_the_negative_side() {
        let mut t = FlowTable::new(50);
        t.insert_positive(ft(1), PolicyId(0), ActionList::permit(), SimTime(0));
        t.insert_negative(ft(2), SimTime(0));
        t.insert_negative(ft(3), SimTime(40));
        // at t=55 the positive entry and ft(2) are stale, ft(3) lives.
        // one full pass over the virtual slot space:
        let slots = 1 + DEFAULT_NEG_SETS * crate::oa_table::NEG_WAYS;
        let mut dropped = 0;
        let mut budget_left = slots;
        while budget_left > 0 {
            let step = budget_left.min(100_000);
            dropped += t.sweep(SimTime(55), step);
            budget_left -= step;
        }
        assert_eq!(dropped, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.negative_len(), 1);
    }

    #[test]
    fn sweep_never_allocates() {
        // a cursor walk must keep the table's heap footprint bit-stable
        // across arbitrarily many sweeps
        use crate::oa_table::Slots;
        let mut t = FlowTable::new(50);
        for p in 0..2000u16 {
            t.insert_positive(ft(p + 1), PolicyId(0), ActionList::permit(), SimTime(0));
        }
        let baseline = t.allocated_bytes();
        let slots = t.pos.slot_count() + t.neg.slot_count();
        let mut now = 0u64;
        for _ in 0..5 {
            // several full cycles, mixed budgets, entries expiring mid-walk
            now += 20;
            let mut left = slots;
            while left > 0 {
                let step = left.min(777);
                let _ = t.sweep(SimTime(now), step);
                left -= step;
            }
            // a sweep only removes: it never acquires memory
            assert!(t.allocated_bytes() <= baseline, "sweep must not allocate");
        }
        assert!(t.is_empty(), "everything expired across the cycles");
    }

    #[test]
    fn a_stale_displacement_counts_as_expired_not_evicted() {
        // one 8-way set of markers, all stale by tick 20
        let mut t = FlowTable::with_negative_sets(10, 1);
        for p in 0..8u16 {
            t.insert_negative(ft(p + 1), SimTime(p as u64));
        }
        let (evicted, expired) = (t.negative_evictions(), t.stats().expired);
        t.insert_negative(ft(100), SimTime(20));
        assert_eq!(t.negative_evictions(), evicted, "evictions +0");
        assert_eq!(t.stats().expired, expired + 1, "expired +1");
        assert_eq!(t.negative_len(), 8);
    }

    #[test]
    fn inserts_reclaim_what_lookups_never_revisit() {
        // one-packet flows, one per tick, ttl 50: only the inserts run
        // reclaim, yet the table stays near one TTL window of flows
        let mut t = FlowTable::new(50);
        for p in 0..5000u16 {
            let now = SimTime(p as u64);
            assert!(t.lookup(ft(p), now, 1).is_none());
            t.insert_positive(ft(p), PolicyId(0), ActionList::permit(), now);
            assert!(t.len() <= 100, "len {} after flow {p}", t.len());
        }
        let s = t.stats();
        assert_eq!(t.len() as u64 + s.expired, 5000, "every entry resident or expired");
        assert_eq!((s.hits, s.misses), (0, 5000), "reclaim is invisible to lookups");
        assert!(t.sweeps() > 0);
        // settling leaves exactly the flows alive at the last instant
        t.settle(SimTime(4999));
        assert_eq!(t.len(), 50);
        assert_eq!(t.stats().expired, 4950);
        assert!(t.allocated_bytes() < 50 * 1000, "{} bytes", t.allocated_bytes());
    }

    #[test]
    fn reclaim_is_free_while_nothing_can_be_stale() {
        let mut t = FlowTable::new(1_000_000);
        for p in 0..1000u16 {
            t.insert_positive(ft(p), PolicyId(0), ActionList::permit(), SimTime(p as u64));
        }
        assert_eq!(t.settle(SimTime(999)), 0);
        assert_eq!(t.sweeps(), 0, "every step and the settle stopped at the guard");
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn replacing_a_stale_entry_counts_it_expired() {
        let mut t = FlowTable::new(10);
        t.insert_positive(ft(1), PolicyId(0), ActionList::permit(), SimTime(0));
        t.insert_positive(ft(1), PolicyId(0), ActionList::permit(), SimTime(5));
        assert_eq!(t.stats().expired, 0, "replacing a live entry is not an expiry");
        t.insert_positive(ft(1), PolicyId(0), ActionList::permit(), SimTime(15));
        assert_eq!(t.stats().expired, 1);
        t.insert_negative(ft(1), SimTime(30));
        assert_eq!(t.stats().expired, 2, "a stale positive entry the marker replaces");
        t.insert_positive(ft(1), PolicyId(0), ActionList::permit(), SimTime(45));
        assert_eq!(t.stats().expired, 3, "a stale marker the entry replaces");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn set_label_and_pin_are_positive_only() {
        let mut t = FlowTable::new(100);
        t.insert_negative(ft(1), SimTime(0));
        assert!(!t.set_label(ft(1), Label(3)), "negative flows carry no label");
        assert!(!t.pin_next(ft(1), 2), "negative flows are never steered");
        assert!(!t.flag_label_switched(ft(1)));
        assert_eq!(t.pinned_next(ft(1)), None);
    }

    #[test]
    fn allocated_bytes_reported() {
        let mut t = FlowTable::new(100);
        for p in 0..100u16 {
            t.insert_positive(ft(p + 1), PolicyId(0), ActionList::permit(), SimTime(0));
        }
        let bytes = t.allocated_bytes();
        assert!(bytes > 0);
        assert!(bytes < 100 * 1000, "two orders of magnitude headroom");
    }

    #[test]
    fn allocator_unique_and_recycles() {
        let mut a = LabelAllocator::new();
        let l1 = a.allocate().unwrap();
        let l2 = a.allocate().unwrap();
        assert_ne!(l1, l2);
        assert_eq!(a.live(), 2);
        a.release(l1);
        assert_eq!(a.live(), 1);
        let l3 = a.allocate().unwrap();
        assert_eq!(l3, l1); // recycled
    }

    #[test]
    fn allocator_exhausts_at_64k() {
        let mut a = LabelAllocator::new();
        for _ in 0..=u16::MAX as u32 {
            assert!(a.allocate().is_some());
        }
        assert!(a.allocate().is_none());
        a.release(Label(123));
        assert_eq!(a.allocate(), Some(Label(123)));
    }
}
