//! Cache-optimized open-addressing storage for the per-flow state layer.
//!
//! Two structures live here, both built for the million-flow regime the
//! paper's proxy/middlebox tables reach at ISP scale:
//!
//! * [`OaTable`] — a linear-probing open-addressed index over a slab of
//!   entries. The probe array holds 16-byte `{hash, slot}` buckets (cheap
//!   to scan, no key/value loads until the 64-bit hash matches), values
//!   live in a slab with an intrusive free list, deletion uses
//!   backward-shift (no tombstone accumulation under one-packet-flow
//!   churn), and a grow rebuilds the probe array in one sequential pass.
//!   Keys arrive [`Hashed`] by the caller, and a finger on the last walk
//!   lets a miss → insert → pin chain on one key walk once.
//! * [`NegativeCache`] — a set-associative, capacity-capped store for the
//!   `⟨f, null⟩` negative markers of §III.D. Unlike the positive table it
//!   must survive adversarial fill (millions of one-packet flows that
//!   match no policy), so it has a hard capacity and a deterministic
//!   stalest-entry eviction instead of growing.
//! * `Reclaim` — the one expiry walk both soft-state tables share: a
//!   persistent cursor that examines a few slots per insert and removes
//!   the entries `expired` says are stale, skipped outright while its
//!   floor proves nothing can be.
//!
//! # Determinism
//!
//! Every operation is a pure function of the operation sequence: probe
//! order depends only on key hashes and insertion history, iteration and
//! a `Reclaim` cursor walk the slab in slot order, and the negative
//! cache's set index uses the *raw low bits* of [`FiveTuple::stable_hash`]
//! (a grow moves buckets, never slab slots, so its timing is unobservable).
//! That last choice is load-bearing: flow sharding assigns a flow to shard
//! `stable_hash % N`, so with a power-of-two shard count dividing the
//! (power-of-two) set count, every cache set receives flows of exactly one
//! shard and each flow lands in the *same set index* no matter how many
//! shards exist. Per-set state — occupancy, eviction counts — is then a
//! pure function of that set's flow subsequence in global simulated-time
//! order, which makes negative-cache lengths and eviction counters
//! byte-identical across `SDM_SHARDS` 1/4 × drain limits 1/256 (power-of-two
//! shard counts; the invariance argument does not cover `SDM_SHARDS=3`).

use sdm_netsim::{FiveTuple, SimTime};

/// Keys usable in an [`OaTable`]: cheap to copy and hashed through a
/// *stable* (platform- and run-independent) 64-bit function, so probe
/// order — and therefore slab layout — is deterministic.
pub trait OaKey: Copy + Eq {
    /// The stable 64-bit hash identifying this key.
    fn oa_hash(&self) -> u64;
}

impl OaKey for FiveTuple {
    fn oa_hash(&self) -> u64 {
        self.stable_hash()
    }
}

/// A key together with its [`OaKey::oa_hash`], computed once when the
/// key is built. Every table operation takes one (any `K` or `&K`
/// converts), so a caller that builds it once per same-key stretch pays
/// for one hash however many operations the stretch makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hashed<K> {
    // `hash` first: the derived equality rejects a different key on the
    // hash before comparing key fields.
    hash: u64,
    key: K,
}

impl<K: OaKey> Hashed<K> {
    /// Hashes `key`.
    pub fn new(key: K) -> Self {
        Hashed {
            hash: key.oa_hash(),
            key,
        }
    }

    /// The key.
    pub fn key(&self) -> &K {
        &self.key
    }
}

impl<K: OaKey> From<K> for Hashed<K> {
    fn from(key: K) -> Self {
        Hashed::new(key)
    }
}

impl<K: OaKey> From<&K> for Hashed<K> {
    fn from(key: &K) -> Self {
        Hashed::new(*key)
    }
}

/// A flow identifier with its [`FiveTuple::stable_hash`]: the key of the
/// flow cache and of the negative cache.
pub type FlowKey = Hashed<FiveTuple>;

/// The soft-state boundary rule every table applies: an entry last
/// refreshed at `last_seen` is alive at `last_seen .. last_seen + ttl - 1`
/// and expired from `last_seen + ttl` on — it lives for exactly `ttl`
/// ticks. Lookups, displacement, reclaim steps and settling all ask this
/// one function, so none of them can disagree at the boundary.
pub(crate) fn expired(last_seen: SimTime, now: SimTime, ttl: u64) -> bool {
    now.0.saturating_sub(last_seen.0) >= ttl
}

/// Sentinel marking an empty bucket.
const EMPTY: u32 = u32::MAX;
/// Smallest bucket-array capacity (power of two).
const MIN_CAP: usize = 8;

/// One probe-array cell: the key's full 64-bit hash plus the slab slot of
/// its entry (`EMPTY` if vacant). Keeping keys and values out of the probe
/// array means collision scans touch only these 16-byte cells.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    hash: u64,
    slot: u32,
}

const VACANT_BUCKET: Bucket = Bucket { hash: 0, slot: EMPTY };

/// Slab cell: an entry, or a link in the intrusive free list.
#[derive(Debug)]
enum Slot<K, V> {
    Occupied(K, V),
    Vacant(u32),
}

/// Where the last walk for `key` stopped: the cell holding its bucket, or
/// — if that cell is empty — the empty cell ending its probe run, which is
/// exactly where an insert of `key` goes.
#[derive(Debug, Clone, Copy)]
struct Finger<K> {
    key: Hashed<K>,
    cell: usize,
}

/// Home bucket via Fibonacci hashing: the multiply spreads entropy into
/// the high bits, which the shift selects. `cap` must be a power of two
/// `>= MIN_CAP` (so the shift is `< 64`).
fn home(hash: u64, cap: usize) -> usize {
    debug_assert!(cap.is_power_of_two() && cap >= MIN_CAP);
    let bits = cap.trailing_zeros();
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

#[cfg(test)]
thread_local! {
    static WALKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Key walks made on this thread so far — the one-probe guard's counter.
#[cfg(test)]
pub(crate) fn walks() -> u64 {
    WALKS.with(|w| w.get())
}

/// Places a bucket at the first free cell of its probe sequence. The
/// caller guarantees the array is not full and the key not present.
fn place(buckets: &mut [Bucket], b: Bucket) {
    let mask = buckets.len() - 1;
    let mut i = home(b.hash, buckets.len());
    while buckets[i].slot != EMPTY {
        i = (i + 1) & mask;
    }
    buckets[i] = b;
}

/// Removes the bucket at `i` by backward-shifting: scan the probe run
/// after `i` until its first empty cell, moving into the hole every entry
/// whose home lies at or before the hole (cyclically) — i.e. entries for
/// which the hole is on their own probe path. Entries already at (or
/// probing from) a later home stay put, but the scan continues past them:
/// stopping there would strand movable entries further down the run.
/// Preserves the reachability invariant — every remaining entry has a
/// gap-free probe path from its home — without tombstones.
fn backward_shift_remove(buckets: &mut [Bucket], i: usize) -> Bucket {
    let mask = buckets.len() - 1;
    let removed = buckets[i];
    let mut hole = i;
    let mut j = i;
    loop {
        j = (j + 1) & mask;
        let b = buckets[j];
        if b.slot == EMPTY {
            buckets[hole] = VACANT_BUCKET;
            return removed;
        }
        // `b` may take the hole iff the hole sits on `b`'s probe path:
        // cyclic distance home->j must cover the distance hole->j.
        let h = home(b.hash, buckets.len());
        if j.wrapping_sub(h) & mask >= j.wrapping_sub(hole) & mask {
            buckets[hole] = b;
            hole = j;
        }
    }
}

/// Open-addressed hash table: linear probing over `{hash, slot}` buckets,
/// slab-backed values, whole-array rebuild on grow and backward-shift
/// deletion. Deterministic: iteration and a reclaim cursor run in
/// slab order, which is a pure function of the operation history.
///
/// The table keeps a *finger* on the last key it walked for. Every
/// mutation re-aims it at the key it touched or drops it, so it is never
/// stale: an operation on the finger's key starts at its cell instead of
/// walking again. A hit followed by a `get_mut` of the same key, or a miss
/// followed by its `insert`, costs one walk in total (plus one if the
/// insert grows the table).
///
/// # Example
///
/// ```
/// use sdm_policy::{OaKey, OaTable};
/// use sdm_netsim::{FiveTuple, Protocol};
///
/// let ft = FiveTuple {
///     src: "10.0.0.1".parse().unwrap(), dst: "10.1.0.1".parse().unwrap(),
///     src_port: 4000, dst_port: 80, proto: Protocol::Tcp,
/// };
/// let mut t: OaTable<FiveTuple, u64> = OaTable::new();
/// assert_eq!(t.insert(ft, 7), None);
/// assert_eq!(t.get(&ft), Some(&7));
/// assert_eq!(t.remove(&ft), Some(7));
/// assert!(t.is_empty());
/// ```
#[derive(Debug)]
pub struct OaTable<K, V> {
    /// Probe array (power-of-two length, or empty before first insert).
    buckets: Vec<Bucket>,
    /// Entry storage; freed cells form an intrusive free list.
    slab: Vec<Slot<K, V>>,
    /// Head of the free list (`EMPTY` when none).
    free_head: u32,
    /// Live entry count.
    len: usize,
    /// Where the last walk stopped (see the type docs).
    finger: Option<Finger<K>>,
}

impl<K: OaKey, V> Default for OaTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: OaKey, V> OaTable<K, V> {
    /// Creates an empty table. No allocation until the first insert.
    pub fn new() -> Self {
        OaTable {
            buckets: Vec::new(),
            slab: Vec::new(),
            free_head: EMPTY,
            len: 0,
            finger: None,
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current bucket-array capacity.
    pub fn capacity(&self) -> usize {
        self.buckets.len()
    }

    /// Heap bytes held by the probe array and the slab (spare capacity
    /// included — this is allocation, not occupancy).
    pub fn allocated_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Bucket>()
            + self.slab.capacity() * std::mem::size_of::<Slot<K, V>>()
    }

    /// Linear-probe walk for `key`: `Ok(cell)` holding its bucket, or
    /// `Err(cell)`, the empty cell ending its probe run. The table never
    /// fills (it grows at 7/8 load), so an empty cell always exists.
    fn walk(&self, key: &Hashed<K>) -> Result<usize, usize> {
        #[cfg(test)]
        {
            WALKS.with(|w| w.set(w.get() + 1));
        }
        if self.buckets.is_empty() {
            return Err(0);
        }
        let mask = self.buckets.len() - 1;
        let mut i = home(key.hash, self.buckets.len());
        loop {
            let b = self.buckets[i];
            if b.slot == EMPTY {
                return Err(i);
            }
            if b.hash == key.hash {
                if let Slot::Occupied(k, _) = &self.slab[b.slot as usize] {
                    if *k == key.key {
                        return Ok(i);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// [`OaTable::walk`], starting from the finger when it is on `key`.
    fn find(&self, key: &Hashed<K>) -> Result<usize, usize> {
        match self.finger {
            Some(f) if f.key == *key => match self.buckets.get(f.cell) {
                Some(b) if b.slot != EMPTY => Ok(f.cell),
                _ => Err(f.cell),
            },
            _ => self.walk(key),
        }
    }

    /// [`OaTable::find`], leaving the finger on `key`.
    fn locate(&mut self, key: &Hashed<K>) -> Result<usize, usize> {
        let found = self.find(key);
        let (Ok(cell) | Err(cell)) = found;
        self.finger = Some(Finger { key: *key, cell });
        found
    }

    fn value_mut(&mut self, cell: usize) -> Option<&mut V> {
        match &mut self.slab[self.buckets[cell].slot as usize] {
            Slot::Occupied(_, v) => Some(v),
            Slot::Vacant(_) => None,
        }
    }

    /// Shared-borrow lookup. Uses the finger but cannot move it.
    pub fn get(&self, key: impl Into<Hashed<K>>) -> Option<&V> {
        let cell = self.find(&key.into()).ok()?;
        match &self.slab[self.buckets[cell].slot as usize] {
            Slot::Occupied(_, v) => Some(v),
            Slot::Vacant(_) => None,
        }
    }

    /// Mutable lookup; leaves the finger on `key`, hit or miss.
    pub fn get_mut(&mut self, key: impl Into<Hashed<K>>) -> Option<&mut V> {
        let cell = self.locate(&key.into()).ok()?;
        self.value_mut(cell)
    }

    /// Inserts `key -> value`, returning the previous value if any. After a
    /// miss on the same key the insert takes the cell that miss stopped at;
    /// it walks again only if it must grow the table first.
    pub fn insert(&mut self, key: impl Into<Hashed<K>>, value: V) -> Option<V> {
        let key = key.into();
        let mut cell = match self.locate(&key) {
            Ok(cell) => return self.value_mut(cell).map(|v| std::mem::replace(v, value)),
            Err(cell) => cell,
        };
        if (self.len + 1) * 8 > self.buckets.len() * 7 {
            self.grow();
            let (Ok(c) | Err(c)) = self.walk(&key);
            cell = c;
        }
        let slot = self.alloc_slot(key.key, value);
        self.buckets[cell] = Bucket {
            hash: key.hash,
            slot,
        };
        self.len += 1;
        self.finger = Some(Finger { key, cell });
        None
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: impl Into<Hashed<K>>) -> Option<V> {
        let cell = self.locate(&key.into()).ok()?;
        let b = backward_shift_remove(&mut self.buckets, cell);
        // The shift may have moved any bucket of the run.
        self.finger = None;
        self.len -= 1;
        self.free_slot(b.slot)
    }

    /// Iterates live entries in slab-slot order (deterministic: a pure
    /// function of the insert/remove history).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slab.iter().filter_map(|s| match s {
            Slot::Occupied(k, v) => Some((k, v)),
            Slot::Vacant(_) => None,
        })
    }

    /// Doubles the probe array and re-places every bucket in one
    /// sequential pass over the old one. Buckets carry their hash, so no
    /// key is rehashed, and slab slots do not move. Runs once per doubling:
    /// amortised O(1) per insert.
    fn grow(&mut self) {
        let cap = (self.buckets.len() * 2).max(MIN_CAP);
        let old = std::mem::replace(&mut self.buckets, vec![VACANT_BUCKET; cap]);
        for b in old.into_iter().filter(|b| b.slot != EMPTY) {
            place(&mut self.buckets, b);
        }
        self.finger = None;
    }

    /// Takes a slab cell from the free list (or grows the slab).
    fn alloc_slot(&mut self, key: K, value: V) -> u32 {
        if self.free_head != EMPTY {
            let s = self.free_head;
            self.free_head = match &self.slab[s as usize] {
                Slot::Vacant(next) => *next,
                Slot::Occupied(..) => EMPTY,
            };
            self.slab[s as usize] = Slot::Occupied(key, value);
            s
        } else {
            debug_assert!(self.slab.len() < EMPTY as usize, "slab slot space exhausted");
            self.slab.push(Slot::Occupied(key, value));
            (self.slab.len() - 1) as u32
        }
    }

    /// Returns a slab cell to the free list, yielding its value. Buckets
    /// only ever name occupied cells.
    fn free_slot(&mut self, slot: u32) -> Option<V> {
        let cell = std::mem::replace(&mut self.slab[slot as usize], Slot::Vacant(self.free_head));
        self.free_head = slot;
        match cell {
            Slot::Occupied(_, v) => Some(v),
            Slot::Vacant(_) => None,
        }
    }
}

/// A value that carries its soft-state clock: the time of the last
/// packet that refreshed it.
pub(crate) trait SoftState {
    fn last_seen(&self) -> SimTime;
}

/// What examining one slot of a [`Slots`] space found.
pub(crate) enum Examined {
    Vacant,
    /// A live entry, refreshed at this time.
    Kept(SimTime),
    /// A stale entry, now removed.
    Reclaimed,
}

/// A slot space a [`Reclaim`] cursor walks: slab slots of an [`OaTable`],
/// or the virtual `set * NEG_WAYS + way` slots of a [`NegativeCache`].
/// Slot spaces never shrink, so a cursor stays in range across removals.
pub(crate) trait Slots {
    fn slot_count(&self) -> usize;
    /// Removes slot `i`'s entry if it is [`expired`] at `now`.
    fn examine(&mut self, i: usize, now: SimTime, ttl: u64) -> Examined;
}

impl<K: OaKey, V: SoftState> Slots for OaTable<K, V> {
    fn slot_count(&self) -> usize {
        self.slab.len()
    }

    fn examine(&mut self, i: usize, now: SimTime, ttl: u64) -> Examined {
        let key = match &self.slab[i] {
            Slot::Occupied(k, v) if expired(v.last_seen(), now, ttl) => *k,
            Slot::Occupied(_, v) => return Examined::Kept(v.last_seen()),
            Slot::Vacant(_) => return Examined::Vacant,
        };
        self.remove(key);
        Examined::Reclaimed
    }
}

/// Slots one insert-driven reclaim step examines. A cycle over `n` slots
/// then takes `n / RECLAIM_STEP` inserts, so a table holds the entries of
/// about `1 + 1 / RECLAIM_STEP` TTL windows of inserts at most.
pub(crate) const RECLAIM_STEP: usize = 4;

/// The persistent cursor of a table's expiry walk. Each positive insert
/// runs one [`Reclaim::step`]; [`Reclaim::settle`] is one full pass.
///
/// `floor` is a lower bound on the `last_seen` of every resident entry: 0
/// at construction, raised at the end of each full cycle to the oldest
/// refresh that cycle kept (or the cycle's start, which bounds every
/// entry inserted behind the cursor). Refreshes only raise `last_seen`,
/// so the bound holds between cycles, and while `now < floor + ttl` no
/// entry can be stale: a step or settle then costs one comparison.
#[derive(Debug, Default)]
pub(crate) struct Reclaim {
    /// Next slot to examine.
    cursor: usize,
    floor: SimTime,
    /// The current cycle's candidate floor.
    low: SimTime,
}

impl Reclaim {
    /// True while the floor proves nothing resident is stale at `now`.
    fn idle(&self, now: SimTime, ttl: u64) -> bool {
        now.0 < self.floor.0.saturating_add(ttl)
    }

    /// Examines up to `budget` slots from the cursor, removing the stale
    /// entries, and returns how many it removed. Unguarded: a budget of
    /// `usize::MAX` visits every slot once.
    pub(crate) fn walk(
        &mut self,
        slots: &mut impl Slots,
        now: SimTime,
        ttl: u64,
        budget: usize,
    ) -> usize {
        let n = slots.slot_count();
        let mut reclaimed = 0;
        for _ in 0..budget.min(n) {
            if self.cursor == 0 {
                self.low = now;
            }
            match slots.examine(self.cursor, now, ttl) {
                Examined::Reclaimed => reclaimed += 1,
                Examined::Kept(seen) => self.low = self.low.min(seen),
                Examined::Vacant => {}
            }
            self.cursor += 1;
            if self.cursor == n {
                self.cursor = 0;
                self.floor = self.low;
            }
        }
        reclaimed
    }

    /// One insert's share of the walk: [`RECLAIM_STEP`] slots, or nothing
    /// (`None`) while no entry can be stale.
    pub(crate) fn step(
        &mut self,
        slots: &mut impl Slots,
        now: SimTime,
        ttl: u64,
    ) -> Option<usize> {
        (!self.idle(now, ttl)).then(|| self.walk(slots, now, ttl, RECLAIM_STEP))
    }

    /// One full cycle from slot 0, so every stale entry goes and the floor
    /// rises past `now - ttl`; `None` while no entry can be stale.
    pub(crate) fn settle(
        &mut self,
        slots: &mut impl Slots,
        now: SimTime,
        ttl: u64,
    ) -> Option<usize> {
        if self.idle(now, ttl) {
            return None;
        }
        self.cursor = 0;
        Some(self.walk(slots, now, ttl, usize::MAX))
    }
}

/// Associativity of the [`NegativeCache`]: entries per set.
pub const NEG_WAYS: usize = 8;

/// Default set count per table (so the default capacity is
/// `DEFAULT_NEG_SETS * NEG_WAYS` negative entries). Far above the
/// negative-entry population any legitimate workload produces per device,
/// so eviction engages only under adversarial fill.
pub const DEFAULT_NEG_SETS: usize = 8192;

/// One resident negative marker.
#[derive(Debug, Clone, Copy)]
struct NegWay {
    key: FiveTuple,
    last_seen: SimTime,
}

/// Capacity-capped set-associative store for negative (`⟨f, null⟩`) flow
/// markers: [`NEG_WAYS`]-way sets, lazily allocated, with deterministic
/// stalest-entry eviction when a set is full.
///
/// The set index is the raw low bits of [`FiveTuple::stable_hash`] — the
/// same function flow sharding uses — which makes per-set state invariant
/// across power-of-two `SDM_SHARDS` (see the module docs). An exhaustion
/// attack therefore costs at most `set_count * NEG_WAYS` resident entries
/// per table, with evictions counted for observability.
#[derive(Debug)]
pub struct NegativeCache {
    /// Lazily sized to `set_count` on first write; untouched sets stay
    /// unallocated (`None`), so memory tracks actual occupancy.
    sets: Vec<Option<Box<[Option<NegWay>; NEG_WAYS]>>>,
    set_count: usize,
    len: usize,
    evicted: u64,
}

impl NegativeCache {
    /// Creates a cache of `set_count` sets (`set_count * NEG_WAYS` total
    /// capacity). No allocation until the first insert.
    ///
    /// # Panics
    ///
    /// Panics unless `set_count` is a power of two (required for the
    /// shard-invariance argument in the module docs).
    pub fn new(set_count: usize) -> Self {
        assert!(
            set_count.is_power_of_two(),
            "negative-cache set count must be a power of two"
        );
        NegativeCache {
            sets: Vec::new(),
            set_count,
            len: 0,
            evicted: 0,
        }
    }

    /// Raw-low-bit set index (deliberately *not* the Fibonacci mix used by
    /// [`OaTable`]; see the module docs on shard invariance).
    fn set_index(&self, key: &FlowKey) -> usize {
        (key.hash as usize) & (self.set_count - 1)
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no negative markers are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hard capacity: `set_count * NEG_WAYS`.
    pub fn capacity(&self) -> usize {
        self.set_count * NEG_WAYS
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.set_count
    }

    /// Live markers displaced by capacity eviction over this cache's
    /// lifetime (a displaced marker that had already expired is not one).
    pub fn evictions(&self) -> u64 {
        self.evicted
    }

    /// Heap bytes held (set directory plus allocated sets).
    pub fn allocated_bytes(&self) -> usize {
        let dir = self.sets.capacity() * std::mem::size_of::<Option<Box<[Option<NegWay>; NEG_WAYS]>>>();
        let boxed = self
            .sets
            .iter()
            .filter(|s| s.is_some())
            .count()
            * std::mem::size_of::<[Option<NegWay>; NEG_WAYS]>();
        dir + boxed
    }

    /// The resident marker's refresh time, to read and refresh in the one
    /// scan of its set.
    pub fn get_mut(&mut self, key: &FlowKey) -> Option<&mut SimTime> {
        let idx = self.set_index(key);
        let set = self.sets.get_mut(idx)?.as_mut()?;
        set.iter_mut()
            .flatten()
            .find(|w| w.key == key.key)
            .map(|w| &mut w.last_seen)
    }

    /// Removes a marker, returning its refresh time if it was resident.
    pub fn remove(&mut self, key: &FlowKey) -> Option<SimTime> {
        let idx = self.set_index(key);
        let set = self.sets.get_mut(idx)?.as_mut()?;
        let way = set.iter_mut().find(|w| matches!(w, Some(x) if x.key == key.key))?;
        let seen = way.take().map(|w| w.last_seen);
        self.len -= 1;
        seen
    }

    /// Inserts (or refreshes) a marker. When the set is full, the stalest
    /// way — minimum `last_seen`, lowest way index on ties — is displaced:
    /// deterministic, and exactly what an attacker's one-packet flows are
    /// (never refreshed, hence stalest first).
    ///
    /// Returns true if the insert ended a marker that had already
    /// expired at `now` under `ttl` — the displaced way, or the key's
    /// own stale marker it refreshed. That is an expiry, not an eviction:
    /// only a live displaced marker counts in [`NegativeCache::evictions`].
    pub fn insert(&mut self, key: &FlowKey, now: SimTime, ttl: u64) -> bool {
        if self.sets.is_empty() {
            self.sets.resize_with(self.set_count, || None);
        }
        let idx = self.set_index(key);
        let ft = key.key;
        let set = self.sets[idx].get_or_insert_with(|| Box::new([None; NEG_WAYS]));
        let mut free_way = None;
        let mut stalest = 0usize;
        let mut stalest_seen = SimTime(u64::MAX);
        for (w, cell) in set.iter_mut().enumerate() {
            match cell {
                Some(x) if x.key == ft => {
                    let stale = expired(x.last_seen, now, ttl);
                    x.last_seen = now;
                    return stale;
                }
                Some(x) => {
                    if x.last_seen < stalest_seen {
                        stalest_seen = x.last_seen;
                        stalest = w;
                    }
                }
                None => {
                    if free_way.is_none() {
                        free_way = Some(w);
                    }
                }
            }
        }
        let marker = Some(NegWay { key: ft, last_seen: now });
        if let Some(w) = free_way {
            set[w] = marker;
            self.len += 1;
            return false;
        }
        set[stalest] = marker;
        let stale = expired(stalest_seen, now, ttl);
        if !stale {
            self.evicted += 1;
        }
        stale
    }
}

/// Virtual slots `set * NEG_WAYS + way`: zero until the first insert, so
/// a never-negative table costs its cursor nothing.
impl Slots for NegativeCache {
    fn slot_count(&self) -> usize {
        self.sets.len() * NEG_WAYS
    }

    fn examine(&mut self, i: usize, now: SimTime, ttl: u64) -> Examined {
        let Some(set) = self.sets[i / NEG_WAYS].as_mut() else {
            return Examined::Vacant;
        };
        let way = &mut set[i % NEG_WAYS];
        match *way {
            Some(w) if expired(w.last_seen, now, ttl) => {
                *way = None;
                self.len -= 1;
                Examined::Reclaimed
            }
            Some(w) => Examined::Kept(w.last_seen),
            None => Examined::Vacant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_netsim::Protocol;
    use sdm_util::FxHashMap;

    /// Key with a controllable hash, to force collision chains.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct K {
        h: u64,
        tag: u32,
    }
    impl OaKey for K {
        fn oa_hash(&self) -> u64 {
            self.h
        }
    }

    fn ft(sp: u16, dp: u16) -> FlowKey {
        FlowKey::new(FiveTuple {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.1.0.1".parse().unwrap(),
            src_port: sp,
            dst_port: dp,
            proto: Protocol::Tcp,
        })
    }

    #[test]
    fn insert_get_remove_replace() {
        let mut t: OaTable<K, u32> = OaTable::new();
        let k = K { h: 42, tag: 0 };
        assert!(t.get(k).is_none());
        assert_eq!(t.insert(k, 1), None);
        assert_eq!(t.get(k), Some(&1));
        assert_eq!(t.insert(k, 2), Some(1), "replace returns old value");
        assert_eq!(t.len(), 1);
        *t.get_mut(k).unwrap() += 10;
        assert_eq!(t.remove(k), Some(12));
        assert_eq!(t.remove(k), None);
        assert!(t.is_empty());
    }

    #[test]
    fn colliding_keys_coexist_and_backward_shift_keeps_chains_reachable() {
        let mut t: OaTable<K, u32> = OaTable::new();
        // Same hash -> same home bucket -> one probe chain.
        let ks: Vec<K> = (0..5).map(|tag| K { h: 7, tag }).collect();
        for (i, k) in ks.iter().enumerate() {
            t.insert(*k, i as u32);
        }
        // Remove from the middle of the chain; the rest must stay findable.
        assert_eq!(t.remove(ks[2]), Some(2));
        for (i, k) in ks.iter().enumerate() {
            if i == 2 {
                assert!(t.get(k).is_none());
            } else {
                assert_eq!(t.get(k), Some(&(i as u32)));
            }
        }
    }

    #[test]
    fn matches_reference_map_through_grows_and_churn() {
        let mut t: OaTable<K, u64> = OaTable::new();
        let mut model: FxHashMap<K, u64> = FxHashMap::default();
        // Deterministic mixed workload crossing several resize thresholds,
        // with enough removals to exercise migration + free-list reuse.
        let mut x: u64 = 0x12345678;
        for step in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = K { h: x % 512, tag: (x >> 32) as u32 % 256 };
            if x % 10 < 7 {
                assert_eq!(t.insert(k, step), model.insert(k, step), "step {step}");
            } else {
                assert_eq!(t.remove(k), model.remove(&k), "step {step}");
            }
            assert_eq!(t.len(), model.len());
        }
        for (k, v) in &model {
            assert_eq!(t.get(k), Some(v));
        }
        assert_eq!(t.iter().count(), model.len());
    }

    #[test]
    fn grow_rebuilds_in_one_pass_and_keeps_every_entry() {
        let mut t: OaTable<K, u32> = OaTable::new();
        for i in 0..100u32 {
            t.insert(K { h: i as u64 * 1031, tag: i }, i);
            // 7/8 load ceiling holds after every insert, grows included
            assert!(t.len() * 8 <= t.capacity() * 7, "len {} cap {}", t.len(), t.capacity());
        }
        assert_eq!(t.capacity(), 128, "100 entries need 128 cells at 7/8 load");
        for i in 0..100u32 {
            assert_eq!(t.get(K { h: i as u64 * 1031, tag: i }), Some(&i));
        }
        // slab order is insertion order: a rebuild moves buckets, not slots
        let order: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_hit_then_get_mut_walks_once_and_a_miss_hands_its_cell_to_insert() {
        let mut t: OaTable<K, u32> = OaTable::new();
        for i in 0..5u32 {
            t.insert(K { h: 7, tag: i }, i); // one collision chain
        }
        let k = K { h: 7, tag: 3 };
        let before = walks();
        assert_eq!(t.get_mut(k).copied(), Some(3));
        *t.get_mut(k).unwrap() += 1;
        assert_eq!(t.get(k), Some(&4));
        assert_eq!(walks() - before, 1, "hit, get_mut, get on one key: one walk");
        // a miss leaves the finger on the empty cell; insert takes it
        let fresh = K { h: 7, tag: 9 };
        let before = walks();
        assert!(t.get_mut(fresh).is_none());
        assert_eq!(t.insert(fresh, 9), None);
        assert_eq!(walks() - before, 1, "miss then insert: one walk");
        // another key in between moves the finger: the insert walks again
        let other = K { h: 7, tag: 10 };
        assert!(t.get_mut(other).is_none());
        assert!(t.get_mut(K { h: 7, tag: 0 }).is_some());
        let before = walks();
        t.insert(other, 10);
        assert_eq!(walks() - before, 1);
        assert_eq!(t.get(other), Some(&10));
        // a remove drops the finger (the shift moves buckets)
        assert_eq!(t.remove(K { h: 7, tag: 1 }), Some(1));
        for i in [0, 2, 3, 4, 9, 10] {
            assert!(t.get(K { h: 7, tag: i }).is_some(), "tag {i} still reachable");
        }
    }

    #[test]
    fn iteration_is_slab_ordered_and_deterministic() {
        let build = || {
            let mut t: OaTable<K, u32> = OaTable::new();
            for i in 0..50u32 {
                t.insert(K { h: (i as u64) * 977, tag: i }, i);
            }
            t.remove(K { h: 10 * 977, tag: 10 });
            t.remove(K { h: 20 * 977, tag: 20 });
            t.insert(K { h: 999_999, tag: 99 }, 99); // reuses freed slot 20
            t
        };
        let a: Vec<(K, u32)> = build().iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<(K, u32)> = build().iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b, "same history -> same slab order");
        // Freed slots are reused LIFO: the later insert sits where tag 20
        // was (collected index 19 — the vacant slot 10 is skipped).
        assert_eq!(a[19].1, 99);
    }

    impl SoftState for u64 {
        fn last_seen(&self) -> SimTime {
            SimTime(*self)
        }
    }

    #[test]
    fn reclaim_walk_removes_exactly_the_stale_slots() {
        // value = last_seen; at now 20 with ttl 10, tags 0..=10 are stale
        let mut t: OaTable<K, u64> = OaTable::new();
        for i in 0..17u64 {
            t.insert(K { h: i * 3, tag: i as u32 }, i);
        }
        let mut r = Reclaim::default();
        let mut dropped = 0;
        for _ in 0..5 {
            dropped += r.walk(&mut t, SimTime(20), 10, 4); // 20 slots > 17
        }
        assert_eq!(dropped, 11);
        assert_eq!(t.len(), 6);
        assert!((11..17).all(|i| t.get(K { h: i * 3, tag: i as u32 }).is_some()));
    }

    #[test]
    fn reclaim_floor_skips_steps_until_something_can_be_stale() {
        let mut t: OaTable<K, u64> = OaTable::new();
        let mut r = Reclaim::default();
        for i in 0..8u64 {
            t.insert(K { h: i, tag: 0 }, 100 + i);
        }
        // floor 0, ttl 50: before tick 50 nothing can be stale
        assert_eq!(r.step(&mut t, SimTime(49), 50), None);
        // a full cycle at 120 keeps everything and raises the floor to 100
        assert_eq!(r.settle(&mut t, SimTime(120), 50), Some(0));
        assert_eq!(r.floor, SimTime(100));
        assert_eq!(r.step(&mut t, SimTime(149), 50), None, "oldest entry alive until 150");
        assert_eq!(r.step(&mut t, SimTime(150), 50), Some(1));
        // settling at 160 drops what is stale then and lifts the floor past 110
        assert_eq!(r.settle(&mut t, SimTime(160), 50), Some(7));
        assert_eq!(t.len(), 0);
        assert_eq!(r.settle(&mut t, SimTime(160), 50), None, "a second settle is free");
    }

    #[test]
    fn allocated_bytes_tracks_capacity() {
        let mut t: OaTable<K, u64> = OaTable::new();
        assert_eq!(t.allocated_bytes(), 0);
        for i in 0..1000u64 {
            t.insert(K { h: i.wrapping_mul(0x9E3779B9), tag: i as u32 }, i);
        }
        let bytes = t.allocated_bytes();
        assert!(bytes > 0);
        // Sanity bound: well under 200 bytes/entry for a u64 payload.
        assert!(bytes < 1000 * 200, "{bytes} bytes for 1000 entries");
    }

    #[test]
    fn negative_cache_caps_and_evicts_stalest() {
        let mut c = NegativeCache::new(1); // one 8-way set: everything collides
        for i in 0..NEG_WAYS as u16 {
            c.insert(&ft(i + 1, 80), SimTime(i as u64), 1000);
        }
        assert_eq!(c.len(), NEG_WAYS);
        assert_eq!(c.evictions(), 0);
        // Refresh the stalest so the *second*-stalest is evicted next.
        *c.get_mut(&ft(1, 80)).unwrap() = SimTime(100);
        assert!(!c.insert(&ft(200, 80), SimTime(101), 1000), "a live way is evicted");
        assert_eq!(c.len(), NEG_WAYS, "capacity is a hard cap");
        assert_eq!(c.evictions(), 1);
        assert!(c.get_mut(&ft(2, 80)).is_none(), "stalest way evicted");
        assert!(c.get_mut(&ft(1, 80)).is_some(), "refreshed way survives");
        assert!(c.get_mut(&ft(200, 80)).is_some());
    }

    #[test]
    fn a_stale_displacement_is_an_expiry_not_an_eviction() {
        let mut c = NegativeCache::new(1);
        for i in 0..NEG_WAYS as u16 {
            c.insert(&ft(i + 1, 80), SimTime(i as u64), 10);
        }
        // at tick 10 only way 0 (refreshed at 0) is stale: it goes first
        assert!(c.insert(&ft(100, 80), SimTime(10), 10), "stale way displaced");
        assert_eq!(c.evictions(), 0);
        assert!(c.get_mut(&ft(1, 80)).is_none());
        // the stalest is now live: displacing it is an eviction
        assert!(!c.insert(&ft(101, 80), SimTime(10), 10));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), NEG_WAYS);
    }

    #[test]
    fn negative_cache_insert_refreshes_existing() {
        let mut c = NegativeCache::new(4);
        assert!(!c.insert(&ft(1, 80), SimTime(0), 100));
        assert!(!c.insert(&ft(1, 80), SimTime(50), 100), "refreshing a live marker");
        assert!(c.insert(&ft(1, 80), SimTime(150), 100), "refreshing a stale one ends it");
        assert_eq!(c.len(), 1);
        assert_eq!(c.get_mut(&ft(1, 80)).copied(), Some(SimTime(150)));
    }

    #[test]
    fn negative_cache_remove() {
        let mut c = NegativeCache::new(16);
        for i in 0..10u16 {
            c.insert(&ft(i + 1, 80), SimTime(i as u64), 100);
        }
        assert_eq!(c.remove(&ft(1, 80)), Some(SimTime(0)));
        assert_eq!(c.remove(&ft(1, 80)), None);
        assert_eq!(c.len(), 9);
    }

    #[test]
    fn negative_cache_is_lazy() {
        let c = NegativeCache::new(DEFAULT_NEG_SETS);
        assert_eq!(c.allocated_bytes(), 0);
        assert_eq!(c.slot_count(), 0, "no virtual slots before first insert");
        let mut c = c;
        c.insert(&ft(1, 80), SimTime(0), 100);
        assert_eq!(c.slot_count(), DEFAULT_NEG_SETS * NEG_WAYS);
        // One boxed set plus the directory; far below full allocation.
        assert!(c.allocated_bytes() < DEFAULT_NEG_SETS * 64);
    }

    #[test]
    fn negative_cache_set_index_uses_raw_low_bits() {
        // The shard-invariance argument requires set == stable_hash % sets.
        let c = NegativeCache::new(64);
        let f = ft(123, 456);
        assert_eq!(c.set_index(&f), (f.key().stable_hash() as usize) & 63);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn negative_cache_rejects_non_pow2() {
        let _ = NegativeCache::new(12);
    }

    #[test]
    fn negative_cache_shard_partition_invariance() {
        // Splitting the same flow sequence across N=4 "shard" caches (by
        // stable_hash % 4) must reproduce the single-cache per-flow state
        // and total evictions, because 4 divides the set count.
        let flows: Vec<FlowKey> = (0..2000u32)
            .map(|i| ft((i % 500 + 1) as u16, (i / 500 + 1) as u16))
            .collect();
        let mut single = NegativeCache::new(8);
        let mut sharded: Vec<NegativeCache> = (0..4).map(|_| NegativeCache::new(8)).collect();
        for (i, f) in flows.iter().enumerate() {
            let now = SimTime(i as u64);
            single.insert(f, now, 1_000_000);
            sharded[(f.key().stable_hash() % 4) as usize].insert(f, now, 1_000_000);
        }
        assert_eq!(
            single.len(),
            sharded.iter().map(|c| c.len()).sum::<usize>()
        );
        assert_eq!(
            single.evictions(),
            sharded.iter().map(|c| c.evictions()).sum::<u64>()
        );
        for f in &flows {
            let shard = &mut sharded[(f.key().stable_hash() % 4) as usize];
            assert_eq!(single.get_mut(f).copied(), shard.get_mut(f).copied());
        }
    }
}
