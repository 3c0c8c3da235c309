//! The middlebox label table of §III.E: `⟨src | l, a⟩` entries (the last
//! middlebox in a chain also stores the flow's final destination `dst`),
//! keyed by the concatenation of the flow's source address and the
//! proxy-assigned label.
//!
//! The storage is the open-addressed [`OaTable`] shared with the flow
//! cache (slab-backed, whole rebuild on grow, backward-shift deletion) —
//! see [`crate::oa_table`]. Operations take a [`Hashed`] key, so a
//! middlebox hashes a label key once per same-key stretch, and a lookup,
//! hit or expired, is one probe. Stale entries are reclaimed on the
//! insert path, by the same [`Reclaim`] walk the flow cache uses.

use std::fmt;

use sdm_netsim::{Ipv4Addr, Label, SimTime};

use crate::action::ActionList;
use crate::oa_table::{expired, Hashed, OaKey, OaTable, Reclaim, SoftState};
use crate::policy::PolicyId;

/// The lookup key `src | l`: source address concatenated with label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelKey {
    /// The flow's (inner) source address.
    pub src: Ipv4Addr,
    /// The proxy-assigned label carried in the packet header.
    pub label: Label,
}

impl fmt::Display for LabelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}|{}", self.src, self.label)
    }
}

impl OaKey for LabelKey {
    /// Stable FNV-1a over the 6 key bytes (`src` then `label`, big-endian)
    /// — the same construction as [`sdm_netsim::FiveTuple::stable_hash`].
    fn oa_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        };
        for b in self.src.0.to_be_bytes() {
            eat(b);
        }
        for b in self.label.0.to_be_bytes() {
            eat(b);
        }
        h
    }
}

/// One label-table entry at a middlebox.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelEntry {
    /// The action list retrieved from the policy table when the first
    /// packet passed through.
    pub actions: ActionList,
    /// Which policy produced the action list.
    pub policy: PolicyId,
    /// Position of *this* middlebox's function within `actions`.
    pub position: usize,
    /// Address of the next middlebox chosen for this flow (pinned when the
    /// first packet passed through, so label-switched packets follow the
    /// same path), or `None` at the last middlebox.
    pub next_hop: Option<Ipv4Addr>,
    /// The flow's original destination — stored only by the last middlebox
    /// in the chain (`⟨src | l, a, dst⟩`).
    pub final_dst: Option<Ipv4Addr>,
    last_seen: SimTime,
}

impl SoftState for LabelEntry {
    fn last_seen(&self) -> SimTime {
        self.last_seen
    }
}

/// Soft-state label table (§III.E), one per middlebox.
///
/// Expiry boundary, the same as [`crate::FlowTable`]'s: an entry last
/// refreshed at time `t` is alive for lookups at `t .. t + ttl - 1` and
/// expired from `t + ttl` on — it lives for exactly `ttl` ticks.
///
/// Every [`LabelTable::insert`] first runs one reclaim step over the slab
/// (free while nothing can be stale); [`LabelTable::settle`] is one full
/// pass. A label entry that is never looked up again is reclaimed all
/// the same. The label itself is not returned to the proxy's allocator.
///
/// # Example
///
/// ```
/// use sdm_policy::{LabelTable, LabelKey, ActionList, NetworkFunction, PolicyId};
/// use sdm_netsim::{Label, SimTime};
///
/// let mut t = LabelTable::new(1000);
/// let key = LabelKey { src: "10.0.0.1".parse().unwrap(), label: Label(1) };
/// t.insert(key, ActionList::chain([NetworkFunction::Firewall]), PolicyId(0),
///          0, Some("172.16.0.2".parse().unwrap()), None, SimTime(0));
/// assert!(t.lookup(&key, SimTime(10)).is_some());
/// ```
#[derive(Debug)]
pub struct LabelTable {
    entries: OaTable<LabelKey, LabelEntry>,
    ttl: u64,
    reclaim: Reclaim,
    /// Entries reclaimed after their TTL, each counted once.
    expired: u64,
}

impl LabelTable {
    /// Creates an empty table with soft-state lifetime `ttl` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `ttl == 0`.
    pub fn new(ttl: u64) -> Self {
        assert!(ttl > 0, "label-table ttl must be positive");
        LabelTable {
            entries: OaTable::new(),
            ttl,
            reclaim: Reclaim::default(),
            expired: 0,
        }
    }

    /// Installs an entry for `key`, after one reclaim step. Replaces any
    /// previous entry (a stale one counts as expired).
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        key: impl Into<Hashed<LabelKey>>,
        actions: ActionList,
        policy: PolicyId,
        position: usize,
        next_hop: Option<Ipv4Addr>,
        final_dst: Option<Ipv4Addr>,
        now: SimTime,
    ) {
        let ttl = self.ttl;
        if let Some(n) = self.reclaim.step(&mut self.entries, now, ttl) {
            self.expired += n as u64;
        }
        let replaced = self.entries.insert(
            key,
            LabelEntry {
                actions,
                policy,
                position,
                next_hop,
                final_dst,
                last_seen: now,
            },
        );
        if let Some(old) = replaced {
            self.expired += u64::from(expired(old.last_seen, now, ttl));
        }
    }

    /// Looks up a label key, refreshing its soft state; expired entries are
    /// removed and report as misses. One probe: the removal or the
    /// refresh starts from the cell the first probe found.
    pub fn lookup(
        &mut self,
        key: impl Into<Hashed<LabelKey>>,
        now: SimTime,
    ) -> Option<&LabelEntry> {
        let key = key.into();
        if expired(self.entries.get_mut(key)?.last_seen, now, self.ttl) {
            self.entries.remove(key);
            self.expired += 1;
            return None;
        }
        let e = self.entries.get_mut(key)?;
        e.last_seen = now;
        Some(e)
    }

    /// Reclaims every entry stale at `now` in one full pass (skipped while
    /// nothing can be stale), so [`LabelTable::len`] is then exactly the
    /// entries alive at `now`. Returns how many it dropped.
    pub fn settle(&mut self, now: SimTime) -> usize {
        let dropped = self.reclaim.settle(&mut self.entries, now, self.ttl).unwrap_or(0);
        self.expired += dropped as u64;
        dropped
    }

    /// Entries reclaimed after their TTL over this table's lifetime: by a
    /// lookup, a reclaim step, a settle or a replacing insert.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Resident entries: every entry alive at the last instant, plus
    /// stale ones not yet reclaimed (none right after a settle).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Heap bytes held by the table (probe arrays + slab; allocation, not
    /// occupancy).
    pub fn allocated_bytes(&self) -> usize {
        self.entries.allocated_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::NetworkFunction::*;

    fn key(label: u16) -> LabelKey {
        LabelKey {
            src: "10.0.0.1".parse().unwrap(),
            label: Label(label),
        }
    }

    #[test]
    fn insert_then_lookup() {
        let mut t = LabelTable::new(100);
        t.insert(
            key(1),
            ActionList::chain([Firewall, Ids]),
            PolicyId(2),
            0,
            Some("172.16.0.5".parse().unwrap()),
            None,
            SimTime(0),
        );
        let e = t.lookup(key(1), SimTime(5)).unwrap();
        assert_eq!(e.policy, PolicyId(2));
        assert_eq!(e.position, 0);
        assert_eq!(e.next_hop, Some("172.16.0.5".parse().unwrap()));
        assert_eq!(e.final_dst, None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn last_hop_entry_stores_dst() {
        let mut t = LabelTable::new(100);
        t.insert(
            key(2),
            ActionList::chain([Ids]),
            PolicyId(0),
            0,
            None,
            Some("10.5.0.9".parse().unwrap()),
            SimTime(0),
        );
        let e = t.lookup(key(2), SimTime(1)).unwrap();
        assert_eq!(e.final_dst, Some("10.5.0.9".parse().unwrap()));
        assert!(e.next_hop.is_none());
    }

    #[test]
    fn distinct_sources_do_not_collide() {
        let mut t = LabelTable::new(100);
        let k1 = LabelKey {
            src: "10.0.0.1".parse().unwrap(),
            label: Label(7),
        };
        let k2 = LabelKey {
            src: "10.0.0.2".parse().unwrap(),
            label: Label(7),
        };
        t.insert(k1, ActionList::permit(), PolicyId(0), 0, None, None, SimTime(0));
        assert!(t.lookup(k2, SimTime(0)).is_none());
        assert!(t.lookup(k1, SimTime(0)).is_some());
    }

    #[test]
    fn soft_state_expiry() {
        let mut t = LabelTable::new(10);
        t.insert(key(3), ActionList::permit(), PolicyId(0), 0, None, None, SimTime(0));
        assert!(t.lookup(key(3), SimTime(9)).is_some()); // refreshes
        assert!(t.lookup(key(3), SimTime(18)).is_some());
        assert!(t.lookup(key(3), SimTime(40)).is_none()); // expired
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn expiry_boundary_exact_ttl() {
        // alive at age ttl-1, expired at exactly ttl — FlowTable's rule
        let mut t = LabelTable::new(100);
        t.insert(key(1), ActionList::permit(), PolicyId(0), 0, None, None, SimTime(0));
        assert!(t.lookup(key(1), SimTime(99)).is_some(), "age ttl-1 alive");
        t.insert(key(2), ActionList::permit(), PolicyId(0), 0, None, None, SimTime(99));
        assert!(t.lookup(key(2), SimTime(199)).is_none(), "age ttl expired");
        assert_eq!(t.len(), 1, "the expired entry is removed");
        t.insert(key(3), ActionList::permit(), PolicyId(0), 0, None, None, SimTime(199));
        assert!(t.lookup(key(3), SimTime(300)).is_none(), "age ttl+1 expired");
    }

    #[test]
    fn a_hit_is_one_probe() {
        let mut t = LabelTable::new(100);
        for l in 0..50u16 {
            t.insert(key(l), ActionList::permit(), PolicyId(0), 0, None, None, SimTime(0));
        }
        let hashed = Hashed::new(key(17));
        let before = crate::oa_table::walks();
        assert!(t.lookup(hashed, SimTime(5)).is_some());
        assert_eq!(crate::oa_table::walks() - before, 1, "hit: one walk");
        let before = crate::oa_table::walks();
        assert!(t.lookup(key(18), SimTime(500)).is_none());
        assert_eq!(crate::oa_table::walks() - before, 1, "expired and removed: one walk");
        assert_eq!(t.len(), 49);
    }

    #[test]
    fn many_labels_survive_growth() {
        // cross several resize thresholds and keep every entry reachable
        let mut t = LabelTable::new(1_000_000);
        for l in 0..2000u16 {
            t.insert(key(l), ActionList::permit(), PolicyId(0), 0, None, None, SimTime(0));
        }
        assert_eq!(t.len(), 2000);
        for l in 0..2000u16 {
            assert!(t.lookup(key(l), SimTime(1)).is_some(), "label {l}");
        }
    }

    #[test]
    fn inserts_reclaim_entries_nobody_looks_up() {
        // one insert per tick, ttl 10: a table without reclaim would hold
        // all 1000; the insert steps keep it near one TTL window
        let mut t = LabelTable::new(10);
        for l in 0..1000u16 {
            t.insert(key(l), ActionList::permit(), PolicyId(0), 0, None, None, SimTime(l as u64));
            assert!(t.len() <= 20, "len {} at insert {l}", t.len());
        }
        assert_eq!(t.len() as u64 + t.expired(), 1000, "every entry resident or expired");
        // settling at the last instant leaves exactly the live window
        t.settle(SimTime(999));
        assert_eq!(t.len(), 10);
        assert_eq!(t.expired(), 990);
        assert!(t.lookup(key(990), SimTime(999)).is_some());
        assert!(t.lookup(key(989), SimTime(999)).is_none());
    }

    #[test]
    #[should_panic(expected = "ttl")]
    fn zero_ttl_rejected() {
        let _ = LabelTable::new(0);
    }
}
