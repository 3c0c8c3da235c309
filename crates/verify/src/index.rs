//! The two lookups both verifier tiers share: stub subnets searched by
//! address overlap, and lists searched by key with first-match
//! semantics. Each answers exactly what a linear scan over its input
//! would, by bisection, so neither the plan verifier nor the reach
//! checker grows with the square of the stub or steer-point count.

use sdm_netsim::{Ipv4Addr, Prefix};

/// The stub subnets that share an address with a query prefix, found
/// without visiting the rest.
///
/// The structure is the subnet list sorted by `(base address, length)`
/// and searched by bisection, not a binary trie: two prefixes overlap
/// only when one contains the other, so the answer for `q` is the
/// contiguous run of entries based inside `q` (its descendants, `q`
/// itself and any ancestor sharing its base) plus at most one exact-key
/// run per shorter length present in the list (the ancestors based below
/// `q`). That is exact for *any* list — nested, duplicated, unsorted,
/// `/0` and `/32` included — because nothing is assumed about it, and it
/// builds in one sort of a list that is already sorted in practice.
pub(crate) struct StubIndex {
    /// `(base address, length, stub index)`, ascending.
    sorted: Vec<(u32, u8, u32)>,
    /// Bit `l` is set when some subnet has length `l`.
    lens: u64,
}

impl StubIndex {
    pub(crate) fn new(subnets: &[Prefix]) -> StubIndex {
        let mut sorted: Vec<(u32, u8, u32)> = subnets
            .iter()
            .enumerate()
            .map(|(s, p)| (p.addr().0, p.len(), s as u32))
            .collect();
        sorted.sort_unstable();
        let lens = subnets.iter().fold(0u64, |m, p| m | 1 << p.len());
        StubIndex { sorted, lens }
    }

    /// The stub indices whose subnet overlaps `q`, ascending, into `out`
    /// (cleared first) — the only iterations of a loop over every stub
    /// that are not no-ops.
    pub(crate) fn overlapping(&self, q: Prefix, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.based_inside(q).iter().map(|e| e.2));
        out.extend(self.based_below(q).map(|e| e.2));
        out.sort_unstable();
    }

    /// The entries based inside `q`: its descendants, `q` itself and any
    /// ancestor sharing its base, in `(base, length)` order.
    fn based_inside(&self, q: Prefix) -> &[(u32, u8, u32)] {
        let first = q.addr().0;
        let last = first | u32::MAX.checked_shr(q.len() as u32).unwrap_or(0);
        let from = self.sorted.partition_point(|e| e.0 < first);
        let to = from + self.sorted[from..].partition_point(|e| e.0 <= last);
        &self.sorted[from..to]
    }

    /// The entries that contain `q` and are based below it: one exact-key
    /// run per shorter length present.
    fn based_below(&self, q: Prefix) -> impl Iterator<Item = &(u32, u8, u32)> + '_ {
        (0..q.len())
            .filter(move |l| self.lens >> l & 1 == 1)
            .map(move |len| (Prefix::new(q.addr(), len).addr().0, len))
            .filter(move |&(base, _)| base != q.addr().0) // else based inside q
            .flat_map(move |key| {
                let from = self.sorted.partition_point(|e| (e.0, e.1) < key);
                self.sorted[from..].iter().take_while(move |e| (e.0, e.1) == key)
            })
    }

    /// Hands `emit` what is left of `q` once every subnet is taken out, as
    /// the largest aligned prefixes, in ascending address order.
    ///
    /// Taking the overlapping subnets out one at a time by sibling peeling
    /// gives this same list whatever the order: each piece peeling keeps
    /// is a largest prefix inside what is left (its parent meets a
    /// subnet), the largest prefixes inside a set are unique, and pieces
    /// replace their parent in place, so the list stays in address order.
    /// Here it comes from one sweep over the subnets based inside `q`,
    /// not from re-collecting the remainder once per subnet.
    pub(crate) fn uncovered(&self, q: Prefix, mut emit: impl FnMut(Prefix)) {
        if self.based_below(q).next().is_some() {
            return; // a subnet contains q
        }
        let first = u64::from(q.addr().0);
        let end = first + (1u64 << (32 - q.len()));
        // Everything below `next` is covered or already emitted.
        let mut next = first;
        for &(base, len, _) in self.based_inside(q) {
            let base = u64::from(base);
            if base > next {
                emit_range(next, base, &mut emit);
            }
            next = next.max(base + (1u64 << (32 - len)));
        }
        if next < end {
            emit_range(next, end, &mut emit);
        }
    }
}

/// Hands `emit` the largest aligned prefixes that tile the addresses
/// `[lo, end)`, ascending.
fn emit_range(mut lo: u64, end: u64, emit: &mut impl FnMut(Prefix)) {
    while lo < end {
        let aligned = lo.trailing_zeros().min(32);
        let fits = 63 - (end - lo).leading_zeros();
        let host_bits = aligned.min(fits);
        emit(Prefix::new(Ipv4Addr(lo as u32), (32 - host_bits) as u8));
        lo += 1u64 << host_bits;
    }
}

/// A list searched by key, answering what a linear `find` over the list
/// would: entries are *stably* sorted, so of several entries under one
/// key the earliest in the list is the one returned.
pub(crate) struct FirstByKey<K, V>(Vec<(K, V)>);

impl<K: Ord + Copy, V: Copy> FirstByKey<K, V> {
    pub(crate) fn new(entries: impl Iterator<Item = (K, V)>) -> Self {
        let mut sorted: Vec<(K, V)> = entries.collect();
        sorted.sort_by_key(|e| e.0);
        FirstByKey(sorted)
    }

    pub(crate) fn get(&self, key: K) -> Option<V> {
        let at = self.0.partition_point(|e| e.0 < key);
        self.0.get(at).filter(|e| e.0 == key).map(|e| e.1)
    }
}
