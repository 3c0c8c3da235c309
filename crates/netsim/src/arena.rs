//! Index-based packet storage for the simulation hot path.
//!
//! Every in-flight [`Packet`] lives in one [`PacketArena`] slot and is
//! referred to by a copyable [`PacketId`]. The event queue, the router
//! forwarding path and the device API move these 4-byte ids instead of
//! 64-byte packet records, so scheduling a hop never copies a packet.
//! Freed slots go on a free list and are reused in LIFO order, keeping the
//! arena's footprint at the peak number of simultaneously in-flight
//! packets rather than the total injected.
//!
//! A packet owns no heap. The one per-packet state that does not fit its
//! fixed header — the pending segments of a strict source route — lives in
//! a side table here, keyed by slot and freed with it, so only
//! `SourceRouting` runs ever fill it.
//!
//! The arena also counts total allocations ([`PacketArena::allocations`]):
//! the engine's no-deep-clone guarantee is tested by asserting exactly one
//! allocation per injected packet on the plain forwarding path.
//!
//! Handle invariant: a [`PacketId`] is valid from allocation until the
//! packet is delivered or dropped, at which point the slot may be reused
//! and the id must not be dereferenced again. Ids are meaningful only
//! within their own simulator — slot numbering depends on allocation
//! order, which is why nothing observable (stats, traces, table state)
//! may key off raw id values: the length of a device run changes which
//! slots get reused without changing any output.

use sdm_util::FxHashMap;

use crate::addr::Ipv4Addr;
use crate::packet::{FiveTuple, HeaderFull, Packet};

/// Handle to a packet stored in a [`PacketArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(pub(crate) u32);

impl PacketId {
    /// Dense slot index of this packet.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Slab of in-flight packets with a free list.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
    allocations: u64,
    /// Pending source-route segments of the packets that carry a route,
    /// by slot, next segment last; `route_left` on the packet mirrors the
    /// length for [`Packet::wire_len`].
    routes: FxHashMap<u32, Vec<Ipv4Addr>>,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Stores `pkt`, returning its id. Reuses a freed slot when available.
    pub fn alloc(&mut self, pkt: Packet) -> PacketId {
        self.allocations += 1;
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none(), "free-list slot occupied");
                self.slots[i as usize] = Some(pkt);
                PacketId(i)
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Some(pkt));
                PacketId(i)
            }
        }
    }

    /// The packet behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was freed or never allocated.
    #[expect(
        clippy::expect_used,
        reason = "a stale PacketId is an engine bug, documented under # Panics"
    )]
    pub fn get(&self, id: PacketId) -> &Packet {
        self.slots[id.index()].as_ref().expect("stale PacketId")
    }

    /// Mutable access to the packet behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was freed or never allocated.
    #[expect(
        clippy::expect_used,
        reason = "a stale PacketId is an engine bug, documented under # Panics"
    )]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        self.slots[id.index()].as_mut().expect("stale PacketId")
    }

    /// Removes the packet behind `id`, returning it and recycling the slot.
    /// A pending source route is freed with the slot, so the returned
    /// packet no longer carries one.
    ///
    /// # Panics
    ///
    /// Panics if `id` was freed or never allocated.
    #[expect(
        clippy::expect_used,
        reason = "a stale PacketId is an engine bug, documented under # Panics"
    )]
    pub fn free(&mut self, id: PacketId) -> Packet {
        let mut pkt = self.slots[id.index()].take().expect("stale PacketId");
        if pkt.has_source_route() {
            self.routes.remove(&id.0);
            pkt.route_left = 0;
        }
        self.free.push(id.0);
        pkt
    }

    /// The flow `id` belongs to: its [`Packet::original`], or for an
    /// emulated fragment, that of the packet it was split from (parked in
    /// this arena until reassembly).
    ///
    /// # Panics
    ///
    /// Panics if `id` (or a fragment's parent) was freed or never
    /// allocated.
    pub fn original(&self, id: PacketId) -> FiveTuple {
        let p = self.get(id);
        match p.frag {
            Some(f) => self.get(f.parent).original(),
            None => p.original(),
        }
    }

    /// Installs a strict source route on the packet behind `id`: it will
    /// visit each segment in order, the last being the true destination.
    /// The inner destination becomes the first segment; the rest are held
    /// here, beside the slot, until advanced or freed. A route with more
    /// than `u16::MAX` pending segments is refused and the packet left
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or `id` is stale.
    #[must_use = "a refused route leaves the packet unsteered; drop and count it"]
    pub fn set_source_route(
        &mut self,
        id: PacketId,
        mut segments: Vec<Ipv4Addr>,
    ) -> Result<(), HeaderFull> {
        segments.reverse();
        let Some(first) = segments.pop() else {
            panic!("a source route needs at least one segment");
        };
        let left = u16::try_from(segments.len()).map_err(|_| HeaderFull)?;
        let p = self.get_mut(id);
        p.inner.dst = first;
        p.route_left = left;
        if left == 0 {
            self.routes.remove(&id.0);
        } else {
            self.routes.insert(id.0, segments);
        }
        Ok(())
    }

    /// Advances the source route of the packet behind `id`: rewrites its
    /// destination to the next pending segment and drops that segment.
    /// Returns false when no segments remain.
    pub fn advance_source_route(&mut self, id: PacketId) -> bool {
        let Some(route) = self.routes.get_mut(&id.0) else {
            return false;
        };
        let Some(next) = route.pop() else {
            return false;
        };
        if route.is_empty() {
            self.routes.remove(&id.0);
        }
        let p = self.get_mut(id);
        p.inner.dst = next;
        p.route_left -= 1;
        true
    }

    /// Packets holding a pending source route — side-table entries, each
    /// freed with its packet's slot.
    pub fn routes_in_use(&self) -> usize {
        self.routes.len()
    }

    /// Packets currently stored.
    pub fn in_use(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The most packets ever stored at once. A slot is only added when
    /// every existing one is occupied, so this is the number of slots —
    /// the simulator's packet working set.
    pub fn high_water(&self) -> usize {
        self.slots.len()
    }

    /// Total `alloc` calls over the arena's lifetime (never decreases).
    pub fn allocations(&self) -> u64 {
        self.allocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FragInfo, Protocol, SEGMENT_LEN};

    fn pkt(port: u16) -> Packet {
        Packet::data(
            FiveTuple {
                src: "10.0.0.1".parse().unwrap(),
                dst: "10.1.0.1".parse().unwrap(),
                src_port: port,
                dst_port: 80,
                proto: Protocol::Tcp,
            },
            100,
        )
    }

    #[test]
    fn alloc_get_free_roundtrip() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        assert_eq!(a.get(id).src_port, 1);
        a.get_mut(id).payload_len = 7;
        assert_eq!(a.get(id).payload_len, 7);
        assert_eq!(a.in_use(), 1);
        let p = a.free(id);
        assert_eq!(p.payload_len, 7);
        assert_eq!(a.in_use(), 0);
    }

    #[test]
    fn slots_are_reused_and_allocations_counted() {
        let mut a = PacketArena::new();
        let id1 = a.alloc(pkt(1));
        a.free(id1);
        let id2 = a.alloc(pkt(2));
        assert_eq!(id1.index(), id2.index(), "freed slot must be reused");
        let _id3 = a.alloc(pkt(3));
        assert_eq!(a.allocations(), 3);
        assert_eq!(a.in_use(), 2);
        assert_eq!(a.high_water(), 2, "three allocations, never more than two at once");
    }

    #[test]
    fn source_route_advances_and_costs_header_bytes() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        let base = a.get(id).wire_len();
        let final_dst = a.get(id).inner.dst;
        a.set_source_route(id, vec![Ipv4Addr(10), Ipv4Addr(20), final_dst])
            .unwrap();
        // first segment becomes the routed destination, two remain in-header
        assert_eq!(a.get(id).current_dst(), Ipv4Addr(10));
        assert_eq!(a.get(id).wire_len(), base + 2 * SEGMENT_LEN);
        assert!(a.get(id).has_source_route());
        assert_eq!(a.routes_in_use(), 1);
        assert!(a.advance_source_route(id));
        assert_eq!(a.get(id).current_dst(), Ipv4Addr(20));
        assert_eq!(a.get(id).wire_len(), base + SEGMENT_LEN);
        assert!(a.advance_source_route(id));
        assert_eq!(a.get(id).current_dst(), final_dst);
        assert_eq!(a.get(id).wire_len(), base);
        assert_eq!(a.routes_in_use(), 0, "an exhausted route frees its entry");
        assert!(!a.advance_source_route(id));
        assert!(!a.get(id).has_source_route());
    }

    #[test]
    fn source_route_is_freed_with_its_slot() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        a.set_source_route(id, vec![Ipv4Addr(10), Ipv4Addr(20)])
            .unwrap();
        let p = a.free(id);
        assert!(!p.has_source_route());
        assert_eq!(a.routes_in_use(), 0);
        // the slot's next tenant starts without a route
        let id2 = a.alloc(pkt(2));
        assert_eq!(id2, id);
        assert!(!a.advance_source_route(id2));
    }

    #[test]
    fn overlong_source_route_is_refused() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        let segments = vec![Ipv4Addr(10); usize::from(u16::MAX) + 2];
        assert_eq!(a.set_source_route(id, segments), Err(HeaderFull));
        assert_eq!(*a.get(id), pkt(1));
        assert_eq!(a.routes_in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_source_route_rejected() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        let _ = a.set_source_route(id, Vec::new());
    }

    #[test]
    fn fragments_resolve_their_flow_through_the_parent() {
        let mut a = PacketArena::new();
        let mut whole = pkt(1);
        whole.encapsulate(Ipv4Addr(1), Ipv4Addr(2)).unwrap();
        let parent = a.alloc(whole);
        let frag = a.alloc(a.get(parent).fragment_of(FragInfo { parent }, 10));
        assert_eq!(a.get(frag).current_dst(), Ipv4Addr(2));
        assert_ne!(a.get(frag).original(), pkt(1).original(), "a tunnel header");
        assert_eq!(a.original(frag), pkt(1).original());
        assert_eq!(a.original(parent), pkt(1).original());
    }

    #[test]
    #[should_panic(expected = "stale PacketId")]
    fn stale_id_detected() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        a.free(id);
        let _ = a.get(id);
    }
}
