//! Index-based packet storage for the simulation hot path.
//!
//! Every in-flight [`Packet`] lives in one [`PacketArena`] slot and is
//! referred to by a copyable [`PacketId`]. The event queue, the router
//! forwarding path and the device API move these 4-byte ids instead of
//! ~150-byte packet structs, so scheduling a hop never memcpys a packet
//! and never touches its heap allocations (tunnel stack, source route).
//! Freed slots go on a free list and are reused in LIFO order, keeping the
//! arena's footprint at the peak number of simultaneously in-flight
//! packets rather than the total injected.
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

use crate::packet::Packet;

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
    pub fn get(&self, id: PacketId) -> &Packet {
        self.slots[id.index()].as_ref().expect("stale PacketId")
    }

    /// Mutable access to the packet behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was freed or never allocated.
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        self.slots[id.index()].as_mut().expect("stale PacketId")
    }

    /// Removes the packet behind `id`, returning it and recycling the slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` was freed or never allocated.
    pub fn free(&mut self, id: PacketId) -> Packet {
        let pkt = self.slots[id.index()].take().expect("stale PacketId");
        self.free.push(id.0);
        pkt
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
    use crate::packet::{FiveTuple, Protocol};

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
    #[should_panic(expected = "stale PacketId")]
    fn stale_id_detected() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        a.free(id);
        let _ = a.get(id);
    }
}
