//! The injection schedule: what has been registered with the simulator
//! but not yet handed to the event loop.
//!
//! A registered injection is a *schedule entry*, not a queued event. The
//! event loop asks the schedule for the entries due at the tick it is
//! about to process and gets them in registration order, ahead of whatever
//! the run itself queued for that tick — the position a pre-pushed event
//! would hold in the tick's bucket, since every registration precedes
//! every run-time push and a bucket is FIFO. Holding the entries here
//! instead keeps the queue, the far-future heap and the packet arena at
//! the size of the traffic *in flight*: a stream of `n` packets is one
//! entry, and each of its packets is built and allocated at the tick it
//! enters the network.
//!
//! Shape: registrations sit in one vector in registration order and never
//! move, so an entry's index is its registration index. A cursor walks the
//! entries by first-due tick — along the vector itself when registrations
//! came in non-decreasing tick order, else along a stable-sorted
//! permutation built once per run. A stream with a gap moves, after its
//! first packet, to a min-heap keyed `(next tick, registration index)`
//! whose size is the number of streams running at once; a stream without
//! a gap is emitted in place. At a tick the cursor head and the heap head
//! are merged by registration index.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use sdm_topology::NodeId;

use crate::arena::{PacketArena, PacketId};
use crate::engine::DeviceId;
use crate::packet::{FiveTuple, Packet};

/// Where a released packet enters the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryPoint {
    /// Arrives at a router and is routed from there.
    Router(NodeId),
    /// Is handed to an intercepting device (a stub or ingress handler).
    Device(DeviceId),
}

/// One registration. One-shots are the bulk of an aggregate run (287 k per
/// `campus_fig4_agg` pass, all pending at once), so the record carries
/// only what a queued event did: the tick, the entry point, and the id of
/// the packet allocated at registration.
#[derive(Clone, Copy)]
struct Entry {
    /// The tick the entry is (first) due at its entry point.
    at: u64,
    /// Entry-point index (node or device) under the [`DEVICE`] and
    /// [`STREAM`] tag bits.
    point: u32,
    /// A one-shot's [`PacketId`]; a stream's index into `streams`.
    id: u32,
}

/// Every byte here is paid once per pending one-shot: at 24 bytes
/// `campus_fig4_agg` measurably loses memory and time to the record.
const _: () = assert!(std::mem::size_of::<Entry>() <= 16);

/// Tag bit of [`Entry::point`]: the index is a [`DeviceId`], not a node.
const DEVICE: u32 = 1 << 31;
/// Tag bit of [`Entry::point`]: [`Entry::id`] names a stream.
const STREAM: u32 = 1 << 30;

impl Entry {
    fn entry_point(self) -> EntryPoint {
        let index = self.point & !(DEVICE | STREAM);
        if self.point & DEVICE != 0 {
            EntryPoint::Device(DeviceId(index))
        } else {
            EntryPoint::Router(NodeId::from_index(index as usize))
        }
    }
}

/// The rest of a stream registration: weight-1 data packets of one flow,
/// what they look like and how many are left. Kept as the five-tuple and
/// payload, not as a template [`Packet`] — a template per flow costs more
/// than the packets in flight.
pub(crate) struct Stream {
    pub(crate) flow: FiveTuple,
    pub(crate) payload: u32,
    /// Ticks between a packet's injection and its being due at the entry
    /// point: 1 behind an off-path handler's access link, else 0.
    pub(crate) lag: u32,
    /// Packets not yet released.
    pub(crate) left: u64,
    /// Ticks between consecutive packets.
    pub(crate) gap: u64,
}

/// Pending injections of one simulator (see the module docs).
#[derive(Default)]
pub(crate) struct InjectionSchedule {
    entries: Vec<Entry>,
    streams: Vec<Stream>,
    /// Whether some registration was due earlier than the one before it,
    /// so that `entries` is not already in tick order.
    unsorted: bool,
    /// Then: entry indices stable-sorted by tick (built by `prepare`).
    order: Vec<u32>,
    /// Entries before this position (in `order`, or in `entries` when
    /// sorted) are finished or have moved to `started`.
    cursor: usize,
    /// Started streams with a gap, as `(next tick, registration index)`.
    started: BinaryHeap<Reverse<(u64, u32)>>,
}

impl InjectionSchedule {
    /// Registers a packet, already allocated as `pkt`, due at `at`.
    pub(crate) fn one_shot(&mut self, at: u64, point: EntryPoint, pkt: PacketId) {
        self.push(at, point, 0, pkt.0);
    }

    /// Registers a stream of at least one packet, the first due at `at`
    /// and one every `gap` ticks after it.
    pub(crate) fn stream(&mut self, at: u64, point: EntryPoint, stream: Stream) {
        debug_assert!(stream.left >= 1 && at >= u64::from(stream.lag));
        // At most one stream per entry, and `push` bounds the entries.
        let index = self.streams.len() as u32;
        self.push(at, point, STREAM, index);
        self.streams.push(stream);
    }

    fn push(&mut self, at: u64, point: EntryPoint, tag: u32, id: u32) {
        assert!(self.entries.len() < u32::MAX as usize, "injection schedule is full");
        let (index, tag) = match point {
            EntryPoint::Router(node) => (node.index(), tag),
            EntryPoint::Device(dev) => (dev.index(), tag | DEVICE),
        };
        assert!(index < STREAM as usize, "entry point index collides with the tag bits");
        self.unsorted |= self.entries.last().is_some_and(|last| last.at > at);
        self.entries.push(Entry {
            at,
            point: index as u32 | tag,
            id,
        });
    }

    /// Readies the schedule for a run: sorts the walk order if
    /// registrations were not already in tick order. The sort is stable,
    /// so entries sharing a tick stay in registration order.
    pub(crate) fn prepare(&mut self) {
        if self.unsorted {
            self.order.clear();
            self.order.extend(0..self.entries.len() as u32);
            let entries = &self.entries;
            self.order.sort_by_key(|&reg| entries[reg as usize].at);
        }
    }

    /// Forgets every (released) entry once the run is idle, so a
    /// long-lived simulator does not accumulate them across runs.
    pub(crate) fn clear(&mut self) {
        debug_assert!(self.next_tick().is_none(), "cleared with entries pending");
        self.entries.clear();
        self.streams.clear();
        self.order.clear();
        self.unsorted = false;
        self.cursor = 0;
        self.started.clear();
    }

    /// The never-started entry the cursor is on, with its registration
    /// index.
    fn head(&self) -> Option<(u32, Entry)> {
        let reg = if self.unsorted {
            *self.order.get(self.cursor)?
        } else {
            self.cursor as u32
        };
        Some((reg, *self.entries.get(reg as usize)?))
    }

    /// The earliest tick at which an entry is due, `None` when all are
    /// released.
    pub(crate) fn next_tick(&self) -> Option<u64> {
        let fresh = self.head().map(|(_, e)| e.at);
        let resumed = self.started.peek().map(|r| r.0 .0);
        fresh.into_iter().chain(resumed).min()
    }

    /// Releases the next packet due at tick `t` — by registration index
    /// among the entries due — allocating a stream's packet only now.
    /// `None` once nothing (more) is due at `t`.
    pub(crate) fn release(
        &mut self,
        t: u64,
        arena: &mut PacketArena,
    ) -> Option<(EntryPoint, PacketId)> {
        let fresh = self.head().filter(|(_, e)| e.at == t);
        let resumed = self.started.peek().filter(|r| r.0 .0 == t).map(|r| r.0 .1);
        let (reg, entry, resuming) = match (fresh, resumed) {
            (Some((f, e)), Some(r)) if f < r => (f, e, false),
            (Some((f, e)), None) => (f, e, false),
            (_, Some(r)) => (r, *self.entries.get(r as usize)?, true),
            (None, None) => return None,
        };
        if entry.point & STREAM == 0 {
            self.cursor += 1;
            return Some((entry.entry_point(), PacketId(entry.id)));
        }
        let s = self.streams.get_mut(entry.id as usize)?;
        let mut pkt = Packet::data(s.flow, s.payload);
        pkt.stamp_injection(t - u64::from(s.lag));
        s.left -= 1;
        let next = (s.left > 0).then(|| t + s.gap);
        if resuming {
            if let Some(mut top) = self.started.peek_mut() {
                match next {
                    Some(n) => top.0 .0 = n,
                    None => {
                        PeekMut::pop(top);
                    }
                }
            }
        } else {
            match next {
                // No gap: the stream stays under the cursor and the next
                // call continues it, across batches if need be.
                Some(n) if n == t => {}
                Some(n) => {
                    self.started.push(Reverse((n, reg)));
                    self.cursor += 1;
                }
                None => self.cursor += 1,
            }
        }
        Some((entry.entry_point(), arena.alloc(pkt)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Protocol;

    fn flow(port: u16) -> FiveTuple {
        FiveTuple {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.1.0.1".parse().unwrap(),
            src_port: port,
            dst_port: 80,
            proto: Protocol::Tcp,
        }
    }

    /// Drains the schedule tick by tick; `(tick, source port)` per packet.
    fn drain(s: &mut InjectionSchedule, arena: &mut PacketArena) -> Vec<(u64, u16)> {
        s.prepare();
        let mut out = Vec::new();
        while let Some(t) = s.next_tick() {
            while let Some((_, id)) = s.release(t, arena) {
                let p = arena.free(id);
                assert_eq!(p.injected_at(), Some(t));
                out.push((t, p.src_port));
            }
        }
        s.clear();
        out
    }

    #[test]
    fn entries_of_a_tick_release_in_registration_order() {
        let router = EntryPoint::Router(NodeId::from_index(0));
        let mut arena = PacketArena::new();
        let mut s = InjectionSchedule::default();
        let stream = |port, left, gap| Stream {
            flow: flow(port),
            payload: 100,
            lag: 0,
            left,
            gap,
        };
        s.stream(0, router, stream(1, 3, 4)); // ticks 0, 4, 8
        let mut late = Packet::data(flow(2), 100);
        late.stamp_injection(4);
        s.one_shot(4, router, arena.alloc(late));
        s.stream(4, router, stream(3, 2, 0)); // tick 4 twice
        s.stream(2, router, stream(4, 2, 2)); // out of order: ticks 2, 4
        assert_eq!(
            drain(&mut s, &mut arena),
            vec![(0, 1), (2, 4), (4, 1), (4, 2), (4, 3), (4, 3), (4, 4), (8, 1)]
        );
        assert_eq!(arena.allocations(), 8);
        assert_eq!(arena.high_water(), 2, "the one-shot plus one streamed packet");
        assert!(s.entries.is_empty() && s.streams.is_empty() && !s.unsorted);
    }

    #[test]
    fn entry_points_round_trip_through_the_packed_record() {
        let mut arena = PacketArena::new();
        let mut s = InjectionSchedule::default();
        let points = [
            EntryPoint::Router(NodeId::from_index(7)),
            EntryPoint::Device(DeviceId(7)),
        ];
        for p in points {
            let behind_access_link = Stream {
                flow: flow(1),
                payload: 10,
                lag: 1,
                left: 1,
                gap: 0,
            };
            s.stream(1, p, behind_access_link);
            s.one_shot(1, p, arena.alloc(Packet::data(flow(2), 10)));
        }
        s.prepare();
        let mut got = Vec::new();
        while let Some((p, id)) = s.release(1, &mut arena) {
            got.push((p, arena.free(id).injected_at()));
        }
        let [r, d] = points;
        assert_eq!(got, vec![(r, Some(0)), (r, None), (d, Some(0)), (d, None)]);
    }
}
