//! The discrete-event simulation engine: routers forward packets along OSPF
//! shortest paths, attached devices (policy proxies, middleboxes) receive
//! and re-emit packets, and every action is accounted in [`SimStats`].
//!
//! This is the repo's substitute for the paper's OMNET++/INET setup: the
//! routers here are *policy-oblivious* — they look at the outermost
//! destination address only, exactly like the legacy routers in §II.
//!
//! # Hot-path architecture
//!
//! Every in-flight packet lives in a [`PacketArena`] slot and is scheduled
//! by its 4-byte [`PacketId`]; events are dispatched from a
//! [`CalendarQueue`] of exact-tick buckets (heap fallback for far-future
//! events). Per hop the engine therefore moves a 12-byte event, not a
//! packet record: device addresses decode arithmetically (they are
//! assigned densely from `172.16.0.0/12`), the next hop and its link come
//! from the routing row of the target router (filled once, on first use),
//! and stub/gateway targets from per-node arrays. Fragmentation keeps the
//! original packet parked in the arena and sends lightweight fragments
//! that reference it, so the forwarding path never deep-clones a packet.
//!
//! # Execution model
//!
//! An injection registers a *schedule entry*, not an event: one-shot
//! packets, and packet streams that stand for one packet every `gap`
//! ticks. [`Simulator::run_until_idle`] is the one event loop. Each
//! round it takes the earliest tick at which an entry is due or an event
//! is queued and processes, at that tick, **the schedule entries due, in
//! registration order, then the tick's bucket of the calendar queue** —
//! the order in which pre-pushed events would pop, since registrations
//! precede every push the run itself makes and a bucket is FIFO. A
//! stream's packet is allocated when it is released, so queue and arena
//! hold the traffic in flight, not the workload.
//!
//! Up to 256 events (see [`Simulator::set_batch_size`]) go into a reusable
//! scratch vector at a time, and consecutive deliveries to the same device
//! are handed to [`Device::receive`] as one *run*, letting the device
//! amortize its per-packet costs (one state-lock acquisition per run, one
//! flow/label-table probe per consecutive same-flow stretch) while the
//! arena accesses stay sequential and cache-hot. A batch never crosses a
//! tick boundary, so the global event order — time, then entries before
//! bucket, FIFO within each — does not depend on the drain limit and
//! neither does any output (pinned at limits 1/3/256 by
//! `tests/batching_equivalence.rs`). See DESIGN.md, "Execution model".

use std::fmt;

use sdm_util::FxHashMap;

use sdm_topology::{NetworkPlan, NodeId, NodeKind, RoutingTables, Topology};

use crate::addr::{AddressPlan, Ipv4Addr, StubId};
use crate::arena::{PacketArena, PacketId};
use crate::packet::{FiveTuple, FragInfo, HeaderFull, Packet, PacketKind, IP_HEADER_LEN};
use crate::queue::CalendarQueue;
use crate::schedule::{EntryPoint, InjectionSchedule, Stream};

/// Simulated time in abstract ticks (one tick = one link traversal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// This time plus `ticks`.
    pub fn after(self, ticks: u64) -> SimTime {
        SimTime(self.0 + ticks)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a device attached to the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// Dense index of this device.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// How the simulator treats packets that exceed a link MTU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FragmentationMode {
    /// Count MTU violations in [`SimStats::frag_events`] but deliver the
    /// packet whole (the default; sufficient for the load experiments).
    #[default]
    CountOnly,
    /// Emulate IP fragmentation: split the packet at the first over-MTU
    /// link and reassemble at the consuming endpoint (tunnel-endpoint
    /// device or final destination), accounting the extra packets on the
    /// wire and the reassembly work — the overhead §III.E eliminates.
    /// Applies to weight-1 data packets; aggregates fall back to counting.
    Emulate,
}

/// How a device is wired to its router (§III.A, Figure 1): *in-path* devices
/// sit on the wire (no extra hop), *off-path* devices hang off the router on
/// an access link (one extra link traversal each way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// Between the router and the rest of the network; transparent, no
    /// extra hop.
    InPath,
    /// On a subnet off the router; each visit costs one access-link
    /// traversal in and one out.
    OffPath,
}

/// A programmable node attached to the network: a policy proxy or a
/// software-defined middlebox.
///
/// Devices interact with the world only through [`DeviceCtx`]; the engine
/// owns them. All state a device needs must be moved in at construction.
/// Packets are handed over as arena ids — read or mutate them in place via
/// [`DeviceCtx::pkt`] / [`DeviceCtx::pkt_mut`], then [`DeviceCtx::forward`]
/// or [`DeviceCtx::deliver_local`] the id (or [`DeviceCtx::drop_pkt`] to
/// consume it). Devices are `Send` so a whole simulator can move between
/// threads (a sharded run settles its shards together after they finish).
pub trait Device: Send {
    /// Called with a *run* of packets addressed to this device (or
    /// intercepted by it) that arrived at the same tick, see the module
    /// docs. `pkts` is in arrival (FIFO) order and is never empty.
    ///
    /// A device may amortize per-packet costs over the run — take a state
    /// lock once, probe flow/label tables once per consecutive same-flow
    /// stretch — but how arrivals happen to be split into runs **must not**
    /// be observable: same counters, same emitted packets in the same
    /// order as handling the packets one run each.
    /// `tests/batching_equivalence.rs` pins this for the in-tree devices.
    fn receive(&mut self, ctx: &mut DeviceCtx<'_>, pkts: &[PacketId]);
}

/// Side-effect interface handed to a [`Device`] during callbacks.
///
/// Forward/deliver actions are buffered and applied by the engine
/// after the callback returns, in order. Packet reads and mutations go
/// straight to the arena.
pub struct DeviceCtx<'a> {
    now: SimTime,
    dev: DeviceId,
    addr: Ipv4Addr,
    router: NodeId,
    arena: &'a mut PacketArena,
    actions: &'a mut Vec<Action>,
}

enum Action {
    Forward(PacketId),
    DeliverLocal(PacketId),
}

impl<'a> DeviceCtx<'a> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This device's id.
    pub fn id(&self) -> DeviceId {
        self.dev
    }

    /// This device's own address (tunnel endpoint address).
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// The router this device is attached to.
    pub fn router(&self) -> NodeId {
        self.router
    }

    /// Read access to a packet this device holds.
    pub fn pkt(&self, id: PacketId) -> &Packet {
        self.arena.get(id)
    }

    /// In-place mutable access to a packet this device holds.
    pub fn pkt_mut(&mut self, id: PacketId) -> &mut Packet {
        self.arena.get_mut(id)
    }

    /// Stores a newly created packet (e.g. a control packet) in the arena
    /// so it can be forwarded.
    pub fn alloc(&mut self, pkt: Packet) -> PacketId {
        self.arena.alloc(pkt)
    }

    /// Consumes a packet terminally (a device-level drop); frees its slot.
    pub fn drop_pkt(&mut self, id: PacketId) {
        let _ = self.arena.free(id);
    }

    /// Installs a strict source route on a packet this device holds (see
    /// [`PacketArena::set_source_route`]); a route the header cannot hold
    /// is refused.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty.
    #[must_use = "a refused route leaves the packet unsteered; drop and count it"]
    pub fn set_source_route(
        &mut self,
        id: PacketId,
        segments: Vec<Ipv4Addr>,
    ) -> Result<(), HeaderFull> {
        self.arena.set_source_route(id, segments)
    }

    /// Advances a held packet's source route to its next segment; false
    /// when none remain (see [`PacketArena::advance_source_route`]).
    pub fn advance_source_route(&mut self, id: PacketId) -> bool {
        self.arena.advance_source_route(id)
    }

    /// Re-emits a packet into the network at the attachment router; it will
    /// be routed by its outermost destination address.
    pub fn forward(&mut self, id: PacketId) {
        self.actions.push(Action::Forward(id));
    }

    /// Terminally delivers a packet into this device's local stub network
    /// (used by proxies for inbound traffic that has passed all policies).
    pub fn deliver_local(&mut self, id: PacketId) {
        self.actions.push(Action::DeliverLocal(id));
    }
}

/// Aggregated counters of one simulation run. All counters are weighted: an
/// aggregate packet of weight `w` counts as `w` packets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Packets terminally delivered to stub hosts.
    pub delivered: u64,
    /// Packets delivered to destinations outside the enterprise (through a
    /// gateway).
    pub delivered_external: u64,
    /// Per-stub delivered packet counts (indexed by [`StubId`]).
    pub delivered_per_stub: Vec<u64>,
    /// Packets received per device (indexed by [`DeviceId`]) — the
    /// middlebox *load* of the paper's figures.
    pub device_received: Vec<u64>,
    /// Router-to-router link traversals.
    pub link_hops: u64,
    /// Per-link traversal counts (indexed by `LinkId`).
    pub link_load: Vec<u64>,
    /// Extra access-link traversals to/from off-path devices.
    pub device_link_hops: u64,
    /// Link traversals made while IP-over-IP encapsulated.
    pub encapsulated_hops: u64,
    /// Extra header bytes carried across links due to encapsulation.
    pub extra_header_bytes: u64,
    /// Hop events where the packet exceeded the link MTU (the fragmentation
    /// events §III.E eliminates).
    pub frag_events: u64,
    /// Packets dropped because TTL reached zero.
    pub dropped_ttl: u64,
    /// Packets dropped because no route / owner existed for the destination.
    pub unroutable: u64,
    /// Control packets (label-ready) received by devices.
    pub control_received: u64,
    /// Fragments created under [`FragmentationMode::Emulate`].
    pub fragments_created: u64,
    /// Reassembly completions at consuming endpoints.
    pub reassembly_events: u64,
    /// Total queueing wait (tick·packets) accumulated in front of devices
    /// with a configured service time.
    pub device_wait_total: u64,
    /// Worst single queueing wait (ticks) observed at any device.
    pub device_wait_max: u64,
    /// Total end-to-end delivery latency (tick·packets) over packets that
    /// carried an injection timestamp.
    pub latency_total: u64,
    /// Worst single end-to-end delivery latency (ticks).
    pub latency_max: u64,
}

impl SimStats {
    /// Mean end-to-end latency per delivered packet (ticks).
    pub fn avg_latency(&self) -> f64 {
        let n = self.delivered + self.delivered_external;
        if n == 0 {
            0.0
        } else {
            self.latency_total as f64 / n as f64
        }
    }

    /// Folds another run's counters into this one: sums every additive
    /// counter (element-wise for the per-stub / per-device / per-link
    /// vectors) and takes the maximum of the worst-case trackers. This is
    /// the deterministic merge the flow-sharded data plane uses — since
    /// every counter is a `u64` sum or max, the result is independent of
    /// merge order.
    ///
    /// # Panics
    ///
    /// Panics if the per-entity vectors disagree in length (the two runs
    /// were built from different network plans or device sets).
    pub fn merge(&mut self, other: &SimStats) {
        fn add_vec(dst: &mut [u64], src: &[u64], what: &str) {
            assert_eq!(dst.len(), src.len(), "SimStats::merge: {what} length mismatch");
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        self.delivered += other.delivered;
        self.delivered_external += other.delivered_external;
        add_vec(&mut self.delivered_per_stub, &other.delivered_per_stub, "delivered_per_stub");
        add_vec(&mut self.device_received, &other.device_received, "device_received");
        self.link_hops += other.link_hops;
        add_vec(&mut self.link_load, &other.link_load, "link_load");
        self.device_link_hops += other.device_link_hops;
        self.encapsulated_hops += other.encapsulated_hops;
        self.extra_header_bytes += other.extra_header_bytes;
        self.frag_events += other.frag_events;
        self.dropped_ttl += other.dropped_ttl;
        self.unroutable += other.unroutable;
        self.control_received += other.control_received;
        self.fragments_created += other.fragments_created;
        self.reassembly_events += other.reassembly_events;
        self.device_wait_total += other.device_wait_total;
        self.device_wait_max = self.device_wait_max.max(other.device_wait_max);
        self.latency_total += other.latency_total;
        self.latency_max = self.latency_max.max(other.latency_max);
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "delivered {} (+{} external), {} link hops, {} encapsulated, \
{} extra header B",
            self.delivered,
            self.delivered_external,
            self.link_hops,
            self.encapsulated_hops,
            self.extra_header_bytes
        )?;
        write!(
            f,
            "frag events {}, fragments {}, reassemblies {}, ttl drops {}, \
unroutable {}, control {}",
            self.frag_events,
            self.fragments_created,
            self.reassembly_events,
            self.dropped_ttl,
            self.unroutable,
            self.control_received
        )
    }
}

/// How the event loop drained, recorded on request
/// ([`Simulator::enable_drain_histograms`]). Both depend on the drain
/// limit and on which flows share the simulator, so unlike [`SimStats`]
/// they differ across shard and batch corners.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainHistograms {
    /// Events in flight (the drained batch plus the calendar queue) as
    /// each tick's batch is drained.
    pub queue_occupancy: sdm_telemetry::HistData,
    /// Length of each same-device receive run.
    pub run_length: sdm_telemetry::HistData,
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    Arrive { node: NodeId, pkt: PacketId },
    DeviceRecv { dev: DeviceId, pkt: PacketId },
}

struct DeviceSlot {
    device: Box<dyn Device>,
    router: NodeId,
    addr: Ipv4Addr,
    attachment: Attachment,
}

/// Base of the device (tunnel endpoint) address space: `172.16.0.0/12`.
const DEVICE_BASE: u32 = (172 << 24) | (16 << 16);

/// Sentinel for "no entry" in the flat node-indexed tables.
const NONE_U32: u32 = u32::MAX;

/// The address [`Simulator::attach`] will assign to the `index`-th attached
/// device. Address assignment is deterministic so that controllers can
/// pre-compute tunnel endpoints before the devices exist.
pub fn preassigned_device_addr(index: usize) -> Ipv4Addr {
    Ipv4Addr(DEVICE_BASE + index as u32 + 1)
}

/// The discrete-event network simulator.
///
/// Owns the topology, the converged routing tables, the addressing plan and
/// all attached devices. Inject packets with [`Simulator::inject_from_stub`]
/// (outbound traffic intercepted by the stub's proxy) or
/// [`Simulator::inject_at_router`], then [`Simulator::run_until_idle`].
///
/// # Example
///
/// ```
/// use sdm_netsim::{Simulator, Packet, FiveTuple, Protocol, StubId};
/// let plan = sdm_topology::campus::campus(1);
/// let mut sim = Simulator::new(&plan);
/// let ft = FiveTuple {
///     src: sim.addresses().host(StubId(0), 0),
///     dst: sim.addresses().host(StubId(1), 0),
///     src_port: 9999, dst_port: 80, proto: Protocol::Tcp,
/// };
/// sim.inject_from_stub(StubId(0), Packet::data(ft, 500));
/// sim.run_until_idle();
/// assert_eq!(sim.stats().delivered, 1);
/// ```
pub struct Simulator {
    topo: Topology,
    routes: RoutingTables,
    addrs: AddressPlan,
    gateways: Vec<NodeId>,
    devices: Vec<DeviceSlot>,
    /// In-flight packet storage; events carry ids into this arena.
    arena: PacketArena,
    /// Per-stub intercepting proxy device (indexed by [`StubId`]).
    stub_handler: Vec<Option<DeviceId>>,
    /// Per-router ingress interceptor (indexed by [`NodeId`]).
    ingress_handler: Vec<Option<DeviceId>>,
    /// Stub attached at each router, [`NONE_U32`] if none (the inverse of
    /// [`AddressPlan::edge_router`], consulted on every local delivery).
    stub_at_node: Vec<u32>,
    /// Nearest gateway per router (ties broken towards the smaller node
    /// id, matching a `min` over `(distance, node)`); rebuilt on routing
    /// changes. [`NONE_U32`] = no gateway reachable.
    nearest_gw: Vec<u32>,
    queue: CalendarQueue<EventKind>,
    /// Registered injections the run has not reached yet.
    schedule: InjectionSchedule,
    /// Most events in flight at the start of any batch so far.
    queue_high_water: usize,
    now: SimTime,
    stats: SimStats,
    mtu: u32,
    actions: Vec<Action>,
    failed_links: Vec<sdm_topology::LinkId>,
    trace: Option<Vec<TraceEvent>>,
    trace_limit: usize,
    /// Events discarded after the trace filled up (see
    /// [`Simulator::trace_dropped`]).
    trace_dropped: u64,
    /// Device-arrival trace records of the current run, deferred so each
    /// lands right before that packet's delivery record whatever the run
    /// length (see [`Simulator::flush_pending_traces`]).
    trace_pending: Vec<(PacketId, DeviceId, FiveTuple, u64)>,
    /// The drain histograms, when recorded (see
    /// [`Simulator::enable_drain_histograms`]).
    drain_hists: Option<Box<DrainHistograms>>,
    frag_mode: FragmentationMode,
    /// Per-split reassembly state, keyed by the parent packet, which stays
    /// parked in the arena until the last fragment arrives.
    reassembly: FxHashMap<PacketId, FragState>,
    /// Per-device (service ticks per packet, busy-until time).
    service: Vec<(u64, SimTime)>,
    /// Most same-tick events drained per batch (see
    /// [`Simulator::set_batch_size`]).
    batch: usize,
    /// Reusable scratch for one drained event batch.
    scratch: Vec<EventKind>,
    /// Reusable scratch for the packet run handed to one device.
    ready: Vec<PacketId>,
}

/// Same-tick events drained per batch unless a test narrows it.
const DEFAULT_BATCH: usize = 256;

/// Bookkeeping of one emulated fragmentation: fragments reference the
/// parent packet (parked in the arena) instead of each carrying a clone of
/// its header stack.
struct FragState {
    /// Fragments not yet arrived (each is created and consumed once).
    missing: u16,
    /// Sum of payload bytes received so far.
    payload: u32,
    /// Outermost TTL of the first-received fragment — the reassembled
    /// whole resumes with it (all fragments follow the same path, so it
    /// equals the TTL the whole packet would have had).
    first_ttl: Option<u8>,
    /// Wire bytes each fragment carries beyond its own single IP header
    /// (the parent's tunnel stack and pending source-route segments).
    extra_hdr: u32,
    /// Whether the parent was tunnel-encapsulated at split time.
    tunneled: bool,
}

/// Where a traced packet was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLocation {
    /// Arrived at a router.
    Router(NodeId),
    /// Delivered to an attached device.
    Device(DeviceId),
    /// Terminally delivered into a stub network.
    Delivered(StubId),
    /// Left the enterprise through a gateway.
    External(NodeId),
}

/// One observation of a packet's journey (recorded when tracing is on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// When it was observed.
    pub at: SimTime,
    /// Where.
    pub location: TraceLocation,
    /// The packet's original flow identifier.
    pub flow: FiveTuple,
    /// Aggregate weight of the packet.
    pub weight: u64,
}

impl Simulator {
    /// Builds a simulator over a generated network plan with default link
    /// MTU (1500 bytes).
    pub fn new(plan: &NetworkPlan) -> Self {
        let topo = plan.topology().clone();
        let routes = topo.routing_tables();
        let addrs = AddressPlan::new(plan);
        let n = topo.node_count();
        let mut stub_at_node = vec![NONE_U32; n];
        for (i, &edge) in plan.edges().iter().enumerate() {
            if stub_at_node[edge.index()] == NONE_U32 {
                stub_at_node[edge.index()] = i as u32;
            }
        }
        let mut sim = Simulator {
            topo,
            routes,
            addrs,
            gateways: plan.gateways().to_vec(),
            devices: Vec::new(),
            arena: PacketArena::new(),
            stub_handler: vec![None; plan.edges().len()],
            ingress_handler: vec![None; n],
            stub_at_node,
            nearest_gw: vec![NONE_U32; n],
            queue: CalendarQueue::new(),
            schedule: InjectionSchedule::default(),
            queue_high_water: 0,
            now: SimTime::ZERO,
            stats: SimStats {
                delivered_per_stub: vec![0; addrs_len(plan)],
                link_load: vec![0; plan.topology().link_count()],
                ..SimStats::default()
            },
            mtu: 1500,
            actions: Vec::new(),
            failed_links: Vec::new(),
            trace: None,
            trace_limit: 0,
            trace_dropped: 0,
            trace_pending: Vec::new(),
            drain_hists: None,
            frag_mode: FragmentationMode::CountOnly,
            reassembly: FxHashMap::default(),
            service: Vec::new(),
            batch: DEFAULT_BATCH,
            scratch: Vec::new(),
            ready: Vec::new(),
        };
        sim.rebuild_gateway_table();
        sim
    }

    /// Recomputes the per-node nearest-gateway table from the current
    /// routing tables (the same `min` over `(distance, gateway)` the
    /// routing step used to evaluate per packet).
    fn rebuild_gateway_table(&mut self) {
        for node in 0..self.topo.node_count() {
            let best = self
                .gateways
                .iter()
                .copied()
                .filter_map(|g| self.routes.dist(NodeId::from_index(node), g).map(|d| (d, g)))
                .min();
            self.nearest_gw[node] = best.map_or(NONE_U32, |(_, g)| g.index() as u32);
        }
    }

    /// Gives a device a finite processing rate: each packet occupies it for
    /// `ticks_per_packet` ticks and later arrivals queue behind it (an
    /// M/D/1-style server). The default (0) models an infinitely fast
    /// device, appropriate for pure load accounting.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is unknown.
    pub fn set_device_service_time(&mut self, dev: DeviceId, ticks_per_packet: u64) {
        assert!(dev.index() < self.devices.len(), "unknown device {dev}");
        self.service[dev.index()] = (ticks_per_packet, SimTime::ZERO);
    }

    /// Selects how over-MTU packets are treated.
    pub fn set_fragmentation(&mut self, mode: FragmentationMode) {
        self.frag_mode = mode;
    }

    /// Fails a link: routing reconverges immediately (the OSPF reaction to
    /// a withdrawn link-state advertisement), so subsequent forwarding
    /// avoids it. Packets already queued re-route at their next hop. The
    /// simulator swaps in a fresh table whose rows refill on demand.
    ///
    /// # Panics
    ///
    /// Panics if the link id is out of range.
    pub fn fail_link(&mut self, link: sdm_topology::LinkId) {
        assert!(link.index() < self.topo.link_count(), "unknown link");
        if !self.failed_links.contains(&link) {
            self.failed_links.push(link);
            self.routes = self.topo.routing_tables_excluding(&self.failed_links);
            self.rebuild_gateway_table();
        }
    }

    /// Restores a failed link and reconverges routing.
    pub fn restore_link(&mut self, link: sdm_topology::LinkId) {
        self.failed_links.retain(|&l| l != link);
        self.routes = self.topo.routing_tables_excluding(&self.failed_links);
        self.rebuild_gateway_table();
    }

    /// Links currently failed.
    pub fn failed_links(&self) -> &[sdm_topology::LinkId] {
        &self.failed_links
    }

    /// Enables packet tracing, keeping at most `limit` observations
    /// (router arrivals, device deliveries, terminal deliveries). Resets
    /// the [`Simulator::trace_dropped`] counter.
    pub fn enable_trace(&mut self, limit: usize) {
        self.trace = Some(Vec::new());
        self.trace_limit = limit;
        self.trace_dropped = 0;
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &[TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// How many trace events were discarded because the trace already
    /// held `limit` observations — truncation is counted, never silent.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped
    }

    /// Starts recording the drain histograms from empty. They describe
    /// how this simulator's event loop drained, not what the packets did,
    /// so they stay out of [`SimStats`].
    pub fn enable_drain_histograms(&mut self) {
        self.drain_hists = Some(Box::default());
    }

    /// The drain histograms (`None` unless enabled).
    pub fn drain_histograms(&self) -> Option<&DrainHistograms> {
        self.drain_hists.as_deref()
    }

    fn record_trace(&mut self, at: SimTime, location: TraceLocation, flow: FiveTuple, weight: u64) {
        if let Some(tr) = &mut self.trace {
            if tr.len() < self.trace_limit {
                tr.push(TraceEvent {
                    at,
                    location,
                    flow,
                    weight,
                });
            } else {
                self.trace_dropped += 1;
            }
        }
    }

    /// Sets the uniform link MTU used for fragmentation accounting.
    pub fn set_mtu(&mut self, mtu: u32) {
        self.mtu = mtu;
    }

    /// The addressing plan in force.
    pub fn addresses(&self) -> &AddressPlan {
        &self.addrs
    }

    /// The routing tables routers forward by.
    pub fn routes(&self) -> &RoutingTables {
        &self.routes
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The packet arena (exposed for allocation accounting in tests: the
    /// forwarding fast path allocates exactly once per injected packet).
    pub fn arena(&self) -> &PacketArena {
        &self.arena
    }

    /// Emulated fragmentations still waiting for fragments — each holds
    /// its parent packet parked in the arena; 0 once every split has been
    /// reassembled.
    pub fn pending_reassemblies(&self) -> usize {
        self.reassembly.len()
    }

    /// The most events that were in flight — drained or queued, not
    /// counting injections the schedule still held — at the start of any
    /// batch so far. With [`PacketArena::high_water`], the simulator's
    /// working set: both follow the traffic in the network at once, not
    /// the size of the workload.
    pub fn queue_high_water(&self) -> usize {
        self.queue_high_water
    }

    /// Attaches a device to a router and assigns it a unique address from
    /// `172.16.0.0/12`. Returns the device id and its address.
    ///
    /// # Panics
    ///
    /// Panics if `router` is not a node of this topology.
    pub fn attach(
        &mut self,
        router: NodeId,
        attachment: Attachment,
        device: Box<dyn Device>,
    ) -> (DeviceId, Ipv4Addr) {
        assert!(router.index() < self.topo.node_count(), "unknown router");
        let id = DeviceId(self.devices.len() as u32);
        let addr = Ipv4Addr(DEVICE_BASE + id.0 + 1);
        self.devices.push(DeviceSlot {
            device,
            router,
            addr,
            attachment,
        });
        self.stats.device_received.push(0);
        self.service.push((0, SimTime::ZERO));
        (id, addr)
    }

    /// The device owning an address, if any. Device addresses are assigned
    /// densely from `172.16.0.0/12` by [`Simulator::attach`], so this is
    /// pure arithmetic — no table lookup on the per-hop path.
    fn device_at(&self, a: Ipv4Addr) -> Option<DeviceId> {
        let off = a.0.wrapping_sub(DEVICE_BASE + 1);
        if (off as usize) < self.devices.len() {
            Some(DeviceId(off))
        } else {
            None
        }
    }

    /// Registers `dev` as the interceptor for traffic entering or leaving
    /// stub `stub` — the policy-proxy wiring of §III.A.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is unknown or the stub already has a handler.
    pub fn set_stub_handler(&mut self, stub: StubId, dev: DeviceId) {
        assert!(dev.index() < self.devices.len(), "unknown device {dev}");
        let slot = &mut self.stub_handler[stub.index()];
        assert!(slot.is_none(), "stub {stub} already has a handler");
        *slot = Some(dev);
    }

    /// Injects an outbound packet originating in `stub` at the current time.
    /// If the stub has a proxy handler the packet is intercepted there;
    /// otherwise it enters at the stub's edge router.
    pub fn inject_from_stub(&mut self, stub: StubId, pkt: Packet) {
        self.inject_from_stub_at(stub, pkt, self.now);
    }

    /// Like [`Simulator::inject_from_stub`] but scheduled at a future time
    /// (used to stagger the packets of one flow so control-plane round
    /// trips can complete in between).
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the simulated past.
    pub fn inject_from_stub_at(&mut self, stub: StubId, mut pkt: Packet, at: SimTime) {
        assert!(at >= self.now, "cannot inject into the past");
        pkt.stamp_injection(at.0);
        let (due, point) = self.stub_entry(stub, at);
        let id = self.arena.alloc(pkt);
        self.schedule.one_shot(due.0, point, id);
    }

    /// Schedules `count` weight-1 data packets of `flow` originating in
    /// `stub`, the first at `start` and one every `gap` ticks after it —
    /// the same packets, in the same place in the event order, as `count`
    /// calls of [`Simulator::inject_from_stub_at`] made here, but held as
    /// one schedule entry: each packet is built and allocated when
    /// simulated time reaches it.
    ///
    /// # Panics
    ///
    /// Panics if `start` lies in the simulated past.
    pub fn inject_stream_from_stub(
        &mut self,
        stub: StubId,
        flow: FiveTuple,
        payload: u32,
        count: u64,
        start: SimTime,
        gap: u64,
    ) {
        assert!(start >= self.now, "cannot inject into the past");
        if count == 0 {
            return;
        }
        let (due, point) = self.stub_entry(stub, start);
        let stream = Stream {
            flow,
            payload,
            lag: (due.0 - start.0) as u32,
            left: count,
            gap,
        };
        self.schedule.stream(due.0, point, stream);
    }

    /// Where and when traffic leaving `stub` at `at` enters the network:
    /// at the stub's proxy handler if it has one, else at its edge router.
    fn stub_entry(&self, stub: StubId, at: SimTime) -> (SimTime, EntryPoint) {
        let edge = self.addrs.edge_router(stub);
        self.entry(self.stub_handler[stub.index()], edge, at)
    }

    /// The schedule key of an injection at `at`: the intercepting device,
    /// due when the packet reaches it (an off-path handler sits one
    /// access-link tick away, so its entry is keyed by the *arrival* tick
    /// and is released at the head of that tick), else the router, now.
    fn entry(&self, handler: Option<DeviceId>, node: NodeId, at: SimTime) -> (SimTime, EntryPoint) {
        match handler {
            Some(dev) => (self.access_arrival(dev, at), EntryPoint::Device(dev)),
            None => (at, EntryPoint::Router(node)),
        }
    }

    /// Registers `dev` as the ingress interceptor at `router`: traffic
    /// *injected* at that router (e.g. arriving from the Internet at a
    /// gateway) is handed to the device before it is routed — the gateway
    /// policy-proxy wiring of §III.A. Transit traffic through the router
    /// is not re-intercepted.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is unknown or the router already has a handler.
    pub fn set_ingress_handler(&mut self, router: NodeId, dev: DeviceId) {
        assert!(dev.index() < self.devices.len(), "unknown device {dev}");
        let slot = &mut self.ingress_handler[router.index()];
        assert!(slot.is_none(), "router already has an ingress handler");
        *slot = Some(dev);
    }

    /// Injects a packet directly at a router (e.g. traffic arriving from
    /// the Internet at a gateway). If the router has an ingress handler,
    /// the packet is intercepted there first.
    pub fn inject_at_router(&mut self, node: NodeId, mut pkt: Packet) {
        pkt.stamp_injection(self.now.0);
        let (due, point) = self.entry(self.ingress_handler[node.index()], node, self.now);
        let id = self.arena.alloc(pkt);
        self.schedule.one_shot(due.0, point, id);
    }

    /// Sets the most same-tick events one drain of the queue takes
    /// (default 256; clamped to at least 1). Output is bit-identical at
    /// any limit; limit 1 makes every device run one packet long, which is
    /// the reference the equivalence tests compare the default against.
    pub fn set_batch_size(&mut self, batch: usize) {
        self.batch = batch.max(1);
    }

    /// Runs until no events remain and the injection schedule is
    /// exhausted. Returns the number of events processed (a released
    /// schedule entry is an event).
    ///
    /// Each round takes the earliest tick at which a schedule entry is due
    /// or an event is queued, fills one batch — the entries due at that
    /// tick, in registration order, then the tick's bucket, up to the
    /// drain limit in all — and dispatches consecutive same-device
    /// deliveries as one [`Device::receive`] run (see the module docs).
    ///
    /// Why the drain limit is unobservable (pinned by
    /// `tests/batching_equivalence.rs`): anything a batch schedules at the
    /// *current* tick lands behind the batch in the bucket, and the bucket
    /// is only drained once no schedule entry is left for the tick, so
    /// events process in one order — entries, then bucket pop order —
    /// however they are cut into batches. Within a device run, per-packet
    /// pre-accounting and the device's emissions keep their arrival order;
    /// buffered actions apply in emission order after the whole run, and
    /// each packet's device-arrival trace record is deferred to just
    /// before its delivery record (or the end of the run). Run length can
    /// renumber arena slots — unobservable, since nothing keys off
    /// [`PacketId`] values.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut n = 0u64;
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut ready = std::mem::take(&mut self.ready);
        self.schedule.prepare();
        loop {
            let due = self.schedule.next_tick().map(SimTime);
            let queued = self.queue.peek_tick();
            let Some(at) = due.into_iter().chain(queued).min() else {
                break;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            scratch.clear();
            if due == Some(at) {
                self.release_due(&mut scratch);
            }
            if queued == Some(at) && scratch.len() < self.batch {
                self.queue
                    .pop_tick_batch(self.batch - scratch.len(), &mut scratch);
            }
            n += scratch.len() as u64;
            let in_flight = scratch.len() + self.queue.len();
            self.queue_high_water = self.queue_high_water.max(in_flight);
            if let Some(h) = &mut self.drain_hists {
                h.queue_occupancy.observe(in_flight as u64);
            }
            let mut i = 0;
            while i < scratch.len() {
                match scratch[i] {
                    EventKind::Arrive { node, pkt } => {
                        if self.trace.is_some() {
                            let (flow, w) =
                                (self.arena.original(pkt), self.arena.get(pkt).weight());
                            self.record_trace(self.now, TraceLocation::Router(node), flow, w);
                        }
                        self.route_step(node, pkt);
                        i += 1;
                    }
                    EventKind::DeviceRecv { dev, .. } => {
                        // The run of consecutive deliveries to `dev`.
                        ready.clear();
                        while let Some(&EventKind::DeviceRecv { dev: d, pkt }) = scratch.get(i) {
                            if d != dev {
                                break;
                            }
                            self.predispatch(dev, pkt, &mut ready);
                            i += 1;
                        }
                        if !ready.is_empty() {
                            if let Some(h) = &mut self.drain_hists {
                                h.run_length.observe(ready.len() as u64);
                            }
                            self.dispatch_device(dev, &ready);
                            self.flush_pending_traces(None);
                        }
                    }
                }
            }
        }
        self.schedule.clear();
        self.scratch = scratch;
        self.ready = ready;
        n
    }

    /// Moves the schedule entries due now into `batch`, in registration
    /// order, until the batch holds the drain limit or none is left for
    /// this tick. Service-time queueing at an intercepting device is
    /// applied here, at arrival, so the device serves injections in time
    /// order whatever order they were registered in; a packet that has to
    /// wait is queued for its service slot instead.
    fn release_due(&mut self, batch: &mut Vec<EventKind>) {
        let now = self.now;
        while batch.len() < self.batch {
            let Some((point, pkt)) = self.schedule.release(now.0, &mut self.arena) else {
                break;
            };
            match point {
                EntryPoint::Router(node) => batch.push(EventKind::Arrive { node, pkt }),
                EntryPoint::Device(dev) => {
                    let weight = self.arena.get(pkt).weight();
                    let start = self.enqueue_at_device(dev, now, weight);
                    let recv = EventKind::DeviceRecv { dev, pkt };
                    if start == now {
                        batch.push(recv);
                    } else {
                        self.queue.push(start, recv);
                    }
                }
            }
        }
    }

    /// The per-event bookkeeping of a device delivery (reassembly, receive
    /// counters), pushing the ready packet onto the current run. Fragments
    /// still waiting for their siblings push nothing.
    fn predispatch(&mut self, dev: DeviceId, pkt: PacketId, ready: &mut Vec<PacketId>) {
        let Some(pkt) = self.maybe_reassemble(pkt) else {
            return; // fragment buffered, waiting for the rest
        };
        let (weight, is_control) = {
            let p = self.arena.get(pkt);
            (p.weight(), p.kind == PacketKind::LabelReady)
        };
        self.stats.device_received[dev.index()] += weight;
        if is_control {
            self.stats.control_received += weight;
        }
        if self.trace.is_some() {
            let flow = self.arena.original(pkt);
            self.trace_pending.push((pkt, dev, flow, weight));
        }
        ready.push(pkt);
    }

    /// Emits deferred device-arrival trace records of the current run.
    /// With `upto = Some(p)` — called when the run delivers `p` locally —
    /// everything up to and including `p`'s own arrival record is emitted
    /// first, so the Delivered record lands right behind it, as it does
    /// in a run of one. `None` flushes the remainder at end of run. A
    /// delivered packet that was never part of the run (a
    /// device-fabricated packet; no in-tree device does this) flushes
    /// nothing. No-op outside a traced run: the pending list is only ever
    /// filled by [`Simulator::predispatch`] with tracing on.
    fn flush_pending_traces(&mut self, upto: Option<PacketId>) {
        if self.trace_pending.is_empty() {
            return;
        }
        let end = match upto {
            Some(p) => match self.trace_pending.iter().position(|&(id, ..)| id == p) {
                Some(i) => i + 1,
                None => return,
            },
            None => self.trace_pending.len(),
        };
        let mut pending = std::mem::take(&mut self.trace_pending);
        for &(_, dev, flow, w) in &pending[..end] {
            self.record_trace(self.now, TraceLocation::Device(dev), flow, w);
        }
        pending.drain(..end);
        self.trace_pending = pending;
    }

    /// Hands one run of packets to its device, then applies the actions
    /// the device buffered, in emission order.
    fn dispatch_device(&mut self, dev: DeviceId, pkts: &[PacketId]) {
        let mut actions = std::mem::take(&mut self.actions);
        let slot = &mut self.devices[dev.index()];
        let router = slot.router;
        let attachment = slot.attachment;
        let mut ctx = DeviceCtx {
            now: self.now,
            dev,
            addr: slot.addr,
            router,
            arena: &mut self.arena,
            actions: &mut actions,
        };
        slot.device.receive(&mut ctx, pkts);
        self.apply_actions(router, attachment, &mut actions);
        self.actions = actions;
    }

    /// Applies the actions a device buffered during a callback, in
    /// emission order.
    fn apply_actions(&mut self, router: NodeId, attachment: Attachment, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Forward(p) => {
                    let mut at = self.now;
                    if attachment == Attachment::OffPath {
                        self.stats.device_link_hops += self.arena.get(p).weight();
                        at = at.after(1);
                    }
                    self.queue.push(at, EventKind::Arrive { node: router, pkt: p });
                }
                Action::DeliverLocal(p) => match self.stub_at_node[router.index()] {
                    NONE_U32 => {
                        self.stats.unroutable += self.arena.get(p).weight();
                        self.arena.free(p);
                    }
                    stub => {
                        self.flush_pending_traces(Some(p));
                        self.record_delivery(StubId(stub), p);
                    }
                },
            }
        }
    }

    /// One routing step at `node` for the packet, per the outermost
    /// destination.
    fn route_step(&mut self, node: NodeId, id: PacketId) {
        let dst = self.arena.get(id).current_dst();

        // Destination owned by a device?
        if let Some(dev) = self.device_at(dst) {
            let target_router = self.devices[dev.index()].router;
            if node == target_router {
                let weight = self.arena.get(id).weight();
                let at = self.device_arrival_time(dev, self.now, weight);
                self.queue.push(at, EventKind::DeviceRecv { dev, pkt: id });
                return;
            }
            self.forward_towards(node, target_router, id);
            return;
        }

        // Destination inside a stub network?
        if let Some(stub) = self.addrs.stub_of(dst) {
            let edge = self.addrs.edge_router(stub);
            if node == edge {
                match self.stub_handler[stub.index()] {
                    Some(dev) => {
                        let weight = self.arena.get(id).weight();
                        let at = self.device_arrival_time(dev, self.now, weight);
                        self.queue.push(at, EventKind::DeviceRecv { dev, pkt: id });
                    }
                    None => {
                        if let Some(whole) = self.maybe_reassemble(id) {
                            self.record_delivery(stub, whole);
                        }
                    }
                }
                return;
            }
            self.forward_towards(node, edge, id);
            return;
        }

        // External destination: leave through the nearest gateway.
        if self.topo.kind(node) == NodeKind::Gateway {
            if let Some(whole) = self.maybe_reassemble(id) {
                let (flow, weight) = {
                    let p = self.arena.get(whole);
                    (p.original(), p.weight())
                };
                self.stats.delivered_external += weight;
                self.record_latency(whole);
                self.record_trace(self.now, TraceLocation::External(node), flow, weight);
                self.arena.free(whole);
            }
            return;
        }
        match self.nearest_gw[node.index()] {
            NONE_U32 => {
                self.stats.unroutable += self.arena.get(id).weight();
                self.arena.free(id);
            }
            g => self.forward_towards(node, NodeId::from_index(g as usize), id),
        }
    }

    fn forward_towards(&mut self, node: NodeId, target: NodeId, id: PacketId) {
        let Some((nh, link)) = self.routes.next_hop_link(node, target) else {
            self.stats.unroutable += self.arena.get(id).weight();
            self.arena.free(id);
            return;
        };
        // TTL on the header routers actually forward on.
        let expired = {
            let hdr = self.arena.get_mut(id).outermost_mut();
            if hdr.ttl == 0 {
                true
            } else {
                hdr.ttl -= 1;
                false
            }
        };
        if expired {
            self.stats.dropped_ttl += self.arena.get(id).weight();
            self.arena.free(id);
            return;
        }

        let (weight, wire, payload, encap, frag) = {
            let p = self.arena.get(id);
            (
                p.weight(),
                p.wire_len(),
                p.payload_len,
                p.is_encapsulated(),
                p.frag,
            )
        };
        // A fragment's own record carries one header; the rest of its wire
        // footprint (the parent's tunnel stack / source route) lives in the
        // split's FragState.
        let (wire, encap) = match frag {
            Some(info) => match self.reassembly.get(&info.parent) {
                Some(st) => (wire + st.extra_hdr, st.tunneled),
                None => (wire, encap),
            },
            None => (wire, encap),
        };

        self.stats.link_hops += weight;
        self.stats.link_load[link.index()] += weight;
        if encap {
            self.stats.encapsulated_hops += weight;
        }
        // Every byte beyond the bare packet (tunnel headers, pending
        // source-route segments) is steering overhead on this link.
        let extra = (wire - payload - IP_HEADER_LEN) as u64;
        if extra > 0 {
            self.stats.extra_header_bytes += weight * extra;
        }
        if wire > self.mtu {
            self.stats.frag_events += weight;
            if self.try_fragment(id, nh) {
                return;
            }
        }
        let at = self.now.after(1);
        self.queue.push(at, EventKind::Arrive { node: nh, pkt: id });
    }

    /// Consumes a fragment into its split's reassembly state; returns the
    /// parked parent once complete, `None` while fragments are outstanding.
    /// Non-fragments pass straight through.
    fn maybe_reassemble(&mut self, id: PacketId) -> Option<PacketId> {
        let p = self.arena.get(id);
        let Some(info) = p.frag else {
            return Some(id);
        };
        let (frag_ttl, frag_payload) = (p.inner.ttl, p.payload_len);
        self.arena.free(id);
        let st = self.reassembly.get_mut(&info.parent)?; // unknown split: drop
        st.missing = st.missing.saturating_sub(1);
        st.payload += frag_payload;
        let ttl = *st.first_ttl.get_or_insert(frag_ttl);
        if st.missing > 0 {
            return None;
        }
        let st = self.reassembly.remove(&info.parent)?;
        self.stats.reassembly_events += 1;
        let p = self.arena.get_mut(info.parent);
        p.payload_len = st.payload;
        p.outermost_mut().ttl = ttl;
        Some(info.parent)
    }

    /// Splits an over-MTU packet into fragments that each fit the MTU and
    /// schedules them towards `nh`; the parent parks in the arena until
    /// reassembly. Returns false when emulation does not apply (aggregates,
    /// control packets, already-fragmented packets) — the caller then
    /// forwards the packet whole.
    fn try_fragment(&mut self, id: PacketId, nh: NodeId) -> bool {
        let (weight, wire, payload, kind_data, already_frag) = {
            let p = self.arena.get(id);
            (
                p.weight(),
                p.wire_len(),
                p.payload_len,
                p.kind == PacketKind::Data,
                p.frag.is_some(),
            )
        };
        if self.frag_mode != FragmentationMode::Emulate || weight != 1 || already_frag || !kind_data
        {
            return false;
        }
        let headers = wire - payload;
        let Some(chunk) = self.mtu.checked_sub(headers) else {
            return false;
        };
        let chunk = chunk.max(8);
        let count = payload.div_ceil(chunk).max(1);
        if count <= 1 || count > u16::MAX as u32 {
            return false;
        }
        self.reassembly.insert(
            id,
            FragState {
                missing: count as u16,
                payload: 0,
                first_ttl: None,
                extra_hdr: headers - IP_HEADER_LEN,
                tunneled: self.arena.get(id).is_encapsulated(),
            },
        );
        let at = self.now.after(1);
        let mut remaining = payload;
        for _ in 0..count {
            let flen = remaining.min(chunk);
            remaining -= flen;
            let frag = self
                .arena
                .get(id)
                .fragment_of(FragInfo { parent: id }, flen);
            let fid = self.arena.alloc(frag);
            self.queue.push(at, EventKind::Arrive { node: nh, pkt: fid });
        }
        self.stats.fragments_created += count as u64;
        true
    }

    fn record_delivery(&mut self, stub: StubId, id: PacketId) {
        let (flow, weight) = {
            let p = self.arena.get(id);
            (p.original(), p.weight())
        };
        self.stats.delivered += weight;
        self.stats.delivered_per_stub[stub.index()] += weight;
        self.record_latency(id);
        self.record_trace(self.now, TraceLocation::Delivered(stub), flow, weight);
        self.arena.free(id);
    }

    fn record_latency(&mut self, id: PacketId) {
        let p = self.arena.get(id);
        if let Some(t0) = p.injected_at() {
            let weight = p.weight();
            let lat = self.now.0.saturating_sub(t0);
            self.stats.latency_total += lat * weight;
            self.stats.latency_max = self.stats.latency_max.max(lat);
        }
    }

    fn device_arrival_time(&mut self, dev: DeviceId, base: SimTime, weight: u64) -> SimTime {
        let arrival = self.access_arrival(dev, base);
        self.enqueue_at_device(dev, arrival, weight)
    }

    /// When a packet handed towards `dev` at `base` reaches it.
    fn access_arrival(&self, dev: DeviceId, base: SimTime) -> SimTime {
        match self.devices[dev.index()].attachment {
            Attachment::InPath => base,
            Attachment::OffPath => {
                // one access-link traversal in (weight accounted on receive)
                base.after(1)
            }
        }
    }

    /// Applies the device's service-time queue: returns when the packet
    /// actually gets processed and advances the busy horizon.
    fn enqueue_at_device(&mut self, dev: DeviceId, arrival: SimTime, weight: u64) -> SimTime {
        let (ticks, busy_until) = self.service[dev.index()];
        if ticks == 0 {
            return arrival;
        }
        let start = arrival.max(busy_until);
        let wait = start.0 - arrival.0;
        self.stats.device_wait_total += wait * weight;
        self.stats.device_wait_max = self.stats.device_wait_max.max(wait);
        self.service[dev.index()].1 = start.after(ticks * weight);
        start
    }
}

fn addrs_len(plan: &NetworkPlan) -> usize {
    plan.edges().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FiveTuple, Protocol};
    use sdm_topology::campus::campus;

    #[test]
    fn sim_stats_merge_sums_counters_and_maxes_maxima() {
        let mut a = SimStats {
            delivered: 10,
            delivered_per_stub: vec![4, 6],
            device_received: vec![1, 2, 3],
            link_hops: 100,
            link_load: vec![50, 50],
            device_wait_max: 7,
            latency_max: 40,
            latency_total: 400,
            ..Default::default()
        };
        let b = SimStats {
            delivered: 5,
            delivered_per_stub: vec![5, 0],
            device_received: vec![0, 1, 0],
            link_hops: 30,
            link_load: vec![10, 20],
            device_wait_max: 3,
            latency_max: 90,
            latency_total: 100,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.delivered, 15);
        assert_eq!(a.delivered_per_stub, vec![9, 6]);
        assert_eq!(a.device_received, vec![1, 3, 3]);
        assert_eq!(a.link_hops, 130);
        assert_eq!(a.link_load, vec![60, 70]);
        assert_eq!(a.device_wait_max, 7, "max, not sum");
        assert_eq!(a.latency_max, 90);
        assert_eq!(a.latency_total, 500);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sim_stats_merge_rejects_mismatched_plans() {
        let mut a = SimStats {
            device_received: vec![0, 0],
            ..Default::default()
        };
        let b = SimStats {
            device_received: vec![0],
            ..Default::default()
        };
        a.merge(&b);
    }

    fn flow(sim: &Simulator, from: StubId, to: StubId) -> FiveTuple {
        FiveTuple {
            src: sim.addresses().host(from, 0),
            dst: sim.addresses().host(to, 0),
            src_port: 4321,
            dst_port: 80,
            proto: Protocol::Tcp,
        }
    }

    #[test]
    fn plain_delivery_between_stubs() {
        let plan = campus(1);
        let mut sim = Simulator::new(&plan);
        let ft = flow(&sim, StubId(0), StubId(3));
        sim.inject_from_stub(StubId(0), Packet::data(ft, 500));
        sim.run_until_idle();
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().delivered_per_stub[3], 1);
        assert!(sim.stats().link_hops >= 2);
        assert_eq!(sim.stats().frag_events, 0);
    }

    #[test]
    fn weighted_packets_count_fully() {
        let plan = campus(1);
        let mut sim = Simulator::new(&plan);
        let ft = flow(&sim, StubId(0), StubId(3));
        sim.inject_from_stub(StubId(0), Packet::with_weight(ft, 500, 1000));
        sim.run_until_idle();
        assert_eq!(sim.stats().delivered, 1000);
    }

    #[test]
    fn external_traffic_leaves_via_gateway() {
        let plan = campus(1);
        let mut sim = Simulator::new(&plan);
        let mut ft = flow(&sim, StubId(0), StubId(1));
        ft.dst = "93.184.216.34".parse().unwrap(); // external
        sim.inject_from_stub(StubId(0), Packet::data(ft, 100));
        sim.run_until_idle();
        assert_eq!(sim.stats().delivered_external, 1);
        assert_eq!(sim.stats().delivered, 0);
    }

    /// One arena allocation per injected packet: the plain forwarding path
    /// must never clone packets, however many hops they take.
    #[test]
    fn forwarding_allocates_once_per_packet() {
        let plan = campus(1);
        let mut sim = Simulator::new(&plan);
        for i in 0..50u32 {
            let ft = FiveTuple {
                src: sim.addresses().host(StubId(i % 10), i),
                dst: sim.addresses().host(StubId((i + 3) % 10), i),
                src_port: 1000 + i as u16,
                dst_port: 80,
                proto: Protocol::Tcp,
            };
            sim.inject_from_stub(StubId(i % 10), Packet::data(ft, 900));
        }
        sim.run_until_idle();
        assert_eq!(sim.stats().delivered, 50);
        assert!(sim.stats().link_hops >= 100, "packets crossed the core");
        assert_eq!(
            sim.arena().allocations(),
            50,
            "forwarding must not allocate beyond the injection"
        );
        assert_eq!(sim.arena().in_use(), 0, "all slots freed on delivery");
    }

    /// A device that tunnels every packet to a peer device, which
    /// decapsulates and forwards to the real destination.
    struct TunnelEntry {
        peer: Ipv4Addr,
    }
    impl Device for TunnelEntry {
        fn receive(&mut self, ctx: &mut DeviceCtx<'_>, pkts: &[PacketId]) {
            let (entry, peer) = (ctx.addr(), self.peer);
            for &pkt in pkts {
                ctx.pkt_mut(pkt)
                    .encapsulate(entry, peer)
                    .expect("a fresh packet");
                ctx.forward(pkt);
            }
        }
    }
    struct TunnelExit;
    impl Device for TunnelExit {
        fn receive(&mut self, ctx: &mut DeviceCtx<'_>, pkts: &[PacketId]) {
            for &pkt in pkts {
                ctx.pkt_mut(pkt).decapsulate();
                ctx.forward(pkt);
            }
        }
    }

    #[test]
    fn tunneling_through_devices_delivers_and_counts() {
        let plan = campus(2);
        let mut sim = Simulator::new(&plan);
        let exit_router = plan.cores()[5];
        let (_exit_id, exit_addr) =
            sim.attach(exit_router, Attachment::InPath, Box::new(TunnelExit));
        let (entry_id, _) = sim.attach(
            plan.edges()[0],
            Attachment::InPath,
            Box::new(TunnelEntry { peer: exit_addr }),
        );
        sim.set_stub_handler(StubId(0), entry_id);

        let ft = flow(&sim, StubId(0), StubId(4));
        sim.inject_from_stub(StubId(0), Packet::data(ft, 800));
        sim.run_until_idle();
        assert_eq!(sim.stats().delivered, 1);
        assert!(sim.stats().encapsulated_hops > 0);
        assert!(sim.stats().extra_header_bytes > 0);
        assert_eq!(sim.stats().device_received[0], 1);
        assert_eq!(sim.stats().device_received[1], 1);
    }

    #[test]
    fn off_path_attachment_costs_access_hops() {
        let plan = campus(2);
        let mut sim = Simulator::new(&plan);
        let exit_router = plan.cores()[5];
        let (_exit, exit_addr) =
            sim.attach(exit_router, Attachment::OffPath, Box::new(TunnelExit));
        let (entry_id, _) = sim.attach(
            plan.edges()[0],
            Attachment::OffPath,
            Box::new(TunnelEntry { peer: exit_addr }),
        );
        sim.set_stub_handler(StubId(0), entry_id);
        let ft = flow(&sim, StubId(0), StubId(4));
        sim.inject_from_stub(StubId(0), Packet::data(ft, 800));
        sim.run_until_idle();
        assert_eq!(sim.stats().delivered, 1);
        assert!(sim.stats().device_link_hops >= 2);
    }

    #[test]
    fn fragmentation_counted_when_encapsulation_exceeds_mtu() {
        let plan = campus(2);
        let mut sim = Simulator::new(&plan);
        let exit_router = plan.cores()[5];
        let (_exit, exit_addr) =
            sim.attach(exit_router, Attachment::InPath, Box::new(TunnelExit));
        let (entry_id, _) = sim.attach(
            plan.edges()[0],
            Attachment::InPath,
            Box::new(TunnelEntry { peer: exit_addr }),
        );
        sim.set_stub_handler(StubId(0), entry_id);
        let ft = flow(&sim, StubId(0), StubId(4));
        // 1470 payload + 20 inner = 1490 fits MTU 1500; +20 tunnel = 1510 doesn't.
        sim.inject_from_stub(StubId(0), Packet::data(ft, 1470));
        sim.run_until_idle();
        assert_eq!(sim.stats().delivered, 1);
        assert!(sim.stats().frag_events > 0);
        // fragmentation happened only on encapsulated hops
        assert!(sim.stats().frag_events <= sim.stats().encapsulated_hops);
    }

    #[test]
    fn ttl_expiry_drops() {
        let plan = campus(1);
        let mut sim = Simulator::new(&plan);
        let mut pkt = Packet::data(flow(&sim, StubId(0), StubId(5)), 100);
        pkt.inner.ttl = 1; // not enough for edge->core->...->edge
        sim.inject_from_stub(StubId(0), pkt);
        sim.run_until_idle();
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.stats().dropped_ttl, 1);
    }

    #[test]
    fn unroutable_without_gateway_is_counted() {
        // Waxman plans have no gateways; external traffic is unroutable.
        let plan = sdm_topology::waxman::waxman_with(
            &sdm_topology::waxman::WaxmanConfig {
                cores: 4,
                edges: 8,
                ..Default::default()
            },
            3,
        );
        let mut sim = Simulator::new(&plan);
        let mut ft = flow(&sim, StubId(0), StubId(1));
        ft.dst = "8.8.8.8".parse().unwrap();
        sim.inject_from_stub(StubId(0), Packet::data(ft, 100));
        sim.run_until_idle();
        assert_eq!(sim.stats().unroutable, 1);
    }

    #[test]
    fn event_order_is_time_then_fifo() {
        let plan = campus(1);
        let mut sim = Simulator::new(&plan);
        let ft1 = flow(&sim, StubId(0), StubId(1));
        let ft2 = flow(&sim, StubId(2), StubId(1));
        sim.inject_from_stub(StubId(0), Packet::data(ft1, 10));
        sim.inject_from_stub(StubId(2), Packet::data(ft2, 10));
        let events = sim.run_until_idle();
        assert!(events >= 4);
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn control_packets_counted() {
        struct Sink;
        impl Device for Sink {
            fn receive(&mut self, ctx: &mut DeviceCtx<'_>, pkts: &[PacketId]) {
                for &pkt in pkts {
                    ctx.drop_pkt(pkt);
                }
            }
        }
        let plan = campus(1);
        let mut sim = Simulator::new(&plan);
        let (_, addr) = sim.attach(plan.cores()[0], Attachment::InPath, Box::new(Sink));
        let ft = flow(&sim, StubId(0), StubId(1));
        let ctrl = Packet::control(addr, ft);
        sim.inject_at_router(plan.edges()[0], ctrl);
        sim.run_until_idle();
        assert_eq!(sim.stats().control_received, 1);
    }

    #[test]
    fn trace_truncation_is_counted() {
        let plan = campus(1);
        let mut sim = Simulator::new(&plan);
        sim.enable_trace(3);
        for i in 0..10u32 {
            let ft = FiveTuple {
                src: sim.addresses().host(StubId(i % 10), i),
                dst: sim.addresses().host(StubId((i + 3) % 10), i),
                src_port: 1000 + i as u16,
                dst_port: 80,
                proto: Protocol::Tcp,
            };
            sim.inject_from_stub(StubId(i % 10), Packet::data(ft, 100));
        }
        sim.run_until_idle();
        assert_eq!(sim.trace().len(), 3, "trace capped at its limit");
        assert!(
            sim.trace_dropped() > 0,
            "events past the limit must be counted, not silently dropped"
        );
        // re-arming the trace resets the drop counter
        sim.enable_trace(1_000_000);
        assert_eq!(sim.trace_dropped(), 0);
    }

    /// The ordered trace log does not depend on the drain limit (the
    /// cross-device property test lives in
    /// `tests/batching_equivalence.rs`; this pins the bare engine).
    #[test]
    fn batched_trace_equals_scalar_trace() {
        let run = |batch: usize| {
            let plan = campus(1);
            let mut sim = Simulator::new(&plan);
            sim.set_batch_size(batch);
            sim.enable_trace(100_000);
            for i in 0..40u32 {
                let ft = FiveTuple {
                    src: sim.addresses().host(StubId(i % 10), i),
                    dst: sim.addresses().host(StubId((i + 3) % 10), i),
                    src_port: 1000 + i as u16,
                    dst_port: 80,
                    proto: Protocol::Tcp,
                };
                sim.inject_from_stub(StubId(i % 10), Packet::data(ft, 900));
            }
            sim.run_until_idle();
            (sim.trace().to_vec(), sim.trace_dropped())
        };
        let (scalar, scalar_dropped) = run(1);
        let (batched, batched_dropped) = run(256);
        assert!(!scalar.is_empty());
        assert_eq!(scalar, batched, "trace logs must be identical");
        assert_eq!(scalar_dropped, batched_dropped);
    }

    #[test]
    fn telemetry_records_drain_histograms() {
        let plan = campus(1);
        let mut sim = Simulator::new(&plan);
        sim.enable_drain_histograms();
        let ft = flow(&sim, StubId(0), StubId(3));
        sim.inject_from_stub(StubId(0), Packet::data(ft, 500));
        sim.run_until_idle();
        let h = sim.drain_histograms().unwrap();
        assert!(
            h.queue_occupancy.count > 0,
            "every drained tick batch observes queue occupancy"
        );
    }
}
