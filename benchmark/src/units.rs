//! Unit costs of the layers that sit inside the opaque `run`: each is the
//! layer's public functions timed in isolation, on a table or queue sized
//! and keyed as the workload left it. Multiplied by the run's counts they
//! give the outside-in cost model (`model.*_share`).

use std::hint::black_box;
use std::time::Instant;

use sdm_core::{select_next, EnforcementOptions, SteerPoint, SteeringWeights, Strategy, WeightKey};
use sdm_netsim::{CalendarQueue, FiveTuple, Label, Packet, SimTime, Simulator};
use sdm_policy::{ActionList, FlowTable, LabelKey, LabelTable, LocalClassifier, PolicyId};
use sdm_telemetry::{Snapshot, REGISTRY};
use sdm_util::Json;
use sdm_workload::{Flow, NO_POLICY};

use crate::dataplane::DataPlane;
use crate::metrics::{median, Layers};
use crate::world::World;

/// When the workload's packets enter the network: flow `i` starts at tick
/// `i * stride` and sends one packet every `gap` ticks.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub stride: u64,
    pub gap: u64,
}

/// Operation counts of one run, as far as public counters show them.
pub struct Ops {
    pub events: u64,
    pub route_steps: u64,
    pub ft_hits: u64,
    pub ft_misses: u64,
    pub ft_inserts: u64,
    pub classify_calls: u64,
    pub label_lookups: u64,
    pub steer_decisions: u64,
}

impl Ops {
    /// Counts of a packet-level run (every packet its own event, so the
    /// weighted statistics count operations). Flow-cache hits include
    /// same-flow run-mates, which the vector path serves without a probe:
    /// the flow-table share is an upper bound.
    pub fn packet_level(dp: &DataPlane) -> Ops {
        Ops {
            events: dp.events,
            route_steps: dp.stats.link_hops,
            ft_hits: dp.flow.hits,
            ft_misses: dp.flow.misses,
            ft_inserts: dp.entries_total + dp.flow.expired + dp.neg_evictions,
            classify_calls: dp.flow.misses,
            label_lookups: dp.mbox.label_switched_in,
            steer_decisions: dp.steer().0,
        }
    }

    /// Counts of an aggregate run (one weighted event per flow): the
    /// weighted statistics count packets, not operations, so operations
    /// are read off the state left behind — every device visit of a flow
    /// is one miss, one classification and one insert.
    pub fn aggregate(dp: &DataPlane) -> Ops {
        Ops {
            events: dp.events,
            route_steps: dp.events.saturating_sub(dp.entries_total),
            ft_hits: 0,
            ft_misses: dp.entries_total,
            ft_inserts: dp.entries_total,
            classify_calls: dp.entries_total,
            label_lookups: 0,
            steer_decisions: dp.steer().0,
        }
    }

    /// Adds another pass of the same iteration.
    pub fn add(&mut self, other: &Ops) {
        self.events += other.events;
        self.route_steps += other.route_steps;
        self.ft_hits += other.ft_hits;
        self.ft_misses += other.ft_misses;
        self.ft_inserts += other.ft_inserts;
        self.classify_calls += other.classify_calls;
        self.label_lookups += other.label_lookups;
        self.steer_decisions += other.steer_decisions;
    }
}

/// Best of three timings of `f`, in nanoseconds per operation: unit costs
/// feed a model, so the least-disturbed sample is the one wanted.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best / ops.max(1) as f64
}

/// `CalendarQueue` push + `pop_tick_batch` replaying the workload's
/// timestamp pattern: every packet enters at its scheduled tick and is
/// re-pushed one tick ahead `hops` times, as a packet crossing `hops`
/// links and devices is. Nanoseconds per push+pop pair.
pub fn queue_op_ns(flows: &[Flow], schedule: Schedule, hops: u64) -> f64 {
    let packets: u64 = flows.iter().map(|f| f.packets).sum();
    ns_per_op(packets * (hops + 1), || {
        let mut q: CalendarQueue<(u64, u64)> = CalendarQueue::new();
        for (i, f) in flows.iter().enumerate() {
            let start = i as u64 * schedule.stride;
            for k in 0..f.packets {
                q.push(SimTime(start + k * schedule.gap), (hops, k));
            }
        }
        let mut batch = Vec::with_capacity(256);
        while let Some(at) = q.pop_tick_batch(256, &mut batch) {
            for (left, k) in batch.drain(..) {
                if left > 0 {
                    q.push(at.after(1), (left - 1, k));
                }
            }
        }
        black_box(q.len());
    })
}

/// The same packets through a device-less `Simulator` (routers only, no
/// proxies or middleboxes): nanoseconds per router-to-router hop,
/// covering queue, routing lookup, link accounting and delivery.
pub fn plain_hop_ns(world: &World, flows: &[Flow], schedule: Schedule) -> f64 {
    let plan = world.controller.plan();
    let addrs = world.controller.addr_plan();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut sim = Simulator::new(plan);
        for (i, f) in flows.iter().enumerate() {
            let stub = addrs
                .stub_of(f.five_tuple.src)
                .expect("flows start in a stub");
            let start = i as u64 * schedule.stride;
            for k in 0..f.packets {
                let at = SimTime(start + k * schedule.gap);
                sim.inject_from_stub_at(stub, Packet::data(f.five_tuple, 512), at);
            }
        }
        let t = Instant::now();
        sim.run_until_idle();
        let ns = t.elapsed().as_nanos() as f64;
        best = best.min(ns / sim.stats().link_hops.max(1) as f64);
    }
    best
}

/// `RoutingTables::next_hop` over a fixed pseudo-random walk of node
/// pairs, one lookup per route step of the run (capped at 4M).
pub fn next_hop_ns(world: &World, route_steps: u64) -> f64 {
    let routes = world.controller.routes();
    let n = routes.node_count() as u64;
    let lookups = route_steps.clamp(1, 4_000_000);
    ns_per_op(lookups, || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0usize;
        for _ in 0..lookups {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let src = sdm_topology::NodeId::from_index(((x >> 33) % n) as usize);
            let dst = sdm_topology::NodeId::from_index(((x >> 13) % n) as usize);
            acc += routes.next_hop(src, dst).map_or(0, |h| h.index());
        }
        black_box(acc);
    })
}

/// All-pairs routing-table build, median of three, in milliseconds.
pub fn routes_build_ms(world: &World) -> f64 {
    let topo = world.controller.plan().topology();
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(topo.routing_tables());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Unit costs of one `FlowTable` holding `entries` of the workload's own
/// five-tuples under the workload's TTL and negative-cache size.
pub struct FlowTableCosts {
    pub hit_ns: f64,
    pub miss_ns: f64,
    pub insert_ns: f64,
    pub sweep_step_ns: f64,
}

pub fn flow_table_costs(
    flows: &[Flow],
    entries: u64,
    options: &EnforcementOptions,
) -> FlowTableCosts {
    let n = (entries as usize).clamp(1, flows.len());
    let keys: Vec<FiveTuple> = flows[..n].iter().map(|f| f.five_tuple).collect();
    // Absent keys: the same tuples with the source port's top bit flipped.
    let absent: Vec<FiveTuple> = keys
        .iter()
        .map(|k| FiveTuple {
            src_port: k.src_port ^ 0x8000,
            ..*k
        })
        .collect();
    let actions = ActionList::chain([
        sdm_policy::NetworkFunction::Firewall,
        sdm_policy::NetworkFunction::Ids,
    ]);
    let fresh = || FlowTable::with_negative_sets(options.flow_ttl, options.neg_cache_sets);
    let fill = |t: &mut FlowTable| {
        for (i, k) in keys.iter().enumerate() {
            t.insert_positive(*k, PolicyId((i % 30) as u32), actions.clone(), SimTime(0));
        }
    };

    let insert_ns = ns_per_op(n as u64, || {
        let mut t = fresh();
        fill(&mut t);
        black_box(t.len());
    });
    let mut table = fresh();
    fill(&mut table);
    let rounds = (200_000 / n).max(1);
    let hit_ns = ns_per_op((n * rounds) as u64, || {
        for _ in 0..rounds {
            for k in &keys {
                black_box(table.lookup(k, SimTime(1), 1));
            }
        }
    });
    let miss_ns = ns_per_op((n * rounds) as u64, || {
        for _ in 0..rounds {
            for k in &absent {
                black_box(table.lookup(k, SimTime(1), 1));
            }
        }
    });
    const SWEEP_BUDGET: usize = 64;
    let steps = ((n * rounds) / SWEEP_BUDGET).max(1);
    let sweep_step_ns = ns_per_op((steps * SWEEP_BUDGET) as u64, || {
        for _ in 0..steps {
            black_box(table.sweep(SimTime(1), SWEEP_BUDGET));
        }
    });
    FlowTableCosts {
        hit_ns,
        miss_ns,
        insert_ns,
        sweep_step_ns,
    }
}

/// First-match classification of every flow (up to 200k) against its
/// source proxy's policy table, with the default `ClassifierKind`.
/// Returns (ns per call, largest per-proxy rule count).
pub fn classifier_cost(world: &World, flows: &[Flow]) -> (f64, u64) {
    let addrs = world.controller.addr_plan();
    let kind = EnforcementOptions::default().classifier;
    let classifiers: Vec<LocalClassifier> = addrs
        .stubs()
        .map(|s| LocalClassifier::new(world.controller.proxy_policies(s), kind))
        .collect();
    let rules_max = classifiers
        .iter()
        .map(|c| c.len() as u64)
        .max()
        .unwrap_or(0);
    let step = (flows.len() / 200_000).max(1);
    let sample: Vec<(usize, FiveTuple)> = flows
        .iter()
        .step_by(step)
        .map(|f| {
            let stub = addrs
                .stub_of(f.five_tuple.src)
                .expect("flows start in a stub");
            (stub.index(), f.five_tuple)
        })
        .collect();
    let ns = ns_per_op(sample.len() as u64, || {
        let mut matched = 0usize;
        for (stub, ft) in &sample {
            matched += usize::from(classifiers[*stub].first_match(ft).is_some());
        }
        black_box(matched);
    });
    (ns, rules_max)
}

/// `LabelTable::lookup` over a table of `entries` labels keyed by the
/// workload's flow sources.
pub fn label_lookup_ns(flows: &[Flow], entries: u64, options: &EnforcementOptions) -> f64 {
    let n = (entries as usize).clamp(1, flows.len());
    let keys: Vec<LabelKey> = flows[..n]
        .iter()
        .enumerate()
        .map(|(i, f)| LabelKey {
            src: f.five_tuple.src,
            label: Label(i as u16),
        })
        .collect();
    let mut table = LabelTable::new(options.label_ttl);
    let actions = ActionList::chain([sdm_policy::NetworkFunction::Firewall]);
    for k in &keys {
        table.insert(
            *k,
            actions.clone(),
            PolicyId(0),
            0,
            None,
            Some(k.src),
            SimTime(0),
        );
    }
    let rounds = (200_000 / n).max(1);
    ns_per_op((n * rounds) as u64, || {
        for _ in 0..rounds {
            for k in &keys {
                black_box(table.lookup(k, SimTime(1)).is_some());
            }
        }
    })
}

/// `select_next` for the first hop of every policy flow (up to 200k)
/// under `strategy`, with the candidate sets and weights the proxies use.
pub fn steer_select_ns(
    world: &World,
    flows: &[Flow],
    strategy: Strategy,
    weights: Option<&SteeringWeights>,
) -> f64 {
    let addrs = world.controller.addr_plan();
    let assignments = world.controller.assignments();
    let step = (flows.len() / 200_000).max(1);
    let mut calls = Vec::new();
    for f in flows.iter().step_by(step).filter(|f| f.policy != NO_POLICY) {
        let policy = world.generated.set.get(f.policy).expect("generated policy");
        let Some(function) = policy.actions.first() else {
            continue;
        };
        let point = SteerPoint::Proxy(addrs.stub_of(f.five_tuple.src).expect("stub source"));
        let key = WeightKey {
            point,
            policy: f.policy,
            next_index: 0,
        };
        calls.push((
            assignments.candidates(point, function),
            weights.and_then(|w| w.get(&key)),
            f.five_tuple,
        ));
    }
    ns_per_op(calls.len() as u64, || {
        let mut acc = 0u32;
        for (candidates, w, ft) in &calls {
            acc = acc.wrapping_add(select_next(strategy, candidates, *w, ft).map_or(0, |m| m.0));
        }
        black_box(acc);
    })
}

/// One telemetry histogram: observation count, sum and `(bucket floor,
/// observations)` pairs, read from the snapshot's full JSON export (the
/// only public view of bucket contents).
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl Hist {
    pub fn of(snap: &Snapshot, family: usize) -> Hist {
        let empty = Hist {
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        let Ok(json) = Json::parse(&snap.to_json(true)) else {
            return empty;
        };
        let Some(fam) = json.get(REGISTRY[family].name) else {
            return empty;
        };
        let num = |key| fam.get(key).and_then(Json::as_u64).unwrap_or(0);
        let mut buckets: Vec<(u64, u64)> = fam
            .get("buckets")
            .and_then(Json::as_obj)
            .map(|pairs| {
                pairs
                    .iter()
                    .filter_map(|(k, v)| Some((k.parse().ok()?, v.as_u64()?)))
                    .collect()
            })
            .unwrap_or_default();
        buckets.sort_unstable();
        Hist {
            count: num("count"),
            sum: num("sum"),
            buckets,
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper edge of the log2 bucket holding the `q`-quantile.
    pub fn quantile_upper(&self, q: f64) -> f64 {
        let target = (self.count as f64 * q).ceil() as u64;
        let mut seen = 0;
        for &(floor, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return (floor.max(1) * 2 - 1) as f64;
            }
        }
        0.0
    }
}

/// Everything the cost model needs about one data-plane workload.
pub struct ModelInputs<'a> {
    pub world: &'a World,
    pub flows: &'a [Flow],
    pub schedule: Schedule,
    pub options: EnforcementOptions,
    pub strategy: Strategy,
    pub weights: Option<&'a SteeringWeights>,
    /// Whether the packet-level unit costs (queue replay, device-less
    /// simulator) apply; aggregate runs replay one event per flow.
    pub packet_level: bool,
    /// Threads' worth of work done per second of the run span (the
    /// measured shard speed-up; 1 for single-threaded runs). Counts are
    /// totals over all shards, so the model attributes thread time.
    pub parallelism: f64,
}

/// Measures every unit cost for the workload, records it with the run's
/// counts, and attributes the measured `run_span_ns` to layers.
pub fn cost_model(
    inp: &ModelInputs<'_>,
    dp: &DataPlane,
    ops: &Ops,
    run_span_ns: f64,
    out: &mut Layers,
) {
    let packets = dp.delivered().max(1);
    let replay: Vec<Flow>;
    let flows = if inp.packet_level {
        inp.flows
    } else {
        // One weight-1 event per flow is what the engine moves.
        replay = inp
            .flows
            .iter()
            .map(|f| Flow { packets: 1, ..*f })
            .collect();
        &replay
    };
    let replay_packets: u64 = flows.iter().map(|f| f.packets).sum();
    let hops = (ops.events / replay_packets.max(1)).max(1) - 1;

    let queue_ns = queue_op_ns(flows, inp.schedule, hops);
    let plain_ns = plain_hop_ns(inp.world, flows, inp.schedule);
    let hop_ns = next_hop_ns(inp.world, ops.route_steps);
    let ft = flow_table_costs(inp.flows, dp.entries_max, &inp.options);
    let (classify_ns, rules_max) = classifier_cost(inp.world, inp.flows);
    let label_ns = label_lookup_ns(inp.flows, dp.label_entries_max, &inp.options);
    let steer_ns = steer_select_ns(inp.world, inp.flows, inp.strategy, inp.weights);

    let (decisions, pinned) = dp.steer();
    let lookups = dp.flow.hits + dp.flow.misses;
    let queue = Hist::of(&dp.telemetry, sdm_telemetry::family::QUEUE_OCCUPANCY);
    let runs = Hist::of(&dp.telemetry, sdm_telemetry::family::BATCH_RUN_LENGTH);

    out.set("netsim.events", ops.events as f64);
    out.set("netsim.events_per_pkt", ops.events as f64 / packets as f64);
    out.set(
        "netsim.link_hops_per_pkt",
        dp.stats.link_hops as f64 / packets as f64,
    );
    out.set(
        "netsim.arena.allocs_per_pkt",
        dp.arena_allocs as f64 / packets as f64,
    );
    out.set(
        "netsim.ns_per_event",
        run_span_ns / ops.events.max(1) as f64,
    );
    out.set("netsim.queue.op_ns", queue_ns);
    out.set("netsim.queue.depth_p99", queue.quantile_upper(0.99));
    out.set("netsim.batch.run_len_mean", runs.mean());
    out.set("netsim.engine.plain_hop_ns", plain_ns);
    out.set("topology.next_hop_ns", hop_ns);
    out.set("topology.routes_build_ms", routes_build_ms(inp.world));
    out.set("policy.flow_table.hit_ns", ft.hit_ns);
    out.set("policy.flow_table.hit_share", ratio(dp.flow.hits, lookups));
    out.set("policy.flow_table.lookups", lookups as f64);
    out.set("policy.flow_table.miss_ns", ft.miss_ns);
    out.set("policy.flow_table.insert_ns", ft.insert_ns);
    out.set("policy.flow_table.sweep_step_ns", ft.sweep_step_ns);
    out.set("policy.flow_table.entries_max", dp.entries_max as f64);
    out.set("policy.flow_table.expired", dp.flow.expired as f64);
    out.set("policy.flow_table.neg_evictions", dp.neg_evictions as f64);
    out.set("policy.classifier.first_match_ns", classify_ns);
    out.set("policy.classifier.calls", ops.classify_calls as f64);
    out.set("policy.classifier.rules_max", rules_max as f64);
    out.set("policy.label_table.lookup_ns", label_ns);
    out.set(
        "policy.label_table.switched_share",
        ratio(dp.proxy.label_switched, dp.proxy.steered),
    );
    out.set("core.control_pkts", dp.stats.control_received as f64);
    out.set("core.steer.select_ns", steer_ns);
    out.set("core.steer.decisions", decisions as f64);
    out.set("core.steer.pinned_share", ratio(pinned, decisions + pinned));

    // The device-less simulator's hop already pays one queue operation
    // and one routing lookup; only the remainder is the engine's own.
    let engine_ns = (plain_ns - queue_ns - hop_ns).max(0.0);
    let span = (run_span_ns * inp.parallelism).max(1.0);
    let shares = [
        ("model.queue_share", ops.events as f64 * queue_ns),
        ("model.engine_share", ops.route_steps as f64 * engine_ns),
        ("model.routing_share", ops.route_steps as f64 * hop_ns),
        (
            "model.flow_table_share",
            ops.ft_hits as f64 * ft.hit_ns
                + ops.ft_misses as f64 * ft.miss_ns
                + ops.ft_inserts as f64 * ft.insert_ns,
        ),
        (
            "model.classifier_share",
            ops.classify_calls as f64 * classify_ns,
        ),
        (
            "model.label_table_share",
            ops.label_lookups as f64 * label_ns,
        ),
        ("model.steer_share", ops.steer_decisions as f64 * steer_ns),
    ];
    let mut attributed = 0.0;
    for (name, ns) in shares {
        out.set(name, ns / span);
        attributed += ns / span;
    }
    out.set("model.residual_share", 1.0 - attributed);
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
