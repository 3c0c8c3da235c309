//! Workspace-level property tests: invariants of the whole enforcement
//! system on randomized small worlds.

use sdm::core::{
    Controller, Deployment, EnforcementOptions, KConfig, LbOptions, MiddleboxSpec,
    Strategy as Steering,
};
use sdm::netsim::{FiveTuple, Protocol, StubId};
use sdm::policy::{ActionList, NetworkFunction, Policy, PolicySet, TrafficDescriptor};
use sdm::topology::campus::campus;
use sdm::util::prop::{check, Config};
use sdm::util::rng::StdRng;
use sdm::util::{prop_assert, prop_assert_eq};

use NetworkFunction::*;

#[derive(Debug, Clone)]
struct SmallWorld {
    seed: u64,
    /// count per function (FW, IDS, WP, TM), each 1..=3
    mbox_counts: [usize; 4],
    k: usize,
    /// flows: (src stub, dst stub, sport, class 0..3, packets)
    flows: Vec<(u32, u32, u16, u8, u64)>,
}

/// Raw generated case: (seed, mbox counts, k, flows) — kept as a plain
/// tuple so the harness's component-wise shrinking applies.
type RawWorld = (u64, [usize; 4], usize, Vec<(u32, u32, u16, u8, u64)>);

fn arb_world(rng: &mut StdRng) -> RawWorld {
    let n_flows = rng.gen_range(1usize..40);
    let flows = (0..n_flows)
        .map(|_| {
            (
                rng.gen_range(0u32..10),
                rng.gen_range(0u32..10),
                rng.gen_range(1000u16..60000),
                rng.gen_range(0u8..3),
                rng.gen_range(1u64..500),
            )
        })
        .collect();
    (
        rng.next_u64(),
        [
            rng.gen_range(1usize..=3),
            rng.gen_range(1usize..=3),
            rng.gen_range(1usize..=3),
            rng.gen_range(1usize..=3),
        ],
        rng.gen_range(1usize..=4),
        flows,
    )
}

/// Re-validates a (possibly shrunk) raw case into the generator's domain.
fn world_of(raw: &RawWorld) -> SmallWorld {
    let &(seed, counts, k, ref flows) = raw;
    SmallWorld {
        seed,
        mbox_counts: counts.map(|c| c.clamp(1, 3)),
        k: k.clamp(1, 4),
        flows: flows
            .iter()
            .map(|&(s, d, sp, cl, p)| (s % 10, d % 10, sp, cl % 3, p.max(1)))
            .collect(),
    }
}

/// The three policy classes of §IV.A on fixed ports.
fn world_policies() -> PolicySet {
    let mut set = PolicySet::new();
    set.push(Policy::new(
        TrafficDescriptor::new().dst_port(2000),
        ActionList::chain([Firewall, Ids]),
    ));
    set.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Firewall, Ids, WebProxy]),
    ));
    set.push(Policy::new(
        TrafficDescriptor::new().dst_port(3000),
        ActionList::chain([Ids, TrafficMonitor]),
    ));
    set
}

fn build_controller(w: &SmallWorld) -> Controller {
    let plan = campus(w.seed);
    let mut dep = Deployment::new();
    let fns = [Firewall, Ids, WebProxy, TrafficMonitor];
    let mut s = w.seed;
    for (fi, &f) in fns.iter().enumerate() {
        for _ in 0..w.mbox_counts[fi] {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let core = plan.cores()[(s >> 33) as usize % plan.cores().len()];
            dep.add(MiddleboxSpec::new(f, core, 1.0));
        }
    }
    Controller::new(plan, dep, world_policies(), KConfig::uniform(w.k))
}

fn flows_of(w: &SmallWorld, c: &Controller) -> Vec<(FiveTuple, u64)> {
    let ports = [2000u16, 80, 3000];
    w.flows
        .iter()
        .map(|&(src, dst, sport, class, pkts)| {
            let dst = if dst == src { (dst + 1) % 10 } else { dst };
            (
                FiveTuple {
                    src: c.addr_plan().host(StubId(src), sport as u32 % 100),
                    dst: c.addr_plan().host(StubId(dst), 3),
                    src_port: sport,
                    dst_port: ports[class as usize],
                    proto: Protocol::Tcp,
                },
                pkts,
            )
        })
        .collect()
}

/// Conservation: every injected packet is delivered (all functions are
/// deployed), and per-function totals equal the volume of traffic
/// whose chain contains that function — under every strategy.
#[test]
fn packets_conserved_and_functions_applied() {
    check(
        "packets_conserved_and_functions_applied",
        &Config::with_cases(64),
        arb_world,
        |raw| {
            let w = world_of(raw);
            if w.flows.is_empty() {
                return Ok(());
            }
            let c = build_controller(&w);
            let flows = flows_of(&w, &c);
            let total: u64 = flows.iter().map(|&(_, p)| p).sum();
            // expected volume per function from the class chains
            let chain_contains = |port: u16, f: NetworkFunction| -> bool {
                match port {
                    2000 => matches!(f, Firewall | Ids),
                    80 => matches!(f, Firewall | Ids | WebProxy),
                    3000 => matches!(f, Ids | TrafficMonitor),
                    _ => false,
                }
            };
            for strategy in [
                Steering::HotPotato,
                Steering::Random { salt: w.seed },
                Steering::LoadBalanced, // no weights -> hot-potato fallback
            ] {
                let mut enf = c.enforcement(strategy, None, EnforcementOptions::default());
                for &(ft, pkts) in &flows {
                    enf.inject_flow(ft, pkts, 256);
                }
                enf.run();
                prop_assert_eq!(enf.sim().stats().delivered, total, "strategy {:?}", strategy);
                let loads = enf.middlebox_loads();
                for f in [Firewall, Ids, WebProxy, TrafficMonitor] {
                    let expect: u64 = flows
                        .iter()
                        .filter(|(ft, _)| chain_contains(ft.dst_port, f))
                        .map(|&(_, p)| p)
                        .sum();
                    let got: u64 = c
                        .deployment()
                        .offering(f)
                        .iter()
                        .map(|m| loads[m.index()])
                        .sum();
                    prop_assert_eq!(got, expect, "function {} under {:?}", f, strategy);
                }
            }
            Ok(())
        },
    );
}

/// The LP never does worse than hot-potato: λ* ≤ max hot-potato load,
/// and the LP weights are non-negative and flow-conserving. Three laws of
/// the formulation ride on the same draw: the full program (Eq. 1)
/// reaches the same λ* as the reduced one (Eq. 2), re-measuring with
/// every flow three times as long triples λ*, and widening the candidate
/// sets from k to k + 1 never raises λ* (the k-closest sets nest).
#[test]
fn lp_lambda_bounded_by_hot_potato() {
    check(
        "lp_lambda_bounded_by_hot_potato",
        &Config::with_cases(64),
        arb_world,
        |raw| {
            let w = world_of(raw);
            if w.flows.is_empty() {
                return Ok(());
            }
            let c = build_controller(&w);
            let flows = flows_of(&w, &c);
            // hot-potato run with every flow `scale` times as long
            let measure = |scale: u64| {
                let mut hp =
                    c.enforcement(Steering::HotPotato, None, EnforcementOptions::default());
                for &(ft, pkts) in &flows {
                    hp.inject_flow(ft, pkts * scale, 256);
                }
                hp.run();
                hp
            };
            let hp = measure(1);
            let measurements = hp.measurements();
            if measurements.is_empty() {
                return Ok(());
            }
            let solve = |m| c.solve_load_balanced(m, LbOptions::default());
            let (weights, report) = solve(&measurements).expect("deployment offers all functions");
            let hp_max = *hp.middlebox_loads().iter().max().unwrap() as f64;
            prop_assert!(
                report.lambda <= hp_max + 1e-6,
                "lambda {} > hp max {}",
                report.lambda,
                hp_max
            );
            prop_assert!(report.lambda >= 0.0);
            prop_assert!(weights.lambda() == report.lambda);

            let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.max(1.0);
            let (_, full) = c
                .solve_load_balanced_full(&measurements, LbOptions::default())
                .expect("full formulation solves what the reduced one does");
            prop_assert!(
                close(full.lambda, report.lambda),
                "full lambda {} != reduced lambda {}",
                full.lambda,
                report.lambda
            );
            let (_, tripled) = solve(&measure(3).measurements()).expect("same support solves");
            prop_assert!(
                close(tripled.lambda, 3.0 * report.lambda),
                "tripled traffic: lambda {} != 3 x {}",
                tripled.lambda,
                report.lambda
            );
            let wider = build_controller(&SmallWorld { k: w.k + 1, ..w.clone() });
            let (_, nested) = wider
                .solve_load_balanced(&measurements, LbOptions::default())
                .expect("wider candidate sets solve what narrower ones do");
            prop_assert!(
                nested.lambda <= report.lambda + 1e-9 * report.lambda.max(1.0),
                "k {} -> {}: lambda {} > {}",
                w.k,
                w.k + 1,
                nested.lambda,
                report.lambda
            );
            Ok(())
        },
    );
}

/// Label switching never changes loads or delivery (packet-level).
#[test]
fn label_switching_equivalence() {
    check(
        "label_switching_equivalence",
        &Config::with_cases(64),
        arb_world,
        |raw| {
            let w = world_of(raw);
            if w.flows.is_empty() {
                return Ok(());
            }
            let c = build_controller(&w);
            let flows = flows_of(&w, &c);
            let mut outcomes = Vec::new();
            for ls in [false, true] {
                let mut enf = c.enforcement(
                    Steering::HotPotato,
                    None,
                    EnforcementOptions {
                        encoding: if ls {
                            sdm::core::SteeringEncoding::LabelSwitching
                        } else {
                            sdm::core::SteeringEncoding::IpOverIp
                        },
                        ..Default::default()
                    },
                );
                for (i, &(ft, pkts)) in flows.iter().enumerate() {
                    enf.inject_flow_packets(
                        ft,
                        pkts.min(5),
                        256,
                        sdm::netsim::SimTime(i as u64),
                        500,
                    );
                }
                enf.run();
                outcomes.push((enf.sim().stats().delivered, enf.middlebox_loads()));
            }
            prop_assert_eq!(&outcomes[0], &outcomes[1]);
            Ok(())
        },
    );
}

/// The batched calendar-queue drain (`pop_tick_batch`) yields exactly the
/// scalar `pop` order — including across the one seam where it could
/// plausibly reorder: the 1024-tick ring window → far-future heap spill
/// boundary, where heap entries migrate back into ring buckets as the
/// window advances. Randomized pushes straddle the boundary and drains
/// use randomized batch sizes, with both queues kept in lockstep.
#[test]
fn batched_queue_drain_matches_scalar_pop_order() {
    use sdm::netsim::{CalendarQueue, SimTime};
    check(
        "batched_queue_drain_matches_scalar_pop_order",
        &Config::with_cases(16),
        |rng: &mut StdRng| {
            let rounds = rng.gen_range(1usize..5);
            (0..rounds)
                .map(|_| {
                    let n = rng.gen_range(1usize..200);
                    // A quarter of the offsets land past the 1024-tick ring
                    // window, into the far-future heap.
                    let offs = (0..n)
                        .map(|_| {
                            if rng.gen_range(0u8..4) == 0 {
                                rng.gen_range(1024u64..5000)
                            } else {
                                rng.gen_range(0u64..1024)
                            }
                        })
                        .collect::<Vec<u64>>();
                    let maxes = (0..rng.gen_range(1usize..8))
                        .map(|_| rng.gen_range(1usize..64))
                        .collect::<Vec<usize>>();
                    (offs, maxes)
                })
                .collect::<Vec<_>>()
        },
        |ops| {
            let mut scalar: CalendarQueue<u32> = CalendarQueue::new();
            let mut batched: CalendarQueue<u32> = CalendarQueue::new();
            let mut next_id = 0u32;
            let mut watermark = 0u64; // max tick popped so far: pushes stay in the future
            let mut got_scalar = Vec::new();
            let mut got_batched = Vec::new();
            let mut buf = Vec::new();
            for (offs, maxes) in ops {
                for &o in offs {
                    let at = SimTime(watermark + o);
                    scalar.push(at, next_id);
                    batched.push(at, next_id);
                    next_id += 1;
                }
                // Partial drains in lockstep: whatever one tick-batch
                // removes, the scalar queue pops the same count.
                for &m in maxes {
                    buf.clear();
                    let Some(tick) = batched.pop_tick_batch(m.max(1), &mut buf) else {
                        break;
                    };
                    watermark = watermark.max(tick.0);
                    for &v in &buf {
                        got_batched.push((tick.0, v));
                    }
                    for _ in 0..buf.len() {
                        let (t, v) = scalar.pop().expect("scalar queue ran dry first");
                        got_scalar.push((t.0, v));
                    }
                }
            }
            // Drain the rest through both paths.
            loop {
                buf.clear();
                let Some(tick) = batched.pop_tick_batch(97, &mut buf) else {
                    break;
                };
                for &v in &buf {
                    got_batched.push((tick.0, v));
                }
            }
            while let Some((t, v)) = scalar.pop() {
                got_scalar.push((t.0, v));
            }
            prop_assert!(scalar.is_empty() && batched.is_empty(), "both queues drained");
            prop_assert_eq!(
                got_batched,
                got_scalar,
                "batched tick-drain order != scalar pop order"
            );
            Ok(())
        },
    );
}
