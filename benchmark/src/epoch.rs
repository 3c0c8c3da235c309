//! `campus_epoch`: the §III.C control loop — measure, warm re-solve,
//! verify, swap — over fixed flow populations whose volumes drift every
//! epoch. One iteration is one `EpochLoop::run_epoch`; a run loops over
//! [`POPULATIONS`] populations in turn, each a stratum of the timings.
//!
//! The traced pass drives the same sequence from public functions on its
//! own `Enforcement`, in lockstep with an untraced `EpochLoop`, and must
//! reproduce that loop's per-epoch `(volume, lambda, pivots, warm)`
//! exactly: that equality is what licenses reading its spans as
//! `run_epoch`'s breakdown.

use std::time::Instant;

use sdm_core::{
    verify_enforcement, Controller, Enforcement, EnforcementOptions, EpochLoop, EpochReport,
    FlowSpec, LbOptions, LbWarmCache, SteeringWeights, Strategy, TrafficMatrix,
};
use sdm_workload::{to_flow_specs, Flow, PolicyClassCounts};

use crate::harness::{repeat_setup, Checks, Outcome, RunCfg, Timing};
use crate::metrics::{fnv, Layers};
use crate::span::Tracer;
use crate::units::{steer_select_ns, Hist};
use crate::world::{Topo, World};

const PACKETS: u64 = 200_000;
/// Flow populations one run loops over, one after the other, each on an
/// `EpochLoop` of its own. What an epoch costs depends on the population
/// drawn (the warm re-solve's pivots: 17.5 to 24 ms median over seeds 1 to
/// 20), so a run over one population would make every metric a lottery
/// over `--seed`; the metrics are means over the populations' medians and
/// percentiles instead.
const POPULATIONS: usize = 8;
/// Population `j` draws its flows with seed `--seed + 10 + j * SEED_STRIDE`,
/// so runs at neighbouring seeds share no population.
const SEED_STRIDE: u64 = 1000;
/// Untimed epochs of every population; the first is the cold solve.
const WARMUP_EPOCHS: usize = 20;
/// Volumes of flow `i` in epoch `e` scale by `1 + 0.1·((i + 7e) mod 11)`,
/// so the schedule repeats every 11 epochs.
const DRIFT_PERIOD: usize = 11;
/// Timed epochs of a population are never fewer than this (264 a run),
/// whatever `--seconds` says. The digest covers exactly these and the
/// warm-up, so digests compare across runs of any length.
const MIN_EPOCHS: usize = 3 * DRIFT_PERIOD;

/// One flow population and what its epochs must produce.
struct Population {
    flows: Vec<Flow>,
    /// The drifted population of each epoch of one period.
    epochs: Vec<Vec<FlowSpec>>,
    /// Packets each function must process in each epoch of one period.
    expected: Vec<[u64; 4]>,
}

struct Inputs {
    world: World,
    populations: Vec<Population>,
}

fn drifted(flows: &[Flow], epoch: usize) -> Vec<FlowSpec> {
    let mut specs = to_flow_specs(flows, 512);
    for (i, s) in specs.iter_mut().enumerate() {
        let tenths = 10 + ((i + 7 * epoch) % DRIFT_PERIOD) as u64;
        s.packets = (s.packets * tenths + 5) / 10;
    }
    specs
}

/// The traced twin of `EpochLoop::run_epoch`, one span per step.
struct TracedLoop<'a> {
    controller: &'a Controller,
    enf: Enforcement,
    options: EnforcementOptions,
    cache: LbWarmCache,
    /// The weights in force, kept as `EpochLoop` keeps them.
    weights: Option<SteeringWeights>,
    epoch: u32,
    vars: usize,
    constraints: usize,
}

impl<'a> TracedLoop<'a> {
    fn new(controller: &'a Controller, options: EnforcementOptions) -> Self {
        TracedLoop {
            controller,
            enf: controller.enforcement(Strategy::LoadBalanced, None, options),
            options,
            cache: LbWarmCache::new(),
            weights: None,
            epoch: 0,
            vars: 0,
            constraints: 0,
        }
    }

    fn run_epoch(&mut self, flows: &[FlowSpec], tr: &mut Tracer) -> EpochReport {
        self.epoch += 1;
        tr.span("core.epoch.dataplane", || {
            for s in flows {
                self.enf.inject_flow(s.flow, s.packets, s.payload);
            }
            self.enf.run();
        });
        let traffic = tr.span("core.measure.merge", || {
            let mut traffic = TrafficMatrix::new();
            traffic.merge(&self.enf.take_measurements());
            traffic
        });
        let id = tr.enter("core.lp_model.solve");
        let (weights, lb) = self
            .controller
            .solve_load_balanced_with_cache(&traffic, LbOptions::default(), &mut self.cache)
            .expect("the evaluation deployment offers every function");
        // Warm or cold is only known once the solve returns.
        tr.exit_as(
            id,
            if lb.warm {
                "core.lp_model.warm_solve"
            } else {
                "core.lp_model.cold_solve"
            },
        );
        let verdict = tr.span("verify.plan.check", || {
            verify_enforcement(self.controller, Some(&weights), &self.options)
        });
        let activated = !verdict.has_errors();
        if activated {
            tr.span("core.epoch.swap", || {
                self.enf.update_weights(Some(weights.clone()));
                self.weights = Some(weights);
            });
        }
        self.vars = lb.variables;
        self.constraints = lb.constraints;
        EpochReport {
            epoch: self.epoch,
            cells: traffic.len(),
            volume: traffic.grand_total(),
            lambda: lb.lambda,
            pivots: lb.iterations,
            warm: lb.warm,
            activated,
        }
    }
}

fn report_words(r: &EpochReport) -> [u64; 4] {
    [
        r.volume.to_bits(),
        r.lambda.to_bits(),
        r.pivots,
        u64::from(r.warm),
    ]
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let (populations, warmup, min_epochs, seconds) = if cfg.smoke {
        (2, 2, 2 * DRIFT_PERIOD, 0.0)
    } else {
        (
            POPULATIONS,
            WARMUP_EPOCHS,
            MIN_EPOCHS,
            cfg.seconds / POPULATIONS as f64,
        )
    };
    let untraced_options = EnforcementOptions {
        telemetry: Some(false),
        ..EnforcementOptions::default()
    };
    let traced_options = EnforcementOptions {
        telemetry: Some(true),
        ..EnforcementOptions::default()
    };

    let (inp, setup_s) = repeat_setup(cfg, tr, |tr| {
        let world = World::build(Topo::Campus, PolicyClassCounts::default(), tr);
        let populations: Vec<Population> = tr.span("workload.generate", || {
            (0..populations as u64)
                .map(|j| {
                    let flows = world.flows(cfg.scaled(PACKETS), cfg.seed + 10 + j * SEED_STRIDE);
                    let epochs: Vec<Vec<FlowSpec>> =
                        (0..DRIFT_PERIOD).map(|e| drifted(&flows, e)).collect();
                    let expected = epochs
                        .iter()
                        .map(|specs| world.expected_function_loads(&flows, |i, _| specs[i].packets))
                        .collect();
                    Population {
                        flows,
                        epochs,
                        expected,
                    }
                })
                .collect()
        });
        // Set-up ends where the first timed epoch could start: with the
        // first population at its warm steady state, on a loop of its own
        // (the measured loops below borrow the finished inputs, so they
        // start over; their warm-up epochs are part of the digest).
        let mut to_steady_state =
            EpochLoop::new(&world.controller, 1, untraced_options, LbOptions::default());
        for specs in populations[0].epochs.iter().cycle().take(warmup) {
            // A failing epoch fails the measured loop below, where it counts.
            let _ = to_steady_state.run_epoch(specs);
        }
        drop(to_steady_state);
        Inputs { world, populations }
    });
    let controller = &inp.world.controller;

    let mut checks = Checks::default();
    let mut iter_ms: Vec<Vec<f64>> = Vec::new();
    let mut traced_ms: Vec<f64> = Vec::new();
    let mut digest_words: Vec<u64> = Vec::new();
    let mut last_report: Option<EpochReport> = None;
    let mut cold_pivots = 0u64;
    let mut packets_timed = 0u64;
    let (mut pivots_timed, mut warm_timed) = (0u64, 0usize);
    let mut last_twin: Option<TracedLoop> = None;
    let mut iter_id = 0u32;
    for pop in &inp.populations {
        let mut reference = EpochLoop::new(controller, 1, untraced_options, LbOptions::default());
        let mut twin = cfg
            .trace
            .then(|| TracedLoop::new(controller, traced_options));
        let mut reports: Vec<EpochReport> = Vec::new();
        let mut samples: Vec<f64> = Vec::new();
        let mut injected = 0u64;
        let mut expected = [0u64; 4];
        let mut start = Instant::now();
        let mut e = 0usize;
        loop {
            let timed = e >= warmup;
            if e == warmup {
                start = Instant::now();
            }
            if timed && e - warmup >= min_epochs && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let specs = &pop.epochs[e % DRIFT_PERIOD];
            let packets: u64 = specs.iter().map(|s| s.packets).sum();
            tr.set_iter(iter_id);
            iter_id += 1;

            let t = Instant::now();
            let report = reference.run_epoch(specs);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let report = match report {
                Ok(r) => r,
                Err(err) => {
                    checks.check(false, || format!("epoch {e}: {err}"));
                    break;
                }
            };
            if let Some(twin) = &mut twin {
                let t = Instant::now();
                let id = tr.enter("core.epoch");
                let mine = twin.run_epoch(specs, tr);
                tr.exit(id);
                if timed {
                    traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                checks.check(report_words(&mine) == report_words(&report), || {
                    format!("epoch {e}: traced pass {mine:?} differs from EpochLoop {report:?}")
                });
            }

            checks.check(report.activated, || format!("epoch {e} was not activated"));
            if e >= DRIFT_PERIOD {
                let before = &reports[e - DRIFT_PERIOD];
                checks.check(before.volume == report.volume, || {
                    format!(
                        "epoch {e}: volume {} but {} one period earlier",
                        report.volume, before.volume
                    )
                });
            }
            injected += packets;
            for (total, w) in expected.iter_mut().zip(pop.expected[e % DRIFT_PERIOD]) {
                *total += w;
            }
            if timed {
                samples.push(ms);
                packets_timed += packets;
                pivots_timed += report.pivots;
                warm_timed += usize::from(report.warm);
            }
            reports.push(report);
            e += 1;
        }

        let delivered = reference.delivered();
        checks.ops(
            injected,
            injected.saturating_sub(delivered),
            "packets delivered",
        );
        let got = inp.world.function_loads(&reference.middlebox_loads());
        checks.check(got == expected, || {
            format!("per-function loads {got:?}, policies require {expected:?}")
        });
        let covered = &reports[..(warmup + min_epochs).min(reports.len())];
        digest_words.extend(covered.iter().flat_map(report_words));
        cold_pivots += covered.first().map_or(0, |r| r.pivots);
        last_report = covered.last().cloned();
        iter_ms.push(samples);
        if twin.is_some() {
            last_twin = twin;
        }
    }

    let digest = format!(
        "populations={} epochs={} sequence={:016x} cold_pivots={} lambda_last={:?} cells={}",
        inp.populations.len(),
        digest_words.len() / 4,
        fnv(digest_words),
        cold_pivots,
        last_report.as_ref().map_or(0.0, |r| r.lambda),
        last_report.as_ref().map_or(0, |r| r.cells),
    );

    let epochs_timed: usize = iter_ms.iter().map(Vec::len).sum();
    let mut layers = Layers::default();
    if let Some(twin) = &last_twin {
        // Steering and queue counts are those of the last population's
        // loop; solver counts and spans cover every epoch of the run.
        let solves = epochs_timed.max(1) as f64;
        let snap = twin.enf.telemetry_snapshot();
        let sum = |fam| (snap.value(fam, 0) + snap.value(fam, 1)) as f64;
        let decisions = sum(sdm_telemetry::family::STEER_DECISIONS);
        let pinned = sum(sdm_telemetry::family::STEER_PINNED);
        let queue = Hist::of(&snap, sdm_telemetry::family::QUEUE_OCCUPANCY);
        let runs = Hist::of(&snap, sdm_telemetry::family::BATCH_RUN_LENGTH);
        for (name, span) in [
            ("core.epoch.dataplane_ms", "core.epoch.dataplane"),
            ("core.measure.merge_ms", "core.measure.merge"),
            ("core.lp_model.warm_solve_ms", "core.lp_model.warm_solve"),
            ("core.lp_model.cold_solve_ms", "core.lp_model.cold_solve"),
            ("verify.plan.check_ms", "verify.plan.check"),
            ("core.epoch.swap_ms", "core.epoch.swap"),
            ("core.controller.build_ms", "core.controller.build"),
            ("workload.generate_ms", "workload.generate"),
        ] {
            layers.set(name, tr.median_ms(span));
        }
        layers.set("core.lp_model.warm_share", warm_timed as f64 / solves);
        layers.set("lp.simplex.pivots_per_solve", pivots_timed as f64 / solves);
        layers.set("core.lp_model.vars", twin.vars as f64);
        layers.set("core.lp_model.constraints", twin.constraints as f64);
        layers.set("core.steer.decisions", decisions);
        layers.set(
            "core.steer.pinned_share",
            if decisions + pinned > 0.0 {
                pinned / (decisions + pinned)
            } else {
                0.0
            },
        );
        layers.set(
            "core.steer.select_ns",
            steer_select_ns(
                &inp.world,
                &inp.populations[inp.populations.len() - 1].flows,
                Strategy::LoadBalanced,
                twin.weights.as_ref(),
            ),
        );
        layers.set("netsim.queue.depth_p99", queue.quantile_upper(0.99));
        layers.set("netsim.batch.run_len_mean", runs.mean());
        let timing = Timing {
            untraced_ms: iter_ms.concat(),
            traced_ms,
        };
        layers.set("trace.overhead_share", timing.overhead_share());
    }

    Outcome {
        units_per_iter: packets_timed as f64 / epochs_timed.max(1) as f64,
        iter_ms,
        setup_s,
        checks,
        digest,
        layers,
        shards: 1,
    }
}
