//! `campus_fig4_agg`: the §IV.B three-strategy comparison every figure
//! and table regeneration pays — HP, Rand, a cold Eq. (2) solve on HP's
//! measurements, LB — over the sharded aggregate fast path.

use std::time::Instant;

use sdm_core::{EnforcementOptions, FlowSpec, LbOptions, LoadReport, SteeringWeights, Strategy};
use sdm_workload::{to_flow_specs, Flow, PolicyClassCounts};

use crate::dataplane::DataPlane;
use crate::harness::{measure, repeat_setup, Checks, Outcome, RunCfg};
use crate::metrics::{median, Layers};
use crate::span::Tracer;
use crate::units::{cost_model, ModelInputs, Ops, Schedule};
use crate::world::{Topo, World};

const PACKETS: u64 = 10_000_000;
const RAND_SALT: u64 = 0xDA7A;

struct Inputs {
    world: World,
    flows: Vec<Flow>,
    specs: Vec<FlowSpec>,
    packets: u64,
    expected: [u64; 4],
}

/// The only multi-threaded workload: two shards where two cores exist.
pub fn shards() -> usize {
    sdm_util::par::hardware_threads().min(2)
}

/// What one comparison leaves behind for the digest and the cost model.
struct Comparison {
    digest: String,
    /// Operation counts of the three passes together.
    ops: Ops,
    lb: DataPlane,
    weights: SteeringWeights,
    lb_over_hp_maxload: f64,
    pivots: u64,
}

/// One iteration: HP, Rand, a cold Eq. (2) solve on HP's measurements, LB.
fn compare(
    inp: &Inputs,
    shards: usize,
    tr: &mut Tracer,
    traced: bool,
    checks: &mut Checks,
) -> Comparison {
    let controller = &inp.world.controller;
    let options = EnforcementOptions {
        telemetry: Some(traced),
        ..EnforcementOptions::default()
    };
    let mut pass = |tr: &mut Tracer, span, strategy, weights: Option<&SteeringWeights>| {
        let run = tr.span(span, || {
            controller.run_sharded(strategy, weights, options, &inp.specs, shards)
        });
        let dp = DataPlane::of_sharded(&run);
        dp.check(&inp.world, inp.packets, inp.expected, checks);
        (dp, run.measurements)
    };
    let (hp, measured) = pass(tr, "core.fig4.hp", Strategy::HotPotato, None);
    let (rand, _) = pass(
        tr,
        "core.fig4.rand",
        Strategy::Random { salt: RAND_SALT },
        None,
    );
    let (weights, report) = tr
        .span("core.lp_model.cold_solve", || {
            controller.solve_load_balanced(&measured, LbOptions::default())
        })
        .expect("the evaluation deployment offers every function");
    let (lb, _) = pass(tr, "core.fig4.lb", Strategy::LoadBalanced, Some(&weights));

    let max_load =
        |dp: &DataPlane| LoadReport::from_loads(&inp.world.deployment, &dp.loads).overall_max();
    let (hp_max, lb_max) = (max_load(&hp), max_load(&lb));
    checks.check(lb_max <= hp_max, || {
        format!("LB max load {lb_max} exceeds HP max load {hp_max}")
    });
    let digest = format!(
        "hp[{}] rand[{}] lb[{}] lambda={:?} pivots={} vars={} constraints={}",
        hp.digest(&inp.world),
        rand.digest(&inp.world),
        lb.digest(&inp.world),
        report.lambda,
        report.iterations,
        report.variables,
        report.constraints,
    );
    let mut ops = Ops::aggregate(&hp);
    ops.add(&Ops::aggregate(&rand));
    ops.add(&Ops::aggregate(&lb));
    Comparison {
        digest,
        ops,
        lb,
        weights,
        lb_over_hp_maxload: lb_max as f64 / hp_max.max(1) as f64,
        pivots: report.iterations,
    }
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let shards = shards();
    let mut checks = Checks::default();
    let (inp, setup_s) = repeat_setup(cfg, tr, |tr| {
        let world = World::build(Topo::Campus, PolicyClassCounts::default(), tr);
        let flows = tr.span("workload.generate", || {
            world.flows(cfg.scaled(PACKETS), cfg.seed + 10)
        });
        let specs = to_flow_specs(&flows, 512);
        let packets = flows.iter().map(|f| f.packets).sum();
        let expected = world.expected_function_loads(&flows, |_, f| f.packets);
        let inp = Inputs {
            world,
            flows,
            specs,
            packets,
            expected,
        };
        tr.unrecorded(|tr| compare(&inp, shards, tr, false, &mut checks));
        inp
    });

    let mut last_traced: Option<Comparison> = None;
    let (timing, digest) = measure(cfg, tr, 9, &mut checks, |tr, traced, checks| {
        let c = compare(&inp, shards, tr, traced, checks);
        let digest = c.digest.clone();
        if traced {
            last_traced = Some(c);
        }
        digest
    });

    let mut layers = Layers::default();
    if let Some(c) = &last_traced {
        let pass_ms = |name| tr.median_ms(name);
        let run_ns =
            (pass_ms("core.fig4.hp") + pass_ms("core.fig4.rand") + pass_ms("core.fig4.lb")) * 1e6;
        let speedup = shard_speedup(&inp, shards);
        let model = ModelInputs {
            world: &inp.world,
            flows: &inp.flows,
            schedule: Schedule { stride: 0, gap: 0 },
            options: EnforcementOptions::default(),
            strategy: Strategy::LoadBalanced,
            weights: Some(&c.weights),
            packet_level: false,
            parallelism: speedup,
        };
        // Counts that are per pass (entries, steering, telemetry
        // histograms) are reported for the LB pass, the one the figure is
        // about; operation counts cover all three.
        cost_model(&model, &c.lb, &c.ops, run_ns, &mut layers);
        layers.set("core.fig4.hp_ms", pass_ms("core.fig4.hp"));
        layers.set("core.fig4.rand_ms", pass_ms("core.fig4.rand"));
        layers.set("core.fig4.lb_ms", pass_ms("core.fig4.lb"));
        layers.set(
            "core.lp_model.cold_solve_ms",
            pass_ms("core.lp_model.cold_solve"),
        );
        layers.set("lp.simplex.pivots_per_solve", c.pivots as f64);
        layers.set("core.lp_model.lb_over_hp_maxload", c.lb_over_hp_maxload);
        layers.set("core.shard.speedup_2", speedup);
        layers.set(
            "core.controller.build_ms",
            tr.median_ms("core.controller.build"),
        );
        layers.set("workload.generate_ms", tr.median_ms("workload.generate"));
        layers.set("trace.overhead_share", timing.overhead_share());
    }

    Outcome {
        iter_ms: vec![timing.untraced_ms],
        units_per_iter: 3.0 * inp.packets as f64,
        setup_s,
        checks,
        digest,
        layers,
        shards,
    }
}

/// One-shard over `shards`-shard wall time of the HP pass (median of
/// three each, alternating); 1 on a single-core host.
fn shard_speedup(inp: &Inputs, shards: usize) -> f64 {
    let time = |n| {
        let t = Instant::now();
        let run = inp.world.controller.run_sharded(
            Strategy::HotPotato,
            None,
            EnforcementOptions::default(),
            &inp.specs,
            n,
        );
        std::hint::black_box(run.events);
        t.elapsed().as_secs_f64()
    };
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        one.push(time(1));
        many.push(time(shards));
    }
    median(&one) / median(&many)
}
