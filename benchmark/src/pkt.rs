//! The three packet-level campus workloads: `campus_pkt_burst`,
//! `campus_pkt_label_paced` and `campus_churn_2k`. One iteration builds a
//! fresh `Enforcement`, injects every packet individually, runs to idle
//! and scrapes the counters.

use sdm_core::{EnforcementOptions, SteeringEncoding, Strategy};
use sdm_netsim::SimTime;
use sdm_workload::{exhaustion_attack, flash_crowd, Flow, PolicyClassCounts};

use crate::dataplane::DataPlane;
use crate::harness::{measure, repeat_setup, Checks, Outcome, RunCfg};
use crate::metrics::Layers;
use crate::span::Tracer;
use crate::units::{cost_model, ModelInputs, Ops, Schedule};
use crate::world::{Topo, World};

/// What distinguishes one packet-level workload from another.
pub struct PktParams {
    pub policy_counts: PolicyClassCounts,
    /// Packets of bounded-Pareto policy traffic.
    pub base_packets: u64,
    /// One-packet flash-crowd flows, in [`FLASH_HERDS`] herds of distinct
    /// sources, each herd onto one many-to-one policy.
    pub flash_flows: u64,
    /// One-packet flows matching no policy (negative-cache pressure).
    pub attack_flows: u64,
    pub encoding: SteeringEncoding,
    pub schedule: Schedule,
    /// `(flow_ttl, label_ttl, neg_cache_sets)` where the workload departs
    /// from `EnforcementOptions::default()`.
    pub soft_state: Option<(u64, u64, usize)>,
    pub min_iters: usize,
}

pub const BURST: PktParams = PktParams {
    policy_counts: DEFAULT_POLICIES,
    base_packets: 1_000_000,
    flash_flows: 0,
    attack_flows: 0,
    encoding: SteeringEncoding::IpOverIp,
    schedule: Schedule { stride: 0, gap: 0 },
    soft_state: None,
    min_iters: 9,
};

pub const LABEL_PACED: PktParams = PktParams {
    encoding: SteeringEncoding::LabelSwitching,
    schedule: Schedule { stride: 1, gap: 4 },
    ..BURST
};

pub const CHURN_2K: PktParams = PktParams {
    policy_counts: PolicyClassCounts {
        many_to_one: 1000,
        one_to_many: 10,
        one_to_one: 1000,
        companions: false,
    },
    base_packets: 300_000,
    flash_flows: 150_000,
    attack_flows: 150_000,
    schedule: Schedule { stride: 1, gap: 2 },
    soft_state: Some((20_000, 20_000, 512)),
    ..BURST
};

/// The flash crowd is drawn as this many herds. A herd's cost under the
/// default linear classifier grows with its target rule's position in
/// the table, so one herd would make iteration time a lottery over
/// `--seed` (±13% at 2,010 rules); thirty average it to about ±2.5%.
const FLASH_HERDS: u64 = 30;

/// `PolicyClassCounts::default()` (10 + 10 + 10), spelled out because the
/// workload tables are constants.
const DEFAULT_POLICIES: PolicyClassCounts = PolicyClassCounts {
    many_to_one: 10,
    one_to_many: 10,
    one_to_one: 10,
    companions: false,
};

struct Inputs {
    world: World,
    flows: Vec<Flow>,
    packets: u64,
    expected: [u64; 4],
}

fn setup(p: &PktParams, cfg: &RunCfg, tr: &mut Tracer) -> Inputs {
    let world = World::build(Topo::Campus, p.policy_counts, tr);
    let flows = tr.span("workload.generate", || {
        let addrs = world.controller.addr_plan();
        let mut flows = world.flows(cfg.scaled(p.base_packets), cfg.seed + 10);
        if p.flash_flows > 0 {
            let per_herd = (cfg.scaled(p.flash_flows) / FLASH_HERDS) as usize;
            for herd in 0..FLASH_HERDS {
                let seed = cfg.seed + 11 + herd;
                flows.extend(flash_crowd(&world.generated, addrs, per_herd, seed));
            }
        }
        if p.attack_flows > 0 {
            let n = cfg.scaled(p.attack_flows) as usize;
            flows.extend(exhaustion_attack(&world.generated.set, addrs, n));
        }
        flows
    });
    let packets = flows.iter().map(|f| f.packets).sum();
    let expected = world.expected_function_loads(&flows, |_, f| f.packets);
    Inputs {
        world,
        flows,
        packets,
        expected,
    }
}

impl PktParams {
    fn options(&self) -> EnforcementOptions {
        let mut options = EnforcementOptions {
            encoding: self.encoding,
            ..EnforcementOptions::default()
        };
        if let Some((flow_ttl, label_ttl, neg_sets)) = self.soft_state {
            options.flow_ttl = flow_ttl;
            options.label_ttl = label_ttl;
            options.neg_cache_sets = neg_sets;
        }
        options
    }

    /// One iteration: a fresh `Enforcement`, every packet injected, run to
    /// idle, counters scraped and checked.
    fn iterate(
        &self,
        inp: &Inputs,
        tr: &mut Tracer,
        traced: bool,
        checks: &mut Checks,
    ) -> DataPlane {
        let options = EnforcementOptions {
            telemetry: Some(traced),
            ..self.options()
        };
        let mut enf = tr.span("core.controller.enforcement", || {
            inp.world
                .controller
                .enforcement(Strategy::HotPotato, None, options)
        });
        tr.span("netsim.inject", || {
            for (i, f) in inp.flows.iter().enumerate() {
                let start = SimTime(i as u64 * self.schedule.stride);
                enf.inject_flow_packets(f.five_tuple, f.packets, 512, start, self.schedule.gap);
            }
        });
        let events = tr.span("netsim.run", || enf.run());
        let dp = tr.span("scrape", || {
            DataPlane::of_enforcement(&inp.world, &enf, events)
        });
        dp.check(&inp.world, inp.packets, inp.expected, checks);
        dp
    }
}

pub fn run(p: &PktParams, cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let mut checks = Checks::default();
    let (inp, setup_s) = repeat_setup(cfg, tr, |tr| {
        let inp = setup(p, cfg, tr);
        tr.unrecorded(|tr| p.iterate(&inp, tr, false, &mut checks));
        inp
    });

    let mut last_traced: Option<DataPlane> = None;
    let (timing, digest) = measure(cfg, tr, p.min_iters, &mut checks, |tr, traced, checks| {
        let dp = p.iterate(&inp, tr, traced, checks);
        let digest = dp.digest(&inp.world);
        if traced {
            last_traced = Some(dp);
        }
        digest
    });

    let mut layers = Layers::default();
    if let Some(dp) = &last_traced {
        let run_ns = tr.median_ms("netsim.run") * 1e6;
        let model = ModelInputs {
            world: &inp.world,
            flows: &inp.flows,
            schedule: p.schedule,
            options: p.options(),
            strategy: Strategy::HotPotato,
            weights: None,
            packet_level: true,
            parallelism: 1.0,
        };
        cost_model(&model, dp, &Ops::packet_level(dp), run_ns, &mut layers);
        layers.set(
            "netsim.inject_ns_per_pkt",
            tr.median_ms("netsim.inject") * 1e6 / inp.packets as f64,
        );
        layers.set(
            "core.controller.build_ms",
            tr.median_ms("core.controller.build"),
        );
        layers.set(
            "core.controller.enforcement_build_ms",
            tr.median_ms("core.controller.enforcement"),
        );
        layers.set("workload.generate_ms", tr.median_ms("workload.generate"));
        layers.set("trace.overhead_share", timing.overhead_share());
    }

    Outcome {
        iter_ms: vec![timing.untraced_ms],
        units_per_iter: inp.packets as f64,
        setup_s,
        checks,
        digest,
        layers,
        shards: 1,
    }
}
