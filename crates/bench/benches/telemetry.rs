//! Telemetry overhead: the zero-perturbation claim, measured.
//!
//! Two scales:
//!
//! * micro — a single hot-path record call on [`ShardTelemetry`], enabled
//!   vs disabled (the disabled call is the price every run pays);
//! * macro — a full campus enforcement run with telemetry off vs on, the
//!   number EXPERIMENTS.md quotes.

use std::hint::black_box;

use sdm_bench::{ExperimentConfig, World};
use sdm_core::{EnforcementOptions, Strategy};
use sdm_telemetry::{Hop, ShardTelemetry};
use sdm_util::bench::Runner;
use sdm_workload::to_flow_specs;

fn main() {
    let group = Runner::new("telemetry");

    let on = ShardTelemetry::new(true);
    let off = ShardTelemetry::new(false);
    group.bench("record_counter_enabled", || {
        on.steer_decision(black_box(Hop::Proxy));
    });
    group.bench("record_counter_disabled", || {
        off.steer_decision(black_box(Hop::Proxy));
    });
    group.bench("record_hist_enabled", || {
        on.observe_run_length(black_box(17));
    });
    group.bench("record_hist_disabled", || {
        off.observe_run_length(black_box(17));
    });

    // Macro: identical 100k-packet campus runs, telemetry off vs on. The
    // two medians should be statistically indistinguishable — telemetry
    // only adds relaxed atomic increments off the scalar fast path.
    let world = World::build(&ExperimentConfig::campus(3));
    let flows = world.flows(100_000, 7);
    let specs = to_flow_specs(&flows, 512);
    let run = |telemetry: bool| {
        let options = EnforcementOptions {
            telemetry: Some(telemetry),
            ..Default::default()
        };
        let mut enf = world
            .controller
            .enforcement(Strategy::HotPotato, None, options);
        for s in &specs {
            enf.inject_flow(s.flow, s.packets, s.payload);
        }
        enf.run();
        enf.sim().stats().delivered
    };
    group.bench("enforce_100k_telemetry_off", || black_box(run(false)));
    group.bench("enforce_100k_telemetry_on", || black_box(run(true)));

}
