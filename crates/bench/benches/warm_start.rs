//! Micro-benchmark: warm-started vs cold epoch re-solves (§III.C online
//! control loop).
//!
//! The scenario mirrors what `EpochLoop` does every epoch boundary: the
//! traffic matrix drifts (same support, shifting volumes — the common
//! case between adjacent epochs) and the controller re-solves Eq. (2).
//! The cold sweep solves every epoch from scratch; the warm sweep reuses
//! the previous epoch's solved tableaus through [`sdm_core::LbWarmCache`].
//!
//! Alongside the two timings, the group records the summed **simplex
//! pivot counts** of each sweep as `pivots_cold` / `pivots_warm` —
//! deterministic counters `bench_gate` enforces on every host (the
//! warm sweep must pivot less).

use std::hint::black_box;

use sdm_bench::{ExperimentConfig, World};
use sdm_core::{LbOptions, LbWarmCache, Strategy, TrafficMatrix};
use sdm_util::bench::Runner;

/// Epochs in the sweep (first one is necessarily cold in both variants).
const EPOCHS: usize = 8;

/// Deterministic per-epoch drift: same support, volumes scaled per cell
/// so the LP shape is warm-startable but the optimum genuinely moves.
fn drift(base: &TrafficMatrix, epoch: usize) -> TrafficMatrix {
    let mut out = TrafficMatrix::new();
    for (i, (s, d, p, v)) in base.iter().enumerate() {
        let factor = 1.0 + 0.04 * ((i + epoch * 7) % 11) as f64;
        out.record(s, d, p, v * factor);
    }
    out
}

fn main() {
    let mut group = Runner::new("warm_start");

    let world = World::build(&ExperimentConfig::campus(3));
    let flows = world.flows(500_000, 5);
    let measured = world.run_strategy(Strategy::HotPotato, None, &flows);
    let epochs: Vec<TrafficMatrix> =
        (0..EPOCHS).map(|e| drift(&measured.measurements, e)).collect();

    let cold_sweep = || {
        let mut pivots = 0u64;
        for m in &epochs {
            let (_, report) = world
                .controller
                .solve_load_balanced(m, LbOptions::default())
                .unwrap();
            pivots += report.iterations;
        }
        pivots
    };
    let warm_sweep = || {
        let mut cache = LbWarmCache::new();
        let mut pivots = 0u64;
        for m in &epochs {
            let (_, report) = world
                .controller
                .solve_load_balanced_with_cache(m, LbOptions::default(), &mut cache)
                .unwrap();
            pivots += report.iterations;
        }
        pivots
    };

    group.bench("epoch_sweep_cold", || black_box(cold_sweep()));
    group.bench("epoch_sweep_warm", || black_box(warm_sweep()));

    // Deterministic pivot totals across the sweep, for the gate and the
    // EXPERIMENTS.md table.
    let pivots_cold = cold_sweep();
    let pivots_warm = warm_sweep();
    group.record("pivots_cold", pivots_cold as f64);
    group.record("pivots_warm", pivots_warm as f64);
    eprintln!(
        "warm_start: {EPOCHS}-epoch sweep pivots {pivots_warm} warm vs {pivots_cold} cold \
({:.1}% saved)",
        (1.0 - pivots_warm as f64 / pivots_cold as f64) * 100.0
    );

    group.finish();
}
