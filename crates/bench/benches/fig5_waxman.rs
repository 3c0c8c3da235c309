//! Benchmark wrapper for the **Figure 5** pipeline (Waxman topology,
//! HP vs Rand vs LB) at a reduced volume. The canonical full-scale table
//! is produced by `cargo run --release -p sdm-bench --bin fig5_waxman`.

use std::hint::black_box;

use sdm_bench::{figure_header, figure_row, ExperimentConfig, World};
use sdm_util::bench::Runner;

fn main() {
    let world = World::build(&ExperimentConfig::waxman(3));
    let flows = world.flows(200_000, 5);

    let cmp = world.compare_strategies(&flows);
    eprintln!("fig5 (reduced 200k pkts)\n{}\n{}", figure_header(), figure_row(200_000, &cmp));

    let group = Runner::new("fig5_waxman");
    group.bench("three_strategy_comparison_200k", || {
        black_box(world.compare_strategies(&flows).lb_report.lambda)
    });
}
