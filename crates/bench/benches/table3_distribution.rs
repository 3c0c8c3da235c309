//! Benchmark wrapper for the **Table III** pipeline (campus load
//! distribution) at a reduced volume, printing the reduced-scale table.
//! The canonical full-scale table is produced by
//! `cargo run --release -p sdm-bench --bin table3_distribution`.

use std::hint::black_box;

use sdm_bench::{ExperimentConfig, World, PLOT_ORDER};
use sdm_util::bench::Runner;

fn main() {
    let world = World::build(&ExperimentConfig::campus(3));
    let flows = world.flows(200_000, 42);
    let cmp = world.compare_strategies(&flows);
    eprintln!("table3 (reduced 200k pkts): type max/min per strategy");
    for f in PLOT_ORDER {
        eprintln!(
            "  {:<4} HP {:>8}/{:<8} Rand {:>8}/{:<8} LB {:>8}/{:<8}",
            f.abbrev(),
            cmp.hp.report.row(f).map_or(0, |r| r.max),
            cmp.hp.report.row(f).map_or(0, |r| r.min),
            cmp.rand.report.row(f).map_or(0, |r| r.max),
            cmp.rand.report.row(f).map_or(0, |r| r.min),
            cmp.lb.report.row(f).map_or(0, |r| r.max),
            cmp.lb.report.row(f).map_or(0, |r| r.min),
        );
    }

    let group = Runner::new("table3_distribution");
    group.bench("load_distribution_200k", || {
        let cmp = world.compare_strategies(&flows);
        black_box(cmp.lb.report.overall_max())
    });
}
