//! Micro-benchmark: solving the load-balancing LPs — the reduced Eq. (2)
//! formulation at campus scale, and the full Eq. (1) formulation on a
//! smaller instance.

use std::hint::black_box;

use sdm_bench::{ExperimentConfig, World};
use sdm_core::{LbOptions, Strategy};
use sdm_util::bench::Runner;
use sdm_workload::PolicyClassCounts;

fn main() {
    let group = Runner::new("lp_solve");

    // campus-scale Eq. (2)
    let world = World::build(&ExperimentConfig::campus(3));
    let flows = world.flows(500_000, 5);
    let measured = world.run_strategy(Strategy::HotPotato, None, &flows);
    group.bench("eq2_campus", || {
        black_box(
            world
                .controller
                .solve_load_balanced(&measured.measurements, LbOptions::default())
                .unwrap(),
        )
    });

    // smaller instance for Eq. (1)
    let mut cfg = ExperimentConfig::campus(3);
    cfg.policy_counts = PolicyClassCounts {
        many_to_one: 3,
        one_to_many: 3,
        one_to_one: 3,
        companions: false,
    };
    let world_small = World::build(&cfg);
    let flows = world_small.flows(200_000, 5);
    let measured = world_small.run_strategy(Strategy::HotPotato, None, &flows);
    group.bench("eq1_campus_small", || {
        black_box(
            world_small
                .controller
                .solve_load_balanced_full(&measured.measurements, LbOptions::default())
                .unwrap(),
        )
    });
    group.bench("eq2_campus_small", || {
        black_box(
            world_small
                .controller
                .solve_load_balanced(&measured.measurements, LbOptions::default())
                .unwrap(),
        )
    });

}
