//! Static enforcement-plan verification smoke: builds the paper's campus
//! and Waxman evaluation worlds and runs the `sdm-verify` plan verifier
//! over both — once on the hot-potato plan straight out of the controller,
//! and once on the full load-balanced plan (LP steering weights plus
//! enforcement options) after a measurement workload.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin verify_plan
//!     [--seed N]      world seed (default 3)
//!     [--packets N]   measurement workload, in packets (default 200000)
//!
//! One JSON report per (topology, pass) is printed; a healthy world
//! produces `"errors": 0` everywhere. Exit status: 0 when every report is
//! error-free, 1 otherwise — ci.sh runs this as an offline gate.

use std::process::ExitCode;

use sdm_bench::{arg_num, ExperimentConfig, World};
use sdm_core::{
    verify_controller, verify_enforcement, EnforcementOptions, LbOptions, Strategy,
};
use sdm_util::json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 3);
    let packets: u64 = arg_num(&args, "--packets", 200_000);

    let mut failed = false;
    for (name, cfg) in [
        ("campus", ExperimentConfig::campus(seed)),
        ("waxman", ExperimentConfig::waxman(seed)),
    ] {
        let world = World::build(&cfg);

        // Pass 1: the static hot-potato plan (no weights, no options).
        let static_report = verify_controller(&world.controller);

        // Pass 2: measure a workload, solve the load-balancing LP, and
        // verify the complete enforcement configuration the LB strategy
        // would run with.
        let flows = world.flows(packets, seed.wrapping_add(17));
        let hp = world.run_strategy(Strategy::HotPotato, None, &flows);
        let (weights, _lb_report) = world
            .controller
            .solve_load_balanced(&hp.measurements, LbOptions::default())
            .expect("load-balancing LP must solve on the evaluation worlds");
        let options = EnforcementOptions::default();
        let lb_report = verify_enforcement(&world.controller, Some(&weights), &options);

        failed |= static_report.has_errors() || lb_report.has_errors();
        let out = Json::obj([
            ("topology", Json::from(name)),
            ("static", static_report.to_json()),
            ("load_balanced", lb_report.to_json()),
        ]);
        println!("{}", out.to_string_pretty());
    }

    if failed {
        eprintln!("verify_plan: plan verification FAILED (see reports above)");
        ExitCode::from(1)
    } else {
        println!("verify_plan: all plans verified clean");
        ExitCode::SUCCESS
    }
}
