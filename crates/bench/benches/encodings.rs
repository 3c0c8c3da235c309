//! Benchmark wrapper for the steering-encoding ablation: runtime cost of
//! steering one workload under IP-over-IP, label switching and strict
//! source routing. The full-detail table comes from `sdm label-switching`.

use std::hint::black_box;

use sdm_bench::{ExperimentConfig, World};
use sdm_core::{EnforcementOptions, SteeringEncoding, Strategy};
use sdm_netsim::SimTime;
use sdm_util::bench::Runner;
use sdm_workload::WorkloadConfig;

fn main() {
    let world = World::build(&ExperimentConfig::campus(3));
    let flows = sdm_workload::generate_flows(
        &world.generated,
        world.controller.addr_plan(),
        &WorkloadConfig {
            flows: 100,
            seed: 5,
            ..Default::default()
        },
    );
    let group = Runner::new("encodings");
    for (name, encoding) in [
        ("ip_over_ip", SteeringEncoding::IpOverIp),
        ("label_switching", SteeringEncoding::LabelSwitching),
        ("source_routing", SteeringEncoding::SourceRouting),
    ] {
        group.bench(&format!("steer_100_flows_x20/{name}"), || {
            let mut enf = world.controller.enforcement(
                Strategy::HotPotato,
                None,
                EnforcementOptions {
                    encoding,
                    ..Default::default()
                },
            );
            for (i, f) in flows.iter().enumerate() {
                enf.inject_flow_packets(f.five_tuple, 20, 500, SimTime(i as u64), 100);
            }
            enf.run();
            black_box(enf.sim().stats().delivered)
        });
    }
}
