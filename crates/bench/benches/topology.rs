//! Micro-benchmark: topology substrate — OSPF convergence (all-pairs
//! Dijkstra) on both evaluation networks, generator cost, and workload
//! generation throughput.

use std::hint::black_box;

use sdm_netsim::AddressPlan;
use sdm_util::bench::Runner;
use sdm_workload::{evaluation_policies, generate_flows, PolicyClassCounts, WorkloadConfig};

fn main() {
    let group = Runner::new("topology");

    group.bench("campus_generate", || {
        black_box(sdm_topology::campus::campus(3))
    });
    group.bench("waxman_generate", || {
        black_box(sdm_topology::waxman::waxman(3))
    });

    let campus = sdm_topology::campus::campus(3);
    group.bench("campus_ospf_convergence", || {
        black_box(campus.topology().routing_tables())
    });
    let waxman = sdm_topology::waxman::waxman(3);
    group.bench("waxman_ospf_convergence", || {
        black_box(waxman.topology().routing_tables())
    });

    let group = Runner::new("workload");
    let addrs = AddressPlan::new(&campus);
    let gp = evaluation_policies(&addrs, PolicyClassCounts::default(), 3);
    let cfg = WorkloadConfig {
        flows: 10_000,
        ..Default::default()
    };
    group.bench("generate_10k_flows", || {
        black_box(generate_flows(&gp, &addrs, &cfg).len())
    });
}
