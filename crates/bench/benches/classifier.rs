//! Micro-benchmark: multi-field classification (§III.D) — the linear
//! first-match scan versus the compiled tuple-space classifier every
//! device runs, across synthetic policy-table sizes and on the largest
//! real campus proxy table (13 rules, three signatures): the small-table
//! case that decides whether one structure can serve every device.

use std::hint::black_box;

use sdm_bench::{ExperimentConfig, World};
use sdm_netsim::{FiveTuple, Ipv4Addr, Prefix, Protocol};
use sdm_policy::{
    ActionList, ClassifierKind, LocalClassifier, NetworkFunction, Policy, PolicySet, PortMatch,
    ProjectedPolicies, TrafficDescriptor,
};
use sdm_util::bench::Runner;

fn synthetic_policies(n: usize) -> PolicySet {
    let mut set = PolicySet::new();
    for i in 0..n {
        let src = Prefix::new(Ipv4Addr(0x0a00_0000 | ((i as u32 * 4096) & 0xFF_FFFF)), 20);
        set.push(Policy::new(
            TrafficDescriptor::new()
                .src_prefix(src)
                .dst_port(PortMatch::Exact((i % 1024) as u16)),
            ActionList::chain([NetworkFunction::Ids]),
        ));
    }
    set
}

fn sample_packets(n: usize) -> Vec<FiveTuple> {
    (0..n as u32)
        .map(|i| FiveTuple {
            src: Ipv4Addr(0x0a00_0000 | ((i * 97) & 0xF_FFFF)),
            dst: Ipv4Addr(0x0a00_0000 | ((i * 131) & 0xF_FFFF)),
            src_port: (i % 50_000) as u16,
            dst_port: ((i % 64) * 16) as u16,
            proto: Protocol::Tcp,
        })
        .collect()
}

/// The campus evaluation world's largest proxy table and the flows that
/// proxy's stub sources.
fn campus_proxy_table() -> (ProjectedPolicies, Vec<FiveTuple>) {
    let world = World::build(&ExperimentConfig::campus(3));
    let addrs = world.controller.addr_plan();
    let (stub, table) = addrs
        .stubs()
        .map(|s| (s, world.controller.proxy_policies(s)))
        .max_by_key(|(_, t)| t.len())
        .expect("campus has stubs");
    let packets = world
        .flows(1_000_000, 3)
        .iter()
        .map(|f| f.five_tuple)
        .filter(|ft| addrs.stub_of(ft.src) == Some(stub))
        .collect();
    (table, packets)
}

/// `linear/N` and `compiled/N` over one table and packet sample.
fn bench_lookups(group: &Runner, table: &ProjectedPolicies, packets: &[FiveTuple]) {
    let n = table.len();
    for (name, kind) in [
        ("linear", ClassifierKind::Linear),
        ("compiled", ClassifierKind::TupleSpace),
    ] {
        let classifier = LocalClassifier::new(table.clone(), kind);
        let mut i = 0;
        group.bench(&format!("{name}/{n}"), || {
            i = (i + 1) % packets.len();
            black_box(classifier.first_match(&packets[i]))
        });
    }
}

fn main() {
    let group = Runner::new("classifier");
    let (table, packets) = campus_proxy_table();
    bench_lookups(&group, &table, &packets);
    let packets = sample_packets(1024);
    for n in [32usize, 256, 2048] {
        let table = synthetic_policies(n).project_all();
        bench_lookups(&group, &table, &packets);
        // what `Controller::enforcement` pays per device: the projection
        // (cloned here, built there) plus the index over it
        group.bench(&format!("compiled_build/{n}"), || {
            black_box(LocalClassifier::new(table.clone(), ClassifierKind::TupleSpace))
        });
    }
}
