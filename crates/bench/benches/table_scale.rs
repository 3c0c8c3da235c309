//! Policy-state scaling (PR 9): the open-addressed flow cache at 10k /
//! 100k / 1M entries.
//!
//! The `lookup_hot_*` series probes the *same* 512-flow working set
//! against tables of increasing size, so the measured growth isolates the
//! structural cost (probe lengths, resize residue) from memory-system
//! effects — the working set is small enough that its probe cells and slab
//! lines stay TLB/L2-resident even inside the 1M-entry table's ~48 MB
//! footprint (a larger hot set measures page-walk latency on the probe
//! array, which any million-entry structure pays identically). That ratio
//! (`lookup_hot_1m / lookup_hot_10k ≤ 1.5×`) is the scaling target.
//! `lookup_cold_1m` walks all million keys and is informational (it mostly
//! measures the memory system). Recorded counters carry the memory side:
//! `bytes_per_entry_*` (allocation ÷ occupancy) and the negative-cache
//! exhaustion-attack outcome (`negcache_len_attack` must stay at or below
//! `negcache_cap_attack` no matter how many one-packet attack flows hit
//! the table — asserted by `flow_table::tests::negative_side_is_capacity_capped`).

use std::hint::black_box;

use sdm_netsim::{AddressPlan, FiveTuple, Ipv4Addr, Protocol, SimTime};
use sdm_policy::{ActionList, FlowTable, NetworkFunction, PolicyId};
use sdm_topology::hierarchical::{hierarchical, HierarchicalConfig};
use sdm_util::bench::Runner;
use sdm_workload::{
    elephant_skew, evaluation_policies, flash_crowd, ElephantSkewConfig, PolicyClassCounts,
};

/// Distinct five-tuples; `i` feeds the source address directly so any
/// count up to 2^24 stays collision-free.
fn flows(n: usize) -> Vec<FiveTuple> {
    (0..n as u32)
        .map(|i| FiveTuple {
            src: Ipv4Addr(0x0a00_0000 + i),
            dst: Ipv4Addr(0x0a10_0000 + (i % 999)),
            src_port: (1000 + i % 50_000) as u16,
            dst_port: 80,
            proto: Protocol::Tcp,
        })
        .collect()
}

fn filled(fts: &[FiveTuple]) -> FlowTable {
    let mut table = FlowTable::new(u64::MAX / 2);
    let actions = ActionList::chain([NetworkFunction::Firewall]);
    for ft in fts {
        table.insert_positive(*ft, PolicyId(0), actions.clone(), SimTime(0));
    }
    table
}

const HOT: usize = 512;

fn main() {
    let fts = flows(1_000_000);
    let group = Runner::new("table_scale");

    // --- hot-working-set lookups across table sizes ---------------------
    for &(label, size) in &[("10k", 10_000usize), ("100k", 100_000), ("1m", 1_000_000)] {
        let mut table = filled(&fts[..size]);
        let mut i = 0;
        group.bench(&format!("lookup_hot_{label}"), || {
            i = (i + 1) % HOT;
            black_box(table.lookup(fts[i], SimTime(1), 1).is_some())
        });
        group.record(
            &format!("bytes_per_entry_{label}"),
            table.allocated_bytes() as f64 / table.len() as f64,
        );
    }

    // --- cold sweep over the full million (informational) ---------------
    {
        let mut table = filled(&fts);
        let mut i = 0;
        group.bench("lookup_cold_1m", || {
            i = (i + 1) % fts.len();
            black_box(table.lookup(fts[i], SimTime(1), 1).is_some())
        });
    }

    // --- steady-state insert (replace) at 100k ---------------------------
    {
        let mut table = filled(&fts[..100_000]);
        let actions = ActionList::chain([NetworkFunction::Firewall, NetworkFunction::Ids]);
        let mut i = 0;
        group.bench("insert_churn_100k", || {
            i = (i + 1) % 100_000;
            table.insert_positive(fts[i], PolicyId(0), actions.clone(), SimTime(0));
        });
    }

    // --- one amortized sweep step against the million-entry table -------
    {
        let mut table = filled(&fts);
        let mut now = 0u64;
        group.bench("sweep_step_64_1m", || {
            now += 1;
            black_box(table.sweep(SimTime(now), 64))
        });
    }

    // --- adversarial workload mixes through the cache hot path -----------
    // Flash crowd: distinct sources, one policy — install-then-hit churn
    // concentrated on one destination chain. Elephant skew: 10 elephants
    // among 100k mice — the steady state is mouse installs punctuated by
    // elephant run-hits.
    {
        let plan = sdm_topology::campus::campus(1);
        let addrs = AddressPlan::new(&plan);
        let gp = evaluation_policies(&addrs, PolicyClassCounts::default(), 3);
        let crowd = flash_crowd(&gp, &addrs, 100_000, 9);
        let mut table = FlowTable::new(u64::MAX / 2);
        let mut i = 0;
        group.bench("flash_crowd_churn_100k", || {
            i = (i + 1) % crowd.len();
            let f = &crowd[i];
            if table.lookup(f.five_tuple, SimTime(1), 1).is_none() {
                let actions = gp.set.get(f.policy).expect("crowd policy").actions.clone();
                table.insert_positive(f.five_tuple, f.policy, actions, SimTime(1));
            }
            black_box(table.len())
        });
        group.record("flash_crowd_classes", table.policy_classes() as f64);

        let mix = elephant_skew(
            &gp,
            &addrs,
            &ElephantSkewConfig { flows: 100_000, ..ElephantSkewConfig::default() },
        );
        let mut table = FlowTable::new(u64::MAX / 2);
        let mut i = 0;
        group.bench("elephant_skew_100k", || {
            i = (i + 1) % mix.len();
            let f = &mix[i];
            match table.lookup(f.five_tuple, SimTime(1), 1) {
                Some(_) => table.record_run_hit(f.packets.saturating_sub(1)),
                None => {
                    let actions = gp.set.get(f.policy).expect("mix policy").actions.clone();
                    table.insert_positive(f.five_tuple, f.policy, actions, SimTime(1));
                }
            }
            black_box(table.len())
        });
    }

    // --- the ISP-scale topology axis (informational records) -------------
    // tens of thousands of routers: the table population above is the flow
    // state such a composition funnels through each border proxy
    {
        let cfg = HierarchicalConfig::large();
        let plan = hierarchical(&cfg, 5);
        group.record("hierarchical_nodes", plan.topology().node_count() as f64);
        group.record("hierarchical_links", plan.topology().link_count() as f64);
    }

    // --- exhaustion attack: a million one-packet no-match flows ----------
    // 1024 sets × 8 ways = 8192-entry cap; the table must shed the rest.
    {
        let mut table = FlowTable::with_negative_sets(u64::MAX / 2, 1024);
        for ft in &fts {
            table.insert_negative(*ft, SimTime(0));
        }
        group.record("negcache_len_attack", table.negative_len() as f64);
        group.record("negcache_cap_attack", table.negative_capacity() as f64);
        group.record("negcache_evictions_attack", table.negative_evictions() as f64);
        group.record(
            "negcache_bytes_attack",
            (table.allocated_bytes() - FlowTable::with_negative_sets(u64::MAX / 2, 1024).allocated_bytes())
                as f64,
        );
    }

}
