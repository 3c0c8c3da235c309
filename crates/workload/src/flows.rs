//! Flow generation: power-law sizes, one third of flows per policy class
//! (§IV.A), each flow synthesized to first-match its intended policy.

use sdm_util::rng::StdRng;
use sdm_netsim::{AddressPlan, FiveTuple, Protocol, StubId};
use sdm_policy::PolicyId;

use crate::policies::GeneratedPolicies;

/// One generated flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// The flow identifier (matches `policy` as its first match).
    pub five_tuple: FiveTuple,
    /// Number of packets in the flow (power-law distributed).
    pub packets: u64,
    /// The policy this flow was synthesized for.
    pub policy: PolicyId,
}

/// Parameters of the flow generator (§IV.A defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of flows to generate (the paper sweeps 30k–300k).
    pub flows: usize,
    /// Smallest flow size in packets.
    pub size_min: u64,
    /// Largest flow size in packets.
    pub size_max: u64,
    /// Bounded-Pareto shape parameter; smaller values produce heavier
    /// tails. The default 0.65 yields a mean flow size of ≈35 packets,
    /// matching the paper's totals (1M–10M packets from 30k–300k flows).
    pub alpha: f64,
    /// Payload bytes per packet.
    pub payload: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            flows: 30_000,
            size_min: 1,
            size_max: 5_000,
            alpha: 0.65,
            payload: 512,
            seed: 1,
        }
    }
}

/// Bounded-Pareto sample via inverse CDF.
fn pareto_size(rng: &mut StdRng, cfg: &WorkloadConfig) -> u64 {
    let (l, h, a) = (cfg.size_min as f64, cfg.size_max as f64, cfg.alpha);
    let u: f64 = rng.gen_range(0.0..1.0);
    let la = l.powf(-a);
    let ha = h.powf(-a);
    let x = (la - u * (la - ha)).powf(-1.0 / a);
    (x as u64).clamp(cfg.size_min, cfg.size_max)
}

/// An ephemeral source port; unique-ish per flow so 5-tuples rarely
/// collide.
fn ephemeral_port(rng: &mut StdRng) -> u16 {
    rng.gen_range(10_000u16..60_000)
}

fn random_other_stub(rng: &mut StdRng, n: u32, not: StubId) -> StubId {
    loop {
        let s = StubId(rng.gen_range(0..n));
        if s != not {
            return s;
        }
    }
}

/// Generates `cfg.flows` flows, one third per policy class, each matching
/// its intended policy as the network-wide first match.
///
/// # Panics
///
/// Panics if `policies` contains no policies or the plan has fewer than
/// two stubs.
///
/// # Example
///
/// ```
/// use sdm_workload::*;
/// use sdm_netsim::AddressPlan;
///
/// let plan = sdm_topology::campus::campus(1);
/// let addrs = AddressPlan::new(&plan);
/// let gp = evaluation_policies(&addrs, PolicyClassCounts::default(), 7);
/// let flows = generate_flows(&gp, &addrs, &WorkloadConfig { flows: 100, ..Default::default() });
/// assert_eq!(flows.len(), 100);
/// for f in &flows {
///     let (id, _) = gp.set.first_match(&f.five_tuple).unwrap();
///     assert_eq!(id, f.policy);
/// }
/// ```
pub fn generate_flows(
    policies: &GeneratedPolicies,
    addrs: &AddressPlan,
    cfg: &WorkloadConfig,
) -> Vec<Flow> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.flows);
    generate_into(policies, addrs, cfg, &mut rng, &mut out, FlowBudget::Count(cfg.flows));
    out
}

/// Generates flows until their cumulative packet count reaches
/// `target_packets` (the x-axis of Figures 4–5). The flow mix and sizes
/// follow the same distributions as [`generate_flows`].
///
/// # Panics
///
/// Same conditions as [`generate_flows`].
pub fn generate_flows_with_total(
    policies: &GeneratedPolicies,
    addrs: &AddressPlan,
    cfg: &WorkloadConfig,
    target_packets: u64,
) -> Vec<Flow> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::new();
    generate_into(
        policies,
        addrs,
        cfg,
        &mut rng,
        &mut out,
        FlowBudget::Packets(target_packets),
    );
    out
}

enum FlowBudget {
    Count(usize),
    Packets(u64),
}

fn generate_into(
    policies: &GeneratedPolicies,
    addrs: &AddressPlan,
    cfg: &WorkloadConfig,
    rng: &mut StdRng,
    out: &mut Vec<Flow>,
    budget: FlowBudget,
) {
    assert!(!policies.set.is_empty(), "no policies to generate flows for");
    assert!(addrs.stub_count() >= 2, "need at least two stub networks");
    use crate::policies::PolicyClass::*;
    // Rotate over the classes that actually have policies; companions are
    // included only when they were generated.
    let classes: Vec<crate::policies::PolicyClass> = [ManyToOne, OneToMany, OneToOne, Companion]
        .into_iter()
        .filter(|&c| !policies.of_class(c).is_empty())
        .collect();
    let per_class: Vec<Vec<PolicyId>> =
        classes.iter().map(|&c| policies.of_class(c)).collect();
    assert!(
        !classes.is_empty(),
        "policy set contains none of the evaluation classes"
    );
    let n_stubs = addrs.stub_count() as u32;
    // Host draws stay below 1000 (the `/20` worlds' stream) and inside
    // the smaller subnets of a many-stub plan.
    let hosts = addrs.hosts_per_stub().min(1000);
    let mut total: u64 = 0;
    let mut i = 0usize;
    loop {
        match budget {
            FlowBudget::Count(n) => {
                if out.len() >= n {
                    break;
                }
            }
            FlowBudget::Packets(t) => {
                if total >= t {
                    break;
                }
            }
        }
        // round-robin across classes = exact one-third mix
        let class_idx = i % classes.len();
        i += 1;
        let pool = &per_class[class_idx];
        if pool.is_empty() {
            continue;
        }
        let p = pool[rng.gen_range(0..pool.len())];
        let m = policies.endpoints(p);

        let src_stub = m
            .src
            .unwrap_or_else(|| match m.dst {
                Some(d) => random_other_stub(rng, n_stubs, d),
                None => StubId(rng.gen_range(0..n_stubs)),
            });
        let dst_stub = m
            .dst
            .unwrap_or_else(|| random_other_stub(rng, n_stubs, src_stub));

        // Companion policies match *return* web traffic: source port 80,
        // arbitrary destination port; the primary classes match on the
        // destination service port.
        let (src_port, dst_port) = if m.class == Companion {
            (m.service, ephemeral_port(rng))
        } else {
            (ephemeral_port(rng), m.service)
        };
        let five_tuple = FiveTuple {
            src: addrs.host(src_stub, rng.gen_range(0..hosts)),
            dst: addrs.host(dst_stub, rng.gen_range(0..hosts)),
            src_port,
            dst_port,
            proto: Protocol::Tcp,
        };
        let packets = pareto_size(rng, cfg);
        total += packets;
        out.push(Flow {
            five_tuple,
            packets,
            policy: p,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{evaluation_policies, PolicyClass, PolicyClassCounts};
    use sdm_topology::campus::campus;

    fn world() -> (GeneratedPolicies, AddressPlan) {
        let plan = campus(1);
        let addrs = AddressPlan::new(&plan);
        let gp = evaluation_policies(&addrs, PolicyClassCounts::default(), 3);
        (gp, addrs)
    }

    #[test]
    fn flows_first_match_their_policy() {
        let (gp, addrs) = world();
        let flows = generate_flows(
            &gp,
            &addrs,
            &WorkloadConfig {
                flows: 3000,
                ..Default::default()
            },
        );
        assert_eq!(flows.len(), 3000);
        for f in &flows {
            let (id, _) = gp
                .set
                .first_match(&f.five_tuple)
                .expect("generated flow must match");
            assert_eq!(id, f.policy, "flow {} shadowed", f.five_tuple);
        }
    }

    #[test]
    fn class_mix_is_one_third_each() {
        let (gp, addrs) = world();
        let flows = generate_flows(
            &gp,
            &addrs,
            &WorkloadConfig {
                flows: 3000,
                ..Default::default()
            },
        );
        let mut counts = [0usize; 4];
        for f in &flows {
            match gp.endpoints(f.policy).class {
                PolicyClass::ManyToOne => counts[0] += 1,
                PolicyClass::OneToMany => counts[1] += 1,
                PolicyClass::OneToOne => counts[2] += 1,
                PolicyClass::Companion => counts[3] += 1,
            }
        }
        assert_eq!(counts, [1000, 1000, 1000, 0]);
    }

    #[test]
    fn sizes_within_bounds_and_heavy_tailed() {
        let (gp, addrs) = world();
        let cfg = WorkloadConfig {
            flows: 20_000,
            ..Default::default()
        };
        let flows = generate_flows(&gp, &addrs, &cfg);
        let mut max = 0;
        let mut small = 0usize;
        let mut total = 0u64;
        for f in &flows {
            assert!((1..=5000).contains(&f.packets));
            max = max.max(f.packets);
            if f.packets <= 3 {
                small += 1;
            }
            total += f.packets;
        }
        // heavy tail: some large flows exist, many flows are small
        assert!(max > 1000, "max={max}");
        assert!(small > flows.len() * 2 / 5, "small={small}");
        // mean in the ballpark the paper's totals imply (~10-60 pkts/flow)
        let mean = total as f64 / flows.len() as f64;
        assert!((5.0..80.0).contains(&mean), "mean={mean}");
    }

    #[test]
    fn total_targeting_reaches_budget() {
        let (gp, addrs) = world();
        let cfg = WorkloadConfig::default();
        let flows = generate_flows_with_total(&gp, &addrs, &cfg, 100_000);
        let total: u64 = flows.iter().map(|f| f.packets).sum();
        assert!(total >= 100_000);
        assert!(total < 100_000 + 5000); // overshoot bounded by max size
    }

    #[test]
    fn deterministic_in_seed() {
        let (gp, addrs) = world();
        let cfg = WorkloadConfig {
            flows: 100,
            seed: 9,
            ..Default::default()
        };
        assert_eq!(generate_flows(&gp, &addrs, &cfg), generate_flows(&gp, &addrs, &cfg));
        let other = WorkloadConfig { seed: 10, ..cfg };
        assert_ne!(generate_flows(&gp, &addrs, &cfg), generate_flows(&gp, &addrs, &other));
    }

    #[test]
    fn companion_flows_match_their_policy_and_carry_port_80_source() {
        let plan = campus(1);
        let addrs = AddressPlan::new(&plan);
        let counts = crate::policies::PolicyClassCounts {
            companions: true,
            ..Default::default()
        };
        let gp = evaluation_policies(&addrs, counts, 3);
        let flows = generate_flows(
            &gp,
            &addrs,
            &WorkloadConfig {
                flows: 2000,
                ..Default::default()
            },
        );
        let mut saw_companion = false;
        for f in &flows {
            let (id, _) = gp.set.first_match(&f.five_tuple).unwrap();
            assert_eq!(id, f.policy, "flow {} shadowed", f.five_tuple);
            if gp.endpoints(f.policy).class == PolicyClass::Companion {
                saw_companion = true;
                assert_eq!(f.five_tuple.src_port, 80);
                assert_eq!(addrs.stub_of(f.five_tuple.dst), gp.endpoints(f.policy).dst);
            }
        }
        assert!(saw_companion, "companion flows must be generated");
    }

    #[test]
    fn one_to_one_flows_respect_endpoints() {
        let (gp, addrs) = world();
        let flows = generate_flows(
            &gp,
            &addrs,
            &WorkloadConfig {
                flows: 900,
                ..Default::default()
            },
        );
        for f in &flows {
            let m = gp.endpoints(f.policy);
            if m.class == PolicyClass::OneToOne {
                assert_eq!(addrs.stub_of(f.five_tuple.src), m.src);
                assert_eq!(addrs.stub_of(f.five_tuple.dst), m.dst);
            }
        }
    }

    #[test]
    fn flows_on_small_subnets_map_back_to_their_stubs() {
        use sdm_topology::hierarchical::{hierarchical, HierarchicalConfig};
        // 20,480 stubs get /23s: 510 hosts, fewer than the 1000 drawn
        // from on the /20 worlds.
        let addrs = AddressPlan::new(&hierarchical(&HierarchicalConfig::large(), 1));
        assert_eq!(addrs.hosts_per_stub(), 510);
        let gp = evaluation_policies(&addrs, PolicyClassCounts::default(), 3);
        let cfg = WorkloadConfig {
            seed: 1,
            ..Default::default()
        };
        let flows = generate_flows_with_total(&gp, &addrs, &cfg, 200_000);
        assert!(flows.len() > 100, "{} flows", flows.len());
        for f in &flows {
            let (src, dst) = (addrs.stub_of(f.five_tuple.src), addrs.stub_of(f.five_tuple.dst));
            assert!(src.is_some() && dst.is_some(), "flow {} leaves the stubs", f.five_tuple);
            let m = gp.endpoints(f.policy);
            if m.src.is_some() {
                assert_eq!(src, m.src, "flow {}", f.five_tuple);
            }
            if m.dst.is_some() {
                assert_eq!(dst, m.dst, "flow {}", f.five_tuple);
            }
        }
    }
}
