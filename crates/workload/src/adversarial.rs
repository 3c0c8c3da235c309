//! Adversarial and stress workloads for the policy-state scaling
//! experiments (PR 9): traffic mixes whose *flow-table* behavior — not
//! their volume — is the stressor.
//!
//! * [`flash_crowd`] — a thundering herd of distinct sources hammering one
//!   policy's destination service: positive-cache churn concentrated on
//!   one device chain.
//! * [`exhaustion_attack`] — millions of one-packet flows that match *no*
//!   policy: every packet is a classification miss that installs a
//!   negative-cache entry, the paper's flow-table exhaustion attack
//!   against soft-state proxies. The capped set-associative negative
//!   cache ([`sdm_policy::NegativeCache`]) bounds the memory this can pin.

use sdm_netsim::{AddressPlan, FiveTuple, Protocol, StubId};
use sdm_policy::{ClassifierKind, LocalClassifier, PolicyId, PolicySet};
use sdm_util::rng::StdRng;

use crate::flows::Flow;
use crate::policies::{GeneratedPolicies, PolicyClass};

/// Sentinel policy id carried by attack flows that intentionally match no
/// policy (a real id would claim a first-match that does not exist).
pub const NO_POLICY: PolicyId = PolicyId(u32::MAX);

/// The device classifier compiled over a whole set: the generators verify
/// one candidate tuple per emitted flow, which the `PolicySet::first_match`
/// scan makes quadratic on a 2,000-rule set.
fn compiled(set: &PolicySet) -> LocalClassifier {
    LocalClassifier::new(set.project_all(), ClassifierKind::default())
}

/// Generates a flash crowd: `flows` one-to-few-packet flows from distinct
/// sources, all first-matching the same many-to-one policy (same
/// destination service), so one proxy/middlebox chain absorbs the entire
/// herd.
///
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `policies` has no many-to-one policy or the plan has fewer
/// than two stubs.
pub fn flash_crowd(
    policies: &GeneratedPolicies,
    addrs: &AddressPlan,
    flows: usize,
    seed: u64,
) -> Vec<Flow> {
    assert!(addrs.stub_count() >= 2, "need at least two stub networks");
    let targets = policies.of_class(PolicyClass::ManyToOne);
    assert!(!targets.is_empty(), "flash crowd needs a many-to-one policy");
    let mut rng = StdRng::seed_from_u64(seed);
    let p = targets[rng.gen_range(0..targets.len())];
    let m = policies.endpoints(p);
    let dst_stub = m.dst.expect("many-to-one policies pin a destination");
    let dst = addrs.host(dst_stub, 0);

    let n_stubs = addrs.stub_count() as u32;
    let classifier = cfg!(debug_assertions).then(|| compiled(&policies.set));
    let mut out = Vec::with_capacity(flows);
    for i in 0..flows {
        // distinct sources: walk stubs and host indices deterministically,
        // randomize the ephemeral port
        let mut src_stub = StubId((i as u32) % n_stubs);
        if src_stub == dst_stub {
            src_stub = StubId((src_stub.0 + 1) % n_stubs);
        }
        let host = ((i as u32) / n_stubs) % 1000;
        let five_tuple = FiveTuple {
            src: addrs.host(src_stub, host),
            dst,
            src_port: rng.gen_range(10_000u16..60_000),
            dst_port: m.service,
            proto: Protocol::Tcp,
        };
        debug_assert_eq!(
            classifier
                .as_ref()
                .and_then(|c| c.first_match(&five_tuple))
                .map(|(id, _)| id),
            Some(p),
            "flash-crowd flow must hit its target policy"
        );
        out.push(Flow {
            five_tuple,
            packets: 1 + (i as u64 % 3),
            policy: p,
        });
    }
    out
}

/// Generates the flow-table exhaustion attack: `flows` distinct
/// one-packet five-tuples, none of which matches any policy in `set` —
/// every packet forces a full classification miss and a negative-cache
/// insert at its proxy. Flows carry the [`NO_POLICY`] sentinel id.
///
/// Candidate tuples walk destination ports downward from 65535 (far above
/// the evaluation service ranges) and are *verified* against the set's
/// first-match semantics (through the compiled [`LocalClassifier`]); any
/// colliding port is skipped, so the guarantee holds for arbitrary policy
/// sets.
///
/// Deterministic: the construction is a pure enumeration (no RNG), so the
/// same `(set, addrs, flows)` always yields the same list.
///
/// # Panics
///
/// Panics if the plan has fewer than two stubs, or if fewer than 1024
/// destination ports above 32768 are policy-free (no realistic policy set
/// comes close).
pub fn exhaustion_attack(set: &PolicySet, addrs: &AddressPlan, flows: usize) -> Vec<Flow> {
    assert!(addrs.stub_count() >= 2, "need at least two stub networks");
    let set = compiled(set);
    // Pre-screen a bank of policy-free destination ports with a probe
    // tuple, then re-verify each emitted tuple (descriptors could in
    // principle match on src fields too).
    let probe_src = addrs.host(StubId(0), 0);
    let probe_dst = addrs.host(StubId(1), 0);
    let mut ports = Vec::with_capacity(1024);
    for port in (32_768..=65_535u16).rev() {
        let probe = FiveTuple {
            src: probe_src,
            dst: probe_dst,
            src_port: 10_000,
            dst_port: port,
            proto: Protocol::Tcp,
        };
        if set.first_match(&probe).is_none() {
            ports.push(port);
            if ports.len() == 1024 {
                break;
            }
        }
    }
    assert!(
        ports.len() == 1024,
        "policy set leaves too few high ports unmatched"
    );

    let n_stubs = addrs.stub_count() as u32;
    let mut out = Vec::with_capacity(flows);
    let mut i = 0u64;
    while out.len() < flows {
        // enumerate distinct tuples: port bank × stub × src port × host —
        // the stub cycles early so the attack spreads over every proxy
        let port = ports[(i % 1024) as usize];
        let rest = i / 1024;
        let src_stub = StubId((rest as u32) % n_stubs);
        let rest = rest / n_stubs as u64;
        let src_port = 10_000 + (rest % 50_000) as u16;
        let host = ((rest / 50_000) % 1000) as u32;
        let dst_stub = StubId((src_stub.0 + 1) % n_stubs);
        i += 1;
        let five_tuple = FiveTuple {
            src: addrs.host(src_stub, host),
            dst: addrs.host(dst_stub, host),
            src_port,
            dst_port: port,
            proto: Protocol::Udp,
        };
        if set.first_match(&five_tuple).is_some() {
            continue; // a src-sensitive policy caught this tuple; skip it
        }
        out.push(Flow {
            five_tuple,
            packets: 1,
            policy: NO_POLICY,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{evaluation_policies, PolicyClassCounts};
    use sdm_netsim::AddressPlan;
    use sdm_topology::campus::campus;

    fn world() -> (GeneratedPolicies, AddressPlan) {
        let plan = campus(1);
        let addrs = AddressPlan::new(&plan);
        let gp = evaluation_policies(&addrs, PolicyClassCounts::default(), 3);
        (gp, addrs)
    }

    #[test]
    fn flash_crowd_targets_one_policy() {
        let (gp, addrs) = world();
        let flows = flash_crowd(&gp, &addrs, 2000, 7);
        assert_eq!(flows.len(), 2000);
        let target = flows[0].policy;
        let dst = flows[0].five_tuple.dst;
        for f in &flows {
            assert_eq!(f.policy, target);
            assert_eq!(f.five_tuple.dst, dst, "one destination for the herd");
            let (id, _) = gp.set.first_match(&f.five_tuple).unwrap();
            assert_eq!(id, target);
        }
        // herd comes from many distinct sources
        let sources: std::collections::HashSet<_> =
            flows.iter().map(|f| f.five_tuple.src).collect();
        assert!(sources.len() > 100, "distinct sources: {}", sources.len());
    }

    #[test]
    fn flash_crowd_deterministic_in_seed() {
        let (gp, addrs) = world();
        assert_eq!(flash_crowd(&gp, &addrs, 100, 5), flash_crowd(&gp, &addrs, 100, 5));
        assert_ne!(flash_crowd(&gp, &addrs, 100, 5), flash_crowd(&gp, &addrs, 100, 6));
    }

    #[test]
    fn exhaustion_flows_match_nothing_and_are_distinct() {
        let (gp, addrs) = world();
        let flows = exhaustion_attack(&gp.set, &addrs, 5000);
        assert_eq!(flows.len(), 5000);
        let mut seen = std::collections::HashSet::new();
        for f in &flows {
            assert_eq!(f.packets, 1);
            assert_eq!(f.policy, NO_POLICY);
            assert!(
                gp.set.first_match(&f.five_tuple).is_none(),
                "attack flow {} must not match",
                f.five_tuple
            );
            assert!(seen.insert(f.five_tuple), "duplicate {}", f.five_tuple);
        }
    }

    #[test]
    fn exhaustion_is_deterministic() {
        let (gp, addrs) = world();
        assert_eq!(
            exhaustion_attack(&gp.set, &addrs, 300),
            exhaustion_attack(&gp.set, &addrs, 300)
        );
    }
}
