//! Generation of the three policy classes of §IV.A.

use sdm_util::rng::StdRng;
use sdm_netsim::{AddressPlan, StubId};
use sdm_policy::{
    ActionList, NetworkFunction, Policy, PolicyId, PolicySet, TrafficDescriptor,
};

/// The class of a generated policy (§IV.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyClass {
    /// Wildcard sources to one destination subnet/service: `FW → IDS`.
    ManyToOne,
    /// One source subnet's web traffic to anywhere: `FW → IDS → WP`.
    OneToMany,
    /// One subnet pair, one service: `IDS → TM`.
    OneToOne,
    /// The many-to-one *companion* of a one-to-many policy (§IV.A: "each
    /// such policy will have a many-to-one companion policy for the return
    /// web traffic"): traffic from port 80 back into the subnet, traversing
    /// the reversed chain `WP → IDS → FW` (Table I, last row).
    Companion,
}

impl PolicyClass {
    /// The action list the paper assigns to this class.
    pub fn actions(self) -> ActionList {
        use NetworkFunction::*;
        match self {
            PolicyClass::ManyToOne => ActionList::chain([Firewall, Ids]),
            PolicyClass::OneToMany => ActionList::chain([Firewall, Ids, WebProxy]),
            PolicyClass::OneToOne => ActionList::chain([Ids, TrafficMonitor]),
            PolicyClass::Companion => ActionList::chain([WebProxy, Ids, Firewall]),
        }
    }
}

/// How many policies of each class to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyClassCounts {
    /// Many-to-one policies.
    pub many_to_one: usize,
    /// One-to-many policies.
    pub one_to_many: usize,
    /// One-to-one policies.
    pub one_to_one: usize,
    /// Also generate the many-to-one *companion* of every one-to-many
    /// policy for its return web traffic (§IV.A). Off by default: the
    /// paper's flow mix assigns flows to the three primary classes only.
    pub companions: bool,
}

impl Default for PolicyClassCounts {
    fn default() -> Self {
        PolicyClassCounts {
            many_to_one: 10,
            one_to_many: 10,
            one_to_one: 10,
            companions: false,
        }
    }
}

/// Metadata describing one generated policy: its class and the concrete
/// endpoints the generator chose (used to synthesize matching flows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyEndpoints {
    /// The class.
    pub class: PolicyClass,
    /// The concrete source subnet, if the class pins one.
    pub src: Option<StubId>,
    /// The concrete destination subnet, if the class pins one.
    pub dst: Option<StubId>,
    /// The destination service port the policy matches.
    pub service: u16,
}

/// A generated policy set plus per-policy metadata.
#[derive(Debug, Clone)]
pub struct GeneratedPolicies {
    /// The network-wide ordered policy list.
    pub set: PolicySet,
    /// Per-policy metadata, indexed by [`PolicyId`].
    pub meta: Vec<PolicyEndpoints>,
}

impl GeneratedPolicies {
    /// Policy ids of one class.
    pub fn of_class(&self, class: PolicyClass) -> Vec<PolicyId> {
        self.meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.class == class)
            .map(|(i, _)| PolicyId(i as u32))
            .collect()
    }

    /// Metadata of one policy.
    pub fn endpoints(&self, p: PolicyId) -> &PolicyEndpoints {
        &self.meta[p.index()]
    }
}

/// Port pools per class, disjoint so no generated policy shadows another:
/// the first match for any synthesized flow is exactly its intended policy.
const MANY_TO_ONE_BASE: u16 = 2000;
const ONE_TO_ONE_BASE: u16 = 3000;
/// One-to-many policies match web traffic.
const HTTP: u16 = 80;

/// Generates the evaluation policy mix of §IV.A over the given addressing
/// plan, deterministically in `seed`.
///
/// * many-to-one: random destination subnet, wildcard source, a dedicated
///   service port, `FW → IDS`;
/// * one-to-many: random source subnet, wildcard destination, port 80,
///   `FW → IDS → WP`;
/// * one-to-one: random subnet pair, dedicated service port, `IDS → TM`.
///
/// # Panics
///
/// Panics if the plan has fewer than two stub networks.
///
/// # Example
///
/// ```
/// use sdm_workload::{evaluation_policies, PolicyClassCounts, PolicyClass};
/// use sdm_netsim::AddressPlan;
///
/// let plan = sdm_topology::campus::campus(1);
/// let addrs = AddressPlan::new(&plan);
/// let gp = evaluation_policies(&addrs, PolicyClassCounts::default(), 7);
/// assert_eq!(gp.set.len(), 30);
/// assert_eq!(gp.of_class(PolicyClass::OneToMany).len(), 10);
/// ```
pub fn evaluation_policies(
    addrs: &AddressPlan,
    counts: PolicyClassCounts,
    seed: u64,
) -> GeneratedPolicies {
    assert!(
        addrs.stub_count() >= 2,
        "need at least two stub networks to generate policies"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = PolicySet::new();
    let mut meta = Vec::new();
    let n_stubs = addrs.stub_count() as u32;

    for i in 0..counts.many_to_one {
        let dst = StubId(rng.gen_range(0..n_stubs));
        let service = MANY_TO_ONE_BASE + i as u16;
        set.push(Policy::new(
            TrafficDescriptor::new()
                .dst_prefix(addrs.subnet(dst))
                .dst_port(service),
            PolicyClass::ManyToOne.actions(),
        ));
        meta.push(PolicyEndpoints {
            class: PolicyClass::ManyToOne,
            src: None,
            dst: Some(dst),
            service,
        });
    }

    // One-to-many policies all match destination port 80, so two with the
    // same source subnet would shadow each other; sample sources without
    // replacement.
    assert!(
        counts.one_to_many <= addrs.stub_count(),
        "at most one one-to-many policy per stub network ({} > {})",
        counts.one_to_many,
        addrs.stub_count()
    );
    let mut src_pool: Vec<u32> = (0..n_stubs).collect();
    for i in (1..src_pool.len()).rev() {
        src_pool.swap(i, rng.gen_range(0..=i));
    }
    for &pool_src in src_pool.iter().take(counts.one_to_many) {
        let src = StubId(pool_src);
        set.push(Policy::new(
            TrafficDescriptor::new()
                .src_prefix(addrs.subnet(src))
                .dst_port(HTTP),
            PolicyClass::OneToMany.actions(),
        ));
        meta.push(PolicyEndpoints {
            class: PolicyClass::OneToMany,
            src: Some(src),
            dst: None,
            service: HTTP,
        });
        if counts.companions {
            // return web traffic into `src`, reversed chain (Table I row 6)
            set.push(Policy::new(
                TrafficDescriptor::new()
                    .dst_prefix(addrs.subnet(src))
                    .src_port(HTTP),
                PolicyClass::Companion.actions(),
            ));
            meta.push(PolicyEndpoints {
                class: PolicyClass::Companion,
                src: None,
                dst: Some(src),
                service: HTTP,
            });
        }
    }

    for i in 0..counts.one_to_one {
        let src = StubId(rng.gen_range(0..n_stubs));
        let dst = loop {
            let d = StubId(rng.gen_range(0..n_stubs));
            if d != src {
                break d;
            }
        };
        let service = ONE_TO_ONE_BASE + i as u16;
        set.push(Policy::new(
            TrafficDescriptor::new()
                .src_prefix(addrs.subnet(src))
                .dst_prefix(addrs.subnet(dst))
                .dst_port(service),
            PolicyClass::OneToOne.actions(),
        ));
        meta.push(PolicyEndpoints {
            class: PolicyClass::OneToOne,
            src: Some(src),
            dst: Some(dst),
            service,
        });
    }

    GeneratedPolicies { set, meta }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_netsim::AddressPlan;
    use sdm_policy::NetworkFunction::*;
    use sdm_topology::campus::campus;

    fn gen() -> GeneratedPolicies {
        let plan = campus(1);
        let addrs = AddressPlan::new(&plan);
        evaluation_policies(&addrs, PolicyClassCounts::default(), 3)
    }

    #[test]
    fn counts_and_classes() {
        let gp = gen();
        assert_eq!(gp.set.len(), 30);
        assert_eq!(gp.of_class(PolicyClass::ManyToOne).len(), 10);
        assert_eq!(gp.of_class(PolicyClass::OneToMany).len(), 10);
        assert_eq!(gp.of_class(PolicyClass::OneToOne).len(), 10);
    }

    #[test]
    fn action_lists_match_paper() {
        let gp = gen();
        for (id, p) in gp.set.iter() {
            let expect = gp.endpoints(id).class.actions();
            assert_eq!(p.actions, expect);
        }
        assert_eq!(
            PolicyClass::OneToMany.actions().functions(),
            &[Firewall, Ids, WebProxy]
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let plan = campus(1);
        let addrs = AddressPlan::new(&plan);
        let a = evaluation_policies(&addrs, PolicyClassCounts::default(), 11);
        let b = evaluation_policies(&addrs, PolicyClassCounts::default(), 11);
        assert_eq!(a.set, b.set);
        let c = evaluation_policies(&addrs, PolicyClassCounts::default(), 12);
        assert_ne!(a.meta, c.meta);
    }

    #[test]
    fn service_ports_are_disjoint_across_classes() {
        let gp = gen();
        let m2o: Vec<u16> = gp
            .of_class(PolicyClass::ManyToOne)
            .iter()
            .map(|&p| gp.endpoints(p).service)
            .collect();
        let o2o: Vec<u16> = gp
            .of_class(PolicyClass::OneToOne)
            .iter()
            .map(|&p| gp.endpoints(p).service)
            .collect();
        for s in &m2o {
            assert!(!o2o.contains(s));
            assert_ne!(*s, 80);
        }
        // within a class, unique
        let mut sorted = m2o.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), m2o.len());
    }

    #[test]
    fn one_to_one_endpoints_differ() {
        let gp = gen();
        for &p in &gp.of_class(PolicyClass::OneToOne) {
            let m = gp.endpoints(p);
            assert_ne!(m.src, m.dst);
            assert!(m.src.is_some() && m.dst.is_some());
        }
    }

    #[test]
    fn companions_generated_with_reversed_chain() {
        let plan = campus(1);
        let addrs = AddressPlan::new(&plan);
        let counts = PolicyClassCounts {
            companions: true,
            ..Default::default()
        };
        let gp = evaluation_policies(&addrs, counts, 3);
        assert_eq!(gp.set.len(), 40);
        let companions = gp.of_class(PolicyClass::Companion);
        assert_eq!(companions.len(), 10);
        for &c in &companions {
            let p = gp.set.get(c).unwrap();
            assert_eq!(p.actions.functions(), &[WebProxy, Ids, Firewall]);
            // the companion's destination is the one-to-many's source
            let m = gp.endpoints(c);
            assert!(m.dst.is_some());
            assert!(m.src.is_none());
        }
    }

    #[test]
    #[should_panic(expected = "two stub networks")]
    fn rejects_tiny_plans() {
        let plan = sdm_topology::waxman::waxman_with(
            &sdm_topology::waxman::WaxmanConfig {
                cores: 1,
                edges: 1,
                links_per_core: 0,
                ..Default::default()
            },
            0,
        );
        let addrs = AddressPlan::new(&plan);
        let _ = evaluation_policies(&addrs, PolicyClassCounts::default(), 0);
    }
}
