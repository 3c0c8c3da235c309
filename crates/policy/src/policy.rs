//! Policies and ordered policy sets with first-match semantics (§II).

use std::fmt;

use sdm_netsim::{FiveTuple, Prefix};

use crate::action::{ActionList, NetworkFunction};
use crate::descriptor::TrafficDescriptor;

/// Identifier of a policy: its position in the network-wide ordered list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PolicyId(pub u32);

impl PolicyId {
    /// Dense index of this policy in the network-wide list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PolicyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One network-wide policy: a traffic descriptor plus an ordered action
/// list, `⟨d_i, a_i⟩` in the paper's notation.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// The match condition.
    pub descriptor: TrafficDescriptor,
    /// The ordered function chain (empty = permit).
    pub actions: ActionList,
}

impl Policy {
    /// Creates a policy.
    pub fn new(descriptor: TrafficDescriptor, actions: ActionList) -> Self {
        Policy {
            descriptor,
            actions,
        }
    }

    /// A bare permit policy for the descriptor.
    pub fn permit(descriptor: TrafficDescriptor) -> Self {
        Policy::new(descriptor, ActionList::permit())
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} => {}", self.descriptor, self.actions)
    }
}

/// The network-wide ordered list of policies `P`. A packet is governed by
/// the *first* policy whose descriptor it matches (§II).
///
/// # Example
///
/// The first and third rows of the paper's Table I:
///
/// ```
/// use sdm_policy::{PolicySet, Policy, TrafficDescriptor, ActionList, NetworkFunction};
/// use sdm_netsim::{FiveTuple, Protocol, Prefix};
///
/// let subnet_a: Prefix = "10.0.0.0/8".parse().unwrap();
/// let mut p = PolicySet::new();
/// // subnet a -> subnet a, dst port 80: permit
/// p.push(Policy::permit(
///     TrafficDescriptor::new().src_prefix(subnet_a).dst_prefix(subnet_a).dst_port(80),
/// ));
/// // * -> subnet a, dst port 80: FW, IDS
/// p.push(Policy::new(
///     TrafficDescriptor::new().dst_prefix(subnet_a).dst_port(80),
///     ActionList::chain([NetworkFunction::Firewall, NetworkFunction::Ids]),
/// ));
///
/// let internal = FiveTuple {
///     src: "10.1.0.1".parse().unwrap(), dst: "10.2.0.1".parse().unwrap(),
///     src_port: 5000, dst_port: 80, proto: Protocol::Tcp,
/// };
/// // internal web traffic hits the permit first
/// let (_, policy) = p.first_match(&internal).unwrap();
/// assert!(policy.actions.is_permit());
///
/// let external = FiveTuple { src: "93.184.216.34".parse().unwrap(), ..internal };
/// let (_, policy) = p.first_match(&external).unwrap();
/// assert_eq!(policy.actions.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicySet {
    policies: Vec<Policy>,
}

impl PolicySet {
    /// Creates an empty policy set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a policy at the lowest priority, returning its id.
    pub fn push(&mut self, policy: Policy) -> PolicyId {
        let id = PolicyId(self.policies.len() as u32);
        self.policies.push(policy);
        id
    }

    /// Number of policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True if no policies exist.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// The policy with the given id.
    pub fn get(&self, id: PolicyId) -> Option<&Policy> {
        self.policies.get(id.index())
    }

    /// Iterates over `(id, policy)` in priority order.
    pub fn iter(&self) -> impl Iterator<Item = (PolicyId, &Policy)> + '_ {
        self.policies
            .iter()
            .enumerate()
            .map(|(i, p)| (PolicyId(i as u32), p))
    }

    /// The first policy matching `ft`, with its id — the authoritative
    /// (linear-scan) classifier. [`crate::LocalClassifier`] accelerates the
    /// same semantics.
    pub fn first_match(&self, ft: &FiveTuple) -> Option<(PolicyId, &Policy)> {
        self.iter().find(|(_, p)| p.descriptor.matches(ft))
    }

    /// The subset of policy ids whose descriptors can match traffic
    /// *sourced* from `subnet` — the proxy-relevant policies `P_x` of
    /// §III.B.
    pub fn relevant_to_source(&self, subnet: Prefix) -> Vec<PolicyId> {
        self.iter()
            .filter(|(_, p)| p.descriptor.source_overlaps(subnet))
            .map(|(id, _)| id)
            .collect()
    }

    /// The subset of policy ids whose action lists contain any of
    /// `functions` — the middlebox-relevant policies `P_x` of §III.B.
    pub fn relevant_to_functions(&self, functions: &[NetworkFunction]) -> Vec<PolicyId> {
        self.iter()
            .filter(|(_, p)| functions.iter().any(|&f| p.actions.contains(f)))
            .map(|(id, _)| id)
            .collect()
    }

    /// Finds *shadowed* policies: a policy is shadowed when some single
    /// earlier policy covers its entire match space, so under first-match
    /// semantics it can never fire. Returns `(shadowed, by)` pairs.
    ///
    /// This is a sound but incomplete check (a policy hidden only by the
    /// *union* of several earlier policies is not flagged) — the classic
    /// conservative rule-shadowing audit, cheap enough to run on every
    /// policy update.
    ///
    /// # Example
    ///
    /// ```
    /// use sdm_policy::{PolicySet, Policy, TrafficDescriptor, ActionList, NetworkFunction};
    /// let mut set = PolicySet::new();
    /// let broad = set.push(Policy::permit(TrafficDescriptor::new().dst_port(80)));
    /// let narrow = set.push(Policy::new(
    ///     TrafficDescriptor::new()
    ///         .src_prefix("10.0.0.0/8".parse().unwrap())
    ///         .dst_port(80),
    ///     ActionList::chain([NetworkFunction::Firewall]),
    /// ));
    /// assert_eq!(set.find_shadowed(), vec![(narrow, broad)]);
    /// ```
    pub fn find_shadowed(&self) -> Vec<(PolicyId, PolicyId)> {
        let mut out = Vec::new();
        for (i, p) in self.iter() {
            for (j, earlier) in self.iter() {
                if j >= i {
                    break;
                }
                if p.descriptor.covered_by(&earlier.descriptor) {
                    out.push((i, j));
                    break;
                }
            }
        }
        out
    }

    /// Restricts this set to the given ids, preserving global ids and
    /// priority order — the local policy table installed at one
    /// proxy/middlebox.
    pub fn project(&self, ids: &[PolicyId]) -> ProjectedPolicies {
        let mut sorted: Vec<PolicyId> = ids.to_vec();
        sorted.sort();
        sorted.dedup();
        ProjectedPolicies {
            entries: sorted
                .into_iter()
                .filter_map(|id| self.get(id).map(|p| (id, p.clone())))
                .collect(),
        }
    }

    /// The projection onto every policy: the whole set as one local table.
    pub fn project_all(&self) -> ProjectedPolicies {
        ProjectedPolicies {
            entries: self.iter().map(|(id, p)| (id, p.clone())).collect(),
        }
    }
}

impl FromIterator<Policy> for PolicySet {
    fn from_iter<T: IntoIterator<Item = Policy>>(iter: T) -> Self {
        PolicySet {
            policies: iter.into_iter().collect(),
        }
    }
}

/// A local policy table: the subset `P_x` of the network-wide policies that
/// the controller installed at one proxy or middlebox, with global ids and
/// priorities preserved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProjectedPolicies {
    entries: Vec<(PolicyId, Policy)>,
}

impl ProjectedPolicies {
    /// First matching policy in (global) priority order.
    pub fn first_match(&self, ft: &FiveTuple) -> Option<(PolicyId, &Policy)> {
        self.entries
            .iter()
            .find(|(_, p)| p.descriptor.matches(ft))
            .map(|(id, p)| (*id, p))
    }

    /// The `(global id, policy)` rows in priority order; a compiled
    /// classifier addresses them by position.
    pub(crate) fn entries(&self) -> &[(PolicyId, Policy)] {
        &self.entries
    }

    /// Number of local policies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the projection is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(global id, policy)` in priority order.
    pub fn iter(&self) -> impl Iterator<Item = (PolicyId, &Policy)> + '_ {
        self.entries.iter().map(|(id, p)| (*id, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::NetworkFunction::*;
    use sdm_netsim::Protocol;

    fn ft(src: &str, dst: &str, sp: u16, dp: u16) -> FiveTuple {
        FiveTuple {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            src_port: sp,
            dst_port: dp,
            proto: Protocol::Tcp,
        }
    }

    /// Builds the six example policies of the paper's Table I for
    /// `subnet a = 10.0.0.0/8`.
    fn table_one() -> PolicySet {
        let a: Prefix = "10.0.0.0/8".parse().unwrap();
        let mut set = PolicySet::new();
        set.push(Policy::permit(
            TrafficDescriptor::new().src_prefix(a).dst_prefix(a).dst_port(80),
        ));
        set.push(Policy::permit(
            TrafficDescriptor::new().src_prefix(a).dst_prefix(a).src_port(80),
        ));
        set.push(Policy::new(
            TrafficDescriptor::new().dst_prefix(a).dst_port(80),
            ActionList::chain([Firewall, Ids]),
        ));
        set.push(Policy::new(
            TrafficDescriptor::new().src_prefix(a).src_port(80),
            ActionList::chain([Ids, Firewall]),
        ));
        set.push(Policy::new(
            TrafficDescriptor::new().src_prefix(a).dst_port(80),
            ActionList::chain([Firewall, Ids, WebProxy]),
        ));
        set.push(Policy::new(
            TrafficDescriptor::new().dst_prefix(a).src_port(80),
            ActionList::chain([WebProxy, Ids, Firewall]),
        ));
        set
    }

    #[test]
    fn table_one_semantics() {
        let set = table_one();
        // internal web traffic permitted (first rule wins)
        let (id, p) = set.first_match(&ft("10.1.0.1", "10.2.0.1", 999, 80)).unwrap();
        assert_eq!(id, PolicyId(0));
        assert!(p.actions.is_permit());
        // inbound external web access goes through FW, IDS
        let (id, p) = set.first_match(&ft("93.1.1.1", "10.2.0.1", 999, 80)).unwrap();
        assert_eq!(id, PolicyId(2));
        assert_eq!(p.actions.functions(), &[Firewall, Ids]);
        // outbound web access goes through FW, IDS, proxy
        let (id, p) = set.first_match(&ft("10.1.0.1", "93.1.1.1", 999, 80)).unwrap();
        assert_eq!(id, PolicyId(4));
        assert_eq!(p.actions.functions(), &[Firewall, Ids, WebProxy]);
        // unrelated traffic matches nothing
        assert!(set.first_match(&ft("93.1.1.1", "94.1.1.1", 1, 2)).is_none());
    }

    #[test]
    fn first_match_respects_order() {
        let mut set = PolicySet::new();
        let d = TrafficDescriptor::new().dst_port(80);
        set.push(Policy::new(d, ActionList::chain([Firewall])));
        set.push(Policy::new(d, ActionList::chain([Ids])));
        let (id, p) = set.first_match(&ft("1.1.1.1", "2.2.2.2", 1, 80)).unwrap();
        assert_eq!(id, PolicyId(0));
        assert_eq!(p.actions.functions(), &[Firewall]);
    }

    #[test]
    fn relevance_to_source() {
        let set = table_one();
        let subnet: Prefix = "10.3.0.0/16".parse().unwrap();
        let rel = set.relevant_to_source(subnet);
        // policies 0,1,3,4 have src = subnet a (contains 10.3/16);
        // policies 2 and 5 have src = * which also overlaps.
        assert_eq!(rel.len(), 6);
        let external: Prefix = "93.0.0.0/8".parse().unwrap();
        let rel = set.relevant_to_source(external);
        // only the wildcard-source policies remain
        assert_eq!(rel, vec![PolicyId(2), PolicyId(5)]);
    }

    #[test]
    fn relevance_to_functions() {
        let set = table_one();
        let rel = set.relevant_to_functions(&[WebProxy]);
        assert_eq!(rel, vec![PolicyId(4), PolicyId(5)]);
        let rel = set.relevant_to_functions(&[Firewall, WebProxy]);
        assert_eq!(rel.len(), 4);
        assert!(set.relevant_to_functions(&[TrafficMonitor]).is_empty());
    }

    #[test]
    fn projection_preserves_priority() {
        let set = table_one();
        // install policies {4, 2} at a middlebox; order must normalize to 2, 4
        let proj = set.project(&[PolicyId(4), PolicyId(2), PolicyId(4)]);
        assert_eq!(proj.len(), 2);
        let ids: Vec<_> = proj.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![PolicyId(2), PolicyId(4)]);
        // a packet matching both resolves to the globally-first policy
        let (id, _) = proj.first_match(&ft("10.1.0.1", "10.2.0.1", 9, 80)).unwrap();
        assert_eq!(id, PolicyId(2));
    }

    #[test]
    fn shadow_detection() {
        let a: Prefix = "10.0.0.0/8".parse().unwrap();
        let mut set = PolicySet::new();
        // broad wildcard-source web rule first...
        let broad = set.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Firewall]),
        ));
        // ...makes a narrower, later web rule unreachable
        let narrow = set.push(Policy::new(
            TrafficDescriptor::new().src_prefix(a).dst_port(80),
            ActionList::chain([Ids]),
        ));
        // a rule on another port is fine
        set.push(Policy::new(
            TrafficDescriptor::new().dst_port(22),
            ActionList::chain([Ids]),
        ));
        assert_eq!(set.find_shadowed(), vec![(narrow, broad)]);
    }

    #[test]
    fn table_one_has_expected_shadowing_structure() {
        // In Table I the *permits* come first and are narrower (internal
        // traffic only), so nothing is fully shadowed.
        let set = table_one();
        assert!(set.find_shadowed().is_empty());
    }

    #[test]
    fn port_range_shadowing() {
        let mut set = PolicySet::new();
        let broad = set.push(Policy::new(
            TrafficDescriptor::new().dst_port(crate::PortMatch::Range(80, 90)),
            ActionList::chain([Firewall]),
        ));
        let inside = set.push(Policy::new(
            TrafficDescriptor::new().dst_port(crate::PortMatch::Exact(85)),
            ActionList::chain([Ids]),
        ));
        let outside = set.push(Policy::new(
            TrafficDescriptor::new().dst_port(crate::PortMatch::Range(85, 95)),
            ActionList::chain([Ids]),
        ));
        let shadows = set.find_shadowed();
        assert!(shadows.contains(&(inside, broad)));
        assert!(!shadows.iter().any(|&(s, _)| s == outside));
    }

    #[test]
    fn empty_set_matches_nothing() {
        let set = PolicySet::new();
        assert!(set.is_empty());
        assert!(set.first_match(&ft("1.1.1.1", "2.2.2.2", 1, 2)).is_none());
    }

    #[test]
    fn policy_display() {
        let set = table_one();
        let s = set.get(PolicyId(2)).unwrap().to_string();
        assert!(s.contains("FW -> IDS"), "{s}");
    }
}
