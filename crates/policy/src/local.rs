//! The classifier a proxy or middlebox actually runs against its local
//! policy table `P_x` (§III.D's software lookup): the compiled tuple-space
//! index of [`crate::classifier`], or the linear first-match scan it is
//! checked against, behind one interface.

use sdm_netsim::FiveTuple;

use crate::classifier::TupleSpace;
use crate::policy::{Policy, PolicyId, ProjectedPolicies};

/// Which lookup a device runs over its local policy table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClassifierKind {
    /// Compiled tuple-space index: one hash probe per distinct rule
    /// signature `(src_len, dst_len, exact src port?, exact dst port?,
    /// exact protocol?)`, whatever the rule count. Faster than the scan
    /// from a dozen rules up, so it is what every device runs. Worst case:
    /// a table of *k* rules with *k* distinct signatures costs *k* probes.
    #[default]
    TupleSpace,
    /// Linear first-match scan ([`ProjectedPolicies::first_match`]): no
    /// code of its own — the reference that differential tests compare
    /// the compiled index against.
    Linear,
}

/// A device-local policy classifier over a projection `P_x`, preserving
/// global policy ids and first-match priority.
///
/// # Example
///
/// ```
/// use sdm_policy::*;
/// use sdm_netsim::{FiveTuple, Protocol};
///
/// let mut set = PolicySet::new();
/// let id = set.push(Policy::new(
///     TrafficDescriptor::new().dst_port(80),
///     ActionList::chain([NetworkFunction::Firewall]),
/// ));
/// let projection = set.project(&[id]);
/// let compiled = LocalClassifier::new(projection.clone(), ClassifierKind::TupleSpace);
/// let linear = LocalClassifier::new(projection, ClassifierKind::Linear);
/// let ft = FiveTuple {
///     src: "10.0.0.1".parse().unwrap(), dst: "10.1.0.1".parse().unwrap(),
///     src_port: 9000, dst_port: 80, proto: Protocol::Tcp,
/// };
/// assert_eq!(compiled.first_match(&ft).unwrap().0, id);
/// assert_eq!(linear.first_match(&ft).unwrap().0, id);
/// ```
#[derive(Debug)]
pub struct LocalClassifier {
    table: ProjectedPolicies,
    /// Index into `table`'s entries; `None` for the linear reference.
    index: Option<TupleSpace>,
}

impl LocalClassifier {
    /// Builds the classifier of the requested kind over a projection.
    pub fn new(table: ProjectedPolicies, kind: ClassifierKind) -> Self {
        let index = match kind {
            ClassifierKind::TupleSpace => Some(TupleSpace::build(table.entries())),
            ClassifierKind::Linear => None,
        };
        LocalClassifier { table, index }
    }

    /// First matching policy in global priority order, with its global id.
    pub fn first_match(&self, ft: &FiveTuple) -> Option<(PolicyId, &Policy)> {
        match &self.index {
            Some(index) => index
                .first_match(self.table.entries(), ft)
                .map(|(id, p)| (*id, p)),
            None => self.table.first_match(ft),
        }
    }

    /// Number of local policies.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The underlying projection.
    pub fn table(&self) -> &ProjectedPolicies {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionList, NetworkFunction::*};
    use crate::descriptor::TrafficDescriptor;
    use crate::policy::PolicySet;
    use sdm_netsim::{Prefix, Protocol};

    fn ft(src: &str, dst: &str, dp: u16) -> FiveTuple {
        FiveTuple {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            src_port: 9999,
            dst_port: dp,
            proto: Protocol::Tcp,
        }
    }

    fn sample_set() -> PolicySet {
        let mut set = PolicySet::new();
        set.push(Policy::new(
            TrafficDescriptor::new()
                .src_prefix("10.0.0.0/12".parse::<Prefix>().unwrap())
                .dst_port(80),
            ActionList::chain([Firewall]),
        ));
        set.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Ids]),
        ));
        set.push(Policy::new(
            TrafficDescriptor::new().dst_port(22),
            ActionList::chain([TrafficMonitor]),
        ));
        set
    }

    #[test]
    fn both_kinds_agree_with_global_ids() {
        let set = sample_set();
        // project a subset out of order
        let proj = set.project(&[PolicyId(2), PolicyId(0)]);
        let linear = LocalClassifier::new(proj.clone(), ClassifierKind::Linear);
        let compiled = LocalClassifier::new(proj, ClassifierKind::TupleSpace);
        for t in [
            ft("10.1.0.1", "20.0.0.1", 80),
            ft("99.0.0.1", "20.0.0.1", 80),
            ft("10.1.0.1", "20.0.0.1", 22),
            ft("10.1.0.1", "20.0.0.1", 443),
        ] {
            assert_eq!(
                linear.first_match(&t).map(|(id, _)| id),
                compiled.first_match(&t).map(|(id, _)| id),
                "packet {t}"
            );
        }
        // global ids, not dense indices, come back
        assert_eq!(
            compiled.first_match(&ft("10.1.0.1", "2.2.2.2", 80)).unwrap().0,
            PolicyId(0)
        );
        assert_eq!(
            compiled.first_match(&ft("10.1.0.1", "2.2.2.2", 22)).unwrap().0,
            PolicyId(2)
        );
    }

    #[test]
    fn empty_projection_matches_nothing() {
        let proj = ProjectedPolicies::default();
        for kind in [ClassifierKind::Linear, ClassifierKind::TupleSpace] {
            let c = LocalClassifier::new(proj.clone(), kind);
            assert!(c.is_empty());
            assert!(c.first_match(&ft("1.1.1.1", "2.2.2.2", 80)).is_none());
        }
    }

    #[test]
    fn priority_preserved_within_projection() {
        let set = sample_set();
        let proj = set.project(&[PolicyId(0), PolicyId(1)]);
        let compiled = LocalClassifier::new(proj, ClassifierKind::TupleSpace);
        // a 10/12-sourced web packet matches both; policy 0 must win
        assert_eq!(
            compiled.first_match(&ft("10.1.0.1", "2.2.2.2", 80)).unwrap().0,
            PolicyId(0)
        );
        // outside 10/12, only policy 1 matches
        assert_eq!(
            compiled.first_match(&ft("99.1.0.1", "2.2.2.2", 80)).unwrap().0,
            PolicyId(1)
        );
    }
}
