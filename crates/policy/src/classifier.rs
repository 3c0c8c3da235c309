//! Compiled tuple-space first-match classification.
//!
//! §III.D notes that large policy tables need a sub-linear software
//! lookup. Rules are grouped by *signature* — which bits each field
//! constrains exactly: `(src prefix length, dst prefix length, src port
//! exact?, dst port exact?, protocol exact?)`. Inside a group every rule
//! pins the same bits, so the group is one hash map from the masked packet
//! fields to the chain of rules carrying that key. Port ranges count as
//! "not exact": they share the group of the port wildcard and are told
//! apart by the full [`crate::TrafficDescriptor::matches`] every candidate
//! goes through (which also makes key collisions harmless).
//!
//! Groups are kept in order of their smallest rule index, and a lookup
//! stops at the first group that cannot hold a rule before the best match
//! so far, so first-match priority is exactly that of the linear scan.
//! Cost is one probe per distinct signature — three on every generated
//! campus/Waxman policy set, however many rules there are. The worst case
//! is an operator file whose *k* rules all differ in signature: *k*
//! probes, never more than the rule count and never a wrong answer.

use sdm_netsim::{FiveTuple, Ipv4Addr, Prefix};
use sdm_util::FxHashMap;

use crate::descriptor::{PortMatch, ProtoMatch, TrafficDescriptor};
use crate::policy::{Policy, PolicyId};

/// Masked packet fields: `(src << 32 | dst, sport << 24 | dport << 8 | proto)`.
type Key = (u64, u64);

/// The bits of a five-tuple that every rule of one group pins exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Signature {
    src: u32,
    dst: u32,
    src_port: u16,
    dst_port: u16,
    proto: u8,
}

impl Signature {
    fn key(&self, src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16, proto: u8) -> Key {
        (
            u64::from(src.0 & self.src) << 32 | u64::from(dst.0 & self.dst),
            u64::from(src_port & self.src_port) << 24
                | u64::from(dst_port & self.dst_port) << 8
                | u64::from(proto & self.proto),
        )
    }
}

/// `(mask, value)` of a port condition: only `Exact` pins bits.
fn exact_port(p: PortMatch) -> (u16, u16) {
    match p {
        PortMatch::Exact(v) => (u16::MAX, v),
        PortMatch::Any | PortMatch::Range(..) => (0, 0),
    }
}

/// The signature of a descriptor and the descriptor's key under it.
fn compile(d: &TrafficDescriptor) -> (Signature, Key) {
    let netmask = |p: Prefix| Prefix::new(Ipv4Addr(u32::MAX), p.len()).addr().0;
    let (src_port, sp) = exact_port(d.src_port);
    let (dst_port, dp) = exact_port(d.dst_port);
    let (proto, pr) = match d.proto {
        ProtoMatch::Is(p) => (u8::MAX, p.number()),
        ProtoMatch::Any => (0, 0),
    };
    let sig = Signature {
        src: netmask(d.src),
        dst: netmask(d.dst),
        src_port,
        dst_port,
        proto,
    };
    (sig, sig.key(d.src.addr(), d.dst.addr(), sp, dp, pr))
}

/// "No rule": larger than every rule index.
const NONE: u32 = u32::MAX;

#[derive(Debug)]
struct Group {
    sig: Signature,
    /// Smallest rule index in the group.
    first: u32,
    /// Masked key → smallest rule index carrying it.
    rules: FxHashMap<Key, u32>,
}

/// The compiled index over one device's policy table. It stores rule
/// *indices* only; the rules stay in the projection it was built from,
/// which every lookup is handed again.
#[derive(Debug)]
pub(crate) struct TupleSpace {
    /// Ascending by `first`.
    groups: Vec<Group>,
    /// Per rule, the next rule with the same signature and key (ascending
    /// chains), or [`NONE`].
    next: Vec<u32>,
}

impl TupleSpace {
    pub(crate) fn build(entries: &[(PolicyId, Policy)]) -> Self {
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of: FxHashMap<Signature, usize> = FxHashMap::default();
        let mut next = vec![NONE; entries.len()];
        // Descending, so each key ends up mapped to its smallest rule, each
        // chain ascends and each group's last update is its smallest rule.
        for (i, (_, policy)) in entries.iter().enumerate().rev() {
            let (sig, key) = compile(&policy.descriptor);
            let g = *group_of.entry(sig).or_insert_with(|| {
                groups.push(Group {
                    sig,
                    first: NONE,
                    rules: FxHashMap::default(),
                });
                groups.len() - 1
            });
            groups[g].first = i as u32;
            if let Some(later) = groups[g].rules.insert(key, i as u32) {
                next[i] = later;
            }
        }
        groups.sort_by_key(|g| g.first);
        TupleSpace { groups, next }
    }

    /// The first entry of `entries` (the slice given to
    /// [`TupleSpace::build`]) whose descriptor matches `ft`.
    pub(crate) fn first_match<'a>(
        &self,
        entries: &'a [(PolicyId, Policy)],
        ft: &FiveTuple,
    ) -> Option<&'a (PolicyId, Policy)> {
        let proto = ft.proto.number();
        let mut best = NONE;
        for group in &self.groups {
            if group.first >= best {
                break; // every later group starts even further back
            }
            let key = group
                .sig
                .key(ft.src, ft.dst, ft.src_port, ft.dst_port, proto);
            let mut i = group.rules.get(&key).copied().unwrap_or(NONE);
            while i < best {
                let matched = entries
                    .get(i as usize)
                    .is_some_and(|(_, p)| p.descriptor.matches(ft));
                if matched {
                    best = i;
                    break;
                }
                i = self.next.get(i as usize).copied().unwrap_or(NONE);
            }
        }
        entries.get(best as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionList, NetworkFunction::*};
    use crate::policy::PolicySet;
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

    fn set_of(descriptors: &[TrafficDescriptor]) -> PolicySet {
        descriptors
            .iter()
            .map(|d| Policy::new(*d, ActionList::chain([Ids])))
            .collect()
    }

    /// Compiled lookup over the whole set, as a policy id.
    fn classify(set: &PolicySet, ft: &FiveTuple) -> Option<PolicyId> {
        let table = set.project_all();
        let index = TupleSpace::build(table.entries());
        index.first_match(table.entries(), ft).map(|(id, _)| *id)
    }

    fn assert_equivalent(set: &PolicySet, samples: &[FiveTuple]) {
        for s in samples {
            assert_eq!(
                classify(set, s),
                set.first_match(s).map(|(id, _)| id),
                "mismatch for {s}"
            );
        }
    }

    #[test]
    fn empty_set_matches_nothing() {
        assert_eq!(classify(&PolicySet::new(), &ft("1.1.1.1", "2.2.2.2", 1, 2)), None);
    }

    #[test]
    fn wildcard_policy_matches_all() {
        let set = set_of(&[TrafficDescriptor::new()]);
        assert_eq!(classify(&set, &ft("1.1.1.1", "2.2.2.2", 1, 2)), Some(PolicyId(0)));
    }

    #[test]
    fn priority_resolution_across_groups() {
        let any_to_20 = TrafficDescriptor::new().dst_prefix("20.0.0.0/8".parse().unwrap());
        let from_10 = TrafficDescriptor::new().src_prefix("10.0.0.0/8".parse().unwrap());
        let set = set_of(&[any_to_20, from_10]);
        let samples = [
            ft("10.1.1.1", "20.1.1.1", 5, 6), // matches both -> policy 0
            ft("10.1.1.1", "30.1.1.1", 5, 6), // only policy 1
            ft("40.1.1.1", "20.1.1.1", 5, 6), // only policy 0
            ft("40.1.1.1", "30.1.1.1", 5, 6), // none
        ];
        assert_equivalent(&set, &samples);
        assert_eq!(classify(&set, &samples[0]), Some(PolicyId(0)));

        // The second group starts before the first group's match (so it is
        // probed) but its own match comes after: it must not displace it.
        let set = set_of(&[
            any_to_20.dst_port(1),
            from_10.dst_port(9),
            any_to_20.dst_port(2),
            from_10.dst_port(2),
        ]);
        assert_eq!(classify(&set, &ft("10.1.1.1", "20.1.1.1", 5, 2)), Some(PolicyId(2)));
    }

    #[test]
    fn ranges_share_the_wildcard_group_and_are_verified() {
        let p10: Prefix = "10.0.0.0/8".parse().unwrap();
        let set = set_of(&[
            TrafficDescriptor::new().src_prefix(p10).dst_port(PortMatch::Range(80, 90)),
            TrafficDescriptor::new().src_prefix(p10).dst_port(85),
            TrafficDescriptor::new().src_prefix(p10),
        ]);
        assert_eq!(classify(&set, &ft("10.1.1.1", "2.2.2.2", 1, 85)), Some(PolicyId(0)));
        assert_eq!(classify(&set, &ft("10.1.1.1", "2.2.2.2", 1, 95)), Some(PolicyId(2)));
        let shadowing = set_of(&[
            TrafficDescriptor::new().src_prefix(p10).dst_port(85),
            TrafficDescriptor::new().src_prefix(p10).dst_port(PortMatch::Range(80, 90)),
        ]);
        assert_eq!(classify(&shadowing, &ft("10.1.1.1", "2.2.2.2", 1, 85)), Some(PolicyId(0)));
        assert_eq!(classify(&shadowing, &ft("10.1.1.1", "2.2.2.2", 1, 86)), Some(PolicyId(1)));
    }

    #[test]
    fn nested_prefixes_all_visited() {
        // /24 innermost first, then /16, then /8
        let set = set_of(&[
            TrafficDescriptor::new().src_prefix("10.1.1.0/24".parse().unwrap()),
            TrafficDescriptor::new().src_prefix("10.1.0.0/16".parse().unwrap()),
            TrafficDescriptor::new().src_prefix("10.0.0.0/8".parse().unwrap()),
        ]);
        let samples = [
            ft("10.1.1.9", "2.2.2.2", 1, 2),
            ft("10.1.2.9", "2.2.2.2", 1, 2),
            ft("10.2.2.9", "2.2.2.2", 1, 2),
            ft("11.0.0.1", "2.2.2.2", 1, 2),
        ];
        assert_equivalent(&set, &samples);
    }

    #[test]
    fn protocol_conditions() {
        // `Other(6)` shares TCP's key but is a different protocol value
        let set = set_of(&[
            TrafficDescriptor::new().protocol(Protocol::Other(6)),
            TrafficDescriptor::new().protocol(Protocol::Udp),
        ]);
        let mut t = ft("1.1.1.1", "2.2.2.2", 1, 2);
        assert_eq!(classify(&set, &t), None);
        t.proto = Protocol::Udp;
        assert_eq!(classify(&set, &t), Some(PolicyId(1)));
        t.proto = Protocol::Other(6);
        assert_eq!(classify(&set, &t), Some(PolicyId(0)));
    }

    #[test]
    fn full_host_prefixes_work() {
        let set = set_of(&[TrafficDescriptor::new()
            .src_prefix(Prefix::host("10.0.0.7".parse().unwrap()))
            .dst_prefix(Prefix::host("10.0.0.8".parse().unwrap()))]);
        assert_eq!(classify(&set, &ft("10.0.0.7", "10.0.0.8", 1, 2)), Some(PolicyId(0)));
        assert_eq!(classify(&set, &ft("10.0.0.7", "10.0.0.9", 1, 2)), None);
        assert_eq!(classify(&set, &ft("10.0.0.6", "10.0.0.8", 1, 2)), None);
    }
}
