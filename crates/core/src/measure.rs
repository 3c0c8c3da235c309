//! Traffic measurement (§III.C): policy proxies measure per-policy traffic
//! volumes `T_{s,d,p}` and report them to the controller, which aggregates
//! `T_{s,p}`, `T_{d,p}` and `T_p` for the load-balancing LPs.

use std::collections::BTreeMap;
use std::fmt;

use sdm_netsim::StubId;
use sdm_policy::PolicyId;

/// A traffic destination as the measurement system sees it: another stub
/// network or somewhere outside the enterprise (beyond a gateway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DestKey {
    /// An internal stub network.
    Stub(StubId),
    /// An external destination (reached through a gateway).
    External,
}

impl fmt::Display for DestKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DestKey::Stub(s) => write!(f, "{s}"),
            DestKey::External => f.write_str("ext"),
        }
    }
}

/// The aggregated traffic matrix: `T_{s,d,p}` in packets, with the marginal
/// sums the reduced LP formulation (Eq. 2) needs.
///
/// # Example
///
/// ```
/// use sdm_core::{TrafficMatrix, DestKey};
/// use sdm_netsim::StubId;
/// use sdm_policy::PolicyId;
///
/// let mut tm = TrafficMatrix::new();
/// tm.record(StubId(0), DestKey::Stub(StubId(1)), PolicyId(0), 100.0);
/// tm.record(StubId(2), DestKey::Stub(StubId(1)), PolicyId(0), 50.0);
/// assert_eq!(tm.total(PolicyId(0)), 150.0);
/// let (t_p, sources) = &tm.marginals()[&PolicyId(0)];
/// assert_eq!(*t_p, 150.0);
/// assert_eq!(sources, &[(StubId(0), 100.0), (StubId(2), 50.0)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrafficMatrix {
    // BTreeMap, not HashMap: `iter()` order feeds the full LP's variable
    // order (Eq. 1), so it must be deterministic across processes for the
    // simplex pivot sequence — and hence diagnostics — to reproduce.
    cells: BTreeMap<(StubId, DestKey, PolicyId), f64>,
}

impl TrafficMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `volume` packets of traffic from `s` to `d` matching `p` —
    /// what a source proxy reports.
    pub fn record(&mut self, s: StubId, d: DestKey, p: PolicyId, volume: f64) {
        if volume <= 0.0 {
            return;
        }
        *self.cells.entry((s, d, p)).or_insert(0.0) += volume;
    }

    /// Merges another matrix into this one (controller-side aggregation of
    /// per-proxy reports). Routes every cell through [`TrafficMatrix::record`],
    /// so non-positive volumes (a hand-built or corrupted report) are
    /// ignored exactly as they are on the direct recording path.
    pub fn merge(&mut self, other: &TrafficMatrix) {
        for (&(s, d, p), &v) in &other.cells {
            self.record(s, d, p, v);
        }
    }

    /// `T_{s,d,p}`.
    pub fn volume(&self, s: StubId, d: DestKey, p: PolicyId) -> f64 {
        self.cells.get(&(s, d, p)).copied().unwrap_or(0.0)
    }

    /// `T_p`: total volume matching `p`.
    pub fn total(&self, p: PolicyId) -> f64 {
        self.cells
            .iter()
            .filter(|((_, _, pp), _)| *pp == p)
            .map(|(_, v)| v)
            .sum()
    }

    /// `T_p` and the `T_{s,p}` of every policy with measured traffic, by
    /// policy, sources in stub order — in one pass over the cells. Each
    /// sum adds its cells in cell order, as [`TrafficMatrix::total`]'s
    /// filtered scan does, so the two agree bit for bit.
    pub fn marginals(&self) -> BTreeMap<PolicyId, (f64, Vec<(StubId, f64)>)> {
        let mut out: BTreeMap<PolicyId, (f64, Vec<(StubId, f64)>)> = BTreeMap::new();
        // Cells run in (s, d, p) order: a policy's sources arrive sorted,
        // each one's cells contiguous among that policy's.
        for (&(s, _, p), &v) in &self.cells {
            let (t_p, sources) = out.entry(p).or_default();
            *t_p += v;
            match sources.last_mut() {
                Some((last, t_sp)) if *last == s => *t_sp += v,
                _ => sources.push((s, v)),
            }
        }
        out
    }

    /// All policies with nonzero measured traffic.
    pub fn policies(&self) -> Vec<PolicyId> {
        let mut v: Vec<PolicyId> = self.cells.keys().map(|&(_, _, p)| p).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Iterates over all `(source, dest, policy, volume)` cells.
    pub fn iter(&self) -> impl Iterator<Item = (StubId, DestKey, PolicyId, f64)> + '_ {
        self.cells.iter().map(|(&(s, d, p), &v)| (s, d, p, v))
    }

    /// Total measured volume across all policies.
    pub fn grand_total(&self) -> f64 {
        // From +0.0: `Iterator::sum` starts at -0.0, which an empty epoch
        // would print as `-0`.
        self.cells.values().fold(0.0, |total, v| total + v)
    }

    /// Number of nonzero cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> StubId {
        StubId(i)
    }
    fn p(i: u32) -> PolicyId {
        PolicyId(i)
    }

    #[test]
    fn record_and_marginals() {
        let mut tm = TrafficMatrix::new();
        tm.record(s(0), DestKey::Stub(s(1)), p(0), 10.0);
        tm.record(s(0), DestKey::Stub(s(2)), p(0), 20.0);
        tm.record(s(3), DestKey::Stub(s(1)), p(0), 5.0);
        tm.record(s(0), DestKey::External, p(1), 7.0);
        assert_eq!(tm.total(p(0)), 35.0);
        assert_eq!(tm.total(p(1)), 7.0);
        assert_eq!(tm.marginals()[&p(0)], (35.0, vec![(s(0), 30.0), (s(3), 5.0)]));
        assert_eq!(tm.volume(s(3), DestKey::Stub(s(1)), p(0)), 5.0);
        assert_eq!(tm.grand_total(), 42.0);
    }

    #[test]
    fn repeated_records_accumulate() {
        let mut tm = TrafficMatrix::new();
        for _ in 0..4 {
            tm.record(s(0), DestKey::Stub(s(1)), p(0), 2.5);
        }
        assert_eq!(tm.volume(s(0), DestKey::Stub(s(1)), p(0)), 10.0);
        assert_eq!(tm.len(), 1);
    }

    #[test]
    fn zero_and_negative_volumes_ignored() {
        let mut tm = TrafficMatrix::new();
        tm.record(s(0), DestKey::External, p(0), 0.0);
        tm.record(s(0), DestKey::External, p(0), -5.0);
        assert!(tm.is_empty());
    }

    #[test]
    fn merge_aggregates_reports() {
        let mut a = TrafficMatrix::new();
        a.record(s(0), DestKey::Stub(s(1)), p(0), 10.0);
        let mut b = TrafficMatrix::new();
        b.record(s(0), DestKey::Stub(s(1)), p(0), 5.0);
        b.record(s(2), DestKey::Stub(s(1)), p(1), 3.0);
        a.merge(&b);
        assert_eq!(a.volume(s(0), DestKey::Stub(s(1)), p(0)), 15.0);
        assert_eq!(a.total(p(1)), 3.0);
    }

    #[test]
    fn merge_ignores_non_positive_cells_like_record() {
        // Forge a report with zero/negative cells (possible only from
        // inside the module — every public ingestion path guards), and
        // check merge applies the same guard record does.
        let mut bad = TrafficMatrix::new();
        bad.cells.insert((s(0), DestKey::External, p(0)), -7.0);
        bad.cells.insert((s(1), DestKey::External, p(0)), 0.0);
        bad.cells.insert((s(2), DestKey::Stub(s(1)), p(1)), 4.0);
        let mut tm = TrafficMatrix::new();
        tm.record(s(0), DestKey::External, p(0), 10.0);
        tm.merge(&bad);
        assert_eq!(
            tm.volume(s(0), DestKey::External, p(0)),
            10.0,
            "negative merged cell must not subtract"
        );
        assert_eq!(tm.volume(s(1), DestKey::External, p(0)), 0.0);
        assert_eq!(tm.len(), 2, "zero/negative cells must not materialize");
        assert_eq!(tm.volume(s(2), DestKey::Stub(s(1)), p(1)), 4.0);
    }

    #[test]
    fn enumerations_sorted_and_deduped() {
        let mut tm = TrafficMatrix::new();
        tm.record(s(5), DestKey::Stub(s(1)), p(2), 1.0);
        tm.record(s(3), DestKey::External, p(2), 1.0);
        tm.record(s(3), DestKey::Stub(s(1)), p(0), 1.0);
        assert_eq!(tm.policies(), vec![p(0), p(2)]);
        let sources: Vec<StubId> = tm.marginals()[&p(2)].1.iter().map(|&(s, _)| s).collect();
        assert_eq!(sources, vec![s(3), s(5)]);
    }

    /// The one-pass marginals equal filtered scans bit for bit on a
    /// matrix whose sums depend on addition order: many cells per
    /// (s, p), spread over several destinations and interleaved with
    /// other policies.
    #[test]
    fn marginals_equal_filtered_sums_bitwise() {
        let mut tm = TrafficMatrix::new();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for src in 0..6 {
            for dst in 0..9 {
                for pol in 0..4 {
                    if (src + dst + pol) % 3 == 0 {
                        continue;
                    }
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    // volumes in [1, ~1.4e5) with full mantissas
                    let v = 1.0 + (x >> 11) as f64 / (1u64 << 53) as f64 * 1e6 / 7.0;
                    let d = if dst == 8 { DestKey::External } else { DestKey::Stub(s(dst)) };
                    tm.record(s(src), d, p(pol), v);
                }
            }
        }
        let marginals = tm.marginals();
        assert_eq!(marginals.keys().copied().collect::<Vec<_>>(), tm.policies());
        for (&pol, (t_p, sources)) in &marginals {
            let cells: Vec<_> = tm.iter().filter(|&(_, _, pp, _)| pp == pol).collect();
            let want: f64 = cells.iter().map(|&(_, _, _, v)| v).sum();
            assert_eq!(t_p.to_bits(), want.to_bits(), "T_p of {pol:?}");
            let mut want_sources: Vec<StubId> = cells.iter().map(|&(ss, _, _, _)| ss).collect();
            want_sources.dedup();
            assert_eq!(sources.iter().map(|&(ss, _)| ss).collect::<Vec<_>>(), want_sources);
            for &(src, t_sp) in sources {
                let want: f64 =
                    cells.iter().filter(|&&(ss, _, _, _)| ss == src).map(|&(_, _, _, v)| v).sum();
                assert_eq!(t_sp.to_bits(), want.to_bits(), "T_(s,p) of {src:?}, {pol:?}");
            }
        }
    }
}
