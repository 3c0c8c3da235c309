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
/// assert_eq!(tm.from_source(StubId(0), PolicyId(0)), 100.0);
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

    /// `T_{s,p}`: volume from source `s` matching `p`.
    pub fn from_source(&self, s: StubId, p: PolicyId) -> f64 {
        self.cells
            .iter()
            .filter(|((ss, _, pp), _)| *ss == s && *pp == p)
            .map(|(_, v)| v)
            .sum()
    }

    /// All policies with nonzero measured traffic.
    pub fn policies(&self) -> Vec<PolicyId> {
        let mut v: Vec<PolicyId> = self.cells.keys().map(|&(_, _, p)| p).collect();
        v.sort();
        v.dedup();
        v
    }

    /// All sources with nonzero traffic for `p`, sorted.
    pub fn sources_for(&self, p: PolicyId) -> Vec<StubId> {
        let mut v: Vec<StubId> = self
            .cells
            .keys()
            .filter(|&&(_, _, pp)| pp == p)
            .map(|&(s, _, _)| s)
            .collect();
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
        assert_eq!(tm.from_source(s(0), p(0)), 30.0);
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
        assert_eq!(tm.sources_for(p(2)), vec![s(3), s(5)]);
    }
}
