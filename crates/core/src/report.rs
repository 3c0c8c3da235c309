//! Load reporting: per-function-type maximum / minimum / mean middlebox
//! loads, the quantities of the paper's Figures 4–5 and Table III.

use std::fmt;

use sdm_policy::NetworkFunction;

use crate::deployment::Deployment;

/// Load summary for one middlebox type (one row pair of Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadRow {
    /// The function the middleboxes implement.
    pub function: NetworkFunction,
    /// Number of middleboxes of this type.
    pub count: usize,
    /// Maximum load (packets) on any box of this type.
    pub max: u64,
    /// Minimum load (packets) on any box of this type.
    pub min: u64,
    /// Total load across boxes of this type.
    pub total: u64,
}

impl LoadRow {
    /// Mean load per box.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }
}

/// Per-type load report computed from per-middlebox packet loads.
///
/// # Example
///
/// ```
/// use sdm_core::{Deployment, LoadReport, MiddleboxSpec};
/// use sdm_policy::NetworkFunction;
///
/// let plan = sdm_topology::campus::campus(1);
/// let mut dep = Deployment::new();
/// dep.add(MiddleboxSpec::new(NetworkFunction::Firewall, plan.cores()[0], 1.0));
/// dep.add(MiddleboxSpec::new(NetworkFunction::Firewall, plan.cores()[1], 1.0));
/// let report = LoadReport::from_loads(&dep, &[30, 70]);
/// let row = report.row(NetworkFunction::Firewall).unwrap();
/// assert_eq!((row.max, row.min, row.total), (70, 30, 100));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    rows: Vec<LoadRow>,
}

impl LoadReport {
    /// Summarizes `loads` (indexed by middlebox id) per function type. A
    /// multi-function box contributes its full load to each of its types.
    ///
    /// # Panics
    ///
    /// Panics if `loads.len() != deployment.len()`.
    pub fn from_loads(deployment: &Deployment, loads: &[u64]) -> Self {
        assert_eq!(
            loads.len(),
            deployment.len(),
            "one load per middlebox required"
        );
        let mut rows = Vec::new();
        for f in deployment.functions() {
            let boxes = deployment.offering(f);
            let vals: Vec<u64> = boxes.iter().map(|m| loads[m.index()]).collect();
            rows.push(LoadRow {
                function: f,
                count: vals.len(),
                max: vals.iter().copied().max().unwrap_or(0),
                min: vals.iter().copied().min().unwrap_or(0),
                total: vals.iter().sum(),
            });
        }
        LoadReport { rows }
    }

    /// The row for one function type.
    pub fn row(&self, f: NetworkFunction) -> Option<&LoadRow> {
        self.rows.iter().find(|r| r.function == f)
    }

    /// All rows, ordered by function.
    pub fn rows(&self) -> &[LoadRow] {
        &self.rows
    }

    /// The largest max-load across all types (the headline number of
    /// Figures 4–5).
    pub fn overall_max(&self) -> u64 {
        self.rows.iter().map(|r| r.max).max().unwrap_or(0)
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<6} {:>6} {:>12} {:>12} {:>12}", "type", "count", "max", "min", "mean")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<6} {:>6} {:>12} {:>12} {:>12.1}",
                r.function.abbrev(),
                r.count,
                r.max,
                r.min,
                r.mean()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::MiddleboxSpec;
    use sdm_policy::NetworkFunction::*;
    use sdm_topology::campus::campus;

    fn dep3() -> Deployment {
        let plan = campus(1);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
        dep.add(MiddleboxSpec::new(Ids, plan.cores()[2], 1.0));
        dep
    }

    #[test]
    fn summarizes_per_type() {
        let report = LoadReport::from_loads(&dep3(), &[10, 40, 25]);
        let fw = report.row(Firewall).unwrap();
        assert_eq!((fw.max, fw.min, fw.total, fw.count), (40, 10, 50, 2));
        assert_eq!(fw.mean(), 25.0);
        let ids = report.row(Ids).unwrap();
        assert_eq!((ids.max, ids.min), (25, 25));
        assert_eq!(report.overall_max(), 40);
        assert!(report.row(WebProxy).is_none());
    }

    #[test]
    #[should_panic(expected = "one load per middlebox")]
    fn length_mismatch_rejected() {
        let _ = LoadReport::from_loads(&dep3(), &[1, 2]);
    }

    #[test]
    fn display_is_tabular() {
        let report = LoadReport::from_loads(&dep3(), &[10, 40, 25]);
        let s = report.to_string();
        assert!(s.contains("FW"));
        assert!(s.contains("IDS"));
        assert!(s.contains("40"));
    }
}
