//! Deterministic observability substrate for the SDM reproduction.
//!
//! The workspace's dependability story is built on *byte-identical
//! replays*: the same deployment run at 1 or 4 flow-shards, or at drain
//! limit 1 or 256, must produce the same figures. Telemetry has to obey
//! the same discipline or it is useless for diagnosing those runs — so
//! this crate provides
//!
//! * a **static metric registry** ([`REGISTRY`]): every family has a
//!   `&'static` name, a kind (counter / gauge / histogram), a small
//!   fixed label set, and an *invariance class* — whether its value is
//!   provably identical across `SDM_SHARDS` / drain-limit corners
//!   (see [`FamilyDesc::invariant`]);
//! * a plain-`u64` [`Snapshot`] that the run record is scraped into.
//!   Counters live as plain fields of the state that owns the event — a
//!   device's counters, the simulator's statistics — and are folded with
//!   the rest of that record **in shard-index order**, like every other
//!   fold in the workspace; the two drain histograms are plain
//!   [`HistData`] the simulator records when asked to;
//! * two exporters — a deterministic JSON writer ([`Snapshot::to_json`])
//!   and Prometheus text exposition ([`Snapshot::to_prometheus`]) —
//!   which by default emit only the invariant families, so their output
//!   is a goldenable CI artifact.
//!
//! No timestamps appear anywhere in this crate: data-plane time is
//! sim-ticks owned by `sdm-netsim`, and wall-clock stays confined to
//! stderr timings (the root `clippy.toml` bans `Instant::now` here as
//! everywhere).
//!
//! # Example
//!
//! ```
//! use sdm_telemetry::{family, HistData, Snapshot};
//!
//! let mut runs = HistData::default();
//! runs.observe(17);
//!
//! let mut snap = Snapshot::new();
//! snap.add_labeled(family::STEER_DECISIONS, 0, 3); // hop=proxy
//! snap.add_hist(family::BATCH_RUN_LENGTH, &runs);
//! snap.add(family::PACKETS_DELIVERED, 1000);
//! let json = snap.to_json(false); // invariant families only
//! assert!(json.contains("sdm_steer_decisions_total"));
//! assert!(!json.contains("sdm_batch_run_length")); // non-invariant
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// Number of log2 buckets per histogram: bucket `i` holds observations
/// `v` with `2^i <= v+ < 2^(i+1)` (bucket 0 also holds `v == 0`), so the
/// largest bucket covers everything from `2^31` up.
pub const HIST_BUCKETS: usize = 32;

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count (merged by summing).
    Counter,
    /// Point-in-time level — end-of-run table sizes and the like. Gauges
    /// merge by summing too: a sharded run's total entries is the sum of
    /// the shards' private tables.
    Gauge,
    /// Log2-bucketed distribution with count and sum.
    Histogram,
}

/// The label scheme of a family.
#[derive(Debug, Clone, Copy)]
pub enum Labels {
    /// No labels: exactly one cell.
    None,
    /// One label key with a small static value set: one cell per value,
    /// always present (zero-valued cells are kept so snapshots from
    /// different runs align).
    Fixed(&'static str, &'static [&'static str]),
    /// One label key indexed by a dense runtime id (e.g. middlebox
    /// index). Cells are appended in index order by the scraper.
    Dense(&'static str),
}

/// A metric family: the registry entry that gives a metric its name,
/// meaning and invariance class.
#[derive(Debug)]
pub struct FamilyDesc {
    /// Exposition name (Prometheus conventions: `_total` for counters).
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// One-line meaning, exported as the Prometheus `# HELP` text.
    pub help: &'static str,
    /// `true` iff the family's value is provably byte-identical across
    /// `SDM_SHARDS` and drain-limit corners (flow-partitioned additive
    /// counts). Non-invariant families — anything counting *engine
    /// mechanics* such as batch coalescing runs, per-shard queue depths,
    /// expiry sweep passes or per-shard trace truncation — are excluded
    /// from golden exports.
    pub invariant: bool,
    /// Label scheme.
    pub labels: Labels,
}

/// `device=` label values for the per-table families.
pub const DEVICE_KINDS: &[&str] = &["proxy", "ingress", "mbox"];
/// `hop=` label values for the steering families.
pub const STEER_HOPS: &[&str] = &["proxy", "middlebox"];
/// `mode=` label values for the LP-solve family.
pub const LP_MODES: &[&str] = &["cold", "warm"];

/// Registry indices: `family::FLOW_HITS` etc. index [`REGISTRY`] and are
/// the handles all recording/scraping code uses.
pub mod family {
    /// `sdm_flow_table_hits_total`
    pub const FLOW_HITS: usize = 0;
    /// `sdm_flow_table_misses_total`
    pub const FLOW_MISSES: usize = 1;
    /// `sdm_flow_table_negative_hits_total`
    pub const FLOW_NEGATIVE_HITS: usize = 2;
    /// `sdm_flow_table_expired_total`
    pub const FLOW_EXPIRED: usize = 3;
    /// `sdm_flow_table_sweeps_total`
    pub const FLOW_SWEEPS: usize = 4;
    /// `sdm_flow_entries`
    pub const FLOW_ENTRIES: usize = 5;
    /// `sdm_label_entries`
    pub const LABEL_ENTRIES: usize = 6;
    /// `sdm_label_switched_total`
    pub const LABEL_SWITCHED: usize = 7;
    /// `sdm_label_misses_total`
    pub const LABEL_MISSES: usize = 8;
    /// `sdm_steer_decisions_total`
    pub const STEER_DECISIONS: usize = 9;
    /// `sdm_steer_pinned_total`
    pub const STEER_PINNED: usize = 10;
    /// `sdm_queue_occupancy`
    pub const QUEUE_OCCUPANCY: usize = 11;
    /// `sdm_batch_run_length`
    pub const BATCH_RUN_LENGTH: usize = 12;
    /// `sdm_mbox_load_packets_total`
    pub const MBOX_LOAD: usize = 13;
    /// `sdm_mbox_drops_total`
    pub const MBOX_DROPS: usize = 14;
    /// `sdm_packets_delivered_total`
    pub const PACKETS_DELIVERED: usize = 15;
    /// `sdm_link_hops_total`
    pub const LINK_HOPS: usize = 16;
    /// `sdm_packets_dropped_ttl_total`
    pub const DROPPED_TTL: usize = 17;
    /// `sdm_trace_dropped_total`
    pub const TRACE_DROPPED: usize = 18;
    /// `sdm_lp_solves_total`
    pub const LP_SOLVES: usize = 19;
    /// `sdm_lp_pivots_total`
    pub const LP_PIVOTS: usize = 20;
    /// `sdm_epoch_rejections_total`
    pub const EPOCH_REJECTIONS: usize = 21;
    /// `sdm_epoch_activations_total`
    pub const EPOCH_ACTIVATIONS: usize = 22;
}

/// The full metric registry, in export order. `family::*` constants
/// index this array; the DESIGN.md §10 table is generated from it.
pub const REGISTRY: &[FamilyDesc] = &[
    FamilyDesc {
        name: "sdm_flow_table_hits_total",
        kind: MetricKind::Counter,
        help: "Flow-cache lookups that found a live entry, by device kind",
        invariant: true,
        labels: Labels::Fixed("device", DEVICE_KINDS),
    },
    FamilyDesc {
        name: "sdm_flow_table_misses_total",
        kind: MetricKind::Counter,
        help: "Flow-cache lookups that found no live entry, by device kind",
        invariant: true,
        labels: Labels::Fixed("device", DEVICE_KINDS),
    },
    FamilyDesc {
        name: "sdm_flow_table_negative_hits_total",
        kind: MetricKind::Counter,
        help: "Flow-cache hits on negative (no-policy) entries, by device kind",
        invariant: true,
        labels: Labels::Fixed("device", DEVICE_KINDS),
    },
    FamilyDesc {
        name: "sdm_flow_table_expired_total",
        kind: MetricKind::Counter,
        help: "Flow-cache entries evicted after their soft-state TTL, by device kind",
        invariant: true,
        labels: Labels::Fixed("device", DEVICE_KINDS),
    },
    FamilyDesc {
        name: "sdm_flow_table_sweeps_total",
        kind: MetricKind::Counter,
        help: "Amortized expiry sweep passes over the flow cache, by device kind",
        invariant: false,
        labels: Labels::Fixed("device", DEVICE_KINDS),
    },
    FamilyDesc {
        name: "sdm_flow_entries",
        kind: MetricKind::Gauge,
        help: "Live flow-cache entries at snapshot time, by device kind",
        invariant: true,
        labels: Labels::Fixed("device", DEVICE_KINDS),
    },
    FamilyDesc {
        name: "sdm_label_entries",
        kind: MetricKind::Gauge,
        help: "Live middlebox label-table entries at snapshot time",
        invariant: true,
        labels: Labels::None,
    },
    FamilyDesc {
        name: "sdm_label_switched_total",
        kind: MetricKind::Counter,
        help: "Packets forwarded via the SIII.E label-switching fast path",
        invariant: true,
        labels: Labels::None,
    },
    FamilyDesc {
        name: "sdm_label_misses_total",
        kind: MetricKind::Counter,
        help: "Labelled packets whose label had no live table entry",
        invariant: true,
        labels: Labels::None,
    },
    FamilyDesc {
        name: "sdm_steer_decisions_total",
        kind: MetricKind::Counter,
        help: "Fresh next-middlebox selections (one per flow per chain hop)",
        invariant: true,
        labels: Labels::Fixed("hop", STEER_HOPS),
    },
    FamilyDesc {
        name: "sdm_steer_pinned_total",
        kind: MetricKind::Counter,
        help: "Steering lookups answered by a pinned per-flow decision \
               (one per packet or aggregate after a flow's first, whatever \
               the drain limit or shard count)",
        invariant: true,
        labels: Labels::Fixed("hop", STEER_HOPS),
    },
    FamilyDesc {
        name: "sdm_queue_occupancy",
        kind: MetricKind::Histogram,
        help: "Events in flight (the drained batch plus the calendar queue; \
               injections still held by the schedule are not events yet) \
               when a tick's batch is drained (depends on shard/batch \
               configuration)",
        invariant: false,
        labels: Labels::None,
    },
    FamilyDesc {
        name: "sdm_batch_run_length",
        kind: MetricKind::Histogram,
        help: "Length of same-device receive runs coalesced by the event \
               loop (depends on shard/batch configuration)",
        invariant: false,
        labels: Labels::None,
    },
    FamilyDesc {
        name: "sdm_mbox_load_packets_total",
        kind: MetricKind::Counter,
        help: "Packets that received middlebox service, by middlebox index",
        invariant: true,
        labels: Labels::Dense("mbox"),
    },
    FamilyDesc {
        name: "sdm_mbox_drops_total",
        kind: MetricKind::Counter,
        help: "Packets blackholed at a failed middlebox, by middlebox index",
        invariant: true,
        labels: Labels::Dense("mbox"),
    },
    FamilyDesc {
        name: "sdm_packets_delivered_total",
        kind: MetricKind::Counter,
        help: "Packets delivered to their destination stub",
        invariant: true,
        labels: Labels::None,
    },
    FamilyDesc {
        name: "sdm_link_hops_total",
        kind: MetricKind::Counter,
        help: "Router-to-router link traversals (the paper's path-stretch base)",
        invariant: true,
        labels: Labels::None,
    },
    FamilyDesc {
        name: "sdm_packets_dropped_ttl_total",
        kind: MetricKind::Counter,
        help: "Packets dropped on TTL exhaustion",
        invariant: true,
        labels: Labels::None,
    },
    FamilyDesc {
        name: "sdm_trace_dropped_total",
        kind: MetricKind::Counter,
        help: "Trace events discarded past trace_limit (per-shard trace \
               buffers make this shard-dependent)",
        invariant: false,
        labels: Labels::None,
    },
    FamilyDesc {
        name: "sdm_lp_solves_total",
        kind: MetricKind::Counter,
        help: "Load-balancing LP solves by mode: cold from scratch, warm \
               from a reinstalled basis (a stalled dual repair falls back \
               to — and counts as — cold)",
        invariant: true,
        labels: Labels::Fixed("mode", LP_MODES),
    },
    FamilyDesc {
        name: "sdm_lp_pivots_total",
        kind: MetricKind::Counter,
        help: "Simplex pivots across all LP solves (warm solves count \
               their dual-repair pivots here)",
        invariant: true,
        labels: Labels::None,
    },
    FamilyDesc {
        name: "sdm_epoch_rejections_total",
        kind: MetricKind::Counter,
        help: "Epoch re-steers rejected by the static enforcement-plan verifier",
        invariant: true,
        labels: Labels::None,
    },
    FamilyDesc {
        name: "sdm_epoch_activations_total",
        kind: MetricKind::Counter,
        help: "Epoch re-steers that passed the verifier gate and activated",
        invariant: true,
        labels: Labels::None,
    },
];

/// The log2 bucket index of an observation.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((63 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Plain-integer histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistData {
    /// Per-bucket observation counts (`buckets[i]` covers `[2^i, 2^(i+1))`,
    /// bucket 0 additionally covers zero).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl Default for HistData {
    fn default() -> HistData {
        HistData { buckets: [0; HIST_BUCKETS], count: 0, sum: 0 }
    }
}

impl HistData {
    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }
}

/// One cell's value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CellValue {
    Scalar(u64),
    // boxed: a histogram cell is ~35x a scalar cell, and scalars dominate
    Hist(Box<HistData>),
}

/// One (label value, value) cell of a family.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    /// The label *value* (the key lives in the family descriptor);
    /// empty for unlabeled families.
    label: String,
    value: CellValue,
}

/// An immutable-registry, plain-integer snapshot of every family. Built
/// deterministically: fixed-label cells are pre-created (zero-valued) in
/// declaration order, dense cells appended in index order by the
/// scraper, and merges fold pairwise — so two snapshots of equivalent
/// runs are `==` and export byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    families: Vec<Vec<Cell>>,
}

impl Default for Snapshot {
    fn default() -> Snapshot {
        Snapshot::new()
    }
}

impl Snapshot {
    /// An all-zero snapshot with every fixed-label cell pre-created.
    pub fn new() -> Snapshot {
        let families = REGISTRY
            .iter()
            .map(|f| match (f.kind, f.labels) {
                (MetricKind::Histogram, _) => vec![Cell {
                    label: String::new(),
                    value: CellValue::Hist(Box::default()),
                }],
                (_, Labels::None) => vec![Cell {
                    label: String::new(),
                    value: CellValue::Scalar(0),
                }],
                (_, Labels::Fixed(_, values)) => values
                    .iter()
                    .map(|v| Cell { label: (*v).to_string(), value: CellValue::Scalar(0) })
                    .collect(),
                (_, Labels::Dense(_)) => Vec::new(),
            })
            .collect();
        Snapshot { families }
    }

    /// Adds `v` to the single cell of an unlabeled counter/gauge family.
    pub fn add(&mut self, fam: usize, v: u64) {
        self.add_labeled(fam, 0, v);
    }

    /// Adds `v` to the `label_idx`-th fixed-label cell of `fam`.
    pub fn add_labeled(&mut self, fam: usize, label_idx: usize, v: u64) {
        match &mut self.families[fam][label_idx].value {
            CellValue::Scalar(s) => *s += v,
            CellValue::Hist(_) => unreachable!("add_labeled on histogram family"),
        }
    }

    /// Adds `v` to the dense cell `index` of `fam`, creating zero cells
    /// up to `index` as needed (the cell's label value is `index`
    /// rendered in decimal).
    pub fn add_dense(&mut self, fam: usize, index: usize, v: u64) {
        let cells = &mut self.families[fam];
        while cells.len() <= index {
            cells.push(Cell { label: cells.len().to_string(), value: CellValue::Scalar(0) });
        }
        match &mut cells[index].value {
            CellValue::Scalar(s) => *s += v,
            CellValue::Hist(_) => unreachable!("add_dense on histogram family"),
        }
    }

    /// Merges a histogram into the (single) cell of histogram family
    /// `fam`, bucket-wise.
    pub fn add_hist(&mut self, fam: usize, h: &HistData) {
        match &mut self.families[fam][0].value {
            CellValue::Hist(dst) => {
                for (d, s) in dst.buckets.iter_mut().zip(h.buckets.iter()) {
                    *d += s;
                }
                dst.count += h.count;
                dst.sum += h.sum;
            }
            CellValue::Scalar(_) => unreachable!("add_hist on scalar family"),
        }
    }

    /// The current value of the `label_idx`-th cell of a scalar family
    /// (dense families: the cell may not exist yet — missing reads 0).
    pub fn value(&self, fam: usize, label_idx: usize) -> u64 {
        match self.families[fam].get(label_idx).map(|c| &c.value) {
            Some(CellValue::Scalar(s)) => *s,
            Some(CellValue::Hist(h)) => h.count,
            None => 0,
        }
    }

    /// Folds `other` into `self` — counters, gauges and buckets all add.
    /// Callers fold in shard-index order, matching the workspace's merge
    /// discipline (sums commute, but the discipline keeps every fold
    /// site audit-identical).
    pub fn merge(&mut self, other: &Snapshot) {
        for (fam, cells) in other.families.iter().enumerate() {
            for (i, cell) in cells.iter().enumerate() {
                match &cell.value {
                    CellValue::Scalar(v) => {
                        if matches!(REGISTRY[fam].labels, Labels::Dense(_)) {
                            self.add_dense(fam, i, *v);
                        } else {
                            self.add_labeled(fam, i, *v);
                        }
                    }
                    CellValue::Hist(h) => self.add_hist(fam, h),
                }
            }
        }
    }

    fn exported(&self, full: bool) -> impl Iterator<Item = (&'static FamilyDesc, &Vec<Cell>)> {
        REGISTRY
            .iter()
            .zip(self.families.iter())
            .filter(move |(f, _)| full || f.invariant)
    }

    /// Deterministic JSON export. `full = false` (the goldenable mode)
    /// emits only invariant families; `full = true` emits everything.
    pub fn to_json(&self, full: bool) -> String {
        let mut out = String::from("{\n");
        let mut first_fam = true;
        for (f, cells) in self.exported(full) {
            if !first_fam {
                out.push_str(",\n");
            }
            first_fam = false;
            let kind = match f.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            let _ = write!(out, "  \"{}\": {{\"kind\": \"{kind}\"", f.name);
            match f.kind {
                MetricKind::Histogram => {
                    let h = match &cells[0].value {
                        CellValue::Hist(h) => h,
                        CellValue::Scalar(_) => unreachable!(),
                    };
                    let _ = write!(out, ", \"count\": {}, \"sum\": {}, \"buckets\": {{", h.count, h.sum);
                    let mut first = true;
                    for (i, b) in h.buckets.iter().enumerate() {
                        if *b != 0 {
                            if !first {
                                out.push_str(", ");
                            }
                            first = false;
                            let _ = write!(out, "\"{}\": {b}", 1u64 << i);
                        }
                    }
                    out.push_str("}}");
                }
                _ => {
                    out.push_str(", \"cells\": {");
                    let key = match f.labels {
                        Labels::Fixed(k, _) | Labels::Dense(k) => k,
                        Labels::None => "",
                    };
                    let mut first = true;
                    for cell in cells {
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        let v = match &cell.value {
                            CellValue::Scalar(v) => *v,
                            CellValue::Hist(_) => unreachable!(),
                        };
                        if key.is_empty() {
                            let _ = write!(out, "\"\": {v}");
                        } else {
                            let _ = write!(out, "\"{key}={}\": {v}", cell.label);
                        }
                    }
                    out.push_str("}}");
                }
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Prometheus text exposition (version 0.0.4): `# HELP`/`# TYPE`
    /// lines, cumulative `_bucket{le=...}` series for histograms.
    pub fn to_prometheus(&self, full: bool) -> String {
        let mut out = String::new();
        for (f, cells) in self.exported(full) {
            let kind = match f.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            let help: String = f.help.split_whitespace().collect::<Vec<_>>().join(" ");
            let _ = writeln!(out, "# HELP {} {}", f.name, help);
            let _ = writeln!(out, "# TYPE {} {kind}", f.name);
            match f.kind {
                MetricKind::Histogram => {
                    let h = match &cells[0].value {
                        CellValue::Hist(h) => h,
                        CellValue::Scalar(_) => unreachable!(),
                    };
                    let mut cum = 0u64;
                    for (i, b) in h.buckets.iter().enumerate() {
                        cum += b;
                        // upper bound of bucket i is 2^(i+1)-1; skip
                        // trailing empty buckets to keep exports tight
                        if *b != 0 || i == 0 {
                            let le = (1u128 << (i + 1)) - 1;
                            let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cum}", f.name);
                        }
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", f.name, h.count);
                    let _ = writeln!(out, "{}_sum {}", f.name, h.sum);
                    let _ = writeln!(out, "{}_count {}", f.name, h.count);
                }
                _ => {
                    let key = match f.labels {
                        Labels::Fixed(k, _) | Labels::Dense(k) => k,
                        Labels::None => "",
                    };
                    for cell in cells {
                        let v = match &cell.value {
                            CellValue::Scalar(v) => *v,
                            CellValue::Hist(_) => unreachable!(),
                        };
                        if key.is_empty() {
                            let _ = writeln!(out, "{} {v}", f.name);
                        } else {
                            let _ = writeln!(out, "{}{{{key}=\"{}\"}} {v}", f.name, cell.label);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_indices_match_declaration_order() {
        assert_eq!(REGISTRY[family::FLOW_HITS].name, "sdm_flow_table_hits_total");
        assert_eq!(REGISTRY[family::STEER_PINNED].name, "sdm_steer_pinned_total");
        assert_eq!(REGISTRY[family::EPOCH_ACTIVATIONS].name, "sdm_epoch_activations_total");
        assert_eq!(REGISTRY.len(), family::EPOCH_ACTIVATIONS + 1);
        // names are unique and follow prometheus conventions
        let mut names: Vec<_> = REGISTRY.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
        for f in REGISTRY {
            if f.kind == MetricKind::Counter {
                assert!(f.name.ends_with("_total"), "{} missing _total", f.name);
            }
        }
    }

    #[test]
    fn log2_buckets_cover_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn shard_folds_equal_single_histogram() {
        // 10 + 7 observations split over two "shards" and folded in shard
        // order equal one histogram seeing all 17.
        let [mut a, mut b, mut one] = [(); 3].map(|_| HistData::default());
        for v in 0..17 {
            if v < 10 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            one.observe(v);
        }
        let mut folded = Snapshot::new();
        folded.add_hist(family::BATCH_RUN_LENGTH, &a);
        folded.add_hist(family::BATCH_RUN_LENGTH, &b);
        let mut single = Snapshot::new();
        single.add_hist(family::BATCH_RUN_LENGTH, &one);
        assert_eq!(folded, single);
        assert_eq!(folded.to_json(true), single.to_json(true));
        assert_eq!(folded.value(family::BATCH_RUN_LENGTH, 0), 17);
    }

    #[test]
    fn merge_adds_every_cell_kind() {
        let mut a = Snapshot::new();
        a.add(family::PACKETS_DELIVERED, 5);
        a.add_labeled(family::FLOW_HITS, 1, 3);
        a.add_dense(family::MBOX_LOAD, 2, 40);
        a.add_hist(family::QUEUE_OCCUPANCY, &HistData { buckets: { let mut b = [0; HIST_BUCKETS]; b[3] = 2; b }, count: 2, sum: 20 });
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.value(family::PACKETS_DELIVERED, 0), 10);
        assert_eq!(b.value(family::FLOW_HITS, 1), 6);
        assert_eq!(b.value(family::MBOX_LOAD, 2), 80);
        assert_eq!(b.value(family::MBOX_LOAD, 1), 0);
        assert_eq!(b.value(family::MBOX_LOAD, 9), 0); // missing dense cell reads 0
    }

    #[test]
    fn json_export_is_deterministic_and_filters_invariance() {
        let mut snap = Snapshot::new();
        snap.add(family::FLOW_SWEEPS, 9);
        snap.add(family::PACKETS_DELIVERED, 123);
        let golden = snap.to_json(false);
        assert!(golden.contains("\"sdm_packets_delivered_total\""));
        assert!(golden.contains("123"));
        assert!(!golden.contains("sdm_flow_table_sweeps_total"));
        assert!(!golden.contains("sdm_queue_occupancy"));
        let f = snap.to_json(true);
        assert!(f.contains("\"sdm_flow_table_sweeps_total\": {\"kind\": \"counter\", \"cells\": {\"device=proxy\": 9, \"device=ingress\": 0, \"device=mbox\": 0}}"));
        // byte-for-byte stable across identical content
        assert_eq!(golden, snap.clone().to_json(false));
    }

    #[test]
    fn prometheus_export_has_cumulative_buckets() {
        let mut snap = Snapshot::new();
        let mut h = HistData::default();
        h.observe(0);
        h.observe(1);
        h.observe(5);
        snap.add_hist(family::QUEUE_OCCUPANCY, &h);
        let text = snap.to_prometheus(true);
        assert!(text.contains("# TYPE sdm_queue_occupancy histogram"));
        assert!(text.contains("sdm_queue_occupancy_bucket{le=\"1\"} 2"));
        assert!(text.contains("sdm_queue_occupancy_bucket{le=\"7\"} 3"));
        assert!(text.contains("sdm_queue_occupancy_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("sdm_queue_occupancy_sum 6"));
        assert!(text.contains("sdm_queue_occupancy_count 3"));
        // counters carry HELP/TYPE and label sets
        assert!(text.contains("# TYPE sdm_steer_decisions_total counter"));
        assert!(text.contains("sdm_steer_decisions_total{hop=\"proxy\"} 0"));
    }
}
