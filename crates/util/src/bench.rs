//! A micro-benchmark timing harness replacing `criterion`.
//!
//! Each benchmark auto-calibrates a batch size until one batch takes at
//! least a minimum wall time, warms up, then records N timed samples and
//! prints per-iteration median / p95. Nothing is written to disk: the
//! committed performance record is `BENCHMARK.json` + `benchmark/`, and
//! the `cargo bench` groups are measurement programs to read, not a ledger.
//!
//! Environment knobs (all optional):
//!
//! * `SDM_BENCH_SAMPLES` — timed samples per benchmark (default 20);
//! * `SDM_BENCH_MIN_SAMPLE_MS` — minimum batch wall time (default 5 ms).

use std::time::Instant;

/// Statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (unique within its group).
    pub name: String,
    /// Iterations per timed sample.
    pub batch: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Mean ns/iteration over samples.
    pub mean_ns: f64,
    /// Median ns/iteration.
    pub median_ns: f64,
    /// 95th-percentile ns/iteration.
    pub p95_ns: f64,
    /// Fastest sample's ns/iteration.
    pub min_ns: f64,
}

fn human(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// A named group of benchmarks; mirrors criterion's `benchmark_group`.
pub struct Runner {
    group: String,
    samples: usize,
    min_sample_ns: u128,
}

impl Runner {
    /// A new group. Reads the `SDM_BENCH_*` environment knobs.
    pub fn new(group: &str) -> Runner {
        let samples = std::env::var("SDM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20);
        let min_ms: u64 = std::env::var("SDM_BENCH_MIN_SAMPLE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(5);
        eprintln!("## bench group `{group}`");
        Runner {
            group: group.to_string(),
            samples: samples.max(2),
            min_sample_ns: (min_ms as u128) * 1_000_000,
        }
    }

    /// Times `f`, prints one line and returns the statistics.
    ///
    /// Calibration doubles the batch size until one batch reaches the
    /// minimum sample time (the calibration runs double as warmup), then
    /// `samples` batches are timed.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> BenchResult {
        let mut batch: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed().as_nanos();
            if elapsed >= self.min_sample_ns || batch >= (1 << 24) {
                break;
            }
            // jump straight towards the target when far away
            let factor = self
                .min_sample_ns
                .checked_div(elapsed)
                .map_or(16, |f| (f + 1).clamp(2, 16) as u64);
            batch = batch.saturating_mul(factor);
        }

        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
                t.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let median = per_iter[per_iter.len() / 2];
        let p95 = per_iter[((per_iter.len() as f64 * 0.95) as usize).min(per_iter.len() - 1)];
        let min = per_iter[0];
        eprintln!(
            "{:<40} median {:>12}  p95 {:>12}  (batch {batch}, {} samples)",
            format!("{}/{}", self.group, name),
            human(median),
            human(p95),
            per_iter.len()
        );
        BenchResult {
            name: name.to_string(),
            batch,
            samples: per_iter.len(),
            mean_ns: mean,
            median_ns: median,
            p95_ns: p95,
            min_ns: min,
        }
    }

    /// Prints a directly measured scalar — an algorithmic counter such
    /// as a flow-class count — as a line named `name` in this group.
    pub fn record(&self, name: &str, value: f64) {
        eprintln!(
            "{:<40} value  {value:>12.0}  (recorded counter)",
            format!("{}/{}", self.group, name)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_produces_sane_stats() {
        std::env::set_var("SDM_BENCH_SAMPLES", "5");
        std::env::set_var("SDM_BENCH_MIN_SAMPLE_MS", "1");

        let r = Runner::new("selftest");
        let res = r.bench("sum", || (0..1000u64).sum::<u64>());
        assert!(res.median_ns > 0.0);
        assert!(res.min_ns <= res.median_ns && res.median_ns <= res.p95_ns);
        assert!(res.batch >= 1);
        assert_eq!(res.samples, 5);

        std::env::remove_var("SDM_BENCH_SAMPLES");
        std::env::remove_var("SDM_BENCH_MIN_SAMPLE_MS");
    }
}
