//! What every workload shares: the run configuration, the correctness
//! ledger behind `fail_share`, set-up repetition and the timed loop.

use std::time::Instant;

use crate::metrics::Layers;
use crate::span::Tracer;

/// One run's parameters, all from the command line.
#[derive(Clone, Copy)]
pub struct RunCfg {
    /// Traffic seed: flows are drawn with `seed + 10` (flash crowd
    /// `seed + 11`), assertion endpoints with `seed`. The world is fixed,
    /// see [`crate::world::WORLD_SEED`].
    pub seed: u64,
    /// Measure until this many seconds have passed (and the workload's
    /// minimum iteration count is reached).
    pub seconds: f64,
    /// Traced pass: telemetry on, spans recorded, unit costs measured.
    pub trace: bool,
    /// Inputs ÷ 20 and three iterations: exercises every code path fast.
    pub smoke: bool,
}

impl RunCfg {
    /// `n` at full size, `n / 20` (at least 1) under `--smoke`.
    pub fn scaled(&self, n: u64) -> u64 {
        if self.smoke {
            (n / 20).max(1)
        } else {
            n
        }
    }
}

/// Operations attempted and failed. An operation is one injected packet
/// (it must be delivered) or one stated invariant (it must hold).
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.note(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// Counts one invariant.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Wall time of every untraced timed iteration, one vector per
    /// stratum: iterations of one stratum do identical work (the one
    /// stratum of most workloads, one per flow population of
    /// `campus_epoch`). See [`crate::metrics::stratified`].
    pub iter_ms: Vec<Vec<f64>>,
    /// Work units one iteration completes: simulated packets delivered
    /// (symbolic flow classes for `waxman_reach`, which has no packets).
    pub units_per_iter: f64,
    /// Wall time of every repetition of the set-up.
    pub setup_s: Vec<f64>,
    pub checks: Checks,
    /// The iteration's simulated statistics, identical across iterations,
    /// runs and (for one seed) commits that keep behaviour.
    pub digest: String,
    /// Per-layer metrics (traced pass only).
    pub layers: Layers,
    /// Shards the data plane ran on.
    pub shards: usize,
}

impl Outcome {
    /// Timed iterations of the run, all strata together.
    pub fn iterations(&self) -> usize {
        self.iter_ms.iter().map(Vec::len).sum()
    }
}

/// Set-up is repeated so `setup_s` is a median, not a single sample.
const SETUP_REPS: usize = 3;

/// Runs `build` [`SETUP_REPS`] times (once when traced or under
/// `--smoke`, where `setup_s` is not reported), keeping the last result.
///
/// `build` is everything that happens before the first timed iteration:
/// world build, input generation and the warm-up (one full iteration; for
/// `campus_epoch` the epochs up to the warm steady state). Work a change
/// moves out of the timed iterations lands here whether it moves into a
/// constructor or into first-use initialisation, and because the
/// repetitions warm the process, [`measure`] needs no warm-up of its own.
pub fn repeat_setup<T>(
    cfg: &RunCfg,
    tr: &mut Tracer,
    mut build: impl FnMut(&mut Tracer) -> T,
) -> (T, Vec<f64>) {
    let reps = if cfg.trace || cfg.smoke {
        1
    } else {
        SETUP_REPS
    };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take()); // peak memory is one world, not two
        let t = Instant::now();
        let id = tr.enter("setup");
        last = Some(build(tr));
        tr.exit(id);
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), times)
}

/// On a stalled host (this class of VM loses its processors to
/// neighbours for minutes at a time) `min_iters` iterations can take
/// longer than the driver allows a run: once the timed loop has run
/// [`OVERRUN_FACTOR`] times `--seconds`, [`OVERRUN_MIN_ITERS`] suffice.
const OVERRUN_FACTOR: f64 = 6.0;
const OVERRUN_MIN_ITERS: u32 = 3;

/// Iteration wall times of one run.
pub struct Timing {
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
}

impl Timing {
    /// Traced over untraced median iteration time, minus one.
    pub fn overhead_share(&self) -> f64 {
        let base = crate::metrics::median(&self.untraced_ms);
        if base > 0.0 {
            crate::metrics::median(&self.traced_ms) / base - 1.0
        } else {
            0.0
        }
    }
}

/// The closed, fixed-work loop: every call of `iter` does the same
/// simulated work from the same inputs and returns its digest, which
/// must equal the first iteration's.
///
/// Untraced: timed iterations until both `cfg.seconds` and `min_iters`
/// are reached (or the run has overrun, see [`OVERRUN_FACTOR`]). Traced: the same, in pairs
/// of one untraced and one traced iteration, alternating which goes
/// first, so the overhead compares like with like.
pub fn measure(
    cfg: &RunCfg,
    tr: &mut Tracer,
    min_iters: usize,
    checks: &mut Checks,
    mut iter: impl FnMut(&mut Tracer, bool, &mut Checks) -> String,
) -> (Timing, String) {
    let (min_iters, seconds) = if cfg.smoke {
        (3, 0.0)
    } else {
        (min_iters.max(1), cfg.seconds)
    };
    let mut timing = Timing {
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
    };
    let mut first: Option<String> = None;
    let mut run = |tr: &mut Tracer, traced: bool, checks: &mut Checks| -> f64 {
        tr.set_paused(!traced);
        let t = Instant::now();
        let id = tr.enter("iteration");
        let digest = iter(tr, traced, checks);
        tr.exit(id);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match &first {
            None => first = Some(digest),
            Some(f) => checks.check(*f == digest, || {
                format!("iteration digest changed:\n  first {f}\n  now   {digest}")
            }),
        }
        ms
    };

    let start = Instant::now();
    let mut n = 0u32;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let overrun = n >= OVERRUN_MIN_ITERS && elapsed >= OVERRUN_FACTOR * seconds;
        if elapsed >= seconds && (n as usize >= min_iters || overrun) {
            break;
        }
        tr.set_iter(n);
        if cfg.trace {
            let traced_first = n.is_multiple_of(2);
            for traced in [traced_first, !traced_first] {
                let ms = run(tr, traced, checks);
                if traced {
                    timing.traced_ms.push(ms);
                } else {
                    timing.untraced_ms.push(ms);
                }
            }
        } else {
            let ms = run(tr, false, checks);
            timing.untraced_ms.push(ms);
        }
        n += 1;
    }
    tr.set_paused(false);
    (timing, first.expect("at least one iteration ran"))
}
