//! A minimal property-testing harness replacing `proptest`.
//!
//! A property test is (1) a *generator* — any `Fn(&mut StdRng) -> T` —
//! and (2) a *property* over the generated value returning
//! `Result<(), String>`. The harness runs a configurable number of cases,
//! each from an independently derived case seed; on failure it shrinks the
//! input (halving numbers, truncating collections, component-wise for
//! tuples) and panics with the failing case seed, the shrunk input and the
//! original input, so a failure is reproducible from the report alone.
//!
//! ```
//! use sdm_util::prop::{check, Config};
//! check("sum commutes", &Config::with_cases(64),
//!     |rng| (rng.gen_range(0..100u32), rng.gen_range(0..100u32)),
//!     |&(a, b)| {
//!         sdm_util::prop_assert_eq!(a + b, b + a);
//!         Ok(())
//!     });
//! ```
//!
//! The assertion macros ([`prop_assert!`](crate::prop_assert),
//! [`prop_assert_eq!`](crate::prop_assert_eq)) early-return an `Err` with
//! file/line context, mirroring their `proptest` namesakes.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{mix_seed, StdRng};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Base seed; case `i` runs from `mix_seed(seed, i)`.
    pub seed: u64,
    /// Upper bound on accepted shrink steps.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        let cases = std::env::var("SDM_PROP_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        let seed = std::env::var("SDM_PROP_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0x5D11_F00D);
        Config {
            cases,
            seed,
            max_shrink_steps: 2048,
        }
    }
}

impl Config {
    /// A config running `cases` cases (seed and shrink budget default;
    /// `SDM_PROP_CASES` still raises, but never lowers, the count so CI
    /// can crank thoroughness up without touching code).
    pub fn with_cases(cases: u32) -> Self {
        let d = Config::default();
        Config {
            cases: cases.max(if std::env::var("SDM_PROP_CASES").is_ok() {
                d.cases
            } else {
                0
            }),
            ..d
        }
    }
}

/// Values the harness knows how to shrink. Candidates must be "smaller"
/// (the harness bounds total accepted steps, so approximate monotonicity
/// is enough).
pub trait Shrink: Sized {
    /// Candidate smaller values, most aggressive first.
    fn shrink_candidates(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! impl_shrink_uint {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink_candidates(&self) -> Vec<Self> {
                let mut out = Vec::new();
                if *self > 0 {
                    out.push(self / 2);
                    out.push(self - 1);
                }
                out.dedup();
                out
            }
        }
    )*};
}

impl_shrink_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_shrink_sint {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink_candidates(&self) -> Vec<Self> {
                if *self == 0 {
                    Vec::new()
                } else {
                    let mut out = vec![self / 2];
                    out.push(self - self.signum());
                    out.dedup();
                    out
                }
            }
        }
    )*};
}

impl_shrink_sint!(i8, i16, i32, i64, isize);

impl Shrink for f64 {
    fn shrink_candidates(&self) -> Vec<Self> {
        if self.abs() < 1e-9 || !self.is_finite() {
            Vec::new()
        } else {
            vec![0.0, self / 2.0]
        }
    }
}

impl Shrink for bool {
    fn shrink_candidates(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl<T: Shrink + Clone> Shrink for Option<T> {
    fn shrink_candidates(&self) -> Vec<Self> {
        match self {
            None => Vec::new(),
            Some(v) => {
                let mut out = vec![None];
                out.extend(v.shrink_candidates().into_iter().map(Some));
                out
            }
        }
    }
}

impl<T: Shrink + Clone> Shrink for Vec<T> {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.len() > 1 {
            out.push(self[..self.len() / 2].to_vec()); // truncate to half
            out.push(self[..self.len() - 1].to_vec()); // drop last
        }
        // element-wise: first shrink candidate of each of the first 16
        for (i, v) in self.iter().enumerate().take(16) {
            if let Some(s) = v.shrink_candidates().into_iter().next() {
                let mut copy = self.clone();
                copy[i] = s;
                out.push(copy);
            }
        }
        out
    }
}

impl<T: Shrink + Clone, const N: usize> Shrink for [T; N] {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for i in 0..N {
            for s in self[i].shrink_candidates() {
                let mut copy = self.clone();
                copy[i] = s;
                out.push(copy);
            }
        }
        out
    }
}

macro_rules! impl_shrink_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Shrink + Clone),+> Shrink for ($($name,)+) {
            fn shrink_candidates(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for s in self.$idx.shrink_candidates() {
                        let mut copy = self.clone();
                        copy.$idx = s;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    )+};
}

impl_shrink_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
);

/// Runs `prop` over `cfg.cases` generated inputs.
///
/// On failure the input is shrunk — a candidate is accepted only if the
/// property still returns `Err` on it (candidate panics are treated as
/// "not accepted", so out-of-domain shrinks cannot hijack the report) —
/// and the harness panics with the case seed and both the shrunk and the
/// original input.
///
/// # Panics
///
/// Panics (test failure) when the property fails on any case.
pub fn check<T, G, P>(name: &str, cfg: &Config, gen: G, prop: P)
where
    T: Clone + Debug + Shrink,
    G: Fn(&mut StdRng) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    for case in 0..cfg.cases {
        let case_seed = mix_seed(cfg.seed, case as u64);
        let mut rng = StdRng::seed_from_u64(case_seed);
        let value = gen(&mut rng);
        if let Err(msg) = prop(&value) {
            let (shrunk, steps, final_msg) = shrink(&value, msg, &prop, cfg.max_shrink_steps);
            panic!(
                "property `{name}` failed at case {case}/{} (case seed {case_seed}, base seed {}):\n  \
                 {final_msg}\n  \
                 shrunk input (after {steps} shrink steps): {shrunk:?}\n  \
                 original input: {value:?}\n  \
                 rerun with SDM_PROP_SEED={} to reproduce",
                cfg.cases, cfg.seed, cfg.seed
            );
        }
    }
}

/// Fuzzes a text parser. Each of `cases` cases picks one of `texts`,
/// applies 1–8 byte edits (insert a byte of `alphabet`, delete a byte or
/// flip a bit; positions fall within the first 64 KiB) and hands the
/// lossily decoded result to `prop`. A panic inside `prop` fails the case
/// as an `Err` does, so the edit list is shrunk either way.
///
/// # Panics
///
/// Panics (test failure) when `prop` fails or panics on any case.
pub fn fuzz_text<P>(name: &str, cases: u32, texts: &[&str], alphabet: &[u8], prop: P)
where
    P: Fn(&str) -> Result<(), String>,
{
    check(
        name,
        &Config::with_cases(cases),
        |rng| {
            let n = rng.gen_range(1..9usize);
            let edits: Vec<(u8, u16, u8)> = (0..n)
                .map(|_| (rng.next_u32() as u8, rng.next_u32() as u16, rng.next_u32() as u8))
                .collect();
            (rng.next_u32() as u8, edits)
        },
        |(text, edits)| {
            let mut bytes = texts[*text as usize % texts.len()].as_bytes().to_vec();
            for &(kind, at, byte) in edits {
                let at = at as usize % (bytes.len() + 1);
                match kind % 3 {
                    0 => bytes.insert(at, alphabet[byte as usize % alphabet.len()]),
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    2 if at < bytes.len() => bytes[at] ^= 1 << (byte % 8),
                    _ => {}
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            catch_unwind(AssertUnwindSafe(|| prop(&text)))
                .unwrap_or_else(|_| Err("the parser panicked".to_string()))
        },
    );
}

fn shrink<T, P>(value: &T, msg: String, prop: &P, budget: u32) -> (T, u32, String)
where
    T: Clone + Debug + Shrink,
    P: Fn(&T) -> Result<(), String>,
{
    let mut current = value.clone();
    let mut current_msg = msg;
    let mut steps = 0;
    'outer: while steps < budget {
        for cand in current.shrink_candidates() {
            // A panicking candidate (e.g. violating a generator-domain
            // assert) is rejected, not treated as a failure.
            let outcome = catch_unwind(AssertUnwindSafe(|| prop(&cand)));
            if let Ok(Err(m)) = outcome {
                current = cand;
                current_msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break; // no candidate still fails: fully shrunk
    }
    (current, steps, current_msg)
}

/// Early-returns `Err(..)` from a property closure when the condition is
/// false; drop-in for proptest's macro of the same name.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "{} ({}:{})",
                format!($($fmt)+),
                file!(),
                line!()
            ));
        }
    };
}

/// Early-returns `Err(..)` when the two expressions differ; drop-in for
/// proptest's macro of the same name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n    left: {:?}\n   right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{}: left {:?} != right {:?} ({}:{})",
                format!($($fmt)+),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0u32;
        // interior mutability via Cell keeps the property Fn
        let counter = std::cell::Cell::new(0u32);
        check(
            "count",
            &Config {
                cases: 64,
                seed: 1,
                max_shrink_steps: 10,
            },
            |rng| rng.gen_range(0..100u32),
            |_| {
                counter.set(counter.get() + 1);
                Ok(())
            },
        );
        seen += counter.get();
        assert_eq!(seen, 64);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let outcome = catch_unwind(|| {
            check(
                "gt-100 fails",
                &Config {
                    cases: 256,
                    seed: 3,
                    max_shrink_steps: 2048,
                },
                |rng| rng.gen_range(0..10_000u64),
                |&v| {
                    crate::prop_assert!(v < 100, "value {v} too large");
                    Ok(())
                },
            )
        });
        let err = outcome.expect_err("property must fail");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic message is a String");
        assert!(msg.contains("case seed"), "missing seed report: {msg}");
        // shrinking by halving/decrement must reach the boundary exactly
        assert!(
            msg.contains("shrunk input (after") && msg.contains(": 100"),
            "missing/imperfect shrunk case: {msg}"
        );
    }

    #[test]
    fn vec_shrinking_truncates() {
        let v = vec![10u32, 20, 30, 40];
        let cands = v.shrink_candidates();
        assert!(cands.contains(&vec![10, 20]));
        assert!(cands.contains(&vec![10, 20, 30]));
    }
}
