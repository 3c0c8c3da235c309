//! Scoped-thread parallel map, replacing the `crossbeam` dependency for
//! experiment sweeps and the flow-sharded data plane. Built on
//! `std::thread::scope`, so borrowed inputs need no `'static` bound and no
//! unsafe code.

use std::num::NonZeroUsize;
use std::thread;

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
}

/// Detected hardware parallelism (`available_parallelism`, 1 on failure).
pub fn hardware_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Number of worker threads a sweep should use: `available_parallelism`
/// capped by the item count. `SDM_THREADS` overrides the autodetected
/// count, so CI can force sequential runs.
pub fn thread_count(items: usize) -> usize {
    let hw = env_usize("SDM_THREADS").unwrap_or_else(hardware_threads);
    hw.clamp(1, items.max(1))
}

/// Number of flow shards the sharded data plane should use: `SDM_SHARDS`
/// when set, otherwise `available_parallelism` capped at 8 (beyond that the
/// per-shard engine clones cost more memory than the extra threads return).
/// Always at least 1.
pub fn shard_count() -> usize {
    env_usize("SDM_SHARDS").unwrap_or_else(|| hardware_threads().min(8))
}

/// Applies `f` to every item on a scoped thread pool and returns the
/// results **in input order**. `f` receives `(index, &item)`.
///
/// Items are dealt round-robin across workers, which balances sweeps whose
/// cost grows monotonically with the index (e.g. traffic volumes).
///
/// # Example
///
/// ```
/// let squares = sdm_util::par::par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Propagates the first joined worker's panic with its original payload.
/// The scope joins every worker before unwinding past it, so a panicking
/// worker never deadlocks or detaches the others.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(thread_count(items.len()), items, f)
}

/// [`par_map`] with an explicit worker count (ignoring the environment and
/// hardware autodetection). `workers` is clamped to `1..=items.len()`;
/// with one worker the map runs sequentially on the caller's thread.
pub fn par_map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut indexed: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                scope.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(i, t)| (i, f(i, t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results,
                // Re-raise with the original payload so callers can match
                // on the worker's message; `scope` still joins the
                // remaining workers before this unwind escapes it.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn preserves_order_and_values() {
        let input: Vec<u64> = (0..100).collect();
        let out = par_map(&input, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn actually_runs_concurrently_when_allowed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        let items: Vec<u32> = (0..8).collect();
        par_map(&items, |_, _| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        // with >= 2 hardware threads at least two items overlap
        if thread_count(items.len()) >= 2 {
            assert!(peak.load(Ordering::SeqCst) >= 2);
        }
    }

    #[test]
    fn results_stay_index_ordered_despite_completion_order() {
        // Later items finish *first* (earlier items sleep longer), so any
        // completion-order collection would reverse the output. The sharded
        // merge relies on index order, not completion order.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map_with(4, &items, |i, &x| {
            std::thread::sleep(std::time::Duration::from_millis(
                (items.len() - i) as u64 * 2,
            ));
            x * 10
        });
        assert_eq!(out, (0..16).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_payload_without_deadlock() {
        let items: Vec<u32> = (0..8).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(4, &items, |i, &x| {
                if i == 5 {
                    panic!("shard 5 exploded");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("shard 5 exploded"), "payload lost: {msg:?}");
    }

    #[test]
    fn worker_panic_in_sequential_path_also_propagates() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(1, &[1u32, 2], |_, _| -> u32 { panic!("sequential boom") })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn explicit_worker_count_is_clamped() {
        let items: Vec<u32> = (0..3).collect();
        assert_eq!(par_map_with(0, &items, |_, &x| x), vec![0, 1, 2]);
        assert_eq!(par_map_with(64, &items, |_, &x| x), vec![0, 1, 2]);
    }

    #[test]
    fn shard_count_is_positive() {
        assert!(shard_count() >= 1);
    }
}
