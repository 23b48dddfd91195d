//! Parallel sweep runner: fan independent simulation configurations across
//! OS threads with `std::thread::scope` — no thread-pool dependency.
//!
//! The experiment binaries sweep a parameter grid (quorum system × failure
//! rate × latency model × seed) where every cell is an independent,
//! self-seeded simulation. [`run_batch`] runs such a grid across cores and
//! returns results *in input order*; because each [`SimConfig`] carries its
//! own RNG seed, every cell's [`Metrics`] are bit-identical to a serial
//! [`run`](crate::run) of the same config, regardless of thread count or
//! scheduling. The generic [`par_map`] underneath is shared by the
//! explorer-facing experiments too.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::metrics::Metrics;
use crate::observe::Observe;
use crate::sim::{run, SimConfig};

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 if that cannot be determined.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Apply `f` to every item on up to `threads` scoped worker threads,
/// returning the results in input order.
///
/// Work is handed out through a shared atomic cursor, so threads stay busy
/// even when item costs are skewed; each result is written to the slot of
/// its item's index, which makes the output order (and therefore any fold
/// over it) independent of thread timing. `threads` is clamped to at least
/// 1 and at most the item count. A panic in `f` propagates to the caller
/// with its *original payload* — the workers are joined by hand rather
/// than letting `std::thread::scope` replace the payload with its generic
/// "a scoped thread panicked" message, so `should_panic(expected = …)`
/// tests and assertion messages from inside simulations survive the fan-out.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work mutex")
                        .take()
                        .expect("each item is claimed exactly once");
                    let r = f(i, item);
                    *results[i].lock().expect("result mutex") = Some(r);
                })
            })
            .collect();
        // Join every worker before re-raising, so no thread outlives the
        // scope; the first panic payload (by spawn order) wins.
        let mut first_panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result mutex")
                .expect("every item was processed")
        })
        .collect()
}

/// What one event loop of a multi-loop driver (a shard, a domain) hands
/// back to the merge step.
pub(crate) struct LoopOutcome<C, O> {
    /// The loop's counters: `Metrics` or `TxnStats`.
    pub counters: C,
    /// `(global item id, commits, final vn)` per owned item.
    pub items: Vec<(usize, u64, u64)>,
    /// The loop's observer.
    pub obs: O,
}

/// Merge per-loop outcomes in loop-index order (`par_map` returns them in
/// input order regardless of thread count): the counters through `merge`,
/// each loop's observer absorbed into `obs`, and the per-item commit counts
/// and final version numbers over a keyspace of `items`.
pub(crate) fn merge_outcomes<C: Default, O: Observe>(
    items: usize,
    outcomes: Vec<LoopOutcome<C, O>>,
    obs: &mut O,
    merge: fn(&mut C, &C),
) -> (C, Vec<u64>, Vec<u64>) {
    let mut counters = C::default();
    let mut item_commits = vec![0u64; items];
    let mut item_vns = vec![0u64; items];
    for out in outcomes {
        merge(&mut counters, &out.counters);
        obs.absorb(out.obs);
        for (g, commits, vn) in out.items {
            item_commits[g] = commits;
            item_vns[g] = vn;
        }
    }
    (counters, item_commits, item_vns)
}

/// Run every configuration (each with its own seed baked in) and return
/// the metrics in input order. Bit-identical to mapping [`run`] serially
/// over the same configs.
#[must_use]
pub fn run_batch(configs: Vec<SimConfig>, threads: usize) -> Vec<Metrics> {
    par_map(configs, threads, |_, config| run(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use quorum::Majority;
    use std::sync::Arc;

    fn grid() -> Vec<SimConfig> {
        (0..6)
            .map(|i| {
                let mut c = SimConfig::new(Arc::new(Majority::new(5)));
                c.duration = SimTime::from_secs(2);
                c.seed = 1000 + i;
                c
            })
            .collect()
    }

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 4, 32] {
            let out = par_map((0..25).collect::<Vec<u64>>(), threads, |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, (0..25).map(|x| x * x).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn par_map_empty_input() {
        let out: Vec<u64> = par_map(Vec::<u64>::new(), 8, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_preserves_panic_payloads() {
        // A worker panic must surface with its original payload, not the
        // scope's generic "a scoped thread panicked" message.
        let result = std::panic::catch_unwind(|| {
            par_map((0..16).collect::<Vec<u64>>(), 4, |_, x| {
                if x == 11 {
                    panic!("simulation {x} exploded");
                }
                x
            })
        });
        let payload = result.expect_err("a worker panicked");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload is a string");
        assert_eq!(msg, "simulation 11 exploded");
    }

    #[test]
    fn faulted_batch_matches_serial_bit_for_bit() {
        // A fault plan (crashes + aborts + retries) must not disturb the
        // batch runner's determinism guarantee.
        let faulted = || -> Vec<SimConfig> {
            grid()
                .into_iter()
                .map(|mut c| {
                    c.faults = crate::FaultPlan::random(c.seed, 5, c.clients, c.duration, 2, 2);
                    c.retry = crate::RetryPolicy::retries(3, SimTime::from_millis(5));
                    c.record_history = true;
                    c
                })
                .collect()
        };
        let serial: Vec<Metrics> = faulted().into_iter().map(run).collect();
        let parallel = run_batch(faulted(), 4);
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(format!("{p:?}"), format!("{s:?}"));
            assert_eq!(p.lemma_violations, 0, "violations: {:?}", p.violations);
        }
    }

    #[test]
    fn batch_matches_serial_bit_for_bit() {
        let serial: Vec<Metrics> = grid().into_iter().map(run).collect();
        for threads in [1, 3, 8] {
            let parallel = run_batch(grid(), threads);
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(format!("{p:?}"), format!("{s:?}"), "threads={threads}");
            }
        }
    }
}
