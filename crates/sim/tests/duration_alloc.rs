//! Pins that a run keeps only what an observer asked for: memory that
//! grows with a run's duration is an observer's, never the driver's.
//!
//! The first test runs the plain nested-transaction driver (no observer)
//! on the banking workload for 75 and for 300 simulated seconds and
//! requires the same peak live bytes within 64 KiB. A driver that keeps
//! every committed transaction for an observer that is not there differs
//! by the log of the extra 225 s: several MiB.
//!
//! The second runs one single-item configuration under plain `run` with
//! `SimConfig::obs` set to everything and to nothing: `run` has no
//! observer, so both make the same allocator calls and reach the same peak.
//!
//! The counting allocator is global, so the tests take [`SERIAL`] rather
//! than pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nested_txn::{BankingGen, WorkloadKind};
use qc_sim::{run, run_txn, FaultPlan, ObsOptions, RetryPolicy, SimConfig, SimTime, TxnConfig};
use quorum::Majority;

struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

fn grow(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls and peak live bytes above the starting level while `f`
/// runs, and what it returned.
fn measured<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (calls, base) = (CALLS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (CALLS.load(Ordering::Relaxed) - calls, peak, out)
}

fn banking(secs: u64) -> TxnConfig {
    let mut c = TxnConfig::new(
        Arc::new(Majority::new(3)),
        WorkloadKind::Banking(BankingGen::new(4)),
    );
    c.duration = SimTime::from_secs(secs);
    c.seed = 17;
    c
}

#[test]
fn a_plain_nested_run_keeps_nothing_that_grows_with_its_duration() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_, short_peak, short) = measured(|| run_txn(&banking(75), 1));
    let (_, long_peak, long) = measured(|| run_txn(&banking(300), 1));
    let (short_txns, long_txns) = (short.stats.txns_committed, long.stats.txns_committed);
    assert!(
        long_txns > 3 * short_txns,
        "workload too small to be meaningful: {short_txns} vs {long_txns} commits"
    );
    assert!(
        long_peak.abs_diff(short_peak) <= 64 * 1024,
        "peak live bytes {short_peak} after 75 s ({short_txns} commits) and {long_peak} \
         after 300 s ({long_txns} commits): the run keeps something per transaction"
    );
}

#[test]
fn a_plain_run_ignores_the_observation_options() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let config = |obs| {
        let mut c = SimConfig::new(Arc::new(Majority::new(5)));
        c.duration = SimTime::from_secs(3);
        c.read_fraction = 0.5;
        c.faults = FaultPlan::new()
            .crash_at(SimTime::from_millis(500), 0)
            .recover_at(SimTime::from_millis(1_500), 0);
        c.retry = RetryPolicy::retries(3, SimTime::from_millis(2));
        c.obs = obs;
        c
    };
    // Warm-up: one-time lazy initialisation is not the run's.
    run(config(ObsOptions::disabled()));
    let (calls, peak, m) = measured(|| run(config(ObsOptions::disabled())));
    let (full_calls, full_peak, full_m) = measured(|| run(config(ObsOptions::full())));
    assert_eq!(m.digest(), full_m.digest());
    assert_eq!(
        (full_calls, full_peak),
        (calls, peak),
        "allocator calls and peak live bytes with full observation options vs none"
    );
}
