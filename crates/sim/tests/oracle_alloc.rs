//! Pins the memory contract of the Theorem 10 oracle: what `check_trace`
//! holds live does not grow with the trace.
//!
//! `check_trace` makes one pass over the events and hands serial system A
//! each transaction manager's four α operations as the manager's block
//! closes. α names the managers `T0.0, T0.1, …`, each once, so the step
//! that returns `T0.k` also retires it from the scheduler and the object:
//! their name trees move a watermark past it and reuse its slot. What is
//! live is the open block, the replica stores, the lemma checker and a
//! system A of the root and at most one access — nothing proportional to
//! the managers, the operations or the events, so the 5-second and the
//! 10-second run peak at the same few kilobytes. Per committed manager
//! there is one allocation: the name `T0.k` its four operations share,
//! freed when the block has been stepped.
//!
//! The counting allocator is global, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qc_sim::{check_trace, run_traced, ContactPolicy, QueueKind, SimConfig, SimTime};
use quorum::Majority;

struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by as u64, Ordering::Relaxed) + by as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls `check_trace` may make per committed transaction
/// manager. It makes 1.0001: the name.
const CALLS_PER_COMMITTED_TM: f64 = 1.1;

/// Live bytes `check_trace` may add at its peak, on any run length. It
/// adds 2 378 on both runs below; without retirement system A would hold 167 bytes per
/// committed manager (a scheduler node, a created flag and a child entry
/// in each name tree), 18 MiB over the 10-second run.
const PEAK_LIVE_BYTES: u64 = 64 * 1024;

/// `(committed managers, trace events, allocator calls, peak live bytes)`
/// of one `check_trace` over a `secs`-second run of the benchmark's
/// checked workload.
fn checked(secs: u64) -> (usize, usize, u64, u64) {
    let mut c = SimConfig::new(Arc::new(Majority::new(5)));
    c.clients = 8;
    c.think_time = SimTime::ZERO;
    c.read_fraction = 0.5;
    c.contact = ContactPolicy::MinimalQuorum;
    c.duration = SimTime::from_secs(secs);
    c.seed = 23;
    c.queue = QueueKind::Calendar;
    let quorum = Arc::clone(&c.quorum);
    let (_, trace) = run_traced(c);

    let calls_before = CALLS.load(Ordering::Relaxed);
    let live_before = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let report = check_trace(&trace, &*quorum).expect("the run conforms");
    let calls = CALLS.load(Ordering::Relaxed) - calls_before;
    let peak = PEAK.load(Ordering::Relaxed) - live_before;
    assert_eq!(report.aborted, 0, "a healthy run: every manager commits");
    (report.committed, report.events, calls, peak)
}

#[test]
fn the_oracle_allocates_per_transaction_not_per_operation_or_event() {
    // Warm-up so one-time lazy initialisation is paid.
    checked(1);

    let (short_tms, short_events, short_calls, short_peak) = checked(5);
    let (long_tms, long_events, long_calls, long_peak) = checked(10);
    let tms = (long_tms - short_tms) as f64;
    assert!(
        tms > 20_000.0,
        "workload too small: {short_tms} vs {long_tms} managers"
    );

    let calls_per_tm = (long_calls - short_calls) as f64 / tms;
    assert!(
        calls_per_tm <= CALLS_PER_COMMITTED_TM,
        "check_trace made {calls_per_tm:.2} allocator calls per extra committed manager \
         ({short_calls} for {short_tms}, {long_calls} for {long_tms})"
    );

    for (tms, events, peak) in [
        (short_tms, short_events, short_peak),
        (long_tms, long_events, long_peak),
    ] {
        assert!(
            peak <= PEAK_LIVE_BYTES,
            "check_trace held {peak} more live bytes at its peak over {events} events and \
             {tms} committed managers: something grows with the trace"
        );
    }
}
