//! Pins the allocation contract of the Theorem 10 oracle.
//!
//! `check_trace` makes one pass over the events and hands serial system A
//! each transaction manager's four α operations as the manager's block
//! closes, so the only memory that grows with the run is system A's own
//! state, which the paper's automata never shrink: the serial scheduler's
//! node and the object's created flag for each transaction name, kept on
//! the name tree — a few vectors indexed by slot, a `u32` per child in its
//! parent's list — and no name. Per committed manager that is one
//! allocation, the name `T0.k` its four operations share, freed when the
//! block has been stepped; the vectors' doubling amortises to nothing.
//! There is no buffer that holds α or anything else proportional to the
//! trace's events.
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

/// Bytes `check_trace` may hold live per committed transaction manager,
/// 15 % above the 167 it holds: a 136-byte scheduler node, a one-byte
/// created flag and a four-byte child entry in each of the two trees,
/// times the 1.155 by which the vectors' capacity outgrows their length
/// between the two runs compared below. α alone — four 112-byte operations
/// and their four source indices — would add 480.
const LIVE_BYTES_PER_COMMITTED_TM: f64 = 192.0;

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

    let live_per_tm = (long_peak - short_peak) as f64 / tms;
    assert!(
        live_per_tm <= LIVE_BYTES_PER_COMMITTED_TM,
        "check_trace held {live_per_tm:.0} more live bytes per extra committed manager \
         ({short_peak} B peak over {short_events} events, {long_peak} B over {long_events}): \
         something proportional to the operations or events is being buffered"
    );
}
