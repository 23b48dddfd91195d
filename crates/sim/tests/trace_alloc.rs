//! Pins what a recorded schedule costs to hold.
//!
//! A trace stores each event as one 24-byte row. The `(at_us, tid,
//! faulted)` header a TM block's events share is stored once per block,
//! and a reconfiguration's member set once per install. Counting the
//! slack the vectors' doubling leaves, the benchmark's checked workload
//! (850 995 events in 113 449 blocks) holds about 35 bytes per event.
//!
//! The counting allocator is global, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qc_sim::{run_traced, ContactPolicy, QueueKind, SimConfig, SimTime};
use quorum::Majority;

struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Live bytes a recorded trace may hold per event, capacity included.
const LIVE_BYTES_PER_EVENT: f64 = 40.0;

#[test]
fn a_recorded_trace_holds_at_most_40_bytes_per_event() {
    // The benchmark's checked workload.
    let mut c = SimConfig::new(Arc::new(Majority::new(5)));
    c.clients = 8;
    c.think_time = SimTime::ZERO;
    c.read_fraction = 0.5;
    c.contact = ContactPolicy::MinimalQuorum;
    c.duration = SimTime::from_secs(20);
    c.seed = 23;
    c.queue = QueueKind::Calendar;
    let (_, trace) = run_traced(c);
    let events = trace.events.len();
    assert!(events > 800_000, "workload too small: {events} events");

    // What dropping the trace frees is everything it held.
    let held = LIVE.load(Ordering::Relaxed);
    drop(trace);
    let freed = held - LIVE.load(Ordering::Relaxed);
    let per_event = freed as f64 / events as f64;
    assert!(
        per_event <= LIVE_BYTES_PER_EVENT,
        "the trace held {per_event:.1} bytes per event ({freed} B for {events} events)"
    );
}
