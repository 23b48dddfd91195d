//! Pins what the Theorem 11 replay's input costs to hold.
//!
//! A [`CommitLog`](qc_sim::CommitLog) stores a committed transaction as 8
//! bytes (client and access count) and an access as 12⅛ (item, value and
//! one write bit), in fixed-capacity segments that each domain fills and
//! the merge moves in without copying. On the benchmark's banking workload
//! (3.3 accesses per transaction) that is 14.6 bytes per committed access;
//! the peak live bytes a checked run adds over a plain one — the log, the
//! spare room of each domain's open segment and every transient of
//! building it — read 15.7. A log of one heap vector per transaction,
//! merged by copying into one vector, peaked at 46.2.
//!
//! The counting allocator is global, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nested_txn::{BankingGen, WorkloadKind};
use qc_sim::{check_commit_order_serializable, run_txn, run_txn_committed, SimTime, TxnConfig};
use quorum::Majority;

struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        PEAK.fetch_max(live + layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Both blocks are live until the call returns.
        let live = LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        PEAK.fetch_max(live + new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Peak live bytes above the starting level while `f` runs, and what it
/// returned.
fn peak<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - base, out)
}

/// Peak live bytes a checked run may add per committed access.
const PEAK_BYTES_PER_ACCESS: f64 = 18.0;

#[test]
fn a_commit_log_costs_at_most_18_bytes_per_committed_access() {
    // The benchmark's nested workload, shorter.
    let mut c = TxnConfig::new(
        Arc::new(Majority::new(3)),
        WorkloadKind::Banking(BankingGen::new(4)),
    );
    c.items = 64;
    c.domains = 16;
    c.clients_per_domain = 4;
    c.duration = SimTime::from_secs(80);
    c.seed = 23;
    let (plain_peak, plain) = peak(|| run_txn(&c, 1));
    let (checked_peak, (report, log)) = peak(|| run_txn_committed(&c, 1));
    assert_eq!(plain.digest(), report.digest());
    assert_eq!(log.len() as u64, report.stats.txns_committed);
    check_commit_order_serializable(&|_| 0, &log).expect("Theorem 11 replay");
    let accesses = log.accesses();
    assert!(
        accesses > 200_000,
        "workload too small: {accesses} accesses"
    );

    let per_access = checked_peak.saturating_sub(plain_peak) as f64 / accesses as f64;
    assert!(
        per_access <= PEAK_BYTES_PER_ACCESS,
        "the commit log added {per_access:.1} peak live bytes per committed access \
         ({checked_peak} B checked vs {plain_peak} B plain, {accesses} accesses in {} txns)",
        log.len()
    );
}
