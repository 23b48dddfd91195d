//! Pins what the sharded driver's per-item state costs to hold.
//!
//! Every item slot of every shard holds its replicas' `(vn, value,
//! generation, configuration)` rows, a lemma checker and its known-Ok bit,
//! the committed configuration, the reconfigure budget, one coordinator's
//! cached configuration and in-flight op slot, and the driver's per-slot
//! tallies. A configuration is a 4-byte id into the shard's table of member
//! sets, not a 16-byte set, and a coordinator holds no segment chain when
//! nothing records spans or causal traces. A second of the benchmark's
//! elastic workload (100 000 items routed over 8 shards, 106 376 slots)
//! peaks at 381 live bytes per item that way, about 326 of them the slots
//! at 306 bytes each.
//!
//! The counting allocator is global, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qc_sim::{
    run_sharded_elastic, ContactPolicy, ElasticPolicy, ItemDist, MultiConfig, PlacementPolicy,
    QueueKind, ReconfigPolicy, SimTime, Workload,
};
use quorum::Majority;

struct PeakAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Both blocks are live while the contents move.
        grow(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Peak live bytes a routed elastic run may hold per item of its keyspace:
/// the measured 381, plus 9 % headroom.
const PEAK_BYTES_PER_ITEM: f64 = 415.0;

#[test]
fn a_routed_elastic_run_peaks_at_most_415_bytes_per_item() {
    // The benchmark's `sharded_zipf_elastic`, one simulated second of it
    // (four rebalancing epochs), on one thread.
    let mut c = MultiConfig::new(Arc::new(Majority::new(5)));
    c.contact = ContactPolicy::MinimalQuorum;
    c.items = 100_000;
    c.shards = 8;
    c.workload = Workload::Routed {
        interarrival: SimTime(50),
    };
    c.dist = ItemDist::Zipfian { theta: 0.99 };
    c.duration = SimTime::from_secs(1);
    c.seed = 23;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.placement = PlacementPolicy::Elastic(ElasticPolicy::new());
    c.queue = QueueKind::Calendar;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let (report, placement) = run_sharded_elastic(&c, 1);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(
        placement.migrations > 0,
        "no migration: the import path is not covered"
    );
    let commits = report.metrics.reads.successes + report.metrics.writes.successes;
    assert!(commits > 10_000, "workload too small: {commits} commits");

    let per_item = peak as f64 / c.items as f64;
    eprintln!("peak {peak} B live, {per_item:.1} B per item");
    assert!(
        per_item <= PEAK_BYTES_PER_ITEM,
        "the run peaked at {per_item:.1} bytes per item ({peak} B for {} items)",
        c.items
    );
}
