//! Pins what the sharded driver's per-item state costs to hold.
//!
//! A shard keeps two kinds of per-item state. Over the whole keyspace it
//! keeps a 4-byte `slot_of` entry per item (so 32 bytes per item over
//! eight shards), and the elastic control plane keeps a commit delta and
//! an owner per item. Only the items something reaches get an item slot:
//! their replicas' `(vn, value, generation, configuration)` rows, a lemma
//! checker and its known-Ok bit, the committed configuration, the
//! reconfigure budget, one coordinator's cached configuration and
//! in-flight op slot, and the driver's per-slot tallies — about 306 bytes.
//! Under the routed workload that is the items whose arrival stream fires
//! within the run: 39 509 of the benchmark's 100 000 items over its
//! 7.5 simulated seconds, where every owned item used to get a slot
//! (106 376 slots with the spares, 381 live bytes per keyspace item).
//!
//! The two bounds below split the peak along those lines: per keyspace
//! item on a run that reaches under one item in a hundred, and per
//! reached item on a second of the benchmark's workload once the
//! keyspace part is taken off.
//!
//! The counting allocator is global, so the tests take [`SERIAL`] rather
//! than pollute each other's peaks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use qc_sim::{
    run_sharded_elastic, ContactPolicy, ElasticPolicy, ItemDist, MultiConfig, PlacementPolicy,
    QueueKind, ReconfigPolicy, SimTime, Workload,
};
use quorum::Majority;

struct PeakAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

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

/// Peak live bytes a routed elastic run may hold per item of its keyspace
/// when it reaches almost none of them: the measured 45.9 (the dense
/// per-keyspace columns), plus 9 % headroom. Every owned item had a slot
/// before slots were built on demand, at 369 bytes per keyspace item.
const KEYSPACE_BYTES_PER_ITEM: f64 = 50.0;

/// Peak live bytes per reached item on a second of the benchmark's
/// workload, after [`KEYSPACE_BYTES_PER_ITEM`] per keyspace item: the
/// measured 434 (a slot, its share of the spares, and the run's metrics
/// and queue), plus 10 % headroom. With a slot per owned item it read
/// about 3 700.
const REACHED_BYTES_PER_ITEM: f64 = 480.0;

/// The benchmark's `sharded_zipf_elastic` on one thread for one
/// simulated second (four rebalancing epochs), at one routed arrival per
/// `interarrival` in aggregate.
fn benchmark_shaped(interarrival: SimTime) -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(5)));
    c.contact = ContactPolicy::MinimalQuorum;
    c.items = 100_000;
    c.shards = 8;
    c.workload = Workload::Routed { interarrival };
    c.dist = ItemDist::Zipfian { theta: 0.99 };
    c.duration = SimTime::from_secs(1);
    c.seed = 23;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.placement = PlacementPolicy::Elastic(ElasticPolicy::new());
    c.queue = QueueKind::Calendar;
    c
}

/// Peak live bytes of one run of `c` above what was live before it, the
/// items that committed an operation, the commits, and the migrations.
fn peak_of(c: &MultiConfig) -> (u64, usize, u64, u64) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let (report, placement) = run_sharded_elastic(c, 1);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(report.metrics.lemma_violations, 0);
    let reached = report.item_commits.iter().filter(|&&n| n > 0).count();
    let commits = report.metrics.reads.successes + report.metrics.writes.successes;
    (peak, reached, commits, placement.migrations)
}

#[test]
fn a_run_that_reaches_few_items_holds_at_most_50_bytes_per_keyspace_item() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 200 arrivals over the second: at most 200 items reached.
    let c = benchmark_shaped(SimTime::from_millis(5));
    let (peak, reached, commits, _) = peak_of(&c);
    assert!(commits > 150, "workload too small: {commits} commits");
    assert!(
        reached * 100 < c.items,
        "{reached} of {} items reached: not a sparse run",
        c.items
    );
    let per_item = peak as f64 / c.items as f64;
    eprintln!("sparse: peak {peak} B live, {per_item:.1} B per keyspace item, {reached} reached");
    assert!(
        per_item <= KEYSPACE_BYTES_PER_ITEM,
        "the run peaked at {per_item:.1} bytes per keyspace item ({peak} B for {} items, \
         {reached} of them reached)",
        c.items
    );
}

#[test]
fn a_benchmark_second_holds_at_most_480_bytes_per_reached_item() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let c = benchmark_shaped(SimTime(50));
    let (peak, reached, commits, migrations) = peak_of(&c);
    assert!(
        migrations > 0,
        "no migration: the import path is not covered"
    );
    assert!(commits > 10_000, "workload too small: {commits} commits");
    let keyspace = KEYSPACE_BYTES_PER_ITEM * c.items as f64;
    let per_reached = (peak as f64 - keyspace) / reached as f64;
    eprintln!("dense: peak {peak} B live, {reached} reached, {per_reached:.1} B per reached item");
    assert!(
        per_reached <= REACHED_BYTES_PER_ITEM,
        "the run peaked at {peak} B: {per_reached:.1} bytes per reached item over \
         {KEYSPACE_BYTES_PER_ITEM} per keyspace item ({reached} of {} items reached)",
        c.items
    );
}
