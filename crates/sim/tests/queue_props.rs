//! Property-based equivalence of the calendar event queue against the
//! binary-heap oracle: under arbitrary interleaved push/pop sequences,
//! `pop_until` limits that stop short of the queue's minimum,
//! same-timestamp floods, load factors that force bucket resizes in both
//! directions, and scripts shaped like the three drivers' own traffic
//! (`queue_shapes`), the two implementations pop a bit-identical
//! `(time, seq, event)` sequence. This is the property the simulators'
//! determinism contract rests on — if it holds, swapping queue
//! implementations can never change a digest.
//!
//! The last test bounds the calendar's own work on those shapes: it is what
//! says the geometry follows the traffic, where equivalence only says the
//! order is right however much sorting it took.
//!
//! Case budget: `PROPTEST_CASES` (see `scripts/tier1.sh`), default 256.

mod queue_shapes;

use proptest::prelude::*;
use qc_sim::{CalendarQueue, EventQueue, HeapQueue, SimTime};
use queue_shapes::{apply, Shape};

/// One scripted queue operation: `Some(delay)` pushes at
/// `last popped time + delay` (the simulators only ever schedule into the
/// future — `CalendarQueue` documents and asserts this precondition);
/// `None` pops.
type Op = Option<u64>;

/// Run the same script against both queues and assert every intermediate
/// pop (and the final drain) matches exactly.
fn check_equivalence(script: &[Op]) {
    let mut cal: CalendarQueue<u32> = CalendarQueue::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    for op in script {
        match *op {
            Some(delay) => {
                seq += 1;
                // The payload encodes the push so a mismatch is loud.
                cal.push(SimTime(now.saturating_add(delay)), seq, seq as u32);
                heap.push(SimTime(now.saturating_add(delay)), seq, seq as u32);
            }
            None => {
                let popped = heap.pop();
                assert_eq!(cal.pop(), popped);
                if let Some((t, _, _)) = popped {
                    now = t.as_micros();
                }
            }
        }
        assert_eq!(cal.len(), heap.len());
    }
    while let Some(popped) = heap.pop() {
        assert_eq!(cal.pop(), Some(popped));
    }
    assert_eq!(cal.pop(), None);
    assert_eq!(cal.len(), 0);
}

/// Replay a driver-shaped script on both queues; every pop must agree.
fn check_shape(shape: &Shape) {
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    for (i, &op) in shape.script.iter().enumerate() {
        assert_eq!(
            apply(&mut cal, op),
            apply(&mut heap, op),
            "{} op {i}: {op:?}",
            shape.name
        );
    }
    assert_eq!(cal.len(), heap.len());
    while let Some(popped) = heap.pop() {
        assert_eq!(cal.pop(), Some(popped));
    }
    assert_eq!(cal.pop(), None);
}

/// An interleaved script over a given delay range: `Some` (push) ratio
/// 2:1 over `None` (pop), so queues grow, shrink, and drain.
fn script_strategy(max_delay: u64, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u64..3, 0u64..=max_delay).prop_map(|(k, d)| (k > 0).then_some(d)),
        0..len,
    )
}

proptest! {
    /// Arbitrary interleavings over a realistic event horizon.
    #[test]
    fn pops_match_heap_oracle(script in script_strategy(10_000_000, 400)) {
        check_equivalence(&script);
    }

    /// Same-timestamp floods: many events land on very few distinct
    /// instants, so ordering is decided almost entirely by `seq`.
    #[test]
    fn same_instant_floods_pop_in_seq_order(script in script_strategy(3, 400)) {
        check_equivalence(&script);
    }

    /// Extreme sparse horizons (times up to ~35 years of simulated µs)
    /// exercise the calendar's direct-search fallback and the saturating
    /// virtual-clock arithmetic.
    #[test]
    fn sparse_horizons_match(script in script_strategy(u64::MAX / 16, 200)) {
        check_equivalence(&script);
    }

    /// Bucket-resize boundaries: grow far past the initial 8 buckets,
    /// then drain through every shrink threshold, popping along the way.
    #[test]
    fn resize_boundaries_preserve_order(
        times in prop::collection::vec(0u64..5_000_000, 100..600),
        drain_step in 1usize..8,
    ) {
        let mut script: Vec<Op> = times.iter().map(|&t| Some(t)).collect();
        // Interleave pops every `drain_step` pushes on the way down, so
        // shrink decisions happen mid-script rather than only at the end.
        let mut i = drain_step;
        while i < script.len() {
            script.insert(i, None);
            i += drain_step + 1;
        }
        check_equivalence(&script);
    }

    /// `pop_until` (the drivers' one dequeue) agrees between the two
    /// implementations for ascending limits drawn inside and past the
    /// queued times: both hand out the same entries up to each limit, in
    /// the same order even when entries are pushed at or after the instant
    /// just popped, then `None` — after which both take pushes from the
    /// limit itself on.
    #[test]
    fn pop_until_matches_heap_oracle(
        times in prop::collection::vec(0u64..1_000, 1..200),
        limits in prop::collection::vec(0u64..1_500, 1..20),
        extra in prop::collection::vec(0u64..16, 0..100),
    ) {
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        let mut seq = 0u64;
        let mut push = |cal: &mut CalendarQueue<u32>, heap: &mut HeapQueue<u32>, t: u64| {
            seq += 1;
            cal.push(SimTime(t), seq, seq as u32);
            heap.push(SimTime(t), seq, seq as u32);
        };
        for &t in &times {
            push(&mut cal, &mut heap, t);
        }
        let mut limits = limits;
        limits.sort_unstable();
        let mut extra = extra.into_iter();
        for limit in limits {
            loop {
                let popped = heap.pop_until(SimTime(limit));
                prop_assert_eq!(cal.pop_until(SimTime(limit)), popped);
                let Some((t, _, _)) = popped else { break };
                prop_assert!(t.as_micros() <= limit);
                if let Some(dt) = extra.next() {
                    push(&mut cal, &mut heap, t.as_micros() + dt);
                }
            }
            // The barrier's pushes: one at the limit, one just past it.
            push(&mut cal, &mut heap, limit);
            push(&mut cal, &mut heap, limit + 1);
            prop_assert_eq!(cal.len(), heap.len());
        }
        while let Some(popped) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(popped));
        }
        prop_assert_eq!(cal.pop(), None);
    }

    /// The drivers' traffic at a sixteenth of its size, phases and delays
    /// redrawn per case: heterogeneous periodic streams, a near/far bimodal
    /// queue, a rate drift, a same-instant flood, elastic barriers.
    #[test]
    fn driver_shapes_match_heap_oracle(seed in 0u64..u64::MAX) {
        for shape in queue_shapes::all(seed, 16) {
            check_shape(&shape);
        }
    }
}

/// The same five shapes at full size — 12 500 streams on the first.
#[test]
fn full_size_driver_shapes_match_heap_oracle() {
    for shape in queue_shapes::all(23, 1) {
        check_shape(&shape);
    }
}

/// What the calendar queue does per operation is bounded on every shape the
/// drivers produce: at most 8 steps (buckets skipped by scans + elements
/// moved by ordered inserts and geometry changes) per operation, amortised
/// over the script, and a number of geometry changes that is logarithmic in
/// the largest length reached, plus a few per change in the traffic.
/// (On the periodic shape the queue this one replaced sorted 186 elements
/// per pop.)
#[test]
fn calendar_work_is_bounded_on_driver_shapes() {
    for shape in queue_shapes::all(23, 1) {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for &op in &shape.script {
            apply(&mut q, op);
        }
        let [changes, skipped, moved] = q.work();
        let ops = shape.script.len() as u64;
        assert!(
            skipped + moved <= 8 * ops,
            "{}: {skipped} skipped + {moved} moved over {ops} operations",
            shape.name
        );
        let allowed = 2 * u64::from(shape.max_len.ilog2()) + 4 * u64::from(shape.drifts);
        assert!(
            changes <= allowed,
            "{}: {changes} geometry changes, {allowed} allowed at max len {}",
            shape.name,
            shape.max_len
        );
        eprintln!(
            "{:9} ops {ops:7} max len {:6}: {changes:2} changes, {:.3} skipped + {:.3} moved per op",
            shape.name,
            shape.max_len,
            skipped as f64 / ops as f64,
            moved as f64 / ops as f64
        );
    }
}
