//! Pending-event queues for the discrete-event loops.
//!
//! All three drivers (`sim.rs`, `shard.rs`, `txn_workload.rs`) drive a
//! loop of timestamped events ordered by `(time, seq)` — `seq` is a
//! per-queue push counter that makes the order total, so FIFO among
//! same-instant events. Every round trip, backoff, arrival and repair is
//! one push and one pop of this, the innermost structure of the workspace.
//! A driver owns an `Events`: the configured queue plus that counter, and
//! its loop is one call, [`EventQueue::pop_until`]`(limit)`: every event at
//! or before `limit` (the run's end, or the elastic driver's next barrier)
//! in order, then `None` without taking the event past it — after which
//! the queue accepts pushes from `limit` on, so a barrier needs nothing
//! re-pushed and nothing rewound.
//!
//! Two implementations sit behind [`EventQueue`] and pop in **bit-identical**
//! order (`tests/queue_props.rs` and the digest-identity tests pin it), so
//! the configs' `queue` field ([`QueueKind`]) never shows in a digest:
//!
//! * [`CalendarQueue`] — the default. A calendar queue (Brown 1988): a
//!   power-of-two ring of buckets, each one "day" of `width` (a power of
//!   two) simulated µs; an event at `t` lives in bucket
//!   `(t / width) mod nbuckets`, and every bucket is kept ascending, so an
//!   in-order insert is a plain tail push and a pop takes the head of the
//!   first bucket whose head falls in the day being scanned. The geometry
//!   follows the traffic served rather than a guess at it:
//!   - *width*: reviewed once per window of `max(len, 64)` pops. If the
//!     window cost more than two steps a pop (buckets skipped + elements
//!     moved) and three times its mean simulated pop gap is more than 2×
//!     away from the width, the width becomes that, to the nearest power of
//!     two. The pop rate is what a pop pays for, whatever the horizon: 8
//!     round-trip timers beside 14 repair timers seconds away, or the routed
//!     sharded driver's pending arrival per item (12 500 periodic streams
//!     on the hot shard at t = 0, periods 645 µs – 7 s).
//!   - *bucket count*: doubles at once when `len > 2·nbuckets`; shrinks
//!     only at a review, to fit the window's peak `len`, so a length that
//!     swings inside a window (nested transactions) never thrashes.
//!   - *sparse horizon*: a full-year scan with no hit falls back to a
//!     direct search over the bucket heads and takes `nbuckets / 4` pops
//!     off the window, so a width far too small is reviewed early.
//! * [`HeapQueue`] — a `BinaryHeap`, order-safe by construction: the
//!   *oracle* of the property suite and of every digest-identity test.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// The interface every driver runs its event loop through.
///
/// Entries are `(time, seq, event)`; `seq` values must be unique per queue
/// (the simulators use a monotone push counter), which makes the pop order
/// total and implementation-independent. A push is never earlier than the
/// last entry popped, nor than the `limit` of a `pop_until` that answered
/// `None` since.
pub trait EventQueue<E: Copy> {
    /// Enqueue an event at `time` with tiebreak `seq`.
    fn push(&mut self, time: SimTime, seq: u64, event: E);

    /// Remove and return the minimum entry by `(time, seq)` if its time is
    /// at most `limit`; otherwise `None`, leaving every entry queued, after
    /// which pushes at any time `>= limit` are accepted again.
    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)>;

    /// Remove and return the minimum entry by `(time, seq)`.
    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.pop_until(SimTime(u64::MAX))
    }

    /// Number of queued events.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which [`EventQueue`] implementation a simulation uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The indexed calendar queue (default fast path).
    #[default]
    Calendar,
    /// The binary-heap oracle.
    Heap,
}

/// The binary-heap implementation — the correctness oracle.
#[derive(Clone, Debug, Default)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<HeapEntry<E>>>,
}

#[derive(Clone, Debug)]
struct HeapEntry<E> {
    time: u64,
    seq: u64,
    event: E,
}

// Ordering ignores the payload: `seq` is unique, so `(time, seq)` is
// already total and `E` needs no `Ord` bound.
impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E: Copy> HeapQueue<E> {
    /// An empty heap queue.
    #[must_use]
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<E: Copy> EventQueue<E> for HeapQueue<E> {
    fn push(&mut self, time: SimTime, seq: u64, event: E) {
        self.heap.push(Reverse(HeapEntry {
            time: time.as_micros(),
            seq,
            event,
        }));
    }

    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)> {
        let top = self
            .heap
            .peek_mut()
            .filter(|e| e.0.time <= limit.as_micros())?;
        let Reverse(e) = PeekMut::pop(top);
        Some((SimTime(e.time), e.seq, e.event))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Smallest bucket count, widest bucket (µs; day arithmetic cannot
/// overflow) and shortest review window (pops) a review will pick.
const MIN_BUCKETS: usize = 8;
const MAX_WIDTH: u64 = 1 << 40;
const MIN_WINDOW: usize = 64;

/// A calendar queue over `(time, seq)`-ordered events whose geometry
/// follows the traffic it serves; the module docs state the policy.
#[derive(Clone, Debug)]
pub struct CalendarQueue<E> {
    /// `buckets[b]`: the events with `(t >> shift) % nbuckets == b`,
    /// ascending by `(time, seq)`; a power of two of them.
    buckets: Vec<VecDeque<(u64, u64, E)>>,
    shift: u32,
    len: usize,
    /// Monotone lower bound on the next pop time (the virtual clock):
    /// every queued event has `time >= floor`.
    floor: u64,
    /// Pops so far, and the count at which the review window closes.
    pops: u64,
    review_at: u64,
    /// The window's opening pop — its time, its number, the steps
    /// (`work[1] + work[2]`) taken before it — and the largest `len` since.
    window_start: u64,
    window_from: u64,
    window_steps: u64,
    peak: usize,
    /// Geometry changes, buckets skipped, elements moved.
    work: [u64; 3],
}

impl<E: Copy> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<E: Copy> CalendarQueue<E> {
    /// Empty, eight days of 256 µs (about a LAN round trip).
    #[must_use]
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            shift: 8,
            len: 0,
            floor: 0,
            pops: 0,
            review_at: 1,
            window_start: 0,
            window_from: 1,
            window_steps: 0,
            peak: 0,
            work: [0; 3],
        }
    }

    /// Current bucket width in µs (for the geometry tests).
    #[must_use]
    pub fn width(&self) -> u64 {
        1 << self.shift
    }

    /// `[geometry changes, buckets skipped by scans, elements moved by
    /// ordered inserts and geometry changes]` so far — observation only.
    #[doc(hidden)]
    pub fn work(&self) -> [u64; 3] {
        self.work
    }

    /// Insert into the owning bucket, keeping it ascending: enter at the
    /// end of the half the event belongs to and sink to its slot. The
    /// in-order tail push and a new bucket minimum take no step at all.
    #[inline]
    fn place(&mut self, e: (u64, u64, E)) {
        let b = (e.0 >> self.shift) as usize & (self.buckets.len() - 1);
        let bucket = &mut self.buckets[b];
        let key = |x: &(u64, u64, E)| (x.0, x.1);
        let mut i = bucket.len();
        if i > 0 && key(&e) < key(&bucket[i / 2]) {
            bucket.push_front(e);
            i = 0;
            // Stops by the old middle, which is later than `e`.
            while key(&bucket[i + 1]) < key(&e) {
                bucket.swap(i, i + 1);
                i += 1;
                self.work[2] += 1;
            }
        } else {
            bucket.push_back(e);
            while i > 0 && key(&bucket[i - 1]) > key(&e) {
                bucket.swap(i - 1, i);
                i -= 1;
                self.work[2] += 1;
            }
        }
    }

    /// Locate the minimum entry, `(time, bucket)`: scan one full year from
    /// `floor`, then fall back to a direct search (sparse horizon). Advances
    /// `floor` to the minimum found — safe, nothing earlier can exist.
    fn locate_min(&mut self) -> Option<(u64, usize)> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len();
        let (day, width) = (self.floor >> self.shift, 1 << self.shift);
        let mut b = day as usize & (nb - 1);
        // End of bucket `b`'s current day window.
        let mut top = day.saturating_add(1).saturating_mul(width);
        for i in 0..nb {
            if let Some(&(t, _, _)) = self.buckets[b].front() {
                if t < top {
                    self.floor = t;
                    self.work[1] += i as u64;
                    return Some((t, b));
                }
            }
            b = (b + 1) & (nb - 1);
            top = top.saturating_add(width);
        }
        // Nothing within one calendar year of `floor`: direct search. A
        // time maps to one bucket, so the least head time names it.
        self.work[1] += 2 * nb as u64;
        self.review_at = self.review_at.saturating_sub(nb as u64 / 4);
        let heads = self.buckets.iter().enumerate();
        let (t, b) = (heads.filter_map(|(b, q)| Some((q.front()?.0, b))).min())
            .expect("len > 0 but every bucket is empty");
        self.floor = t;
        Some((t, b))
    }

    /// Re-bucket every event; the buckets keep their allocations.
    fn regeometry(&mut self, nbuckets: usize, width: u64) {
        let mut spill = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            spill.extend(b.drain(..));
        }
        self.buckets.resize_with(nbuckets, VecDeque::new);
        self.shift = width.trailing_zeros();
        self.work[0] += 1;
        self.work[2] += spill.len() as u64;
        for e in spill {
            self.place(e);
        }
    }

    /// Close the review window at the pop of time `now`, open the next.
    #[cold]
    fn review(&mut self, now: u64) {
        let popped = self.pops - self.window_from;
        let (mut nbuckets, mut width) = (self.buckets.len(), self.width());
        // A cheap geometry is left alone: the mean gap of a short window
        // is noisy (bursts between silences), a change moves every element.
        if self.work[1] + self.work[2] - self.window_steps > 2 * popped && popped > 0 {
            let elapsed = now.saturating_sub(self.window_start);
            let target = (elapsed.saturating_mul(3) / popped).clamp(1, MAX_WIDTH);
            if target > 2 * width || width > 2 * target {
                // The power of two within 3/4 – 3/2 of `target`.
                width = 1 << (target * 4 / 3).ilog2();
            }
        }
        if self.peak * 4 < nbuckets {
            nbuckets = self.peak.next_power_of_two().max(MIN_BUCKETS);
        }
        if (nbuckets, width) != (self.buckets.len(), self.width()) {
            self.regeometry(nbuckets, width);
        }
        (self.window_start, self.window_from, self.peak) = (now, self.pops, self.len);
        self.window_steps = self.work[1] + self.work[2];
        self.review_at = self.pops + self.len.max(MIN_WINDOW) as u64;
    }

    #[inline]
    fn take_from(&mut self, b: usize) -> (u64, u64, E) {
        let entry = self.buckets[b]
            .pop_front()
            .expect("located bucket is nonempty");
        self.len -= 1;
        self.pops += 1;
        if self.pops >= self.review_at {
            self.review(entry.0);
        }
        entry
    }
}

impl<E: Copy> EventQueue<E> for CalendarQueue<E> {
    fn push(&mut self, time: SimTime, seq: u64, event: E) {
        let t = time.as_micros();
        debug_assert!(t >= self.floor, "events cannot be scheduled in the past");
        self.place((t, seq, event));
        self.len += 1;
        // `len <= 2·nbuckets` held before, so only a new peak can break it.
        if self.len > self.peak {
            self.peak = self.len;
            if self.len > 2 * self.buckets.len() {
                self.regeometry(self.buckets.len() * 2, self.width());
            }
        }
    }

    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)> {
        let limit = limit.as_micros();
        match self.locate_min() {
            Some((t, b)) if t <= limit => {
                let (t, seq, e) = self.take_from(b);
                Some((SimTime(t), seq, e))
            }
            // The scan may have moved `floor` to an event past `limit`.
            // Nothing queued is earlier than `limit`, so moving it back
            // there only lengthens the next scan, and lets pushes in from
            // `limit` on. Nothing was taken, so no review ran at that far
            // time and the review window still starts at or before `limit`.
            _ => {
                self.floor = self.floor.min(limit);
                None
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The queue a driver owns: the configured implementation behind static
/// dispatch (no per-event virtual call), and the push counter that makes
/// `(time, seq)` total.
pub(crate) struct Events<E> {
    queue: Queue<E>,
    seq: u64,
}

enum Queue<E> {
    Calendar(CalendarQueue<E>),
    Heap(HeapQueue<E>),
}

/// Forward one [`EventQueue`] call to the implementation inside.
macro_rules! forward {
    ($queue:expr, $q:ident => $call:expr) => {
        match $queue {
            Queue::Calendar($q) => $call,
            Queue::Heap($q) => $call,
        }
    };
}

impl<E: Copy> Events<E> {
    /// An empty queue of the given kind.
    pub(crate) fn new(kind: QueueKind) -> Self {
        let queue = match kind {
            QueueKind::Calendar => Queue::Calendar(CalendarQueue::new()),
            QueueKind::Heap => Queue::Heap(HeapQueue::new()),
        };
        Events { queue, seq: 0 }
    }

    /// Schedule `event` at `time`, after everything already queued there.
    #[inline]
    pub(crate) fn push(&mut self, time: SimTime, event: E) {
        self.seq += 1;
        let seq = self.seq;
        forward!(&mut self.queue, q => q.push(time, seq, event));
    }

    /// The next event if it falls at or before `limit`
    /// (see [`EventQueue::pop_until`]).
    #[inline]
    pub(crate) fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        forward!(&mut self.queue, q => q.pop_until(limit)).map(|(t, _, e)| (t, e))
    }

    /// Number of queued events.
    pub(crate) fn len(&self) -> usize {
        forward!(&self.queue, q => q.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E: Copy, Q: EventQueue<E>>(q: &mut Q) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((t, s, _)) = q.pop() {
            out.push((t.as_micros(), s));
        }
        out
    }

    #[test]
    fn both_pop_in_time_seq_order() {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let times = [500u64, 100, 100, 7_000_000, 100, 42, 500, 99_999];
        for (seq, &t) in times.iter().enumerate() {
            cal.push(SimTime(t), seq as u64, ());
            heap.push(SimTime(t), seq as u64, ());
        }
        let c = drain(&mut cal);
        let h = drain(&mut heap);
        assert_eq!(c, h);
        let mut sorted = c.clone();
        sorted.sort_unstable();
        assert_eq!(c, sorted);
    }

    #[test]
    fn pop_until_stops_at_the_limit() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(10), 1, "a");
        q.push(SimTime(10), 2, "b");
        q.push(SimTime(11), 3, "c");
        let at_10 = |s, e| Some((SimTime(10), s, e));
        assert_eq!(q.pop_until(SimTime(10)), at_10(1, "a"));
        assert_eq!(q.pop_until(SimTime(10)), at_10(2, "b"));
        assert_eq!(q.pop_until(SimTime(10)), None);
        assert_eq!(q.pop_until(SimTime(11)), Some((SimTime(11), 3, "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn same_instant_pushes_during_a_batch_pop_in_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(10), 1, 1u32);
        q.push(SimTime(10), 2, 2);
        assert_eq!(q.pop_until(SimTime(10)), Some((SimTime(10), 1, 1)));
        // An event scheduled *at* the instant being drained must pop after
        // the already-queued ones (higher seq).
        q.push(SimTime(10), 3, 3);
        assert_eq!(q.pop_until(SimTime(10)), Some((SimTime(10), 2, 2)));
        assert_eq!(q.pop_until(SimTime(10)), Some((SimTime(10), 3, 3)));
        assert_eq!(q.pop_until(SimTime(10)), None);
    }

    /// One hold step: pop the minimum, reschedule it `delay` later.
    fn hold(q: &mut CalendarQueue<()>, seq: &mut u64, delay: u64) -> u64 {
        let (t, _, ()) = q.pop().expect("hold queue never drains");
        *seq += 1;
        q.push(t + SimTime(delay), *seq, ());
        t.as_micros()
    }

    #[test]
    fn grows_on_push_and_shrinks_only_at_a_review() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert_eq!(q.buckets.len(), MIN_BUCKETS);
        for i in 0..1_000u64 {
            q.push(SimTime(i * 37), i, ());
        }
        // Growth is immediate: `len <= 2·nbuckets` after every push.
        assert_eq!(q.buckets.len(), 512);
        let mut last = 0;
        for _ in 0..996 {
            let (t, _, ()) = q.pop().unwrap();
            assert!(t.as_micros() >= last);
            last = t.as_micros();
        }
        // The first pop opened a 999-pop window whose peak was 999: no
        // review yet, so no shrink however short the queue got.
        assert_eq!((q.len(), q.buckets.len()), (4, 512));
        // The window closes 4 pops on (peak 999: stays); the next one is
        // MIN_WINDOW pops with peak 4, and its review fits the buckets.
        let mut seq = 1_000;
        for _ in 0..4 + MIN_WINDOW {
            assert_eq!(q.buckets.len(), 512);
            hold(&mut q, &mut seq, 4 * 37);
        }
        assert_eq!(q.buckets.len(), MIN_BUCKETS);
        // In-order traffic at 7 events a day cost nothing: width untouched.
        assert_eq!(
            (q.work()[0], q.width()),
            (6 + 1, 256),
            "six doublings, one shrink"
        );
    }

    #[test]
    fn a_swinging_length_does_not_thrash() {
        // The nested-transaction driver's shape: bursts of parallel
        // accesses take `len` from 2 to 20 and back inside every window,
        // with a silence of 100 ms between bursts.
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        let (mut seq, mut now) = (0u64, 0u64);
        for round in 0..2_000 {
            for k in 0..20 {
                seq += 1;
                q.push(SimTime(now + 300 + k * 7), seq, ());
            }
            for _ in 0..20 {
                now = q.pop().unwrap().0.as_micros();
            }
            now += (round % 3) * 100_000;
        }
        assert_eq!(q.buckets.len(), 16);
        assert!(q.work()[0] <= 3, "{} geometry changes", q.work()[0]);
    }

    /// One conveyor step: pop the minimum, append an event `gap` after the
    /// latest one queued, so pops follow at the same spacing.
    fn convey(q: &mut CalendarQueue<()>, seq: &mut u64, tail: &mut u64, gap: u64) {
        q.pop().expect("conveyor never drains");
        (*seq, *tail) = (*seq + 1, *tail + gap);
        q.push(SimTime(*tail), *seq, ());
    }

    #[test]
    fn width_follows_the_pop_rate_when_it_pays() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        let (mut seq, mut tail) = (0, 0);
        for _ in 0..16 {
            (seq, tail) = (seq + 1, tail + 1_000);
            q.push(SimTime(tail), seq, ());
        }
        // One pop per 1 000 µs skips four 256 µs days a pop: the width
        // becomes 3 × the gap, to the nearest power of two.
        for _ in 0..1 + MIN_WINDOW {
            convey(&mut q, &mut seq, &mut tail, 1_000);
        }
        assert_eq!(q.width(), 2_048);
        // A rate within 2× either way leaves the geometry alone…
        let before = q.work()[0];
        for gap in [600, 1_300, 1_000] {
            for _ in 0..4 * MIN_WINDOW {
                convey(&mut q, &mut seq, &mut tail, gap);
            }
        }
        assert_eq!((q.width(), q.work()[0]), (2_048, before));
        // …a 10× slower one is followed…
        for _ in 0..4 * MIN_WINDOW {
            convey(&mut q, &mut seq, &mut tail, 10_000);
        }
        assert!(matches!(q.width(), 16_384 | 32_768), "{}", q.width());
        // …and a 100× faster one is not, for as long as a day's worth of
        // events arriving in order costs nothing to keep in one bucket.
        let before = (q.width(), q.work());
        for _ in 0..8 * MIN_WINDOW {
            convey(&mut q, &mut seq, &mut tail, 100);
        }
        let after = q.work();
        assert_eq!((q.width(), after[0]), (before.0, before.1[0]));
        // All of it while the last 16 slow events drained.
        assert!(after[1] + after[2] - before.1[1] - before.1[2] <= 16);
    }

    #[test]
    fn sparse_horizon_falls_back_to_direct_search() {
        let mut q = CalendarQueue::new();
        for i in 0..200u64 {
            q.push(SimTime(i / 4), i, ());
        }
        for i in 0..200u64 {
            assert_eq!(q.pop(), Some((SimTime(i / 4), i, ())));
        }
        // Events whole calendar years apart still pop in order, each by a
        // direct search that visits every bucket twice.
        assert_eq!((q.buckets.len(), q.width()), (128, 256));
        let skipped = q.work()[1];
        q.push(SimTime(40_000_000_000), 300, ());
        q.push(SimTime(90_000_000_000), 301, ());
        assert_eq!(q.pop(), Some((SimTime(40_000_000_000), 300, ())));
        assert_eq!(q.work()[1] - skipped, 2 * 128);
        assert_eq!(q.pop(), Some((SimTime(90_000_000_000), 301, ())));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn direct_searches_bring_the_review_forward() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        // 4 096 events, one pop per µs, rescheduled in scrambled order:
        // a 256 µs day would hold 256 of them, so the width goes to 3 µs
        // (or the power of two next to it) and the windows are 4 096 pops.
        let (mut seq, mut lcg) = (4_096, 1u64);
        for i in 0..seq {
            q.push(SimTime(i), i, ());
        }
        for _ in 0..3 * 4_096 {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hold(&mut q, &mut seq, 2_048 + (lcg >> 52));
        }
        assert!(q.buckets.len() == 2_048 && q.width() <= 4, "{}", q.width());
        // All but 8 leave, and those slow to one pop per 125 ms: every pop
        // is now a direct search over 2 048 buckets, and a few of them use
        // up whatever is left of the long window.
        while q.len() > 8 {
            q.pop().unwrap();
        }
        let skipped = q.work()[1];
        for _ in 0..1_000 {
            hold(&mut q, &mut seq, 1_000_000);
        }
        assert_eq!(q.buckets.len(), MIN_BUCKETS);
        assert!(q.width() >= 131_072, "{}", q.width());
        // 4 096 / (2 048 / 4) searches close the window, one more the next.
        let searched = q.work()[1] - skipped;
        assert!(searched <= 1_000 + 9 * 2 * 2_048, "{searched}");
    }

    #[test]
    fn a_review_never_moves_floor_past_a_queued_event() {
        // Reviews fire inside `pop`; whatever they do to the geometry, an
        // event pushed at the popped instant itself (the earliest legal
        // time) must come out next.
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut seq = 0u64;
        for i in 0..300u64 {
            seq += 1;
            cal.push(SimTime(i * i), seq, seq);
            heap.push(SimTime(i * i), seq, seq);
        }
        while let Some((t, s, e)) = heap.pop() {
            assert_eq!(cal.pop(), Some((t, s, e)));
            if s % 3 == 0 {
                for at in [t, t + SimTime(s * 7_919 % 200_000)] {
                    seq += 1;
                    cal.push(at, seq, seq);
                    heap.push(at, seq, seq);
                }
            }
            if seq > 3_000 {
                break;
            }
        }
        assert!(cal.work()[0] > 6, "no review changed the geometry");
        assert_eq!(drain(&mut cal), drain(&mut heap));
    }

    /// The elastic driver's barrier: the loop runs to `barrier`, finds the
    /// next event 2 s past it, and migrations then push from the barrier on
    /// — one at `barrier + 1`, one at the barrier itself, which pops first.
    /// Returns the far event's time.
    fn cross_barrier<Q>(q: &mut Q, seq: &mut u64, barrier: u64) -> u64
    where
        Q: EventQueue<()> + ?Sized,
    {
        let far = barrier + 2_000_000;
        q.push(SimTime(far), 0, ());
        assert_eq!(q.pop_until(SimTime(barrier)), None);
        *seq += 1;
        q.push(SimTime(barrier + 1), *seq, ());
        *seq += 1;
        q.push(SimTime(barrier), *seq, ());
        assert_eq!(
            q.pop_until(SimTime(barrier)),
            Some((SimTime(barrier), *seq, ()))
        );
        assert_eq!(q.pop_until(SimTime(barrier)), None);
        far
    }

    /// A `None` from `pop_until` rewinds the queue to the limit: pushes
    /// from the limit on pop in order on both queues.
    #[test]
    fn rewind_permits_earlier_pushes_in_order() {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for q in [
            &mut cal as &mut dyn EventQueue<()>,
            &mut heap as &mut dyn EventQueue<()>,
        ] {
            let mut seq = 0;
            cross_barrier(q, &mut seq, 1_000);
            assert_eq!(q.pop(), Some((SimTime(1_001), 1, ())));
            assert_eq!(q.pop(), Some((SimTime(2_001_000), 0, ())));
            assert!(q.pop().is_none());
        }
    }

    /// On the calendar, the event past the barrier would have been the pop
    /// that closes a review window. Not taking it leaves the window where
    /// the traffic put it; taking it would have made the next review
    /// measure a span that ends before it began.
    #[test]
    fn rewind_also_rewinds_the_review_window() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        let mut seq = 0u64;
        for i in 0..8u64 {
            seq += 1;
            q.push(SimTime(i * 2_000), seq, ());
        }
        // One pop per 2 ms: width 3 × that, to the nearest power of two.
        while q.width() != 4_096 || q.pops + 9 != q.review_at {
            hold(&mut q, &mut seq, 16_000);
        }
        let barrier = drain(&mut q).last().unwrap().0;
        let far = cross_barrier(&mut q, &mut seq, barrier);
        for i in 1..8u64 {
            seq += 1;
            q.push(SimTime(barrier + 1 + i * 2_000), seq, ());
        }
        for _ in 0..3 * MIN_WINDOW {
            assert!(hold(&mut q, &mut seq, 16_000) < far);
        }
        assert_eq!(
            q.width(),
            4_096,
            "the look past the barrier poisoned the estimate"
        );
    }

    #[test]
    fn queue_kind_selects_the_implementation() {
        assert_eq!(QueueKind::default(), QueueKind::Calendar);
        let q: Events<u8> = Events::new(QueueKind::Heap);
        assert!(matches!(q.queue, Queue::Heap(_)));
        let q: Events<u8> = Events::new(QueueKind::Calendar);
        assert!(matches!(q.queue, Queue::Calendar(_)));
    }
}
