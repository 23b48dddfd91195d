//! Event-queue scripts shaped like the traffic the three drivers really
//! produce, drawn ahead of time so that every queue replays the very same
//! operations. `tests/queue_props.rs` replays them: calendar = heap, pop
//! for pop, and the calendar's work bound.
//!
//! A script is recorded from the drivers' own loop — `pop_until(limit)`,
//! reschedule what fired — run over the heap oracle, so its pushes carry
//! the times a real run would compute.

use qc_sim::{EventQueue, HeapQueue, SimTime};

/// One recorded queue operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `push(time, seq)`; the payload is `seq`.
    Push(u64, u64),
    /// `pop_until(limit)`; `u64::MAX` is a plain `pop()`.
    PopUntil(u64),
}

/// A named script with what the work bound needs to know about it.
pub struct Shape {
    pub name: &'static str,
    pub script: Vec<Op>,
    /// Largest queue length the script reaches.
    pub max_len: usize,
    /// Times the traffic changes character mid-script.
    pub drifts: u32,
}

/// Apply one operation; pops report what came out.
pub fn apply<Q: EventQueue<u64>>(q: &mut Q, op: Op) -> Option<(u64, u64)> {
    match op {
        Op::Push(t, seq) => {
            q.push(SimTime(t), seq, seq);
            None
        }
        Op::PopUntil(limit) => q
            .pop_until(SimTime(limit))
            .map(|(t, seq, _)| (t.as_micros(), seq)),
    }
}

/// Period of the routed driver's arrival stream for the item of zipf rank
/// `g` (θ = 0.99, one arrival per 50 µs over 10⁵ items).
fn period(g: u32) -> u64 {
    (645.0 * f64::from(g + 1).powf(0.99)) as u64
}

/// Records a script while running the event loop over the heap oracle; the
/// payload of a queued event is the stream it belongs to.
struct Recorder {
    heap: HeapQueue<u32>,
    script: Vec<Op>,
    seq: u64,
    lcg: u64,
    max_len: usize,
    now: u64,
}

impl Recorder {
    fn new(seed: u64) -> Self {
        Recorder {
            heap: HeapQueue::new(),
            script: Vec::new(),
            seq: 0,
            lcg: seed | 1,
            max_len: 0,
            now: 0,
        }
    }

    fn draw(&mut self) -> u64 {
        self.lcg = (self.lcg.wrapping_mul(6_364_136_223_846_793_005))
            .wrapping_add(1_442_695_040_888_963_407);
        self.lcg >> 33
    }

    fn push(&mut self, t: u64, stream: u32) {
        self.seq += 1;
        self.heap.push(SimTime(t), self.seq, stream);
        self.script.push(Op::Push(t, self.seq));
        self.max_len = self.max_len.max(self.heap.len());
    }

    /// Run the loop for `pops` pops: each fired stream is rescheduled
    /// `delay(stream, draw)` later, or leaves on `None`.
    fn run(&mut self, pops: usize, delay: impl FnMut(u32, u64) -> Option<u64>) {
        self.run_until(u64::MAX, pops, delay);
    }

    /// [`run`](Self::run) with the driver's limit: stop early at the
    /// `pop_until(limit)` that answers `None`.
    fn run_until(
        &mut self,
        limit: u64,
        pops: usize,
        mut delay: impl FnMut(u32, u64) -> Option<u64>,
    ) {
        for _ in 0..pops {
            self.script.push(Op::PopUntil(limit));
            let Some((t, _, stream)) = self.heap.pop_until(SimTime(limit)) else {
                return;
            };
            self.now = t.as_micros();
            let draw = self.draw();
            if let Some(d) = delay(stream, draw) {
                self.push(self.now + d, stream);
            }
        }
    }

    fn shape(self, name: &'static str, drifts: u32) -> Shape {
        Shape {
            name,
            script: self.script,
            max_len: self.max_len,
            drifts,
        }
    }
}

/// `n` periodic streams with scattered phases, as a routed shard starts.
fn periodic_streams(r: &mut Recorder, n: u32) {
    for g in 0..n {
        let phase = r.draw() % period(g);
        r.push(phase, g);
    }
}

/// One stream per item, period `645 µs · (g+1)^0.99`: the hot shard of
/// `sharded_zipf_elastic` holds 12 500 of them at t = 0.
pub fn periodic(seed: u64, streams: u32, pops: usize) -> Shape {
    let mut r = Recorder::new(seed);
    periodic_streams(&mut r, streams);
    r.run(pops, |g, _| Some(period(g)));
    r.shape("periodic", 0)
}

/// Few events, two horizons: 8 round-trip timers beside 14 repair and
/// plan timers seconds away (`single_write90_faulted`).
pub fn bimodal(seed: u64, pops: usize) -> Shape {
    let mut r = Recorder::new(seed);
    for s in 0..22 {
        let at = if s < 8 {
            r.draw() % 400
        } else {
            500_000 + r.draw() % 4_500_000
        };
        r.push(at, s);
    }
    r.run(pops, |s, draw| {
        Some(if s < 8 {
            200 + draw % 400
        } else {
            500_000 + draw % 4_500_000
        })
    });
    r.shape("bimodal", 0)
}

/// The hottest eighth of the streams leaves mid-script, as at a migration
/// barrier: three quarters of the pop rate goes with them.
pub fn drift(seed: u64, streams: u32, pops: usize) -> Shape {
    let mut r = Recorder::new(seed);
    periodic_streams(&mut r, streams);
    r.run(pops / 3, |g, _| Some(period(g)));
    r.run(pops - pops / 3, |g, _| {
        (g >= streams / 8).then(|| period(g))
    });
    r.shape("drift", 1)
}

/// A same-instant flood over a closed loop of 8 timers: `flood` events land
/// on one instant, every 64th scheduling one more at the instant being
/// drained, and the loop carries on afterwards.
pub fn flood(seed: u64, flood: u32, pops: usize) -> Shape {
    let mut r = Recorder::new(seed);
    let near = |s: u32, draw: u64| (s < 8).then(|| 200 + draw % 400);
    for s in 0..8 {
        let at = r.draw() % 400;
        r.push(at, s);
    }
    r.run(pops / 4, near);
    for s in 0..flood {
        r.push(r.now + 300, 8 + s);
    }
    // A flood event fires once; every 64th echoes at its own instant,
    // and each echo echoes again on a coin flip.
    r.run(pops - pops / 4, |s, draw| {
        if s >= 8 && s % 64 == 0 {
            Some(0).filter(|_| draw % 2 == 0)
        } else {
            near(s, draw)
        }
    });
    r.shape("flood", 2)
}

/// The elastic driver's barrier, `barriers` times over: the loop runs
/// `pop_until(barrier)` until it answers `None`, and imported items'
/// arrivals then land from `barrier + 1` — the first one at the barrier
/// itself, the earliest push the queue must still take in order.
pub fn barrier(seed: u64, barriers: u32, pops: usize) -> Shape {
    let mut r = Recorder::new(seed);
    periodic_streams(&mut r, 64);
    let mut streams = 64;
    for _ in 0..barriers {
        r.run(pops / barriers as usize, |g, _| Some(period(g)));
        let barrier = r.now;
        r.run_until(barrier, usize::MAX, |g, _| Some(period(g)));
        for g in streams..streams + 8 {
            let at = if g == streams {
                barrier
            } else {
                barrier + 1 + r.draw() % period(g)
            };
            r.push(at, g);
        }
        streams += 8;
    }
    r.shape("barrier", 0)
}

/// The five shapes at full size (`scale` = 1) or cut down by `scale`.
pub fn all(seed: u64, scale: usize) -> Vec<Shape> {
    let scaled = |n: usize| n / scale;
    vec![
        periodic(seed, scaled(12_500) as u32, scaled(60_000)),
        bimodal(seed, scaled(60_000)),
        drift(seed, scaled(4_096) as u32, scaled(60_000)),
        flood(seed, scaled(4_096) as u32, scaled(24_000)),
        barrier(seed, 8, scaled(32_000)),
    ]
}
