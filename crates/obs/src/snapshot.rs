//! Periodic progress snapshots keyed on simulated time.
//!
//! A [`SnapshotExporter`] fires every N simulated microseconds: the
//! simulator asks [`SnapshotExporter::next_due`] whenever its clock
//! advances and records one [`Snapshot`] per crossed boundary, so a run
//! of D seconds with cadence E produces exactly `floor(D / E)` snapshots
//! at deterministic times — identical for any OS thread count, because
//! the schedule depends only on the simulated clock.

/// One progress snapshot of a running (or just-finished) simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Simulated time of the snapshot boundary, in microseconds.
    pub at_us: u64,
    /// Shard that produced the snapshot (0 for single-item runs).
    pub shard: u32,
    /// Committed operations so far (reads + writes).
    pub ops_done: u64,
    /// Operations in flight (issued, not yet committed or failed).
    pub in_flight: u64,
    /// Runtime lemma violations observed so far.
    pub violations: u64,
    /// Current read-latency median, microseconds.
    pub read_p50_us: u64,
    /// Current read-latency 99th percentile, microseconds.
    pub read_p99_us: u64,
    /// Current write-latency median, microseconds.
    pub write_p50_us: u64,
    /// Current write-latency 99th percentile, microseconds.
    pub write_p99_us: u64,
}

impl Snapshot {
    /// The snapshot's fields as a JSON fragment (no braces), shared by
    /// the event-log rendering and [`snapshots_json`].
    pub(crate) fn fields_json(&self) -> String {
        format!(
            "\"at_us\":{},\"shard\":{},\"ops_done\":{},\"in_flight\":{},\"violations\":{},\"read_p50_us\":{},\"read_p99_us\":{},\"write_p50_us\":{},\"write_p99_us\":{}",
            self.at_us,
            self.shard,
            self.ops_done,
            self.in_flight,
            self.violations,
            self.read_p50_us,
            self.read_p99_us,
            self.write_p50_us,
            self.write_p99_us
        )
    }

    /// The snapshot as a standalone JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.fields_json())
    }
}

/// Render a slice of snapshots as a JSON array.
pub fn snapshots_json(snapshots: &[Snapshot]) -> String {
    let mut out = String::from("[");
    for (i, s) in snapshots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_json());
    }
    out.push(']');
    out
}

/// Emits snapshot boundaries every `every_us` simulated microseconds.
#[derive(Clone, Debug)]
pub struct SnapshotExporter {
    every_us: u64,
    next_us: u64,
}

impl SnapshotExporter {
    /// A new exporter firing at `every_us`, `2 * every_us`, …
    /// (`every_us` is clamped to at least 1).
    pub fn new(every_us: u64) -> Self {
        let every_us = every_us.max(1);
        Self {
            every_us,
            next_us: every_us,
        }
    }

    /// If the simulated clock `now_us` has reached the next boundary,
    /// returns that boundary's time and advances to the following one.
    /// Call in a loop: a large clock jump yields every crossed boundary
    /// in order.
    pub fn next_due(&mut self, now_us: u64) -> Option<u64> {
        if now_us >= self.next_us {
            let due = self.next_us;
            self.next_us += self.every_us;
            Some(due)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_per_boundary_in_order() {
        let mut exp = SnapshotExporter::new(1_000);
        assert_eq!(exp.next_due(999), None);
        assert_eq!(exp.next_due(1_000), Some(1_000));
        assert_eq!(exp.next_due(1_000), None);
        // A jump over three boundaries yields each one, in order.
        let mut fired = Vec::new();
        while let Some(at) = exp.next_due(4_500) {
            fired.push(at);
        }
        assert_eq!(fired, [2_000, 3_000, 4_000]);
        assert_eq!(exp.next_due(4_999), None);
        assert_eq!(exp.next_due(5_000), Some(5_000));
    }

    #[test]
    fn zero_cadence_clamped() {
        let mut exp = SnapshotExporter::new(0);
        assert_eq!(exp.next_due(1), Some(1));
        assert_eq!(exp.next_due(1), None);
    }

    #[test]
    fn snapshot_json_shape() {
        let s = Snapshot {
            at_us: 1_000_000,
            shard: 2,
            ops_done: 42,
            in_flight: 3,
            violations: 0,
            read_p50_us: 400,
            read_p99_us: 900,
            write_p50_us: 800,
            write_p99_us: 1_700,
        };
        assert_eq!(
            s.to_json(),
            "{\"at_us\":1000000,\"shard\":2,\"ops_done\":42,\"in_flight\":3,\"violations\":0,\"read_p50_us\":400,\"read_p99_us\":900,\"write_p50_us\":800,\"write_p99_us\":1700}"
        );
        assert_eq!(snapshots_json(&[]), "[]");
        assert_eq!(snapshots_json(&[s, s]).matches("at_us").count(), 2);
    }
}
