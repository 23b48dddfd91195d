//! Structured event log: rare, schema-stable events (fault firings,
//! lemma violations, progress snapshots) rendered as JSONL.
//!
//! [`EventLog`] is the in-memory log the simulator owns: unbounded
//! ([`EventLogMode::Full`]) or off ([`EventLogMode::Null`] — the default,
//! under which [`EventLog::enabled`] is `false` and call sites gated on it
//! build no payload).
//!
//! The JSONL format is versioned (`qc-events-v1`) and golden-tested in
//! `crates/sim/tests/golden.rs` so it cannot drift silently. Its header
//! still carries the `"dropped":0` of a since-removed bounded mode, so
//! every file written before stays byte-identical.

use crate::snapshot::Snapshot;

/// Version tag of the JSONL event-log format.
pub const EVENTS_FORMAT: &str = "qc-events-v1";

/// Identity of the operation a violation was detected on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRef {
    /// Global client index that issued the op.
    pub client: u64,
    /// Per-client operation sequence number.
    pub op: u64,
    /// Attempt number the violation was observed on (1-based).
    pub attempt: u32,
    /// `"read"` or `"write"`.
    pub kind: &'static str,
    /// Version number the op committed with.
    pub vn: u64,
    /// Value the op read or wrote.
    pub value: u64,
}

impl OpRef {
    fn to_json(self) -> String {
        format!(
            "{{\"client\":{},\"op\":{},\"attempt\":{},\"kind\":\"{}\",\"vn\":{},\"value\":{}}}",
            self.client, self.op, self.attempt, self.kind, self.vn, self.value
        )
    }
}

/// What happened.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A fault fired (plan-driven or stochastic). `desc` uses the fault
    /// plan's text grammar (e.g. `crash@4000:1`).
    Fault {
        /// Plan-grammar rendering of the fault.
        desc: String,
    },
    /// A runtime lemma violation, with the offending op attached when
    /// the violation was detected at an op's commit (injection-time
    /// corruption detection has no op).
    Violation {
        /// Human-readable violation description.
        desc: String,
        /// The committed op the violation was detected on, if any.
        op: Option<OpRef>,
    },
    /// A periodic progress snapshot.
    Snapshot(Snapshot),
}

/// One logged event at a simulated time, tagged with the shard that
/// produced it (0 for single-item runs).
#[derive(Clone, Debug, PartialEq)]
pub struct ObsEvent {
    /// Simulated time, microseconds.
    pub at_us: u64,
    /// Producing shard.
    pub shard: u32,
    /// Payload.
    pub kind: EventKind,
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl ObsEvent {
    /// The event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let head = format!("\"at_us\":{},\"shard\":{}", self.at_us, self.shard);
        match &self.kind {
            EventKind::Fault { desc } => {
                format!(
                    "{{{head},\"event\":\"fault\",\"desc\":\"{}\"}}",
                    escape(desc)
                )
            }
            EventKind::Violation { desc, op } => {
                let op = match op {
                    Some(r) => r.to_json(),
                    None => "null".to_string(),
                };
                format!(
                    "{{{head},\"event\":\"violation\",\"desc\":\"{}\",\"op\":{op}}}",
                    escape(desc)
                )
            }
            EventKind::Snapshot(s) => {
                // The snapshot's own at_us/shard lead its fragment; keep
                // the event envelope consistent with the other kinds.
                format!("{{{head},\"event\":\"snapshot\",{}}}", trim_at(s))
            }
        }
    }
}

/// A snapshot's fields minus the leading `at_us`/`shard` (already in the
/// event envelope).
fn trim_at(s: &Snapshot) -> String {
    format!(
        "\"ops_done\":{},\"in_flight\":{},\"violations\":{},\"read_p50_us\":{},\"read_p99_us\":{},\"write_p50_us\":{},\"write_p99_us\":{}",
        s.ops_done, s.in_flight, s.violations, s.read_p50_us, s.read_p99_us, s.write_p50_us, s.write_p99_us
    )
}

/// Retention policy of an [`EventLog`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EventLogMode {
    /// Keep nothing.
    #[default]
    Null,
    /// Keep every event.
    Full,
}

/// In-memory event log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventLog {
    mode: EventLogMode,
    events: Vec<ObsEvent>,
}

impl EventLog {
    /// A log with the given retention mode.
    pub fn new(mode: EventLogMode) -> Self {
        Self {
            mode,
            events: Vec::new(),
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Append another log's retained events (shard-order reduction).
    pub fn absorb(&mut self, other: EventLog) {
        self.events.extend(other.events);
    }

    /// The versioned JSONL rendering: a header line, then one line per
    /// retained event.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"format\":\"{EVENTS_FORMAT}\",\"events\":{},\"dropped\":0}}\n",
            self.events.len()
        );
        for e in &self.events {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }

    /// FNV-1a digest of the JSONL rendering.
    pub fn digest(&self) -> u64 {
        crate::fnv1a(self.to_jsonl().as_bytes())
    }

    /// Log one event.
    pub fn emit(&mut self, event: ObsEvent) {
        match self.mode {
            EventLogMode::Null => {}
            EventLogMode::Full => self.events.push(event),
        }
    }

    /// Whether emitted events are kept. Instrumented call sites may skip
    /// constructing event payloads when this is `false`.
    pub fn enabled(&self) -> bool {
        self.mode != EventLogMode::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(at_us: u64, desc: &str) -> ObsEvent {
        ObsEvent {
            at_us,
            shard: 0,
            kind: EventKind::Fault {
                desc: desc.to_string(),
            },
        }
    }

    #[test]
    fn event_lines_schema() {
        assert_eq!(
            fault(4_000_000, "crash@4000:1").to_json_line(),
            "{\"at_us\":4000000,\"shard\":0,\"event\":\"fault\",\"desc\":\"crash@4000:1\"}"
        );
        let v = ObsEvent {
            at_us: 7,
            shard: 3,
            kind: EventKind::Violation {
                desc: "lemma 7: \"stale\" read".to_string(),
                op: Some(OpRef {
                    client: 2,
                    op: 17,
                    attempt: 1,
                    kind: "read",
                    vn: 9,
                    value: 123,
                }),
            },
        };
        assert_eq!(
            v.to_json_line(),
            "{\"at_us\":7,\"shard\":3,\"event\":\"violation\",\"desc\":\"lemma 7: \\\"stale\\\" read\",\"op\":{\"client\":2,\"op\":17,\"attempt\":1,\"kind\":\"read\",\"vn\":9,\"value\":123}}"
        );
        let no_op = ObsEvent {
            at_us: 7,
            shard: 0,
            kind: EventKind::Violation {
                desc: "corrupt".to_string(),
                op: None,
            },
        };
        assert!(no_op.to_json_line().ends_with("\"op\":null}"));
    }

    #[test]
    fn snapshot_event_line() {
        let s = Snapshot {
            at_us: 1_000_000,
            shard: 1,
            ops_done: 10,
            in_flight: 2,
            violations: 0,
            read_p50_us: 1,
            read_p99_us: 2,
            write_p50_us: 3,
            write_p99_us: 4,
        };
        let e = ObsEvent {
            at_us: s.at_us,
            shard: s.shard,
            kind: EventKind::Snapshot(s),
        };
        assert_eq!(
            e.to_json_line(),
            "{\"at_us\":1000000,\"shard\":1,\"event\":\"snapshot\",\"ops_done\":10,\"in_flight\":2,\"violations\":0,\"read_p50_us\":1,\"read_p99_us\":2,\"write_p50_us\":3,\"write_p99_us\":4}"
        );
    }

    #[test]
    fn ring_retention_and_absorb() {
        let mut log = EventLog::new(EventLogMode::Full);
        assert!(log.enabled());
        for i in 0..2 {
            log.emit(fault(i, "crash@0:0"));
        }
        let mut full = EventLog::new(EventLogMode::Full);
        full.emit(fault(9, "recover@0:0"));
        let mut merged = EventLog::new(EventLogMode::Full);
        merged.absorb(log);
        merged.absorb(full);
        assert_eq!(merged.len(), 3);
        let at: Vec<u64> = merged.events().map(|e| e.at_us).collect();
        assert_eq!(at, [0, 1, 9], "shard order, oldest first");
        assert!(merged
            .to_jsonl()
            .starts_with("{\"format\":\"qc-events-v1\",\"events\":3,\"dropped\":0}\n"));
    }

    #[test]
    fn null_mode_log_keeps_nothing() {
        let mut log = EventLog::new(EventLogMode::Null);
        assert!(!log.enabled());
        log.emit(fault(1, "crash@0:0"));
        assert!(log.is_empty());
        assert!(log.to_jsonl().ends_with("\"events\":0,\"dropped\":0}\n"));
    }

    #[test]
    fn digest_tracks_content() {
        let mut a = EventLog::new(EventLogMode::Full);
        let mut b = EventLog::new(EventLogMode::Full);
        assert_eq!(a.digest(), b.digest());
        a.emit(fault(1, "crash@0:0"));
        assert_ne!(a.digest(), b.digest());
        b.emit(fault(1, "crash@0:0"));
        assert_eq!(a.digest(), b.digest());
    }
}
