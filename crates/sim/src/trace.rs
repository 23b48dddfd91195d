//! Schedule traces: a simulated run recorded as an ordered I/O-automaton
//! schedule of the replicated serial system **B**.
//!
//! The simulator's event loop is an operational stand-in for the paper's
//! replicated system: each committed operation is one transaction manager
//! run (`CREATE`, its replica accesses, `REQUEST-COMMIT`, `COMMIT`), each
//! failed or forced-aborted attempt is a transaction that was *never
//! created* (`ABORT`). The [`Traces`](crate::Traces) observer keeps one
//! [`ScheduleTrace`] per item, which `qc_replication::check_trace` then
//! replays through the Theorem 10 projection and the serial-system
//! machinery. Its store is the packed [`qc_replication::TraceEvents`]: a
//! 24-byte row per event, and one `(at_us, tid, faulted)` header per run of
//! events that share it — the protocol core emits a whole TM block at one
//! instant under one name and one fault flag, so a block costs one header.
//!
//! [`trace_to_json`] renders a trace in a stable, diff-friendly byte
//! format (one event per line) for `--trace-dir` dumps and the golden
//! snapshot tests under `tests/golden/`.

use std::fmt::Write as _;

use qc_replication::{ScheduleTrace, TraceAction, TraceEvent};

/// Append `e` as one JSON object, keys in their fixed order.
fn write_event_json(s: &mut String, e: &TraceEvent) {
    write!(
        s,
        "{{\"at_us\":{},\"client\":{},\"op\":{},\"attempt\":{},\"faulted\":{},",
        e.at_us, e.tid.client, e.tid.op, e.tid.attempt, e.faulted
    )
    .expect("writing to a String cannot fail");
    match e.action {
        TraceAction::Create { kind } => {
            write!(s, "\"action\":\"CREATE\",\"kind\":\"{kind}\"")
        }
        TraceAction::ReadDm { site, vn, value } => {
            write!(
                s,
                "\"action\":\"READ-DM\",\"site\":{site},\"vn\":{vn},\"value\":{value}"
            )
        }
        TraceAction::WriteDm { site, vn, value } => {
            write!(
                s,
                "\"action\":\"WRITE-DM\",\"site\":{site},\"vn\":{vn},\"value\":{value}"
            )
        }
        TraceAction::ReadCfg { site, gen } => {
            write!(s, "\"action\":\"READ-CFG\",\"site\":{site},\"gen\":{gen}")
        }
        TraceAction::WriteCfg { site, gen, members } => {
            write!(
                s,
                "\"action\":\"WRITE-CFG\",\"site\":{site},\"gen\":{gen},\"members\":["
            )
            .expect("writing to a String cannot fail");
            for (i, m) in members.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                write!(s, "{m}").expect("writing to a String cannot fail");
            }
            write!(s, "]")
        }
        TraceAction::RequestCommit { vn, value } => {
            write!(
                s,
                "\"action\":\"REQUEST-COMMIT\",\"vn\":{vn},\"value\":{value}"
            )
        }
        TraceAction::Commit => write!(s, "\"action\":\"COMMIT\""),
        TraceAction::Abort { kind, reason } => {
            write!(
                s,
                "\"action\":\"ABORT\",\"kind\":\"{kind}\",\"reason\":\"{reason}\""
            )
        }
    }
    .expect("writing to a String cannot fail");
    s.push('}');
}

/// Render a trace in the stable `qc-trace-v1` JSON byte format.
///
/// One event per line, keys in a fixed order, a trailing newline: the
/// output for a given trace is byte-identical across runs and platforms,
/// so golden files diff cleanly.
#[must_use]
pub fn trace_to_json(trace: &ScheduleTrace) -> String {
    let mut out = String::from("{\n  \"format\": \"qc-trace-v1\",\n  \"quorum\": ");
    serde::escape_json_string(&trace.quorum, &mut out);
    write!(
        out,
        ",\n  \"sites\": {},\n  \"seed\": {},\n  \"initial\": {},\n  \"events\": [\n",
        trace.sites, trace.seed, trace.initial
    )
    .expect("writing to a String cannot fail");
    let n = trace.events.len();
    for (i, e) in trace.events.iter().enumerate() {
        out.push_str("    ");
        write_event_json(&mut out, &e);
        if i + 1 < n {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_replication::{AbortReason, TmKind, TraceTid};

    /// Append `action` at `at_us` under [`tid`].
    fn record(t: &mut ScheduleTrace, at_us: u64, action: TraceAction, faulted: bool) {
        t.events.push(TraceEvent {
            at_us,
            tid: tid(),
            action,
            faulted,
        });
    }

    fn tid() -> TraceTid {
        TraceTid {
            client: 1,
            op: 2,
            attempt: 3,
        }
    }

    #[test]
    fn recorder_accumulates_in_order() {
        let mut r = ScheduleTrace::new("majority(3)", 3, 7);
        assert!(r.events.is_empty());
        record(
            &mut r,
            10,
            TraceAction::Create { kind: TmKind::Read },
            false,
        );
        record(&mut r, 11, TraceAction::Commit, true);
        assert_eq!(r.events.len(), 2);
        let t = r;
        assert_eq!(t.quorum, "majority(3)");
        assert_eq!(t.sites, 3);
        assert_eq!(t.seed, 7);
        assert_eq!(t.events.get(0).unwrap().at_us, 10);
        assert!(t.events.get(1).unwrap().faulted);
    }

    #[test]
    fn json_format_is_stable() {
        let mut r = ScheduleTrace::new("rowa(2)", 2, 0);
        record(
            &mut r,
            5,
            TraceAction::Create {
                kind: TmKind::Write,
            },
            false,
        );
        record(
            &mut r,
            5,
            TraceAction::ReadDm {
                site: 0,
                vn: 0,
                value: 0,
            },
            false,
        );
        record(
            &mut r,
            5,
            TraceAction::WriteDm {
                site: 1,
                vn: 1,
                value: 9,
            },
            false,
        );
        record(
            &mut r,
            5,
            TraceAction::RequestCommit { vn: 1, value: 9 },
            false,
        );
        record(&mut r, 5, TraceAction::Commit, false);
        record(
            &mut r,
            6,
            TraceAction::Abort {
                kind: TmKind::Read,
                reason: AbortReason::Timeout,
            },
            true,
        );
        record(&mut r, 7, TraceAction::ReadCfg { site: 0, gen: 0 }, false);
        record(
            &mut r,
            7,
            TraceAction::WriteCfg {
                site: 1,
                gen: 1,
                members: [0usize, 1].into_iter().collect(),
            },
            false,
        );
        let json = trace_to_json(&r);
        let expected = "{\n  \"format\": \"qc-trace-v1\",\n  \"quorum\": \"rowa(2)\",\n  \
                        \"sites\": 2,\n  \"seed\": 0,\n  \"initial\": 0,\n  \"events\": [\n    \
                        {\"at_us\":5,\"client\":1,\"op\":2,\"attempt\":3,\"faulted\":false,\"action\":\"CREATE\",\"kind\":\"write\"},\n    \
                        {\"at_us\":5,\"client\":1,\"op\":2,\"attempt\":3,\"faulted\":false,\"action\":\"READ-DM\",\"site\":0,\"vn\":0,\"value\":0},\n    \
                        {\"at_us\":5,\"client\":1,\"op\":2,\"attempt\":3,\"faulted\":false,\"action\":\"WRITE-DM\",\"site\":1,\"vn\":1,\"value\":9},\n    \
                        {\"at_us\":5,\"client\":1,\"op\":2,\"attempt\":3,\"faulted\":false,\"action\":\"REQUEST-COMMIT\",\"vn\":1,\"value\":9},\n    \
                        {\"at_us\":5,\"client\":1,\"op\":2,\"attempt\":3,\"faulted\":false,\"action\":\"COMMIT\"},\n    \
                        {\"at_us\":6,\"client\":1,\"op\":2,\"attempt\":3,\"faulted\":true,\"action\":\"ABORT\",\"kind\":\"read\",\"reason\":\"timeout\"},\n    \
                        {\"at_us\":7,\"client\":1,\"op\":2,\"attempt\":3,\"faulted\":false,\"action\":\"READ-CFG\",\"site\":0,\"gen\":0},\n    \
                        {\"at_us\":7,\"client\":1,\"op\":2,\"attempt\":3,\"faulted\":false,\"action\":\"WRITE-CFG\",\"site\":1,\"gen\":1,\"members\":[0,1]}\n  \
                        ]\n}\n";
        assert_eq!(json, expected);
    }

    #[test]
    fn quorum_labels_are_escaped() {
        let r = ScheduleTrace::new("odd \"label\"", 1, 0);
        let json = trace_to_json(&r);
        assert!(json.contains("\"quorum\": \"odd \\\"label\\\"\""));
    }
}
