//! The retiring system **A** against the full-state one.
//!
//! [`check_trace`] retires each access `T0.k` from serial system **A** as
//! the step that returns it is performed. The reference here steps the
//! same α on a system **A** that keeps every name, as the paper's sets do,
//! and the two must agree exactly: the same [`ConformanceReport`], or the
//! same [`Divergence`] (event, kind and action string), and the same α
//! performed, operation for operation. [`agree`] is what
//! `conformance::tests` checks every trace and mutation with; the tests
//! below add the trace goldens and random, mutated traces.

use proptest::prelude::*;
use quorum::{Majority, Rowa};

use super::*;

/// The verdict of one pass and the α operations it performed.
type Run = (Result<ConformanceReport, Divergence>, Vec<(TxnOp, usize)>);

/// The one pass over `t` against a system **A** whose object starts at
/// `initial` and that never retires a name.
fn full_state(t: &ScheduleTrace, quorum: &dyn QuorumSpec, initial: u64) -> Run {
    let mut system = SystemA::new(initial).system;
    let mut alpha = Vec::new();
    let perform = |op: &TxnOp, src| {
        system.step(op).map_err(|e| {
            replay_divergence(src, &t.events, format!("serial system A refused {op}: {e}"))
        })
    };
    let verdict = check_against(t, quorum, ALL_NAMES, perform, |op, src| {
        alpha.push((op.clone(), src));
    });
    (verdict, alpha)
}

/// The same pass against the retiring system **A** of [`check_trace`].
fn retiring(t: &ScheduleTrace, quorum: &dyn QuorumSpec, initial: u64) -> Run {
    let mut alpha = Vec::new();
    let tap = |op: &TxnOp, src| alpha.push((op.clone(), src));
    let verdict = if initial == t.initial {
        check_trace_tapped(t, quorum, tap)
    } else {
        let mut system_a = SystemA::new(initial);
        let perform = |op: &TxnOp, src| system_a.step(op, src, &t.events);
        check_against(t, quorum, ALL_NAMES, perform, tap)
    };
    (verdict, alpha)
}

/// Both passes against an object starting at `initial`, asserted equal;
/// the retiring one's result.
pub(super) fn agree_against(t: &ScheduleTrace, quorum: &dyn QuorumSpec, initial: u64) -> Run {
    let run = retiring(t, quorum, initial);
    let reference = full_state(t, quorum, initial);
    assert_eq!(
        run.0, reference.0,
        "the verdict differs from the full-state system A"
    );
    assert_eq!(
        run.1, reference.1,
        "α differs from the full-state system A's"
    );
    run
}

/// [`check_trace`], asserted equal to the full-state pass — and so is the
/// pass against an object that starts one off, which system **A** refuses
/// at the first read that returns the initial value.
pub(super) fn agree(
    t: &ScheduleTrace,
    quorum: &dyn QuorumSpec,
) -> Result<ConformanceReport, Divergence> {
    let _ = agree_against(t, quorum, t.initial.wrapping_add(1));
    agree_against(t, quorum, t.initial).0
}

/// The value of `key` in one event line of a `qc-trace-v1` file.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + key.len()
        + 3;
    let rest = &line[at..];
    let end = if rest.starts_with('[') {
        rest.find(']').expect("a closed list") + 1
    } else {
        rest.find([',', '}']).expect("a terminated value")
    };
    rest[..end].trim_matches('"')
}

fn number(line: &str, key: &str) -> u64 {
    field(line, key).parse().expect("a number")
}

fn kind_of(line: &str) -> TmKind {
    match field(line, "kind") {
        "read" => TmKind::Read,
        "write" => TmKind::Write,
        _ => TmKind::Reconfig,
    }
}

/// A trace read back from its `qc-trace-v1` JSON (the format
/// `trace_to_json` writes: one event per line).
fn parse_golden(json: &str) -> ScheduleTrace {
    let header = |key: &str| {
        let line = json
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("\"{key}\"")));
        let line = line.unwrap_or_else(|| panic!("no {key}"));
        line.split_once(':')
            .expect("a key")
            .1
            .trim()
            .trim_end_matches(',')
            .trim_matches('"')
    };
    let mut t = ScheduleTrace::new(header("quorum"), header("sites").parse().expect("n"), 0);
    t.seed = header("seed").parse().expect("a seed");
    t.initial = header("initial").parse().expect("a value");
    for line in json.lines().filter(|l| l.contains("\"at_us\"")) {
        let site = || number(line, "site") as u8;
        let action = match field(line, "action") {
            "CREATE" => TraceAction::Create {
                kind: kind_of(line),
            },
            "READ-DM" => TraceAction::ReadDm {
                site: site(),
                vn: number(line, "vn"),
                value: number(line, "value"),
            },
            "WRITE-DM" => TraceAction::WriteDm {
                site: site(),
                vn: number(line, "vn"),
                value: number(line, "value"),
            },
            "READ-CFG" => TraceAction::ReadCfg {
                site: site(),
                gen: number(line, "gen"),
            },
            "WRITE-CFG" => TraceAction::WriteCfg {
                site: site(),
                gen: number(line, "gen"),
                members: field(line, "members")
                    .trim_matches(['[', ']'])
                    .split(',')
                    .map(|m| m.parse::<usize>().expect("a site"))
                    .collect(),
            },
            "REQUEST-COMMIT" => TraceAction::RequestCommit {
                vn: number(line, "vn"),
                value: number(line, "value"),
            },
            "COMMIT" => TraceAction::Commit,
            "ABORT" => TraceAction::Abort {
                kind: kind_of(line),
                reason: match field(line, "reason") {
                    "forced" => AbortReason::Forced,
                    "unavailable" => AbortReason::Unavailable,
                    "timeout" => AbortReason::Timeout,
                    _ => AbortReason::Stale,
                },
            },
            other => panic!("unknown action {other}"),
        };
        t.events.push(TraceEvent {
            at_us: number(line, "at_us"),
            tid: TraceTid {
                client: number(line, "client") as u32,
                op: number(line, "op"),
                attempt: number(line, "attempt") as u32,
            },
            action,
            faulted: field(line, "faulted") == "true",
        });
    }
    t
}

/// The simulator's trace goldens, each recorded over Majority(3).
const GOLDENS: [(&str, &str); 5] = [
    (
        "healthy",
        include_str!("../../../sim/tests/golden/healthy_majority3_seed7.json"),
    ),
    (
        "faulted",
        include_str!("../../../sim/tests/golden/faulted_majority3_seed11.json"),
    ),
    (
        "reconfig",
        include_str!("../../../sim/tests/golden/reconfig_majority3_seed17.json"),
    ),
    (
        "migration",
        include_str!("../../../sim/tests/golden/migration_majority3_seed17.json"),
    ),
    (
        "txn_banking",
        include_str!("../../../sim/tests/golden/txn_banking_seed17.json"),
    ),
];

#[test]
fn every_trace_golden_replays_alike_on_the_retiring_system_a() {
    let quorum = Majority::new(3);
    for (name, json) in GOLDENS {
        let t = parse_golden(json);
        assert_eq!(t.quorum, quorum.label(), "{name}");
        let report = agree(&t, &quorum).unwrap_or_else(|d| panic!("{name}: {d}"));
        assert_eq!(
            report.events,
            t.events.len(),
            "{name}: the whole golden was read"
        );
        assert!(report.committed > 0, "{name}");
    }
}

#[test]
fn a_spent_name_counter_is_malformed_not_a_replay_of_a_retired_name() {
    // Three read/write managers and a reconfigure-TM between them, named
    // from the last two of the 2^32 names: the third has none left.
    let quorum = Rowa::new(3);
    let mut t = random_trace(&quorum, 7, &[1, 2, 3, 1]);
    let report = agree(&t, &quorum).expect("the generated trace conforms");
    assert_eq!(report.committed, 4);
    let events = t.events.to_vec();
    let closes: Vec<usize> = (0..events.len())
        .filter(|&i| matches!(events[i].action, TraceAction::Commit))
        .collect();
    for initial in [t.initial, t.initial + 1] {
        let mut system_a = SystemA::new(initial);
        let d = check_against(
            &t,
            &quorum,
            u32::MAX - 1..=u32::MAX,
            |op: &TxnOp, src| system_a.step(op, src, &t.events),
            |_, _| {},
        )
        .expect_err("no name is left for the third manager");
        assert!(matches!(d.kind, DivergenceKind::Malformed(_)), "{d}");
        assert_eq!(
            d.event, closes[3],
            "at the fourth COMMIT, the third data manager's"
        );
    }
    // Two names are enough for a trace with two read/write managers.
    t.events = events[..=closes[2]].to_vec().into();
    let mut system_a = SystemA::new(t.initial);
    check_against(
        &t,
        &quorum,
        u32::MAX - 1..=u32::MAX,
        |op: &TxnOp, src| system_a.step(op, src, &t.events),
        |_, _| {},
    )
    .expect("T0.4294967294 and T0.4294967295 replay and retire");
}

/// A serial Gifford run over `quorum`, one block per entry of `blocks`:
/// 0 an aborted attempt, 1 a read-TM, 2 a write-TM, 3 a reconfigure-TM
/// (under a resizable rule) to a membership drawn from `seed`. Every block
/// contacts all current members and a few other sites, so the trace
/// conforms.
fn random_trace(quorum: &dyn QuorumSpec, seed: u64, blocks: &[u8]) -> ScheduleTrace {
    let n = quorum.n();
    let mut rng = seed;
    let mut draw = |bound: u64| {
        // SplitMix64.
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound.max(1)
    };
    let resizable = quorum.thresholds().is_some_and(Thresholds::resizable);
    let mut t = ScheduleTrace::new(quorum.label(), n, seed);
    t.initial = draw(5);
    let mut stores = vec![(0u64, t.initial); n];
    let mut cfg_stores = vec![0u64; n];
    let mut members = ReplicaSet::full(n);
    let mut gen = 0u64;
    let push = |t: &mut ScheduleTrace, tid, action, faulted| {
        t.events.push(TraceEvent {
            at_us: 0,
            tid,
            action,
            faulted,
        });
    };
    for (op, &block) in blocks.iter().enumerate() {
        let tid = TraceTid {
            client: draw(3) as u32,
            op: op as u64,
            attempt: 1 + draw(2) as u32,
        };
        let faulted = draw(4) == 0;
        let kind = match block {
            1 => TmKind::Read,
            2 => TmKind::Write,
            3 if resizable => TmKind::Reconfig,
            _ => {
                let kind = [TmKind::Read, TmKind::Write, TmKind::Reconfig][draw(3) as usize];
                let reason = AbortReason::Forced;
                push(&mut t, tid, TraceAction::Abort { kind, reason }, faulted);
                continue;
            }
        };
        let contact: ReplicaSet = (0..n)
            .filter(|&s| members.contains(s) || draw(3) == 0)
            .collect();
        push(&mut t, tid, TraceAction::Create { kind }, faulted);
        if gen > 0 || kind == TmKind::Reconfig {
            for s in contact.iter() {
                let gen = cfg_stores[s];
                push(
                    &mut t,
                    tid,
                    TraceAction::ReadCfg { site: s as u8, gen },
                    faulted,
                );
            }
        }
        for s in contact.iter() {
            let (vn, value) = stores[s];
            push(
                &mut t,
                tid,
                TraceAction::ReadDm {
                    site: s as u8,
                    vn,
                    value,
                },
                faulted,
            );
        }
        let (vn, value) = contact
            .iter()
            .map(|s| stores[s])
            .max_by_key(|&(vn, _)| vn)
            .expect("every block contacts its members");
        let (vn, value) = match kind {
            TmKind::Read => (vn, value),
            TmKind::Write => {
                let installed = (vn + 1, draw(1000));
                for s in contact.iter() {
                    stores[s] = installed;
                    let (vn, value) = installed;
                    push(
                        &mut t,
                        tid,
                        TraceAction::WriteDm {
                            site: s as u8,
                            vn,
                            value,
                        },
                        faulted,
                    );
                }
                installed
            }
            TmKind::Reconfig => {
                // A new membership that keeps one old member, so the next
                // blocks' configuration reads still find the generation.
                let keep = members.iter().nth(draw(members.len() as u64) as usize);
                let next: ReplicaSet = (0..n)
                    .filter(|&s| Some(s) == keep || draw(2) == 0)
                    .collect();
                gen += 1;
                for s in contact.iter() {
                    cfg_stores[s] = gen;
                    let action = TraceAction::WriteCfg {
                        site: s as u8,
                        gen,
                        members: next,
                    };
                    push(&mut t, tid, action, faulted);
                }
                for s in next.iter() {
                    stores[s] = (vn, value);
                    push(
                        &mut t,
                        tid,
                        TraceAction::WriteDm {
                            site: s as u8,
                            vn,
                            value,
                        },
                        faulted,
                    );
                }
                members = next;
                (gen, next.bits() as u64)
            }
        };
        push(
            &mut t,
            tid,
            TraceAction::RequestCommit { vn, value },
            faulted,
        );
        push(&mut t, tid, TraceAction::Commit, faulted);
    }
    t
}

/// One edit of a trace's events, drawn from `(what, at, word)`: drop,
/// repeat or swap an event, rewrite its words or its manager's name, or
/// cut the trace there — most of them mid-block.
fn mutate(events: &mut Vec<TraceEvent>, (what, at, word): (u8, usize, u64)) {
    if events.is_empty() {
        return;
    }
    let at = at % events.len();
    match what {
        0 => {
            events.remove(at);
        }
        1 => events.insert(at, events[at]),
        2 if at + 1 < events.len() => events.swap(at, at + 1),
        3 => events.truncate(at),
        4 => events[at].tid.op ^= 1 + word % 3,
        _ => {
            let small = word % 4;
            events[at].action = match events[at].action {
                TraceAction::ReadDm { site, vn, .. } => TraceAction::ReadDm {
                    site,
                    vn,
                    value: small,
                },
                TraceAction::WriteDm { site, value, .. } => TraceAction::WriteDm {
                    site,
                    vn: small,
                    value,
                },
                TraceAction::ReadCfg { site, .. } => TraceAction::ReadCfg { site, gen: small },
                TraceAction::RequestCommit { vn, .. } => {
                    TraceAction::RequestCommit { vn, value: small }
                }
                TraceAction::Create { .. } => TraceAction::Create { kind: TmKind::Read },
                other => other,
            };
        }
    }
}

proptest! {
    /// Random serial runs — reads, writes, aborted attempts and, under a
    /// resizable rule, reconfigurations — over ROWA, majority or a fixed
    /// configuration of 3–5 sites, each checked as generated and after up
    /// to three random edits: the retiring system A agrees with the
    /// full-state one on every verdict and every α, against the right
    /// object and against one that starts one off.
    #[test]
    fn random_and_mutated_traces_replay_alike_on_the_retiring_system_a(
        family in 0u8..3,
        n in 3usize..6,
        seed in 0u64..u64::MAX,
        blocks in prop::collection::vec(0u8..4, 0..40),
        edits in prop::collection::vec((0u8..6, 0usize..4096, 0u64..u64::MAX), 0..4),
    ) {
        let rowa = Rowa::new(n);
        let majority = Majority::new(n);
        let fixed = quorum::Configuration::new(
            vec![(0..n).collect()],
            vec![(0..n).collect()],
        );
        let quorum: &dyn QuorumSpec = match family {
            0 => &rowa,
            1 => &majority,
            _ => &fixed,
        };
        let mut t = random_trace(quorum, seed, &blocks);
        let report = agree(&t, quorum);
        prop_assert!(report.is_ok(), "the generated run conforms: {:?}", report);
        let mut events = t.events.to_vec();
        for edit in edits {
            mutate(&mut events, edit);
            t.events = events.clone().into();
            agree(&t, quorum).ok();
        }
    }
}
