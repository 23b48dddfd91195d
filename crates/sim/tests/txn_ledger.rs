//! Pinned faulted runs of the nested-transaction driver: the paths its
//! fault, reconfiguration, violation and end-of-run accounting take.
//!
//! Each scenario reaches a planned fault the nested driver accounts for —
//! a store corruption the monitor catches (at the injection, at later
//! commits, at a reconfiguration and at the end of the run), scripted
//! reconfigurations that install and ones that are infeasible under
//! crashes, forced aborts and a drop window — and pins three things: the
//! [`TxnReport`] digest, the full list of retained violation texts, and an
//! FNV over every item's `check_trace` verdict. Each must hold at 1 and 2
//! OS threads under both event queues. To bless new constants after an
//! intentional change, run the test and copy the printed values.

use std::sync::Arc;

use nested_txn::{BankingGen, RandomTreeGen, WorkloadKind};
use qc_sim::{
    check_trace, run_txn_with, FaultPlan, QueueKind, ReconfigPolicy, RetryPolicy, SimTime, Traces,
    TxnConfig, TxnReport,
};
use quorum::Majority;

/// Forced aborts, a drop window and, just before the end, a corruption of
/// site 1's copy of domain 0's first item: the monitor fires at the
/// injection and again at the end of the run.
fn corrupt_abort_drop() -> TxnConfig {
    let mut c = TxnConfig::new(
        Arc::new(Majority::new(3)),
        WorkloadKind::Banking(BankingGen::new(4)),
    );
    c.items = 8;
    c.domains = 2;
    c.clients_per_domain = 2;
    c.duration = SimTime::from_millis(600);
    c.seed = 41;
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(2));
    c.faults = FaultPlan::parse("abort@100:0;abort@250:3;drop@150:100,250;corrupt@599.5:1,999,77")
        .expect("fault plan parses");
    c
}

/// The same corruption mid-run: the monitor fires at commits that read
/// or overwrite the corrupt copy.
fn corrupt_commits() -> TxnConfig {
    let mut c = corrupt_abort_drop();
    c.faults = FaultPlan::parse("corrupt@300:1,999,77").expect("fault plan parses");
    c
}

/// Scripted reconfigurations that install: to the live sites with two of
/// five down, then back to four members once one recovers. A corruption
/// before the first one makes the monitor fire at the reconfiguration.
fn reconfig_installs() -> TxnConfig {
    let mut c = TxnConfig::new(
        Arc::new(Majority::new(5)),
        WorkloadKind::Random(RandomTreeGen::new(4)),
    );
    c.items = 8;
    c.domains = 2;
    c.clients_per_domain = 3;
    c.duration = SimTime::from_millis(800);
    c.seed = 53;
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(2));
    c.reconfig = ReconfigPolicy::scripted_only();
    c.faults = FaultPlan::parse(
        "crash@100:1;crash@150:4;corrupt@299.9:2,999,77;reconfig@300:live;\
         recover@500:1;reconfig@600:0+1+2+3",
    )
    .expect("fault plan parses");
    c
}

/// Scripted reconfigurations that cannot run: three of five sites down,
/// so neither the live set nor an explicit pair reaches the old
/// configuration's quorums; after recovery the last one installs.
fn reconfig_infeasible() -> TxnConfig {
    let mut c = TxnConfig::new(
        Arc::new(Majority::new(5)),
        WorkloadKind::Banking(BankingGen::new(4)),
    );
    c.items = 8;
    c.domains = 2;
    c.clients_per_domain = 2;
    c.duration = SimTime::from_millis(800);
    c.seed = 67;
    c.retry = RetryPolicy::retries(2, SimTime::from_millis(2));
    c.reconfig = ReconfigPolicy::scripted_only();
    c.faults = FaultPlan::parse(
        "crash@100:0;crash@100:1;crash@100:2;reconfig@200:live;reconfig@300:3+4;\
         abort@350:1;recover@450:0;recover@450:1;reconfig@550:live",
    )
    .expect("fault plan parses");
    c
}

/// A pinned scenario: its label, configuration, report digest, retained
/// violation texts and `check_trace`-verdict FNV.
struct Pin {
    label: &'static str,
    config: TxnConfig,
    digest: u64,
    violations: &'static [&'static str],
    verdicts: u64,
}

fn pins() -> Vec<Pin> {
    vec![
        Pin {
            label: "corrupt-abort-drop",
            config: corrupt_abort_drop(),
            digest: 0x1e66_bb1e_44b3_b498,
            violations: &[
                "t=599.500ms corrupt injection: Lemma 7 violated: max replica vn 999 ≠ current-vn 23",
                "end-of-run item=0: Lemma 7 violated: max replica vn 999 ≠ current-vn 23",
            ],
            verdicts: 0xdc73_4ae1_edc5_1c67,
        },
        Pin {
            label: "corrupt-commits",
            config: corrupt_commits(),
            digest: 0xfcdb_fb08_1160_6610,
            violations: &[
                "t=300.000ms corrupt injection: Lemma 7 violated: max replica vn 999 ≠ current-vn 8",
                "t=372.635ms item=0 client=1 read: Lemma 7 violated: max replica vn 999 ≠ current-vn 8",
                "t=378.810ms item=0 client=0 read: Lemma 8(2) violated: read returned 77, logical-state is 52",
                "t=379.878ms item=0 client=1 read: Lemma 8(2) violated: read returned 77, logical-state is 52",
                "t=381.792ms item=0 client=0 read: Lemma 8(2) violated: read returned 77, logical-state is 52",
                "t=384.761ms item=0 client=0 read: Lemma 7 violated: max replica vn 999 ≠ current-vn 8",
                "t=385.508ms item=0 client=0 write: write committed vn 1000 but current-vn is 8 (read-quorum discovery missed the latest version)",
                "t=387.548ms item=0 client=1 read: Lemma 8(2) violated: read returned 76, logical-state is 52",
            ],
            verdicts: 0x261c_d23c_5949_aefb,
        },
        Pin {
            label: "reconfig-installs",
            config: reconfig_installs(),
            digest: 0xb196_756a_17df_05fa,
            violations: &[
                "t=299.900ms corrupt injection: Lemma 7 violated: max replica vn 999 ≠ current-vn 11",
                "t=300.000ms item=0 reconfig gen 1: Lemma 7 violated: max replica vn 999 ≠ current-vn 11",
                "t=304.883ms item=0 client=1 read: Lemma 8(2) violated: read returned 77, logical-state is 1000082",
                "t=305.741ms item=0 client=1 read: Lemma 8(2) violated: read returned 77, logical-state is 1000082",
                "t=307.740ms item=0 client=2 read: Lemma 8(2) violated: read returned 77, logical-state is 1000082",
                "t=308.244ms item=0 client=0 read: Lemma 8(2) violated: read returned 77, logical-state is 1000082",
                "t=409.019ms item=0 client=1 write: write committed vn 1000 but current-vn is 11 (read-quorum discovery missed the latest version)",
                "t=411.100ms item=0 client=1 write: write committed vn 1001 but current-vn is 11 (read-quorum discovery missed the latest version)",
            ],
            verdicts: 0x8474_1c4e_0afd_1042,
        },
        Pin {
            label: "reconfig-infeasible",
            config: reconfig_infeasible(),
            digest: 0x203c_07d6_3158_2980,
            violations: &[],
            verdicts: 0xf5a4_7c01_9fda_05ba,
        },
    ]
}

/// The report, and an FNV-1a over every item's `check_trace` verdict
/// (its `Debug` rendering, the item index first).
fn run(config: &TxnConfig, threads: usize) -> (TxnReport, u64) {
    let mut traces = Traces::new(&*config.quorum, config.seed, config.items);
    let report = run_txn_with(config, threads, &mut traces);
    let mut bytes = Vec::new();
    for (g, trace) in traces.into_traces().iter().enumerate() {
        let verdict = format!("{g}:{:?}\n", check_trace(trace, &*config.quorum));
        bytes.extend_from_slice(verdict.as_bytes());
    }
    (report, qc_obs::fnv1a(&bytes))
}

#[test]
fn faulted_nested_runs_are_pinned_across_threads_and_queues() {
    for pin in pins() {
        for queue in [QueueKind::Calendar, QueueKind::Heap] {
            let config = TxnConfig {
                queue,
                ..pin.config.clone()
            };
            for threads in [1usize, 2] {
                let at = format!("{} under {queue:?} at {threads} threads", pin.label);
                let (report, verdicts) = run(&config, threads);
                assert_eq!(report.stats.violations, pin.violations, "{at}");
                assert_eq!(
                    report.digest(),
                    pin.digest,
                    "{at}: report digest drifted (got {:#018x})",
                    report.digest()
                );
                assert_eq!(
                    verdicts, pin.verdicts,
                    "{at}: trace verdicts drifted (got {verdicts:#018x})"
                );
            }
        }
    }
}

/// The pins above mean something only if each scenario reaches the paths
/// it is named for.
#[test]
fn faulted_nested_runs_reach_every_accounted_path() {
    let stats = |c: TxnConfig| run(&c, 1).0.stats;
    let s = stats(corrupt_abort_drop());
    assert!(s.forced_aborts > 0 && s.dropped_messages > 0, "{s:?}");
    let has = |s: &qc_sim::TxnStats, text: &str| s.violations.iter().any(|v| v.contains(text));
    assert!(has(&s, "corrupt injection"), "{s:?}");
    assert!(has(&s, "end-of-run item="), "{s:?}");
    let s = stats(corrupt_commits());
    assert!(
        has(&s, "client=1 read:") && has(&s, "client=0 write:"),
        "{s:?}"
    );
    let s = stats(reconfig_installs());
    assert!(s.reconfigurations > 0, "{s:?}");
    assert!(has(&s, "reconfig gen"), "{s:?}");
    let s = stats(reconfig_infeasible());
    assert!(s.reconfig_failures > 0 && s.reconfigurations > 0, "{s:?}");
    assert!(s.forced_aborts > 0, "{s:?}");
}
