//! Cross-thread-count and cross-queue determinism for the
//! nested-transaction workload, with *pinned* digests: the report digest
//! of each scenario below and a digest of its committed projections in
//! commit order are committed constants, so any change to the event
//! order, RNG consumption, stats accounting, subtree erasure, or digest
//! formula shows up as a loud diff here rather than as silent drift.
//!
//! Each scenario must produce its pinned digests on 1, 2 and 4 OS threads,
//! under both the calendar and the binary-heap event queue, and
//! run-to-run. To bless new constants after an intentional change, run
//! the test and copy the printed digests.

use std::sync::Arc;

use nested_txn::{BankingGen, InventoryGen, RandomTreeGen, WorkloadKind};
use qc_sim::{
    run_txn, run_txn_causal, run_txn_committed, AbortCause, CausalOptions, CommitLog, EdgeKind,
    FaultPlan, QueueKind, RetryPolicy, SimTime, TxnConfig,
};
use quorum::{Majority, Rowa};

fn banking() -> TxnConfig {
    let mut c = TxnConfig::new(
        Arc::new(Majority::new(3)),
        WorkloadKind::Banking(BankingGen::new(4)),
    );
    c.items = 8;
    c.domains = 2;
    c.clients_per_domain = 2;
    c.duration = SimTime::from_secs(1);
    c.seed = 17;
    c
}

fn faulted_random() -> TxnConfig {
    let mut c = TxnConfig::new(
        Arc::new(Majority::new(5)),
        WorkloadKind::Random(RandomTreeGen::new(4)),
    );
    c.items = 8;
    c.domains = 2;
    c.clients_per_domain = 3;
    c.duration = SimTime::from_secs(1);
    c.seed = 31;
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(2));
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(100), 1)
        .crash_at(SimTime::from_millis(250), 4)
        .recover_at(SimTime::from_millis(500), 1)
        .recover_at(SimTime::from_millis(650), 4)
        .abort_at(SimTime::from_millis(200), 0)
        .abort_at(SimTime::from_millis(400), 5)
        .drop_window(SimTime::from_millis(300), SimTime::from_millis(150), 250)
        .delay_window(
            SimTime::from_millis(700),
            SimTime::from_millis(100),
            SimTime::from_millis(1),
        );
    c
}

fn rowa_inventory() -> TxnConfig {
    let mut c = TxnConfig::new(
        Arc::new(Rowa::new(3)),
        WorkloadKind::Inventory(InventoryGen::new(3)),
    );
    c.items = 9;
    c.domains = 3;
    c.clients_per_domain = 2;
    c.duration = SimTime::from_secs(1);
    c.seed = 43;
    c
}

/// `(label, config, pinned report digest, pinned committed-projection
/// digest)` — the committed determinism contract.
fn scenarios() -> Vec<(&'static str, TxnConfig, u64, u64)> {
    vec![
        (
            "banking",
            banking(),
            0xdb09_83bb_80f1_6119,
            0xd00e_70b4_46e0_0c3b,
        ),
        (
            "faulted-random",
            faulted_random(),
            0x58fd_65bb_ba99_9653,
            0xb656_9935_b11b_071b,
        ),
        (
            "rowa-inventory",
            rowa_inventory(),
            0x5992_5ba0_5910_cca8,
            0x0728_2e90_12be_2511,
        ),
    ]
}

/// FNV-1a over the commit-order `(client, [(item, write, value)…])` list —
/// the Theorem 11 replay's input. The report digest covers counters and
/// per-item tallies only, and the replay accepts a projection that erased
/// too much, so the list itself is pinned.
fn committed_digest(commits: &CommitLog) -> u64 {
    let mut bytes = Vec::new();
    let mut eat = |x: u64| bytes.extend_from_slice(&x.to_le_bytes());
    for txn in commits.iter() {
        eat(u64::from(txn.client));
        eat(txn.ops.len() as u64);
        for op in &txn.ops {
            eat(u64::from(op.item));
            eat(u64::from(op.write));
            eat(op.value);
        }
    }
    qc_obs::fnv1a(&bytes)
}

#[test]
fn pinned_digests_hold_across_threads_and_queues() {
    for (label, config, pinned, pinned_commits) in scenarios() {
        for queue in [QueueKind::Calendar, QueueKind::Heap] {
            let mut c = config.clone();
            c.queue = queue;
            for threads in [1usize, 2, 4] {
                let at = format!("{label} under {queue:?} at {threads} threads");
                let (report, commits) = run_txn_committed(&c, threads);
                assert_eq!(
                    report.stats.lemma_violations, 0,
                    "{at}: violations {:?}",
                    report.stats.violations
                );
                assert_eq!(
                    report.digest(),
                    pinned,
                    "{at}: report digest drifted from its pinned constant \
                     (got {:#018x}; if intentional, re-pin it)",
                    report.digest()
                );
                assert_eq!(commits.len() as u64, report.stats.txns_committed, "{at}");
                let got = committed_digest(&commits);
                assert_eq!(
                    got, pinned_commits,
                    "{at}: committed projection drifted from its pinned constant \
                     (got {got:#018x}; if intentional, re-pin it)"
                );
            }
        }
    }
}

#[test]
fn reports_reproduce_run_to_run() {
    let a = run_txn(&faulted_random(), 2);
    let b = run_txn(&faulted_random(), 2);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.item_commits, b.item_commits);
    assert_eq!(a.item_vns, b.item_vns);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn faulted_scenario_exercises_the_abort_paths() {
    let r = run_txn(&faulted_random(), 1);
    assert!(r.stats.forced_aborts > 0, "{:?}", r.stats);
    assert!(r.stats.subtree_aborts > 0, "{:?}", r.stats);
    assert!(r.stats.compensations > 0, "{:?}", r.stats);
    assert!(r.stats.retries > 0, "{:?}", r.stats);
    assert!(r.stats.dropped_messages > 0, "{:?}", r.stats);
}

/// The faulted scenario's causal report under `CausalOptions::full()`:
/// every span tree — nested retry backoff, forced-abort dooms and
/// accesses abandoned after their retry budget included — is pinned, on
/// 1, 2 and 4 threads under both queues, beside the unobserved report.
#[test]
fn faulted_causal_digest_is_pinned_across_threads_and_queues() {
    let mut config = faulted_random();
    config.causal = CausalOptions::full();
    let plain = run_txn(&faulted_random(), 1);
    for queue in [QueueKind::Calendar, QueueKind::Heap] {
        config.queue = queue;
        for threads in [1usize, 2, 4] {
            let at = format!("{queue:?} at {threads} threads");
            let (report, causal) = run_txn_causal(&config, threads);
            assert_eq!(
                report.digest(),
                plain.digest(),
                "{at}: recording perturbed the run"
            );
            let p = causal.profile();
            assert!(
                p.edge(EdgeKind::RetryBackoff).count() > 0,
                "{at}: no retry backoff"
            );
            assert!(p.aborts(AbortCause::Forced) > 0, "{at}: no forced doom");
            assert!(report.stats.access_aborts > 0, "{at}: no abandoned access");
            assert_eq!(
                causal.digest(),
                0x2efe_8e05_f4ce_e46a,
                "{at}: causal digest drifted from its pinned constant (got {:#018x})",
                causal.digest()
            );
        }
    }
}
