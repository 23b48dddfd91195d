//! Criterion benches for the formal-model machinery: serial-system
//! execution, Theorem 10 projection and replay, return-order
//! serialization, and the Moss lock manager. These bound the cost of the
//! randomized checking behind experiments E1–E3.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nested_txn::{AccessKind, AccessSpec, BankingGen, ObjectId, Tid, TxnOp, Value, WorkloadKind};
use qc_bench::{contention_spec, figure1_spec};
use qc_cc::{run_concurrent, serialize_return_order, CcRunOptions, LockingObject};
use qc_replication::{
    build_system_a, check_commit_order_serializable, check_projection, check_trace, project_to_a,
    run_system_b, RunOptions,
};
use qc_sim::{run_traced, run_txn_committed, ContactPolicy, SimConfig, SimTime, TxnConfig};
use quorum::Majority;

fn bench_serial_execution(c: &mut Criterion) {
    let spec = figure1_spec();
    let mut g = c.benchmark_group("serial_system_b");
    g.bench_function("run_figure1_spec", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run_system_b(
                &spec,
                RunOptions {
                    seed,
                    check_wf: false,
                    check_lemmas: false,
                    ..RunOptions::default()
                },
            )
            .unwrap()
        })
    });
    g.bench_function("run_with_monitors", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run_system_b(
                &spec,
                RunOptions {
                    seed,
                    ..RunOptions::default()
                },
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_theorem10(c: &mut Criterion) {
    let spec = figure1_spec();
    let (beta, layout) = run_system_b(
        &spec,
        RunOptions {
            seed: 3,
            ..RunOptions::default()
        },
    )
    .unwrap();
    let mut g = c.benchmark_group("theorem10");
    g.bench_function("project", |b| {
        b.iter(|| project_to_a(&layout, std::hint::black_box(&beta)))
    });
    let alpha = project_to_a(&layout, &beta);
    g.bench_function("replay_alpha_on_a", |b| {
        let mut a = build_system_a(&spec, &layout);
        b.iter(|| a.system.replay(std::hint::black_box(&alpha)).unwrap())
    });
    g.bench_function("full_check", |b| {
        b.iter(|| check_projection(&spec, &layout, std::hint::black_box(&beta)).unwrap())
    });
    // The rows above replay the Figure-1 spec, a few dozen operations. This
    // one is the oracle at simulator scale: the host-cost benchmark's
    // checked workload (8 closed-loop clients, 50 % reads, Majority(5)) cut
    // to 2 simulated seconds, read per trace event.
    let mut config = SimConfig::new(Arc::new(Majority::new(5)));
    config.clients = 8;
    config.think_time = SimTime::ZERO;
    config.read_fraction = 0.5;
    config.contact = ContactPolicy::MinimalQuorum;
    config.duration = SimTime::from_secs(2);
    config.seed = 23;
    let quorum = Arc::clone(&config.quorum);
    let (_, trace) = run_traced(config);
    g.throughput(Throughput::Elements(trace.events.len() as u64));
    g.bench_function("check_trace_sim", |b| {
        b.iter(|| check_trace(std::hint::black_box(&trace), &*quorum).unwrap())
    });
    g.finish();
}

fn bench_theorem11_pipeline(c: &mut Criterion) {
    let spec = contention_spec(2, 3);
    let (gamma, ..) = run_concurrent(
        &spec,
        CcRunOptions {
            seed: 5,
            ..CcRunOptions::default()
        },
    )
    .unwrap();
    let mut g = c.benchmark_group("theorem11");
    g.bench_function("serialize_return_order", |b| {
        b.iter(|| serialize_return_order(std::hint::black_box(&gamma)).unwrap())
    });
    g.bench_function("run_concurrent", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run_concurrent(
                &spec,
                CcRunOptions {
                    seed,
                    ..CcRunOptions::default()
                },
            )
            .unwrap()
        })
    });
    // The rows above run the model-checking pipeline on a few dozen
    // operations. This one is the oracle at simulator scale: the host-cost
    // benchmark's nested workload (banking over 64 items, 16 domains of 4
    // closed-loop clients, Majority(3)) cut to 2 simulated seconds, read
    // per committed transaction.
    let mut config = TxnConfig::new(
        Arc::new(Majority::new(3)),
        WorkloadKind::Banking(BankingGen::new(4)),
    );
    config.items = 64;
    config.domains = 16;
    config.clients_per_domain = 4;
    config.duration = SimTime::from_secs(2);
    config.seed = 23;
    let (_, committed) = run_txn_committed(&config, 1);
    g.throughput(Throughput::Elements(committed.len() as u64));
    g.bench_function("commit_order_replay", |b| {
        b.iter(|| {
            check_commit_order_serializable(&|_| 0, std::hint::black_box(&committed)).unwrap()
        })
    });
    g.finish();
}

fn bench_lock_manager(c: &mut Criterion) {
    let mut g = c.benchmark_group("lock_manager");
    g.bench_function("grant_inherit_release_cycle", |b| {
        use ioa::Component as _;
        b.iter(|| {
            let mut o = LockingObject::new(ObjectId(0), "x", Value::Int(0));
            for user in 0..4u32 {
                let access = Tid::root().child(user).child(0).child(0);
                o.apply(&TxnOp::Create {
                    tid: access.clone(),
                    access: Some(AccessSpec {
                        object: ObjectId(0),
                        kind: AccessKind::Write,
                        data: Value::Int(i64::from(user)),
                    }),
                    param: None,
                })
                .unwrap();
                let grant = o.enabled_outputs().pop().unwrap();
                o.apply(&grant).unwrap();
                // Commit the chain up to the top level.
                let mut t = access;
                while !t.is_root() {
                    o.apply(&TxnOp::Commit {
                        tid: t.clone(),
                        value: Value::Nil,
                    })
                    .unwrap();
                    t = t.parent().unwrap();
                }
            }
            o
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_serial_execution,
    bench_theorem10,
    bench_theorem11_pipeline,
    bench_lock_manager
);
criterion_main!(benches);
