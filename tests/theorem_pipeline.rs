//! Cross-crate integration: the paper's full theorem pipeline on randomly
//! generated systems — Theorem 10 (serial replicated → serial
//! non-replicated), Lemmas 7–8 (monitored), Theorem 11 (concurrent 2PL →
//! logical serializability), and the §4 reconfiguration analogue.

use proptest::prelude::*;
use qcnt::cc::{check_theorem11, CcRunOptions};
use qcnt::reconfig::{check_rc_random, RcItemSpec, RcRunOptions, RcSystemSpec};
use qcnt::replication::{check_random, random_spec, GenParams, RunOptions, UserSpec, UserStep};
use qcnt::txn::Value;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Theorem 10 over arbitrary generated system shapes and schedules.
    #[test]
    fn theorem10_on_generated_systems(gen_seed in 0u64..10_000, run_seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(gen_seed);
        let spec = random_spec(&mut rng, &GenParams::default());
        let report = check_random(
            &spec,
            RunOptions {
                seed: run_seed,
                max_steps: 12_000,
                ..RunOptions::default()
            },
        );
        prop_assert!(report.is_ok(), "refuted: {:?}", report.err().map(|e| e.to_string()));
    }

    /// Theorem 10 under extreme abort pressure.
    #[test]
    fn theorem10_under_abort_pressure(gen_seed in 0u64..10_000, weight in 20u32..100) {
        let mut rng = ChaCha8Rng::seed_from_u64(gen_seed);
        let spec = random_spec(&mut rng, &GenParams::default());
        let report = check_random(
            &spec,
            RunOptions {
                seed: gen_seed,
                abort_weight: weight,
                max_steps: 12_000,
                ..RunOptions::default()
            },
        );
        prop_assert!(report.is_ok(), "refuted: {:?}", report.err().map(|e| e.to_string()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Theorem 11 on generated concurrent systems (bounded shapes so the
    /// concurrent runs quiesce quickly).
    #[test]
    fn theorem11_on_generated_systems(gen_seed in 0u64..10_000, run_seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(gen_seed);
        let spec = random_spec(
            &mut rng,
            &GenParams {
                items: (1, 2),
                replicas: (1, 3),
                users: (1, 3),
                ops_per_user: (1, 3),
                max_depth: 1,
                sub_probability: 0.2,
                write_probability: 0.5,
                with_plain: false,
            },
        );
        let report = check_theorem11(
            &spec,
            CcRunOptions {
                seed: run_seed,
                abort_weight: 1,
                max_steps: 150_000,
                ..CcRunOptions::default()
            },
        );
        prop_assert!(report.is_ok(), "refuted: {:?}", report.err().map(|e| e.to_string()));
    }
}

#[test]
fn reconfiguration_pipeline_over_seeds() {
    let u: Vec<usize> = (0..3).collect();
    let spec = RcSystemSpec {
        items: vec![RcItemSpec {
            name: "x".into(),
            init: Value::Int(0),
            replicas: 3,
            initial_config: qcnt::quorum::generators::majority(&u),
            alt_configs: vec![qcnt::quorum::generators::rowa(&u)],
        }],
        users: vec![
            UserSpec::new(vec![UserStep::Write(0, Value::Int(1)), UserStep::Read(0)]),
            UserSpec::new(vec![UserStep::Read(0)]),
        ],
        max_reconfigs_per_user: 2,
    };
    let mut reconfigs = 0;
    for seed in 0..10 {
        let r = check_rc_random(
            &spec,
            RcRunOptions {
                seed,
                ..RcRunOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        reconfigs += r.reconfigs_committed;
    }
    assert!(reconfigs > 0, "spies never reconfigured across ten seeds");
}

#[test]
fn deep_nesting_pipeline() {
    // Four levels of user nesting over one item, checked through both the
    // serial and the concurrent pipelines.
    let deep = UserSpec::new(vec![UserStep::Sub(UserSpec::new(vec![
        UserStep::Write(0, Value::Int(1)),
        UserStep::Sub(UserSpec::new(vec![
            UserStep::Read(0),
            UserStep::Sub(UserSpec::new(vec![UserStep::Write(0, Value::Int(2))])),
        ])),
        UserStep::Read(0),
    ]))]);
    let spec = qcnt::replication::SystemSpec {
        items: vec![qcnt::replication::ItemSpec {
            name: "x".into(),
            init: Value::Int(0),
            replicas: 3,
            config: qcnt::replication::ConfigChoice::Majority,
        }],
        plain: vec![],
        users: vec![deep, UserSpec::new(vec![UserStep::Read(0)])],
        strategy: Default::default(),
    };
    for seed in 0..6 {
        check_random(
            &spec,
            RunOptions {
                seed,
                ..RunOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("theorem 10, seed {seed}: {e}"));
        check_theorem11(
            &spec,
            CcRunOptions {
                seed,
                ..CcRunOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("theorem 11, seed {seed}: {e}"));
    }
}

#[test]
fn single_replica_degenerates_to_single_copy() {
    // With one replica and ROWA, system B is "trivially replicated": every
    // logical op touches the single DM; the projection must still replay.
    let spec = qcnt::replication::SystemSpec {
        items: vec![qcnt::replication::ItemSpec {
            name: "x".into(),
            init: Value::Int(7),
            replicas: 1,
            config: qcnt::replication::ConfigChoice::Rowa,
        }],
        plain: vec![],
        users: vec![UserSpec::new(vec![
            UserStep::Read(0),
            UserStep::Write(0, Value::Int(8)),
            UserStep::Read(0),
        ])],
        strategy: Default::default(),
    };
    for seed in 0..5 {
        let r = check_random(
            &spec,
            RunOptions {
                seed,
                ..RunOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(r.b_len >= r.a_len);
    }
}
