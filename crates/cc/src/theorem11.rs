//! Theorem 11, executable: combining the replication algorithm with a
//! concurrency-control algorithm that is serially correct at the copy
//! level yields a system serially correct at the logical-item level.
//!
//! The harness builds the concurrent system **C** — the *same* user
//! transactions and quorum-consensus TMs as system **B**, composed with the
//! [`ConcurrentScheduler`] and Moss-locking resilient objects — runs it
//! under random interleaving (with random deadlock-victim aborts), and then
//! checks both halves of the theorem:
//!
//! 1. **hypothesis** (provided by 2PL): the return-order serialization σ of
//!    γ replays on system **B**, and `γ|T = σ|T` for every non-orphan
//!    transaction;
//! 2. **conclusion** (Theorem 10 + 11): erasing replica accesses from σ
//!    yields a schedule of the non-replicated system **A**.

use std::error::Error;
use std::fmt;

use ioa::{Executor, IoaError, Schedule, WeightedPolicy};
use nested_txn::{ReadWriteObject, SystemWfMonitor, Tid, TxnOp, Value};
use qc_replication::{
    build_replicated_parts, build_system_b, check_projection, ops_of_transaction, Layout,
    SystemSpec, Theorem10Error,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::locking::{LockGranularity, LockingObject};
use crate::scheduler::ConcurrentScheduler;
use crate::serialize::{non_orphans, serialize_return_order, SerializeError};

/// Options for a concurrent run.
#[derive(Clone, Copy, Debug)]
pub struct CcRunOptions {
    /// RNG seed.
    pub seed: u64,
    /// Maximum steps.
    pub max_steps: usize,
    /// Relative weight of scheduler aborts (others weigh 100). Aborts are
    /// the deadlock-resolution mechanism: when a cycle blocks all other
    /// operations, only aborts remain enabled and one fires.
    pub abort_weight: u32,
    /// Lock granularity for the resilient objects.
    pub granularity: LockGranularity,
}

impl Default for CcRunOptions {
    fn default() -> Self {
        CcRunOptions {
            seed: 0,
            max_steps: 60_000,
            abort_weight: 1,
            granularity: LockGranularity::Nested,
        }
    }
}

/// Why a Theorem 11 check failed.
#[derive(Debug)]
pub enum Theorem11Error {
    /// The concurrent run itself failed (composition or monitor error).
    Run(IoaError),
    /// γ was not quiescent, so no return-order witness exists.
    Serialize(SerializeError),
    /// σ was refused by system **B** — the copy-level serializability
    /// hypothesis failed.
    HypothesisRefused(IoaError),
    /// `γ|T ≠ σ|T` for a non-orphan transaction.
    ProjectionMismatch {
        /// The transaction at which the projections differ.
        tid: Tid,
    },
    /// The Theorem 10 projection of σ was refused by system **A**.
    ConclusionRefused(Theorem10Error),
}

impl fmt::Display for Theorem11Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Theorem11Error::Run(e) => write!(f, "concurrent run failed: {e}"),
            Theorem11Error::Serialize(e) => write!(f, "serialization failed: {e}"),
            Theorem11Error::HypothesisRefused(e) => {
                write!(f, "σ is not a schedule of B: {e}")
            }
            Theorem11Error::ProjectionMismatch { tid } => {
                write!(f, "γ and σ differ at non-orphan {tid}")
            }
            Theorem11Error::ConclusionRefused(e) => {
                write!(f, "projection of σ is not a schedule of A: {e}")
            }
        }
    }
}

impl Error for Theorem11Error {}

/// Statistics from a successful Theorem 11 check.
#[derive(Clone, Debug)]
pub struct Theorem11Report {
    /// Length of the concurrent schedule γ.
    pub gamma_len: usize,
    /// Length of the serial witness σ.
    pub sigma_len: usize,
    /// Length of the non-replicated projection α.
    pub alpha_len: usize,
    /// Number of transactions aborted in γ (deadlock victims and
    /// spontaneous aborts).
    pub aborts: usize,
    /// Number of top-level user transactions that committed.
    pub users_committed: usize,
    /// Total lock conflicts observed across all objects.
    pub lock_conflicts: u64,
    /// Whether the run reached quiescence before the step bound.
    pub quiescent: bool,
    /// Non-orphan transactions whose projections were verified.
    pub non_orphans_checked: usize,
}

/// Build and run the concurrent system **C**, returning `(γ, layout,
/// lock-conflicts, quiescent)`.
///
/// # Errors
///
/// Composition errors or monitor violations.
pub fn run_concurrent(
    spec: &SystemSpec,
    opts: CcRunOptions,
) -> Result<(Schedule<TxnOp>, Layout, u64, bool), IoaError> {
    let (layout, nodes, tms) = build_replicated_parts(spec);
    let mut system: ioa::System<TxnOp> = ioa::System::new();
    system.push(Box::new(ConcurrentScheduler::new()));
    for (oid, name) in &layout.plain_objects {
        let init = &spec.plain[oid.0 as usize].init;
        system.push(Box::new(LockingObject::with_granularity(
            *oid,
            name.clone(),
            init.clone(),
            opts.granularity,
        )));
    }
    for il in layout.items.values() {
        for (r, oid) in il.dm_objects.iter().enumerate() {
            system.push(Box::new(LockingObject::with_granularity(
                *oid,
                il.dm_names[r].clone(),
                Value::versioned(0, il.item.init.clone()),
                opts.granularity,
            )));
        }
    }
    for n in nodes {
        system.push(n);
    }
    for tm in tms {
        system.push(tm);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let abort_weight = opts.abort_weight;
    let execution = Executor::new()
        .max_steps(opts.max_steps)
        .policy(WeightedPolicy::new(move |op: &TxnOp| match op {
            TxnOp::Abort { .. } => abort_weight,
            _ => 100,
        }))
        .monitor(SystemWfMonitor::transactions_only())
        .run(&mut system, &mut rng)?;
    let conflicts: u64 = system
        .components_as::<LockingObject>()
        .map(|(_, o)| o.conflicts())
        .sum();
    let quiescent = execution.is_quiescent();
    Ok((execution.into_schedule(), layout, conflicts, quiescent))
}

/// Run system **C** and check both halves of Theorem 11.
///
/// # Errors
///
/// [`Theorem11Error`] describing the first failed stage.
pub fn check_theorem11(
    spec: &SystemSpec,
    opts: CcRunOptions,
) -> Result<Theorem11Report, Theorem11Error> {
    let (gamma, layout, lock_conflicts, quiescent) =
        run_concurrent(spec, opts).map_err(Theorem11Error::Run)?;
    let sigma = serialize_return_order(&gamma).map_err(Theorem11Error::Serialize)?;

    // Hypothesis: σ is a schedule of B…
    let mut b = build_system_b(spec);
    b.system
        .replay(&sigma)
        .map_err(Theorem11Error::HypothesisRefused)?;
    // …agreeing with γ at every non-orphan transaction.
    let mut checked = 0;
    for tid in non_orphans(&gamma) {
        if layout.is_replica_access_op(&TxnOp::Abort { tid: tid.clone() }) {
            continue; // accesses are not transactions with automata
        }
        if ops_of_transaction(&tid, &gamma) != ops_of_transaction(&tid, &sigma) {
            return Err(Theorem11Error::ProjectionMismatch { tid });
        }
        checked += 1;
    }

    // Conclusion: the Theorem 10 projection of σ is a schedule of A.
    let t10 = check_projection(spec, &layout, &sigma).map_err(Theorem11Error::ConclusionRefused)?;

    let aborts = gamma
        .iter()
        .filter(|op| matches!(op, TxnOp::Abort { .. }))
        .count();
    let users_committed = gamma
        .iter()
        .filter(|op| matches!(op, TxnOp::Commit { tid, .. } if tid.depth() == 1))
        .count();
    Ok(Theorem11Report {
        gamma_len: gamma.len(),
        sigma_len: sigma.len(),
        alpha_len: t10.a_len,
        aborts,
        users_committed,
        lock_conflicts,
        quiescent,
        non_orphans_checked: checked,
    })
}

/// A sanity check used by tests: replaying σ on **B** leaves the DM states
/// consistent with γ's committed effects (exposed for integration tests).
pub fn final_dm_values(spec: &SystemSpec, sigma: &Schedule<TxnOp>) -> Vec<(String, Value)> {
    let mut b = build_system_b(spec);
    if b.system.replay(sigma).is_err() {
        return Vec::new();
    }
    b.system
        .components_as::<ReadWriteObject>()
        .map(|(name, o)| (name, o.data().clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_replication::{ConfigChoice, ItemSpec, PlainObjectSpec, TmStrategy, UserSpec, UserStep};

    fn spec(users: usize) -> SystemSpec {
        let mut u = Vec::new();
        for k in 0..users {
            u.push(UserSpec::new(vec![
                UserStep::Write(0, Value::Int(100 + k as i64)),
                UserStep::Read(0),
                UserStep::Write(1, Value::Int(200 + k as i64)),
                UserStep::Read(1),
            ]));
        }
        SystemSpec {
            items: vec![
                ItemSpec {
                    name: "x".into(),
                    init: Value::Int(0),
                    replicas: 3,
                    config: ConfigChoice::Majority,
                },
                ItemSpec {
                    name: "y".into(),
                    init: Value::Int(0),
                    replicas: 2,
                    config: ConfigChoice::Rowa,
                },
            ],
            plain: vec![PlainObjectSpec {
                name: "p".into(),
                init: Value::Int(0),
            }],
            users: u,
            strategy: TmStrategy::Eager,
        }
    }

    #[test]
    fn theorem11_holds_two_users() {
        let mut any_conflict = false;
        for seed in 0..12 {
            let report = check_theorem11(
                &spec(2),
                CcRunOptions {
                    seed,
                    ..CcRunOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            any_conflict |= report.lock_conflicts > 0;
            assert!(report.quiescent, "seed {seed} did not quiesce");
        }
        assert!(
            any_conflict,
            "expected at least one genuine lock conflict across seeds"
        );
    }

    #[test]
    fn theorem11_holds_three_users_high_contention() {
        for seed in 0..6 {
            let report = check_theorem11(
                &spec(3),
                CcRunOptions {
                    seed,
                    max_steps: 120_000,
                    ..CcRunOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(report.sigma_len <= report.gamma_len);
        }
    }

    #[test]
    fn theorem11_with_nested_users() {
        let s = SystemSpec {
            items: vec![ItemSpec {
                name: "x".into(),
                init: Value::Int(0),
                replicas: 3,
                config: ConfigChoice::Majority,
            }],
            plain: vec![],
            users: vec![
                UserSpec::new(vec![
                    UserStep::Sub(UserSpec::new(vec![UserStep::Write(0, Value::Int(1))])),
                    UserStep::Read(0),
                ]),
                UserSpec::new(vec![UserStep::Read(0)]),
            ],
            strategy: TmStrategy::Eager,
        };
        for seed in 0..8 {
            check_theorem11(
                &s,
                CcRunOptions {
                    seed,
                    ..CcRunOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn theorem11_with_coarse_locking() {
        use crate::locking::LockGranularity;
        for seed in 0..6 {
            let report = check_theorem11(
                &spec(2),
                CcRunOptions {
                    seed,
                    granularity: LockGranularity::TopLevelExclusive,
                    max_steps: 150_000,
                    ..CcRunOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(report.quiescent, "seed {seed} did not quiesce");
        }
    }

    #[test]
    fn theorem11_with_heavier_aborts() {
        for seed in 0..6 {
            let report = check_theorem11(
                &spec(2),
                CcRunOptions {
                    seed,
                    abort_weight: 8,
                    max_steps: 120_000,
                    ..CcRunOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(report.aborts > 0 || report.users_committed == 2);
        }
    }
}
