//! Constructing the witness serial schedule σ from a concurrent schedule γ.
//!
//! *Serial correctness* (paper §2.2): γ is serially correct with respect to
//! serial system **S** for transaction `T` when `γ|T = σ|T` for some
//! schedule σ of **S**. This module builds the natural candidate σ: the
//! depth-first linearisation of γ in *return order* — each child's entire
//! subtree is inlined immediately before its `COMMIT`, and aborted children
//! appear as bare `ABORT`s (the serial meaning of abort is "never ran").
//! Under two-phase locking with lock inheritance, return order is an
//! equivalent serial order, so replaying σ on system **B** should succeed;
//! a refusal refutes the combination of the concurrency-control and
//! replication algorithms.

use std::collections::BTreeMap;

use ioa::Schedule;
use nested_txn::{Tid, TxnOp};

/// Why σ could not be constructed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SerializeError {
    /// A non-orphan transaction never returned: γ must be quiescent (every
    /// created transaction returned) for the return-order witness to exist.
    Incomplete {
        /// The unfinished transaction.
        tid: Tid,
    },
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Incomplete { tid } => {
                write!(f, "transaction {tid} did not return; γ is not quiescent")
            }
        }
    }
}

impl std::error::Error for SerializeError {}

/// Per-transaction event list: the operations of `γ|T`, in order.
fn buckets(gamma: &Schedule<TxnOp>) -> BTreeMap<Tid, Vec<TxnOp>> {
    let mut map: BTreeMap<Tid, Vec<TxnOp>> = BTreeMap::new();
    for op in gamma.iter() {
        let owner = match op {
            // CREATE and REQUEST-COMMIT are operations of the named
            // transaction (or its object, for accesses — same bucket).
            TxnOp::Create { tid, .. } | TxnOp::RequestCommit { tid, .. } => tid.clone(),
            // REQUEST-CREATE and returns are operations of the parent.
            TxnOp::RequestCreate { tid, .. } | TxnOp::Commit { tid, .. } | TxnOp::Abort { tid } => {
                tid.parent().expect("root has no requests or returns")
            }
        };
        map.entry(owner).or_default().push(op.clone());
    }
    map
}

/// Build σ from a *quiescent* concurrent schedule γ.
///
/// By construction `σ|T = γ|T` for every transaction that is inlined —
/// exactly the non-orphans (aborted subtrees are represented by their
/// `ABORT` alone).
///
/// # Errors
///
/// [`SerializeError::Incomplete`] if some created, non-aborted transaction
/// has not returned (its subtree cannot be serialised).
pub fn serialize_return_order(gamma: &Schedule<TxnOp>) -> Result<Schedule<TxnOp>, SerializeError> {
    let buckets = buckets(gamma);
    let mut out = Vec::new();
    emit(&Tid::root(), &buckets, &mut out)?;
    Ok(out.into())
}

fn emit(
    tid: &Tid,
    buckets: &BTreeMap<Tid, Vec<TxnOp>>,
    out: &mut Vec<TxnOp>,
) -> Result<(), SerializeError> {
    let Some(ops) = buckets.get(tid) else {
        return Ok(()); // requested but never created and never aborted
    };
    for op in ops {
        match op {
            TxnOp::Create { .. } | TxnOp::RequestCreate { .. } | TxnOp::RequestCommit { .. } => {
                out.push(op.clone())
            }
            TxnOp::Commit { tid: child, .. } => {
                emit(child, buckets, out)?;
                out.push(op.clone());
            }
            TxnOp::Abort { .. } => out.push(op.clone()),
        }
    }
    // Quiescence check: every child this transaction created must have
    // returned (otherwise its CREATE is stranded outside σ).
    let requested: Vec<&Tid> = ops
        .iter()
        .filter_map(|op| match op {
            TxnOp::RequestCreate { tid, .. } => Some(tid),
            _ => None,
        })
        .collect();
    for child in requested {
        let returned = ops.iter().any(|op| op.is_return_for(child));
        let created = buckets.contains_key(child);
        if created && !returned {
            return Err(SerializeError::Incomplete { tid: child.clone() });
        }
    }
    Ok(())
}

/// The non-orphan transactions of γ: those with no aborted ancestor.
pub fn non_orphans(gamma: &Schedule<TxnOp>) -> Vec<Tid> {
    let aborted: Vec<Tid> = gamma
        .iter()
        .filter_map(|op| match op {
            TxnOp::Abort { tid } => Some(tid.clone()),
            _ => None,
        })
        .collect();
    let mut tids: Vec<Tid> = buckets(gamma).into_keys().collect();
    tids.retain(|t| !aborted.iter().any(|a| a.is_ancestor_of(t)));
    tids
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_txn::Value;

    fn t(path: &[u32]) -> Tid {
        Tid::from_path(path)
    }

    fn create(path: &[u32]) -> TxnOp {
        TxnOp::Create {
            tid: t(path),
            access: None,
            param: None,
        }
    }

    fn rc(path: &[u32], v: i64) -> TxnOp {
        TxnOp::RequestCommit {
            tid: t(path),
            value: Value::Int(v),
        }
    }

    fn commit(path: &[u32], v: i64) -> TxnOp {
        TxnOp::Commit {
            tid: t(path),
            value: Value::Int(v),
        }
    }

    #[test]
    fn interleaved_siblings_are_serialised_by_return_order() {
        // Two children of the root, interleaved; T0.1 returns first.
        let gamma: Schedule<TxnOp> = vec![
            create(&[]),
            TxnOp::request_create(t(&[0])),
            TxnOp::request_create(t(&[1])),
            create(&[0]),
            create(&[1]),
            rc(&[1], 11),
            commit(&[1], 11),
            rc(&[0], 10),
            commit(&[0], 10),
        ]
        .into();
        let sigma = serialize_return_order(&gamma).unwrap();
        let ops = sigma.as_slice();
        // σ: root created, both requests, then T0.1's subtree + commit,
        // then T0.0's subtree + commit.
        assert_eq!(ops[0], create(&[]));
        let pos = |needle: &TxnOp| ops.iter().position(|o| o == needle).unwrap();
        assert!(pos(&create(&[1])) < pos(&commit(&[1], 11)));
        assert!(pos(&commit(&[1], 11)) < pos(&create(&[0])));
        assert!(pos(&create(&[0])) < pos(&commit(&[0], 10)));
        assert_eq!(ops.len(), gamma.len());
    }

    #[test]
    fn aborted_subtree_is_erased() {
        let gamma: Schedule<TxnOp> = vec![
            create(&[]),
            TxnOp::request_create(t(&[0])),
            create(&[0]),
            TxnOp::request_create(t(&[0, 0])),
            create(&[0, 0]),
            TxnOp::Abort { tid: t(&[0]) },
        ]
        .into();
        let sigma = serialize_return_order(&gamma).unwrap();
        // T0.0's CREATE and its child ops vanish; only the ABORT remains.
        assert_eq!(
            sigma.as_slice(),
            &[
                create(&[]),
                TxnOp::request_create(t(&[0])),
                TxnOp::Abort { tid: t(&[0]) },
            ]
        );
    }

    #[test]
    fn incomplete_run_is_rejected() {
        let gamma: Schedule<TxnOp> =
            vec![create(&[]), TxnOp::request_create(t(&[0])), create(&[0])].into();
        let err = serialize_return_order(&gamma).unwrap_err();
        assert_eq!(err, SerializeError::Incomplete { tid: t(&[0]) });
    }

    #[test]
    fn projections_preserved_for_non_orphans() {
        let gamma: Schedule<TxnOp> = vec![
            create(&[]),
            TxnOp::request_create(t(&[0])),
            TxnOp::request_create(t(&[1])),
            create(&[1]),
            create(&[0]),
            rc(&[0], 1),
            commit(&[0], 1),
            rc(&[1], 2),
            commit(&[1], 2),
        ]
        .into();
        let sigma = serialize_return_order(&gamma).unwrap();
        for tid in non_orphans(&gamma) {
            let gp = qc_replication::ops_of_transaction(&tid, &gamma);
            let sp = qc_replication::ops_of_transaction(&tid, &sigma);
            assert_eq!(gp, sp, "projection differs at {tid}");
        }
    }

    #[test]
    fn never_created_requests_are_kept_dangling() {
        // A request with neither CREATE nor return: allowed (γ may end
        // while the request is still outstanding at the scheduler).
        let gamma: Schedule<TxnOp> = vec![create(&[]), TxnOp::request_create(t(&[0]))].into();
        let sigma = serialize_return_order(&gamma).unwrap();
        assert_eq!(sigma.len(), 2);
    }
}
