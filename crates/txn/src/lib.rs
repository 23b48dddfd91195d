//! Nested transaction systems after Lynch–Merritt (paper §2.2).
//!
//! A *serial system* is the composition of:
//!
//! * a transaction automaton for each internal node of the transaction tree
//!   (here: [`TransactionNode`] driven by a [`TransactionProgram`], or any
//!   hand-written [`ioa::Component`] such as the transaction managers in
//!   `qc-replication`);
//! * a *basic object* for each element of the access partition `O` (here:
//!   [`ReadWriteObject`], which also serves as the paper's data manager);
//! * the fully-specified [`SerialScheduler`], which runs siblings one at a
//!   time in a depth-first traversal of the tree and may spontaneously abort
//!   requested-but-uncreated transactions.
//!
//! Transactions are named by tree paths ([`Tid`]); operations are the
//! five-fold vocabulary `REQUEST-CREATE` / `CREATE` / `REQUEST-COMMIT` /
//! `COMMIT` / `ABORT` ([`TxnOp`]); well-formedness of every primitive's
//! projection is defined in [`wf`] and enforceable at runtime via
//! [`SystemWfMonitor`].
//!
//! # Example: a minimal serial system
//!
//! One user transaction reads an object and commits with the value it read.
//!
//! ```
//! use ioa::{Executor, System};
//! use nested_txn::{
//!     AccessSpec, ChildRequest, ObjectId, ReadWriteObject, ScriptProgram, SerialScheduler,
//!     Tid, TransactionNode, TxnOp, Value,
//! };
//! use rand::SeedableRng;
//!
//! let root = Tid::root();
//! let user = root.child(0);
//! let object = ObjectId(0);
//!
//! let mut system: System<TxnOp> = System::new();
//! system.push(Box::new(SerialScheduler::new()));
//! system.push(Box::new(ReadWriteObject::new(object, "x", Value::Int(7))));
//! // The root requests the user transaction and never commits.
//! system.push(Box::new(TransactionNode::new(
//!     root.clone(),
//!     ScriptProgram::new(vec![nested_txn::ScriptStep::Run(vec![ChildRequest {
//!         index: 0,
//!         access: None,
//!         param: None,
//!     }])]),
//! )));
//! // The user transaction performs one read access, then commits.
//! system.push(Box::new(TransactionNode::new(
//!     user.clone(),
//!     ScriptProgram::sequential(
//!         vec![ChildRequest {
//!             index: 0,
//!             access: Some(AccessSpec::read(object)),
//!             param: None,
//!         }],
//!         Value::Nil,
//!     ),
//! )));
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let exec = Executor::new().run(&mut system, &mut rng)?;
//! assert!(exec.schedule().len() > 0);
//! # Ok::<(), ioa::IoaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod name_tree;
mod object;
mod op;
mod program;
mod scheduler;
mod tid;
mod value;
pub mod wf;
pub mod workload;

pub use object::{ReadWriteObject, RegisteredAccess};
pub use op::{AccessKind, AccessSpec, TxnOp};
pub use program::{
    ChildRequest, Effects, LeafProgram, Outcome, ScriptProgram, ScriptStep, TransactionNode,
    TransactionProgram,
};
pub use scheduler::SerialScheduler;
pub use tid::Tid;
pub use value::{ObjectId, Value};
pub use wf::{SystemWfMonitor, WfError};
pub use workload::{
    BankingGen, InventoryGen, ProgramNode, ProgramTree, RandomTreeGen, TreeStats, WorkloadKind,
};
