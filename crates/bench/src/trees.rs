//! F1/F2 — the paper's Figure 1 and Figure 2: transaction trees for the
//! replicated system **B** and the corresponding non-replicated system
//! **A**.
//!
//! The trees are extracted from an actual execution (the paper's figures
//! are schematic; ours are the real names that took steps), labelled the
//! same way: `U` = user transaction, `TM` = transaction manager, `a,b` =
//! non-replica accesses, `x1` = access to replica 1 of item `x`.

use std::collections::BTreeMap;

use nested_txn::{ObjectId, Tid, TxnOp};
use qc_replication::{project_to_a, run_system_b, Layout, RunOptions, TmRole};

use crate::cli::Flags;
use crate::figure1_spec;

fn label(
    tid: &Tid,
    layout: &Layout,
    plain_accesses: &BTreeMap<Tid, ObjectId>,
    system_a: bool,
) -> String {
    if tid.is_root() {
        return "T0 (root: the external environment)".into();
    }
    if let Some(role) = layout.tm_roles.get(tid) {
        let item = &layout.items[&role.item()].item.name;
        let kind = match role {
            TmRole::Read(_) => "read",
            TmRole::Write(_) => "write",
        };
        return if system_a {
            format!("{tid}  [{kind} access to O({item})]")
        } else {
            format!("{tid}  [{kind}-TM for {item}]")
        };
    }
    if let Some(parent) = tid.parent() {
        if let Some(role) = layout.tm_roles.get(&parent) {
            let item_layout = &layout.items[&role.item()];
            return format!("{tid}  [access to a replica of {}]", item_layout.item.name);
        }
    }
    if let Some(obj) = plain_accesses.get(tid) {
        let name = layout
            .plain_objects
            .iter()
            .find(|(o, _)| o == obj)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| obj.to_string());
        return format!("{tid}  [non-replica access to {name}]");
    }
    format!("{tid}  [user transaction]")
}

fn print_tree(
    tids: &[Tid],
    layout: &Layout,
    plain_accesses: &BTreeMap<Tid, ObjectId>,
    system_a: bool,
) {
    // Parent → children, in name order.
    let mut children: BTreeMap<Tid, Vec<Tid>> = BTreeMap::new();
    for t in tids {
        if let Some(p) = t.parent() {
            children.entry(p).or_default().push(t.clone());
        }
    }
    #[allow(clippy::too_many_arguments)]
    fn rec(
        t: &Tid,
        children: &BTreeMap<Tid, Vec<Tid>>,
        layout: &Layout,
        plain_accesses: &BTreeMap<Tid, ObjectId>,
        system_a: bool,
        prefix: &str,
        last: bool,
    ) {
        let connector = if t.is_root() {
            ""
        } else if last {
            "└── "
        } else {
            "├── "
        };
        println!(
            "{prefix}{connector}{}",
            label(t, layout, plain_accesses, system_a)
        );
        let next_prefix = if t.is_root() {
            String::new()
        } else if last {
            format!("{prefix}    ")
        } else {
            format!("{prefix}│   ")
        };
        if let Some(kids) = children.get(t) {
            for (i, k) in kids.iter().enumerate() {
                rec(
                    k,
                    children,
                    layout,
                    plain_accesses,
                    system_a,
                    &next_prefix,
                    i + 1 == kids.len(),
                );
            }
        }
    }
    rec(
        &Tid::root(),
        &children,
        layout,
        plain_accesses,
        system_a,
        "",
        true,
    );
}

fn tids_of(schedule: &ioa::Schedule<TxnOp>) -> Vec<Tid> {
    let mut tids: Vec<Tid> = schedule.iter().map(|op| op.tid().clone()).collect();
    tids.push(Tid::root());
    tids.sort();
    tids.dedup();
    tids
}

pub(crate) fn run(_: &Flags) -> Result<(), String> {
    let spec = figure1_spec();
    let (beta, layout) = run_system_b(
        &spec,
        RunOptions {
            seed: 4,
            abort_weight: 0,
            ..RunOptions::default()
        },
    )
    .expect("the Figure 1 system runs to completion at seed 4");

    // Plain (non-replica) accesses, identified by their carried specs.
    let plain_ids: Vec<ObjectId> = layout.plain_objects.iter().map(|(o, _)| *o).collect();
    let mut plain_accesses = BTreeMap::new();
    for op in beta.iter() {
        if let Some(spec) = op.access() {
            if plain_ids.contains(&spec.object) {
                plain_accesses.insert(op.tid().clone(), spec.object);
            }
        }
    }

    println!("=== Figure 1: transaction tree of the replicated system B ===\n");
    print_tree(&tids_of(&beta), &layout, &plain_accesses, false);

    let alpha = project_to_a(&layout, &beta);
    println!("\n=== Figure 2: corresponding tree of the non-replicated system A ===\n");
    print_tree(&tids_of(&alpha), &layout, &plain_accesses, true);

    println!(
        "\n(B: logical accesses are TMs whose children access individual replicas; \
         A: the same names are plain accesses to one object per item.)"
    );
    Ok(())
}
