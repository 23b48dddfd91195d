//! `qc-exp` refuses malformed input before running anything: an unknown
//! experiment, a flag the experiment does not accept, a flag with no value
//! and a value that does not parse each exit 2 with a message on stderr
//! and nothing on stdout — never a panic (101), and never a silent run of
//! something other than what was asked.

use std::process::Command;

fn refused(args: &[&str], says: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_qc-exp"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn qc-exp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "qc-exp {args:?}: {stderr}");
    assert!(
        stderr.contains(says),
        "qc-exp {args:?}: {stderr:?} does not say {says:?}"
    );
    assert!(
        out.stdout.is_empty(),
        "qc-exp {args:?} printed before refusing"
    );
}

#[test]
fn an_unknown_experiment_is_refused_with_the_list() {
    refused(&["exp_cost"], "unknown experiment \"exp_cost\"");
    refused(&[], "usage: qc-exp <name> [flags]");
}

#[test]
fn a_flag_the_experiment_ignores_is_refused() {
    refused(
        &["cost", "--seed", "5"],
        "unknown flag \"--seed\"; accepted: none",
    );
    refused(
        &["txn", "--smoke", "--zipf", "0.9"],
        "unknown flag \"--zipf\"",
    );
}

#[test]
fn a_malformed_value_is_refused() {
    refused(
        &["shard_scaling", "--secs", "abc"],
        "invalid --secs \"abc\"",
    );
    refused(
        &["obs", "--smoke", "--snapshot-every", "-1"],
        "invalid --snapshot-every \"-1\"",
    );
    refused(&["faults", "--faults", "crash@"], "invalid --faults");
}

#[test]
fn a_flag_with_no_value_is_refused() {
    refused(&["txn", "--seed"], "--seed needs a value");
    refused(&["critpath", "--secs", "--smoke"], "--secs needs a value");
    refused(&["txn", "--smoke", "--smoke"], "--smoke given twice");
}
