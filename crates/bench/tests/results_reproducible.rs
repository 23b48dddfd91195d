//! An experiment's output is a function of its flags and seed, not of the
//! machine: the same binary run from two working directories, on one
//! worker thread and on two, prints the same bytes and writes the same
//! files under `results/`. `scripts/tier1.sh` checks this for every
//! experiment leg in a release build; this is the same check on the two
//! cheapest binaries, so `cargo test` alone catches a wall-clock reading
//! or a thread count that leaks into a result.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Run `exe` from a fresh directory `tag` and return its stdout and every
/// file it wrote under `results/`, keyed by file name.
fn outputs(exe: &str, tag: &str, threads: &str) -> BTreeMap<PathBuf, Vec<u8>> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch working directory");
    let out = Command::new(exe)
        .args(["--smoke", "--threads", threads])
        .current_dir(&dir)
        .output()
        .expect("spawn the experiment binary");
    assert!(
        out.status.success(),
        "{exe} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut found = BTreeMap::from([(PathBuf::from("<stdout>"), out.stdout)]);
    for entry in std::fs::read_dir(dir.join("results")).expect("the binary writes results/") {
        let path = entry.expect("directory entry").path();
        let bytes = std::fs::read(&path).expect("read a result");
        found.insert(path.file_name().expect("a file").into(), bytes);
    }
    found
}

fn assert_reproducible(exe: &str, name: &str, written: &[&str]) {
    let a = outputs(exe, &format!("{name}-1-thread"), "1");
    let b = outputs(exe, &format!("{name}-2-threads"), "2");
    for file in written {
        assert!(
            a.contains_key(Path::new(file)),
            "{name} did not write {file}"
        );
    }
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{name}: the two runs wrote different sets of files"
    );
    for (path, bytes) in &a {
        assert!(
            *bytes == b[path],
            "{name}: {} differs between a 1-thread and a 2-thread run:\n{}\n--- vs ---\n{}",
            path.display(),
            String::from_utf8_lossy(bytes),
            String::from_utf8_lossy(&b[path])
        );
    }
}

#[test]
fn exp_txn_smoke_is_a_function_of_its_flags() {
    assert_reproducible(
        env!("CARGO_BIN_EXE_exp_txn"),
        "exp_txn",
        &["BENCH_txn.json"],
    );
}

#[test]
fn exp_critpath_smoke_is_a_function_of_its_flags() {
    assert_reproducible(
        env!("CARGO_BIN_EXE_exp_critpath"),
        "exp_critpath",
        &["BENCH_critpath.json", "critpath_slowest.jsonl"],
    );
}
