//! `qc-exp <name> [flags]` — run one experiment of `EXPERIMENTS.md`. It
//! prints its table to stdout and may write files under `results/`; a
//! usage error prints a message to stderr and exits 2.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match qc_bench::qc_exp(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qc-exp: {e}");
            ExitCode::from(2)
        }
    }
}
