//! Host-cost benchmark for the three simulator drivers and the paper
//! oracles (Lemma 7/8 monitor, Theorem 10 replay, Theorem 11 commit
//! order).
//!
//! Goldman–Lynch has no evaluation section; what the users of this
//! repository pay is host time and memory per committed, *checked*
//! operation. Simulated-clock results are the model's output: they repeat
//! bit for bit, so they are checked for identity (`model.*`), and only
//! what the simulator costs is measured. See `README.md` beside this
//! crate for the metric and workload definitions.
//!
//! Two binaries share this library: `qcbench` (the timed pass: system
//! allocator, no spans) and `qcbench-trace` (the traced pass: spans,
//! interleaved ablation arms, kernels, counting allocator).

#![warn(missing_docs)]

pub mod host;
pub mod kernels;
pub mod registry;
pub mod spans;
pub mod stats;
pub mod workloads;

use workloads::{Variant, WorkloadId};

/// Command-line arguments shared by the two binaries.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// `--workload NAME`.
    pub workload: WorkloadId,
    /// `--seed N` (default 23): the only source of the workload's inputs.
    pub seed: u64,
    /// `--seconds S`: how long the timed region lasts.
    pub seconds: f64,
    /// `--trace 0|1`: which pass the caller asked for.
    pub trace: bool,
    /// `--variant none|obs_full|frozen` (selftest only).
    pub variant: Variant,
    /// `--sim-scale K`: simulated duration multiplier (selftest only).
    pub sim_scale: u64,
    /// `--out-dir DIR`: where the traced pass writes its span file.
    pub out_dir: String,
    /// `--timed-wall-ns X`: the timed pass's `wall_ns_per_commit`, from
    /// which the traced pass reports its own overhead.
    pub timed_wall_ns: Option<f64>,
}

impl Args {
    /// Parse `args` (without the program name).
    ///
    /// # Errors
    ///
    /// A usage message naming the offending argument.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut out = Args {
            workload: WorkloadId::SingleRead90,
            seed: 23,
            seconds: f64::from(registry::RUN_SECONDS),
            trace: false,
            variant: Variant::None,
            sim_scale: 1,
            out_dir: "benchmark/out".into(),
            timed_wall_ns: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(WorkloadId::from_name(value).ok_or_else(|| {
                        let names: Vec<_> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
                        bad(&format!("no such workload (have: {})", names.join(", ")))
                    })?);
                }
                "--seed" => out.seed = value.parse().map_err(|_| bad("not a whole number"))?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad("not a number"))?;
                    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                        return Err(bad("must be in (0, 60]"));
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    }
                }
                "--variant" => {
                    out.variant =
                        Variant::from_name(value).ok_or_else(|| bad("none | obs_full | frozen"))?;
                }
                "--sim-scale" => {
                    out.sim_scale = value.parse().map_err(|_| bad("not a whole number"))?;
                    if !(1..=8).contains(&out.sim_scale) {
                        return Err(bad("must be in 1..=8"));
                    }
                }
                "--out-dir" => out.out_dir = value.clone(),
                "--timed-wall-ns" => {
                    let v: f64 = value.parse().map_err(|_| bad("not a number"))?;
                    if !(v.is_finite() && v > 0.0) {
                        return Err(bad("must be positive"));
                    }
                    out.timed_wall_ns = Some(v);
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        out.workload = workload.ok_or("--workload NAME is required")?;
        Ok(out)
    }
}

/// Refuse to measure an unoptimized build: every number would be wrong by
/// an order of magnitude and look plausible.
///
/// # Errors
///
/// Always, in a build with debug assertions.
pub fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        Err("this is a debug build; measure only `cargo build --release` (run.sh does)".into())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let v: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&v)
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a =
            parse("--workload txn_banking_t11 --seed 7 --seconds 16 --trace 1").expect("parses");
        assert_eq!(a.workload, WorkloadId::TxnBankingT11);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 16.0, true));
        assert_eq!(
            (a.variant, a.sim_scale, a.timed_wall_ns),
            (Variant::None, 1, None)
        );
        let d = parse("--workload single_read90").expect("parses");
        assert_eq!((d.seed, d.trace), (23, false));
    }

    #[test]
    fn malformed_command_lines_are_errors_not_panics() {
        for bad in [
            "",
            "--seed 3",
            "--workload nope",
            "--workload single_read90 --seed x",
            "--workload single_read90 --seconds 0",
            "--workload single_read90 --seconds 61",
            "--workload single_read90 --trace 2",
            "--workload single_read90 --variant fast",
            "--workload single_read90 --sim-scale 0",
            "--workload single_read90 --timed-wall-ns -1",
            "--workload single_read90 --bogus 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be refused");
        }
    }
}
