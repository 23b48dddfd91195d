//! The one flag parser every experiment reads its options through.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// The only flag that takes no value.
const SMOKE: &str = "--smoke";

/// An experiment's command-line flags, checked against the ones it
/// accepts: `--smoke` is a switch, every other flag takes one value.
/// Experiments parse the values before they print anything, so a
/// malformed one is an `Err` naming the flag, never a panic mid-run.
pub(crate) struct Flags {
    accepted: &'static str,
    given: BTreeMap<&'static str, String>,
}

impl Flags {
    /// Check `args` against `accepted` (space-separated flag names): an
    /// argument it does not name, a repeated flag or a missing value is an
    /// `Err`.
    pub(crate) fn parse(accepted: &'static str, args: &[String]) -> Result<Flags, String> {
        let mut given = BTreeMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(flag) = accepted.split_whitespace().find(|&f| f == arg) else {
                let accepted = if accepted.is_empty() {
                    "none"
                } else {
                    accepted
                };
                return Err(format!("unknown flag {arg:?}; accepted: {accepted}"));
            };
            let value = if flag == SMOKE {
                String::new()
            } else {
                match args.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err(format!("{flag} needs a value")),
                }
            };
            if given.insert(flag, value).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        Ok(Flags { accepted, given })
    }

    fn raw(&self, flag: &str) -> Option<&str> {
        let accepted = self.accepted.split_whitespace().any(|f| f == flag);
        assert!(accepted, "{flag} is read but not accepted");
        self.given.get(flag).map(String::as_str)
    }

    /// Whether the `--smoke` switch was given.
    pub(crate) fn smoke(&self) -> bool {
        self.raw(SMOKE).is_some()
    }

    /// `flag`'s value run through `parse`, if the flag was given.
    pub(crate) fn get_with<T, E: Display>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        self.raw(flag)
            .map(|v| parse(v).map_err(|e| format!("invalid {flag} {v:?}: {e}")))
            .transpose()
    }

    /// `flag`'s value parsed as a `T`, if the flag was given.
    pub(crate) fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.get_with(flag, str::parse)
    }

    /// `flag`'s value as a directory, created (with its parents) when read:
    /// a path naming a file is an `Err` naming the flag, not a panic mid-run.
    /// Read it after the other flags, so that a refused run makes no directory.
    pub(crate) fn dir(&self, flag: &str) -> Result<Option<PathBuf>, String> {
        self.get_with(flag, |d| std::fs::create_dir_all(d).map(|()| d.into()))
    }

    /// `--threads`, or every core.
    pub(crate) fn threads(&self) -> Result<usize, String> {
        Ok(self
            .get("--threads")?
            .unwrap_or_else(qc_sim::default_threads))
    }
}

/// Parsed observability flags shared by the experiments: `--obs-dir DIR`
/// turns on the full instrumentation (per-phase spans + structured event
/// log + periodic snapshots) and dumps the recordings under DIR;
/// `--snapshot-every SECS` sets the snapshot period in *simulated* seconds
/// (implies instrumentation even without a dir).
pub(crate) struct ObsFlags {
    /// Dump directory (`--obs-dir`), created when the flag is read.
    dir: Option<PathBuf>,
    /// Snapshot period in simulated seconds (`--snapshot-every`).
    every_secs: Option<f64>,
}

impl ObsFlags {
    /// Read `--obs-dir` / `--snapshot-every` and create the dump directory:
    /// a period that is not a positive number is an `Err`.
    pub(crate) fn new(flags: &Flags) -> Result<ObsFlags, String> {
        let every_secs = flags.get_with("--snapshot-every", |s| match s.parse::<f64>() {
            Ok(v) if v > 0.0 => Ok(v),
            _ => Err("takes a positive number of seconds"),
        })?;
        let dir = flags.dir("--obs-dir")?;
        Ok(ObsFlags { dir, every_secs })
    }

    /// Whether any observability output was requested.
    pub(crate) fn enabled(&self) -> bool {
        self.dir.is_some() || self.every_secs.is_some()
    }

    /// The [`qc_sim::ObsOptions`] these flags imply: disabled when neither
    /// flag was given, otherwise spans + full event log + snapshots every
    /// `--snapshot-every` (default 1) simulated seconds.
    pub(crate) fn options(&self) -> qc_sim::ObsOptions {
        if !self.enabled() {
            return qc_sim::ObsOptions::disabled();
        }
        let mut o = qc_sim::ObsOptions::full();
        if let Some(secs) = self.every_secs {
            o.snapshot_every_us = Some((secs * 1e6) as u64);
        }
        o
    }

    /// Write `obs` under `--obs-dir` as `<stem>.events.jsonl` and
    /// `<stem>.snapshots.json`; no-op when the flag is absent.
    pub(crate) fn dump(&self, stem: &str, obs: &qc_sim::ObsReport) {
        let Some(dir) = &self.dir else { return };
        let events = dir.join(format!("{stem}.events.jsonl"));
        std::fs::write(&events, obs.events_jsonl()).expect("write events jsonl");
        let snaps = dir.join(format!("{stem}.snapshots.json"));
        std::fs::write(&snaps, obs.snapshots_json()).expect("write snapshots json");
        println!(
            "obs: {} ({} events, {} snapshots) + {}",
            events.display(),
            obs.events.len(),
            obs.snapshots.len(),
            snaps.display()
        );
    }
}
