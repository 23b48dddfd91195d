//! Correctness checking for the reconfigurable algorithm: generation- and
//! version-number invariants, plus the §4 analogue of Theorem 10.

use std::collections::BTreeMap;

use ioa::{Executor, IoaError, Monitor, Schedule, System, WeightedPolicy};
use nested_txn::{AccessKind, ObjectId, SystemWfMonitor, Tid, TxnOp, Value};
use qc_replication::{ItemId, TmRole};
use quorum::Configuration;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::dm::{parse_config_write, parse_value_write, RcDm};
use crate::spec::{
    build_system_a_rc, build_system_rc, wf_monitor_for_a_rc, RcLayout, RcSystemSpec,
};
use crate::spy::SPY_CHILD_BASE;

/// Options for a randomized run of the reconfigurable system.
#[derive(Clone, Copy, Debug)]
pub struct RcRunOptions {
    /// RNG seed.
    pub seed: u64,
    /// Maximum steps.
    pub max_steps: usize,
    /// Relative weight of spontaneous aborts (others weigh 100).
    pub abort_weight: u32,
    /// Relative weight of spy reconfigure requests.
    pub spy_weight: u32,
    /// Attach well-formedness and invariant monitors.
    pub check_invariants: bool,
}

impl Default for RcRunOptions {
    fn default() -> Self {
        RcRunOptions {
            seed: 0,
            max_steps: 40_000,
            abort_weight: 2,
            spy_weight: 30,
            check_invariants: true,
        }
    }
}

/// Per-item incremental tracking.
#[derive(Clone, Debug)]
struct Track {
    open_tms: i64,
    logical_state: Value,
    current_vn: u64,
    latest_gen: u64,
    /// Configuration history by generation (0 = initial).
    configs: BTreeMap<u64, Configuration<ObjectId>>,
    /// Last observed per-DM (vn, gen), for monotonicity.
    last_seen: BTreeMap<ObjectId, (u64, u64)>,
}

/// Runtime monitor for the reconfigurable system, checking after every
/// step:
///
/// * per-DM version and generation numbers never decrease;
/// * the highest DM version number equals `current-vn` (Lemma 7 analogue);
/// * at quiescent points (no TM for the item mid-flight):
///   * **I1**: some write-quorum of the *latest* configuration holds
///     `current-vn` — the data stays discoverable after reconfiguration;
///   * **I2**: every DM holding `current-vn` holds `logical-state`
///     (Lemma 8(1b) analogue);
///   * **I3**: some write-quorum of the *previous* configuration records
///     the latest generation — Gifford discovery still finds the new
///     configuration through the old one (the Goldman–Lynch
///     old-write-quorum-only rule is exactly what makes this sufficient);
/// * every read-TM returns `logical-state` (Lemma 8(2) analogue).
#[derive(Debug)]
pub struct RcInvariantMonitor {
    layout: RcLayout,
    tm_values: BTreeMap<Tid, Value>,
    /// Access tid → (item, dm, payload kind).
    access_info: BTreeMap<Tid, (ItemId, ObjectId, AccessPayload)>,
    tracks: BTreeMap<ItemId, Track>,
}

#[derive(Clone, Debug)]
enum AccessPayload {
    ValueWrite(u64),
    ConfigWrite(u64, Configuration<ObjectId>),
}

impl RcInvariantMonitor {
    /// A monitor for the given layout.
    pub fn new(layout: &RcLayout) -> Self {
        let tracks = layout
            .items
            .iter()
            .map(|(id, il)| {
                let mut configs = BTreeMap::new();
                configs.insert(0, il.init_config.clone());
                (
                    *id,
                    Track {
                        open_tms: 0,
                        logical_state: il.item.init.clone(),
                        current_vn: 0,
                        latest_gen: 0,
                        configs,
                        last_seen: BTreeMap::new(),
                    },
                )
            })
            .collect();
        RcInvariantMonitor {
            layout: layout.clone(),
            tm_values: BTreeMap::new(),
            access_info: BTreeMap::new(),
            tracks,
        }
    }

    fn item_of_dm(&self, o: ObjectId) -> Option<ItemId> {
        self.layout
            .items
            .iter()
            .find(|(_, il)| il.dm_objects.contains(&o))
            .map(|(id, _)| *id)
    }

    fn is_rc_tm(&self, tid: &Tid) -> bool {
        tid.last_index().is_some_and(|i| i >= SPY_CHILD_BASE)
            && tid
                .parent()
                .is_some_and(|p| self.layout.user_tids.contains(&p))
    }

    /// The item a reconfigure-TM concerns (the unique reconfigurable item).
    fn rc_item(&self) -> Option<ItemId> {
        self.layout
            .items
            .iter()
            .find(|(_, il)| !il.alt_configs.is_empty())
            .map(|(id, _)| *id)
    }

    fn digest(&mut self, op: &TxnOp) -> Option<(ItemId, Value)> {
        match op {
            TxnOp::RequestCreate {
                tid,
                access: Some(spec),
                ..
            } if spec.kind == AccessKind::Write => {
                if let Some(item) = self.item_of_dm(spec.object) {
                    let payload = if let Some((vn, _)) = parse_value_write(&spec.data) {
                        AccessPayload::ValueWrite(vn)
                    } else if let Some((gen, c)) = parse_config_write(&spec.data) {
                        AccessPayload::ConfigWrite(gen, c.clone())
                    } else {
                        return None;
                    };
                    self.access_info
                        .insert(tid.clone(), (item, spec.object, payload));
                }
                None
            }
            TxnOp::Create { tid, param, .. } => {
                if let Some(role) = self.layout.tm_roles.get(tid) {
                    let track = self.tracks.get_mut(&role.item()).expect("tracked");
                    track.open_tms += 1;
                    if matches!(role, TmRole::Write(_)) {
                        self.tm_values
                            .insert(tid.clone(), param.clone().unwrap_or(Value::Nil));
                    }
                } else if self.is_rc_tm(tid) {
                    if let Some(item) = self.rc_item() {
                        self.tracks.get_mut(&item).expect("tracked").open_tms += 1;
                    }
                }
                None
            }
            TxnOp::RequestCommit { tid, value } => {
                if let Some(role) = self.layout.tm_roles.get(tid).cloned() {
                    let item = role.item();
                    let track = self.tracks.get_mut(&item).expect("tracked");
                    track.open_tms -= 1;
                    match role {
                        TmRole::Write(_) => {
                            track.logical_state =
                                self.tm_values.get(tid).cloned().unwrap_or(Value::Nil);
                            None
                        }
                        TmRole::Read(_) => Some((item, value.clone())),
                    }
                } else if self.is_rc_tm(tid) {
                    if let Some(item) = self.rc_item() {
                        self.tracks.get_mut(&item).expect("tracked").open_tms -= 1;
                    }
                    None
                } else if let Some((item, _, payload)) = self.access_info.get(tid).cloned() {
                    let track = self.tracks.get_mut(&item).expect("tracked");
                    match payload {
                        AccessPayload::ValueWrite(vn) => {
                            track.current_vn = track.current_vn.max(vn);
                        }
                        AccessPayload::ConfigWrite(gen, c) => {
                            track.configs.insert(gen, c);
                            track.latest_gen = track.latest_gen.max(gen);
                        }
                    }
                    None
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn check_item(
        &mut self,
        system: &System<TxnOp>,
        item: ItemId,
        read_commit: Option<&Value>,
    ) -> Result<(), String> {
        let il = self.layout.items[&item].clone();
        let track = self.tracks.get_mut(&item).expect("tracked");
        // Gather DM states.
        let mut states: Vec<(ObjectId, u64, Value, u64)> = Vec::new();
        for (r, name) in il.dm_names.iter().enumerate() {
            let dm: &RcDm = system
                .component_as(name)
                .ok_or_else(|| format!("missing RcDm {name}"))?;
            let (vn, v, gen, _) = dm.state();
            states.push((il.dm_objects[r], vn, v.clone(), gen));
        }
        // Monotonicity.
        for (o, vn, _, gen) in &states {
            if let Some((pvn, pgen)) = track.last_seen.get(o) {
                if vn < pvn || gen < pgen {
                    return Err(format!(
                        "monotonicity violated at DM {o}: ({pvn},{pgen}) → ({vn},{gen})"
                    ));
                }
            }
            track.last_seen.insert(*o, (*vn, *gen));
        }
        // Lemma 7 analogue.
        let max_vn = states.iter().map(|(_, vn, _, _)| *vn).max().unwrap_or(0);
        if max_vn != track.current_vn {
            return Err(format!(
                "max DM vn {max_vn} ≠ current-vn {} for {item}",
                track.current_vn
            ));
        }
        if track.open_tms == 0 {
            let c_latest = &track.configs[&track.latest_gen];
            // I1: data discoverable in the latest configuration.
            let holders: std::collections::BTreeSet<ObjectId> = states
                .iter()
                .filter(|(_, vn, _, _)| *vn == track.current_vn)
                .map(|(o, _, _, _)| *o)
                .collect();
            if !c_latest.covers_write_quorum(&holders) {
                return Err(format!(
                    "I1 violated for {item}: no write-quorum of gen-{} config holds vn {}",
                    track.latest_gen, track.current_vn
                ));
            }
            // I2: value agreement at the current version.
            for (o, vn, v, _) in &states {
                if *vn == track.current_vn && *v != track.logical_state {
                    return Err(format!(
                        "I2 violated for {item}: DM {o} holds {v} at vn {vn}, logical-state {}",
                        track.logical_state
                    ));
                }
            }
            // I3: the latest configuration is recorded at a write-quorum of
            // its predecessor.
            if track.latest_gen > 0 {
                let prev = &track.configs[&(track.latest_gen - 1)];
                let gen_holders: std::collections::BTreeSet<ObjectId> = states
                    .iter()
                    .filter(|(_, _, _, gen)| *gen == track.latest_gen)
                    .map(|(o, _, _, _)| *o)
                    .collect();
                if !prev.covers_write_quorum(&gen_holders) {
                    return Err(format!(
                        "I3 violated for {item}: gen {} not held by a write-quorum of gen {}",
                        track.latest_gen,
                        track.latest_gen - 1
                    ));
                }
            }
        }
        if let Some(v) = read_commit {
            if *v != track.logical_state {
                return Err(format!(
                    "read-TM returned {v}, logical-state is {} for {item}",
                    track.logical_state
                ));
            }
        }
        Ok(())
    }
}

impl Monitor<TxnOp> for RcInvariantMonitor {
    fn name(&self) -> String {
        "reconfiguration-invariants".into()
    }

    fn check(
        &mut self,
        system: &System<TxnOp>,
        so_far: &Schedule<TxnOp>,
        step: usize,
    ) -> Result<(), String> {
        let op = &so_far[step];
        let read_commit = self.digest(op);
        let items: Vec<ItemId> = self.tracks.keys().copied().collect();
        for item in items {
            let rc = match &read_commit {
                Some((i, v)) if *i == item => Some(v),
                _ => None,
            };
            self.check_item(system, item, rc)?;
        }
        Ok(())
    }
}

/// Run the reconfigurable system **B'** randomly, returning the schedule.
///
/// # Errors
///
/// Executor errors, including monitor violations.
pub fn run_system_rc(
    spec: &RcSystemSpec,
    opts: RcRunOptions,
) -> Result<(Schedule<TxnOp>, RcLayout), IoaError> {
    let mut built = build_system_rc(spec);
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let spy_weight = opts.spy_weight;
    let abort_weight = opts.abort_weight;
    let mut exec = Executor::new()
        .max_steps(opts.max_steps)
        .policy(WeightedPolicy::new(move |op: &TxnOp| match op {
            TxnOp::Abort { .. } => abort_weight,
            TxnOp::RequestCreate { tid, param, .. }
                if matches!(param, Some(Value::Config(_)))
                    && tid.last_index().is_some_and(|i| i >= SPY_CHILD_BASE) =>
            {
                spy_weight
            }
            _ => 100,
        }));
    if opts.check_invariants {
        exec = exec
            .monitor(SystemWfMonitor::new())
            .monitor(RcInvariantMonitor::new(&built.layout));
    }
    let execution = exec.run(&mut built.system, &mut rng)?;
    Ok((execution.into_schedule(), built.layout))
}

/// Outcome of a reconfiguration correctness check.
#[derive(Clone, Debug)]
pub struct RcReport {
    /// Length of the B'-schedule.
    pub b_len: usize,
    /// Length of the projected A-schedule.
    pub a_len: usize,
    /// Reconfigure-TMs that committed during the run.
    pub reconfigs_committed: usize,
}

/// Run **B'** randomly, erase the replication machinery, and replay on
/// **A** — the §4 analogue of Theorem 10.
///
/// # Errors
///
/// Run errors, monitor violations, or a replay refusal (each would refute
/// the algorithm).
pub fn check_rc_random(spec: &RcSystemSpec, opts: RcRunOptions) -> Result<RcReport, IoaError> {
    let (beta, layout) = run_system_rc(spec, opts)?;
    let alpha = beta.project(|op| !layout.is_erased_op(op));
    let mut a = build_system_a_rc(spec, &layout);
    a.system.reset();
    let mut wf = wf_monitor_for_a_rc(&layout);
    let mut so_far = Schedule::new();
    for (i, op) in alpha.iter().enumerate() {
        a.system.step(op).map_err(|e| annotate(e, i))?;
        so_far.push(op.clone());
        wf.check(&a.system, &so_far, i)
            .map_err(|m| IoaError::StepRefused {
                component: "wf-monitor(A)".into(),
                op: format!("{op:?}"),
                reason: m,
                at: Some(i),
            })?;
    }
    let reconfigs_committed = layout
        .rc_tms
        .iter()
        .filter(|t| {
            beta.iter()
                .any(|op| matches!(op, TxnOp::Commit { tid, .. } if tid == *t))
        })
        .count();
    Ok(RcReport {
        b_len: beta.len(),
        a_len: alpha.len(),
        reconfigs_committed,
    })
}

fn annotate(e: IoaError, i: usize) -> IoaError {
    match e {
        IoaError::StepRefused {
            component,
            op,
            reason,
            ..
        } => IoaError::StepRefused {
            component,
            op,
            reason,
            at: Some(i),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RcItemSpec;
    use qc_replication::{UserSpec, UserStep};

    fn spec(max_reconfigs: u32) -> RcSystemSpec {
        let u: Vec<usize> = (0..3).collect();
        RcSystemSpec {
            items: vec![RcItemSpec {
                name: "x".into(),
                init: Value::Int(0),
                replicas: 3,
                initial_config: quorum::generators::majority(&u),
                alt_configs: vec![quorum::generators::rowa(&u), quorum::generators::raow(&u)],
            }],
            users: vec![
                UserSpec::new(vec![UserStep::Write(0, Value::Int(7)), UserStep::Read(0)]),
                UserSpec::new(vec![
                    UserStep::Read(0),
                    UserStep::Write(0, Value::Int(9)),
                    UserStep::Read(0),
                ]),
            ],
            max_reconfigs_per_user: max_reconfigs,
        }
    }

    #[test]
    fn reconfig_correct_across_seeds() {
        let mut total_reconfigs = 0;
        for seed in 0..15 {
            let report = check_rc_random(
                &spec(2),
                RcRunOptions {
                    seed,
                    ..RcRunOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            total_reconfigs += report.reconfigs_committed;
        }
        assert!(
            total_reconfigs > 0,
            "expected at least one committed reconfiguration across seeds"
        );
    }

    #[test]
    fn reconfig_correct_without_spies() {
        // max 0 reconfigs: degenerates to fixed quorum consensus over RcDms.
        for seed in 0..5 {
            check_rc_random(
                &spec(0),
                RcRunOptions {
                    seed,
                    ..RcRunOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn reconfig_correct_under_heavy_aborts() {
        for seed in 0..8 {
            check_rc_random(
                &spec(1),
                RcRunOptions {
                    seed,
                    abort_weight: 50,
                    ..RcRunOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn invariant_monitor_accepts_clean_runs() {
        let (beta, _) = run_system_rc(
            &spec(1),
            RcRunOptions {
                seed: 42,
                ..RcRunOptions::default()
            },
        )
        .unwrap();
        assert!(!beta.is_empty());
    }
}
