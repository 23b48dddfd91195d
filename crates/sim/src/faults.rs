//! Deterministic fault injection: seed-driven, serializable schedules of
//! site crashes, recoveries, message drops/delays, forced aborts and
//! replica-store corruption, plus the coordinator's retry/backoff policy.
//!
//! A [`FaultPlan`] pins fault events to exact [`SimTime`] points, so every
//! run under the same `(config, seed, plan)` triple is bit-identical —
//! unlike the exponential crash/repair process (`SimConfig::mttf`), which
//! models background failure *rates*, a plan reproduces a specific failure
//! *scenario* (the paper's abort/failure model made concrete; see
//! `DESIGN.md`). Plans round-trip through a compact text form
//! ([`FaultPlan::parse`] / `Display`) for experiment CLI flags, and
//! serialize to JSON for result files.
//!
//! Per-message randomness (drop decisions) is derived from a hash of the
//! message's coordinates `(seed, client, op, attempt, phase, site,
//! direction)` rather than from the simulator's main RNG stream. This keeps
//! the main stream identical across [`ContactPolicy`] variants — the
//! policies send different message sets, and drawing per-message coins from
//! a shared stream would make every later sample diverge.
//!
//! [`ContactPolicy`]: crate::ContactPolicy

use std::fmt;

use quorum::replica_set::MAX_REPLICAS;
use quorum::ReplicaSet;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use crate::time::SimTime;

/// The membership a scripted reconfiguration targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconfigTarget {
    /// Reconfigure to the set of sites live at the event time.
    Live,
    /// Reconfigure to an explicit member set.
    Members(ReplicaSet),
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Site `site` crashes (fail-stop: it stops responding; its store
    /// survives and is served again after recovery).
    Crash {
        /// The crashing site.
        site: usize,
    },
    /// Site `site` recovers with its store intact.
    Recover {
        /// The recovering site.
        site: usize,
    },
    /// The next operation (or in-flight retry sequence) of `client` is
    /// forcibly aborted — the paper's transaction-abort model: the TM
    /// stops without a `REQUEST-COMMIT` and none of its effects become
    /// visible.
    AbortClient {
        /// The client whose operation aborts.
        client: usize,
    },
    /// Scribble `(vn, value)` into site `site`'s replica store. This is
    /// *outside* the paper's fail-stop model — it is the negative control
    /// proving the runtime lemma monitor actually fires.
    Corrupt {
        /// The corrupted site.
        site: usize,
        /// The bogus version number installed.
        vn: u64,
        /// The bogus value installed.
        value: u64,
    },
    /// For `duration` from the event time, every message is independently
    /// dropped with probability `permille`/1000.
    DropWindow {
        /// Window length.
        duration: SimTime,
        /// Drop probability in thousandths (0..=1000).
        permille: u32,
    },
    /// For `duration` from the event time, every one-way message latency
    /// gains `extra`.
    DelayWindow {
        /// Window length.
        duration: SimTime,
        /// Added one-way latency.
        extra: SimTime,
    },
    /// Install a new configuration (a scripted Goldman–Lynch
    /// reconfigure-TM): the target membership is written to a write quorum
    /// of the *old* configuration, after which operations at stale
    /// generations are rejected and retried under the new one. Only
    /// meaningful when the simulator's `ReconfigPolicy` is enabled — the
    /// simulators reject the plan otherwise, like any out-of-range
    /// reference.
    Reconfig {
        /// The new membership.
        target: ReconfigTarget,
    },
    /// Migrate item `item` to shard `to` (a scripted hot-item handoff).
    /// Interpreted by the sharded simulator's elastic control plane — the
    /// move is installed as a same-membership reconfiguration of the item
    /// at the epoch barrier — and rejected everywhere else, like any
    /// out-of-range reference. Not part of any shard's local plan view
    /// ([`FaultPlan::shard_view`] strips it).
    Migrate {
        /// Global item id to move.
        item: usize,
        /// Destination shard.
        to: usize,
    },
}

/// The largest `extra` a delay window may add to each message. A phase's
/// round trip is two one-way samples plus twice this, so an eighth of the
/// clock's range leaves that sum, and the arrival instant it is added to,
/// three quarters of the range to spare; any `extra` beyond the timeout
/// already loses every response.
const MAX_DELAY_EXTRA: SimTime = SimTime(u64::MAX / 8);

/// A deterministic, serializable schedule of [`FaultEvent`]s.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultEvent)>,
}

impl FaultPlan {
    /// The empty plan (no injected faults).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events, sorted by time (stable for equal times).
    #[must_use]
    pub fn events(&self) -> &[(SimTime, FaultEvent)] {
        &self.events
    }

    fn push(mut self, at: SimTime, e: FaultEvent) -> Self {
        self.events.push((at, e));
        self.events.sort_by_key(|&(t, _)| t);
        self
    }

    /// Schedule a site crash.
    #[must_use]
    pub fn crash_at(self, at: SimTime, site: usize) -> Self {
        self.push(at, FaultEvent::Crash { site })
    }

    /// Schedule a site recovery.
    #[must_use]
    pub fn recover_at(self, at: SimTime, site: usize) -> Self {
        self.push(at, FaultEvent::Recover { site })
    }

    /// Schedule a forced abort of `client`'s next operation.
    #[must_use]
    pub fn abort_at(self, at: SimTime, client: usize) -> Self {
        self.push(at, FaultEvent::AbortClient { client })
    }

    /// Schedule a store corruption (monitor negative control).
    #[must_use]
    pub fn corrupt_at(self, at: SimTime, site: usize, vn: u64, value: u64) -> Self {
        self.push(at, FaultEvent::Corrupt { site, vn, value })
    }

    /// Schedule a message-drop window.
    ///
    /// # Panics
    ///
    /// Panics if `permille > 1000`.
    #[must_use]
    pub fn drop_window(self, at: SimTime, duration: SimTime, permille: u32) -> Self {
        assert!(permille <= 1000, "drop probability is in thousandths");
        self.push(at, FaultEvent::DropWindow { duration, permille })
    }

    /// Schedule a message-delay window.
    #[must_use]
    pub fn delay_window(self, at: SimTime, duration: SimTime, extra: SimTime) -> Self {
        self.push(at, FaultEvent::DelayWindow { duration, extra })
    }

    /// Schedule a scripted reconfiguration to `target`.
    #[must_use]
    pub fn reconfig_at(self, at: SimTime, target: ReconfigTarget) -> Self {
        self.push(at, FaultEvent::Reconfig { target })
    }

    /// Schedule a scripted migration of `item` to shard `to` (sharded
    /// simulator with elastic placement only).
    #[must_use]
    pub fn migrate_at(self, at: SimTime, item: usize, to: usize) -> Self {
        self.push(at, FaultEvent::Migrate { item, to })
    }

    /// The strongest drop probability (thousandths) of any window active at
    /// `t`.
    #[must_use]
    pub fn drop_permille_at(&self, t: SimTime) -> u32 {
        self.events
            .iter()
            .filter_map(|&(at, e)| match e {
                FaultEvent::DropWindow { duration, permille } if at <= t && t < at + duration => {
                    Some(permille)
                }
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// The largest extra one-way latency of any delay window active at `t`.
    #[must_use]
    pub fn delay_extra_at(&self, t: SimTime) -> SimTime {
        self.events
            .iter()
            .filter_map(|&(at, e)| match e {
                FaultEvent::DelayWindow { duration, extra } if at <= t && t < at + duration => {
                    Some(extra)
                }
                _ => None,
            })
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The scheduled crash times of `site`, ascending (used by the
    /// simulator to detect operations that straddle a crash).
    pub fn crash_times_for(&self, site: usize) -> impl Iterator<Item = SimTime> + '_ {
        self.events.iter().filter_map(move |&(at, e)| match e {
            FaultEvent::Crash { site: s } if s == site => Some(at),
            _ => None,
        })
    }

    /// Check every event references sites `< sites` and clients
    /// `< clients`, and that no window's end or extra delay can overflow
    /// the simulated clock.
    ///
    /// # Errors
    ///
    /// A description of the first out-of-range event.
    pub fn validate(&self, sites: usize, clients: usize) -> Result<(), String> {
        for &(at, e) in &self.events {
            match e {
                FaultEvent::Crash { site }
                | FaultEvent::Recover { site }
                | FaultEvent::Corrupt { site, .. } => {
                    if site >= sites {
                        return Err(format!(
                            "fault at {at} references site {site}, but there are {sites} sites"
                        ));
                    }
                }
                FaultEvent::AbortClient { client } => {
                    if client >= clients {
                        return Err(format!(
                            "fault at {at} references client {client}, but there are \
                             {clients} clients"
                        ));
                    }
                }
                FaultEvent::Reconfig { target } => {
                    if let ReconfigTarget::Members(members) = target {
                        if members.is_empty() {
                            return Err(format!("reconfig at {at} targets an empty member set"));
                        }
                        if let Some(worst) = members.iter().find(|&s| s >= sites) {
                            return Err(format!(
                                "reconfig at {at} references site {worst}, but there are \
                                 {sites} sites"
                            ));
                        }
                    }
                }
                // Item/shard ranges are properties of the sharded
                // configuration, not of (sites, clients); the sharded
                // simulator's `MultiConfig::validate` checks them.
                FaultEvent::Migrate { .. } => {}
                // `drop_permille_at` / `delay_extra_at` compute the window's
                // end and the phase sums two one-way samples and twice
                // `extra`, all unchecked on the per-phase path.
                FaultEvent::DropWindow { duration, .. }
                | FaultEvent::DelayWindow { duration, .. }
                    if at.0.checked_add(duration.0).is_none() =>
                {
                    return Err(format!(
                        "window at {at} lasting {duration} ends past the last simulated instant"
                    ));
                }
                FaultEvent::DelayWindow { extra, .. } if extra > MAX_DELAY_EXTRA => {
                    return Err(format!(
                        "delay window at {at} adds {extra} per message; the most a window may \
                         add is {MAX_DELAY_EXTRA}"
                    ));
                }
                FaultEvent::DropWindow { .. } | FaultEvent::DelayWindow { .. } => {}
            }
        }
        Ok(())
    }

    /// The view of a global plan that one shard of the sharded simulator
    /// applies (see `qc_sim::shard`).
    ///
    /// Site-scoped events — crashes, recoveries, drop and delay windows —
    /// are *shared across shards*: every shard replays them against its
    /// own copy of the site state, so all shards experience the same
    /// cluster weather at the same simulated instants. Client- and
    /// item-scoped events are split: `AbortClient { client }` survives
    /// only when `client` falls in the shard's global client range
    /// `[clients_lo, clients_hi)`, remapped to the shard-local index;
    /// `Corrupt` survives only when `keep_corrupt` is set (the sharded
    /// simulator scribbles the negative-control corruption into exactly
    /// one item, owned by one shard, so the monitor fires once rather than
    /// once per shard).
    ///
    /// Event order (and therefore replay determinism) is preserved.
    #[must_use]
    pub fn shard_view(
        &self,
        clients_lo: usize,
        clients_hi: usize,
        keep_corrupt: bool,
    ) -> FaultPlan {
        let events = self
            .events
            .iter()
            .filter_map(|&(at, e)| match e {
                FaultEvent::AbortClient { client } => {
                    (clients_lo..clients_hi).contains(&client).then(|| {
                        (
                            at,
                            FaultEvent::AbortClient {
                                client: client - clients_lo,
                            },
                        )
                    })
                }
                FaultEvent::Corrupt { .. } => keep_corrupt.then_some((at, e)),
                // Migrations are control-plane events interpreted by the
                // epoch driver between shard legs, never inside a shard.
                FaultEvent::Migrate { .. } => None,
                _ => Some((at, e)),
            })
            .collect();
        FaultPlan { events }
    }

    /// A deterministic seed-driven plan: `pairs` crash/recovery pairs over
    /// random sites, `aborts` forced client aborts, all within
    /// `[duration/10, 9·duration/10]`.
    #[must_use]
    pub fn random(
        seed: u64,
        sites: usize,
        clients: usize,
        duration: SimTime,
        pairs: usize,
        aborts: usize,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17);
        let span = duration.as_micros();
        let (lo, hi) = (span / 10, span * 9 / 10);
        let mut plan = FaultPlan::new();
        for _ in 0..pairs {
            let site = rng.gen_range(0..sites);
            let down = rng.gen_range(lo..hi);
            let up = rng.gen_range(down..=hi);
            plan = plan
                .crash_at(SimTime(down), site)
                .recover_at(SimTime(up), site);
        }
        for _ in 0..aborts {
            let client = rng.gen_range(0..clients);
            let at = rng.gen_range(lo..hi);
            plan = plan.abort_at(SimTime(at), client);
        }
        plan
    }

    /// Parse the compact text form emitted by `Display`.
    ///
    /// Events are separated by `;`. Times are milliseconds, with an
    /// optional fraction of up to three digits (microsecond resolution),
    /// so `crash@1.5:2` crashes site 2 at t = 1500 µs:
    ///
    /// ```text
    /// crash@1500:2       site 2 crashes at t = 1500 ms
    /// recover@3000:2     site 2 recovers at t = 3000 ms
    /// abort@2000:0       client 0's next operation aborts at t = 2000 ms
    /// corrupt@4000:1,99,7  site 1's store becomes (vn 99, value 7)
    /// drop@1000:500,300  for 500 ms from t = 1000 ms, drop 30.0% of messages
    /// delay@1000:500,2   for 500 ms from t = 1000 ms, +2 ms one-way latency
    /// reconfig@5000:live reconfigure to the then-live sites at t = 5000 ms
    /// reconfig@5000:0+2+3  reconfigure to members {0, 2, 3}
    /// ```
    ///
    /// # Errors
    ///
    /// A description of the first malformed event.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for raw in spec.split(';') {
            let ev = raw.trim();
            if ev.is_empty() {
                continue;
            }
            let (head, args) = ev
                .split_once(':')
                .ok_or_else(|| format!("missing ':' in fault event {ev:?}"))?;
            let (kind, at_ms) = head
                .split_once('@')
                .ok_or_else(|| format!("missing '@' in fault event {ev:?}"))?;
            let at =
                parse_ms(at_ms).map_err(|_| format!("bad time {:?} in {ev:?}", at_ms.trim()))?;
            let parts: Vec<&str> = args.split(',').map(str::trim).collect();
            let arity = |n: usize| {
                if parts.len() == n {
                    Ok(())
                } else {
                    Err(format!(
                        "{ev:?}: expected {n} argument(s), got {}",
                        parts.len()
                    ))
                }
            };
            let int = |a: &str| {
                a.parse::<u64>()
                    .map_err(|_| format!("bad argument {a:?} in {ev:?}"))
            };
            let time = |a: &str| parse_ms(a).map_err(|_| format!("bad argument {a:?} in {ev:?}"));
            plan = match kind.trim() {
                "crash" => {
                    arity(1)?;
                    plan.crash_at(at, int(parts[0])? as usize)
                }
                "recover" => {
                    arity(1)?;
                    plan.recover_at(at, int(parts[0])? as usize)
                }
                "abort" => {
                    arity(1)?;
                    plan.abort_at(at, int(parts[0])? as usize)
                }
                "corrupt" => {
                    arity(3)?;
                    plan.corrupt_at(at, int(parts[0])? as usize, int(parts[1])?, int(parts[2])?)
                }
                "drop" => {
                    arity(2)?;
                    let permille = int(parts[1])?;
                    if permille > 1000 {
                        return Err(format!("{ev:?}: drop permille must be ≤ 1000"));
                    }
                    plan.drop_window(at, time(parts[0])?, permille as u32)
                }
                "delay" => {
                    arity(2)?;
                    plan.delay_window(at, time(parts[0])?, time(parts[1])?)
                }
                "migrate" => {
                    arity(1)?;
                    let (item, to) = parts[0]
                        .split_once("->")
                        .ok_or_else(|| format!("{ev:?}: expected item->shard"))?;
                    plan.migrate_at(at, int(item.trim())? as usize, int(to.trim())? as usize)
                }
                "reconfig" => {
                    arity(1)?;
                    let target = if parts[0] == "live" {
                        ReconfigTarget::Live
                    } else {
                        let mut members = ReplicaSet::EMPTY;
                        for m in parts[0].split('+') {
                            let s = int(m.trim())? as usize;
                            if s >= MAX_REPLICAS {
                                return Err(format!(
                                    "{ev:?}: member {s} exceeds the {MAX_REPLICAS}-replica cap"
                                ));
                            }
                            members.insert(s);
                        }
                        ReconfigTarget::Members(members)
                    };
                    plan.reconfig_at(at, target)
                }
                other => return Err(format!("unknown fault kind {other:?} in {ev:?}")),
            };
        }
        Ok(plan)
    }
}

/// Format a time as decimal milliseconds, without trailing zeros, so that
/// [`parse_ms`] recovers it exactly (`1500 µs` → `"1.5"`, `2 ms` → `"2"`).
fn format_ms(t: SimTime) -> String {
    let us = t.as_micros();
    let (ms, frac) = (us / 1_000, us % 1_000);
    if frac == 0 {
        format!("{ms}")
    } else {
        let mut s = format!("{ms}.{frac:03}");
        while s.ends_with('0') {
            s.pop();
        }
        s
    }
}

/// Parse decimal milliseconds with at most three fractional digits (the
/// microsecond resolution of [`SimTime`]).
fn parse_ms(s: &str) -> Result<SimTime, ()> {
    let s = s.trim();
    let (whole, frac) = s.split_once('.').unwrap_or((s, ""));
    if frac.len() > 3 || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return Err(());
    }
    let ms = whole.parse::<u64>().map_err(|_| ())?;
    let mut us = ms.checked_mul(1_000).ok_or(())?;
    if !frac.is_empty() {
        us = us
            .checked_add(format!("{frac:0<3}").parse::<u64>().map_err(|_| ())?)
            .ok_or(())?;
    }
    Ok(SimTime(us))
}

impl FaultEvent {
    /// The plan-grammar rendering of this event firing at `at` — the same
    /// fragment `Display for FaultPlan` emits (and [`FaultPlan::parse`]
    /// accepts). The structured event log uses this as the fault
    /// description, so log entries and plan flags share one vocabulary.
    pub fn text(&self, at: SimTime) -> String {
        let ms = format_ms(at);
        match *self {
            FaultEvent::Crash { site } => format!("crash@{ms}:{site}"),
            FaultEvent::Recover { site } => format!("recover@{ms}:{site}"),
            FaultEvent::AbortClient { client } => format!("abort@{ms}:{client}"),
            FaultEvent::Corrupt { site, vn, value } => {
                format!("corrupt@{ms}:{site},{vn},{value}")
            }
            FaultEvent::DropWindow { duration, permille } => {
                format!("drop@{ms}:{},{permille}", format_ms(duration))
            }
            FaultEvent::DelayWindow { duration, extra } => {
                format!("delay@{ms}:{},{}", format_ms(duration), format_ms(extra))
            }
            FaultEvent::Reconfig { target } => match target {
                ReconfigTarget::Live => format!("reconfig@{ms}:live"),
                ReconfigTarget::Members(members) => {
                    let list: Vec<String> = members.iter().map(|s| s.to_string()).collect();
                    format!("reconfig@{ms}:{}", list.join("+"))
                }
            },
            FaultEvent::Migrate { item, to } => format!("migrate@{ms}:{item}->{to}"),
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &(at, e)) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{}", e.text(at))?;
        }
        Ok(())
    }
}

impl Serialize for FaultPlan {
    fn serialize_json(&self, out: &mut String) {
        let items: Vec<String> = self
            .events
            .iter()
            .map(|&(at, e)| {
                let o = serde_json::JsonObject::new().field("at_us", &at.as_micros());
                match e {
                    FaultEvent::Crash { site } => o.field("kind", "crash").field("site", &site),
                    FaultEvent::Recover { site } => o.field("kind", "recover").field("site", &site),
                    FaultEvent::AbortClient { client } => {
                        o.field("kind", "abort").field("client", &client)
                    }
                    FaultEvent::Corrupt { site, vn, value } => o
                        .field("kind", "corrupt")
                        .field("site", &site)
                        .field("vn", &vn)
                        .field("value", &value),
                    FaultEvent::DropWindow { duration, permille } => o
                        .field("kind", "drop")
                        .field("duration_us", &duration.as_micros())
                        .field("permille", &permille),
                    FaultEvent::DelayWindow { duration, extra } => o
                        .field("kind", "delay")
                        .field("duration_us", &duration.as_micros())
                        .field("extra_us", &extra.as_micros()),
                    FaultEvent::Reconfig { target } => match target {
                        ReconfigTarget::Live => {
                            o.field("kind", "reconfig").field("members", "live")
                        }
                        ReconfigTarget::Members(members) => {
                            let list: Vec<u64> = members.iter().map(|s| s as u64).collect();
                            o.field("kind", "reconfig").field("members", &list)
                        }
                    },
                    FaultEvent::Migrate { item, to } => o
                        .field("kind", "migrate")
                        .field("item", &item)
                        .field("to", &to),
                }
                .build()
            })
            .collect();
        out.push_str(&serde_json::array_raw(items));
    }
}

/// Coordinator retry policy: how many attempts an operation gets and how
/// long the coordinator backs off between them.
///
/// The default is a single attempt (no retries), matching the pre-fault
/// simulator. With retries, a failed attempt (timeout or quorum loss)
/// re-samples the site state after an exponentially growing backoff, so an
/// operation that loses its quorum mid-flight degrades into a delayed
/// success once sites recover, instead of a hard failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (≥ 1; 1 means no retries).
    pub attempts: u32,
    /// Backoff before the second attempt.
    pub backoff: SimTime,
    /// Multiplier applied to the backoff for each further attempt.
    pub multiplier: u32,
    /// Upper bound on any single backoff.
    pub max_backoff: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: SimTime::from_millis(1),
            multiplier: 2,
            max_backoff: SimTime::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// `attempts` attempts with exponential backoff starting at `backoff`
    /// (doubling, capped at 1 s).
    #[must_use]
    pub fn retries(attempts: u32, backoff: SimTime) -> Self {
        assert!(attempts >= 1, "an operation gets at least one attempt");
        RetryPolicy {
            attempts,
            backoff,
            ..RetryPolicy::default()
        }
    }

    /// The backoff to wait before attempt number `attempt` (2-based: the
    /// first retry is attempt 2).
    #[must_use]
    pub fn backoff_before(&self, attempt: u32) -> SimTime {
        let exp = attempt.saturating_sub(2);
        let factor = self.multiplier.saturating_pow(exp.min(20));
        let raw = self.backoff.as_micros().saturating_mul(u64::from(factor));
        SimTime(raw.min(self.max_backoff.as_micros()))
    }

    /// The one retry rule: after attempt number `attempt` failed having
    /// taken `elapsed`, the next starts `elapsed + backoff_before(next)`
    /// later — never at the same instant, or a fail-fast attempt (zero
    /// simulated time) with a zero backoff would spin forever against the
    /// same dead sites. `None` once the budget is spent.
    pub(crate) fn retry_delay(&self, attempt: u32, elapsed: SimTime) -> Option<SimTime> {
        let next = (attempt < self.attempts).then_some(attempt + 1)?;
        Some((elapsed + self.backoff_before(next)).max(SimTime(1)))
    }
}

/// SplitMix64 finalizer: the per-message hash underlying drop decisions.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic per-message drop coin, independent of the main RNG stream
/// (see the module docs for why). The arguments are exactly the coordinates
/// that identify one message.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn message_dropped(
    seed: u64,
    client: usize,
    op_index: u64,
    attempt: u32,
    phase: u8,
    site: usize,
    response: bool,
    permille: u32,
) -> bool {
    if permille == 0 {
        return false;
    }
    let mut h = mix(seed ^ 0xD809_D809_D809_D809);
    h = mix(h ^ client as u64);
    h = mix(h ^ op_index);
    h = mix(h ^ u64::from(attempt));
    h = mix(h ^ u64::from(phase));
    h = mix(h ^ site as u64);
    h = mix(h ^ u64::from(response));
    (h % 1000) < u64::from(permille)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_through_text() {
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_millis(1500), 2)
            .recover_at(SimTime::from_millis(3000), 2)
            .abort_at(SimTime::from_millis(2000), 0)
            .corrupt_at(SimTime::from_millis(4000), 1, 99, 7)
            .drop_window(SimTime::from_millis(1000), SimTime::from_millis(500), 300)
            .delay_window(
                SimTime::from_millis(1000),
                SimTime::from_millis(500),
                SimTime::from_millis(2),
            );
        let text = plan.to_string();
        let back = FaultPlan::parse(&text).unwrap();
        assert_eq!(plan, back);
        assert_eq!(back.len(), 6);
    }

    #[test]
    fn empty_plan_round_trips_through_text() {
        let plan = FaultPlan::new();
        assert_eq!(plan.to_string(), "");
        let back = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, back);
        assert!(back.is_empty());
    }

    #[test]
    fn sub_millisecond_times_round_trip_through_text() {
        let plan = FaultPlan::new()
            .crash_at(SimTime(100), 0)
            .recover_at(SimTime(500), 0)
            .drop_window(SimTime(1_500), SimTime(250), 300)
            .delay_window(SimTime(2_001), SimTime(999), SimTime(1));
        let text = plan.to_string();
        assert_eq!(
            text,
            "crash@0.1:0; recover@0.5:0; drop@1.5:0.25,300; delay@2.001:0.999,0.001"
        );
        let back = FaultPlan::parse(&text).unwrap();
        assert_eq!(plan, back, "Display must not truncate sub-ms times");
    }

    #[test]
    fn fractional_times_parse_at_microsecond_resolution() {
        let plan = FaultPlan::parse("crash@1.5:2").unwrap();
        assert_eq!(plan.events()[0].0, SimTime(1_500));
        // Short fractions are right-padded: .5 ms == 500 µs, .05 == 50 µs.
        let plan = FaultPlan::parse("crash@0.05:2").unwrap();
        assert_eq!(plan.events()[0].0, SimTime(50));
        // More than µs resolution, or junk fractions, are rejected.
        assert!(FaultPlan::parse("crash@1.0005:2").is_err());
        assert!(FaultPlan::parse("crash@1.5x:2").is_err());
        assert!(FaultPlan::parse("crash@.5:2").is_err());
    }

    #[test]
    fn zero_duration_windows_round_trip_and_affect_no_instant() {
        let plan = FaultPlan::new()
            .drop_window(SimTime::from_millis(10), SimTime::ZERO, 900)
            .delay_window(
                SimTime::from_millis(20),
                SimTime::ZERO,
                SimTime::from_millis(3),
            );
        let back = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, back);
        // A window of zero duration is empty: [start, start) contains nothing.
        assert_eq!(back.drop_permille_at(SimTime::from_millis(10)), 0);
        assert_eq!(back.delay_extra_at(SimTime::from_millis(20)), SimTime::ZERO);
    }

    #[test]
    fn overlapping_crash_recover_windows_on_one_site_round_trip() {
        // Two crash/recover windows on site 1 that overlap: the site is
        // down from 5 ms until the *last* recover at 40 ms.
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_millis(5), 1)
            .crash_at(SimTime::from_millis(10), 1)
            .recover_at(SimTime::from_millis(20), 1)
            .recover_at(SimTime::from_millis(40), 1)
            .crash_at(SimTime::from_millis(30), 1);
        let back = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, back);
        assert_eq!(back.len(), 5);
        // Events stay sorted by time, so replaying them in order leaves the
        // site up after 40 ms regardless of the insertion order above.
        let times: Vec<u64> = back.events().iter().map(|&(t, _)| t.as_micros()).collect();
        assert_eq!(times, vec![5_000, 10_000, 20_000, 30_000, 40_000]);
    }

    #[test]
    fn plan_events_stay_sorted() {
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_millis(900), 1)
            .crash_at(SimTime::from_millis(100), 0);
        let times: Vec<u64> = plan.events().iter().map(|&(t, _)| t.as_micros()).collect();
        assert_eq!(times, vec![100_000, 900_000]);
    }

    #[test]
    fn parse_rejects_malformed_events() {
        assert!(FaultPlan::parse("crash@100").is_err()); // no args
        assert!(FaultPlan::parse("crash:1").is_err()); // no time
        assert!(FaultPlan::parse("crash@abc:1").is_err()); // bad time
        assert!(FaultPlan::parse("explode@100:1").is_err()); // unknown kind
        assert!(FaultPlan::parse("corrupt@100:1,2").is_err()); // arity
        assert!(FaultPlan::parse("drop@100:10,2000").is_err()); // permille cap
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ; ").unwrap().is_empty());
    }

    #[test]
    fn windows_answer_point_queries() {
        let plan = FaultPlan::new()
            .drop_window(SimTime::from_millis(10), SimTime::from_millis(5), 250)
            .drop_window(SimTime::from_millis(12), SimTime::from_millis(1), 900)
            .delay_window(
                SimTime::from_millis(20),
                SimTime::from_millis(10),
                SimTime::from_millis(3),
            );
        assert_eq!(plan.drop_permille_at(SimTime::from_millis(9)), 0);
        assert_eq!(plan.drop_permille_at(SimTime::from_millis(10)), 250);
        assert_eq!(plan.drop_permille_at(SimTime::from_millis(12)), 900); // max wins
        assert_eq!(plan.drop_permille_at(SimTime::from_millis(15)), 0); // end exclusive
        assert_eq!(
            plan.delay_extra_at(SimTime::from_millis(25)),
            SimTime::from_millis(3)
        );
        assert_eq!(plan.delay_extra_at(SimTime::from_millis(30)), SimTime::ZERO);
    }

    #[test]
    fn validate_catches_out_of_range_references() {
        let plan = FaultPlan::new().crash_at(SimTime::from_millis(1), 7);
        assert!(plan.validate(5, 4).is_err());
        assert!(plan.validate(8, 4).is_ok());
        let plan = FaultPlan::new().abort_at(SimTime::from_millis(1), 4);
        assert!(plan.validate(5, 4).is_err());
        assert!(plan.validate(5, 5).is_ok());
    }

    #[test]
    fn shard_view_shares_site_events_and_splits_client_events() {
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_millis(1), 2)
            .recover_at(SimTime::from_millis(2), 2)
            .drop_window(SimTime::from_millis(3), SimTime::from_millis(1), 500)
            .delay_window(
                SimTime::from_millis(4),
                SimTime::from_millis(1),
                SimTime(100),
            )
            .abort_at(SimTime::from_millis(5), 1)
            .abort_at(SimTime::from_millis(6), 5)
            .corrupt_at(SimTime::from_millis(7), 0, 99, 7);
        // Shard owning clients [4, 8): site events and windows survive
        // untouched, abort of global client 5 becomes local client 1,
        // abort of client 1 and the corruption disappear.
        let view = plan.shard_view(4, 8, false);
        assert_eq!(
            view.to_string(),
            "crash@1:2; recover@2:2; drop@3:1,500; delay@4:1,0.1; abort@6:1"
        );
        // Shard owning clients [0, 4) keeps the corruption (it owns item 0).
        let view0 = plan.shard_view(0, 4, true);
        assert_eq!(
            view0.to_string(),
            "crash@1:2; recover@2:2; drop@3:1,500; delay@4:1,0.1; abort@5:1; corrupt@7:0,99,7"
        );
        // A single-shard view over all clients with corruption kept is the
        // identity.
        assert_eq!(plan.shard_view(0, 8, true), plan);
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        let d = SimTime::from_secs(10);
        let a = FaultPlan::random(42, 5, 4, d, 3, 2);
        let b = FaultPlan::random(42, 5, 4, d, 3, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3 * 2 + 2);
        a.validate(5, 4).unwrap();
        let c = FaultPlan::random(43, 5, 4, d, 3, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let r = RetryPolicy::retries(5, SimTime::from_millis(2));
        assert_eq!(r.backoff_before(2), SimTime::from_millis(2));
        assert_eq!(r.backoff_before(3), SimTime::from_millis(4));
        assert_eq!(r.backoff_before(4), SimTime::from_millis(8));
        let huge = RetryPolicy {
            attempts: 64,
            backoff: SimTime::from_millis(100),
            multiplier: 10,
            max_backoff: SimTime::from_secs(1),
        };
        assert_eq!(huge.backoff_before(40), SimTime::from_secs(1));
    }

    #[test]
    fn drop_coin_is_deterministic_and_roughly_calibrated() {
        assert!(!message_dropped(1, 0, 0, 1, 0, 0, false, 0));
        let a = message_dropped(1, 2, 3, 1, 0, 4, true, 500);
        let b = message_dropped(1, 2, 3, 1, 0, 4, true, 500);
        assert_eq!(a, b);
        let hits = (0..10_000)
            .filter(|&i| message_dropped(7, 1, i, 1, 0, 2, false, 300))
            .count();
        // 30% ± 3% over 10k coordinates.
        assert!((2_700..=3_300).contains(&hits), "hits {hits}");
    }

    #[test]
    fn reconfig_round_trips_through_text_and_json() {
        let members: ReplicaSet = [0usize, 2, 3].into_iter().collect();
        let plan = FaultPlan::new()
            .reconfig_at(SimTime(4_500), ReconfigTarget::Live)
            .reconfig_at(SimTime::from_millis(9), ReconfigTarget::Members(members));
        let text = plan.to_string();
        assert_eq!(text, "reconfig@4.5:live; reconfig@9:0+2+3");
        let back = FaultPlan::parse(&text).unwrap();
        assert_eq!(back, plan, "sub-ms reconfig times must round-trip");
        let json = serde_json::to_string(&plan).unwrap();
        assert_eq!(
            json,
            r#"[{"at_us":4500,"kind":"reconfig","members":"live"},{"at_us":9000,"kind":"reconfig","members":[0,2,3]}]"#
        );
    }

    #[test]
    fn reconfig_rejects_malformed_specs() {
        assert!(FaultPlan::parse("reconfig@5:").is_err()); // empty spec
        assert!(FaultPlan::parse("reconfig@5:0+x").is_err()); // junk member
        assert!(FaultPlan::parse("reconfig@5:live,1").is_err()); // arity
        assert!(FaultPlan::parse("reconfig@5:200").is_err()); // beyond the 128 cap
        assert!(FaultPlan::parse("reconfig@x:live").is_err()); // bad time
                                                               // Validation catches out-of-range and empty member sets.
        let plan = FaultPlan::new().reconfig_at(
            SimTime::from_millis(1),
            ReconfigTarget::Members([0usize, 6].into_iter().collect()),
        );
        assert!(plan.validate(5, 4).is_err());
        assert!(plan.validate(7, 4).is_ok());
        let empty = FaultPlan::new().reconfig_at(
            SimTime::from_millis(1),
            ReconfigTarget::Members(ReplicaSet::EMPTY),
        );
        assert!(empty.validate(5, 4).is_err());
        // `live` targets are always in range.
        let live = FaultPlan::new().reconfig_at(SimTime::from_millis(1), ReconfigTarget::Live);
        assert!(live.validate(1, 1).is_ok());
    }

    #[test]
    fn migrate_round_trips_through_text_and_json() {
        let plan = FaultPlan::new()
            .migrate_at(SimTime(2_500), 42, 3)
            .migrate_at(SimTime::from_millis(7), 0, 1);
        let text = plan.to_string();
        assert_eq!(text, "migrate@2.5:42->3; migrate@7:0->1");
        let back = FaultPlan::parse(&text).unwrap();
        assert_eq!(back, plan, "migrate events must round-trip");
        let json = serde_json::to_string(&plan).unwrap();
        assert_eq!(
            json,
            r#"[{"at_us":2500,"kind":"migrate","item":42,"to":3},{"at_us":7000,"kind":"migrate","item":0,"to":1}]"#
        );
        // Site/client validation never rejects a migrate event; item and
        // shard ranges belong to MultiConfig::validate.
        assert!(plan.validate(1, 1).is_ok());
    }

    #[test]
    fn migrate_rejects_malformed_specs() {
        assert!(FaultPlan::parse("migrate@5:1").is_err()); // no arrow
        assert!(FaultPlan::parse("migrate@5:x->1").is_err()); // junk item
        assert!(FaultPlan::parse("migrate@5:1->y").is_err()); // junk shard
        assert!(FaultPlan::parse("migrate@5:1->2,3").is_err()); // arity
        assert!(FaultPlan::parse("migrate@x:1->2").is_err()); // bad time
    }

    #[test]
    fn shard_view_strips_migrations() {
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_millis(1), 2)
            .migrate_at(SimTime::from_millis(3), 9, 1);
        let view = plan.shard_view(0, 4, true);
        assert_eq!(view.to_string(), "crash@1:2");
    }

    #[test]
    fn shard_view_shares_reconfigs_across_shards() {
        // Reconfigurations are site-scoped cluster weather: every shard
        // replays them against its own items.
        let plan = FaultPlan::new()
            .reconfig_at(SimTime::from_millis(3), ReconfigTarget::Live)
            .abort_at(SimTime::from_millis(5), 1);
        let view = plan.shard_view(4, 8, false);
        assert_eq!(view.to_string(), "reconfig@3:live");
        assert_eq!(plan.shard_view(0, 8, true), plan);
    }

    #[test]
    fn plan_serializes_to_json_array() {
        let plan = FaultPlan::new().crash_at(SimTime::from_millis(5), 1);
        let json = serde_json::to_string(&plan).unwrap();
        assert_eq!(json, r#"[{"at_us":5000,"kind":"crash","site":1}]"#);
    }
}
