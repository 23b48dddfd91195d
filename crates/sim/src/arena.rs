//! Structure-of-arrays DM store arena under the protocol core, and the
//! table of configurations its slots name.
//!
//! A DM's state is a `(version number, value)` pair per site per item. The
//! simulators used to keep these as `Vec<(u64, u64)>` — array-of-structs —
//! but the hot path is *asymmetric*: version-number discovery scans the
//! version numbers of a whole responder set and touches a value only at
//! the running maximum, and the lemma sweep compares version numbers
//! first. Splitting the pair into two parallel arrays packs twice as many
//! version numbers per cache line for those scans.
//!
//! Layout: slot `item * n + site` (the sharded simulator's flat-arena
//! convention; the single-item simulator is the `items == 1` special
//! case).
//!
//! # Configurations are ids
//!
//! Each slot also holds the `(generation, configuration)` pair of the
//! paper's §4 dynamic scheme. A run installs few distinct member sets —
//! the full membership, plus one per distinct reconfiguration target — so
//! a configuration is a [`CfgId`]: a 4-byte index into a [`CfgTable`],
//! an append-only table of member sets that never holds one twice. Each
//! entry also holds the quorum rule resized to its members, computed once
//! when the set is first interned, so asking for a configuration's rule is
//! a lookup. Id 0 ([`CfgId::FULL`]) is the full membership in every table.
//!
//! The table belongs to one cluster (one event loop); its ids mean nothing
//! anywhere else. The migration path ([`DmArena::read_block`] /
//! [`DmArena::write_block`]) decodes ids to member sets on the way out and
//! re-interns them on the way in, and traces, digests and reports see only
//! member sets.

use std::ops::Range;

use quorum::{ReplicaSet, Thresholds};

/// One DM slot's complete migratable state, its configuration decoded:
/// `(vn, value, cfg_gen, cfg_members)`.
pub type SlotState = (u64, u64, u64, ReplicaSet);

/// A member set's index in its cluster's [`CfgTable`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CfgId(u32);

impl CfgId {
    /// The full membership: every table's first entry, the default id, and
    /// every slot's configuration until a reconfiguration installs another.
    pub const FULL: CfgId = CfgId(0);
}

/// The append-only table of member sets a cluster's slots name by
/// [`CfgId`], each with the quorum rule over it.
#[derive(Clone, Debug)]
pub struct CfgTable {
    /// The quorum system's rule over all sites, when it has a threshold
    /// form; an entry's rule is this one resized to the entry's members.
    rule: Option<Thresholds>,
    /// `(members, rule over them)`, no member set twice.
    entries: Vec<(ReplicaSet, Option<Thresholds>)>,
}

impl CfgTable {
    /// A table holding the full membership of `n` sites as
    /// [`CfgId::FULL`], whose entries' rules are `rule` resized.
    #[must_use]
    pub fn new(n: usize, rule: Option<Thresholds>) -> Self {
        let mut table = CfgTable {
            rule,
            entries: Vec::new(),
        };
        table.intern(ReplicaSet::full(n));
        table
    }

    /// The id of `members`, appended with its rule if the table does not
    /// hold it yet.
    ///
    /// # Panics
    ///
    /// If the table already holds 2³² member sets (each is a distinct
    /// reconfiguration target of one run; nothing close fits in memory).
    pub fn intern(&mut self, members: ReplicaSet) -> CfgId {
        if let Some(i) = self.entries.iter().position(|&(m, _)| m == members) {
            return CfgId(i as u32);
        }
        let id = u32::try_from(self.entries.len()).expect("fewer than 2^32 member sets");
        self.entries
            .push((members, self.rule.and_then(|r| r.over(members))));
        CfgId(id)
    }

    /// The member set `id` names.
    #[inline]
    #[must_use]
    pub fn members(&self, id: CfgId) -> ReplicaSet {
        self.entries[id.0 as usize].0
    }

    /// The quorum rule over `id`'s members (`None` when the quorum system
    /// has no threshold form, or no resizing to them).
    #[inline]
    #[must_use]
    pub fn rule(&self, id: CfgId) -> Option<Thresholds> {
        self.entries[id.0 as usize].1
    }

    /// Every member set held, in id order.
    #[cfg(test)]
    pub(crate) fn member_sets(&self) -> Vec<ReplicaSet> {
        self.entries.iter().map(|&(m, _)| m).collect()
    }
}

/// Structure-of-arrays `(vn, value)` store arena, indexed `item·n + site`.
///
/// Each slot additionally carries the `(configuration, generation)` pair of
/// the paper's §4 dynamic scheme: `cfg_gen` and `cfg_id` are the generation
/// number and the [`CfgId`] of the member set the site last saw installed.
/// Both start at `(0, CfgId::FULL)` — the static configuration — and are
/// only touched by reconfigure ops, so static runs never read them on the
/// hot path.
#[derive(Clone, Debug)]
pub struct DmArena {
    /// Sites per item: the width of an item's block of slots.
    n: usize,
    vns: Vec<u64>,
    vals: Vec<u64>,
    cfg_gens: Vec<u64>,
    cfg_ids: Vec<CfgId>,
}

impl DmArena {
    /// An arena of `slots` stores in blocks of `sites_per_item`, all at
    /// `(vn 0, value 0)` and configuration generation 0 under
    /// [`CfgId::FULL`].
    #[must_use]
    pub fn new_configured(slots: usize, sites_per_item: usize) -> Self {
        DmArena {
            n: sites_per_item,
            vns: vec![0; slots],
            vals: vec![0; slots],
            cfg_gens: vec![0; slots],
            cfg_ids: vec![CfgId::FULL; slots],
        }
    }

    /// An arena of `slots` stores, all at `(vn 0, value 0)`, in one block
    /// of `slots` sites (the single-item convention where `slots == n`).
    #[must_use]
    pub fn new(slots: usize) -> Self {
        Self::new_configured(slots, slots)
    }

    /// The `(generation, configuration)` stored at `slot`.
    #[inline]
    #[must_use]
    pub fn cfg(&self, slot: usize) -> (u64, CfgId) {
        (self.cfg_gens[slot], self.cfg_ids[slot])
    }

    /// The configuration generation stored at `slot`.
    #[inline]
    #[must_use]
    pub fn cfg_gen(&self, slot: usize) -> u64 {
        self.cfg_gens[slot]
    }

    /// Install configuration `(gen, id)` at `slot`.
    #[inline]
    pub fn set_cfg(&mut self, slot: usize, gen: u64, id: CfgId) {
        self.cfg_gens[slot] = gen;
        self.cfg_ids[slot] = id;
    }

    /// The configuration-discovery fold: the `(gen, id)` of the last
    /// maximum generation among `sites` offset by `base`; `None` for an
    /// empty set.
    #[inline]
    #[must_use]
    pub fn discover_cfg(
        &self,
        base: usize,
        sites: impl IntoIterator<Item = usize>,
    ) -> Option<(u64, CfgId)> {
        let mut seen: Option<(u64, CfgId)> = None;
        for s in sites {
            let g = self.cfg_gens[base + s];
            if seen.is_none_or(|(gen, _)| g >= gen) {
                seen = Some((g, self.cfg_ids[base + s]));
            }
        }
        seen
    }

    /// Number of store slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vns.len()
    }

    /// Whether the arena has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vns.is_empty()
    }

    /// The version number at `slot`.
    #[inline]
    #[must_use]
    pub fn vn(&self, slot: usize) -> u64 {
        self.vns[slot]
    }

    /// The `(vn, value)` pair at `slot`.
    #[inline]
    #[must_use]
    pub fn get(&self, slot: usize) -> (u64, u64) {
        (self.vns[slot], self.vals[slot])
    }

    /// Install `(vn, value)` at `slot`.
    #[inline]
    pub fn set(&mut self, slot: usize, vn: u64, value: u64) {
        self.vns[slot] = vn;
        self.vals[slot] = value;
    }

    /// The discovery fold: the `(vn, value)` of the *last* maximum version
    /// among `sites` offset by `base` — exactly the
    /// `max_by_key(|(vn, _)| vn)` semantics the AoS code had (ties keep
    /// the later site), reading values only when the maximum advances.
    /// `(0, 0)` for an empty set.
    #[inline]
    #[must_use]
    pub fn discover(&self, base: usize, sites: impl IntoIterator<Item = usize>) -> (u64, u64) {
        let mut vn = 0u64;
        let mut val = 0u64;
        let mut any = false;
        for s in sites {
            let v = self.vns[base + s];
            if !any || v >= vn {
                vn = v;
                val = self.vals[base + s];
                any = true;
            }
        }
        (vn, val)
    }

    /// Copy out the item block starting at `base`, its configurations
    /// decoded through `table` — the migration export path. Nothing moves:
    /// the block stays where it is (its owner's item slot goes on the
    /// shard's free list).
    #[must_use]
    pub fn read_block(&self, base: usize, table: &CfgTable) -> Vec<SlotState> {
        (base..base + self.n)
            .map(|i| {
                let members = table.members(self.cfg_ids[i]);
                (self.vns[i], self.vals[i], self.cfg_gens[i], members)
            })
            .collect()
    }

    /// Overwrite the item block at `base` with `slots`, interning their
    /// member sets into `table`, and grow the arena when the block ends
    /// past its current end — the migration import path (a reused item
    /// slot overwrites in place, a fresh one appends).
    pub fn write_block(&mut self, base: usize, slots: &[SlotState], table: &mut CfgTable) {
        debug_assert_eq!(slots.len(), self.n, "one whole item block");
        let end = base + slots.len();
        if end > self.vns.len() {
            self.vns.resize(end, 0);
            self.vals.resize(end, 0);
            self.cfg_gens.resize(end, 0);
            self.cfg_ids.resize(end, CfgId::FULL);
        }
        for (i, &(vn, val, gen, members)) in (base..).zip(slots) {
            self.vns[i] = vn;
            self.vals[i] = val;
            self.cfg_gens[i] = gen;
            self.cfg_ids[i] = table.intern(members);
        }
    }

    /// Iterate `(site, vn, &value)` over one item's slots — the shape
    /// [`LemmaChecker::check_states`](qc_replication::LemmaChecker)
    /// consumes. `range` is in arena slots; sites are renumbered from 0.
    pub fn states(&self, range: Range<usize>) -> impl Iterator<Item = (usize, u64, &u64)> + '_ {
        let base = range.start;
        range.map(move |i| (i - base, self.vns[i], &self.vals[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum::{Majority, QuorumSpec};

    #[test]
    fn set_get_roundtrip() {
        let mut a = DmArena::new(6);
        assert_eq!(a.len(), 6);
        assert_eq!(a.get(4), (0, 0));
        a.set(4, 3, 99);
        assert_eq!(a.get(4), (3, 99));
        assert_eq!(a.vn(4), 3);
        assert_eq!(a.get(3), (0, 0));
    }

    #[test]
    fn discover_matches_max_by_key_semantics() {
        let mut a = DmArena::new(8);
        // Item 1 (base 4, n = 4): vns 2, 5, 5, 1 — ties on the max must
        // keep the *later* site, as Iterator::max_by_key does.
        a.set(4, 2, 10);
        a.set(5, 5, 20);
        a.set(6, 5, 30);
        a.set(7, 1, 40);
        let sites = [0usize, 1, 2, 3];
        let aos: Vec<(u64, u64)> = sites.iter().map(|&s| a.get(4 + s)).collect();
        let expect = aos.iter().copied().max_by_key(|&(vn, _)| vn).unwrap();
        assert_eq!(a.discover(4, sites), expect);
        assert_eq!(a.discover(4, sites), (5, 30));
        assert_eq!(a.discover(4, []), (0, 0));
    }

    #[test]
    fn a_table_interns_each_member_set_once_with_its_rule() {
        let rule = Majority::new(5).thresholds();
        let mut t = CfgTable::new(5, rule);
        assert_eq!(t.member_sets(), [ReplicaSet::full(5)]);
        assert_eq!(t.rule(CfgId::FULL), rule);
        let three: ReplicaSet = [0usize, 2, 4].into_iter().collect();
        let id = t.intern(three);
        assert_ne!(id, CfgId::FULL);
        assert_eq!(t.intern(three), id);
        assert_eq!(t.intern(ReplicaSet::full(5)), CfgId::FULL);
        assert_eq!(t.member_sets(), [ReplicaSet::full(5), three]);
        assert_eq!(t.members(id), three);
        assert_eq!(t.rule(id), rule.and_then(|r| r.over(three)));
        // A system with no threshold form has no rule anywhere.
        assert_eq!(CfgTable::new(5, None).rule(CfgId::FULL), None);
    }

    #[test]
    fn configurations_start_full_and_discover_like_versions() {
        let mut t = CfgTable::new(3, None);
        let mut a = DmArena::new_configured(6, 3);
        assert_eq!(a.cfg(0), (0, CfgId::FULL));
        assert_eq!(a.cfg_gen(5), 0);
        let shrunk = t.intern([0usize, 2].into_iter().collect());
        a.set_cfg(4, 2, shrunk);
        assert_eq!(a.cfg(4), (2, shrunk));
        // Discovery over item 1 (base 3): site 1 holds the maximum.
        assert_eq!(a.discover_cfg(3, [0usize, 1, 2]), Some((2, shrunk)));
        assert_eq!(a.discover_cfg(3, [0usize, 2]), Some((0, CfgId::FULL)));
        assert_eq!(a.discover_cfg(3, []), None);
    }

    #[test]
    fn blocks_are_read_and_written_in_place() {
        let mut t = CfgTable::new(3, None);
        let mut a = DmArena::new_configured(9, 3);
        for slot in 0..9 {
            a.set(slot, slot as u64, slot as u64 * 10);
        }
        let shrunk: ReplicaSet = [0usize, 1].into_iter().collect();
        a.set_cfg(4, 7, t.intern(shrunk));
        // Reading item 1 (slots 3..6) moves nothing and decodes the ids.
        let moved = a.read_block(3, &t);
        assert_eq!(a.len(), 9);
        assert_eq!(moved[1], (4, 40, 7, shrunk));
        assert_eq!(moved[0].3, ReplicaSet::full(3));
        assert_eq!(a.get(6), (6, 60));
        // Into another table, where the ids differ: the sets re-intern.
        let mut other = CfgTable::new(3, None);
        let first = other.intern([2usize].into_iter().collect());
        let mut b = DmArena::new_configured(3, 3);
        b.write_block(0, &moved, &mut other);
        assert_eq!(b.read_block(0, &other), moved);
        assert_eq!(b.cfg(1), (7, CfgId(2)));
        assert_eq!((first, other.member_sets().len()), (CfgId(1), 3));
        // Overwrite item 0 in place: its neighbours are untouched.
        a.write_block(0, &moved, &mut t);
        assert_eq!(a.len(), 9);
        assert_eq!(a.get(0), (3, 30));
        assert_eq!(a.cfg(1), (7, t.intern(shrunk)));
        assert_eq!(a.get(3), (3, 30));
        // A block at the current end appends.
        a.write_block(9, &moved, &mut t);
        assert_eq!(a.len(), 12);
        assert_eq!(a.get(11), (5, 50));
        assert_eq!(a.read_block(9, &t)[1], (4, 40, 7, shrunk));
        assert_eq!(a.get(8), (8, 80));
        assert_eq!(t.member_sets().len(), 2);
    }

    #[test]
    fn states_renumbers_sites_per_item() {
        let mut a = DmArena::new(6);
        a.set(3, 7, 70);
        let got: Vec<(usize, u64, u64)> = a.states(3..6).map(|(s, vn, &v)| (s, vn, v)).collect();
        assert_eq!(got, vec![(0, 7, 70), (1, 0, 0), (2, 0, 0)]);
    }
}
