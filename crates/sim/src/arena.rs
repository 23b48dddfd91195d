//! Structure-of-arrays DM store arena under the protocol core.
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

use std::ops::Range;

use quorum::ReplicaSet;

/// One DM slot's complete migratable state:
/// `(vn, value, cfg_gen, cfg_members)`.
pub type SlotState = (u64, u64, u64, ReplicaSet);

/// Structure-of-arrays `(vn, value)` store arena, indexed `item·n + site`.
///
/// Each slot additionally carries the `(configuration, generation)` pair of
/// the paper's §4 dynamic scheme: `cfg_gen`/`cfg_members` are the
/// generation number and member set the site last saw installed. Both
/// start at `(0, full membership)` — the static configuration — and are
/// only touched by reconfigure ops, so static runs never read them on the
/// hot path.
#[derive(Clone, Debug)]
pub struct DmArena {
    vns: Vec<u64>,
    vals: Vec<u64>,
    cfg_gens: Vec<u64>,
    cfg_members: Vec<ReplicaSet>,
}

impl DmArena {
    /// An arena of `slots` stores, all at `(vn 0, value 0)` and
    /// configuration generation 0 with `sites_per_item` members.
    #[must_use]
    pub fn new_configured(slots: usize, sites_per_item: usize) -> Self {
        DmArena {
            vns: vec![0; slots],
            vals: vec![0; slots],
            cfg_gens: vec![0; slots],
            cfg_members: vec![ReplicaSet::full(sites_per_item); slots],
        }
    }

    /// An arena of `slots` stores, all at `(vn 0, value 0)`; every slot's
    /// initial configuration is the full `slots`-site membership (the
    /// single-item convention where `slots == n`).
    #[must_use]
    pub fn new(slots: usize) -> Self {
        Self::new_configured(slots, slots)
    }

    /// The `(generation, members)` configuration stored at `slot`.
    #[inline]
    #[must_use]
    pub fn cfg(&self, slot: usize) -> (u64, ReplicaSet) {
        (self.cfg_gens[slot], self.cfg_members[slot])
    }

    /// The configuration generation stored at `slot`.
    #[inline]
    #[must_use]
    pub fn cfg_gen(&self, slot: usize) -> u64 {
        self.cfg_gens[slot]
    }

    /// Install configuration `(gen, members)` at `slot`.
    #[inline]
    pub fn set_cfg(&mut self, slot: usize, gen: u64, members: ReplicaSet) {
        self.cfg_gens[slot] = gen;
        self.cfg_members[slot] = members;
    }

    /// The configuration-discovery fold: the `(gen, members)` of the last
    /// maximum generation among `sites` offset by `base`; `(0, EMPTY)` for
    /// an empty set.
    #[inline]
    #[must_use]
    pub fn discover_cfg(
        &self,
        base: usize,
        sites: impl IntoIterator<Item = usize>,
    ) -> (u64, ReplicaSet) {
        let mut gen = 0u64;
        let mut members = ReplicaSet::EMPTY;
        let mut any = false;
        for s in sites {
            let g = self.cfg_gens[base + s];
            if !any || g >= gen {
                gen = g;
                members = self.cfg_members[base + s];
                any = true;
            }
        }
        (gen, members)
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

    /// Copy out one item's `n` consecutive slots starting at `base` — the
    /// migration export path. Nothing moves: the block stays where it is
    /// (its owner's item slot goes on the shard's free list).
    #[must_use]
    pub fn read_block(&self, base: usize, n: usize) -> Vec<SlotState> {
        (base..base + n)
            .map(|i| (self.vns[i], self.vals[i], self.cfg_gens[i], self.cfg_members[i]))
            .collect()
    }

    /// Overwrite the block at `base` with `slots`, growing the arena when
    /// the block ends past its current end — the migration import path
    /// (a reused item slot overwrites in place, a fresh one appends).
    pub fn write_block(&mut self, base: usize, slots: &[SlotState]) {
        let end = base + slots.len();
        if end > self.vns.len() {
            self.vns.resize(end, 0);
            self.vals.resize(end, 0);
            self.cfg_gens.resize(end, 0);
            self.cfg_members.resize(end, ReplicaSet::EMPTY);
        }
        for (i, &(vn, val, gen, members)) in (base..).zip(slots) {
            self.vns[i] = vn;
            self.vals[i] = val;
            self.cfg_gens[i] = gen;
            self.cfg_members[i] = members;
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
    fn configurations_start_full_and_discover_like_versions() {
        let mut a = DmArena::new_configured(6, 3);
        let full: ReplicaSet = ReplicaSet::full(3);
        assert_eq!(a.cfg(0), (0, full));
        assert_eq!(a.cfg_gen(5), 0);
        let shrunk: ReplicaSet = [0usize, 2].into_iter().collect();
        a.set_cfg(4, 2, shrunk);
        assert_eq!(a.cfg(4), (2, shrunk));
        // Discovery over item 1 (base 3): site 1 holds the maximum.
        assert_eq!(a.discover_cfg(3, [0usize, 1, 2]), (2, shrunk));
        assert_eq!(a.discover_cfg(3, [0usize, 2]), (0, full));
        assert_eq!(a.discover_cfg(3, []), (0, ReplicaSet::EMPTY));
    }

    #[test]
    fn blocks_are_read_and_written_in_place() {
        let mut a = DmArena::new_configured(9, 3);
        for slot in 0..9 {
            a.set(slot, slot as u64, slot as u64 * 10);
        }
        let shrunk: ReplicaSet = [0usize, 1].into_iter().collect();
        a.set_cfg(4, 7, shrunk);
        // Reading item 1 (slots 3..6) moves nothing.
        let moved = a.read_block(3, 3);
        assert_eq!(a.len(), 9);
        assert_eq!(moved[1], (4, 40, 7, shrunk));
        assert_eq!(a.get(6), (6, 60));
        // Overwrite item 0 in place: its neighbours are untouched.
        a.write_block(0, &moved);
        assert_eq!(a.len(), 9);
        assert_eq!(a.get(0), (3, 30));
        assert_eq!(a.cfg(1), (7, shrunk));
        assert_eq!(a.get(3), (3, 30));
        // A block at the current end appends.
        a.write_block(9, &moved);
        assert_eq!(a.len(), 12);
        assert_eq!(a.get(11), (5, 50));
        assert_eq!(a.cfg(10), (7, shrunk));
        assert_eq!(a.get(8), (8, 80));
    }

    #[test]
    fn states_renumbers_sites_per_item() {
        let mut a = DmArena::new(6);
        a.set(3, 7, 70);
        let got: Vec<(usize, u64, u64)> =
            a.states(3..6).map(|(s, vn, &v)| (s, vn, v)).collect();
        assert_eq!(got, vec![(0, 7, 70), (1, 0, 0), (2, 0, 0)]);
    }
}
