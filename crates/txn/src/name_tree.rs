//! Per-name state kept on the transaction name tree itself.
//!
//! A name can also be *retired*: once a transaction has returned and no
//! later operation will name it again, its parent's retirement watermark
//! moves past it and its slot is reused. The Theorem 10 checker retires
//! each top-level access `T0.k` as its block closes, which is what keeps
//! serial system **A** at a constant size however long the trace.

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

/// A table from transaction names to `T`, stored as the name tree (§2.2:
/// the tree is "known in advance by all the components").
///
/// Every name ever [entered](NameTree::entry) has a *slot* — an index into
/// one `Vec<T>`, slot 0 being the root `T0` — and so does every ancestor
/// of such a name, holding `T::default()` until someone writes to it. A
/// name is looked up by walking its path (`&[u32]`, which a
/// [`Tid`](crate::Tid) lends without building anything) down the child
/// lists, and the walk hands back the parent's slot with the name's own.
///
/// A parent's children `0, 1, 2, …` entered in that order — what a
/// well-formed parent asks for — cost one `u32` each, an O(1) append and
/// an O(1) probe. Any other index (`T0.4294967295` before `T0.0`, gaps,
/// late arrivals) goes to a list ordered by index and probed by binary
/// search, so memory is proportional to the names entered and never to an
/// index's value.
///
/// Each parent also has a *retirement watermark*, 0 until a child is
/// [retired](NameTree::retire): every child index below it is gone. A
/// retired name has no slot (its slot is handed to the next name entered),
/// cannot be entered again, and leaves nothing behind but the watermark,
/// so a parent whose children `0, 1, 2, …` are each retired in turn holds
/// only its live ones and its `T0.k` probes stay dense.
///
/// [`walk`](NameTree::walk) visits the slots in pre-order with children
/// ascending, which is the lexicographic order of the paths: the order in
/// which a `BTreeMap<Tid, T>` iterates.
#[derive(Clone, Debug)]
pub(crate) struct NameTree<T> {
    values: Vec<T>,
    /// For the slots that have children, where in `kids` their child list
    /// is; `NO_KIDS` (or past the end) for the rest. It is as long as the
    /// highest-numbered parent needs, not one entry per slot.
    kid_list: Vec<u32>,
    kids: Vec<Kids>,
    /// Slots of retired names, reset to the default, for the next names
    /// entered.
    free: Vec<u32>,
}

const NO_KIDS: u32 = u32::MAX;

/// The children of one slot.
#[derive(Clone, Debug, Default)]
struct Kids {
    /// The retirement watermark: every child index below it is retired.
    /// (A `u64`, so child `u32::MAX` can be retired too.)
    retired: u64,
    /// Slots of the children `retired..retired + dense.len()`, by index.
    dense: VecDeque<u32>,
    /// The other children as `(index, slot)`, ascending by index; every
    /// index is greater than `retired + dense.len()`.
    sparse: Vec<(u32, u32)>,
}

impl Kids {
    fn get(&self, index: u32) -> Option<usize> {
        let offset = u64::from(index).checked_sub(self.retired)?;
        let slot = match self.dense.get(offset as usize) {
            Some(&slot) => slot,
            None => {
                let at = self.sparse.binary_search_by_key(&index, |&(i, _)| i).ok()?;
                self.sparse[at].1
            }
        };
        Some(slot as usize)
    }

    /// The index the dense run would take next.
    fn next_dense(&self) -> u64 {
        self.retired + self.dense.len() as u64
    }

    /// Child `index`, which has no slot and is not retired, now lives at
    /// `slot`.
    fn insert(&mut self, index: u32, slot: u32) {
        if u64::from(index) != self.next_dense() {
            let at = self.sparse.partition_point(|&(i, _)| i < index);
            self.sparse.insert(at, (index, slot));
            return;
        }
        self.dense.push_back(slot);
        self.join_reached();
    }

    /// Sparse children the dense run has reached join it.
    fn join_reached(&mut self) {
        let reached = self
            .sparse
            .iter()
            .zip(self.next_dense()..)
            .take_while(|&(&(i, _), next)| u64::from(i) == next)
            .count();
        self.dense
            .extend(self.sparse.drain(..reached).map(|(_, slot)| slot));
    }

    /// Retire child `index` if it is the lowest live child, moving the
    /// watermark just past it; its slot, or `None` (and nothing changed)
    /// if it is not.
    fn retire(&mut self, index: u32) -> Option<u32> {
        let slot = match self.dense.front() {
            Some(&slot) if u64::from(index) == self.retired => {
                self.dense.pop_front();
                slot
            }
            Some(_) => return None,
            None => {
                let &(lowest, slot) = self.sparse.first()?;
                if lowest != index {
                    return None;
                }
                self.sparse.remove(0);
                slot
            }
        };
        self.retired = u64::from(index) + 1;
        self.join_reached();
        Some(slot)
    }

    /// The `n`-th live child in index order, as `(index, slot)`.
    fn nth(&self, n: usize) -> Option<(u32, usize)> {
        let (index, slot) = match self.dense.get(n) {
            // A live child's index is a `u32`.
            Some(&slot) => ((self.retired + n as u64) as u32, slot),
            None => *self.sparse.get(n - self.dense.len())?,
        };
        Some((index, slot as usize))
    }
}

/// Where a name lives: its slot and its parent's (`None` for the root).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct At {
    pub(crate) parent: Option<usize>,
    pub(crate) slot: usize,
}

impl<T: Default> NameTree<T> {
    /// The tree holding only the root, at its default.
    pub(crate) fn new() -> Self {
        NameTree {
            values: vec![T::default()],
            kid_list: Vec::new(),
            kids: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The slot of `path`, made (with those of its missing ancestors) if
    /// the name was never entered; `None`, with nothing made, if the name
    /// or one of its ancestors is retired.
    pub(crate) fn entry(&mut self, path: &[u32]) -> Option<At> {
        let mut at = At {
            parent: None,
            slot: 0,
        };
        for &index in path {
            let child = match self.kids_of(at.slot) {
                Some(kids) if u64::from(index) < kids.retired => return None,
                Some(kids) => kids.get(index),
                None => None,
            };
            let child = match child {
                Some(child) => child,
                None => self.add_child(at.slot, index),
            };
            at = At {
                parent: Some(at.slot),
                slot: child,
            };
        }
        Some(at)
    }

    fn add_child(&mut self, parent: usize, index: u32) -> usize {
        let slot_u32 = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.values.len())
                    .expect("a name tree holds fewer than 2^32 names");
                self.values.push(T::default());
                slot
            }
        };
        if self.kid_list.len() <= parent {
            self.kid_list.resize(parent + 1, NO_KIDS);
        }
        if self.kid_list[parent] == NO_KIDS {
            self.kid_list[parent] =
                u32::try_from(self.kids.len()).expect("fewer parents than names");
            self.kids.push(Kids::default());
        }
        self.kids[self.kid_list[parent] as usize].insert(index, slot_u32);
        slot_u32 as usize
    }

    /// Retire `path`: move its parent's watermark just past it and free
    /// its slot. Only the lowest live child of its parent that never had a
    /// child entered can be retired; otherwise the reason, with nothing
    /// changed.
    pub(crate) fn retire(&mut self, path: &[u32]) -> Result<(), &'static str> {
        let Some((&index, _)) = path.split_last() else {
            return Err("the root cannot be retired");
        };
        let at = self
            .locate(path)
            .ok_or("it was never entered or is already retired")?;
        if self.kids_of(at.slot).is_some() {
            return Err("it has entered children");
        }
        let parent = at.parent.expect("a non-root name has a parent");
        let list = self.kid_list[parent] as usize;
        let slot = self.kids[list]
            .retire(index)
            .ok_or("a lower child of its parent is still live")?;
        self.values[slot as usize] = T::default();
        self.free.push(slot);
        Ok(())
    }
}

impl<T> NameTree<T> {
    fn kids_of(&self, slot: usize) -> Option<&Kids> {
        let list = *self.kid_list.get(slot)?;
        self.kids.get(list as usize)
    }

    fn child(&self, slot: usize, index: u32) -> Option<usize> {
        self.kids_of(slot)?.get(index)
    }

    /// Where `path` lives, if the name (or a descendant) was entered and
    /// is not retired.
    pub(crate) fn locate(&self, path: &[u32]) -> Option<At> {
        let mut at = At {
            parent: None,
            slot: 0,
        };
        for &index in path {
            at = At {
                parent: Some(at.slot),
                slot: self.child(at.slot, index)?,
            };
        }
        Some(at)
    }

    /// The value at `path`, if the name (or a descendant) was entered and
    /// is not retired.
    pub(crate) fn get(&self, path: &[u32]) -> Option<&T> {
        self.locate(path).map(|at| &self.values[at.slot])
    }

    /// The values of `path`'s ancestors that have slots, from the root
    /// down, `path` itself last.
    pub(crate) fn along<'a>(&'a self, path: &'a [u32]) -> impl Iterator<Item = &'a T> {
        let mut slot = Some(0);
        let mut rest = path.iter();
        std::iter::from_fn(move || {
            let here = slot?;
            slot = rest.next().and_then(|&index| self.child(here, index));
            Some(&self.values[here])
        })
    }

    /// Show `visit` every slot's path, its parent's value (`None` at the
    /// root) and its own, in pre-order with children ascending — the
    /// lexicographic order of the paths.
    pub(crate) fn walk(&self, mut visit: impl FnMut(&[u32], Option<&T>, &T)) {
        let mut path: Vec<u32> = Vec::new();
        // The slots of the path's names, root first, each with how many
        // of its children have been entered.
        let mut open: Vec<(usize, usize)> = vec![(0, 0)];
        visit(&path, None, &self.values[0]);
        while let Some((slot, entered)) = open.last_mut() {
            let parent = *slot;
            match self.kids_of(parent).and_then(|kids| kids.nth(*entered)) {
                Some((index, child)) => {
                    *entered += 1;
                    path.push(index);
                    visit(&path, Some(&self.values[parent]), &self.values[child]);
                    open.push((child, 0));
                }
                None => {
                    open.pop();
                    path.pop();
                }
            }
        }
    }
}

impl<T> Index<usize> for NameTree<T> {
    type Output = T;

    fn index(&self, slot: usize) -> &T {
        &self.values[slot]
    }
}

impl<T> IndexMut<usize> for NameTree<T> {
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.values[slot]
    }
}

/// The child indices the crate's property tests build names from.
#[cfg(test)]
pub(crate) mod testing {
    /// Mostly the first few, so generated names repeat, with a gap (`7`)
    /// and two far ones that no dense table could index.
    pub(crate) const INDICES: [u32; 10] = [0, 0, 0, 1, 1, 2, 2, 7, 1_000_000, u32::MAX];

    /// The path whose components are `INDICES[pick]`.
    pub(crate) fn wide_path(picks: &[usize]) -> Vec<u32> {
        picks.iter().map(|&pick| INDICES[pick]).collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::tid::Tid;

    fn paths_of(tree: &NameTree<u32>) -> Vec<(Vec<u32>, u32)> {
        let mut seen = Vec::new();
        tree.walk(|path, _, v| seen.push((path.to_vec(), *v)));
        seen
    }

    #[test]
    fn in_order_children_stay_dense_and_strays_join_when_reached() {
        let mut tree: NameTree<u32> = NameTree::new();
        for k in [u32::MAX, 2, 0, 5, 1] {
            let at = tree.entry(&[k]).expect("nothing is retired");
            assert_eq!(at.parent, Some(0));
            tree[at.slot] = k;
        }
        let root = tree.kids_of(0).expect("the root has children");
        // 0, 1 and the 2 that was waiting; 5 and u32::MAX still stray.
        assert_eq!(root.dense.len(), 3);
        assert_eq!(root.retired, 0);
        assert_eq!(root.sparse.len(), 2);
        assert_eq!(
            tree.values.len(),
            6,
            "one slot per name, whatever the index"
        );
        let order: Vec<u32> = paths_of(&tree)[1..].iter().map(|(_, v)| *v).collect();
        assert_eq!(order, [0, 1, 2, 5, u32::MAX]);
        assert_eq!(tree.get(&[5]), Some(&5));
        assert_eq!(tree.get(&[3]), None);
        assert_eq!(tree.get(&[5, 0]), None);
    }

    #[test]
    fn ancestors_get_default_slots_and_along_stops_where_the_tree_does() {
        let mut tree: NameTree<u32> = NameTree::new();
        let at = tree.entry(&[7, 1, 4]).expect("nothing is retired");
        tree[at.slot] = 9;
        assert_eq!(tree.locate(&[7, 1]).map(|a| a.slot), at.parent);
        assert_eq!(tree.get(&[7]), Some(&0));
        let seen: Vec<u32> = tree.along(&[7, 1, 4, 2, 2]).copied().collect();
        assert_eq!(seen, [0, 0, 0, 9]);
        assert_eq!(tree.along(&[3]).count(), 1, "only the root");
    }

    #[test]
    fn retiring_each_child_in_turn_keeps_the_tree_at_its_live_names() {
        let mut tree: NameTree<u32> = NameTree::new();
        for k in 0..1000u32 {
            let at = tree.entry(&[k]).expect("a fresh name");
            tree[at.slot] = k + 1;
            tree.retire(&[k]).expect("the lowest live child, returned");
            assert_eq!(tree.get(&[k]), None);
            assert_eq!(
                tree.entry(&[k]),
                None,
                "a retired name is never entered again"
            );
            assert_eq!(tree.entry(&[k, 0]), None, "nor is a name below it");
        }
        assert_eq!(tree.values.len(), 2, "one slot reused throughout");
        let root = tree.kids_of(0).expect("the root has a child list");
        assert_eq!((root.retired, root.dense.len()), (1000, 0));
        assert_eq!(paths_of(&tree), [(vec![], 0)]);
        let at = tree.entry(&[1000]).expect("the next name is fresh");
        assert_eq!(tree[at.slot], 0, "a reused slot starts at the default");
    }

    #[test]
    fn retire_refuses_anything_but_a_childless_lowest_live_child() {
        let mut tree: NameTree<u32> = NameTree::new();
        for path in [&[0][..], &[1], &[1, 0], &[5]] {
            let at = tree.entry(path).expect("nothing is retired");
            tree[at.slot] = 7;
        }
        let before = paths_of(&tree);
        assert!(tree.retire(&[]).is_err(), "the root");
        assert!(tree.retire(&[3]).is_err(), "never entered");
        assert!(tree.retire(&[1]).is_err(), "a lower child is live");
        assert!(tree.retire(&[5]).is_err(), "lower children are live");
        assert!(tree.retire(&[1, 1]).is_err(), "never entered");
        assert_eq!(paths_of(&tree), before, "a refusal changes nothing");
        tree.retire(&[0]).expect("the lowest live child");
        assert!(tree.retire(&[0]).is_err(), "already retired");
        assert!(tree.retire(&[1]).is_err(), "it has an entered child");
        tree.retire(&[1, 0]).expect("the lowest live child of T0.1");
        assert!(tree.retire(&[1]).is_err(), "it had an entered child");
        assert_eq!(tree.entry(&[1, 0]), None);
        assert!(tree.entry(&[1, 1]).is_some(), "above T0.1's watermark");
    }

    #[test]
    fn retiring_a_stray_moves_the_watermark_past_the_gap() {
        let mut tree: NameTree<u32> = NameTree::new();
        for k in [5, 6, 9] {
            tree.entry(&[k]).expect("nothing is retired");
        }
        tree.retire(&[5]).expect("the lowest live child");
        // 6 has joined the dense run at the new watermark; 9 still strays.
        let root = tree.kids_of(0).expect("the root has children");
        assert_eq!(
            (root.retired, root.dense.len(), root.sparse.len()),
            (6, 1, 1)
        );
        assert_eq!(tree.entry(&[3]), None, "below the watermark");
        assert!(tree.entry(&[7]).is_some());
        assert_eq!(tree.get(&[6]), Some(&0));
        tree.retire(&[6]).expect("the lowest live child");
        tree.retire(&[7]).expect("the lowest live child");
        tree.retire(&[9]).expect("the lowest live child");
        let root = tree.kids_of(0).expect("the root has children");
        assert_eq!(
            (root.retired, root.dense.len(), root.sparse.len()),
            (10, 0, 0)
        );
        tree.entry(&[u32::MAX]).expect("a fresh name");
        tree.retire(&[u32::MAX])
            .expect("the last index retires too");
        assert_eq!(tree.entry(&[u32::MAX]), None);
        assert_eq!(
            tree.values.len(),
            4,
            "never more slots than names live at once"
        );
    }

    proptest! {
        /// Against the ordered table it replaces: same keys (plus the
        /// ancestors' defaults), same values, same iteration order.
        #[test]
        fn walk_is_btreemap_order(
            names in prop::collection::vec(
                prop::collection::vec(0usize..testing::INDICES.len(), 0..5),
                0..60,
            ),
        ) {
            let mut tree: NameTree<u32> = NameTree::new();
            let mut table: BTreeMap<Tid, u32> = BTreeMap::from([(Tid::root(), 0)]);
            for (n, picks) in names.iter().enumerate() {
                let path = &testing::wide_path(picks);
                let stamp = n as u32 + 1;
                let at = tree.entry(path).expect("nothing is retired");
                tree[at.slot] = stamp;
                for d in 0..path.len() {
                    table.entry(Tid::from_path(&path[..d])).or_insert(0);
                }
                table.insert(Tid::from_path(path), stamp);
                prop_assert_eq!(tree.locate(path), Some(at));
                prop_assert_eq!(
                    at.parent,
                    path.split_last().and_then(|(_, p)| tree.locate(p)).map(|a| a.slot)
                );
            }
            let expected: Vec<(Vec<u32>, u32)> =
                table.iter().map(|(t, v)| (t.path().to_vec(), *v)).collect();
            prop_assert_eq!(paths_of(&tree), expected);
            prop_assert_eq!(tree.values.len(), table.len());
        }

        /// With retirements: against the ordered table and a watermark per
        /// parent. A step enters a name or retires one; the tree refuses
        /// exactly what the contract refuses, and holds exactly the live
        /// names.
        #[test]
        fn retiring_agrees_with_the_ordered_table(
            steps in prop::collection::vec(
                (0u8..3, prop::collection::vec(0usize..testing::INDICES.len(), 0..4)),
                0..80,
            ),
        ) {
            let mut tree: NameTree<u32> = NameTree::new();
            let mut table: BTreeMap<Tid, u32> = BTreeMap::from([(Tid::root(), 0)]);
            let mut watermarks: BTreeMap<Tid, u64> = BTreeMap::new();
            let mut parents: std::collections::BTreeSet<Tid> = Default::default();
            let retired = |watermarks: &BTreeMap<Tid, u64>, path: &[u32]| {
                (0..path.len()).any(|d| {
                    let parent = Tid::from_path(&path[..d]);
                    u64::from(path[d]) < watermarks.get(&parent).copied().unwrap_or(0)
                })
            };
            for (n, (retire, picks)) in steps.iter().enumerate() {
                let path = &testing::wide_path(picks);
                let name = Tid::from_path(path);
                if *retire == 0 {
                    let allowed = path.split_last().is_some_and(|(&index, up)| {
                        let parent = Tid::from_path(up);
                        table.contains_key(&name)
                            && !parents.contains(&name)
                            && !table.keys().any(|t| {
                                t.is_child_of(&parent) && t.path().last() < Some(&index)
                            })
                    });
                    prop_assert_eq!(tree.retire(path).is_ok(), allowed, "retire {}", &name);
                    if allowed {
                        table.remove(&name);
                        let parent = Tid::from_path(&path[..path.len() - 1]);
                        watermarks.insert(parent, u64::from(path[path.len() - 1]) + 1);
                    }
                } else {
                    let at = tree.entry(path);
                    prop_assert_eq!(at.is_none(), retired(&watermarks, path), "enter {}", &name);
                    if let Some(at) = at {
                        let stamp = n as u32 + 1;
                        tree[at.slot] = stamp;
                        for d in 0..path.len() {
                            table.entry(Tid::from_path(&path[..d])).or_insert(0);
                            parents.insert(Tid::from_path(&path[..d]));
                        }
                        table.insert(name, stamp);
                    }
                }
                let expected: Vec<(Vec<u32>, u32)> =
                    table.iter().map(|(t, v)| (t.path().to_vec(), *v)).collect();
                prop_assert_eq!(paths_of(&tree), expected);
                prop_assert_eq!(tree.values.len() - tree.free.len(), table.len());
            }
        }
    }
}
