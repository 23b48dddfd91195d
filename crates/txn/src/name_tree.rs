//! Per-name state kept on the transaction name tree itself.

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
}

const NO_KIDS: u32 = u32::MAX;

/// The children of one slot.
#[derive(Clone, Debug, Default)]
struct Kids {
    /// Slots of the children `0..dense.len()`, by index.
    dense: Vec<u32>,
    /// The other children as `(index, slot)`, ascending by index; every
    /// index is greater than `dense.len()`.
    sparse: Vec<(u32, u32)>,
}

impl Kids {
    fn get(&self, index: u32) -> Option<usize> {
        let slot = match self.dense.get(index as usize) {
            Some(&slot) => slot,
            None => {
                let at = self.sparse.binary_search_by_key(&index, |&(i, _)| i).ok()?;
                self.sparse[at].1
            }
        };
        Some(slot as usize)
    }

    /// Child `index`, which has no slot yet, now lives at `slot`.
    fn insert(&mut self, index: u32, slot: u32) {
        if index as usize != self.dense.len() {
            let at = self.sparse.partition_point(|&(i, _)| i < index);
            self.sparse.insert(at, (index, slot));
            return;
        }
        self.dense.push(slot);
        // Sparse children the dense run has now reached join it.
        let reached = self
            .sparse
            .iter()
            .zip(self.dense.len()..)
            .take_while(|&(&(i, _), next)| i as usize == next)
            .count();
        self.dense
            .extend(self.sparse.drain(..reached).map(|(_, slot)| slot));
    }

    /// The `n`-th child in index order, as `(index, slot)`.
    fn nth(&self, n: usize) -> Option<(u32, usize)> {
        let (index, slot) = match self.dense.get(n) {
            Some(&slot) => (n as u32, slot),
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
        }
    }

    /// The slot of `path`, made (with those of its missing ancestors) if
    /// the name was never entered.
    pub(crate) fn entry(&mut self, path: &[u32]) -> At {
        let mut at = At {
            parent: None,
            slot: 0,
        };
        for &index in path {
            let child = match self.child(at.slot, index) {
                Some(child) => child,
                None => self.add_child(at.slot, index),
            };
            at = At {
                parent: Some(at.slot),
                slot: child,
            };
        }
        at
    }

    fn add_child(&mut self, parent: usize, index: u32) -> usize {
        let slot = self.values.len();
        let slot_u32 = u32::try_from(slot).expect("a name tree holds fewer than 2^32 names");
        self.values.push(T::default());
        if self.kid_list.len() <= parent {
            self.kid_list.resize(parent + 1, NO_KIDS);
        }
        if self.kid_list[parent] == NO_KIDS {
            self.kid_list[parent] =
                u32::try_from(self.kids.len()).expect("fewer parents than names");
            self.kids.push(Kids::default());
        }
        self.kids[self.kid_list[parent] as usize].insert(index, slot_u32);
        slot
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

    /// Where `path` lives, if the name (or a descendant) was ever entered.
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

    /// The value at `path`, if the name (or a descendant) was ever entered.
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
            let at = tree.entry(&[k]);
            assert_eq!(at.parent, Some(0));
            tree[at.slot] = k;
        }
        let root = tree.kids_of(0).expect("the root has children");
        // 0, 1 and the 2 that was waiting; 5 and u32::MAX still stray.
        assert_eq!(root.dense.len(), 3);
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
        let at = tree.entry(&[7, 1, 4]);
        tree[at.slot] = 9;
        assert_eq!(tree.locate(&[7, 1]).map(|a| a.slot), at.parent);
        assert_eq!(tree.get(&[7]), Some(&0));
        let seen: Vec<u32> = tree.along(&[7, 1, 4, 2, 2]).copied().collect();
        assert_eq!(seen, [0, 0, 0, 9]);
        assert_eq!(tree.along(&[3]).count(), 1, "only the root");
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
                let at = tree.entry(path);
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
    }
}
