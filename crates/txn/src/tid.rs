//! Transaction names, organised into a tree.

use std::borrow::Borrow;
use std::fmt;
use std::sync::{Arc, LazyLock};

/// A transaction name: a path from the root `T0` of the transaction tree
/// (paper §2.2, the *system type*).
///
/// The tree structure is "known in advance by all the components of the
/// system and can be thought of as a predefined naming scheme for all
/// possible transactions that might ever be invoked". We realise that naming
/// scheme as index paths: the root is the empty path and the `i`-th child of
/// `t` is `t` extended with `i`. Only some of the (infinitely many) names
/// take steps in any given execution.
///
/// `Tid`s are cheap to clone (shared storage) and order lexicographically,
/// so a parent sorts before its descendants.
///
/// # Example
///
/// ```
/// use nested_txn::Tid;
///
/// let root = Tid::root();
/// let t = root.child(1).child(3);
/// assert_eq!(t.to_string(), "T0.1.3");
/// assert_eq!(t.parent(), Some(root.child(1)));
/// assert!(root.is_ancestor_of(&t));
/// assert!(t.is_ancestor_of(&t)); // a transaction is its own ancestor
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(Arc<[u32]>);

impl Tid {
    /// The root transaction `T0`, which models the external environment.
    ///
    /// Every call shares one allocation.
    pub fn root() -> Self {
        static ROOT: LazyLock<Tid> = LazyLock::new(|| Tid(Arc::from([] as [u32; 0])));
        ROOT.clone()
    }

    /// The `index`-th child of this transaction.
    pub fn child(&self, index: u32) -> Self {
        // An exact-size iterator lets `Arc` allocate the path once, with no
        // intermediate `Vec`.
        Tid(self.0.iter().copied().chain([index]).collect())
    }

    /// Construct from an explicit path (root = empty path).
    pub fn from_path(path: &[u32]) -> Self {
        Tid(Arc::from(path))
    }

    /// The path from the root (empty for the root itself).
    pub fn path(&self) -> &[u32] {
        &self.0
    }

    /// The parent, or `None` for the root.
    pub fn parent(&self) -> Option<Tid> {
        if self.0.is_empty() {
            None
        } else {
            Some(Tid(Arc::from(&self.0[..self.0.len() - 1])))
        }
    }

    /// Depth in the tree (root = 0).
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// Whether this is the root `T0`.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// The index of this transaction among its siblings.
    ///
    /// Returns `None` for the root.
    pub fn last_index(&self) -> Option<u32> {
        self.0.last().copied()
    }

    /// Whether `self` is an ancestor of `other`. Per the paper, "a
    /// transaction is its own ancestor and descendant".
    pub fn is_ancestor_of(&self, other: &Tid) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == *self.0
    }

    /// Whether `self` is a *proper* ancestor (ancestor and not equal).
    pub fn is_proper_ancestor_of(&self, other: &Tid) -> bool {
        other.0.len() > self.0.len() && other.0[..self.0.len()] == *self.0
    }

    /// Whether `self` is a descendant of `other`.
    pub fn is_descendant_of(&self, other: &Tid) -> bool {
        other.is_ancestor_of(self)
    }

    /// Whether `self` and `other` are siblings (same parent, different
    /// names). The root has no siblings.
    pub fn is_sibling_of(&self, other: &Tid) -> bool {
        self != other
            && !self.0.is_empty()
            && self.0.len() == other.0.len()
            && self.0[..self.0.len() - 1] == other.0[..other.0.len() - 1]
    }

    /// Whether `self` is a child of `other`.
    pub fn is_child_of(&self, other: &Tid) -> bool {
        self.0
            .split_last()
            .is_some_and(|(_, parent)| parent == &*other.0)
    }

    /// The least common ancestor of two names.
    pub fn lca(&self, other: &Tid) -> Tid {
        let n = self
            .0
            .iter()
            .zip(other.0.iter())
            .take_while(|(a, b)| a == b)
            .count();
        Tid(Arc::from(&self.0[..n]))
    }
}

/// A `Tid` hashes, compares and orders exactly as its path does, so ordered
/// tables keyed by `Tid` can be probed with a borrowed path — in particular
/// with the parent's path, `&t.path()[..t.depth() - 1]`, without building
/// the parent's name.
impl Borrow<[u32]> for Tid {
    fn borrow(&self) -> &[u32] {
        &self.0
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T0")?;
        for i in self.0.iter() {
            write!(f, ".{i}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_properties() {
        let r = Tid::root();
        assert!(r.is_root());
        assert_eq!(r.parent(), None);
        assert_eq!(r.depth(), 0);
        assert_eq!(r.to_string(), "T0");
        assert_eq!(r.last_index(), None);
    }

    #[test]
    fn child_and_parent_roundtrip() {
        let t = Tid::root().child(2).child(5);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.last_index(), Some(5));
        assert_eq!(t.parent().unwrap(), Tid::root().child(2));
        assert_eq!(t.to_string(), "T0.2.5");
    }

    #[test]
    fn ancestry_includes_self() {
        let a = Tid::root().child(1);
        let b = a.child(0).child(7);
        assert!(a.is_ancestor_of(&a));
        assert!(a.is_ancestor_of(&b));
        assert!(!a.is_proper_ancestor_of(&a));
        assert!(a.is_proper_ancestor_of(&b));
        assert!(b.is_descendant_of(&a));
        assert!(!b.is_ancestor_of(&a));
    }

    #[test]
    fn ancestry_distinguishes_branches() {
        let a = Tid::root().child(1);
        let b = Tid::root().child(2).child(1);
        assert!(!a.is_ancestor_of(&b));
        assert!(!b.is_ancestor_of(&a));
    }

    #[test]
    fn siblings() {
        let p = Tid::root().child(3);
        let a = p.child(0);
        let b = p.child(1);
        assert!(a.is_sibling_of(&b));
        assert!(!a.is_sibling_of(&a));
        assert!(!a.is_sibling_of(&p.child(0).child(0)));
        assert!(!Tid::root().is_sibling_of(&Tid::root()));
        assert!(a.is_child_of(&p));
        assert!(!a.is_child_of(&Tid::root()));
    }

    #[test]
    fn lca() {
        let a = Tid::root().child(1).child(2).child(3);
        let b = Tid::root().child(1).child(4);
        assert_eq!(a.lca(&b), Tid::root().child(1));
        assert_eq!(a.lca(&a), a);
        assert_eq!(a.lca(&Tid::root()), Tid::root());
    }

    #[test]
    fn ordering_puts_ancestors_first() {
        let p = Tid::root().child(1);
        let c = p.child(0);
        assert!(p < c);
        assert!(Tid::root() < p);
    }

    #[test]
    fn borrowed_paths_probe_tables_keyed_by_tid() {
        use std::collections::{BTreeMap, HashSet};
        let t = Tid::from_path(&[4, 2]);
        let by_order: BTreeMap<Tid, u8> = [(t.parent().unwrap(), 1), (t.clone(), 2)].into();
        assert_eq!(by_order.get(&t.path()[..1]), Some(&1));
        assert_eq!(by_order.get(t.path()), Some(&2));
        let by_hash: HashSet<Tid> = [t.clone()].into();
        assert!(by_hash.contains(&[4u32, 2][..]));
        assert!(!by_hash.contains(&[4u32][..]));
    }

    #[test]
    fn from_path_roundtrip() {
        let t = Tid::from_path(&[4, 2]);
        assert_eq!(t, Tid::root().child(4).child(2));
        assert_eq!(t.path(), &[4, 2]);
    }
}
