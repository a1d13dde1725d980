//! Secondary B-tree indexes.
//!
//! An index maps a tuple of column values (the key) to the row ids having
//! that key. Multi-column indexes support prefix-equality lookups and
//! range scans on the first unconstrained column, which is what the
//! planner exploits — the same access paths MySQL 4.1 offered the MCS
//! (paper §7: indexes on names, ids, and (name,id) pairs).
//!
//! # Entry layout
//!
//! Every key of one index has that index's width — one to
//! [`MAX_INDEX_WIDTH`] values, one per `IndexDef::columns` entry — so the
//! tree stores it inline in its node slot as a `[Value; N]`. A key costs
//! no heap allocation of its own, and a probe compares values that sit
//! side by side in the node instead of chasing one pointer per key.
//!
//! A key's posting is `One(RowId)` while one row carries the key, which
//! is the common case for unique and selective keys: they allocate
//! nothing beyond their tree slot. A second row turns it into a boxed
//! `BTreeSet<RowId>`, and removals that leave one row turn it back. The
//! set keeps insert **and remove** O(log n) however many rows share a key
//! — a real B-tree keys on (value, rowid), and the paper's near-flat add
//! rate across database sizes (Figure 5) depends on exactly this property.
//!
//! Callers look keys up with an [`IndexKey`] or a value slice, and write
//! entries straight from rows; either way the index builds the probe key
//! on the stack, where cloning a [`Value`] allocates nothing (strings are
//! shared `Arc`s). Keys order component by component with
//! [`Value::index_cmp`]: NULL first, `Int(3)` equal to `Float(3.0)`. A
//! scan starts at its prefix padded with NULLs, the least value, so it
//! meets every key that extends the prefix.
//!
//! # No NULL keys
//!
//! An index never stores a key that has a NULL component, as Oracle's
//! B-tree indexes do: writes skip such rows, and a lookup of such a key
//! finds nothing. So an index holds only the rows that are non-NULL in
//! all of its columns, and may serve only a scan that constrains each of
//! its nullable columns with a non-NULL comparison, which excludes the
//! rows left out anyway; `relstore::planner` keeps to that rule. A
//! catalog attribute row is non-NULL in exactly one typed value column,
//! so it enters one of the six `(name, value)` indexes, not all six.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::{self, Entry};
use std::collections::{btree_set, BTreeMap, BTreeSet};
use std::ops::Bound;

use crate::error::{Error, Result};
use crate::row::{Row, RowId};
use crate::value::Value;

/// The most columns one index may have (the catalog's widest index,
/// `acl_unique`, has four).
pub const MAX_INDEX_WIDTH: usize = 4;

/// Compare two key tuples component by component with
/// [`Value::index_cmp`]; a proper prefix sorts first.
fn cmp_keys(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.index_cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    a.len().cmp(&b.len())
}

/// An index key: values of the indexed columns, in index-column order.
/// Ordered by [`Value::index_cmp`] per component (total order incl. NULL).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexKey(pub Vec<Value>);

impl Eq for IndexKey {}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_keys(&self.0, &other.0)
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl AsRef<[Value]> for IndexKey {
    fn as_ref(&self) -> &[Value] {
        &self.0
    }
}

/// Definition (name + indexed columns + uniqueness) of an index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDef {
    /// Index name, unique within the table.
    pub name: String,
    /// Positions of the indexed columns in the table schema.
    pub columns: Vec<usize>,
    /// If true, no two rows may share a key (NULL components exempt,
    /// matching SQL UNIQUE semantics).
    pub unique: bool,
}

/// A full-width key, stored inline in its tree slot.
#[derive(Debug, Clone)]
struct Key<const N: usize>([Value; N]);

impl<const N: usize> PartialEq for Key<N> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<const N: usize> Eq for Key<N> {}

impl<const N: usize> PartialOrd for Key<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for Key<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_keys(&self.0, &other.0)
    }
}

/// The rows carrying one key. The set is boxed so that a posting takes
/// 16 bytes in its node instead of 32.
#[derive(Debug, Clone)]
#[allow(clippy::box_collection)]
enum Posting {
    One(RowId),
    Many(Box<BTreeSet<RowId>>),
}

impl Posting {
    fn len(&self) -> usize {
        match self {
            Posting::One(_) => 1,
            Posting::Many(ids) => ids.len(),
        }
    }

    fn ids(&self) -> Ids<'_> {
        match self {
            Posting::One(id) => Ids::One(Some(*id)),
            Posting::Many(ids) => Ids::Many(ids.iter()),
        }
    }

    /// Add `id`; false if it was already here.
    fn add(&mut self, id: RowId) -> bool {
        match self {
            Posting::One(held) if *held == id => false,
            Posting::One(held) => {
                let held = *held;
                *self = Posting::Many(Box::new(BTreeSet::from([held, id])));
                true
            }
            Posting::Many(ids) => ids.insert(id),
        }
    }
}

/// The row ids of one posting, ascending.
enum Ids<'a> {
    One(Option<RowId>),
    Many(btree_set::Iter<'a, RowId>),
}

impl Iterator for Ids<'_> {
    type Item = RowId;

    fn next(&mut self) -> Option<RowId> {
        match self {
            Ids::One(id) => id.take(),
            Ids::Many(ids) => ids.next().copied(),
        }
    }

    // Exact, so that collecting a posting allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Ids::One(id) => (usize::from(id.is_some()), Some(usize::from(id.is_some()))),
            Ids::Many(ids) => ids.size_hint(),
        }
    }
}

/// One index's tree, monomorphised on its width.
#[derive(Debug, Clone)]
enum Tree {
    W1(BTreeMap<Key<1>, Posting>),
    W2(BTreeMap<Key<2>, Posting>),
    W3(BTreeMap<Key<3>, Posting>),
    W4(BTreeMap<Key<4>, Posting>),
}

/// A key-ordered walk over part of a [`Tree`].
enum Range<'a> {
    W1(btree_map::Range<'a, Key<1>, Posting>),
    W2(btree_map::Range<'a, Key<2>, Posting>),
    W3(btree_map::Range<'a, Key<3>, Posting>),
    W4(btree_map::Range<'a, Key<4>, Posting>),
}

/// Run `$body` on the width-specific payload `$x` of a [`Tree`] or
/// [`Range`].
macro_rules! by_width {
    ($enum:ident, $e:expr, $x:ident => $body:expr) => {
        match $e {
            $enum::W1($x) => $body,
            $enum::W2($x) => $body,
            $enum::W3($x) => $body,
            $enum::W4($x) => $body,
        }
    };
}

impl<'a> Iterator for Range<'a> {
    type Item = (&'a [Value], &'a Posting);

    fn next(&mut self) -> Option<Self::Item> {
        by_width!(Range, self, r => r.next().map(|(k, p)| (&k.0[..], p)))
    }
}

impl Tree {
    fn new(width: usize) -> Tree {
        match width {
            1 => Tree::W1(BTreeMap::new()),
            2 => Tree::W2(BTreeMap::new()),
            3 => Tree::W3(BTreeMap::new()),
            4 => Tree::W4(BTreeMap::new()),
            _ => panic!("index width {width} outside 1..={MAX_INDEX_WIDTH}"),
        }
    }

    fn len(&self) -> usize {
        by_width!(Tree, self, t => t.len())
    }

    /// The posting of the key whose `i`th component is `at(i)`.
    fn get(&self, at: impl Fn(usize) -> Value) -> Option<&Posting> {
        by_width!(Tree, self, t => t.get(&Key(std::array::from_fn(at))))
    }

    /// Entries from the key whose `i`th component is `at(i)`, to the end.
    fn starting_at(&self, at: impl Fn(usize) -> Value) -> Range<'_> {
        match self {
            Tree::W1(t) => Range::W1(t.range(Key(std::array::from_fn(at))..)),
            Tree::W2(t) => Range::W2(t.range(Key(std::array::from_fn(at))..)),
            Tree::W3(t) => Range::W3(t.range(Key(std::array::from_fn(at))..)),
            Tree::W4(t) => Range::W4(t.range(Key(std::array::from_fn(at))..)),
        }
    }

    /// Every entry: NULL sorts before every other value.
    fn all(&self) -> Range<'_> {
        self.starting_at(|_| Value::Null)
    }

    /// Add `id` under the key whose `i`th component is `at(i)`; false if
    /// it was already there.
    fn insert(&mut self, at: impl Fn(usize) -> Value, id: RowId) -> bool {
        by_width!(Tree, self, t => match t.entry(Key(std::array::from_fn(at))) {
            Entry::Vacant(slot) => {
                slot.insert(Posting::One(id));
                true
            }
            Entry::Occupied(mut slot) => slot.get_mut().add(id),
        })
    }

    /// Remove `id` from the key whose `i`th component is `at(i)`; false
    /// if it was not there.
    fn remove(&mut self, at: impl Fn(usize) -> Value, id: RowId) -> bool {
        by_width!(Tree, self, t => remove_from(t, Key(std::array::from_fn(at)), id))
    }
}

fn remove_from<const N: usize>(
    tree: &mut BTreeMap<Key<N>, Posting>,
    key: Key<N>,
    id: RowId,
) -> bool {
    let Some(posting) = tree.get_mut(&key) else {
        return false;
    };
    match posting {
        Posting::One(held) => {
            if *held != id {
                return false;
            }
            tree.remove(&key);
        }
        Posting::Many(ids) => {
            if !ids.remove(&id) {
                return false;
            }
            if ids.len() == 1 {
                let last = *ids.first().expect("one id left");
                *posting = Posting::One(last);
            }
        }
    }
    true
}

/// A prefix/range scan: the postings of the keys that begin with
/// `prefix` and whose next component lies within `low`/`high`, in key
/// order. Ends at the first key past the prefix or the high bound.
struct Groups<'a, P, V> {
    entries: Range<'a>,
    prefix: P,
    low: Bound<V>,
    high: Bound<V>,
    done: bool,
}

impl<'a, P: AsRef<[Value]>, V: Borrow<Value>> Iterator for Groups<'a, P, V> {
    type Item = &'a Posting;

    fn next(&mut self) -> Option<&'a Posting> {
        if self.done {
            return None;
        }
        let prefix = self.prefix.as_ref();
        let plen = prefix.len();
        let low = self.low.as_ref().map(Borrow::borrow);
        let high = self.high.as_ref().map(Borrow::borrow);
        for (key, posting) in self.entries.by_ref() {
            // Stop once the key no longer begins with the prefix, or its
            // next component exceeds the high bound.
            let next = key.get(plen);
            let within = cmp_keys(&key[..plen], prefix) == Ordering::Equal
                && match (next, high) {
                    (Some(next), Bound::Included(hi)) => next.index_cmp(hi) != Ordering::Greater,
                    (Some(next), Bound::Excluded(hi)) => next.index_cmp(hi) == Ordering::Less,
                    _ => true,
                };
            if !within {
                break;
            }
            let skip = match next {
                Some(next) => {
                    matches!(low, Bound::Excluded(lo) if next.index_cmp(lo) == Ordering::Equal)
                }
                // Key is exactly the prefix: included only when no range
                // on the next column was requested.
                None => !matches!((low, high), (Bound::Unbounded, Bound::Unbounded)),
            };
            if !skip {
                return Some(posting);
            }
        }
        self.done = true;
        None
    }
}

/// An in-memory B-tree index; see the module docs for its entry layout.
#[derive(Debug, Clone)]
pub struct Index {
    /// Definition.
    pub def: IndexDef,
    tree: Tree,
    entries: usize,
}

impl Index {
    /// Create an empty index.
    ///
    /// # Panics
    ///
    /// If `def` has no column or more than [`MAX_INDEX_WIDTH`];
    /// `Table::create_index` and `TableSchema::new` refuse those first.
    pub fn new(def: IndexDef) -> Index {
        let tree = Tree::new(def.columns.len());
        Index {
            def,
            tree,
            entries: 0,
        }
    }

    /// Extract this index's key from a full row; `None` if the key has a
    /// NULL component, and so is never stored.
    pub fn key_of(&self, row: &[Value]) -> Option<IndexKey> {
        (!self.has_null(row))
            .then(|| IndexKey(self.def.columns.iter().map(|&c| row[c].clone()).collect()))
    }

    /// Is one of this index's columns NULL in `row` (a full row), so that
    /// the row has no entry here?
    pub(crate) fn has_null(&self, row: &[Value]) -> bool {
        self.def.columns.iter().any(|&c| row[c].is_null())
    }

    /// Do two full rows carry the same key in this index (values equal
    /// as [`Value`]s, column by column)?
    pub(crate) fn same_key(&self, a: &[Value], b: &[Value]) -> bool {
        self.def.columns.iter().all(|&c| a[c] == b[c])
    }

    /// Number of (key, row) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Would inserting `row` (a full row) violate uniqueness? `latest`
    /// gives a row id's current image: an entry conflicts only if that
    /// image still carries the key, which tolerates the entries MVCC's
    /// deferred cleanup leaves behind (without MVCC every entry is live).
    /// NULL components exempt a key.
    pub(crate) fn check_unique_row<'r>(
        &self,
        row: &[Value],
        latest: impl Fn(RowId) -> Option<&'r Row>,
    ) -> Result<()> {
        let cols = &self.def.columns;
        if !self.def.unique || self.has_null(row) {
            return Ok(());
        }
        let posting = self.tree.get(|i| row[cols[i]].clone());
        let mut ids = posting.map_or(Ids::One(None), Posting::ids);
        if ids.any(|id| latest(id).is_some_and(|live| self.same_key(live, row))) {
            let key: Vec<String> = cols.iter().map(|&c| row[c].to_string()).collect();
            return Err(Error::UniqueViolation {
                index: self.def.name.clone(),
                key: format!("({})", key.join(", ")),
            });
        }
        Ok(())
    }

    /// Insert the entry for `row` (a full row) at `id`, unless its key has
    /// a NULL component. Caller checks uniqueness first (so that
    /// multi-index inserts can validate all indexes before mutating any).
    pub fn insert_row(&mut self, row: &[Value], id: RowId) {
        if self.has_null(row) {
            return;
        }
        let cols = &self.def.columns;
        self.entries += usize::from(self.tree.insert(|i| row[cols[i]].clone(), id));
    }

    /// Remove an entry; returns true if it was present.
    pub fn remove(&mut self, key: &IndexKey, id: RowId) -> bool {
        let removed = self.fits(&key.0)
            && !key.0.iter().any(Value::is_null)
            && self.tree.remove(|i| key.0[i].clone(), id);
        self.entries -= usize::from(removed);
        removed
    }

    /// Remove the entry for `row` (a full row) at `id`; returns true if it
    /// was present.
    pub fn remove_row(&mut self, row: &[Value], id: RowId) -> bool {
        if self.has_null(row) {
            return false;
        }
        let cols = &self.def.columns;
        let removed = self.tree.remove(|i| row[cols[i]].clone(), id);
        self.entries -= usize::from(removed);
        removed
    }

    /// Does `key` have this index's width (so that it can name an entry)?
    fn fits(&self, key: &[Value]) -> bool {
        key.len() == self.def.columns.len()
    }

    fn posting(&self, key: &[Value]) -> Option<&Posting> {
        if !self.fits(key) {
            return None;
        }
        self.tree.get(|i| key[i].clone())
    }

    /// Row ids whose key equals `key` exactly (full-width key), ascending.
    pub fn get_eq<K: AsRef<[Value]> + ?Sized>(&self, key: &K) -> impl Iterator<Item = RowId> + '_ {
        self.posting(key.as_ref())
            .map_or(Ids::One(None), Posting::ids)
    }

    /// Number of rows with exactly this key.
    pub fn count_eq<K: AsRef<[Value]> + ?Sized>(&self, key: &K) -> usize {
        self.posting(key.as_ref()).map_or(0, Posting::len)
    }

    /// Number of distinct keys currently in the tree (for a composite
    /// index, the distinct count of the column *tuple*); tests check it
    /// against a reference model.
    pub fn distinct_keys(&self) -> usize {
        self.tree.len()
    }

    /// Key-ordered postings whose key starts with `prefix`, optionally
    /// range-constrained on the column at position `prefix.len()`.
    ///
    /// This is the streaming core all prefix scans are built on: groups
    /// arrive in index-key order (so a caller whose sort keys are the
    /// index columns can stream ORDER BY), and the scan terminates as soon
    /// as a key leaves the prefix or exceeds the high bound — a consumer
    /// that stops early (LIMIT) never touches the rest of the tree.
    ///
    /// A prefix `[p]` with an open low bound starts at `[p, NULL, ...]`,
    /// the least key that begins with `p`. An `Excluded` low bound starts at
    /// the bound value and filters out exact matches below, because
    /// excluding it from the range start would also skip longer keys
    /// sharing the component.
    fn groups<P: AsRef<[Value]>, V: Borrow<Value>>(
        &self,
        prefix: P,
        low: Bound<V>,
        high: Bound<V>,
    ) -> Groups<'_, P, V> {
        // Start at the least key carrying the prefix and the low bound:
        // NULL, the least value, pads the remaining components.
        let p = prefix.as_ref();
        let start = match &low {
            Bound::Unbounded => None,
            Bound::Included(v) | Bound::Excluded(v) => Some(v.borrow()),
        };
        let entries = self.tree.starting_at(|i| match i.cmp(&p.len()) {
            Ordering::Less => p[i].clone(),
            Ordering::Equal => start.cloned().unwrap_or(Value::Null),
            Ordering::Greater => Value::Null,
        });
        let done = p.len() > self.def.columns.len();
        Groups {
            entries,
            prefix,
            low,
            high,
            done,
        }
    }

    /// Streaming variant of [`Index::scan_prefix_range`]: row ids in
    /// index-key order, produced lazily.
    pub fn iter_prefix_range(
        &self,
        prefix: Vec<Value>,
        low: Bound<Value>,
        high: Bound<Value>,
    ) -> impl Iterator<Item = RowId> + '_ {
        self.groups(prefix, low, high).flat_map(Posting::ids)
    }

    /// Count the entries a prefix/range scan would visit, giving up once
    /// `cap` is reached — the planner's "index dive". Returns the count
    /// and whether it was truncated by the cap.
    pub fn count_prefix_range(
        &self,
        prefix: &[Value],
        low: Bound<&Value>,
        high: Bound<&Value>,
        cap: usize,
    ) -> (usize, bool) {
        let mut n = 0usize;
        for posting in self.groups(prefix, low, high) {
            n += posting.len();
            if n >= cap {
                return (n, true);
            }
        }
        (n, false)
    }

    /// Row ids whose key starts with `prefix` (fewer columns than the
    /// index width), optionally range-constrained on the next column.
    ///
    /// `low`/`high` bound the column at position `prefix.len()`.
    pub fn scan_prefix_range(
        &self,
        prefix: &[Value],
        low: Bound<&Value>,
        high: Bound<&Value>,
        out: &mut Vec<RowId>,
    ) {
        out.extend(self.groups(prefix, low, high).flat_map(Posting::ids));
    }

    /// Every (key, row id) entry in key order, ids ascending within a key
    /// (used by integrity checks).
    pub fn entries(&self) -> impl Iterator<Item = (&[Value], RowId)> {
        self.tree
            .all()
            .flat_map(|(key, posting)| posting.ids().map(move |id| (key, id)))
    }

    /// Check the entry layout: the entry count matches the postings, and
    /// no posting holds a set of fewer than two rows.
    pub fn check_layout(&self) -> Result<()> {
        let mut n = 0usize;
        for (_, posting) in self.tree.all() {
            if matches!(posting, Posting::Many(ids) if ids.len() < 2) {
                return Err(Error::ExecError(format!(
                    "index `{}` keeps a set posting of {} rows",
                    self.def.name,
                    posting.len()
                )));
            }
            n += posting.len();
        }
        if n != self.entries {
            return Err(Error::ExecError(format!(
                "index `{}` counts {} entries but holds {n}",
                self.def.name, self.entries
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vs: &[i64]) -> IndexKey {
        IndexKey(vs.iter().map(|&v| Value::Int(v)).collect())
    }

    fn idx2() -> Index {
        // two-column index
        let mut ix = Index::new(IndexDef {
            name: "ix".into(),
            columns: vec![0, 1],
            unique: false,
        });
        for (a, b, id) in [(1, 10, 1), (1, 20, 2), (1, 30, 3), (2, 10, 4), (2, 15, 5)] {
            ix.insert_row(&key(&[a, b]).0, RowId(id));
        }
        ix
    }

    #[test]
    fn eq_lookup() {
        let ix = idx2();
        assert_eq!(ix.get_eq(&key(&[1, 20])).collect::<Vec<_>>(), vec![RowId(2)]);
        assert_eq!(ix.count_eq(&key(&[9, 9])), 0);
        assert_eq!(ix.len(), 5);
    }

    #[test]
    fn prefix_scan_unbounded() {
        let ix = idx2();
        let mut out = vec![];
        ix.scan_prefix_range(&[Value::Int(1)], Bound::Unbounded, Bound::Unbounded, &mut out);
        out.sort();
        assert_eq!(out, vec![RowId(1), RowId(2), RowId(3)]);
    }

    #[test]
    fn prefix_scan_range() {
        let ix = idx2();
        let mut out = vec![];
        ix.scan_prefix_range(
            &[Value::Int(1)],
            Bound::Included(&Value::Int(15)),
            Bound::Excluded(&Value::Int(30)),
            &mut out,
        );
        assert_eq!(out, vec![RowId(2)]);
    }

    #[test]
    fn empty_prefix_is_full_range_scan() {
        let ix = idx2();
        let mut out = vec![];
        ix.scan_prefix_range(&[], Bound::Included(&Value::Int(2)), Bound::Unbounded, &mut out);
        out.sort();
        assert_eq!(out, vec![RowId(4), RowId(5)]);
    }

    #[test]
    fn iter_prefix_range_streams_in_key_order() {
        let ix = idx2();
        let got: Vec<RowId> = ix
            .iter_prefix_range(vec![Value::Int(1)], Bound::Unbounded, Bound::Unbounded)
            .collect();
        assert_eq!(got, vec![RowId(1), RowId(2), RowId(3)]);
        // Early termination: taking one element must not need the rest.
        let first = ix
            .iter_prefix_range(vec![], Bound::Unbounded, Bound::Unbounded)
            .next();
        assert_eq!(first, Some(RowId(1)));
    }

    #[test]
    fn count_prefix_range_caps_the_dive() {
        let ix = idx2();
        let all = ix.count_prefix_range(&[Value::Int(1)], Bound::Unbounded, Bound::Unbounded, 100);
        assert_eq!(all, (3, false));
        let capped = ix.count_prefix_range(&[Value::Int(1)], Bound::Unbounded, Bound::Unbounded, 2);
        assert_eq!(capped, (2, true));
        assert_eq!(ix.distinct_keys(), 5);
    }

    #[test]
    fn remove_entry() {
        let mut ix = idx2();
        assert!(ix.remove(&key(&[1, 20]), RowId(2)));
        assert!(!ix.remove(&key(&[1, 20]), RowId(2)));
        assert_eq!(ix.count_eq(&key(&[1, 20])), 0);
        assert_eq!(ix.len(), 4);
    }

    #[test]
    fn unique_violation() {
        let mut ix = Index::new(IndexDef {
            name: "u".into(),
            columns: vec![0],
            unique: true,
        });
        // An index on column 0 of one-column rows: keys are rows.
        let rows = [key(&[7]).0, vec![Value::Null]];
        let latest = |id: RowId| rows.get(id.0 as usize - 1);
        ix.insert_row(&rows[0], RowId(1));
        assert!(ix.check_unique_row(&key(&[7]).0, latest).is_err());
        assert!(ix.check_unique_row(&key(&[8]).0, latest).is_ok());
        // NULL keys are exempt from uniqueness
        ix.insert_row(&rows[1], RowId(2));
        assert!(ix.check_unique_row(&rows[1], latest).is_ok());
    }

    #[test]
    fn duplicate_keys_accumulate() {
        let mut ix = Index::new(IndexDef {
            name: "d".into(),
            columns: vec![0],
            unique: false,
        });
        ix.insert_row(&key(&[1]).0, RowId(1));
        ix.insert_row(&key(&[1]).0, RowId(2));
        let got: Vec<RowId> = ix.get_eq(&key(&[1])).collect();
        assert_eq!(got, vec![RowId(1), RowId(2)]);
    }
}
