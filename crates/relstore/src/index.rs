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
//! [`MAX_INDEX_WIDTH`] values, one per `IndexDef::columns` entry. The
//! tree stores a key's leading columns inline in its node slot as a
//! `[Value; N]`: a key costs no heap allocation of its own, and a probe
//! compares values that sit side by side in the node instead of chasing
//! one pointer per key.
//!
//! A key's posting holds its rows in ascending order, one code path for
//! both kinds of index below: one entry inline in the slot; up to 64 in
//! one sorted vector; more in sorted runs of at most 64, each beside its
//! greatest entry, so an insert or remove moves at most one run and the
//! run list however many rows share a key (the paper's near-flat add
//! rate across database sizes, Figure 5, depends on that), and an append
//! — ids mostly arrive in ascending order — fills runs to the brim.
//!
//! A plain index keeps the whole key in the tree and a `RowId` per entry.
//! Its slot is 16 bytes, one row inline or a boxed vector or run list,
//! so a key that one row carries — unique and selective keys, the common
//! case — allocates nothing beyond its slot. A **tail-ordered** index —
//! non-unique, two or more columns, the last one `INTEGER`
//! ([`Index::with_tail`]; `Table::create_index` picks it for every such
//! definition) — keeps its last column inside the postings instead: the
//! tree is keyed by the other columns (a *group*), and an entry is a
//! 16-byte `(tail, RowId)` pair, sorted by tail, then row. Its slot is 24
//! bytes and holds the vector itself. Entries still read back as
//! full-width keys in key order. What the layout adds is one walk,
//! [`Index::span_groups`], that visits a prefix range's groups and reads
//! each group's entries only within a span `[lo, hi]` of the tail: binary
//! searches to the span's start, then contiguous memory. The catalog's
//! typed attribute indexes end in the object id, so two attribute
//! predicates join as a walk bounded to the candidates' id span. A new
//! group key takes its strings from the neighbouring key's when equal,
//! so a walk or descent along one attribute name compares one cached
//! string instead of fetching one per group.
//!
//! Callers look keys up with an [`IndexKey`] or a value slice, and write
//! entries straight from rows; either way the index builds the probe key
//! on the stack, where cloning a [`Value`] allocates nothing (strings are
//! shared `Arc`s). Keys order component by component with
//! [`Value::index_cmp`]: NULL first, `Int(3)` equal to `Float(3.0)`. A
//! scan starts at its prefix padded with NULLs, the least value, so it
//! meets every key that extends the prefix. A lookup, count or remove
//! names a full-width key; any other width is a caller's bug, and panics.
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
//! so it enters one of the six `ua_name_<type>` indexes, not all six.

use std::borrow::{Borrow, BorrowMut};
use std::cmp::Ordering;
use std::collections::btree_map;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeInclusive};

use crate::error::{Error, Result};
use crate::row::{Row, RowId};
use crate::value::Value;

/// The most columns one index may have (the catalog's widest indexes,
/// `acl_unique` and the `ua_name_<type>` ones, have four).
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

/// The columns a tree keys on, stored inline in their tree slot.
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

/// An entry of a tail-ordered index's posting: the last column's value,
/// then the row.
type Tail = (i64, RowId);

/// Most entries one run of a posting holds.
const RUN: usize = 64;

/// What a posting holds per row, in the order it keeps them: the row
/// itself in a plain index, `(tail, row)` in a tail-ordered one.
trait Entry: Copy + Ord + std::fmt::Debug {
    /// Does a new tree key take its strings from its neighbours
    /// ([`share_strings`])? A tail-ordered index's groups do.
    const SHARES_STRINGS: bool;
    /// The entry of row `id` whose last column is `tail` (which a plain
    /// index keeps in its tree key instead).
    fn new(tail: i64, id: RowId) -> Self;
    /// The last column, which orders the entries: 0 in a plain index.
    fn tail(self) -> i64;
}

impl Entry for RowId {
    const SHARES_STRINGS: bool = false;

    fn new(_: i64, id: RowId) -> RowId {
        id
    }

    fn tail(self) -> i64 {
        0
    }
}

impl Entry for Tail {
    const SHARES_STRINGS: bool = true;

    fn new(tail: i64, id: RowId) -> Tail {
        (tail, id)
    }

    fn tail(self) -> i64 {
        self.0
    }
}

/// The entries of one tree key: one inline, or two or more in a
/// [`Sorted`] that `S` holds inline or boxed.
#[derive(Debug, Clone)]
enum Posting<E, S> {
    One(E),
    Sorted(S),
}

/// A plain index's posting. The box keeps its slot at 16 bytes, so a key
/// that one row carries costs nothing beyond the slot.
type RowPosting = Posting<RowId, Box<Sorted<RowId>>>;

/// A tail-ordered index's posting, 24 bytes in its slot: one entry
/// inline, up to [`RUN`] one allocation away.
type TailPosting = Posting<Tail, Sorted<Tail>>;

/// Two or more entries in ascending order: up to [`RUN`] in one vector,
/// more in runs of at most [`RUN`] each, every run's entries below the
/// next run's. A walk seeks its span with binary searches and then reads
/// contiguous memory; a write moves at most one run's entries and the
/// run list.
#[derive(Debug, Clone)]
enum Sorted<E> {
    Run(Vec<E>),
    Runs(Box<Runs<E>>),
}

/// The runs of a posting of more than [`RUN`] entries, each beside its
/// greatest entry.
#[derive(Debug, Clone)]
struct Runs<E> {
    runs: Vec<(E, Vec<E>)>,
    len: usize,
}

impl<E: Entry, S: BorrowMut<Sorted<E>> + From<Sorted<E>>> Posting<E, S> {
    /// Add `e`; false if it was already here.
    fn add(&mut self, e: E) -> bool {
        match self {
            Posting::One(held) if *held == e => false,
            Posting::One(held) => {
                let run = vec![(*held).min(e), (*held).max(e)];
                *self = Posting::Sorted(S::from(Sorted::Run(run)));
                true
            }
            Posting::Sorted(s) => s.borrow_mut().add(e),
        }
    }

    /// Remove `e`: `None` if it was not here, else whether the posting
    /// is now empty (and its key must go).
    fn take(&mut self, e: E) -> Option<bool> {
        let sorted = match self {
            Posting::One(held) => return (*held == e).then_some(true),
            Posting::Sorted(s) => s.borrow_mut(),
        };
        if !sorted.take(e) {
            return None;
        }
        if let Sorted::Run(run) = sorted {
            if let [last] = run[..] {
                *self = Posting::One(last);
            }
        }
        Some(false)
    }

    fn view(&self) -> View<'_, E> {
        match self {
            Posting::One(e) => View::Run(std::slice::from_ref(e)),
            Posting::Sorted(s) => match s.borrow() {
                Sorted::Run(run) => View::Run(run),
                Sorted::Runs(runs) => View::Runs(runs),
            },
        }
    }

    /// The layout's invariants, for [`Index::check_layout`].
    fn check(&self) -> std::result::Result<(), String> {
        match self {
            Posting::One(_) => Ok(()),
            Posting::Sorted(s) => match s.borrow() {
                Sorted::Run(run) if run.len() < 2 || run.len() > RUN => {
                    Err(format!("keeps {} entries in one run", run.len()))
                }
                Sorted::Run(run) => check_sorted(run, &mut None),
                Sorted::Runs(runs) => runs.check(),
            },
        }
    }
}

impl<E: Entry> Sorted<E> {
    /// Add `e`; false if it was already here.
    fn add(&mut self, e: E) -> bool {
        match self {
            Sorted::Run(run) => {
                let Err(at) = run.binary_search(&e) else {
                    return false;
                };
                run.insert(at, e);
                if run.len() > RUN {
                    let run = std::mem::take(run);
                    let (last, len) = (greatest(&run), run.len());
                    let mut runs = Runs {
                        runs: vec![(last, run)],
                        len,
                    };
                    runs.split(0, at);
                    *self = Sorted::Runs(Box::new(runs));
                }
                true
            }
            Sorted::Runs(runs) => runs.insert(e),
        }
    }

    /// Remove `e`; false if it was not here.
    fn take(&mut self, e: E) -> bool {
        match self {
            Sorted::Run(run) => {
                let Ok(at) = run.binary_search(&e) else {
                    return false;
                };
                run.remove(at);
                true
            }
            Sorted::Runs(runs) => {
                if !runs.remove(e) {
                    return false;
                }
                if runs.runs.len() == 1 {
                    *self = Sorted::Run(std::mem::take(&mut runs.runs[0].1));
                }
                true
            }
        }
    }
}

fn greatest<E: Copy>(run: &[E]) -> E {
    *run.last().expect("a run is non-empty")
}

impl<E: Entry> Runs<E> {
    /// The run that holds `e` if any does: the first whose greatest entry
    /// is not below it (the last run for an `e` above every entry).
    fn run_of(&self, e: E) -> usize {
        self.runs
            .partition_point(|(last, _)| *last < e)
            .min(self.runs.len() - 1)
    }

    fn insert(&mut self, e: E) -> bool {
        let i = self.run_of(e);
        let (last, run) = &mut self.runs[i];
        let Err(at) = run.binary_search(&e) else {
            return false;
        };
        run.insert(at, e);
        *last = (*last).max(e);
        self.len += 1;
        if run.len() > RUN {
            self.split(i, at);
        }
        true
    }

    /// Split run `i`, which has just grown past [`RUN`] by an insert at
    /// `at`. An append (ids mostly arrive in ascending order) leaves the
    /// lower part full and starts the upper one with the new entry; an
    /// insert elsewhere splits in half. The lower part keeps no spare
    /// capacity: only the last run of a posting still grows.
    fn split(&mut self, i: usize, at: usize) {
        let run = &mut self.runs[i].1;
        let upper = run.split_off(if at + 1 == run.len() {
            RUN
        } else {
            run.len() / 2
        });
        run.shrink_to_fit();
        self.runs[i].0 = greatest(run);
        self.runs.insert(i + 1, (greatest(&upper), upper));
    }

    fn remove(&mut self, e: E) -> bool {
        let i = self.run_of(e);
        let (last, run) = &mut self.runs[i];
        let Ok(at) = run.binary_search(&e) else {
            return false;
        };
        run.remove(at);
        self.len -= 1;
        match run.last() {
            None => drop(self.runs.remove(i)),
            Some(&greatest) => *last = greatest,
        }
        // Fold a run into its successor while both fit in half a run.
        if i + 1 < self.runs.len() && self.runs[i].1.len() + self.runs[i + 1].1.len() <= RUN / 2 {
            let (next_last, next) = self.runs.remove(i + 1);
            self.runs[i].1.extend(next);
            self.runs[i].0 = next_last;
        }
        true
    }

    /// The run layout's invariants, for [`Index::check_layout`].
    fn check(&self) -> std::result::Result<(), String> {
        let mut n = 0usize;
        let mut prev: Option<E> = None;
        if self.runs.len() < 2 {
            return Err(format!(
                "keeps {} entries in {} runs",
                self.len,
                self.runs.len()
            ));
        }
        for (last, run) in &self.runs {
            if run.is_empty() || run.len() > RUN || run.last() != Some(last) {
                return Err(format!(
                    "keeps a run of {} entries ending {last:?}",
                    run.len()
                ));
            }
            check_sorted(run, &mut prev)?;
            n += run.len();
        }
        if n != self.len {
            return Err(format!("counts {} entries in a posting of {n}", self.len));
        }
        Ok(())
    }
}

/// Is `run` strictly ascending, and above `prev`? Leaves `prev` at its
/// last entry.
fn check_sorted<E: Entry>(run: &[E], prev: &mut Option<E>) -> std::result::Result<(), String> {
    for &e in run {
        if prev.is_some_and(|p| p >= e) {
            return Err(format!("keeps {e:?} after {prev:?}"));
        }
        *prev = Some(e);
    }
    Ok(())
}

/// A posting's entries, borrowed: one sorted run (a lone entry is a run
/// of one), or [`Runs`].
#[derive(Clone, Copy)]
enum View<'a, E> {
    Run(&'a [E]),
    Runs(&'a Runs<E>),
}

impl<'a, E: Entry> View<'a, E> {
    fn len(self) -> usize {
        match self {
            View::Run(run) => run.len(),
            View::Runs(runs) => runs.len,
        }
    }

    /// The least and greatest entry.
    fn ends(self) -> (E, E) {
        match self {
            View::Run(run) => (run[0], greatest(run)),
            View::Runs(runs) => (runs.runs[0].1[0], runs.runs[runs.runs.len() - 1].0),
        }
    }

    /// The entries whose tail lies in `lo..=hi`, in order.
    fn span(self, lo: i64, hi: i64) -> Iter<'a, E> {
        let (run, runs): (&[E], &[(E, Vec<E>)]) = match self {
            View::Run(run) => (run, &[]),
            View::Runs(runs) => {
                let r = runs.runs.partition_point(|(last, _)| last.tail() < lo);
                match runs.runs.get(r) {
                    Some((_, run)) => (run, &runs.runs[r + 1..]),
                    None => (&[], &[]),
                }
            }
        };
        let at = run.partition_point(|e| e.tail() < lo);
        Iter {
            run: run[at..].iter(),
            runs: runs.iter(),
            hi,
            to_end: self.ends().1.tail() <= hi,
        }
    }

    /// The greatest entry whose tail is at most `hi`.
    fn last_within(self, hi: i64) -> Option<E> {
        let last = |run: &[E]| {
            run.partition_point(|e| e.tail() <= hi)
                .checked_sub(1)
                .map(|i| run[i])
        };
        match self {
            View::Run(run) => last(run),
            View::Runs(runs) => {
                let r = runs.runs.partition_point(|(_, run)| run[0].tail() <= hi);
                last(&runs.runs[r.checked_sub(1)?].1)
            }
        }
    }

    /// How many entries lie in `lo..=hi`: the size if the span holds the
    /// whole posting, else a walk of those inside.
    fn count(self, lo: i64, hi: i64) -> usize {
        if (lo, hi) == (i64::MIN, i64::MAX) {
            return self.len();
        }
        let (first, last) = self.ends();
        if lo <= first.tail() && last.tail() <= hi {
            self.len()
        } else {
            self.span(lo, hi).count()
        }
    }
}

/// A walk over a posting's entries from a start position up to a
/// greatest tail.
#[derive(Clone)]
struct Iter<'a, E> {
    /// The rest of the current run.
    run: std::slice::Iter<'a, E>,
    /// The runs after it.
    runs: std::slice::Iter<'a, (E, Vec<E>)>,
    hi: i64,
    /// Does the walk reach the posting's greatest entry?
    to_end: bool,
}

impl<E: Entry> Iterator for Iter<'_, E> {
    type Item = E;

    fn next(&mut self) -> Option<E> {
        loop {
            if let Some(&e) = self.run.next() {
                if e.tail() > self.hi {
                    (self.run, self.runs) = Default::default();
                    return None;
                }
                return Some(e);
            }
            self.run = self.runs.next()?.1.iter();
        }
    }

    // Exact when the walk reaches the posting's end, as a plain index's
    // always does, so that collecting a posting allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let later: usize = self.runs.as_slice().iter().map(|(_, r)| r.len()).sum();
        let left = self.run.len() + later;
        (if self.to_end { left } else { 0 }, Some(left))
    }
}

/// A posting of either kind of index.
#[derive(Clone, Copy)]
enum PostingRef<'a> {
    Ids(&'a RowPosting),
    Tailed(&'a TailPosting),
}

impl<'a> From<&'a RowPosting> for PostingRef<'a> {
    fn from(p: &'a RowPosting) -> Self {
        PostingRef::Ids(p)
    }
}

impl<'a> From<&'a TailPosting> for PostingRef<'a> {
    fn from(p: &'a TailPosting) -> Self {
        PostingRef::Tailed(p)
    }
}

impl<'a> PostingRef<'a> {
    /// `(tail, row)` entries whose tail lies in `lo..=hi`, in entry order
    /// (a plain posting's tails are all 0).
    fn pairs(self, lo: i64, hi: i64) -> Pairs<'a> {
        match self {
            PostingRef::Ids(p) => Pairs::Ids(p.view().span(lo, hi)),
            PostingRef::Tailed(p) => Pairs::Tailed(p.view().span(lo, hi)),
        }
    }

    /// Row ids of [`PostingRef::pairs`].
    fn ids(self, lo: i64, hi: i64) -> impl Iterator<Item = RowId> + 'a {
        self.pairs(lo, hi).map(|(_, id)| id)
    }

    /// How many entries [`PostingRef::pairs`] yields.
    fn count(self, lo: i64, hi: i64) -> usize {
        match self {
            PostingRef::Ids(p) => p.view().count(lo, hi),
            PostingRef::Tailed(p) => p.view().count(lo, hi),
        }
    }

    fn check(self) -> std::result::Result<(), String> {
        match self {
            PostingRef::Ids(p) => p.check(),
            PostingRef::Tailed(p) => p.check(),
        }
    }
}

/// The entries of one posting as `(tail, row)` pairs.
enum Pairs<'a> {
    Ids(Iter<'a, RowId>),
    Tailed(Iter<'a, Tail>),
}

impl Iterator for Pairs<'_> {
    type Item = Tail;

    fn next(&mut self) -> Option<Tail> {
        match self {
            Pairs::Ids(it) => it.next().map(|id| (0, id)),
            Pairs::Tailed(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Pairs::Ids(it) => it.size_hint(),
            Pairs::Tailed(it) => it.size_hint(),
        }
    }
}

/// One index's tree, monomorphised on its key width: `W<n>` keeps whole
/// keys of `n` columns, `T<n>` the first `n` columns of a tail-ordered
/// index of `n + 1`.
#[derive(Debug, Clone)]
enum Tree {
    W1(BTreeMap<Key<1>, RowPosting>),
    W2(BTreeMap<Key<2>, RowPosting>),
    W3(BTreeMap<Key<3>, RowPosting>),
    W4(BTreeMap<Key<4>, RowPosting>),
    T1(BTreeMap<Key<1>, TailPosting>),
    T2(BTreeMap<Key<2>, TailPosting>),
    T3(BTreeMap<Key<3>, TailPosting>),
}

/// A key-ordered walk over part of a [`Tree`].
enum Range<'a> {
    W1(btree_map::Range<'a, Key<1>, RowPosting>),
    W2(btree_map::Range<'a, Key<2>, RowPosting>),
    W3(btree_map::Range<'a, Key<3>, RowPosting>),
    W4(btree_map::Range<'a, Key<4>, RowPosting>),
    T1(btree_map::Range<'a, Key<1>, TailPosting>),
    T2(btree_map::Range<'a, Key<2>, TailPosting>),
    T3(btree_map::Range<'a, Key<3>, TailPosting>),
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
            $enum::T1($x) => $body,
            $enum::T2($x) => $body,
            $enum::T3($x) => $body,
        }
    };
}

impl<'a> Iterator for Range<'a> {
    type Item = (&'a [Value], PostingRef<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        by_width!(Range, self, r => r.next().map(|(k, p)| (&k.0[..], PostingRef::from(p))))
    }
}

impl Tree {
    /// The tree of an index of `width` columns, tail-ordered or not.
    fn new(width: usize, tailed: bool) -> Tree {
        match (width, tailed) {
            (1, false) => Tree::W1(BTreeMap::new()),
            (2, false) => Tree::W2(BTreeMap::new()),
            (3, false) => Tree::W3(BTreeMap::new()),
            (4, false) => Tree::W4(BTreeMap::new()),
            (2, true) => Tree::T1(BTreeMap::new()),
            (3, true) => Tree::T2(BTreeMap::new()),
            (4, true) => Tree::T3(BTreeMap::new()),
            _ => {
                panic!("index width {width} outside 1..={MAX_INDEX_WIDTH} (tail-ordered: {tailed})")
            }
        }
    }

    fn tailed(&self) -> bool {
        matches!(self, Tree::T1(_) | Tree::T2(_) | Tree::T3(_))
    }

    /// Columns per tree key.
    fn width(&self) -> usize {
        match self {
            Tree::W1(_) | Tree::T1(_) => 1,
            Tree::W2(_) | Tree::T2(_) => 2,
            Tree::W3(_) | Tree::T3(_) => 3,
            Tree::W4(_) => 4,
        }
    }

    /// The posting of the tree key whose `i`th component is `at(i)`.
    fn get(&self, at: impl Fn(usize) -> Value) -> Option<PostingRef<'_>> {
        by_width!(Tree, self, t => t.get(&Key(std::array::from_fn(at))).map(PostingRef::from))
    }

    /// Entries from the tree key whose `i`th component is `at(i)`, to the
    /// end.
    fn starting_at(&self, at: impl Fn(usize) -> Value) -> Range<'_> {
        match self {
            Tree::W1(t) => Range::W1(t.range(Key(std::array::from_fn(at))..)),
            Tree::W2(t) => Range::W2(t.range(Key(std::array::from_fn(at))..)),
            Tree::W3(t) => Range::W3(t.range(Key(std::array::from_fn(at))..)),
            Tree::W4(t) => Range::W4(t.range(Key(std::array::from_fn(at))..)),
            Tree::T1(t) => Range::T1(t.range(Key(std::array::from_fn(at))..)),
            Tree::T2(t) => Range::T2(t.range(Key(std::array::from_fn(at))..)),
            Tree::T3(t) => Range::T3(t.range(Key(std::array::from_fn(at))..)),
        }
    }

    /// Every entry: NULL sorts before every other value.
    fn all(&self) -> Range<'_> {
        self.starting_at(|_| Value::Null)
    }

    /// Add row `id` with last column `tail` under the tree key whose
    /// `i`th component is `at(i)`; false if it was already there.
    fn insert(&mut self, at: impl Fn(usize) -> Value, tail: i64, id: RowId) -> bool {
        by_width!(Tree, self, t => insert_into(t, Key(std::array::from_fn(at)), tail, id))
    }

    /// Remove row `id` with last column `tail` from the tree key whose
    /// `i`th component is `at(i)`; false if it was not there.
    fn remove(&mut self, at: impl Fn(usize) -> Value, tail: i64, id: RowId) -> bool {
        by_width!(Tree, self, t => remove_from(t, Key(std::array::from_fn(at)), tail, id))
    }
}

fn insert_into<const N: usize, E: Entry, S: BorrowMut<Sorted<E>> + From<Sorted<E>>>(
    tree: &mut BTreeMap<Key<N>, Posting<E, S>>,
    mut key: Key<N>,
    tail: i64,
    id: RowId,
) -> bool {
    let e = E::new(tail, id);
    if E::SHARES_STRINGS {
        if let Some(posting) = tree.get_mut(&key) {
            return posting.add(e);
        }
        // A new key: share the strings of the key just below it, or of
        // the one above when it starts a new first column.
        let below = tree.range(..&key).next_back().map(|(k, _)| k);
        if !below.is_some_and(|below| share_strings(&mut key, below)) {
            if let Some((above, _)) = tree.range((Bound::Excluded(&key), Bound::Unbounded)).next() {
                share_strings(&mut key, above);
            }
        }
        tree.insert(key, Posting::One(e));
        return true;
    }
    match tree.entry(key) {
        btree_map::Entry::Vacant(slot) => {
            slot.insert(Posting::One(e));
            true
        }
        btree_map::Entry::Occupied(mut slot) => slot.get_mut().add(e),
    }
}

/// Point each string of a new tree key at the equal string of a
/// neighbouring key, so that the keys sharing a prefix share its
/// allocation: a walk along a tail-ordered index's groups, or a descent
/// through them, then compares strings already in cache instead of
/// fetching one per key. Returns whether the first columns were equal.
fn share_strings<const N: usize>(key: &mut Key<N>, neighbour: &Key<N>) -> bool {
    for (v, w) in key.0.iter_mut().zip(&neighbour.0) {
        if let (Value::Str(s), Value::Str(t)) = (&*v, w) {
            if s == t {
                *v = Value::Str(t.clone());
            }
        }
    }
    key.0[0] == neighbour.0[0]
}

fn remove_from<const N: usize, E: Entry, S: BorrowMut<Sorted<E>> + From<Sorted<E>>>(
    tree: &mut BTreeMap<Key<N>, Posting<E, S>>,
    key: Key<N>,
    tail: i64,
    id: RowId,
) -> bool {
    let Some(posting) = tree.get_mut(&key) else {
        return false;
    };
    match posting.take(E::new(tail, id)) {
        None => false,
        Some(emptied) => {
            if emptied {
                tree.remove(&key);
            }
            true
        }
    }
}

/// The integers `i` for which `Value::Int(i)` lies within `low`/`high`
/// under [`Value::index_cmp`], as one inclusive span; `None` if there
/// are none. An `Int` bound maps directly; any other value (a float, or
/// another type, which sorts wholly below or above the integers) by a
/// search over the monotone comparison.
fn int_span(low: Bound<&Value>, high: Bound<&Value>) -> Option<(i64, i64)> {
    let at_least = |v: &Value| least_int(|i| Value::Int(i).index_cmp(v) != Ordering::Less);
    let above = |v: &Value| least_int(|i| Value::Int(i).index_cmp(v) == Ordering::Greater);
    let lo = match low {
        Bound::Unbounded => i64::MIN,
        Bound::Included(Value::Int(v)) => *v,
        Bound::Excluded(Value::Int(v)) => v.checked_add(1)?,
        Bound::Included(v) => at_least(v)?,
        Bound::Excluded(v) => above(v)?,
    };
    let hi = match high {
        Bound::Unbounded => i64::MAX,
        Bound::Included(Value::Int(v)) => *v,
        Bound::Excluded(Value::Int(v)) => v.checked_sub(1)?,
        Bound::Included(v) => above(v).map_or(Some(i64::MAX), |i| i.checked_sub(1))?,
        Bound::Excluded(v) => at_least(v).map_or(Some(i64::MAX), |i| i.checked_sub(1))?,
    };
    (lo <= hi).then_some((lo, hi))
}

/// The least `i` with `holds(i)`, where `holds` is false below some
/// point and true from it on; `None` if it never holds.
fn least_int(holds: impl Fn(i64) -> bool) -> Option<i64> {
    if !holds(i64::MAX) {
        return None;
    }
    // `holds(hi)`, and `lo` lies below every `i` that holds.
    let (mut lo, mut hi) = (i128::from(i64::MIN) - 1, i128::from(i64::MAX));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if holds(mid as i64) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi as i64)
}

/// A prefix/range walk over tree keys: the postings of the keys that
/// begin with the first `plen` values of `prefix` and whose next
/// component lies within `low`/`high`, in key order. Ends at the first
/// key past the prefix or the high bound.
struct Groups<'a, P, V> {
    entries: Range<'a>,
    prefix: P,
    plen: usize,
    low: Bound<V>,
    high: Bound<V>,
    done: bool,
}

impl<'a, P: AsRef<[Value]>, V: Borrow<Value>> Iterator for Groups<'a, P, V> {
    type Item = (&'a [Value], PostingRef<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let plen = self.plen;
        let prefix = &self.prefix.as_ref()[..plen];
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
                return Some((key, posting));
            }
        }
        self.done = true;
        None
    }
}

/// One group of a tail-ordered index (every key column but the last)
/// with its entries inside one span of the last column, as
/// [`Index::span_groups`] visits it.
#[derive(Clone, Copy)]
pub struct Group<'a> {
    key: &'a [Value],
    posting: View<'a, Tail>,
    lo: i64,
    hi: i64,
}

impl<'a> Group<'a> {
    /// The group's key: the index's columns but the last.
    pub fn key(&self) -> &'a [Value] {
        self.key
    }

    /// The `(tail, row)` entries within the span, in that order.
    pub fn entries(&self) -> impl Iterator<Item = (i64, RowId)> + 'a {
        self.posting.span(self.lo, self.hi)
    }

    /// How many entries lie within the span: the group's size if the
    /// span holds all of it, else a walk of those inside.
    pub fn count(&self) -> usize {
        self.posting.count(self.lo, self.hi)
    }

    /// How many entries the group holds, in the span or not; read from
    /// the tree slot, without touching the entries.
    pub fn size(&self) -> usize {
        self.posting.len()
    }

    /// [`Group::count`] without reading the entries: exact when the span
    /// holds all of the group's entries or none, and otherwise the
    /// group's size times the share of its tail range (least to
    /// greatest) that the span covers — as if the tails were spread
    /// evenly over that range. Reads only the group's two ends.
    pub fn estimate(&self) -> f64 {
        let (lo, hi) = (self.lo, self.hi);
        let len = self.posting.len() as f64;
        if (lo, hi) == (i64::MIN, i64::MAX) {
            return len;
        }
        let ((first, _), (last, _)) = self.posting.ends();
        if hi < first || last < lo {
            return 0.0;
        }
        if lo <= first && last <= hi {
            return len;
        }
        let covered = hi.min(last) as f64 - lo.max(first) as f64 + 1.0;
        len * covered / (last as f64 - first as f64 + 1.0)
    }

    /// The least and greatest tail within the span; `None` if no entry
    /// lies there.
    pub fn bounds(&self) -> Option<(i64, i64)> {
        let (first, _) = self.posting.span(self.lo, self.hi).next()?;
        let (last, _) = self.posting.last_within(self.hi)?;
        Some((first, last))
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
    /// Create an empty plain index.
    ///
    /// # Panics
    ///
    /// If `def` has no column or more than [`MAX_INDEX_WIDTH`];
    /// `Table::create_index` and `TableSchema::new` refuse those first.
    pub fn new(def: IndexDef) -> Index {
        let tree = Tree::new(def.columns.len(), false);
        Index {
            def,
            tree,
            entries: 0,
        }
    }

    /// Create an empty tail-ordered index: its last column, which must
    /// hold only `Value::Int`s, lives in the postings (see the module
    /// docs).
    ///
    /// # Panics
    ///
    /// If `def` is unique or has fewer than two or more than
    /// [`MAX_INDEX_WIDTH`] columns.
    pub fn with_tail(def: IndexDef) -> Index {
        assert!(
            !def.unique,
            "unique index `{}` cannot be tail-ordered",
            def.name
        );
        let tree = Tree::new(def.columns.len(), true);
        Index {
            def,
            tree,
            entries: 0,
        }
    }

    /// Does this index keep its last column in its postings?
    pub fn is_tail_ordered(&self) -> bool {
        self.tree.tailed()
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

    /// The last column of `row` (a full row) as a tail; 0 for a plain
    /// index, which keeps no tail.
    fn tail_of(&self, row: &[Value]) -> i64 {
        if !self.tree.tailed() {
            return 0;
        }
        let col = *self.def.columns.last().expect("an index has columns");
        match &row[col] {
            Value::Int(v) => *v,
            v => panic!(
                "tail-ordered index `{}` got non-integer tail {v:?}",
                self.def.name
            ),
        }
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
        // A unique index is never tail-ordered, so its tree holds whole keys.
        if !self.def.unique || self.has_null(row) {
            return Ok(());
        }
        let posting = self.tree.get(|i| row[cols[i]].clone());
        let mut ids = posting.into_iter().flat_map(|p| p.ids(i64::MIN, i64::MAX));
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
        let (cols, tail) = (&self.def.columns, self.tail_of(row));
        self.entries += usize::from(self.tree.insert(|i| row[cols[i]].clone(), tail, id));
    }

    /// Remove an entry (a full-width key); returns true if it was present.
    ///
    /// # Panics
    ///
    /// If `key` is not this index's width.
    pub fn remove(&mut self, key: &IndexKey, id: RowId) -> bool {
        let tail = match self.key_span(&key.0) {
            _ if !self.tree.tailed() => 0,
            Some((lo, hi)) if lo == hi => lo,
            _ => return false,
        };
        let removed =
            !key.0.iter().any(Value::is_null) && self.tree.remove(|i| key.0[i].clone(), tail, id);
        self.entries -= usize::from(removed);
        removed
    }

    /// Remove the entry for `row` (a full row) at `id`; returns true if it
    /// was present.
    pub fn remove_row(&mut self, row: &[Value], id: RowId) -> bool {
        if self.has_null(row) {
            return false;
        }
        let (cols, tail) = (&self.def.columns, self.tail_of(row));
        let removed = self.tree.remove(|i| row[cols[i]].clone(), tail, id);
        self.entries -= usize::from(removed);
        removed
    }

    /// Check that `key` is a full-width key of this index, and return the
    /// tails it names: every tail for a plain index, none for a key whose
    /// last value no integer equals.
    ///
    /// # Panics
    ///
    /// If `key` is not this index's width — a lookup that names fewer or
    /// more columns would otherwise quietly find nothing.
    fn key_span(&self, key: &[Value]) -> Option<(i64, i64)> {
        let width = self.def.columns.len();
        assert!(
            key.len() == width,
            "index `{}` takes {width}-column keys, got {} values",
            self.def.name,
            key.len()
        );
        if !self.tree.tailed() {
            return Some((i64::MIN, i64::MAX));
        }
        let tail = &key[width - 1];
        int_span(Bound::Included(tail), Bound::Included(tail))
    }

    /// The posting and tail span that hold exactly the entries of `key`.
    fn lookup(&self, key: &[Value]) -> Option<(PostingRef<'_>, i64, i64)> {
        let (lo, hi) = self.key_span(key)?;
        Some((self.tree.get(|i| key[i].clone())?, lo, hi))
    }

    /// Row ids whose key equals `key` exactly, in entry order.
    ///
    /// # Panics
    ///
    /// If `key` is not this index's width.
    pub fn get_eq<K: AsRef<[Value]> + ?Sized>(&self, key: &K) -> impl Iterator<Item = RowId> + '_ {
        self.lookup(key.as_ref())
            .into_iter()
            .flat_map(|(p, lo, hi)| p.ids(lo, hi))
    }

    /// Number of rows with exactly this key.
    ///
    /// # Panics
    ///
    /// If `key` is not this index's width.
    pub fn count_eq<K: AsRef<[Value]> + ?Sized>(&self, key: &K) -> usize {
        self.lookup(key.as_ref())
            .map_or(0, |(p, lo, hi)| p.count(lo, hi))
    }

    /// The tree walk of a prefix scan and the tail span it admits: the
    /// tree-key prefix and range of a plain index unchanged; on a
    /// tail-ordered one, a range on the last column (or a full-width
    /// prefix) becomes the span of one group. `None` if the scan matches
    /// nothing.
    fn scan<P: AsRef<[Value]>, V: Borrow<Value>>(
        &self,
        prefix: P,
        low: Bound<V>,
        high: Bound<V>,
    ) -> Option<(Groups<'_, P, V>, i64, i64)> {
        let (plen, width) = (prefix.as_ref().len(), self.tree.width());
        if !self.tree.tailed() || plen < width {
            return Some((self.groups(prefix, plen, low, high), i64::MIN, i64::MAX));
        }
        let p = prefix.as_ref();
        let (lo, hi) = match plen - width {
            0 => int_span(
                low.as_ref().map(Borrow::borrow),
                high.as_ref().map(Borrow::borrow),
            )?,
            // A full-width prefix is one key, which a range excludes.
            1 if matches!((&low, &high), (Bound::Unbounded, Bound::Unbounded)) => {
                int_span(Bound::Included(&p[width]), Bound::Included(&p[width]))?
            }
            _ => return None,
        };
        Some((
            self.groups(prefix, width, Bound::Unbounded, Bound::Unbounded),
            lo,
            hi,
        ))
    }

    /// Key-ordered tree postings whose key starts with the first `plen`
    /// values of `prefix`, optionally range-constrained on the tree
    /// column at position `plen`.
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
        plen: usize,
        low: Bound<V>,
        high: Bound<V>,
    ) -> Groups<'_, P, V> {
        // Start at the least key carrying the prefix and the low bound:
        // NULL, the least value, pads the remaining components.
        let p = &prefix.as_ref()[..plen];
        let start = match &low {
            Bound::Unbounded => None,
            Bound::Included(v) | Bound::Excluded(v) => Some(v.borrow()),
        };
        let done = plen > self.tree.width();
        let entries = self.tree.starting_at(|i| match i.cmp(&p.len()) {
            _ if done => Value::Null,
            Ordering::Less => p[i].clone(),
            Ordering::Equal => start.cloned().unwrap_or(Value::Null),
            Ordering::Greater => Value::Null,
        });
        Groups {
            entries,
            prefix,
            plen,
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
        self.scan(prefix, low, high)
            .into_iter()
            .flat_map(|(groups, lo, hi)| groups.flat_map(move |(_, p)| p.ids(lo, hi)))
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
        let Some((groups, lo, hi)) = self.scan(prefix, low, high) else {
            return (0, false);
        };
        let mut n = 0usize;
        for (_, posting) in groups {
            n += posting.count(lo, hi);
            if n >= cap {
                return (n, true);
            }
        }
        (n, false)
    }

    /// Row ids whose key starts with `prefix` (at most the index's
    /// width), optionally range-constrained on the next column.
    ///
    /// `low`/`high` bound the column at position `prefix.len()`.
    pub fn scan_prefix_range(
        &self,
        prefix: &[Value],
        low: Bound<&Value>,
        high: Bound<&Value>,
        out: &mut Vec<RowId>,
    ) {
        if let Some((groups, lo, hi)) = self.scan(prefix, low, high) {
            out.extend(groups.flat_map(|(_, p)| p.ids(lo, hi)));
        }
    }

    /// The groups of a tail-ordered index whose key starts with `prefix`
    /// and whose next column lies within `low`/`high`, in key order, each
    /// seen through `span` of the last column: the one bounded walk the
    /// layout exists for. Every group in the range is visited, including
    /// those with no entry inside the span (its [`Group::count`] is 0);
    /// within a group only the entries inside the span are read.
    ///
    /// `prefix` names at most the group columns; `low`/`high` bound the
    /// group column at position `prefix.len()`, so they must be
    /// unbounded when `prefix` names every group column.
    ///
    /// # Panics
    ///
    /// If the index is not tail-ordered.
    pub fn span_groups<'a>(
        &'a self,
        prefix: &'a [Value],
        low: Bound<&'a Value>,
        high: Bound<&'a Value>,
        span: RangeInclusive<i64>,
    ) -> impl Iterator<Item = Group<'a>> + 'a {
        assert!(
            self.tree.tailed(),
            "index `{}` is not tail-ordered",
            self.def.name
        );
        let (lo, hi) = span.into_inner();
        self.groups(prefix, prefix.len(), low, high)
            .map(move |(key, posting)| match posting {
                PostingRef::Tailed(posting) => Group {
                    key,
                    posting: posting.view(),
                    lo,
                    hi,
                },
                PostingRef::Ids(_) => unreachable!("a tail-ordered tree holds tail postings"),
            })
    }

    /// Every (key, row id) entry as a full-width key, in key order, rows
    /// ascending within a key (used by integrity checks).
    pub fn entries(&self) -> impl Iterator<Item = (Vec<Value>, RowId)> + '_ {
        let tailed = self.tree.tailed();
        self.tree.all().flat_map(move |(key, posting)| {
            posting.pairs(i64::MIN, i64::MAX).map(move |(tail, id)| {
                let mut full = key.to_vec();
                if tailed {
                    full.push(Value::Int(tail));
                }
                (full, id)
            })
        })
    }

    /// Check the entry layout: every key reads back at the index's full
    /// width, each posting holds its entries in strictly ascending
    /// `(tail, RowId)` order (rows alone in a plain index), no posting
    /// keeps fewer than two entries in a sorted vector, every run holds 1
    /// to its maximum, and the entry count matches the postings.
    pub fn check_layout(&self) -> Result<()> {
        let fail = |what: String| {
            Err(Error::ExecError(format!(
                "index `{}` {what}",
                self.def.name
            )))
        };
        let width = self.tree.width() + usize::from(self.tree.tailed());
        if width != self.def.columns.len() {
            return fail(format!(
                "keeps {width}-column keys for {} columns",
                self.def.columns.len()
            ));
        }
        let mut n = 0usize;
        for (_, posting) in self.tree.all() {
            if let Err(what) = posting.check() {
                return fail(what);
            }
            n += posting.count(i64::MIN, i64::MAX);
        }
        if n != self.entries {
            return fail(format!("counts {} entries but holds {n}", self.entries));
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

    #[test]
    fn whole_posting_ids_report_their_exact_size() {
        for n in [1u64, 2, 64, 65, 1_000] {
            let mut ix = Index::new(IndexDef {
                name: "p".into(),
                columns: vec![0],
                unique: false,
            });
            // Out of order, so that runs split in half as well as when full.
            for i in 0..n {
                ix.insert_row(&key(&[5]).0, RowId(i * 37 % n));
            }
            ix.check_layout().unwrap();
            let n = n as usize;
            let posting = ix.tree.get(|_| Value::Int(5)).expect("the key");
            assert_eq!(posting.ids(i64::MIN, i64::MAX).size_hint(), (n, Some(n)));
            let mut ids = ix.get_eq(&key(&[5]));
            ids.next();
            assert_eq!(ids.size_hint(), (n - 1, Some(n - 1)), "{n} rows");
        }
    }

    /// A tail-ordered index on `(group, tail)` columns 0 and 1.
    fn tailed() -> Index {
        let mut ix = Index::with_tail(IndexDef {
            name: "t".into(),
            columns: vec![0, 1],
            unique: false,
        });
        for (g, t, id) in [
            (1, 30, 1),
            (1, 10, 2),
            (1, 20, 3),
            (1, 20, 4),
            (2, 15, 5),
            (3, 5, 6),
        ] {
            ix.insert_row(&key(&[g, t]).0, RowId(id));
        }
        ix
    }

    #[test]
    fn postings_take_no_more_node_space_than_before() {
        assert_eq!(std::mem::size_of::<RowPosting>(), 16);
        assert!(
            std::mem::size_of::<TailPosting>() <= 24,
            "{}",
            std::mem::size_of::<TailPosting>()
        );
    }

    #[test]
    fn tail_ordered_keys_read_back_at_full_width_in_tail_order() {
        let ix = tailed();
        assert!(ix.is_tail_ordered());
        assert_eq!(ix.len(), 6);
        let entries: Vec<(Vec<Value>, RowId)> = ix.entries().collect();
        let want: Vec<(Vec<Value>, RowId)> = [
            (1, 10, 2),
            (1, 20, 3),
            (1, 20, 4),
            (1, 30, 1),
            (2, 15, 5),
            (3, 5, 6),
        ]
        .into_iter()
        .map(|(g, t, id)| (key(&[g, t]).0, RowId(id)))
        .collect();
        assert_eq!(entries, want);
        ix.check_layout().unwrap();
        assert_eq!(
            ix.get_eq(&key(&[1, 20])).collect::<Vec<_>>(),
            vec![RowId(3), RowId(4)]
        );
        assert_eq!(ix.count_eq(&key(&[1, 20])), 2);
        assert_eq!(ix.count_eq(&key(&[1, 21])), 0);
        // A float equal to an integer names it; one between integers
        // names nothing.
        let float = IndexKey(vec![Value::Int(1), Value::Float(20.0)]);
        assert_eq!(ix.count_eq(&float), 2);
        let between = IndexKey(vec![Value::Int(1), Value::Float(20.5)]);
        assert_eq!(ix.count_eq(&between), 0);
    }

    #[test]
    fn tail_ordered_scans_range_over_the_tail() {
        let ix = tailed();
        let scan = |prefix: &[Value], low: Bound<&Value>, high: Bound<&Value>| {
            let mut out = vec![];
            ix.scan_prefix_range(prefix, low, high, &mut out);
            out
        };
        let (v15, v20) = (Value::Int(15), Value::Int(20));
        let one = [Value::Int(1)];
        assert_eq!(
            scan(&one, Bound::Included(&v15), Bound::Unbounded),
            vec![RowId(3), RowId(4), RowId(1)]
        );
        assert_eq!(
            scan(&one, Bound::Excluded(&v20), Bound::Unbounded),
            vec![RowId(1)]
        );
        assert_eq!(
            scan(&[], Bound::Included(&Value::Int(2)), Bound::Unbounded),
            vec![RowId(5), RowId(6)]
        );
        // A full-width prefix is one key; with a range it matches nothing.
        let full = [Value::Int(1), Value::Int(20)];
        assert_eq!(
            scan(&full, Bound::Unbounded, Bound::Unbounded),
            vec![RowId(3), RowId(4)]
        );
        assert!(scan(&full, Bound::Included(&v15), Bound::Unbounded).is_empty());
        assert_eq!(
            ix.count_prefix_range(&one, Bound::Unbounded, Bound::Excluded(&v20), 9),
            (1, false)
        );
    }

    #[test]
    fn span_groups_read_only_the_span() {
        let ix = tailed();
        type Seen = (Vec<Value>, Vec<(i64, RowId)>, usize, Option<(i64, i64)>);
        let groups: Vec<Seen> = ix
            .span_groups(&[], Bound::Unbounded, Bound::Unbounded, 12..=20)
            .map(|g| {
                (
                    g.key().to_vec(),
                    g.entries().collect(),
                    g.count(),
                    g.bounds(),
                )
            })
            .collect();
        assert_eq!(
            groups,
            vec![
                (
                    key(&[1]).0,
                    vec![(20, RowId(3)), (20, RowId(4))],
                    2,
                    Some((20, 20))
                ),
                (key(&[2]).0, vec![(15, RowId(5))], 1, Some((15, 15))),
                (key(&[3]).0, vec![], 0, None),
            ]
        );
        // Group 1's tails 10..=30 overlap the span on 9 of 21 values.
        let estimates: Vec<f64> = ix
            .span_groups(&[], Bound::Unbounded, Bound::Unbounded, 12..=20)
            .map(|g| g.estimate())
            .collect();
        assert_eq!(estimates, vec![4.0 * 9.0 / 21.0, 1.0, 0.0]);
        let whole: Vec<(usize, f64)> = ix
            .span_groups(
                &[Value::Int(1)],
                Bound::Unbounded,
                Bound::Unbounded,
                i64::MIN..=i64::MAX,
            )
            .map(|g| (g.count(), g.estimate()))
            .collect();
        assert_eq!(whole, vec![(4, 4.0)]);
        // An empty span reads nothing and panics nowhere.
        let empty: usize = ix
            .span_groups(
                &[],
                Bound::Unbounded,
                Bound::Unbounded,
                RangeInclusive::new(9, 3),
            )
            .map(|g| g.count())
            .sum();
        assert_eq!(empty, 0);
    }

    #[test]
    fn tail_ordered_postings_shrink_back_to_one() {
        let mut ix = tailed();
        assert!(ix.remove(&key(&[1, 20]), RowId(3)));
        assert!(!ix.remove(&key(&[1, 20]), RowId(3)));
        assert!(ix.remove_row(&key(&[1, 10]).0, RowId(2)));
        assert!(ix.remove(&IndexKey(vec![Value::Int(1), Value::Float(30.0)]), RowId(1)));
        ix.check_layout().unwrap();
        assert_eq!(
            ix.entries().filter(|(k, _)| k[0] == Value::Int(1)).count(),
            1
        );
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn groups_share_their_key_strings() {
        let mut ix = Index::with_tail(IndexDef {
            name: "s".into(),
            columns: vec![0, 1, 2],
            unique: false,
        });
        // Each row spells the name in its own allocation.
        for (v, oid) in [(2, 10), (1, 11), (3, 12), (2, 13)] {
            let row = [Value::from("name"), Value::Int(v), Value::Int(oid)];
            ix.insert_row(&row, RowId(oid as u64));
        }
        let names: Vec<Value> = ix
            .span_groups(&[], Bound::Unbounded, Bound::Unbounded, i64::MIN..=i64::MAX)
            .map(|g| g.key()[0].clone())
            .collect();
        assert_eq!(names.len(), 3);
        let Value::Str(first) = &names[0] else {
            panic!("a string key")
        };
        for name in &names[1..] {
            assert!(matches!(name, Value::Str(s) if std::sync::Arc::ptr_eq(s, first)));
        }
    }

    #[test]
    fn int_span_matches_the_index_order() {
        let (i, f) = (Value::Int, Value::Float);
        let span = |low: Bound<&Value>, high: Bound<&Value>| int_span(low, high);
        assert_eq!(
            span(Bound::Included(&i(3)), Bound::Excluded(&i(7))),
            Some((3, 6))
        );
        assert_eq!(
            span(Bound::Excluded(&f(2.5)), Bound::Included(&f(6.0))),
            Some((3, 6))
        );
        assert_eq!(
            span(Bound::Included(&f(-2.5)), Bound::Excluded(&f(-1.0))),
            Some((-2, -2))
        );
        assert_eq!(span(Bound::Excluded(&i(i64::MAX)), Bound::Unbounded), None);
        assert_eq!(span(Bound::Unbounded, Bound::Excluded(&i(i64::MIN))), None);
        // Strings sort above every number, NULL below.
        let s = Value::from("a");
        assert_eq!(
            span(Bound::Unbounded, Bound::Included(&s)),
            Some((i64::MIN, i64::MAX))
        );
        assert_eq!(span(Bound::Included(&s), Bound::Unbounded), None);
        assert_eq!(
            span(Bound::Excluded(&Value::Null), Bound::Unbounded),
            Some((i64::MIN, i64::MAX))
        );
        assert_eq!(
            span(Bound::Included(&f(1.5)), Bound::Included(&f(1.75))),
            None
        );
    }

    #[test]
    #[should_panic(expected = "takes 2-column keys, got 1 values")]
    fn get_eq_of_a_short_key_panics() {
        let _ = idx2().get_eq(&key(&[1])).count();
    }

    #[test]
    #[should_panic(expected = "takes 2-column keys, got 3 values")]
    fn count_eq_of_a_long_key_panics() {
        idx2().count_eq(&key(&[1, 10, 0]));
    }

    #[test]
    #[should_panic(expected = "takes 2-column keys, got 1 values")]
    fn remove_of_a_short_key_panics() {
        tailed().remove(&key(&[1]), RowId(1));
    }
}
