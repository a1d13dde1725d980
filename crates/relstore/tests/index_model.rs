//! Model test for `relstore::Index`: a seeded stream of row inserts, row
//! and key removes, updates, point lookups, prefix/range scans and
//! span-bounded group walks (with their in-span counts and estimates) on
//! plain indexes of width 1–4 and on
//! tail-ordered ones of width 2–4, checked step by step against a plain
//! `BTreeMap<Vec<Value>, BTreeSet<RowId>>` of full-width keys ordered by
//! the index comparator (`Value::index_cmp` per component, a proper
//! prefix first). Scans on the reference are brute-force filters of the
//! whole map, so the index's range starts, early stops and span seeks are
//! checked against what a scan means, not against themselves.
//!
//! Keys draw from a small pool with NULL, `Int(3)` beside `Float(3.0)`
//! and strings, so keys collide, postings grow from one row to many and
//! shrink back, and `Excluded` low bounds land on components that longer
//! keys share. A tail-ordered index's last column draws from a few
//! integers (and NULL), so tails repeat within a group, and one row id
//! can sit under several tails of one group at once, as MVCC leaves a
//! superseded entry beside the current one until vacuum. Each seed
//! asserts it exercised those cases.
//!
//! An index stores no key with a NULL component, so the reference leaves
//! out every row with a NULL in an indexed column, and a lookup, remove
//! or scan naming a NULL finds nothing in it. Each seed asserts that it
//! offered such rows at every width and that the index entered none.
//!
//! `tail_ordered_index_under_mvcc` drives the same layout through an
//! MVCC table, where updates and deletes leave dangling entries that
//! only vacuum removes. `tail_posting_runs_split_and_merge` and
//! `plain_posting_runs_split_and_merge` grow one key's posting past many
//! runs and shrink it back to one entry.
//!
//! Replay one seed: `MCS_SEED=<seed> cargo test -p relstore --test
//! index_model -- --nocapture`.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::panic::{catch_unwind, AssertUnwindSafe};

use relstore::{Database, Index, IndexDef, IndexKey, RowId, Value};
use testkit::Rng;

/// A reference key under the index order.
#[derive(Debug, Clone)]
struct RefKey(Vec<Value>);

impl PartialEq for RefKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RefKey {}

impl PartialOrd for RefKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RefKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            match a.index_cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

type Model = BTreeMap<RefKey, BTreeSet<RowId>>;

/// A group's key and its `(tail, row)` entries inside a span.
type SpanGroup = (Vec<Value>, Vec<(i64, RowId)>);

/// Cases each seed must reach at least once.
#[derive(Debug, Default)]
struct Coverage {
    one_to_many: usize,
    many_to_one: usize,
    absent_removes: usize,
    int_float_merges: usize,
    excluded_low_on_shared: usize,
    /// NULL-keyed rows offered, per width.
    null_rows: [usize; 4],
    /// Entries the index added for them.
    null_rows_entered: usize,
    /// Tail-ordered groups that went from one entry to two, and back.
    group_one_to_many: usize,
    group_many_to_one: usize,
    /// Two rows under one tail of one group.
    duplicate_tails: usize,
    /// One row under two tails of one group (an update that kept its
    /// old entry).
    dangling: usize,
    /// Lookups and removes naming a tail as a float equal to it.
    float_tails: usize,
    /// Span walks that left out some, but not all, of a group's entries.
    partial_spans: usize,
}

fn pool() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(1),
        Value::Int(3),
        Value::Float(3.0),
        Value::Float(2.5),
        Value::Int(7),
        Value::from("a"),
        Value::from("b"),
        Value::from("bb"),
    ]
}

fn values(rng: &mut Rng, n: usize) -> Vec<Value> {
    let pool = pool();
    (0..n).map(|_| rng.pick(&pool).clone()).collect()
}

/// A last column for a tail-ordered index: a few integers, so tails
/// repeat, and now and then NULL.
fn tail(rng: &mut Rng) -> Value {
    if rng.one_in(12) {
        Value::Null
    } else {
        Value::Int(rng.below(6) as i64)
    }
}

/// A key of `width` columns; a tail-ordered index's last one is a tail.
fn key(rng: &mut Rng, width: usize, tailed: bool) -> Vec<Value> {
    if !tailed {
        return values(rng, width);
    }
    let mut key = values(rng, width - 1);
    key.push(tail(rng));
    key
}

fn bound(rng: &mut Rng) -> Bound<Value> {
    let v = values(rng, 1).pop().expect("one value");
    match rng.below(3) {
        0 => Bound::Unbounded,
        1 => Bound::Included(v),
        _ => Bound::Excluded(v),
    }
}

/// Does `next` (the key component after the prefix) satisfy the scan?
fn in_range(next: Option<&Value>, low: &Bound<Value>, high: &Bound<Value>) -> bool {
    let ranged = !matches!((low, high), (Bound::Unbounded, Bound::Unbounded));
    let Some(next) = next else { return !ranged };
    let above = match low {
        Bound::Unbounded => true,
        Bound::Included(lo) => next.index_cmp(lo) != Ordering::Less,
        Bound::Excluded(lo) => next.index_cmp(lo) == Ordering::Greater,
    };
    let below = match high {
        Bound::Unbounded => true,
        Bound::Included(hi) => next.index_cmp(hi) != Ordering::Greater,
        Bound::Excluded(hi) => next.index_cmp(hi) == Ordering::Less,
    };
    above && below
}

fn starts_with(key: &[Value], prefix: &[Value]) -> bool {
    key.len() >= prefix.len()
        && key
            .iter()
            .zip(prefix)
            .all(|(a, b)| a.index_cmp(b) == Ordering::Equal)
}

/// The reference's postings a prefix/range scan visits, in key order.
fn ref_scan<'a>(
    model: &'a Model,
    prefix: &'a [Value],
    low: &'a Bound<Value>,
    high: &'a Bound<Value>,
) -> impl Iterator<Item = &'a BTreeSet<RowId>> {
    model
        .iter()
        .filter(move |(k, _)| {
            starts_with(&k.0, prefix) && in_range(k.0.get(prefix.len()), low, high)
        })
        .map(|(_, ids)| ids)
}

/// Entries of the group `gkey` (every column but the last), as
/// `(tail, row)` in order.
fn group_of(model: &Model, gkey: &[Value]) -> Vec<(i64, RowId)> {
    model
        .iter()
        .filter(|(k, _)| k.0.len() == gkey.len() + 1 && starts_with(&k.0, gkey))
        .flat_map(|(k, ids)| {
            let t = k.0[gkey.len()].as_int().expect("an integer tail");
            ids.iter().map(move |&id| (t, id))
        })
        .collect()
}

fn run(seed: u64, width: usize, tailed: bool, steps: usize, cov: &mut Coverage) {
    let mut rng = Rng::new(
        seed.wrapping_mul(31)
            .wrapping_add(width as u64)
            .wrapping_add(u64::from(tailed) << 8),
    );
    // The key lists the row's columns last to first, so the index
    // projects rows onto keys instead of storing them as they come.
    let columns: Vec<usize> = (0..width).rev().collect();
    let row_of = |key: &[Value]| -> Vec<Value> { key.iter().rev().cloned().collect() };
    let def = IndexDef {
        name: format!("w{width}{}", if tailed { "t" } else { "" }),
        columns,
        unique: false,
    };
    let mut ix = if tailed {
        Index::with_tail(def)
    } else {
        Index::new(def)
    };
    assert_eq!(ix.is_tail_ordered(), tailed);
    let mut model = Model::new();
    let group_len = |model: &Model, key: &[Value]| group_of(model, &key[..width - 1]).len();
    for step in 0..steps {
        let ctx = format!("seed {seed} width {width} tailed {tailed} step {step}");
        // On a tail-ordered index an update may keep the old entry, as
        // MVCC does until vacuum; otherwise it removes it first.
        let op = rng.below(if tailed { 10 } else { 8 });
        match op {
            0..=2 | 8 | 9 => {
                let existing = model
                    .iter()
                    .nth(rng.below(model.len() as u64 + 1) as usize)
                    .map(|(k, ids)| (k.0.clone(), ids.iter().copied().collect::<Vec<_>>()));
                let (key, id) = match existing {
                    Some((k, ids)) if op >= 8 => {
                        let id = *rng.pick(&ids);
                        if op == 9 {
                            let removed = ix.remove_row(&row_of(&k), id);
                            assert!(removed, "{ctx}: update removes its old entry");
                            let rk = RefKey(k.clone());
                            let ids = model.get_mut(&rk).expect("listed");
                            ids.remove(&id);
                            if ids.is_empty() {
                                model.remove(&rk);
                            }
                        }
                        let mut key = k;
                        key[width - 1] = Value::Int(rng.below(6) as i64);
                        (key, id)
                    }
                    _ => (key(&mut rng, width, tailed), RowId(rng.below(12))),
                };
                let before = ix.len();
                let group_before =
                    (tailed && !key.iter().any(Value::is_null)).then(|| group_len(&model, &key));
                ix.insert_row(&row_of(&key), id);
                if key.iter().any(Value::is_null) {
                    cov.null_rows[width - 1] += 1;
                    cov.null_rows_entered += ix.len() - before;
                } else {
                    if let Some((stored, _)) = model.get_key_value(&RefKey(key.clone())) {
                        if stored.0 != key {
                            cov.int_float_merges += 1;
                        }
                    }
                    let ids = model.entry(RefKey(key.clone())).or_default();
                    let added = ids.insert(id);
                    if added && ids.len() == 2 {
                        cov.one_to_many += 1;
                        cov.duplicate_tails += usize::from(tailed);
                    }
                    if group_before == Some(1) && added {
                        cov.group_one_to_many += 1;
                    }
                    if tailed && added {
                        let group = group_of(&model, &key[..width - 1]);
                        let tails = group.iter().filter(|(_, held)| *held == id).count();
                        cov.dangling += usize::from(tails > 1);
                    }
                }
            }
            3 | 4 => {
                // Mostly an entry that is there, sometimes one that is not.
                let (key, id) = match model.iter().nth(rng.below(model.len() as u64 + 1) as usize) {
                    Some((k, ids)) if !rng.one_in(4) => {
                        let ids: Vec<RowId> = ids.iter().copied().collect();
                        (k.0.clone(), *rng.pick(&ids))
                    }
                    _ => (key(&mut rng, width, tailed), RowId(rng.below(12))),
                };
                let rk = RefKey(key.clone());
                let group_before =
                    (tailed && model.contains_key(&rk)).then(|| group_len(&model, &key));
                let expected = model.get_mut(&rk).is_some_and(|ids| ids.remove(&id));
                match model.get(&rk).map(BTreeSet::len) {
                    Some(0) => drop(model.remove(&rk)),
                    Some(1) if expected => cov.many_to_one += 1,
                    _ => {}
                }
                if expected && group_before == Some(2) {
                    cov.group_many_to_one += 1;
                }
                cov.absent_removes += usize::from(!expected);
                let removed = if rng.one_in(2) {
                    ix.remove_row(&row_of(&key), id)
                } else {
                    let mut key = key;
                    if let (true, Value::Int(t)) = (tailed, &key[width - 1]) {
                        if rng.one_in(3) {
                            key[width - 1] = Value::Float(*t as f64);
                            cov.float_tails += 1;
                        }
                    }
                    ix.remove(&IndexKey(key), id)
                };
                assert_eq!(removed, expected, "{ctx}: remove");
            }
            5 => {
                // Full-width keys, some with a NULL, which the model never
                // holds, and some naming a tail as a float.
                let mut key = key(&mut rng, width, tailed);
                let expected: Vec<RowId> = model
                    .get(&RefKey(key.clone()))
                    .map_or_else(Vec::new, |ids| ids.iter().copied().collect());
                let mut expected = expected;
                if let (true, Value::Int(t)) = (tailed, &key[width - 1]) {
                    if rng.one_in(3) {
                        // Between two integers, a float names no tail.
                        let between = rng.one_in(4);
                        key[width - 1] = Value::Float(*t as f64 + if between { 0.5 } else { 0.0 });
                        if between {
                            expected.clear();
                        }
                        cov.float_tails += 1;
                    }
                }
                let key = IndexKey(key);
                assert_eq!(
                    ix.get_eq(&key).collect::<Vec<_>>(),
                    expected,
                    "{ctx}: get_eq {key:?}"
                );
                assert_eq!(ix.count_eq(&key), expected.len(), "{ctx}: count_eq {key:?}");
            }
            6 if tailed => {
                // A span walk over the groups of a prefix range.
                let n = rng.below(width as u64) as usize;
                let prefix = values(&mut rng, n);
                let (low, high) = if n + 1 < width {
                    (bound(&mut rng), bound(&mut rng))
                } else {
                    (Bound::Unbounded, Bound::Unbounded)
                };
                let (lo, hi) = (rng.below(8) as i64 - 1, rng.below(8) as i64 - 1);
                let mut groups: Vec<Vec<Value>> = Vec::new();
                for k in model.keys().filter(|k| {
                    starts_with(&k.0, &prefix) && in_range(k.0.get(prefix.len()), &low, &high)
                }) {
                    let g = &k.0[..width - 1];
                    if groups
                        .last()
                        .is_none_or(|last| RefKey(last.clone()) != RefKey(g.to_vec()))
                    {
                        groups.push(g.to_vec());
                    }
                }
                let want: Vec<SpanGroup> = groups
                    .into_iter()
                    .map(|g| {
                        let all = group_of(&model, &g);
                        let inside: Vec<(i64, RowId)> = all
                            .iter()
                            .copied()
                            .filter(|(t, _)| (lo..=hi).contains(t))
                            .collect();
                        cov.partial_spans +=
                            usize::from(!inside.is_empty() && inside.len() < all.len());
                        (g, inside)
                    })
                    .collect();
                let got: Vec<SpanGroup> = ix
                    .span_groups(&prefix, low.as_ref(), high.as_ref(), lo..=hi)
                    .map(|g| {
                        let entries: Vec<(i64, RowId)> = g.entries().collect();
                        assert_eq!(g.count(), entries.len(), "{ctx}: count");
                        // The estimate is exact when the span holds all
                        // of the group or none of it, and never above
                        // the group's size.
                        let whole = g.key().to_vec();
                        let all = group_of(&model, &whole);
                        let inside = all.iter().filter(|(t, _)| (lo..=hi).contains(t)).count();
                        let (first, last) = (all[0].0, all[all.len() - 1].0);
                        if (lo <= first && last <= hi) || hi < first || last < lo {
                            assert_eq!(g.estimate(), inside as f64, "{ctx}: estimate");
                        }
                        assert!(
                            g.estimate() <= all.len() as f64,
                            "{ctx}: estimate above size"
                        );
                        let bounds = entries
                            .first()
                            .map(|f| (f.0, entries.last().expect("first").0));
                        assert_eq!(g.bounds(), bounds, "{ctx}: bounds");
                        (g.key().to_vec(), entries)
                    })
                    .collect();
                let (got_keys, want_keys): (Vec<_>, Vec<_>) = (
                    got.iter()
                        .map(|(k, e)| (RefKey(k.clone()), e.clone()))
                        .collect(),
                    want.iter()
                        .map(|(k, e)| (RefKey(k.clone()), e.clone()))
                        .collect(),
                );
                assert_eq!(
                    got_keys, want_keys,
                    "{ctx}: span_groups {prefix:?} {low:?} {high:?} {lo}..={hi}"
                );
            }
            _ => {
                let n = rng.below(width as u64 + 1) as usize;
                let prefix = values(&mut rng, n);
                let (low, high) = (bound(&mut rng), bound(&mut rng));
                if let Bound::Excluded(lo) = &low {
                    let shared =
                        ref_scan(&model, &prefix, &Bound::Unbounded, &Bound::Unbounded).count();
                    let on_lo = model.keys().any(|k| {
                        k.0.len() > prefix.len() + 1
                            && starts_with(&k.0, &prefix)
                            && k.0[prefix.len()].index_cmp(lo) == Ordering::Equal
                    });
                    cov.excluded_low_on_shared += usize::from(shared > 1 && on_lo);
                }
                let expected: Vec<RowId> = ref_scan(&model, &prefix, &low, &high)
                    .flatten()
                    .copied()
                    .collect();
                let what = format!("{ctx}: scan {prefix:?} {low:?} {high:?}");
                let got: Vec<RowId> = ix
                    .iter_prefix_range(prefix.clone(), low.clone(), high.clone())
                    .collect();
                assert_eq!(got, expected, "{what}: iter_prefix_range");
                let mut scanned = Vec::new();
                ix.scan_prefix_range(&prefix, low.as_ref(), high.as_ref(), &mut scanned);
                assert_eq!(scanned, expected, "{what}: scan_prefix_range");
                let cap = 1 + rng.below(6) as usize;
                // A dive counts whole postings: one per key of a plain
                // index, one per group of a tail-ordered one.
                let unit = if tailed { width - 1 } else { width };
                let mut want = (0, false);
                let mut keys = model
                    .iter()
                    .filter(|(k, _)| {
                        starts_with(&k.0, &prefix) && in_range(k.0.get(prefix.len()), &low, &high)
                    })
                    .peekable();
                while let Some((k, ids)) = keys.next() {
                    want.0 += ids.len();
                    let same = |next: &(&RefKey, _)| {
                        RefKey(next.0 .0[..unit].to_vec()) == RefKey(k.0[..unit].to_vec())
                    };
                    if keys.peek().is_some_and(same) {
                        continue;
                    }
                    if want.0 >= cap {
                        want.1 = true;
                        break;
                    }
                }
                let got = ix.count_prefix_range(&prefix, low.as_ref(), high.as_ref(), cap);
                assert_eq!(got, want, "{what}: count_prefix_range cap {cap}");
            }
        }
        let total: usize = model.values().map(BTreeSet::len).sum();
        assert_eq!(ix.len(), total, "{ctx}: len");
        if step % 64 == 0 {
            ix.check_layout().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let entries: Vec<(Vec<Value>, RowId)> = ix.entries().collect();
            let want: Vec<(Vec<Value>, RowId)> = model
                .iter()
                .flat_map(|(k, ids)| ids.iter().map(move |&id| (k.0.clone(), id)))
                .collect();
            if tailed {
                // A group keeps the first spelling of its columns
                // (`Int(3)` or `Float(3.0)`) for every tail under it.
                let order = |v: Vec<(Vec<Value>, RowId)>| -> Vec<(RefKey, RowId)> {
                    v.into_iter().map(|(k, id)| (RefKey(k), id)).collect()
                };
                assert_eq!(order(entries), order(want), "{ctx}: entries");
            } else {
                assert_eq!(entries, want, "{ctx}: entries");
            }
        }
    }
}

#[test]
fn index_matches_reference_model() {
    for seed in testkit::seeds(&[1, 2, 3, 4]) {
        let mut cov = Coverage::default();
        for width in 1..=4 {
            run(seed, width, false, 3_000, &mut cov);
        }
        for width in 2..=4 {
            run(seed, width, true, 3_000, &mut cov);
        }
        println!("seed {seed}: {cov:?}");
        let reached = [
            ("a posting went from one row to many", cov.one_to_many),
            ("a posting went from many rows to one", cov.many_to_one),
            ("an absent entry was removed", cov.absent_removes),
            ("Int(3) met Float(3.0)", cov.int_float_merges),
            (
                "an Excluded low fell on a shared component",
                cov.excluded_low_on_shared,
            ),
            ("a group went from one entry to two", cov.group_one_to_many),
            (
                "a group went from two entries to one",
                cov.group_many_to_one,
            ),
            ("two rows shared a tail", cov.duplicate_tails),
            ("a row sat under two tails of one group", cov.dangling),
            ("a tail was named as a float", cov.float_tails),
            ("a span cut a group", cov.partial_spans),
        ];
        for (what, n) in reached {
            assert!(n > 0, "seed {seed}: never reached: {what}");
        }
        assert!(
            cov.null_rows.iter().all(|&n| n > 0),
            "seed {seed}: NULL-keyed rows offered per width {:?}",
            cov.null_rows
        );
        assert_eq!(
            cov.null_rows_entered, 0,
            "seed {seed}: the index entered NULL-keyed rows"
        );
    }
}

/// A lookup, count or remove naming a key of another width panics on
/// both layouts; a scan whose prefix is too long matches nothing.
#[test]
fn wrong_width_keys_fail_loudly() {
    for tailed in [false, true] {
        let def = IndexDef {
            name: "w2".into(),
            columns: vec![0, 1],
            unique: false,
        };
        let mut ix = if tailed {
            Index::with_tail(def)
        } else {
            Index::new(def)
        };
        ix.insert_row(&[Value::Int(1), Value::Int(2)], RowId(0));
        let short = IndexKey(vec![Value::Int(1)]);
        let long = IndexKey(vec![Value::Int(1), Value::Int(2), Value::Null]);
        for key in [&short, &long] {
            assert!(
                catch_unwind(|| ix.count_eq(key)).is_err(),
                "count_eq {key:?}"
            );
            assert!(
                catch_unwind(|| ix.get_eq(key).count()).is_err(),
                "get_eq {key:?}"
            );
            let mut copy = ix.clone();
            let removed = catch_unwind(AssertUnwindSafe(|| copy.remove(key, RowId(0))));
            assert!(removed.is_err(), "remove {key:?}");
        }
        assert_eq!(ix.count_eq(&[Value::Int(1), Value::Int(2)]), 1);
        let beyond = [Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(
            ix.count_prefix_range(&beyond, Bound::Unbounded, Bound::Unbounded, 10),
            (0, false)
        );
        assert_eq!(
            ix.count_prefix_range(&beyond[..2], Bound::Unbounded, Bound::Unbounded, 10),
            (1, false)
        );
        let low = Value::Int(0);
        assert_eq!(
            ix.count_prefix_range(&beyond[..2], Bound::Included(&low), Bound::Unbounded, 10),
            (0, false)
        );
    }
}

/// A tail-ordered index on an MVCC table: updates that move a row to
/// another group or tail, and deletes, leave the old entries dangling
/// until vacuum, which runs now and then while a pinned snapshot holds
/// some of them back. After every step the table passes its integrity
/// check (full-width keys in `(key, row)` order, every entry backed by
/// an image), and a span walk, re-checked on each entry's visible image
/// as the catalog's planner does, finds exactly the model's rows.
#[test]
fn tail_ordered_index_under_mvcc() {
    testkit::check("tail_ordered_index_under_mvcc", 8, |rng| {
        let db = Database::new_mvcc();
        db.execute_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT, g VARCHAR(8) NOT NULL,
                             oid INTEGER NOT NULL);
             CREATE INDEX t_g ON t (g, oid);",
        )
        .unwrap();
        assert!(db
            .table("t")
            .unwrap()
            .read()
            .index("t_g")
            .unwrap()
            .is_tail_ordered());
        // Live rows: id -> (g, oid).
        let mut live: BTreeMap<i64, (String, i64)> = BTreeMap::new();
        let mut pin = None;
        let mut dangling = 0usize;
        for step in 0..300 {
            let g = format!("g{}", rng.below(3));
            let oid = rng.below(40) as i64;
            let pick = |rng: &mut Rng| {
                let ids: Vec<i64> = live.keys().copied().collect();
                (!ids.is_empty()).then(|| *rng.pick(&ids))
            };
            match rng.below(10) {
                0..=3 => {
                    let params = [g.as_str().into(), oid.into()];
                    let r = db
                        .execute("INSERT INTO t (g, oid) VALUES (?, ?)", &params)
                        .unwrap();
                    live.insert(r.last_insert_id.expect("an id"), (g, oid));
                }
                4..=6 => {
                    if let Some(id) = pick(rng) {
                        db.execute(
                            "UPDATE t SET g = ?, oid = ? WHERE id = ?",
                            &[g.as_str().into(), oid.into(), id.into()],
                        )
                        .unwrap();
                        live.insert(id, (g, oid));
                    }
                }
                7 => {
                    if let Some(id) = pick(rng) {
                        db.execute("DELETE FROM t WHERE id = ?", &[id.into()])
                            .unwrap();
                        live.remove(&id);
                    }
                }
                8 => {
                    pin = if pin.is_some() {
                        None
                    } else {
                        db.pin_snapshot()
                    }
                }
                _ => {
                    db.vacuum();
                }
            }
            let handle = db.table("t").unwrap();
            let t = handle.read();
            t.check_integrity()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            let ix = t.index("t_g").unwrap();
            let keyed: usize = t.scan().count();
            dangling += ix.len() - keyed;
            // Every live row of one group inside a span of oids.
            let g = Value::from(format!("g{}", rng.below(3)).as_str());
            let (lo, hi) = (rng.below(40) as i64, rng.below(40) as i64);
            let mut got: Vec<(i64, i64)> = Vec::new();
            let prefix = [g.clone()];
            for group in ix.span_groups(&prefix, Bound::Unbounded, Bound::Unbounded, lo..=hi) {
                for (oid, rid) in group.entries() {
                    let Some(row) = t.get(rid) else { continue };
                    if row[1] == g && row[2] == Value::Int(oid) {
                        got.push((row[0].as_int().unwrap(), oid));
                    }
                }
            }
            got.sort_unstable();
            let want: Vec<(i64, i64)> = live
                .iter()
                .filter(|(_, (rg, o))| Value::from(rg.as_str()) == g && (lo..=hi).contains(o))
                .map(|(&id, &(_, o))| (id, o))
                .collect();
            assert_eq!(got, want, "step {step}: {g:?} {lo}..={hi}");
        }
        drop(pin);
        assert!(dangling > 0, "no dangling entry was ever walked past");
    });
}

/// One group of a tail-ordered index grown past many runs and shrunk back
/// to one entry, several times, in random order: its entries, span walks,
/// counts, ends and layout match a `BTreeSet` of `(tail, row)` pairs
/// throughout.
#[test]
fn tail_posting_runs_split_and_merge() {
    testkit::check("tail_posting_runs_split_and_merge", 6, |rng| {
        let def = IndexDef {
            name: "g".into(),
            columns: vec![0, 1],
            unique: false,
        };
        let mut ix = Index::with_tail(def);
        let mut model: BTreeSet<(i64, RowId)> = BTreeSet::new();
        let (mut peak, mut emptied) = (0usize, 0usize);
        for step in 0..6_000 {
            // Grow for a while, then shrink, in phases of 1 000 steps.
            let growing = (step / 1_000) % 2 == 0;
            let (t, id) = (rng.below(400) as i64, RowId(rng.below(3)));
            let row = [Value::Int(7), Value::Int(t)];
            if growing || rng.one_in(20) {
                ix.insert_row(&row, id);
                model.insert((t, id));
            } else {
                let present = model
                    .iter()
                    .nth(rng.below(model.len() as u64 + 1) as usize)
                    .copied();
                let (t, id) = present.unwrap_or((t, id));
                let want = model.remove(&(t, id));
                let row = [Value::Int(7), Value::Int(t)];
                assert_eq!(
                    ix.remove_row(&row, id),
                    want,
                    "step {step}: remove {t} {id:?}"
                );
            }
            peak = peak.max(model.len());
            emptied += usize::from(peak > 600 && model.len() <= 1);
            assert_eq!(ix.len(), model.len(), "step {step}");
            if step % 50 == 0 {
                ix.check_layout()
                    .unwrap_or_else(|e| panic!("step {step}: {e}"));
                let entries: Vec<(i64, RowId)> = ix
                    .entries()
                    .map(|(k, id)| (k[1].as_int().expect("an integer tail"), id))
                    .collect();
                assert_eq!(
                    entries,
                    model.iter().copied().collect::<Vec<_>>(),
                    "step {step}"
                );
            }
            let (lo, hi) = (rng.below(420) as i64 - 10, rng.below(420) as i64 - 10);
            let want: Vec<(i64, RowId)> = model
                .iter()
                .copied()
                .filter(|(t, _)| (lo..=hi).contains(t))
                .collect();
            let prefix = [Value::Int(7)];
            let groups: Vec<_> = ix
                .span_groups(&prefix, Bound::Unbounded, Bound::Unbounded, lo..=hi)
                .collect();
            assert_eq!(groups.len(), usize::from(!model.is_empty()), "step {step}");
            if let Some(g) = groups.first() {
                assert_eq!(
                    g.entries().collect::<Vec<_>>(),
                    want,
                    "step {step}: {lo}..={hi}"
                );
                assert_eq!(g.count(), want.len(), "step {step}");
                let ends = want.first().map(|f| (f.0, want.last().expect("first").0));
                assert_eq!(g.bounds(), ends, "step {step}: bounds {lo}..={hi}");
                assert!(g.estimate() <= model.len() as f64, "step {step}");
            }
        }
        assert!(peak > 600, "the group never grew past many runs: {peak}");
        assert!(emptied > 0, "the group never shrank to one entry");
    });
}

/// One key of a plain index grown past many runs and shrunk back to one
/// row, several times, in random order: its rows, lookups, counts and
/// layout match a `BTreeSet` of row ids throughout.
#[test]
fn plain_posting_runs_split_and_merge() {
    testkit::check("plain_posting_runs_split_and_merge", 6, |rng| {
        let def = IndexDef {
            name: "p".into(),
            columns: vec![0],
            unique: false,
        };
        let mut ix = Index::new(def);
        let mut model: BTreeSet<RowId> = BTreeSet::new();
        let (mut peak, mut emptied) = (0usize, 0usize);
        let key = IndexKey(vec![Value::Int(7)]);
        for step in 0..6_000 {
            // Grow for a while, then shrink, in phases of 1 000 steps.
            let growing = (step / 1_000) % 2 == 0;
            let id = RowId(rng.below(1_200));
            if growing || rng.one_in(20) {
                ix.insert_row(&key.0, id);
                model.insert(id);
            } else {
                let present = model
                    .iter()
                    .nth(rng.below(model.len() as u64 + 1) as usize)
                    .copied();
                let id = present.unwrap_or(id);
                let want = model.remove(&id);
                assert_eq!(ix.remove(&key, id), want, "step {step}: remove {id:?}");
            }
            peak = peak.max(model.len());
            emptied += usize::from(peak > 600 && model.len() <= 1);
            assert_eq!(ix.len(), model.len(), "step {step}");
            assert_eq!(ix.count_eq(&key), model.len(), "step {step}");
            if step % 50 == 0 {
                ix.check_layout()
                    .unwrap_or_else(|e| panic!("step {step}: {e}"));
                let ids: Vec<RowId> = ix.get_eq(&key).collect();
                assert_eq!(ids, model.iter().copied().collect::<Vec<_>>(), "step {step}");
            }
        }
        assert!(peak > 600, "the posting never grew past many runs: {peak}");
        assert!(emptied > 0, "the posting never shrank to one row");
    });
}
