//! Model test for `relstore::Index`: a seeded stream of row inserts, row
//! and key removes, point lookups and prefix/range scans on indexes of
//! width 1–4, checked step by step against a plain `BTreeMap<Vec<Value>, BTreeSet<RowId>>`
//! ordered by the index comparator (`Value::index_cmp` per component, a
//! proper prefix first). Scans on the reference are brute-force filters
//! of the whole map, so the index's range starts and early stops are
//! checked against what a scan means, not against themselves.
//!
//! Keys draw from a small pool with NULL, `Int(3)` beside `Float(3.0)`
//! and strings, so keys collide, postings grow from one row to many and
//! shrink back, and `Excluded` low bounds land on components that longer
//! keys share. Each seed asserts it exercised those cases.
//!
//! An index stores no key with a NULL component, so the reference leaves
//! out every row with a NULL in an indexed column, and a lookup, remove
//! or scan naming a NULL finds nothing in it. Each seed asserts that it
//! offered such rows at every width and that the index entered none.
//!
//! Replay one seed: `MCS_SEED=<seed> cargo test -p relstore --test
//! index_model -- --nocapture`.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use relstore::{Index, IndexDef, IndexKey, RowId, Value};
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

/// The reference's postings a prefix/range scan visits, in key order.
fn ref_scan<'a>(
    model: &'a BTreeMap<RefKey, BTreeSet<RowId>>,
    prefix: &'a [Value],
    low: &'a Bound<Value>,
    high: &'a Bound<Value>,
) -> impl Iterator<Item = &'a BTreeSet<RowId>> {
    model
        .iter()
        .filter(move |(k, _)| {
            k.0.len() >= prefix.len()
                && k.0
                    .iter()
                    .zip(prefix)
                    .all(|(a, b)| a.index_cmp(b) == Ordering::Equal)
                && in_range(k.0.get(prefix.len()), low, high)
        })
        .map(|(_, ids)| ids)
}

fn run(seed: u64, width: usize, steps: usize, cov: &mut Coverage) {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(width as u64));
    // The key lists the row's columns last to first, so the index
    // projects rows onto keys instead of storing them as they come.
    let columns: Vec<usize> = (0..width).rev().collect();
    let row_of = |key: &[Value]| -> Vec<Value> { key.iter().rev().cloned().collect() };
    let mut ix = Index::new(IndexDef {
        name: format!("w{width}"),
        columns,
        unique: false,
    });
    let mut model: BTreeMap<RefKey, BTreeSet<RowId>> = BTreeMap::new();
    for step in 0..steps {
        let ctx = format!("seed {seed} width {width} step {step}");
        match rng.below(8) {
            0..=2 => {
                let key = values(&mut rng, width);
                let id = RowId(rng.below(12));
                let before = ix.len();
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
                    let ids = model.entry(RefKey(key)).or_default();
                    if ids.insert(id) && ids.len() == 2 {
                        cov.one_to_many += 1;
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
                    _ => (values(&mut rng, width), RowId(rng.below(12))),
                };
                let rk = RefKey(key.clone());
                let expected = model.get_mut(&rk).is_some_and(|ids| ids.remove(&id));
                match model.get(&rk).map(BTreeSet::len) {
                    Some(0) => drop(model.remove(&rk)),
                    Some(1) if expected => cov.many_to_one += 1,
                    _ => {}
                }
                cov.absent_removes += usize::from(!expected);
                let removed = if rng.one_in(2) {
                    ix.remove_row(&row_of(&key), id)
                } else {
                    ix.remove(&IndexKey(key), id)
                };
                assert_eq!(removed, expected, "{ctx}: remove");
            }
            5 => {
                // Full-width keys, and shorter ones, which match nothing;
                // so do keys with a NULL, which the model never holds.
                let n = 1 + rng.below(width as u64) as usize;
                let key = values(&mut rng, n);
                let expected: Vec<RowId> = model
                    .get(&RefKey(key.clone()))
                    .filter(|_| key.len() == width)
                    .map_or_else(Vec::new, |ids| ids.iter().copied().collect());
                let key = IndexKey(key);
                assert_eq!(
                    ix.get_eq(&key).collect::<Vec<_>>(),
                    expected,
                    "{ctx}: get_eq {key:?}"
                );
                assert_eq!(ix.count_eq(&key), expected.len(), "{ctx}: count_eq {key:?}");
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
                            && k.0
                                .iter()
                                .zip(&prefix)
                                .all(|(a, b)| a.index_cmp(b) == Ordering::Equal)
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
                let mut want = (0, false);
                for ids in ref_scan(&model, &prefix, &low, &high) {
                    want.0 += ids.len();
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
        assert_eq!(ix.distinct_keys(), model.len(), "{ctx}: distinct_keys");
        if step % 64 == 0 {
            ix.check_layout().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let entries: Vec<(Vec<Value>, RowId)> =
                ix.entries().map(|(k, id)| (k.to_vec(), id)).collect();
            let want: Vec<(Vec<Value>, RowId)> = model
                .iter()
                .flat_map(|(k, ids)| ids.iter().map(move |&id| (k.0.clone(), id)))
                .collect();
            assert_eq!(entries, want, "{ctx}: entries");
        }
    }
}

#[test]
fn index_matches_reference_model() {
    for seed in testkit::seeds(&[1, 2, 3, 4]) {
        let mut cov = Coverage::default();
        for width in 1..=4 {
            run(seed, width, 3_000, &mut cov);
        }
        println!("seed {seed}: {cov:?}");
        assert!(
            cov.one_to_many > 0,
            "seed {seed}: no posting went from one row to many"
        );
        assert!(
            cov.many_to_one > 0,
            "seed {seed}: no posting went from many rows to one"
        );
        assert!(
            cov.absent_removes > 0,
            "seed {seed}: no absent entry was removed"
        );
        assert!(
            cov.int_float_merges > 0,
            "seed {seed}: Int(3) never met Float(3.0)"
        );
        assert!(
            cov.excluded_low_on_shared > 0,
            "seed {seed}: no Excluded low on a shared component"
        );
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

#[test]
fn wrong_width_keys_match_nothing() {
    let mut ix = Index::new(IndexDef {
        name: "w2".into(),
        columns: vec![0, 1],
        unique: false,
    });
    ix.insert_row(&[Value::Int(1), Value::Int(2)], RowId(0));
    assert_eq!(ix.count_eq(&[Value::Int(1)]), 0);
    assert_eq!(ix.count_eq(&[Value::Int(1), Value::Int(2), Value::Null]), 0);
    assert!(!ix.remove(&IndexKey(vec![Value::Int(1)]), RowId(0)));
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
