//! Property-based tests for the storage engine's core invariants.

use relstore::predicate::like_match;
use relstore::{
    ColumnDef, Database, Date, DateTime, IndexDef, Table, TableSchema, Value, ValueType,
};
use std::sync::Arc;
use testkit::{check, Rng};

const TARGET: &str = "-p relstore --test proptests";

// ---------- LIKE vs a reference implementation ----------

/// Naive recursive reference for LIKE.
fn like_ref(s: &[char], p: &[char]) -> bool {
    match p.first() {
        None => s.is_empty(),
        Some('%') => {
            (0..=s.len()).any(|k| like_ref(&s[k..], &p[1..]))
        }
        Some('_') => !s.is_empty() && like_ref(&s[1..], &p[1..]),
        Some(c) => s.first() == Some(c) && like_ref(&s[1..], &p[1..]),
    }
}

#[test]
fn like_matches_reference() {
    check(TARGET, 64, |rng| {
        let (s, p) = (rng.string("abc_%", 0..13), rng.string("abc_%", 0..9));
        let sc: Vec<char> = s.chars().collect();
        let pc: Vec<char> = p.chars().collect();
        assert_eq!(like_match(&s, &p), like_ref(&sc, &pc));
    });
}

// ---------- civil date arithmetic ----------

#[test]
fn date_epoch_roundtrip() {
    check(TARGET, 64, |rng| {
        let z = rng.range(-1_000_000..1_000_000);
        let d = Date::from_days_from_epoch(z);
        assert_eq!(d.days_from_epoch(), z);
        // components must be valid
        assert!(Date::new(d.year, d.month, d.day).is_ok());
    });
}

#[test]
fn date_epoch_monotonic() {
    check(TARGET, 64, |rng| {
        let z = rng.range(-500_000..500_000);
        let a = Date::from_days_from_epoch(z);
        let b = Date::from_days_from_epoch(z + 1);
        assert!(a < b);
    });
}

#[test]
fn datetime_epoch_roundtrip() {
    check(TARGET, 64, |rng| {
        let s = rng.range(-50_000_000_000..50_000_000_000);
        let dt = DateTime::from_seconds_from_epoch(s);
        assert_eq!(dt.seconds_from_epoch(), s);
    });
}

// ---------- value ordering is a total order ----------

fn value(rng: &mut Rng) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::Int(rng.next() as i64),
        2 => Value::Float(rng.f64()),
        3 => Value::from(rng.string("a-z", 0..7)),
        4 => Value::Bool(rng.one_in(2)),
        _ => Value::Date(Date::from_days_from_epoch(rng.range(-100_000..100_000))),
    }
}

#[test]
fn index_cmp_antisymmetric() {
    check(TARGET, 64, |rng| {
        let (a, b) = (value(rng), value(rng));
        assert_eq!(a.index_cmp(&b), b.index_cmp(&a).reverse());
    });
}

#[test]
fn index_cmp_transitive() {
    check(TARGET, 64, |rng| {
        use std::cmp::Ordering::*;
        let (a, b, c) = (value(rng), value(rng), value(rng));
        let (ab, bc, ac) = (a.index_cmp(&b), b.index_cmp(&c), a.index_cmp(&c));
        if ab == Less && bc == Less { assert_eq!(ac, Less); }
        if ab == Greater && bc == Greater { assert_eq!(ac, Greater); }
        if ab == Equal && bc == Equal { assert_eq!(ac, Equal); }
    });
}

// ---------- table/index integrity under random operation sequences ----------

#[derive(Debug, Clone)]
enum Op {
    Insert { name: String, size: i64 },
    DeleteByName(String),
    UpdateSize { name: String, size: i64 },
}

fn op(rng: &mut Rng) -> Op {
    // small key space to force collisions
    let name = format!("{}{}", rng.pick(&["a", "b"]), rng.below(10));
    match rng.below(3) {
        0 => Op::Insert { name, size: rng.next() as i64 },
        1 => Op::DeleteByName(name),
        _ => Op::UpdateSize { name, size: rng.next() as i64 },
    }
}

fn mk_table() -> Table {
    let schema = TableSchema::new(
        "t",
        vec![
            ColumnDef::auto_id("id"),
            ColumnDef::required("name", ValueType::Str),
            ColumnDef::required("size", ValueType::Int),
        ],
        &["id"],
    )
    .unwrap();
    let mut t = Table::new(schema);
    t.create_index(IndexDef { name: "by_name".into(), columns: vec![1], unique: true }).unwrap();
    t.create_index(IndexDef { name: "by_size".into(), columns: vec![2], unique: false }).unwrap();
    t
}

#[test]
fn table_integrity_under_random_ops() {
    check(TARGET, 64, |rng| {
        use std::collections::HashMap;
        let ops = rng.vec(1..60, op);
        let mut t = mk_table();
        let mut model: HashMap<String, (relstore::RowId, i64)> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert { name, size } => {
                    let r = t.insert(vec![Value::Null, name.as_str().into(), Value::Int(size)]);
                    if model.contains_key(&name) {
                        assert!(r.is_err(), "duplicate insert must fail");
                    } else {
                        model.insert(name, (r.unwrap(), size));
                    }
                }
                Op::DeleteByName(name) => {
                    if let Some((id, _)) = model.remove(&name) {
                        t.delete(id).unwrap();
                    }
                }
                Op::UpdateSize { name, size } => {
                    if let Some((id, s)) = model.get_mut(&name) {
                        let id = *id;
                        let row = t.get(id).unwrap().clone();
                        t.update(id, vec![row[0].clone(), row[1].clone(), Value::Int(size)])
                            .unwrap();
                        *s = size;
                    }
                }
            }
            t.check_integrity().unwrap();
        }
        // final state matches the model
        assert_eq!(t.len(), model.len());
        for (name, (id, size)) in &model {
            let row = t.get(*id).unwrap();
            assert_eq!(&row[1], &Value::from(name.as_str()));
            assert_eq!(&row[2], &Value::Int(*size));
        }
    });
}

/// The default seeds draw every kind of op: fresh and duplicate inserts,
/// and deletes and updates of rows that exist.
#[test]
fn op_mix_hits_every_kind() {
    let mut hits = [0usize; 4];
    for seed in 1..=64 {
        let mut live = std::collections::HashSet::new();
        for op in Rng::for_case(seed).vec(1..60, op) {
            let kind = match op {
                Op::Insert { name, .. } => usize::from(!live.insert(name)),
                Op::DeleteByName(name) if live.remove(&name) => 2,
                Op::UpdateSize { name, .. } if live.contains(&name) => 3,
                _ => continue,
            };
            hits[kind] += 1;
        }
    }
    assert!(hits.iter().all(|&n| n > 0), "{hits:?}");
}

// ---------- planner: indexed access must agree with a full scan ----------

#[test]
fn indexed_query_equals_full_scan() {
    check(TARGET, 48, |rng| {
        let rows = rng.vec(0..40, |r| (r.string("a-c", 1..2), r.range(0..20)));
        let probe_name = rng.string("a-c", 1..2);
        let (lo, hi) = (rng.range(0..20), rng.range(0..20));
        let db = Arc::new(Database::new());
        db.execute_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT,
                             name VARCHAR(8) NOT NULL,
                             v INTEGER NOT NULL);
             CREATE INDEX t_name_v ON t (name, v);",
        ).unwrap();
        // shadow table without the secondary index
        db.execute_script(
            "CREATE TABLE u (id INTEGER PRIMARY KEY AUTO_INCREMENT,
                             name VARCHAR(8) NOT NULL,
                             v INTEGER NOT NULL);",
        ).unwrap();
        for (n, v) in &rows {
            db.execute("INSERT INTO t (name, v) VALUES (?, ?)",
                       &[n.as_str().into(), (*v).into()]).unwrap();
            db.execute("INSERT INTO u (name, v) VALUES (?, ?)",
                       &[n.as_str().into(), (*v).into()]).unwrap();
        }
        let sqls = [
            "SELECT id FROM {T} WHERE name = ? ORDER BY id",
            "SELECT id FROM {T} WHERE name = ? AND v >= ? ORDER BY id",
            "SELECT id FROM {T} WHERE name = ? AND v >= ? AND v < ? ORDER BY id",
        ];
        let params: [&[Value]; 3] = [
            &[probe_name.as_str().into()],
            &[probe_name.as_str().into(), lo.into()],
            &[probe_name.as_str().into(), lo.into(), hi.into()],
        ];
        for (sql, ps) in sqls.iter().zip(params.iter()) {
            let rt = db.query(&sql.replace("{T}", "t"), ps).unwrap();
            let ru = db.query(&sql.replace("{T}", "u"), ps).unwrap();
            assert_eq!(rt.rows, ru.rows);
        }
    });
}
