//! Golden durability corpus: stores written by earlier versions of the
//! engine, and the exact tables each must open to.
//!
//! Each directory under `tests/golden/` is a durability directory as an
//! earlier engine left it on disk:
//!
//! * `wal-v2` — a v2 log (`RSWAL002`) whose autocommit statements are
//!   bare `Stmt` records, logged before they ran, among them a duplicate
//!   INSERT, a multi-row INSERT that fails on its second row and an
//!   INSERT into a table that does not exist; transactions are
//!   `Begin, Stmt…, Commit` groups; the last group is cut inside its
//!   Commit frame (a torn tail).
//! * `snap01` — an `RSSNAP01` snapshot, taken after the row holding the
//!   highest file id was deleted, and a v2 log written after it.
//! * `wal-v1` — a v1 log: no magic, every record an untagged statement,
//!   one of them a duplicate INSERT.
//! * `wal-rows` — a log of row images: DDL statement groups, then groups
//!   of typed row writes — two creates (a file row and its attribute
//!   rows), a create that failed and logged nothing, an attribute set (a
//!   delete and an insert), an SQL UPDATE, a delete of a file and its
//!   attributes — and a last create cut inside its Commit frame.
//!
//! The test copies each directory, opens the copy, and dumps every
//! table: its indexes, its rows in id order, and the id the next
//! AUTO_INCREMENT insert draws (found by inserting a probe row). The
//! dump must equal `tests/golden/wal.txt` (`wal-rows.txt` for the row
//! images). The fixtures are never rewritten: a change that opens one of
//! them differently is a change in what an existing store recovers to.
//!
//! On a mismatch the dump is written to
//! `$CARGO_TARGET_TMPDIR/<fixture>.actual.txt`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use relstore::{Database, SyncPolicy, Value, ValueType};

const FIXTURE: &str = include_str!("golden/wal.txt");
const STORES: [&str; 3] = ["wal-v2", "snap01", "wal-v1"];

/// A fresh copy of fixture directory `name`.
fn copy(name: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    let dst = std::env::temp_dir().join(format!("relstore-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    std::fs::create_dir_all(&dst).unwrap();
    for entry in std::fs::read_dir(&src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    dst
}

fn show(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{s}'"),
        other => format!("{other:?}"),
    }
}

/// Every table of `db`: indexes, rows in id order, and the next
/// AUTO_INCREMENT value, drawn by a probe insert.
fn dump(db: &Database, out: &mut String) {
    for name in db.table_names() {
        let handle = db.table(&name).unwrap();
        let (columns, required, indexes) = {
            let t = handle.read();
            let columns: Vec<String> = t.schema.columns.iter().map(|c| c.name.clone()).collect();
            let required: Vec<(String, ValueType)> = t
                .schema
                .columns
                .iter()
                .filter(|c| !c.nullable && !c.auto_increment)
                .map(|c| (c.name.clone(), c.ty))
                .collect();
            let indexes: Vec<String> = t
                .indexes()
                .iter()
                .map(|ix| {
                    let cols: Vec<&str> =
                        ix.def.columns.iter().map(|&c| columns[c].as_str()).collect();
                    let unique = if ix.def.unique { "unique " } else { "" };
                    format!("{unique}{} ({})", ix.def.name, cols.join(", "))
                })
                .collect();
            (columns, required, indexes)
        };
        writeln!(out, "table {name} ({})", columns.join(", ")).unwrap();
        for ix in indexes {
            writeln!(out, "  index {ix}").unwrap();
        }
        let rs = db.query(&format!("SELECT * FROM {name} ORDER BY {}", columns[0]), &[]).unwrap();
        for row in &rs.rows {
            let cells: Vec<String> = row.iter().map(show).collect();
            writeln!(out, "  {}", cells.join(" | ")).unwrap();
        }
        let names: Vec<&str> = required.iter().map(|(n, _)| n.as_str()).collect();
        let params: Vec<Value> = required
            .iter()
            .map(|(_, ty)| match ty {
                ValueType::Int => Value::Int(0),
                ValueType::Str => Value::from("~probe"),
                other => panic!("no probe value for a {other:?} column"),
            })
            .collect();
        let marks = vec!["?"; params.len()].join(", ");
        let probe = db
            .execute(&format!("INSERT INTO {name} ({}) VALUES ({marks})", names.join(", ")), &params)
            .unwrap();
        match probe.last_insert_id {
            Some(id) => writeln!(out, "  next id {id}").unwrap(),
            None => writeln!(out, "  no AUTO_INCREMENT column").unwrap(),
        }
    }
}

/// Open a copy of each store in `stores` and compare the dump of all of
/// them with `fixture` (`name`).
fn check(stores: &[&str], fixture: &str, name: &str) {
    let mut out = String::new();
    for store in stores {
        let dir = copy(store);
        let db = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
        writeln!(out, "== {store}").unwrap();
        dump(&db, &mut out);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    if out != fixture {
        let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
        std::fs::write(&actual, &out).unwrap();
        panic!(
            "the golden stores opened to different tables; diff {} against \
             crates/relstore/tests/golden/{name}.txt",
            actual.display()
        );
    }
}

#[test]
fn old_stores_open_to_their_pinned_tables() {
    check(&STORES, FIXTURE, "wal");
}

#[test]
fn row_image_store_opens_to_its_pinned_tables() {
    check(&["wal-rows"], include_str!("golden/wal-rows.txt"), "wal-rows");
}
