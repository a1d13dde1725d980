//! SQL-level integration tests: multi-statement scenarios against the
//! engine, exercising the planner, joins, expressions, and edge cases
//! beyond the per-module unit tests.

use std::sync::Arc;

use relstore::{Database, Error, OpCtx, Value};

fn db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE files (
            id INTEGER PRIMARY KEY AUTO_INCREMENT,
            name VARCHAR(255) NOT NULL,
            coll INTEGER,
            size INTEGER,
            kind VARCHAR(16) DEFAULT 'data',
            added DATE
        );
        CREATE UNIQUE INDEX f_name ON files (name);
        CREATE INDEX f_coll ON files (coll);
        CREATE TABLE colls (
            id INTEGER PRIMARY KEY AUTO_INCREMENT,
            name VARCHAR(255) NOT NULL UNIQUE
        );",
    )
    .unwrap();
    db.execute("INSERT INTO colls (name) VALUES ('run1'), ('run2')", &[]).unwrap();
    db.execute(
        "INSERT INTO files (name, coll, size, added) VALUES
            ('a', 1, 10, DATE '2003-01-01'),
            ('b', 1, 20, DATE '2003-02-01'),
            ('c', 2, 30, DATE '2003-03-01'),
            ('d', 2, NULL, NULL),
            ('e', NULL, 50, DATE '2003-05-01')",
        &[],
    )
    .unwrap();
    db
}

#[test]
fn where_with_and_or_parentheses() {
    let db = db();
    let rs = db
        .query(
            "SELECT name FROM files WHERE (coll = 1 AND size > 15) OR size >= 50 ORDER BY name",
            &[],
        )
        .unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["b", "e"]);
}

#[test]
fn null_semantics_in_where() {
    let db = db();
    // NULL size never matches a comparison...
    let rs = db.query("SELECT COUNT(*) FROM files WHERE size > 0", &[]).unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(4));
    let rs = db.query("SELECT COUNT(*) FROM files WHERE NOT size > 0", &[]).unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(0));
    // ...only IS NULL sees it
    let rs = db.query("SELECT name FROM files WHERE size IS NULL", &[]).unwrap();
    assert_eq!(rs.rows[0][0], Value::from("d"));
    let rs = db.query("SELECT COUNT(*) FROM files WHERE size IS NOT NULL", &[]).unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(4));
}

#[test]
fn join_groups_files_with_collections() {
    let db = db();
    let rs = db
        .query(
            "SELECT c.name, f.name FROM colls c JOIN files f ON c.id = f.coll \
             ORDER BY c.name, f.name",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 4); // d has a coll, e does not
    assert_eq!(rs.rows[0], vec![Value::from("run1"), Value::from("a")]);
    assert_eq!(rs.rows[3], vec![Value::from("run2"), Value::from("d")]);
}

#[test]
fn date_comparisons_and_between() {
    let db = db();
    let rs = db
        .query(
            "SELECT name FROM files WHERE added BETWEEN DATE '2003-01-15' AND DATE '2003-03-15' \
             ORDER BY name",
            &[],
        )
        .unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["b", "c"]);
}

#[test]
fn like_and_in_predicates() {
    let db = db();
    db.execute("INSERT INTO files (name) VALUES ('run_H1_0042.gwf')", &[]).unwrap();
    let rs = db.query("SELECT name FROM files WHERE name LIKE 'run!_%'", &[]).unwrap();
    assert!(rs.rows.is_empty()); // `!` is literal, no escape syntax
    let rs = db.query("SELECT name FROM files WHERE name LIKE 'run_H1%'", &[]).unwrap();
    assert_eq!(rs.rows.len(), 1);
    let rs = db
        .query("SELECT COUNT(*) FROM files WHERE name IN ('a', 'c', 'zz')", &[])
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(2));
}

#[test]
fn update_with_index_maintenance_via_sql() {
    let db = db();
    db.execute("UPDATE files SET coll = 2 WHERE name = 'a'", &[]).unwrap();
    let rs = db.query("SELECT COUNT(*) FROM files WHERE coll = 2", &[]).unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(3));
    // the moved row is findable through the coll index (same results as a
    // fresh scan — verified by dropping the index)
    db.execute("DROP INDEX f_coll ON files", &[]).unwrap();
    let rs2 = db.query("SELECT COUNT(*) FROM files WHERE coll = 2", &[]).unwrap();
    assert_eq!(rs.rows, rs2.rows);
}

#[test]
fn delete_then_reinsert_same_unique_key() {
    let db = db();
    db.execute("DELETE FROM files WHERE name = 'a'", &[]).unwrap();
    db.execute("INSERT INTO files (name) VALUES ('a')", &[]).unwrap();
    let rs = db.query("SELECT kind FROM files WHERE name = 'a'", &[]).unwrap();
    assert_eq!(rs.rows[0][0], Value::from("data")); // default applied
}

#[test]
fn aggregate_edge_cases() {
    let db = db();
    // aggregates over an empty match set
    let rs = db
        .query("SELECT COUNT(*), MIN(size), MAX(size) FROM files WHERE size > 999", &[])
        .unwrap();
    assert_eq!(rs.rows[0], vec![Value::Int(0), Value::Null, Value::Null]);
    // MIN/MAX skip NULLs
    let rs = db.query("SELECT MIN(size), MAX(size) FROM files", &[]).unwrap();
    assert_eq!(rs.rows[0], vec![Value::Int(10), Value::Int(50)]);
}

#[test]
fn order_by_nulls_first_and_multi_key() {
    let db = db();
    let rs = db.query("SELECT name FROM files ORDER BY size, name", &[]).unwrap();
    // NULL sorts first under index ordering
    assert_eq!(rs.rows[0][0], Value::from("d"));
    let rs = db
        .query("SELECT name FROM files ORDER BY coll DESC, size DESC", &[])
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::from("c")); // coll 2, size 30 beats NULL size
}

#[test]
fn type_errors_are_reported_not_panicked() {
    let db = db();
    assert!(matches!(
        db.execute("INSERT INTO files (name, size) VALUES ('x', 'not-a-number')", &[]),
        Err(Error::TypeMismatch { .. })
    ));
    assert!(db.query("SELECT * FROM files WHERE size > 'abc'", &[]).is_err());
    assert!(matches!(
        db.query("SELECT nope FROM files", &[]),
        Err(Error::NoSuchColumn(_))
    ));
}

#[test]
fn three_way_join() {
    let db = db();
    db.execute_script(
        "CREATE TABLE tags (id INTEGER PRIMARY KEY AUTO_INCREMENT,
                            file_id INTEGER NOT NULL, tag VARCHAR(32) NOT NULL);
         CREATE INDEX t_file ON tags (file_id);",
    )
    .unwrap();
    db.execute(
        "INSERT INTO tags (file_id, tag) VALUES (1, 'hot'), (2, 'hot'), (3, 'cold')",
        &[],
    )
    .unwrap();
    let rs = db
        .query(
            "SELECT c.name, f.name, t.tag FROM colls c \
             JOIN files f ON c.id = f.coll \
             JOIN tags t ON t.file_id = f.id \
             WHERE t.tag = 'hot' ORDER BY f.name",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][1], Value::from("a"));
    assert_eq!(rs.rows[1][1], Value::from("b"));
}

#[test]
fn limit_offset_beyond_end() {
    let db = db();
    let rs = db.query("SELECT name FROM files ORDER BY name LIMIT 3 OFFSET 4", &[]).unwrap();
    assert_eq!(rs.rows.len(), 1);
    let rs = db.query("SELECT name FROM files LIMIT 0", &[]).unwrap();
    assert!(rs.rows.is_empty());
    let rs = db.query("SELECT name FROM files OFFSET 99", &[]).unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn concurrent_readers_during_writes() {
    let db = db();
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let rs = db.query("SELECT COUNT(*) FROM files WHERE coll = 1", &[]).unwrap();
                    let n = rs.rows[0][0].as_int().unwrap();
                    assert!(n >= 1, "collection 1 never drops below 1 row");
                }
            })
        })
        .collect();
    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for i in 0..100 {
                db.execute(
                    "INSERT INTO files (name, coll) VALUES (?, 1)",
                    &[format!("w{i}").into()],
                )
                .unwrap();
                db.execute("DELETE FROM files WHERE name = ?", &[format!("w{i}").into()])
                    .unwrap();
            }
        })
    };
    for r in readers {
        r.join().unwrap();
    }
    writer.join().unwrap();
    let t = db.table("files").unwrap();
    t.read().check_integrity().unwrap();
}

/// An index stores no key with a NULL component, so `r_name_score` holds
/// only rows whose `score` is set, and the planner may use it only where
/// `score` is compared with a value. Every query over the nullable
/// indexed column must still answer what a full scan answers: the same
/// writes go to `r` (indexed) and `plain` (no secondary index), on both
/// engines, through a NULL -> v -> NULL update, a pinned MVCC snapshot
/// and a vacuum.
#[test]
fn nullable_indexed_column_answers_like_a_full_scan() {
    const QUERIES: &[&str] = &[
        "SELECT id FROM {t} WHERE name = 'n0' ORDER BY id",
        "SELECT COUNT(*) FROM {t} WHERE name = 'n1'",
        "SELECT id, score FROM {t} WHERE name = 'n0' ORDER BY score, id",
        "SELECT id FROM {t} WHERE name = 'n0' AND score >= 5 ORDER BY id",
        "SELECT id FROM {t} WHERE name = 'n1' AND score < 30 ORDER BY score",
        "SELECT id FROM {t} WHERE name = 'n2' AND score > 2 AND score <= 38 ORDER BY id",
        "SELECT id FROM {t} WHERE name = 'n0' AND score IS NULL ORDER BY id",
        "SELECT id FROM {t} WHERE score IS NULL ORDER BY id",
        "SELECT id FROM {t} WHERE score IS NOT NULL AND score > 20 ORDER BY id",
        "SELECT name, score FROM {t} ORDER BY score, id",
    ];
    let query = |db: &Database, ctx: &OpCtx, sql: &str| {
        let p = db.prepare(sql).unwrap();
        db.execute_in(ctx, &p, &[]).unwrap().0.rows.unwrap().rows
    };
    let check_at = |db: &Database, ctx: &OpCtx, when: &str| {
        for q in QUERIES {
            let got = query(db, ctx, &q.replace("{t}", "r"));
            let want = query(db, ctx, &q.replace("{t}", "plain"));
            assert_eq!(got, want, "mvcc {} {when}: {q}", db.is_mvcc());
        }
    };
    let check = |db: &Database, when: &str| check_at(db, &OpCtx::default(), when);
    for db in [Database::new(), Database::new_mvcc()] {
        db.execute_script(
            "CREATE TABLE r (
                id INTEGER PRIMARY KEY AUTO_INCREMENT,
                name VARCHAR(16) NOT NULL,
                score INTEGER
            );
            CREATE INDEX r_name_score ON r (name, score);
            CREATE TABLE plain (
                id INTEGER PRIMARY KEY AUTO_INCREMENT,
                name VARCHAR(16) NOT NULL,
                score INTEGER
            );",
        )
        .unwrap();
        let write = |sql: &str| {
            for t in ["r", "plain"] {
                db.execute(&sql.replace("{t}", t), &[]).unwrap();
            }
        };
        for i in 0..40 {
            // Every third row has no score.
            let score = if i % 3 == 0 { "NULL".to_owned() } else { i.to_string() };
            write(&format!("INSERT INTO {{t}} (name, score) VALUES ('n{}', {score})", i % 4));
        }
        // The index serves a scan that constrains `score`, and only that.
        let plan = |sql: &str| db.explain(sql, &[]).unwrap()[0].clone();
        assert!(plan("SELECT id FROM r WHERE name = 'n0' AND score >= 5")
            .contains("index r_name_score eq(1)+range"));
        assert!(plan("SELECT id FROM r WHERE name = 'n0'").contains("full scan"));
        check(&db, "after load");

        // Row 1 (n0) goes NULL -> 7; a snapshot pinned here must still
        // find it by score after it goes back to NULL.
        write("UPDATE {t} SET score = 7 WHERE id = 1");
        let pin = db.pin_snapshot();
        write("UPDATE {t} SET score = NULL WHERE id = 1");
        write("UPDATE {t} SET score = NULL WHERE id = 5");
        write("DELETE FROM {t} WHERE id = 9");
        write("UPDATE {t} SET score = 99 WHERE id = 4");
        check(&db, "after updates");
        if pin.is_some() {
            let ctx = OpCtx { snapshot: pin, ..OpCtx::default() };
            check_at(&db, &ctx, "at the pinned snapshot");
            let old = query(&db, &ctx, "SELECT score FROM r WHERE name = 'n0' AND score = 7");
            assert_eq!(old, vec![vec![Value::Int(7)]]);
        }
        db.vacuum();
        check(&db, "after vacuum");
        let r = db.table("r").unwrap();
        r.read().check_integrity().unwrap();
        let ix = r.read().index("r_name_score").unwrap().len();
        let scored = db.query("SELECT COUNT(*) FROM r WHERE score IS NOT NULL", &[]).unwrap();
        assert_eq!(Value::Int(ix as i64), scored.rows[0][0], "mvcc {}", db.is_mvcc());
    }
}
