//! Property test: for any random statement sequence, a durable database
//! that "crashes" (drops without checkpoint) and reopens is
//! indistinguishable from an in-memory database that executed the same
//! statements — with and without an intervening checkpoint.

use std::sync::Arc;

use relstore::{Database, SyncPolicy, Value};
use testkit::{check, Rng};

#[derive(Debug, Clone)]
enum Stmt {
    Insert { name: String, v: i64 },
    Update { name: String, v: i64 },
    Delete { name: String },
}

fn stmt(rng: &mut Rng) -> Stmt {
    let name = format!("{}{}", rng.pick(&["a", "b"]), rng.below(3));
    match rng.below(3) {
        0 => Stmt::Insert { name, v: rng.next() as i64 },
        1 => Stmt::Update { name, v: rng.next() as i64 },
        _ => Stmt::Delete { name },
    }
}

fn apply(db: &Database, s: &Stmt) {
    // Duplicate inserts fail on both sides identically; ignore results.
    let _ = match s {
        Stmt::Insert { name, v } => db.execute(
            "INSERT INTO t (name, v) VALUES (?, ?)",
            &[name.as_str().into(), Value::Int(*v)],
        ),
        Stmt::Update { name, v } => db.execute(
            "UPDATE t SET v = ? WHERE name = ?",
            &[Value::Int(*v), name.as_str().into()],
        ),
        Stmt::Delete { name } => {
            db.execute("DELETE FROM t WHERE name = ?", &[name.as_str().into()])
        }
    };
}

fn dump(db: &Database) -> Vec<Vec<Value>> {
    db.query("SELECT name, v FROM t ORDER BY name", &[]).unwrap().rows
}

const DDL: &str = "CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT,
                                   name VARCHAR(8) NOT NULL UNIQUE, v INTEGER)";

#[test]
fn recovery_matches_memory() {
    check("-p relstore --test wal_proptests", 24, |rng| {
        let ops = rng.vec(1..30, stmt);
        let checkpoint_at = rng.below(30) as usize;
        let dir = std::env::temp_dir().join(format!(
            "relstore-walprop-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let reference = Arc::new(Database::new());
        reference.execute(DDL, &[]).unwrap();
        {
            let durable = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
            durable.execute(DDL, &[]).unwrap();
            for (i, op) in ops.iter().enumerate() {
                apply(&reference, op);
                apply(&durable, op);
                if i == checkpoint_at {
                    durable.checkpoint().unwrap();
                }
            }
            assert_eq!(dump(&durable), dump(&reference));
        } // crash: no final checkpoint

        let recovered = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
        assert_eq!(dump(&recovered), dump(&reference));
        // the recovered database stays fully usable
        recovered.execute("INSERT INTO t (name, v) VALUES ('zz', 1)", &[]).unwrap();
        let t = recovered.table("t").unwrap();
        t.read().check_integrity().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// The default seeds draw inserts, and updates and deletes of rows that
/// exist.
#[test]
fn statement_mix_hits_every_kind() {
    let mut hits = [0usize; 3];
    for seed in 1..=24 {
        let mut live = std::collections::HashSet::new();
        for op in Rng::for_case(seed).vec(1..30, stmt) {
            let kind = match op {
                Stmt::Insert { name, .. } => {
                    live.insert(name);
                    0
                }
                Stmt::Update { name, .. } if live.contains(&name) => 1,
                Stmt::Delete { name } if live.remove(&name) => 2,
                _ => continue,
            };
            hits[kind] += 1;
        }
    }
    assert!(hits.iter().all(|&n| n > 0), "{hits:?}");
}
