//! Liveness stress for `Durability::Async` epoch acknowledgement: many
//! writers committing with immediate acks while chaser threads park on
//! `wait_for_epoch` for the freshest epoch they can see. The property
//! under test is *liveness* — no waiter may deadlock, whatever
//! interleaving of flusher batches, `Always` commits, and `sync_now`
//! barriers the scheduler produces — plus the recovery-side guarantee
//! that everything a final `sync_now` covered survives a crash.
//!
//! Test names carry the `_stress` suffix so `scripts/verify.sh` can run
//! them in the stress and async-durability CI lanes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use relstore::{Access, Database, Durability, OpCtx, SyncPolicy, Value};

const WRITERS: usize = 8;
const TXNS_PER_WRITER: usize = 200;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "relstore-ael-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn count(db: &Database, table: &str) -> i64 {
    match db.query(&format!("SELECT COUNT(*) FROM {table}"), &[]).unwrap().rows[0][0] {
        Value::Int(n) => n,
        ref v => panic!("COUNT(*) returned {v:?}"),
    }
}

/// 8 writers × 200 async transactions; each writer publishes its latest
/// acked epoch to a shared cell, and two chaser threads repeatedly call
/// `wait_for_epoch` on the freshest published epoch. Every wait must
/// return `Ok` (the writer is healthy) and the whole run must finish —
/// the test hanging *is* the failure mode being hunted. A final
/// `sync_now` barrier must leave zero acknowledgement debt, and reopening
/// must recover every transaction it covered.
#[test]
fn wait_for_epoch_never_deadlocks_stress() {
    let dir = tmpdir("chase");
    {
        let db = Database::open_durable_with(
            &dir,
            SyncPolicy::EveryWrite,
            Durability::Async { max_wait: Duration::from_millis(2), max_batch: 64 },
        )
        .unwrap();
        for w in 0..WRITERS {
            db.execute(&format!("CREATE TABLE w{w} (v INTEGER)"), &[]).unwrap();
        }
        let freshest = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));

        let chasers: Vec<_> = (0..2)
            .map(|_| {
                let db = Arc::clone(&db);
                let freshest = Arc::clone(&freshest);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut waits = 0u64;
                    while !done.load(Ordering::Acquire) {
                        let e = freshest.load(Ordering::Acquire);
                        if e == 0 {
                            std::thread::yield_now();
                            continue;
                        }
                        db.wait_for_epoch(e).unwrap_or_else(|err| {
                            panic!("wait_for_epoch({e}) failed on a healthy writer: {err}")
                        });
                        assert!(db.durable_epoch() >= e);
                        waits += 1;
                    }
                    waits
                })
            })
            .collect();

        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = Arc::clone(&db);
                let freshest = Arc::clone(&freshest);
                std::thread::spawn(move || {
                    let table = format!("w{w}");
                    for t in 0..TXNS_PER_WRITER {
                        let claims = [(table.as_str(), Access::Write)];
                        let ((), e) = db
                            .transaction_in(&OpCtx::default(), &claims, |s| {
                                s.execute(&format!("INSERT INTO w{w} (v) VALUES ({t})"), &[])?;
                                Ok::<_, relstore::Error>(())
                            })
                            .unwrap();
                        freshest.fetch_max(e, Ordering::AcqRel);
                        // occasionally turn the weak ack into a hard one
                        // mid-stream, so waits race live flusher batches
                        if t % 64 == 63 {
                            db.wait_for_epoch(e).unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
        for h in chasers {
            let waits = h.join().unwrap();
            assert!(waits > 0, "chaser never completed a single wait");
        }

        db.sync_now().unwrap();
        assert_eq!(db.durable_epoch(), db.commit_epoch());
        assert_eq!(db.wal_stats().acked_not_durable_count(), 0);
        assert!(
            db.wal_stats().max_epoch_lag_seen() > 0,
            "async acks never ran ahead of durability — the mode was inert"
        );
    } // crash after the barrier: everything must be on disk

    let db = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
    for w in 0..WRITERS {
        assert_eq!(
            count(&db, &format!("w{w}")),
            TXNS_PER_WRITER as i64,
            "recovery lost async transactions covered by sync_now in w{w}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Async and Group writers interleave on the same database (per-commit
/// `with_durability` overrides) while a chaser waits on async epochs:
/// parked Group committers and parked epoch waiters share the queue's
/// condvar, and neither may starve the other.
#[test]
fn mixed_mode_writers_and_epoch_waiters_stress() {
    let dir = tmpdir("mixed");
    {
        let db = Database::open_durable_with(
            &dir,
            SyncPolicy::EveryWrite,
            Durability::Group { max_wait: Duration::from_millis(2), max_batch: 64 },
        )
        .unwrap();
        db.execute("CREATE TABLE shared (v INTEGER)", &[]).unwrap();
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let asynchronous = OpCtx {
                        durability: Some(Durability::Async {
                            max_wait: Duration::from_millis(2),
                            max_batch: 64,
                        }),
                        ..OpCtx::default()
                    };
                    for t in 0..100 {
                        let v = (w as i64) * 1000 + t;
                        if (w + t as usize) % 2 == 0 {
                            // async commit, then immediately chase it
                            let ((), e) = db
                                .transaction_in(&asynchronous, &[("shared", Access::Write)], |s| {
                                    s.execute(
                                        &format!("INSERT INTO shared (v) VALUES ({v})"),
                                        &[],
                                    )?;
                                    Ok::<_, relstore::Error>(())
                                })
                                .unwrap();
                            db.wait_for_epoch(e).unwrap();
                        } else {
                            // group commit: parks until a leader syncs it
                            db.transaction(&[("shared", Access::Write)], |s| {
                                s.execute(&format!("INSERT INTO shared (v) VALUES ({v})"), &[])?;
                                Ok::<_, relstore::Error>(())
                            })
                            .unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        db.sync_now().unwrap();
        assert_eq!(count(&db, "shared"), 400);
        assert_eq!(db.wal_stats().acked_not_durable_count(), 0);
    }
    let db = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
    assert_eq!(count(&db, "shared"), 400, "recovery lost committed rows");
    std::fs::remove_dir_all(&dir).ok();
}
