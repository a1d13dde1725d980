//! Fault injection for multi-statement catalog operations: the WAL is
//! truncated at *every byte offset* inside a `create_file` and a
//! `delete_file` transaction, the copy is reopened durably, and the
//! catalog must show either the whole operation or none of it — never a
//! file missing half its attributes, never attribute/ACL/annotation/view
//! rows pointing at a file that does not exist.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use mcs::{
    AttrType, Credential, FileSpec, IndexProfile, ManualClock, Mcs, ObjectRef, Permission,
};
use relstore::{Access, Database, Durability, OpCtx, SyncPolicy};

const WAL: &str = "wal.log";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcs-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(dir: &Path, admin: &Credential) -> Mcs {
    let db = Database::open_durable(dir, SyncPolicy::OsBuffered).unwrap();
    Mcs::with_database(db, admin, IndexProfile::Paper2003, Arc::new(ManualClock::default()))
        .unwrap()
}

/// Copy `src` into a fresh `dst`, then truncate the WAL copy to `wal_len`.
fn copy_truncated(src: &Path, dst: &Path, wal_len: u64) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    let wal = std::fs::OpenOptions::new().write(true).open(dst.join(WAL)).unwrap();
    wal.set_len(wal_len).unwrap();
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(WAL)).unwrap().len()
}

fn int_rows(db: &Database, sql: &str) -> Vec<Vec<i64>> {
    db.execute(sql, &[])
        .unwrap()
        .rows
        .expect("select")
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.as_int().unwrap()).collect())
        .collect()
}

fn file_ids(db: &Database) -> HashSet<i64> {
    int_rows(db, "SELECT id FROM logical_files").into_iter().map(|r| r[0]).collect()
}

/// Rows in `table` whose (type, id) pair claims a logical file that does
/// not exist. `ObjectType::File` encodes as 0.
fn file_orphans(db: &Database, table: &str, type_col: &str, id_col: &str) -> usize {
    let files = file_ids(db);
    int_rows(db, &format!("SELECT {type_col}, {id_col} FROM {table}"))
        .iter()
        .filter(|r| r[0] == 0 && !files.contains(&r[1]))
        .count()
}

fn assert_no_file_orphans(db: &Database, ctx: &str) {
    for (table, tc, ic) in [
        ("user_attributes", "object_type", "object_id"),
        ("acl_entries", "object_type", "object_id"),
        ("annotations", "object_type", "object_id"),
        ("view_members", "member_type", "member_id"),
    ] {
        assert_eq!(file_orphans(db, table, tc, ic), 0, "{ctx}: orphans in {table}");
    }
}

/// Audit rows for one file id, by action.
fn audit_actions(db: &Database, id: i64) -> Vec<String> {
    db.execute(
        "SELECT action FROM audit_log WHERE object_type = ? AND object_id = ?",
        &[0i64.into(), id.into()],
    )
    .unwrap()
    .rows
    .expect("select")
    .rows
    .iter()
    .map(|r| r[0].as_str().unwrap().to_owned())
    .collect()
}

/// Attributes of the file `create_file_is_atomic_under_any_wal_truncation`
/// creates: one more than a single attribute INSERT carries (16 rows), so
/// its commit group holds two attribute statements.
const CREATE_ATTRS: usize = 17;

#[test]
fn create_file_is_atomic_under_any_wal_truncation() {
    let dir = tmpdir("create");
    let admin = Credential::new("/CN=admin");
    {
        let m = open(&dir, &admin);
        for i in 0..CREATE_ATTRS {
            m.define_attribute(&admin, &format!("a{i}"), AttrType::Str, "").unwrap();
        }
        m.create_collection(&admin, "c", None, "").unwrap();
        m.database().checkpoint().unwrap();
    }
    let before = wal_len(&dir);
    {
        let m = open(&dir, &admin);
        let mut spec = FileSpec::named("g").in_collection("c");
        for i in 0..CREATE_ATTRS {
            spec = spec.attr(format!("a{i}"), format!("v{i}"));
        }
        spec.audit = true;
        m.create_file(&admin, &spec).unwrap();
    }
    let after = wal_len(&dir);
    assert!(after > before, "create_file must journal something");

    let scratch = tmpdir("create-cut");
    for cut in before..=after {
        copy_truncated(&dir, &scratch, cut);
        let m = open(&scratch, &admin);
        let ctx = format!("cut at {cut} of {after}");
        assert_no_file_orphans(m.database(), &ctx);
        // look at the raw row: get_file would itself audit the access
        let gid = m
            .database()
            .execute("SELECT id FROM logical_files WHERE name = ?", &["g".into()])
            .unwrap()
            .rows
            .expect("select")
            .rows
            .first()
            .map(|r| r[0].as_int().unwrap());
        match gid {
            Some(id) => {
                assert_eq!(cut, after, "{ctx}: file visible before the commit frame");
                assert_eq!(audit_actions(m.database(), id), vec!["create".to_string()], "{ctx}");
                let attrs = m.get_attributes(&admin, &ObjectRef::File("g".into())).unwrap();
                assert_eq!(attrs.len(), CREATE_ATTRS, "{ctx}: committed file missing attributes");
            }
            None => {
                assert_ne!(cut, after, "{ctx}: fully committed create must survive");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn delete_file_is_atomic_under_any_wal_truncation() {
    let dir = tmpdir("delete");
    let admin = Credential::new("/CN=admin");
    let file_id;
    {
        let m = open(&dir, &admin);
        for i in 0..3 {
            m.define_attribute(&admin, &format!("a{i}"), AttrType::Str, "").unwrap();
        }
        m.create_collection(&admin, "c", None, "").unwrap();
        m.create_view(&admin, "v", "").unwrap();
        let mut spec = FileSpec::named("d").in_collection("c");
        for i in 0..3 {
            spec = spec.attr(format!("a{i}"), format!("v{i}"));
        }
        spec.audit = true;
        file_id = m.create_file(&admin, &spec).unwrap().id;
        m.grant(&admin, &ObjectRef::File("d".into()), "/CN=reader", Permission::Read).unwrap();
        m.annotate(&admin, &ObjectRef::File("d".into()), "note").unwrap();
        m.add_to_view(&admin, "v", &ObjectRef::File("d".into())).unwrap();
        m.database().checkpoint().unwrap();
    }
    let before = wal_len(&dir);
    {
        let m = open(&dir, &admin);
        m.delete_file(&admin, "d").unwrap();
    }
    let after = wal_len(&dir);
    assert!(after > before, "delete_file must journal something");

    let scratch = tmpdir("delete-cut");
    let reader = Credential::new("/CN=reader");
    for cut in before..=after {
        copy_truncated(&dir, &scratch, cut);
        let m = open(&scratch, &admin);
        let ctx = format!("cut at {cut} of {after}");
        assert_no_file_orphans(m.database(), &ctx);
        let deleted = audit_actions(m.database(), file_id).contains(&"delete".to_string());
        if cut < after {
            // the delete group is torn: the file must be fully intact
            assert!(!deleted, "{ctx}: delete audit row visible before commit");
            assert!(m.get_file(&admin, "d").is_ok(), "{ctx}: file lost without commit");
            assert!(m.get_file(&reader, "d").is_ok(), "{ctx}: grant lost without commit");
            let attrs = m.get_attributes(&admin, &ObjectRef::File("d".into())).unwrap();
            assert_eq!(attrs.len(), 3, "{ctx}: attributes lost without commit");
            assert_eq!(
                m.get_annotations(&admin, &ObjectRef::File("d".into())).unwrap().len(),
                1,
                "{ctx}: annotation lost without commit"
            );
            let members = int_rows(
                m.database(),
                "SELECT member_type, member_id FROM view_members",
            );
            assert!(
                members.iter().any(|r| r == &vec![0, file_id]),
                "{ctx}: view membership lost without commit"
            );
        } else {
            // the commit frame is intact: every trace is gone, and the
            // delete was audited in the same transaction
            assert!(deleted, "{ctx}: committed delete must be audited");
            assert!(m.get_file(&admin, "d").is_err(), "{ctx}: committed delete must stick");
            for (table, tc, ic) in [
                ("user_attributes", "object_type", "object_id"),
                ("acl_entries", "object_type", "object_id"),
                ("annotations", "object_type", "object_id"),
                ("view_members", "member_type", "member_id"),
            ] {
                let rows = int_rows(m.database(), &format!("SELECT {tc}, {ic} FROM {table}"));
                assert!(
                    !rows.iter().any(|r| r == &vec![0, file_id]),
                    "{ctx}: {table} row survived the delete"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// Group commit writes several transactions' WAL groups in ONE physical
/// write — this matrix proves recovery treats each group independently:
/// truncating that write at *every byte offset* must keep exactly the
/// fully-framed prefix of groups and discard the torn tail as a unit,
/// never applying half a transaction.
///
/// Determinism: three writers on disjoint same-length tables commit under
/// `Durability::Group { max_batch: 3 }` with a generous `max_wait`, and
/// meet at a barrier inside their transactions, so all three units are
/// started before any enqueues: the leader provably waits for all three
/// groups and batches them into one write (asserted via the sync/batch
/// counters). Equal-length SQL
/// texts make the three encoded groups byte-identical in size, so the
/// truncation offset tells us exactly how many complete groups survive.
#[test]
fn batched_group_write_recovers_framed_prefix_under_any_truncation() {
    let dir = tmpdir("batch");
    {
        let db = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
        for t in ["t1", "t2", "t3"] {
            db.execute(&format!("CREATE TABLE {t} (v INTEGER)"), &[]).unwrap();
        }
        db.checkpoint().unwrap();
    }
    let before = wal_len(&dir);
    {
        // EveryWrite so the sync counters prove the batch paid one sync
        // (under OsBuffered the batch is still one write, but unsynced).
        let db = Database::open_durable_with(
            &dir,
            SyncPolicy::EveryWrite,
            Durability::Group { max_wait: Duration::from_secs(30), max_batch: 3 },
        )
        .unwrap();
        let syncs0 = db.wal_stats().sync_count();
        let batches0 = db.wal_stats().batch_count();
        let all_started = Arc::new(std::sync::Barrier::new(3));
        let writers: Vec<_> = (1..=3)
            .map(|i| {
                let db = Arc::clone(&db);
                let all_started = Arc::clone(&all_started);
                std::thread::spawn(move || {
                    let table = format!("t{i}");
                    db.transaction(&[(table.as_str(), Access::Write)], |s| {
                        s.execute(&format!("INSERT INTO t{i} (v) VALUES ({}1)", i), &[])?;
                        s.execute(&format!("INSERT INTO t{i} (v) VALUES ({}2)", i), &[])?;
                        all_started.wait();
                        Ok::<_, relstore::Error>(())
                    })
                    .unwrap();
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(
            db.wal_stats().batch_count() - batches0,
            1,
            "3 concurrent commits must coalesce into one physical write"
        );
        assert_eq!(
            db.wal_stats().sync_count() - syncs0,
            1,
            "3 concurrent commits must share one sync"
        );
    }
    let after = wal_len(&dir);
    assert!(after > before, "the batch must journal something");
    assert_eq!((after - before) % 3, 0, "the 3 groups must be equal-sized");
    let group = (after - before) / 3;

    let scratch = tmpdir("batch-cut");
    for cut in before..=after {
        copy_truncated(&dir, &scratch, cut);
        let db = Database::open_durable(&scratch, SyncPolicy::OsBuffered).unwrap();
        let ctx = format!("cut at {cut} of {after} (group size {group})");
        let complete = ((cut - before) / group) as usize;
        let mut applied = 0usize;
        for t in ["t1", "t2", "t3"] {
            let rows: Vec<i64> = int_rows(&db, &format!("SELECT v FROM {t} ORDER BY v"))
                .into_iter()
                .map(|r| r[0])
                .collect();
            assert!(
                rows.is_empty() || rows.len() == 2,
                "{ctx}: {t} shows a half-applied transaction: {rows:?}"
            );
            if rows.len() == 2 {
                let i: i64 = t[1..].parse().unwrap();
                assert_eq!(rows, vec![i * 10 + 1, i * 10 + 2], "{ctx}: {t} rows corrupted");
                applied += 1;
            }
        }
        assert_eq!(
            applied, complete,
            "{ctx}: recovery must keep exactly the fully-framed prefix of groups"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// Mixed-durability crash matrix for the epoch/ack contract (DESIGN.md
/// §7.2): a deterministic interleaving of `Always`, `Group` and `Async`
/// commits on ONE table, with the durable-epoch watermark and the on-disk
/// WAL length sampled after every commit. The WAL is then truncated at
/// *every byte offset* and replayed, asserting both directions of the
/// contract:
///
/// * **(a) durable acks survive.** For every sample `(len, watermark)`
///   taken during the run: any cut that keeps at least `len` bytes must
///   recover every commit whose epoch was ≤ `watermark` at that moment —
///   `wait_for_epoch(e)` returning is a real durability promise.
/// * **(b) weak acks are lost whole.** Every commit (async ones
///   included) inserts two rows; at every cut each commit shows both
///   rows or neither — a torn or unflushed group never leaks half a
///   transaction. The final async commit is acked but *never* flushed
///   (its flusher window is hours long and nothing drains it before the
///   snapshot), so it must be absent at every cut.
///
/// Determinism: commits are sequential (modes interleave, threads don't),
/// the flusher's window is far longer than the test so it never writes on
/// its own, and every write that does happen is forced synchronously by
/// an `Always` commit (cuts the flusher's window short), a
/// `Group` leader (the flusher yields its window to parked committers),
/// or the final `sync_now`.
#[test]
fn mixed_durability_epoch_contract_under_any_truncation() {
    use relstore::Value;

    let dir = tmpdir("epoch");
    {
        let db = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
        db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
        db.checkpoint().unwrap();
    }
    let base = wal_len(&dir);
    let huge = Duration::from_secs(3600);
    let weak = Durability::Async { max_wait: huge, max_batch: 1024 };

    // (epoch, v) per commit; each commit inserts rows v and v + 1000.
    let mut commits: Vec<(u64, i64)> = Vec::new();
    // (wal_len, durable_epoch) observed right after each commit returned.
    let mut samples: Vec<(u64, u64)> = Vec::new();
    let lost_val: i64 = 99;
    let snap = tmpdir("epoch-snap");
    let final_len;
    {
        // EveryWrite so wal_len() reflects exactly what a crash would keep.
        let db = Database::open_durable_with(&dir, SyncPolicy::EveryWrite, weak).unwrap();
        let modes: &[&str] = &[
            "async", "async", "always", "group", "async", "always", "async", "async", "group",
            "always",
        ];
        for (i, mode) in modes.iter().enumerate() {
            let v = i as i64 + 1;
            let d = match *mode {
                "always" => Durability::Always,
                "group" => Durability::Group { max_wait: Duration::from_millis(50), max_batch: 1 },
                _ => weak,
            };
            let ctx = OpCtx { durability: Some(d), ..OpCtx::default() };
            let ((), epoch) = db
                .transaction_in(&ctx, &[("t", Access::Write)], |s| {
                    s.execute(&format!("INSERT INTO t (v) VALUES ({v})"), &[])?;
                    s.execute(&format!("INSERT INTO t (v) VALUES ({})", v + 1000), &[])?;
                    Ok::<_, relstore::Error>(())
                })
                .unwrap();
            commits.push((epoch, v));
            samples.push((wal_len(&dir), db.durable_epoch()));
        }
        // Harness sanity: epochs strictly increase, samples never regress,
        // and the interleaving really produced a lagging watermark.
        assert!(commits.windows(2).all(|w| w[0].0 < w[1].0), "epochs not increasing: {commits:?}");
        assert!(
            samples.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1),
            "samples regressed: {samples:?}"
        );
        assert!(
            commits.iter().zip(&samples).any(|(&(e, _), &(_, d))| d < e),
            "no commit was ever acked ahead of the watermark; matrix proves nothing"
        );

        // Final async commit: acked with an epoch, never flushed.
        let ctx = OpCtx { durability: Some(weak), ..OpCtx::default() };
        let ((), lost_epoch) = db
            .transaction_in(&ctx, &[("t", Access::Write)], |s| {
                s.execute(&format!("INSERT INTO t (v) VALUES ({lost_val})"), &[])?;
                s.execute(&format!("INSERT INTO t (v) VALUES ({})", lost_val + 1000), &[])?;
                Ok::<_, relstore::Error>(())
            })
            .unwrap();
        assert!(lost_epoch > db.durable_epoch(), "the straggler must be acked, not durable");
        assert!(db.wal_stats().acked_not_durable_count() >= 1);

        // Snapshot the dir NOW — the straggler's bytes are only in memory,
        // so the snapshot is exactly what a crash at this instant keeps.
        final_len = wal_len(&dir);
        copy_truncated(&dir, &snap, final_len);

        // Unblock cleanly: sync_now cuts the flusher's window short and
        // flushes the straggler (into `dir`, not the snapshot).
        db.sync_now().unwrap();
        assert_eq!(db.durable_epoch(), db.commit_epoch());
    }
    assert!(final_len > base, "the run must have journalled something");

    let scratch = tmpdir("epoch-cut");
    for cut in base..=final_len {
        copy_truncated(&snap, &scratch, cut);
        let db = Database::open_durable(&scratch, SyncPolicy::OsBuffered).unwrap();
        let ctx = format!("cut at {cut} of {final_len}");
        let present: HashSet<i64> = db
            .query("SELECT v FROM t", &[])
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        // (b) all-or-nothing per commit, including the never-flushed one
        for &(_, v) in commits.iter().chain([&(0u64, lost_val)]) {
            assert_eq!(
                present.contains(&v),
                present.contains(&(v + 1000)),
                "{ctx}: commit {v} half-applied"
            );
        }
        assert!(!present.contains(&lost_val), "{ctx}: unflushed async commit leaked into the log");
        // (a) every epoch at or below a watermark sampled at ≤ this length
        // must have survived the cut
        for &(len_s, durable_s) in &samples {
            if len_s > cut {
                continue;
            }
            for &(epoch, v) in &commits {
                if epoch <= durable_s {
                    assert!(
                        present.contains(&v),
                        "{ctx}: epoch {epoch} (v={v}) was durable at watermark {durable_s} \
                         (wal length {len_s}) but did not survive"
                    );
                }
            }
        }
        // rows never appear from nowhere
        let known: HashSet<i64> = commits
            .iter()
            .map(|&(_, v)| v)
            .chain([lost_val])
            .flat_map(|v| [v, v + 1000])
            .collect();
        assert!(present.is_subset(&known), "{ctx}: unknown rows {present:?}");
    }

    // The real dir got the sync_now: the straggler IS durable there.
    let db = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
    let n = db.query("SELECT COUNT(*) FROM t WHERE v = 99", &[]).unwrap().rows[0][0].clone();
    assert_eq!(n, Value::Int(1), "sync_now'd straggler must be durable in the live dir");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&snap).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// A reader racing a writer that repeatedly creates a 10-attribute file
/// and deletes it again must only ever observe the complete attribute
/// set or nothing — never a partially created/deleted file.
#[test]
fn concurrent_reader_never_sees_partial_file() {
    let admin = Credential::new("/CN=admin");
    let m = Arc::new(
        Mcs::with_options(&admin, IndexProfile::Paper2003, Arc::new(ManualClock::default()))
            .unwrap(),
    );
    for i in 0..10 {
        m.define_attribute(&admin, &format!("a{i}"), AttrType::Str, "").unwrap();
    }

    let writer = {
        let m = Arc::clone(&m);
        let admin = admin.clone();
        std::thread::spawn(move || {
            for _ in 0..50 {
                let mut spec = FileSpec::named("f");
                for i in 0..10 {
                    spec = spec.attr(format!("a{i}"), format!("v{i}"));
                }
                m.create_file(&admin, &spec).unwrap();
                m.delete_file(&admin, "f").unwrap();
            }
        })
    };
    let reader = {
        let m = Arc::clone(&m);
        let admin = admin.clone();
        std::thread::spawn(move || {
            let mut saw_full = 0usize;
            for _ in 0..400 {
                match m.get_attributes(&admin, &ObjectRef::File("f".into())) {
                    // resolve and attribute fetch are separate statements,
                    // so a delete may land between them (0 attributes) —
                    // but a *partial* set means a torn transaction leaked
                    Ok(attrs) => {
                        assert!(
                            attrs.len() == 10 || attrs.is_empty(),
                            "reader saw a partially written file: {} attributes",
                            attrs.len()
                        );
                        if attrs.len() == 10 {
                            saw_full += 1;
                        }
                    }
                    Err(_) => {} // not visible at all — fine
                }
            }
            saw_full
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
}
