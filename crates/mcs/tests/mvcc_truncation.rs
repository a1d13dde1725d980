//! Byte-granular crash matrix for the MVCC engine: the WAL of an
//! MVCC-flagged catalog is truncated at *every byte offset* across a
//! `create_file` and a `delete_file` transaction, and each copy is
//! reopened — with the flag on AND off. Recovery must
//!
//! * keep each transaction atomic (whole or absent, exactly as on the
//!   barrier engine),
//! * rebuild **single-version** state: the post-replay vacuum reclaims
//!   every version chain recovery created, so an immediate explicit
//!   vacuum finds nothing left, and the physical integrity checks pass,
//! * be flag-agnostic: the WAL format is identical either way, so the
//!   MVCC reopen and the barrier reopen of the same truncated copy must
//!   answer identically (the on-disk log carries no version metadata).
//!
//! Beside the matrix sits the catalog-level snapshot-isolation test: a
//! snapshot pinned before a commit never sees it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mcs::{
    AttrType, Credential, FileSpec, IndexProfile, ManualClock, Mcs, ObjectRef, OpCtx, StoreConfig,
};
use relstore::SnapshotPin;

const WAL: &str = "wal.log";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcs-mvcc-cut-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(dir: &Path, admin: &Credential, mvcc: bool) -> Mcs {
    let cfg = if mvcc { StoreConfig::default().with_mvcc() } else { StoreConfig::default() };
    Mcs::open_durable(dir, admin, IndexProfile::Paper2003, Arc::new(ManualClock::default()), cfg)
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

/// A catalog's observable state, flag-independent: file name → attribute
/// multiset, plus which files exist at all.
fn observe(m: &Mcs, admin: &Credential, names: &[&str]) -> Vec<String> {
    names
        .iter()
        .map(|n| {
            let file = m.get_file(admin, n);
            let attrs = m.get_attributes(admin, &ObjectRef::File((*n).into()));
            format!("{n}: file={:?} attrs={:?}", file.map(|f| f.name), attrs)
        })
        .collect()
}

#[test]
fn mvcc_recovery_is_atomic_and_single_version_under_any_wal_truncation() {
    let dir = tmpdir("live");
    let admin = Credential::new("/CN=admin");
    {
        // Build phase runs under MVCC too: checkpoint must serialize the
        // single visible version of every row, not the chains.
        let m = open(&dir, &admin, true);
        for i in 0..3 {
            m.define_attribute(&admin, &format!("a{i}"), AttrType::Str, "").unwrap();
        }
        m.create_collection(&admin, "c", None, "").unwrap();
        let mut spec = FileSpec::named("doomed.dat").in_collection("c");
        for i in 0..3 {
            spec = spec.attr(format!("a{i}"), format!("old{i}"));
        }
        m.create_file(&admin, &spec).unwrap();
        // churn a version chain, then checkpoint over it
        m.set_attribute(
            &admin,
            &ObjectRef::File("doomed.dat".into()),
            &mcs::Attribute { name: "a0".into(), value: "new0".into() },
        )
        .unwrap();
        m.database().vacuum();
        m.database().checkpoint().unwrap();
    }
    let before = wal_len(&dir);

    // The window under test: one create (3 attributes, into the
    // collection) and one delete — both multi-statement transactions.
    let mid;
    {
        let m = open(&dir, &admin, true);
        let mut spec = FileSpec::named("fresh.dat").in_collection("c");
        for i in 0..3 {
            spec = spec.attr(format!("a{i}"), format!("v{i}"));
        }
        m.create_file(&admin, &spec).unwrap();
        mid = wal_len(&dir);
        m.delete_file(&admin, "doomed.dat").unwrap();
    }
    let after = wal_len(&dir);
    assert!(after > mid && mid > before, "both transactions must journal");

    let cut_mvcc = tmpdir("cut-mvcc");
    let cut_barrier = tmpdir("cut-barrier");
    for cut in before..=after {
        let ctx = format!("cut at {cut} (frames at {before}/{mid}/{after})");
        copy_truncated(&dir, &cut_mvcc, cut);
        copy_truncated(&dir, &cut_barrier, cut);

        let m = open(&cut_mvcc, &admin, true);
        let db = m.database();
        assert!(db.is_mvcc());

        // Atomicity: each transaction is all-or-nothing at its frame.
        let fresh = m.get_file(&admin, "fresh.dat");
        if cut < mid {
            assert!(fresh.is_err(), "{ctx}: torn create leaked");
        } else {
            assert!(fresh.is_ok(), "{ctx}: framed create lost");
            let attrs = m.get_attributes(&admin, &ObjectRef::File("fresh.dat".into())).unwrap();
            assert_eq!(attrs.len(), 3, "{ctx}: committed create missing attributes");
        }
        let doomed = m.get_file(&admin, "doomed.dat");
        if cut < after {
            assert!(doomed.is_ok(), "{ctx}: file lost without a framed delete");
        } else {
            assert!(doomed.is_err(), "{ctx}: framed delete lost");
        }

        // Single-version state: replay ran entirely before the oldest
        // possible snapshot, so the post-replay vacuum already reclaimed
        // every chain recovery built — nothing is left to collect, and
        // the physical integrity checks pass with the chains gone.
        assert_eq!(db.vacuum(), 0, "{ctx}: recovery left unreclaimed versions");
        for table in ["logical_files", "user_attributes", "logical_collections"] {
            db.table(table).unwrap().read().check_integrity().unwrap_or_else(|e| {
                panic!("{ctx}: {table} failed integrity after recovery: {e}");
            });
        }

        // Flag-agnostic recovery: a barrier-engine reopen of the very
        // same truncated copy answers identically.
        let b = open(&cut_barrier, &admin, false);
        assert!(!b.database().is_mvcc());
        let names = ["fresh.dat", "doomed.dat"];
        assert_eq!(
            observe(&m, &admin, &names),
            observe(&b, &admin, &names),
            "{ctx}: MVCC and barrier recovery disagree"
        );
    }

    for d in [dir, cut_mvcc, cut_barrier] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Byte offsets at which each frame of the log at `dir` starts, from
/// `from` (a frame boundary) to the end: `[len: u32][checksum: u64]`
/// then `len` payload bytes.
fn frame_starts(dir: &Path, from: u64) -> Vec<u64> {
    let log = std::fs::read(dir.join(WAL)).unwrap();
    let mut at = from as usize;
    let mut starts = Vec::new();
    while at < log.len() {
        starts.push(at as u64);
        at += 12 + u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
    }
    assert_eq!(at, log.len(), "the log ends on a frame boundary");
    starts
}

/// The row-image groups of an audited file's life — its create (file
/// row, attribute rows, audit row), an attribute set (delete and insert
/// of one attribute row, audit row) and its delete (audit row, file row,
/// attribute rows) — cut at every frame boundary reopen to exactly the
/// committed prefix, on the barrier and the MVCC engine alike.
#[test]
fn row_image_groups_reopen_to_their_committed_prefix_at_every_frame_truncation() {
    let dir = tmpdir("rows");
    let admin = Credential::new("/CN=admin");
    let name = "audited.dat";
    // Read with SQL: a catalog read of an audited file writes an audit row.
    let observe = |m: &Mcs| {
        let db = m.database();
        let rows = |sql: &str| db.query(sql, &[]).unwrap().rows;
        format!(
            "files={:?} attrs={:?} audit={:?}",
            rows("SELECT id, name FROM logical_files ORDER BY id"),
            rows("SELECT id, object_id, name, str_value FROM user_attributes ORDER BY id"),
            rows("SELECT id, object_id, action FROM audit_log ORDER BY id"),
        )
    };
    // The state after each committed group, and the log length there.
    let mut states = Vec::new();
    {
        let m = open(&dir, &admin, false);
        for i in 0..3 {
            m.define_attribute(&admin, &format!("a{i}"), AttrType::Str, "").unwrap();
        }
        states.push((wal_len(&dir), observe(&m)));
        let mut spec = FileSpec { audit: true, ..FileSpec::named(name) };
        for i in 0..3 {
            spec = spec.attr(format!("a{i}"), format!("v{i}"));
        }
        m.create_file(&admin, &spec).unwrap();
        states.push((wal_len(&dir), observe(&m)));
        let set = mcs::Attribute { name: "a1".into(), value: "w1".into() };
        m.set_attribute(&admin, &ObjectRef::File(name.into()), &set).unwrap();
        states.push((wal_len(&dir), observe(&m)));
        m.delete_file(&admin, name).unwrap();
        states.push((wal_len(&dir), observe(&m)));
    }
    let frames = frame_starts(&dir, states[0].0);
    // Begin, file, attributes, audit, Commit; Begin, attribute delete,
    // attribute insert, audit, Commit; Begin, audit, file delete,
    // attribute deletes, Commit.
    assert_eq!(frames.len(), 15, "frames at {frames:?}");
    let cut = tmpdir("rows-cut");
    for at in frames.into_iter().chain([states[3].0]) {
        let committed = states.iter().rev().find(|(len, _)| *len <= at).unwrap();
        for mvcc in [false, true] {
            copy_truncated(&dir, &cut, at);
            let m = open(&cut, &admin, mvcc);
            assert_eq!(observe(&m), committed.1, "cut at byte {at}, mvcc {mvcc}");
        }
    }
    for d in [dir, cut] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The targeted snapshot-isolation contract at the catalog level: a
/// snapshot pinned *before* a commit never sees it, one pinned *after*
/// always does — regardless of when the read actually executes.
#[test]
fn snapshot_pinned_before_commit_never_sees_it() {
    let a = Credential::new("/O=Grid/CN=admin");
    let dir = tmpdir("pin");
    let m = open(&dir, &a, true);
    let db = Arc::clone(m.database());

    m.create_file(&a, &FileSpec::named("before.dat")).unwrap();
    let pin_before = db.pin_snapshot().expect("mvcc databases pin");
    m.create_file(&a, &FileSpec::named("after.dat")).unwrap();
    let pin_after = db.pin_snapshot().expect("mvcc databases pin");

    // Reads at the early snapshot never see the later commit, no matter
    // how long after it they run; reads at the later snapshot always do.
    let at = |pin: &SnapshotPin| OpCtx { snapshot: Some(pin.clone()), ..OpCtx::default() };
    assert_eq!(m.scoped(at(&pin_before), |m| m.file_count().unwrap()).0, 1);
    assert_eq!(m.scoped(at(&pin_after), |m| m.file_count().unwrap()).0, 2);
    let (seen, _) = m.scoped(at(&pin_before), |m| m.get_file(&a, "after.dat").is_ok());
    assert!(!seen, "snapshot pinned before the commit saw it");
    assert!(m.scoped(at(&pin_after), |m| m.get_file(&a, "after.dat").is_ok()).0);

    // The pins hold the vacuum horizon: with them dropped, vacuum may
    // reclaim and a fresh read sees the latest state.
    drop(pin_before);
    drop(pin_after);
    db.vacuum();
    assert_eq!(m.file_count().unwrap(), 2);

    drop(m);
    let _ = std::fs::remove_dir_all(dir);
}
