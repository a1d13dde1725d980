//! Fault injection for the two-phase cross-shard membership protocol
//! (DESIGN.md §7.4): `create_collection` + `assign_collection` span two
//! backends — the global write commits on shard 0 and is mirrored to
//! shard 1, then the membership row commits on the file's owner. Either
//! shard's WAL is truncated at *every byte offset* through the sequence;
//! reopening must reconcile to a state with no dangling membership rows,
//! and replaying the operation must converge to the intended state
//! (idempotence: each step either succeeds or reports it already
//! happened — never corrupts).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mcs::shard::Route::{Global, Member};
use mcs::{
    shard_of_name, Credential, FileSpec, IndexProfile, ManualClock, McsError, ShardedCatalog,
    StoreConfig,
};

const WAL: &str = "wal.log";
const SHARDS: usize = 2;
/// Routed to shard 1 of 2, so membership and global state live apart.
const FILE: &str = "data.001.dat";
const COLL: &str = "run-a";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcs-shard-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn admin() -> Credential {
    Credential::new("/CN=admin")
}

fn open(dir: &Path) -> ShardedCatalog {
    ShardedCatalog::open(
        dir,
        &admin(),
        IndexProfile::Paper2003,
        Arc::new(ManualClock::default()),
        StoreConfig::default().sharded(SHARDS),
    )
    .unwrap()
}

fn shard_wal(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k}")).join(WAL)
}

fn wal_len(dir: &Path, k: usize) -> u64 {
    std::fs::metadata(shard_wal(dir, k)).unwrap().len()
}

/// Copy the whole sharded store into a fresh `dst`, then truncate shard
/// `k`'s WAL copy to `wal_len` (the other shard keeps its full log).
fn copy_truncated(src: &Path, dst: &Path, k: usize, wal_len: u64) {
    let _ = std::fs::remove_dir_all(dst);
    for s in 0..SHARDS {
        let from = src.join(format!("shard-{s}"));
        let to = dst.join(format!("shard-{s}"));
        std::fs::create_dir_all(&to).unwrap();
        for entry in std::fs::read_dir(&from).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
    let wal = std::fs::OpenOptions::new().write(true).open(shard_wal(dst, k)).unwrap();
    wal.set_len(wal_len).unwrap();
}

fn int_rows(db: &relstore::Database, sql: &str) -> Vec<i64> {
    db.query(sql, &[])
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect()
}

/// No shard may hold a membership row pointing at a collection its own
/// mirror does not know — the invariant `reconcile` restores.
fn assert_no_dangling_membership(m: &ShardedCatalog, ctx: &str) {
    for k in 0..SHARDS {
        let db = m.shard(k).database();
        let colls: std::collections::HashSet<i64> =
            int_rows(db, "SELECT id FROM logical_collections").into_iter().collect();
        for c in int_rows(
            db,
            "SELECT collection_id FROM logical_files WHERE collection_id IS NOT NULL",
        ) {
            assert!(
                colls.contains(&c),
                "{ctx}: shard {k} file references dead collection {c}"
            );
        }
    }
}

/// Build the store, crash-cut shard `cut_shard`'s WAL at every offset the
/// two-phase operation wrote, and replay the operation on each copy.
fn check_cut_shard(cut_shard: usize) {
    assert_eq!(shard_of_name(FILE, SHARDS), 1, "test constant must route to shard 1");
    let a = admin();
    let dir = tmpdir(&format!("build-{cut_shard}"));
    {
        let m = open(&dir);
        m.run(Member(FILE), |s| s.create_file(&a, &FileSpec::named(FILE))).unwrap();
        for k in 0..SHARDS {
            m.shard(k).database().checkpoint().unwrap();
        }
    }
    let before = wal_len(&dir, cut_shard);
    {
        let m = open(&dir);
        m.run(Global, |s| s.create_collection(&a, COLL, None, "")).unwrap();
        m.run(Member(FILE), |s| s.assign_collection(&a, FILE, Some(COLL))).unwrap();
    }
    let after = wal_len(&dir, cut_shard);
    assert!(after > before, "the operation must journal on shard {cut_shard}");

    let scratch = tmpdir(&format!("cut-{cut_shard}"));
    for cut in before..=after {
        copy_truncated(&dir, &scratch, cut_shard, cut);
        let ctx = format!("shard {cut_shard} cut at {cut} of {after}");
        {
            let m = open(&scratch);
            assert_no_dangling_membership(&m, &ctx);

            // Replay the whole operation: every step must either apply
            // or report it already applied — nothing else.
            match m.run(Global, |s| s.create_collection(&a, COLL, None, "")) {
                Ok(_) | Err(McsError::AlreadyExists(_)) => {}
                Err(e) => panic!("{ctx}: create_collection replay failed: {e:?}"),
            }
            match m.run(Member(FILE), |s| s.assign_collection(&a, FILE, Some(COLL))) {
                Ok(()) => {}
                Err(McsError::AlreadyInCollection { collection, .. }) => {
                    assert_eq!(collection, COLL, "{ctx}: file stuck in wrong collection");
                }
                Err(e) => panic!("{ctx}: assign_collection replay failed: {e:?}"),
            }

            // Converged state: the file is in the collection, the
            // listing agrees, and mirrors hold the collection row.
            let listing = m.list_collection(&a, COLL).unwrap();
            assert_eq!(
                listing.files,
                vec![(FILE.to_string(), 1)],
                "{ctx}: listing diverged after replay"
            );
            assert_no_dangling_membership(&m, &ctx);
        }

        // Idempotence is durable: a second crash-free reopen of the
        // replayed store sees the same converged state.
        let m = open(&scratch);
        assert_eq!(m.list_collection(&a, COLL).unwrap().files, vec![(FILE.to_string(), 1)]);
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn add_to_collection_replay_survives_global_shard_truncation() {
    check_cut_shard(0);
}

#[test]
fn add_to_collection_replay_survives_member_shard_truncation() {
    check_cut_shard(1);
}
