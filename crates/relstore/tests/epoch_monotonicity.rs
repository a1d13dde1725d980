//! Property test for the commit-epoch contract (DESIGN.md §7.2): under
//! seeded random interleavings of commits (each with a randomly chosen
//! per-commit durability), autocommit statements, `sync_now` barriers and
//! `checkpoint()`s,
//!
//! * `commit_epoch` is strictly increasing — every logged unit gets a
//!   fresh epoch, in order;
//! * `durable_epoch` never exceeds `commit_epoch` (nothing can be durable
//!   before it is acknowledged) and never regresses, in particular not
//!   across a checkpoint, which truncates the log but *raises* the
//!   watermark (the snapshot pays all outstanding durability debt).
//!
//! The driver is single-threaded so a seed replays the exact interleaving;
//! concurrency is exercised by the `_stress` tests. Reproduce a failure
//! with `MCS_SEED=<seed> cargo test -p relstore --test epoch_monotonicity`.

use std::time::Duration;

use relstore::{Access, Database, Durability, OpCtx, SyncPolicy, Value};
use testkit::{seeds, Rng};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "relstore-epoch-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn check_case(seed: u64) {
    eprintln!("epoch_monotonicity: seed = {seed}");
    let mut rng = Rng::new(seed);
    let dir = tmpdir(&format!("{seed}"));
    let db = Database::open_durable_with(
        &dir,
        SyncPolicy::OsBuffered,
        Durability::Group { max_wait: Duration::from_millis(1), max_batch: 16 },
    )
    .unwrap();
    db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();

    let mut last_commit = db.commit_epoch();
    let mut last_durable = db.durable_epoch();
    let mut committed = 0i64;

    for step in 0..200 {
        match rng.below(10) {
            // 0–5: a transaction under a random per-commit durability
            0..=5 => {
                let mode = match rng.below(3) {
                    0 => Durability::Always,
                    1 => Durability::Group {
                        max_wait: Duration::from_millis(1),
                        max_batch: 16,
                    },
                    _ => Durability::Async {
                        max_wait: Duration::from_millis(1),
                        max_batch: 16,
                    },
                };
                let ctx = OpCtx { durability: Some(mode), ..OpCtx::default() };
                let ((), e) = db
                    .transaction_in(&ctx, &[("t", Access::Write)], |s| {
                        s.execute(&format!("INSERT INTO t (v) VALUES ({step})"), &[])?;
                        Ok::<_, relstore::Error>(())
                    })
                    .unwrap();
                committed += 1;
                assert!(
                    e > last_commit,
                    "seed {seed} step {step}: commit epoch not strictly increasing \
                     ({e} after {last_commit})"
                );
                last_commit = e;
            }
            // 6: an autocommit statement — also a logged unit, also epoch'd
            6 => {
                let insert = db.prepare(&format!("INSERT INTO t (v) VALUES ({step})")).unwrap();
                let (_, e) = db.execute_in(&OpCtx::default(), &insert, &[]).unwrap();
                committed += 1;
                assert!(
                    e > last_commit,
                    "seed {seed} step {step}: autocommit epoch not strictly increasing"
                );
                last_commit = e;
            }
            // 7: hard barrier
            7 => {
                db.sync_now().unwrap();
                assert_eq!(
                    db.durable_epoch(),
                    db.commit_epoch(),
                    "seed {seed} step {step}: sync_now left acknowledged epochs non-durable"
                );
            }
            // 8: checkpoint — truncates the log, must not regress the
            // watermark (it raises it: the snapshot covers everything)
            8 => {
                let before = db.durable_epoch();
                db.checkpoint().unwrap();
                assert!(
                    db.durable_epoch() >= before,
                    "seed {seed} step {step}: durable epoch regressed across checkpoint"
                );
                assert_eq!(db.wal_stats().acked_not_durable_count(), 0);
            }
            // 9: wait for the newest acked epoch (must not hang or err)
            _ => {
                let e = db.commit_epoch();
                db.wait_for_epoch(e).unwrap();
            }
        }
        let (c, d) = (db.commit_epoch(), db.durable_epoch());
        assert!(
            d <= c,
            "seed {seed} step {step}: durable epoch {d} overtook commit epoch {c}"
        );
        assert!(
            d >= last_durable,
            "seed {seed} step {step}: durable epoch regressed {last_durable} -> {d}"
        );
        assert!(c >= last_commit, "seed {seed} step {step}: commit epoch regressed");
        last_durable = d;
    }

    // the acked state must actually be recoverable
    db.sync_now().unwrap();
    drop(db);
    let db = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0],
        Value::Int(committed),
        "seed {seed}: recovery lost rows the epoch contract promised"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Random interleavings under several fixed seeds (or the one in
/// `MCS_SEED`, for replaying a CI failure).
#[test]
fn epoch_monotonicity_under_random_interleavings() {
    for seed in seeds(&[42, 0xDEAD_BEEF, 0x9E37_79B9_7F4A_7C15, 7, 1_000_003]) {
        check_case(seed);
    }
}
