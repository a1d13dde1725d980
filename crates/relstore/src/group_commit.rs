//! The commit queue: the one path from a commit to the log, and one
//! `fsync` for many commits.
//!
//! Every committed unit — an autocommit write or a transaction — encodes
//! its WAL group (`Begin, Stmt…, Commit` frames) and enqueues it here with
//! a ticket while it still holds its table barriers. The queue is FIFO,
//! and only a **leader** takes groups off it and writes them:
//!
//! 1. The first committer to find no active leader **becomes the
//!    leader**: it waits up to `max_wait` for the queue to reach
//!    `max_batch` groups (new arrivals poke the condvar), then drains up
//!    to `max_batch` entries, appends them all in one buffered write, and
//!    issues a **single** `sync_data` under the WAL mutex.
//! 2. The leader publishes one result per drained ticket, steps down, and
//!    wakes everyone. Woken followers whose ticket resolved return it;
//!    a follower whose ticket is still queued (the drained batch was
//!    full) takes over as the next leader.
//!
//! Even with `max_wait = 0` batching emerges naturally: while a leader is
//! inside `sync_data`, every other committer enqueues behind it, and the
//! next leader drains them all — the classic self-clocking group commit.
//! `max_wait` only adds an explicit collection window on top.
//!
//! The three [`Durability`](crate::db::Durability) policies differ only in
//! how a committer waits. A `Group` committer releases its barriers, then
//! parks (or leads) until its group is written. An `Async` commit returns
//! at once with its commit epoch; a detached flusher thread
//! ([`Database::ensure_flusher`]) plays the leader role batch after batch,
//! publishing the durable-epoch watermark as it goes (see
//! [`crate::epoch`]). An `Always` committer leads batches of one, or waits
//! for the leader whose batch holds its group, *before* releasing its
//! barriers, and counts as a sync waiter meanwhile, which cuts every
//! collection window short, as `sync_now` and checkpoint do.
//!
//! Correctness has two parts:
//!
//! * **Log order = execution order.** Conflicting units are ordered by
//!   the barrier layer ([`crate::lock`]), and each enqueues — fixing its
//!   log position — before it releases its barriers, so a unit that
//!   executed after another enqueues after it. Leaders take turns
//!   (`leader_active`) and write each batch in the order they drained
//!   it, so the log is the queue's FIFO order.
//! * **Visibility runs ahead of durability — deliberately, under `Group`
//!   and `Async`.** Their barriers are released as soon as the group is
//!   enqueued, *before* any `sync_data`: that is what lets the next
//!   conflicting transaction execute and join the batch while the
//!   leader's sync is in flight (otherwise contended tables would
//!   serialise into batches of one). The flip side is the standard
//!   early-lock-release anomaly: a concurrent **reader may observe a
//!   commit whose group is not yet on disk** and act on state that a
//!   crash would roll back. The committer itself is never lied to —
//!   `commit()` returns only after its group is durable — and callers
//!   that must not expose maybe-lost data to third parties should stay
//!   on [`Durability::Always`](crate::db::Durability::Always) (see
//!   DESIGN.md §7.1).
//!
//! Recovery needs no changes: each group in a batched physical write is
//! self-delimiting, so a torn tail discards exactly the groups missing
//! their Commit frame (see `crates/mcs/tests/crash_atomicity.rs` for the
//! byte-granular proof).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

use crate::db::{Database, Durability};
use crate::error::{Error, Result};

/// The shared commit queue. One per [`Database`]; untouched by a
/// database without a log.
///
/// Uses `std::sync` primitives rather than the vendored `parking_lot`
/// stub because the protocol needs a condvar; poisoning is recovered the
/// same way the stub does (a panicking committer must not wedge commits).
#[derive(Debug, Default)]
pub(crate) struct GroupCommitQueue {
    state: Mutex<QueueState>,
    /// Single condvar for both roles: followers wait on it for their
    /// result, a collecting leader waits on it for the queue to fill.
    cond: Condvar,
}

impl GroupCommitQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One enqueued commit group awaiting a leader (or the async flusher).
#[derive(Debug)]
struct PendingGroup {
    ticket: u64,
    /// Commit epoch, allocated under the queue lock at enqueue time — the
    /// same instant the group's log position becomes fixed, so epoch order
    /// equals log order (see [`crate::epoch`]).
    epoch: u64,
    bytes: Vec<u8>,
    /// `true` for `Always` and `Group` committers, who park on the queue
    /// and read their result back; `false` for `Async` commits, which
    /// return immediately — publishing a result nobody reads would leak a
    /// map entry per commit.
    wants_result: bool,
}

#[derive(Debug, Default)]
struct QueueState {
    /// Encoded groups awaiting a leader, FIFO in ticket (and epoch) order.
    pending: VecDeque<PendingGroup>,
    /// Results for drained tickets; each follower removes its own entry,
    /// so the map never outgrows one batch.
    results: HashMap<u64, Option<String>>,
    next_ticket: u64,
    leader_active: bool,
    /// Threads demanding the queue be drained *now*: `sync_now` and
    /// checkpoint inside [`Database::flush_commit_queue`], and `Always`
    /// committers until their group is written. A non-zero count cuts any
    /// leader's collection window short — an explicit sync barrier must
    /// never sleep out a flush window.
    sync_waiters: usize,
    /// An async background flusher thread is alive (spawned by
    /// [`Database::ensure_flusher`]). It clears this flag — in the same
    /// critical section in which it observes the queue empty — and exits,
    /// so an idle database carries no thread.
    flusher_active: bool,
}

impl Database {
    /// Enqueue an encoded group committed under `durability`; returns
    /// `(ticket, epoch)`. The queue is FIFO, so from this point the
    /// group's position in the log relative to every other enqueued group
    /// is fixed — which is also why the commit epoch is allocated here,
    /// under the queue lock: epoch order is log order. An `Always`
    /// committer redeems the ticket with [`Database::group_commit_now`]
    /// before releasing its barriers, a `Group` committer with
    /// [`Database::group_commit_wait`] after; an `Async` one never does
    /// and tracks the epoch instead.
    pub(crate) fn group_enqueue(&self, group: Vec<u8>, durability: Durability) -> (u64, u64) {
        let wants_result = !matches!(durability, Durability::Async { .. });
        let q = self.commit_queue();
        let mut st = q.lock();
        if durability == Durability::Always {
            st.sync_waiters += 1;
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let epoch = self.commit_epochs().fetch_add(1, Ordering::AcqRel) + 1;
        if !wants_result {
            // Async ack: the commit is about to be acknowledged with this
            // epoch while its bytes are still queued.
            let stats = self.wal_stats();
            stats.acked_not_durable.fetch_add(1, Ordering::Relaxed);
            let lag = epoch - self.epoch_gate().durable().min(epoch);
            stats.max_epoch_lag.fetch_max(lag, Ordering::Relaxed);
        }
        st.pending.push_back(PendingGroup { ticket, epoch, bytes: group, wants_result });
        // A leader may be sitting in its collection window — let it see
        // the new entry (also wakes followers, who harmlessly re-check).
        // Nobody else waits for an enqueue, so with no leader there is
        // no one to wake.
        if st.leader_active {
            q.cond.notify_all();
        }
        (ticket, epoch)
    }

    /// Write the group of `ticket`, enqueued by an `Always` commit, before
    /// returning: lead batches of one until it is written, or wait for
    /// the leader whose batch holds it. One batch per commit is one sync
    /// per commit under `EveryWrite`. The sync-waiter count raised at the
    /// enqueue cuts every collection window short meanwhile.
    pub(crate) fn group_commit_now(&self, ticket: u64) -> Result<()> {
        let written = self.group_commit_wait(ticket, Duration::ZERO, 1);
        self.commit_queue().lock().sync_waiters -= 1;
        written
    }

    /// Park until the ticket's group is durable: lead if no leader is
    /// active, otherwise follow (wait to be woken with a result).
    pub(crate) fn group_commit_wait(
        &self,
        ticket: u64,
        max_wait: Duration,
        max_batch: usize,
    ) -> Result<()> {
        let q = self.commit_queue();
        let mut st = q.lock();
        loop {
            if let Some(outcome) = st.results.remove(&ticket) {
                return match outcome {
                    None => Ok(()),
                    Some(msg) => Err(Error::ExecError(msg)),
                };
            }
            if !st.leader_active {
                st.leader_active = true;
                drop(st);
                self.lead_batch(max_wait, max_batch.max(1), false);
                st = q.lock();
            } else {
                st = q.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Leader role: collect, write, sync, publish. `leader_active` is
    /// already claimed by the caller; this always releases it.
    ///
    /// `yield_to_sync` is set by the async flusher: its collection window
    /// may be tuned long (async callers aren't waiting), so it must break
    /// the window the moment a `wants_result` group appears — that
    /// committer is parked and is owed *its* latency bound, not the
    /// flusher's. A synchronous `Group` leader never yields (collecting
    /// parked peers is the whole point of its window).
    fn lead_batch(&self, max_wait: Duration, max_batch: usize, yield_to_sync: bool) {
        let q = self.commit_queue();
        let deadline = Instant::now() + max_wait;
        // Collection window: wait (queue lock only, never the WAL mutex)
        // for the batch to fill; new arrivals poke the condvar. A pending
        // sync barrier (`sync_waiters`) cuts the window short for any
        // leader. Leaders take turns, so the batch drained here reaches
        // the log after every earlier batch and before every later one.
        let batch: Vec<PendingGroup> = {
            let mut st = q.lock();
            while !st.pending.is_empty() && st.pending.len() < max_batch && st.sync_waiters == 0
            {
                if yield_to_sync && st.pending.iter().any(|g| g.wants_result) {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (g, timeout) = q
                    .cond
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = g;
                if timeout.timed_out() {
                    break;
                }
            }
            let n = st.pending.len().min(max_batch);
            st.pending.drain(..n).collect()
        };
        let result = if batch.is_empty() {
            Ok(())
        } else {
            let result = match self.wal_lock().as_mut() {
                Some(w) => w.append_batch(batch.iter().map(|g| g.bytes.as_slice())),
                // No WAL attached (never detaches once attached; this arm
                // is unreachable in practice): nothing to persist.
                None => Ok(()),
            };
            match &result {
                Ok(()) => {
                    // FIFO ⇒ the last group carries the batch's largest
                    // epoch; everything at or below it is now flushed.
                    self.epoch_gate().publish(batch.last().map_or(0, |g| g.epoch));
                    let asyncs = batch.iter().filter(|g| !g.wants_result).count() as u64;
                    if asyncs > 0 {
                        self.wal_stats().acked_not_durable.fetch_sub(asyncs, Ordering::Relaxed);
                    }
                }
                // The writer has poisoned itself: epochs above the
                // watermark can no longer become durable through this log.
                // Fail the gate so async waiters return instead of hanging
                // (checkpoint clears it).
                Err(e) => self.epoch_gate().fail(&e.to_string()),
            }
            result
        };
        let err = result.err().map(|e| e.to_string());
        let mut st = q.lock();
        for g in &batch {
            if g.wants_result {
                st.results.insert(g.ticket, err.clone());
            }
        }
        st.leader_active = false;
        q.cond.notify_all();
    }

    /// Make sure a background flusher thread is running to pay the
    /// durability of [`Durability::Async`](crate::db::Durability::Async)
    /// commits. Called after every async enqueue; cheap when a flusher is
    /// already alive. The flusher claims leadership exactly like a
    /// `Group` committer-leader (so the two modes compose on one queue),
    /// drains batch after batch, and exits the moment it observes an
    /// empty queue — idle databases carry no thread and an isolated
    /// commit waits at most one `max_wait` collection window.
    pub(crate) fn ensure_flusher(&self, max_wait: Duration, max_batch: usize) {
        let q = self.commit_queue();
        {
            let mut st = q.lock();
            if st.pending.is_empty() || st.flusher_active {
                return;
            }
            st.flusher_active = true;
        }
        // Groups are queued only once a log is attached, which makes the
        // weak handle live.
        let weak = self.weak();
        let spawned = std::thread::Builder::new()
            .name("relstore-flusher".into())
            .spawn(move || flusher_loop(weak, max_wait, max_batch.max(1)));
        if spawned.is_err() {
            // Can't spawn (resource exhaustion): pay durability here and
            // now rather than strand acked commits in the queue.
            self.commit_queue().lock().flusher_active = false;
            let _ = self.flush_commit_queue();
        }
    }

    /// Drain the queue completely (checkpoint and `sync_now` call this
    /// before syncing, so queued groups are on disk first). Registers as
    /// a sync waiter, which cuts any active leader's collection window
    /// short — this must complete in write+sync time, not window time —
    /// then waits that leader out and drains whatever is left itself.
    pub(crate) fn flush_commit_queue(&self) -> Result<()> {
        let q = self.commit_queue();
        {
            let mut st = q.lock();
            st.sync_waiters += 1;
            // A leader may be sitting in its collection window: wake it so
            // it sees the raised count and drains immediately.
            q.cond.notify_all();
        }
        loop {
            {
                let mut st = q.lock();
                while st.leader_active {
                    st = q.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                if st.pending.is_empty() {
                    st.sync_waiters -= 1;
                    return Ok(());
                }
                st.leader_active = true;
            }
            self.lead_batch(Duration::ZERO, usize::MAX, false);
        }
    }
}

/// Body of the background flusher thread (see [`Database::ensure_flusher`]).
///
/// Holds only a `Weak` handle between batches so the thread never keeps a
/// dropped database alive indefinitely; while groups are pending it
/// upgrades, claims leadership (waiting out a concurrent `Group` leader if
/// one is mid-batch), and runs the ordinary [`Database::lead_batch`] path.
/// The exit check and the `flusher_active` reset happen in one queue-lock
/// critical section, so an async commit enqueued after the reset finds
/// `flusher_active == false` and spawns a replacement — no group can be
/// stranded.
fn flusher_loop(db: Weak<Database>, max_wait: Duration, max_batch: usize) {
    loop {
        let Some(db) = db.upgrade() else { return };
        let q = db.commit_queue();
        {
            let mut st = q.lock();
            loop {
                if st.pending.is_empty() {
                    // Exit idle windows immediately: no sleeping out
                    // `max_wait` against an empty queue.
                    st.flusher_active = false;
                    return;
                }
                if !st.leader_active {
                    st.leader_active = true;
                    break;
                }
                st = q.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        db.lead_batch(max_wait, max_batch, true);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use crate::db::{Durability, OpCtx};
    use crate::lock::Access;
    use crate::value::Value;
    use crate::wal::SyncPolicy;
    use crate::Database;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "relstore-gc-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn grouped() -> Durability {
        Durability::Group { max_wait: Duration::from_millis(2), max_batch: 64 }
    }

    #[test]
    fn single_committer_degenerates_to_batch_of_one() {
        let dir = tmpdir("single");
        {
            let db = Database::open_durable_with(&dir, SyncPolicy::EveryWrite, grouped()).unwrap();
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT, v INTEGER)", &[])
                .unwrap();
            let stats = db.wal_stats();
            let before = (stats.group_commit_count(), stats.batch_count());
            db.transaction(&[("t", Access::Write)], |s| {
                s.execute("INSERT INTO t (v) VALUES (1)", &[])?;
                s.execute("INSERT INTO t (v) VALUES (2)", &[])?;
                Ok::<_, crate::Error>(())
            })
            .unwrap();
            assert_eq!(stats.group_commit_count() - before.0, 1);
            assert_eq!(stats.batch_count() - before.1, 1);
        } // crash
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0], Value::Int(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_transactions_skip_the_queue() {
        let dir = tmpdir("empty");
        let db = Database::open_durable_with(&dir, SyncPolicy::EveryWrite, grouped()).unwrap();
        db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
        let before = db.wal_stats().sync_count();
        db.transaction(&[("t", Access::Read)], |s| {
            s.execute("SELECT * FROM t", &[])?;
            Ok::<_, crate::Error>(())
        })
        .unwrap();
        assert_eq!(db.wal_stats().sync_count(), before, "read-only commit must not sync");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_flushes_queued_groups() {
        let dir = tmpdir("ckpt");
        {
            let db = Database::open_durable_with(&dir, SyncPolicy::OsBuffered, grouped()).unwrap();
            db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
            db.transaction(&[("t", Access::Write)], |s| {
                s.execute("INSERT INTO t (v) VALUES (7)", &[])?;
                Ok::<_, crate::Error>(())
            })
            .unwrap();
            db.checkpoint().unwrap();
            db.transaction(&[("t", Access::Write)], |s| {
                s.execute("INSERT INTO t (v) VALUES (8)", &[])?;
                Ok::<_, crate::Error>(())
            })
            .unwrap();
        }
        let db = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0], Value::Int(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durability_policy_can_flip_at_runtime() {
        let dir = tmpdir("flip");
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        assert_eq!(db.durability(), Durability::Always);
        db.set_durability(grouped());
        db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
        let before = db.wal_stats().group_commit_count();
        db.transaction(&[("t", Access::Write)], |s| {
            s.execute("INSERT INTO t (v) VALUES (1)", &[])?;
            Ok::<_, crate::Error>(())
        })
        .unwrap();
        db.set_durability(Durability::Always);
        db.transaction(&[("t", Access::Write)], |s| {
            s.execute("INSERT INTO t (v) VALUES (2)", &[])?;
            Ok::<_, crate::Error>(())
        })
        .unwrap();
        assert_eq!(db.wal_stats().group_commit_count() - before, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A conflicting `Always` autocommit statement runs while a grouped
    /// commit's bytes are still queued (the committer-leader is parked in
    /// a long collection window): its group queues behind the insert's
    /// and reaches the log after it, or recovery would replay the delete
    /// before the insert. Also proves the `Always` commit cuts the window
    /// short — nobody waits out the 5 s window.
    #[test]
    fn direct_append_drains_queued_groups_first() {
        let dir = tmpdir("order");
        {
            let db = Database::open_durable_with(
                &dir,
                SyncPolicy::EveryWrite,
                Durability::Group { max_wait: Duration::from_secs(5), max_batch: 64 },
            )
            .unwrap();
            db.execute("CREATE TABLE t (name VARCHAR(32))", &[]).unwrap();
            let started = std::time::Instant::now();
            let (in_txn, ready) = std::sync::mpsc::channel();
            let writer = {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    db.transaction(&[("t", Access::Write)], |s| {
                        s.execute("INSERT INTO t (name) VALUES ('from-txn')", &[])?;
                        in_txn.send(()).unwrap();
                        Ok::<_, crate::Error>(())
                    })
                    .unwrap();
                })
            };
            // Blocks on t's barrier until the transaction has enqueued its
            // group and released (enqueue happens under the barriers), so
            // this delete executes strictly after the insert — and must
            // also land after it in the log.
            ready.recv().unwrap();
            let delete = db.prepare("DELETE FROM t WHERE name = 'from-txn'").unwrap();
            let always = OpCtx { durability: Some(Durability::Always), ..OpCtx::default() };
            db.execute_in(&always, &delete, &[]).unwrap();
            writer.join().unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(4),
                "committer stalled in the collection window instead of being \
                 written with the Always commit"
            );
        }
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0],
            Value::Int(0),
            "recovery replayed the autocommit delete ahead of the grouped insert"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping `Group` → `Always` at runtime while a group is still
    /// queued: the `Always` commit queues behind it, cuts the leader's
    /// window short, and reaches the log after it.
    #[test]
    fn always_commit_after_flip_drains_queued_groups() {
        let dir = tmpdir("flip-order");
        {
            let db = Database::open_durable_with(
                &dir,
                SyncPolicy::EveryWrite,
                Durability::Group { max_wait: Duration::from_secs(5), max_batch: 64 },
            )
            .unwrap();
            db.execute("CREATE TABLE t (name VARCHAR(32))", &[]).unwrap();
            let (in_txn, ready) = std::sync::mpsc::channel();
            let writer = {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    db.transaction(&[("t", Access::Write)], |s| {
                        s.execute("INSERT INTO t (name) VALUES ('x')", &[])?;
                        in_txn.send(()).unwrap();
                        Ok::<_, crate::Error>(())
                    })
                    .unwrap();
                })
            };
            ready.recv().unwrap();
            db.set_durability(Durability::Always);
            // barrier-ordered after the insert, so queued after it
            db.transaction(&[("t", Access::Write)], |s| {
                s.execute("DELETE FROM t WHERE name = 'x'", &[])?;
                Ok::<_, crate::Error>(())
            })
            .unwrap();
            writer.join().unwrap();
        }
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0], Value::Int(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `Durability::Async` acks immediately with an epoch; `sync_now` is
    /// the final barrier after which everything is durable and the debt
    /// gauge is paid off. Recovery sees every acked-and-synced commit.
    #[test]
    fn async_commits_ack_immediately_and_become_durable() {
        let dir = tmpdir("async");
        {
            let db = Database::open_durable_with(
                &dir,
                SyncPolicy::EveryWrite,
                Durability::Async { max_wait: Duration::from_millis(2), max_batch: 64 },
            )
            .unwrap();
            db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
            let mut last = 0u64;
            for v in 0..16 {
                let ((), e) = db
                    .transaction_in(&OpCtx::default(), &[("t", Access::Write)], |s| {
                        s.execute(&format!("INSERT INTO t (v) VALUES ({v})"), &[])?;
                        Ok::<_, crate::Error>(())
                    })
                    .unwrap();
                assert!(e > last, "epochs must be strictly increasing: {e} after {last}");
                last = e;
            }
            db.sync_now().unwrap();
            assert_eq!(db.durable_epoch(), db.commit_epoch());
            assert_eq!(db.wal_stats().acked_not_durable_count(), 0);
            assert!(db.wal_stats().sync_count() < 16, "async commits must share syncs");
        } // crash
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0], Value::Int(16));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression for the idle-window fix: an isolated async commit must
    /// become durable within ~one `max_wait` collection window *with
    /// nobody prompting* — the watermark is polled passively, never
    /// waited on (`wait_for_epoch` would actively drain the queue and
    /// mask a flusher that sleeps out extra windows). If the flusher
    /// re-entered a window against an empty queue (or slept out a second
    /// window before exiting) this would take two.
    #[test]
    fn isolated_async_commit_durable_within_one_window() {
        let dir = tmpdir("async-lone");
        let max_wait = Duration::from_millis(300);
        let db = Database::open_durable_with(
            &dir,
            SyncPolicy::EveryWrite,
            Durability::Async { max_wait, max_batch: 64 },
        )
        .unwrap();
        db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
        let started = std::time::Instant::now();
        let ((), epoch) = db
            .transaction_in(&OpCtx::default(), &[("t", Access::Write)], |s| {
                s.execute("INSERT INTO t (v) VALUES (1)", &[])?;
                Ok::<_, crate::Error>(())
            })
            .unwrap();
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "async commit must ack without waiting for the flusher"
        );
        let deadline = started + max_wait + Duration::from_millis(250);
        while db.durable_epoch() < epoch {
            assert!(
                std::time::Instant::now() < deadline,
                "isolated commit not durable after {:?}; flusher slept past one \
                 {max_wait:?} window",
                started.elapsed()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Per-commit durability overrides: Always, Group and Async
    /// writers interleave on one table/queue and all survive reopen in
    /// order.
    #[test]
    fn mixed_durability_commits_share_the_queue() {
        let dir = tmpdir("mixed");
        {
            let db = Database::open_durable_with(&dir, SyncPolicy::EveryWrite, grouped()).unwrap();
            db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
            let modes = [
                Durability::Async { max_wait: Duration::from_millis(2), max_batch: 64 },
                Durability::Always,
                grouped(),
                Durability::Async { max_wait: Duration::from_millis(2), max_batch: 64 },
                Durability::Always,
            ];
            for (v, mode) in modes.iter().enumerate() {
                let ctx = OpCtx { durability: Some(*mode), ..OpCtx::default() };
                db.transaction_in(&ctx, &[("t", Access::Write)], |s| {
                    s.execute(&format!("INSERT INTO t (v) VALUES ({v})"), &[])?;
                    Ok::<_, crate::Error>(())
                })
                .unwrap();
            }
            // the override is per call: the db-wide policy is untouched
            assert_eq!(db.durability(), grouped());
            db.sync_now().unwrap();
            assert_eq!(db.wal_stats().acked_not_durable_count(), 0);
        }
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        let rs = db.query("SELECT v FROM t ORDER BY v", &[]).unwrap();
        assert_eq!(rs.rows.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `Group` committer that enqueues while the async flusher is
    /// sitting in a *long* collection window must not wait that window
    /// out: the flusher yields (breaks its window) the moment a parked
    /// synchronous committer appears in the queue.
    #[test]
    fn group_commit_is_not_held_hostage_by_flusher_window() {
        let dir = tmpdir("hostage");
        let huge = Duration::from_secs(600);
        let db = Database::open_durable_with(
            &dir,
            SyncPolicy::EveryWrite,
            Durability::Async { max_wait: huge, max_batch: 1024 },
        )
        .unwrap();
        db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
        // park the flusher in its (huge) window with one async group
        let ((), async_epoch) = db
            .transaction_in(&OpCtx::default(), &[("t", Access::Write)], |s| {
                s.execute("INSERT INTO t (v) VALUES (1)", &[])?;
                Ok::<_, crate::Error>(())
            })
            .unwrap();
        let started = std::time::Instant::now();
        let group = Durability::Group { max_wait: Duration::from_millis(50), max_batch: 8 };
        let ctx = OpCtx { durability: Some(group), ..OpCtx::default() };
        db.transaction_in(&ctx, &[("t", Access::Write)], |s| {
            s.execute("INSERT INTO t (v) VALUES (2)", &[])?;
            Ok::<_, crate::Error>(())
        })
        .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "Group commit waited out the flusher's {huge:?} window"
        );
        // the yield drained FIFO: the async group rode along and is durable
        assert!(db.durable_epoch() >= async_epoch);
        assert_eq!(db.wal_stats().acked_not_durable_count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `sync_now` (and checkpoint) must cut an active leader's collection
    /// window short rather than sleep it out: an explicit sync barrier
    /// completes in write+sync time.
    #[test]
    fn sync_now_cuts_the_collection_window() {
        let dir = tmpdir("cut");
        let huge = Duration::from_secs(600);
        let db = Database::open_durable_with(
            &dir,
            SyncPolicy::EveryWrite,
            Durability::Async { max_wait: huge, max_batch: 1024 },
        )
        .unwrap();
        db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
        db.transaction(&[("t", Access::Write)], |s| {
            s.execute("INSERT INTO t (v) VALUES (1)", &[])?;
            Ok::<_, crate::Error>(())
        })
        .unwrap();
        let started = std::time::Instant::now();
        db.sync_now().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "sync_now waited out the flusher's {huge:?} window"
        );
        assert_eq!(db.durable_epoch(), db.commit_epoch());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Concurrent `Always` commits, autocommit writes and transactions,
    /// each write their own group: one sync per commit, every write
    /// durable before it returns.
    #[test]
    fn always_commits_sync_once_each() {
        let dir = tmpdir("always");
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        for i in 0..4 {
            db.execute(&format!("CREATE TABLE t{i} (v INTEGER)"), &[]).unwrap();
        }
        let before = db.wal_stats().sync_count();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let t = format!("t{i}");
                    for v in 0..8 {
                        let epoch = if v % 2 == 0 {
                            let insert = db.prepare(&format!("INSERT INTO {t} (v) VALUES ({v})"));
                            db.execute_in(&OpCtx::default(), &insert.unwrap(), &[]).unwrap().1
                        } else {
                            let ctx = OpCtx::default();
                            db.transaction_in(&ctx, &[(t.as_str(), Access::Write)], |s| {
                                s.execute(&format!("INSERT INTO {t} (v) VALUES ({v})"), &[])?;
                                Ok::<_, crate::Error>(())
                            })
                            .unwrap()
                            .1
                        };
                        assert!(db.durable_epoch() >= epoch, "returned before its group's write");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(db.wal_stats().sync_count() - before, 32);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Many concurrent committers on disjoint tables share batches: the
    /// sync count stays well under the transaction count.
    #[test]
    fn concurrent_commits_share_syncs() {
        let dir = tmpdir("share");
        let db = Database::open_durable_with(
            &dir,
            SyncPolicy::EveryWrite,
            Durability::Group { max_wait: Duration::from_millis(10), max_batch: 4 },
        )
        .unwrap();
        for i in 0..4 {
            db.execute(&format!("CREATE TABLE t{i} (v INTEGER)"), &[]).unwrap();
        }
        let before = db.wal_stats().sync_count();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let t = format!("t{i}");
                    for v in 0..8 {
                        db.transaction(&[(t.as_str(), Access::Write)], |s| {
                            s.execute(&format!("INSERT INTO t{i} (v) VALUES ({v})"), &[])?;
                            Ok::<_, crate::Error>(())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let syncs = db.wal_stats().sync_count() - before;
        assert!(syncs < 32, "32 transactions must share syncs, got {syncs}");
        for i in 0..4 {
            let n = db.query(&format!("SELECT COUNT(*) FROM t{i}"), &[]).unwrap().rows[0][0]
                .clone();
            assert_eq!(n, Value::Int(8));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
