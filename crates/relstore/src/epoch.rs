//! Commit epochs and the durable-epoch watermark backing
//! [`Durability::Async`](crate::db::Durability::Async).
//!
//! Every unit that enters the write-ahead log — an autocommit write or a
//! transaction, under any [`Durability`](crate::db::Durability) — is
//! assigned a **commit epoch** from a single per-database counter at the
//! moment its log position becomes fixed: as its group is enqueued, under
//! the commit-queue lock. The queue is FIFO and its leaders write it in
//! order, so **epoch order equals log order**: if `e1 < e2` then `e1`'s
//! bytes precede `e2`'s in the log, and recovery can never replay `e2`
//! without `e1`.
//!
//! The [`EpochGate`] publishes the **durable epoch**: the largest epoch
//! whose bytes have been flushed (and, under
//! [`SyncPolicy::EveryWrite`](crate::wal::SyncPolicy::EveryWrite), synced)
//! to the log. An `Async` commit returns its epoch immediately;
//! [`Database::wait_for_epoch`] parks until the watermark passes it. The
//! watermark is monotone (publication takes the max) and advances only on
//! successful appends; when the WAL writer poisons itself the gate is
//! *failed* instead, so waiters return [`Error::DurabilityLost`] promptly
//! rather than hanging forever. `checkpoint()` clears a failure: the
//! snapshot it writes captures every allocated epoch's effects, which
//! makes all of them durable at once (see DESIGN.md §7.2).

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::db::Database;
use crate::error::{Error, Result};

/// Publishes the durable-epoch watermark and wakes waiters. One per
/// [`Database`]; a leaf lock (acquired after the WAL mutex and the
/// commit-queue lock, never before them).
#[derive(Debug, Default)]
pub(crate) struct EpochGate {
    state: Mutex<GateState>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    /// Largest epoch known durable. Never decreases.
    durable: u64,
    /// Set when a WAL append/flush/sync failed after commits with epochs
    /// above `durable` were acknowledged: those epochs can no longer
    /// become durable through the log. Cleared by [`EpochGate::recover`]
    /// (checkpoint). The message describes the original failure.
    failed: Option<String>,
}

impl EpochGate {
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Raise the watermark to at least `epoch` (monotone max) and wake
    /// waiters. Called after a successful append+flush covering `epoch`.
    pub(crate) fn publish(&self, epoch: u64) {
        let mut st = self.lock();
        if epoch > st.durable {
            st.durable = epoch;
            self.cond.notify_all();
        }
    }

    /// Record a WAL failure: epochs above the current watermark will never
    /// become durable through the log. Wakes waiters so they can fail.
    pub(crate) fn fail(&self, msg: &str) {
        let mut st = self.lock();
        if st.failed.is_none() {
            st.failed = Some(msg.to_owned());
        }
        self.cond.notify_all();
    }

    /// Checkpoint recovery: the snapshot captured every effect up to
    /// `epoch`, so everything allocated so far is durable and any earlier
    /// failure is moot. Monotone like `publish`.
    pub(crate) fn recover(&self, epoch: u64) {
        let mut st = self.lock();
        st.durable = st.durable.max(epoch);
        st.failed = None;
        self.cond.notify_all();
    }

    /// The failure that stopped the log, if any (cleared by checkpoint).
    pub(crate) fn failure(&self) -> Option<String> {
        self.lock().failed.clone()
    }

    /// Current watermark.
    pub(crate) fn durable(&self) -> u64 {
        self.lock().durable
    }

    /// Park until the watermark reaches `epoch`, or fail fast with
    /// [`Error::DurabilityLost`] if the gate failed first.
    pub(crate) fn wait_for(&self, epoch: u64) -> Result<()> {
        let mut st = self.lock();
        loop {
            if st.durable >= epoch {
                return Ok(());
            }
            if let Some(msg) = &st.failed {
                return Err(Error::DurabilityLost(msg.clone()));
            }
            st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Database {
    /// The most recently allocated commit epoch (0 before the first logged
    /// write). Epochs are allocated in log order, so everything the
    /// database has acknowledged so far has an epoch `<=` this value.
    pub fn commit_epoch(&self) -> u64 {
        self.commit_epochs().load(std::sync::atomic::Ordering::Acquire)
    }

    /// The durable-epoch watermark: the largest epoch whose WAL bytes have
    /// been flushed to the log (and synced, under
    /// [`SyncPolicy::EveryWrite`](crate::wal::SyncPolicy::EveryWrite)).
    /// Monotone; never exceeds [`Database::commit_epoch`].
    pub fn durable_epoch(&self) -> u64 {
        self.epoch_gate().durable()
    }

    /// Block until `durable_epoch() >= epoch`. Returns immediately for
    /// epochs already durable (including `0`); otherwise it *drives* the
    /// flush rather than waiting for the flusher's next window — it
    /// registers as a sync waiter (cutting any leader's collection window
    /// short) and drains the queue, so the wait costs write+sync time even
    /// when `max_wait` is tuned long. Errors:
    ///
    /// * [`Error::DurabilityLost`] if the WAL writer failed (poisoned)
    ///   while the epoch was still pending — the promise cannot be kept
    ///   through the log. `checkpoint()` clears the condition (and makes
    ///   every allocated epoch durable via the snapshot), after which this
    ///   returns `Ok`.
    /// * [`Error::TxnState`] if `epoch` was never allocated (it is greater
    ///   than [`Database::commit_epoch`]) — waiting for it would hang
    ///   forever; this guards network callers passing stale numbers.
    ///
    /// No-op on a non-durable database: an in-memory MVCC database
    /// allocates epochs for visibility, but no log will ever make them
    /// durable, so there is nothing to wait for.
    pub fn wait_for_epoch(&self, epoch: u64) -> Result<()> {
        if epoch > self.commit_epoch() {
            return Err(Error::TxnState(format!(
                "epoch {epoch} has not been allocated (latest is {})",
                self.commit_epoch()
            )));
        }
        if !self.is_durable() {
            return Ok(());
        }
        if self.epoch_gate().durable() < epoch {
            // The epoch's group may still be queued behind a leader sitting
            // in a long collection window; drain instead of sleeping it
            // out. (FIFO: draining everything pending covers `epoch`.)
            self.flush_commit_queue()?;
        }
        self.epoch_gate().wait_for(epoch)
    }

    /// Synchronously make every acknowledged commit durable: drain the
    /// commit queue, force a physical flush+sync of the log (regardless of
    /// [`SyncPolicy`](crate::wal::SyncPolicy)), and wait for the watermark
    /// to cover everything allocated before the call. The client-side
    /// "final barrier" of an asynchronous bulk load. No-op on a
    /// non-durable database.
    pub fn sync_now(&self) -> Result<()> {
        if !self.is_durable() {
            return Ok(());
        }
        let target = self.commit_epoch();
        self.flush_commit_queue()?;
        {
            let mut wal = self.wal_lock();
            if let Some(w) = wal.as_mut() {
                if let Err(e) = w.force_sync() {
                    self.epoch_gate().fail(&e.to_string());
                    return Err(e);
                }
            }
        }
        self.wait_for_epoch(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_is_monotone() {
        let g = EpochGate::default();
        g.publish(5);
        g.publish(3); // stale publication from a slower leader
        assert_eq!(g.durable(), 5);
        g.publish(9);
        assert_eq!(g.durable(), 9);
    }

    #[test]
    fn wait_returns_for_already_durable_epochs() {
        let g = EpochGate::default();
        g.publish(4);
        g.wait_for(0).unwrap();
        g.wait_for(4).unwrap();
    }

    #[test]
    fn fail_wakes_waiters_with_durability_lost() {
        use std::sync::Arc;
        let g = Arc::new(EpochGate::default());
        g.publish(2);
        let waiter = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || g.wait_for(3))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        g.fail("disk full");
        let r = waiter.join().unwrap();
        assert!(matches!(r, Err(Error::DurabilityLost(_))), "{r:?}");
        // epochs at or below the watermark are still fine
        g.wait_for(2).unwrap();
    }

    /// An in-memory MVCC database allocates commit epochs that no log
    /// publishes; waiting on one used to park the caller forever.
    #[test]
    fn in_memory_mvcc_wait_returns() {
        let db = std::sync::Arc::new(Database::new_mvcc());
        db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
        db.execute("INSERT INTO t (v) VALUES (1)", &[]).unwrap();
        let epoch = db.commit_epoch();
        assert!(epoch > 0, "MVCC commits allocate epochs");
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::sync::Arc::clone(&db);
        std::thread::spawn(move || tx.send(waiter.wait_for_epoch(epoch)));
        let r = rx.recv_timeout(std::time::Duration::from_secs(10)).expect("wait_for_epoch hung");
        r.unwrap();
        db.sync_now().unwrap();
    }

    #[test]
    fn recover_clears_failure_and_raises_watermark() {
        let g = EpochGate::default();
        g.publish(1);
        g.fail("boom");
        assert!(g.wait_for(2).is_err());
        g.recover(7);
        g.wait_for(7).unwrap();
        assert_eq!(g.durable(), 7);
    }
}
