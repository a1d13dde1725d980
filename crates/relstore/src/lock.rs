//! Transaction-scope table barriers.
//!
//! The table `RwLock`s in [`crate::db`] are statement-scoped: the executor
//! takes them per statement, so a multi-statement transaction's in-flight
//! writes would be visible between its statements. Barriers add the missing
//! transaction-scope layer *above* those locks. How much of it a database
//! uses depends on its engine:
//!
//! **Barrier engine** (the default) — barriers are the only isolation
//! mechanism, on reads and writes alike:
//!
//! * A transaction acquires the barriers of every table it declared, in one
//!   global order (sorted lowercase name) — exclusive for tables it writes,
//!   shared for tables it only reads. It holds them until commit/rollback,
//!   so no other statement can observe its intermediate state and its reads
//!   are stable.
//! * Every SELECT executed *outside* a transaction acquires the shared
//!   barrier of each table it references (again in sorted order) for the
//!   statement's duration, which is what makes in-flight transactions
//!   invisible to it. A write statement outside a transaction is a
//!   one-statement transaction: it acquires its tables' barriers
//!   exclusively, in the same order, until it has committed.
//!
//! **MVCC engine** ([`crate::Database::new_mvcc`]; see [`crate::mvcc`] and
//! DESIGN.md §7.5) — readers are isolated by snapshot, not by barrier, so
//! only the writer-vs-writer half of the above remains:
//!
//! * SELECT statements and pure-read transactions acquire **no** barrier at
//!   all; they pin a snapshot epoch and visibility-filter version chains.
//! * A transaction with any `Write` claim upgrades every claim to
//!   exclusive, and a write statement outside a transaction claims its
//!   tables exclusively — barriers still serialize writers against each
//!   other (and against checkpoint quiesce), which keeps commit stamping
//!   single-writer per table.
//!
//! Shared acquisition common to both engines:
//!
//! * Shared acquisition is re-entrant per thread: a SELECT running inside
//!   a transaction's closure skips barriers its transaction already
//!   holds. That lets catalog code issue reads through the plain
//!   [`crate::Database`] handle mid-transaction without self-deadlock. A
//!   claim on a table the thread already holds fails instead, with
//!   [`crate::Error::TxnState`].
//!
//! Deadlock freedom: every acquisition sequence (transaction begin,
//!   per-statement set, checkpoint quiesce) follows the same global
//!   sort order, and blocked acquirers only ever wait on tables strictly
//!   greater than every table they hold, so the wait-for graph cannot
//!   cycle. Writers get priority over new shared acquirers so a stream of
//!   readers cannot starve a transaction.
//!
//! Lock hierarchy (acquire strictly downward): barrier → WAL mutex → table
//! `RwLock`.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, ThreadId};

use crate::error::{Error, Result};

/// Access mode a transaction declares for one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The transaction only reads the table; concurrent readers and other
    /// `Read`-mode transactions are allowed.
    Read,
    /// The transaction writes the table; all other access is excluded for
    /// the transaction's duration.
    Write,
}

#[derive(Debug, Default)]
struct BarrierState {
    /// Statement-scoped shared holders (not tracked per thread).
    readers: usize,
    /// The thread holding this barrier exclusively, if any.
    writer: Option<ThreadId>,
    /// Writers blocked in `acquire_exclusive` (gives writers priority).
    writers_waiting: usize,
    /// Shared acquirers blocked behind a writer. Together with
    /// `writers_waiting` this lets releases skip the condvar notify when
    /// nobody is waiting — the overwhelmingly common uncontended case.
    shared_waiting: usize,
    /// Threads holding this barrier in transaction-shared mode. Small
    /// (bounded by concurrent transactions), so a Vec beats a set.
    txn_readers: Vec<ThreadId>,
}

impl BarrierState {
    fn has_waiters(&self) -> bool {
        self.writers_waiting > 0 || self.shared_waiting > 0
    }
}

/// One table's transaction barrier.
#[derive(Debug, Default)]
pub(crate) struct TableBarrier {
    state: Mutex<BarrierState>,
    changed: Condvar,
}

impl TableBarrier {
    fn lock(&self) -> std::sync::MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// True if the calling thread already holds this barrier (either
    /// exclusively or in transaction-shared mode).
    fn held_by_current_thread(state: &BarrierState) -> bool {
        let me = thread::current().id();
        state.writer == Some(me) || state.txn_readers.contains(&me)
    }

    /// Statement-scoped shared acquire. Returns `true` if actually
    /// acquired, `false` if the thread's transaction already holds the
    /// barrier (re-entrant no-op; pass the result to [`release_shared`]).
    fn acquire_shared(&self) -> bool {
        let mut state = self.lock();
        if Self::held_by_current_thread(&state) {
            return false;
        }
        // Writer priority: don't overtake a waiting transaction.
        while state.writer.is_some() || state.writers_waiting > 0 {
            state.shared_waiting += 1;
            state = self.changed.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
            state.shared_waiting -= 1;
            // Re-check re-entrancy: the wait may have raced a transaction
            // this same thread... cannot happen (a thread can't start a
            // transaction while blocked here), but the check is cheap.
            if Self::held_by_current_thread(&state) {
                return false;
            }
        }
        state.readers += 1;
        true
    }

    fn release_shared(&self, acquired: bool) {
        if !acquired {
            return;
        }
        let mut state = self.lock();
        debug_assert!(state.readers > 0);
        state.readers -= 1;
        if state.readers == 0 && state.has_waiters() {
            drop(state);
            self.changed.notify_all();
        }
    }

    /// Transaction-scoped shared acquire (registers the owning thread for
    /// re-entrancy).
    fn acquire_txn_shared(&self) -> Result<()> {
        let me = thread::current().id();
        let mut state = self.lock();
        if state.writer == Some(me) || state.txn_readers.contains(&me) {
            return Err(Error::TxnState(
                "nested transaction: table already claimed by this thread".into(),
            ));
        }
        while state.writer.is_some() || state.writers_waiting > 0 {
            state.shared_waiting += 1;
            state = self.changed.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
            state.shared_waiting -= 1;
        }
        state.txn_readers.push(me);
        Ok(())
    }

    fn release_txn_shared(&self) {
        let me = thread::current().id();
        let mut state = self.lock();
        if let Some(i) = state.txn_readers.iter().position(|t| *t == me) {
            state.txn_readers.swap_remove(i);
        }
        if state.has_waiters() {
            drop(state);
            self.changed.notify_all();
        }
    }

    /// Transaction-scoped exclusive acquire.
    fn acquire_exclusive(&self) -> Result<()> {
        let me = thread::current().id();
        let mut state = self.lock();
        if state.writer == Some(me) || state.txn_readers.contains(&me) {
            return Err(Error::TxnState(
                "nested transaction: table already claimed by this thread".into(),
            ));
        }
        state.writers_waiting += 1;
        while state.writer.is_some() || state.readers > 0 || !state.txn_readers.is_empty() {
            state = self.changed.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        state.writers_waiting -= 1;
        state.writer = Some(me);
        Ok(())
    }

    fn release_exclusive(&self) {
        let mut state = self.lock();
        debug_assert_eq!(state.writer, Some(thread::current().id()));
        state.writer = None;
        if state.has_waiters() {
            drop(state);
            self.changed.notify_all();
        }
    }
}

/// The per-database barrier registry: one barrier per table name, created
/// on first use and kept for the database's lifetime (tables are never
/// dropped on hot paths). Read-locked on the hit path so concurrent
/// statements don't serialize on the lookup.
#[derive(Debug, Default)]
pub(crate) struct BarrierMap {
    barriers: parking_lot::RwLock<BTreeMap<String, Arc<TableBarrier>>>,
}

impl BarrierMap {
    /// `table` must already be lowercased (every caller derives it from
    /// `Database::stmt_tables` or transaction-claim normalization).
    fn get(&self, table: &str) -> Arc<TableBarrier> {
        debug_assert!(!table.bytes().any(|b| b.is_ascii_uppercase()), "barrier key not lowercase");
        if let Some(b) = self.barriers.read().get(table) {
            return Arc::clone(b);
        }
        Arc::clone(self.barriers.write().entry(table.to_owned()).or_default())
    }

    /// Shared-acquire the barriers for `tables` (pre-sorted, deduped) for
    /// one statement. The returned guard releases on drop.
    pub(crate) fn statement_guard(&self, tables: &[impl AsRef<str>]) -> StatementGuard {
        let mut held = Vec::with_capacity(tables.len());
        for t in tables {
            let b = self.get(t.as_ref());
            let acquired = b.acquire_shared();
            held.push((b, acquired));
        }
        StatementGuard { held }
    }

    /// Acquire transaction barriers for `claims` (pre-sorted by name,
    /// deduped). On any error, everything already acquired is released.
    pub(crate) fn transaction_guard(
        &self,
        claims: &[(impl AsRef<str>, Access)],
    ) -> Result<TransactionGuard> {
        let mut guard = TransactionGuard { held: Vec::with_capacity(claims.len()) };
        for (name, access) in claims {
            let b = self.get(name.as_ref());
            match access {
                Access::Write => b.acquire_exclusive()?,
                Access::Read => b.acquire_txn_shared()?,
            }
            // pushed only after success: Drop releases exactly what is held
            guard.held.push((b, *access));
        }
        Ok(guard)
    }

    /// Exclusive-acquire every table's barrier (checkpoint quiesce):
    /// waits out all in-flight statements and transactions.
    pub(crate) fn quiesce_guard(&self, tables: &[String]) -> Result<TransactionGuard> {
        let claims: Vec<(String, Access)> =
            tables.iter().map(|t| (t.to_ascii_lowercase(), Access::Write)).collect();
        self.transaction_guard(&claims)
    }
}

/// Statement-scoped shared holds; released on drop.
pub(crate) struct StatementGuard {
    held: Vec<(Arc<TableBarrier>, bool)>,
}

impl Drop for StatementGuard {
    fn drop(&mut self) {
        // reverse of acquisition order
        for (b, acquired) in self.held.drain(..).rev() {
            b.release_shared(acquired);
        }
    }
}

/// Transaction-scoped holds; released on drop (commit, rollback, or panic).
pub(crate) struct TransactionGuard {
    held: Vec<(Arc<TableBarrier>, Access)>,
}

impl Drop for TransactionGuard {
    fn drop(&mut self) {
        for (b, access) in self.held.drain(..).rev() {
            match access {
                Access::Write => b.release_exclusive(),
                Access::Read => b.release_txn_shared(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn shared_is_concurrent() {
        let b = TableBarrier::default();
        assert!(b.acquire_shared());
        assert!(b.acquire_shared());
        b.release_shared(true);
        b.release_shared(true);
    }

    #[test]
    fn exclusive_excludes_shared() {
        let map = Arc::new(BarrierMap::default());
        let claims = vec![("t".to_string(), Access::Write)];
        let guard = map.transaction_guard(&claims).unwrap();
        let map2 = Arc::clone(&map);
        let entered = Arc::new(AtomicUsize::new(0));
        let entered2 = Arc::clone(&entered);
        let h = std::thread::spawn(move || {
            let _g = map2.statement_guard(&["t".to_string()]);
            entered2.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(entered.load(Ordering::SeqCst), 0, "reader must wait for the txn");
        drop(guard);
        h.join().unwrap();
        assert_eq!(entered.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn reentrant_for_owner_thread() {
        let map = BarrierMap::default();
        let claims =
            vec![("a".to_string(), Access::Write), ("b".to_string(), Access::Read)];
        let _txn = map.transaction_guard(&claims).unwrap();
        // same thread's statement on the claimed tables must not block
        let _stmt = map.statement_guard(&["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn nested_claim_is_rejected() {
        let map = BarrierMap::default();
        let claims = vec![("t".to_string(), Access::Write)];
        let _txn = map.transaction_guard(&claims).unwrap();
        assert!(map.transaction_guard(&claims).is_err());
        let read_claims = vec![("t".to_string(), Access::Read)];
        assert!(map.transaction_guard(&read_claims).is_err());
    }

    #[test]
    fn txn_shared_admits_other_txn_readers() {
        let map = Arc::new(BarrierMap::default());
        let claims = vec![("t".to_string(), Access::Read)];
        let _g1 = map.transaction_guard(&claims).unwrap();
        let map2 = Arc::clone(&map);
        std::thread::spawn(move || {
            let claims = vec![("t".to_string(), Access::Read)];
            let _g2 = map2.transaction_guard(&claims).unwrap();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn sorted_multi_table_txns_do_not_deadlock() {
        let map = Arc::new(BarrierMap::default());
        let names: Vec<String> = (0..4).map(|i| format!("t{i}")).collect();
        let mut handles = Vec::new();
        for offset in 0..8 {
            let map = Arc::clone(&map);
            let names = names.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..50 {
                    // every subset, always claimed in sorted order
                    let mut claims: Vec<(String, Access)> = names
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| (round + offset + i) % 2 == 0)
                        .map(|(i, n)| {
                            (
                                n.clone(),
                                if (offset + i) % 3 == 0 { Access::Read } else { Access::Write },
                            )
                        })
                        .collect();
                    claims.sort_by(|a, b| a.0.cmp(&b.0));
                    let _g = map.transaction_guard(&claims).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
