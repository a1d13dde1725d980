//! The database object: a named collection of tables, SQL entry points,
//! prepared statements, and sessions with transaction support.
//!
//! A request's scope reaches the engine as a value, [`OpCtx`]: a commit
//! takes its durability override from it and returns its own epoch
//! ([`Database::transaction_in`], [`Database::execute_in`]), and a read
//! takes its MVCC snapshot as a pinned [`SnapshotPin`], never as a bare
//! epoch ([`snapshot_row`], [`Database::read_table`]).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::error::{Error, Result};
use crate::executor::{exec_statement, ExecResult, ResultSet};
use crate::lock::{Access, BarrierMap, TransactionGuard};
use crate::mvcc::{MvccState, SnapshotPin};
use crate::row::{Row, RowId};
use crate::sql::ast::Statement;
use crate::sql::parser::parse;
use crate::table::Table;
use crate::txn::UndoLog;
use crate::value::Value;

/// When a commit's WAL group must reach the log — the one durability
/// knob of every write, autocommit statement or transaction.
///
/// Every commit enqueues its group on the commit queue
/// ([`crate::group_commit`]); the policies differ in when the committer
/// returns and how many commits share one write. Whether that write is
/// also synced is [`crate::wal::SyncPolicy`]'s business.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// The committer writes its own group — leading a batch of one, or
    /// waiting for the leader whose batch holds it — *before* releasing
    /// its table barriers, so nobody can read the commit before it is in
    /// the log. One write (and under `EveryWrite` one sync) per commit.
    /// It cuts any collection window short, as [`Database::sync_now`]
    /// does.
    Always,
    /// The committer releases its barriers once its group is enqueued,
    /// then parks until a batch leader has written it: a leader batches
    /// up to `max_batch` concurrent commits, waiting at most `max_wait`
    /// for the batch to fill, and syncs once for all of them. `max_wait`
    /// bounds added commit latency; `max_batch` bounds the torn tail a
    /// crash can discard (each group is still atomic on its own).
    Group {
        /// How long a leader waits for more commits to join its batch.
        max_wait: Duration,
        /// Most groups written (and synced) as one physical write.
        max_batch: usize,
    },
    /// Commits enqueue their WAL group exactly as under
    /// [`Durability::Group`] but return **immediately** with a commit
    /// epoch instead of parking; a background flusher (reusing the
    /// group-commit leader path) appends and syncs batches and publishes
    /// the durable-epoch watermark. The committer learns its epoch from
    /// [`Database::transaction_in`] or [`Database::execute_in`] and can
    /// turn the weak ack into a durable one with
    /// [`Database::wait_for_epoch`] or [`Database::sync_now`] — the
    /// paper's bulk-load clients batch thousands of adds and only need
    /// one final barrier. What "acked" does and does not promise is
    /// specified in DESIGN.md §7.2.
    Async {
        /// How long the flusher waits for more commits to join a batch
        /// (this bounds the durability lag of an isolated commit).
        max_wait: Duration,
        /// Most groups written (and synced) as one physical write.
        max_batch: usize,
    },
}

impl Default for Durability {
    fn default() -> Self {
        Durability::Always
    }
}

/// An in-memory relational database.
///
/// Tables are individually reader-writer locked (MyISAM-style table-level
/// locking, matching the MySQL 4.1 backend of the original MCS): many
/// concurrent readers, one writer per table.
#[derive(Debug, Default)]
pub struct Database {
    tables: RwLock<BTreeMap<String, Arc<RwLock<Table>>>>,
    /// Write-ahead log, when the database was opened durably. Only the
    /// commit-queue leader appends through it (checkpoint replaces it), so
    /// log order is the queue's FIFO order.
    wal: Mutex<Option<crate::wal::WalWriter>>,
    /// This database, for the async flusher thread; set when the log is
    /// attached.
    this: std::sync::OnceLock<std::sync::Weak<Database>>,
    durable_dir: RwLock<Option<PathBuf>>,
    /// Transaction-scope barriers layered above the per-table `RwLock`s;
    /// see [`crate::lock`].
    barriers: BarrierMap,
    /// Commit-group id allocator (journalled in Begin/Commit WAL frames).
    next_txn_id: AtomicU64,
    /// Cached "is a WAL attached" flag so hot paths skip the WAL mutex.
    durable: AtomicBool,
    /// Commit durability policy; see [`Durability`].
    durability: RwLock<Durability>,
    /// Sync/batch counters shared with the WAL writer (survives the
    /// writer being recreated at checkpoint).
    wal_stats: Arc<crate::wal::WalStats>,
    /// Leader/follower queue backing [`Durability::Group`] and
    /// [`Durability::Async`].
    group_queue: crate::group_commit::GroupCommitQueue,
    /// Commit-epoch allocator; see [`crate::epoch`]. Incremented at the
    /// moment a logged unit's position in the WAL becomes fixed, so epoch
    /// order equals log order.
    commit_epochs: AtomicU64,
    /// Durable-epoch watermark + waiters; see [`crate::epoch`].
    epoch_gate: crate::epoch::EpochGate,
    /// Per-table write versions (keyed by lowercased name): a monotonic
    /// counter bumped after every applied write while the writer's barrier
    /// is still held, so a reader can take a consistency token for a table
    /// set without touching row data. Counters survive DROP TABLE — a
    /// recreated table keeps counting up, which keeps stale cache entries
    /// stale. See DESIGN.md §7.3 for the cache-consistency contract.
    versions: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    /// MVCC snapshot reads enabled ([`Database::new_mvcc`]). Off by
    /// default: the barrier engine is unchanged so the two can be twinned.
    /// See [`crate::mvcc`] and DESIGN.md §7.5.
    mvcc: bool,
    /// Visibility watermark + snapshot-pin registry (MVCC engine only).
    mvcc_state: Arc<MvccState>,
    /// Set once the background vacuum thread has been spawned.
    vacuum_running: AtomicBool,
}

/// One request's scope, carried as a value from the wire front ends
/// down to the storage engine (DESIGN.md §7.9). The engine reads the
/// durability override and the snapshot; the catalog layer above it
/// reads the two bypass flags.
#[derive(Debug, Clone, Default)]
pub struct OpCtx {
    /// The commit policy of every commit made in this scope, overriding
    /// the database-wide [`Database::durability`].
    pub durability: Option<Durability>,
    /// Run every catalog read on the uncached path.
    pub cache_bypass: bool,
    /// Evaluate attribute queries without the cost-based planner.
    pub planner_bypass: bool,
    /// The snapshot MVCC reads in this scope filter against; `None`
    /// pins one per statement or table read. Only a live pin can be
    /// given, so no read runs at an epoch vacuum may already reclaim.
    pub snapshot: Option<SnapshotPin>,
}

/// Fetch a row as a read at `at` sees it: the version visible to that
/// snapshot when the table keeps version chains, the latest image
/// otherwise. The raw-read path for layers (the MCS query paths) that
/// scan table handles directly instead of going through SQL.
pub fn snapshot_row<'t>(t: &'t Table, id: RowId, at: Option<&SnapshotPin>) -> Option<&'t Row> {
    match at {
        Some(pin) if t.is_mvcc() => t.get_visible(id, pin.epoch()),
        _ => t.get(id),
    }
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Create an empty database with MVCC snapshot reads: readers pin a
    /// snapshot epoch and traverse version chains instead of taking table
    /// barriers; exclusive barriers remain writer-vs-writer only. See
    /// [`crate::mvcc`] and DESIGN.md §7.5.
    pub fn new_mvcc() -> Database {
        Database { mvcc: true, ..Database::default() }
    }

    /// True if this database serves reads from MVCC snapshots.
    pub fn is_mvcc(&self) -> bool {
        self.mvcc
    }

    /// The current visibility watermark (0 on barrier-engine databases):
    /// the epoch a snapshot pinned right now would read at.
    pub fn visible_epoch(&self) -> u64 {
        self.mvcc_state.visible()
    }

    /// Pin a snapshot at the current watermark, holding the vacuum horizon
    /// until the pin drops. `None` on barrier-engine databases. Readers
    /// that make several reads at one cut (a catalog query, a sharded
    /// scatter-gather) pin once and pass the pin to each read.
    pub fn pin_snapshot(&self) -> Option<SnapshotPin> {
        self.mvcc.then(|| SnapshotPin::new(Arc::clone(&self.mvcc_state)))
    }

    /// Read table `name` directly, isolated the way one SELECT on it is:
    /// under MVCC at snapshot `at` (pinning one for the call when `at` is
    /// `None`), on the barrier engine under the table's shared statement
    /// barrier, so an in-flight transaction's writes stay invisible. `f`
    /// runs under the table's read lock and is handed the snapshot to
    /// read rows at via [`snapshot_row`].
    pub fn read_table<R>(
        &self,
        at: Option<&SnapshotPin>,
        name: &str,
        f: impl FnOnce(&Table, Option<&SnapshotPin>) -> R,
    ) -> Result<R> {
        let handle = self.table(name)?;
        let _barrier =
            (!self.mvcc).then(|| self.barriers.statement_guard(&[lowercase(name)]));
        let own = if at.is_none() { self.pin_snapshot() } else { None };
        let t = handle.read();
        Ok(f(&t, at.or(own.as_ref())))
    }

    /// Stamp this thread's pending row versions in `tables` with `epoch`,
    /// then publish it to the visibility watermark. The stamp-then-publish
    /// order is what makes a snapshot a consistent cut: once a reader pins
    /// `S`, every row stamp of every epoch `<= S` is already in place.
    pub(crate) fn mvcc_commit(&self, tables: &[String], epoch: u64) {
        for name in tables {
            if let Ok(t) = self.table(name) {
                t.write().stamp_pending(epoch);
            }
        }
        self.mvcc_state.publish(epoch);
    }

    /// Allocate a commit epoch for a write that does not go through the
    /// WAL epoch allocator (non-durable MVCC commits).
    pub(crate) fn alloc_local_epoch(&self) -> u64 {
        self.commit_epochs.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Reclaim row versions older than the oldest pinned snapshot (and the
    /// index entries only they needed). Returns the number of versions
    /// dropped. No-op on barrier-engine databases.
    pub fn vacuum(&self) -> u64 {
        if !self.mvcc {
            return 0;
        }
        let horizon = self.mvcc_state.horizon();
        let handles: Vec<Arc<RwLock<Table>>> = self.tables.read().values().cloned().collect();
        let mut reclaimed = 0u64;
        for h in handles {
            reclaimed += h.write().vacuum(horizon);
        }
        self.wal_stats.vacuum_runs.fetch_add(1, Ordering::Relaxed);
        self.wal_stats.versions_vacuumed.fetch_add(reclaimed, Ordering::Relaxed);
        reclaimed
    }

    /// Spawn the background vacuum thread (idempotent; exits when the
    /// database is dropped). No-op on barrier-engine databases.
    pub fn start_vacuum(self: &Arc<Self>, interval: Duration) {
        if !self.mvcc || self.vacuum_running.swap(true, Ordering::AcqRel) {
            return;
        }
        let weak = Arc::downgrade(self);
        std::thread::Builder::new()
            .name("relstore-vacuum".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                let Some(db) = weak.upgrade() else { return };
                db.vacuum();
            })
            .expect("spawn vacuum thread");
    }

    /// Register a programmatically-built table.
    pub fn add_table(&self, table: Table) -> Result<()> {
        let mut table = table;
        if self.mvcc {
            table.set_mvcc(self.wal_stats_arc());
        }
        let key = table.schema.name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(Error::TableExists(table.schema.name.clone()));
        }
        tables.insert(key.clone(), Arc::new(RwLock::new(table)));
        drop(tables);
        self.version_counter(&key).fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Handle to a table by name (case-insensitive).
    pub fn table(&self, name: &str) -> Result<Arc<RwLock<Table>>> {
        self.tables
            .read()
            .get(lowercase(name).as_ref())
            .cloned()
            .ok_or_else(|| Error::NoSuchTable(name.to_owned()))
    }

    /// Remove a table.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        self.tables
            .write()
            .remove(&key)
            .map(drop)
            .ok_or_else(|| Error::NoSuchTable(name.to_owned()))?;
        self.version_counter(&key).fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().values().map(|t| t.read().schema.name.clone()).collect()
    }

    pub(crate) fn attach_wal(self: &Arc<Self>, writer: crate::wal::WalWriter, dir: PathBuf) {
        let _ = self.this.set(Arc::downgrade(self));
        *self.wal.lock() = Some(writer);
        *self.durable_dir.write() = Some(dir);
        self.durable.store(true, Ordering::Release);
    }

    pub(crate) fn durable_dir(&self) -> Option<PathBuf> {
        self.durable_dir.read().clone()
    }

    /// True once a write-ahead log is attached.
    pub fn is_durable(&self) -> bool {
        self.durable.load(Ordering::Acquire)
    }

    /// The commit durability policy in effect.
    pub fn durability(&self) -> Durability {
        *self.durability.read()
    }

    /// Change the commit durability policy. Takes effect for the next
    /// commit; in-flight group commits complete under the old policy.
    pub fn set_durability(&self, d: Durability) {
        *self.durability.write() = d;
    }

    pub(crate) fn commit_epochs(&self) -> &AtomicU64 {
        &self.commit_epochs
    }

    pub(crate) fn epoch_gate(&self) -> &crate::epoch::EpochGate {
        &self.epoch_gate
    }

    /// WAL sync/batch counters (test and benchmark hook).
    pub fn wal_stats(&self) -> &crate::wal::WalStats {
        &self.wal_stats
    }

    pub(crate) fn wal_stats_arc(&self) -> Arc<crate::wal::WalStats> {
        Arc::clone(&self.wal_stats)
    }

    pub(crate) fn commit_queue(&self) -> &crate::group_commit::GroupCommitQueue {
        &self.group_queue
    }

    /// A weak handle of this database (dangling until a log is attached).
    pub(crate) fn weak(&self) -> std::sync::Weak<Database> {
        self.this.get().cloned().unwrap_or_default()
    }

    pub(crate) fn barriers(&self) -> &BarrierMap {
        &self.barriers
    }

    /// The write-version counter for `key` (already lowercased),
    /// get-or-create.
    fn version_counter(&self, key: &str) -> Arc<AtomicU64> {
        if let Some(c) = self.versions.read().get(key) {
            return Arc::clone(c);
        }
        let mut map = self.versions.write();
        Arc::clone(map.entry(key.to_owned()).or_default())
    }

    /// The current write version of a table (case-insensitive). Starts at
    /// 0 and increases monotonically with every applied write (including
    /// rollbacks, which also mutate the table); never decreases. Tables
    /// that were never written — including ones that don't exist — report
    /// version 0.
    pub fn table_version(&self, name: &str) -> u64 {
        self.version_counter(&lowercase(name)).load(Ordering::Acquire)
    }

    /// Snapshot the write versions of several tables at once (the
    /// consistency token a cache stamps its entries with). Names are
    /// case-insensitive; the result is in argument order. The snapshot is
    /// not atomic across tables — that is fine for validation by equality,
    /// because any write between the two component loads bumps its
    /// counter and makes the vectors unequal.
    pub fn version_vector(&self, names: &[&str]) -> Vec<u64> {
        names.iter().map(|n| self.table_version(n)).collect()
    }

    /// Bump the write version of every table in `tables` (lowercased
    /// names). Called after a write is applied, at a point where the
    /// writer still holds the locks that made the write invisible —
    /// see DESIGN.md §7.3 for why bump-after-apply is the safe order.
    pub(crate) fn bump_table_versions(&self, tables: &[String]) {
        for t in tables {
            self.version_counter(t).fetch_add(1, Ordering::AcqRel);
        }
    }

    pub(crate) fn wal_lock(
        &self,
    ) -> parking_lot::MutexGuard<'_, Option<crate::wal::WalWriter>> {
        self.wal.lock()
    }

    fn is_write(stmt: &Statement) -> bool {
        !matches!(stmt, Statement::Select(_))
    }

    /// The tables a statement references, lowercased, sorted, deduped —
    /// the barrier set acquired before executing it.
    pub(crate) fn stmt_tables(stmt: &Statement) -> Vec<String> {
        let mut out: Vec<String> = match stmt {
            Statement::Select(s) => {
                let mut v = vec![s.from.table.to_ascii_lowercase()];
                v.extend(s.joins.iter().map(|j| j.table.table.to_ascii_lowercase()));
                v
            }
            Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. }
            | Statement::CreateIndex { table, .. }
            | Statement::DropIndex { table, .. } => vec![table.to_ascii_lowercase()],
            Statement::CreateTable { name, .. } | Statement::DropTable { name, .. } => {
                vec![name.to_ascii_lowercase()]
            }
        };
        out.sort();
        out.dedup();
        out
    }

    /// Execute a statement outside any transaction, in `ctx` (`tables`:
    /// the statement's table set, lowercased/sorted — precomputed so
    /// prepared statements don't re-derive it per call).
    ///
    /// A SELECT takes the shared barrier of every table it reads (none
    /// under MVCC, where it reads at `ctx`'s snapshot or one it pins), so
    /// in-flight transactions' intermediate states are invisible to it
    /// (re-entrant for the transaction's own thread). A write is a
    /// one-statement claimed transaction: it takes its tables' barriers
    /// exclusively and commits through [`Database::commit`] like any
    /// other. It needs no undo log: the statement is atomic on its own.
    fn run_logged(
        &self,
        ctx: &OpCtx,
        stmt: &Statement,
        tables: &[String],
        sql: &str,
        params: &[Value],
    ) -> Result<(ExecResult, u64)> {
        if !Self::is_write(stmt) {
            if self.mvcc {
                let own = if ctx.snapshot.is_none() { self.pin_snapshot() } else { None };
                let at = ctx.snapshot.as_ref().or(own.as_ref());
                return Ok((exec_statement(self, stmt, params, None, at)?, 0));
            }
            let _barriers = self.barriers.statement_guard(tables);
            return Ok((exec_statement(self, stmt, params, None, None)?, 0));
        }
        self.log_usable()?;
        let unit = self.start_unit();
        let claims: Vec<(&str, Access)> =
            tables.iter().map(|t| (t.as_str(), Access::Write)).collect();
        let barriers = self.barriers.transaction_guard(&claims)?;
        let r = exec_statement(self, stmt, params, None, None)?;
        self.bump_table_versions(tables);
        let epoch =
            self.commit(ctx.durability, Some(unit), Some(barriers), tables, &[(sql, params)])?;
        Ok((r, epoch))
    }

    /// Commit a unit — an autocommit write or a transaction — whose writes
    /// are applied and whose claimed `barriers` are still held: the one
    /// commit path. `unit` counts it as started until its enqueue. `records`
    /// (the unit's write statements) go to the commit queue as one
    /// `Begin, Stmt…, Commit` group, whose log
    /// position the FIFO queue fixes at the enqueue; under MVCC the row
    /// stamps of `touched` convert to the group's epoch. Returns that
    /// epoch (0 when nothing was logged).
    ///
    /// Once the group is enqueued no conflicting unit can reach the log
    /// ahead of it, so a `Group` or `Async` commit releases its barriers
    /// right away — the next writer of these tables executes while the
    /// batch leader is in `sync_data`, which is what lets serialized
    /// workloads share fsyncs. An `Always` commit writes its group first.
    /// A failed write leaves the unit's effects applied in memory (there
    /// is no undo past a commit); the next checkpoint folds them into the
    /// snapshot.
    fn commit(
        &self,
        durability: Option<Durability>,
        unit: Option<crate::group_commit::UnitStart<'_>>,
        barriers: Option<TransactionGuard>,
        touched: &[String],
        records: &[(&str, &[Value])],
    ) -> Result<u64> {
        if records.is_empty() || !self.is_durable() {
            // Non-durable commits still need an epoch: the writes are
            // applied and their stamps must become visible. Nothing
            // touched means nothing stamped — skip the allocation, no
            // epoch exists here to leak.
            if self.mvcc && !touched.is_empty() {
                let epoch = self.alloc_local_epoch();
                self.mvcc_commit(touched, epoch);
            }
            return Ok(0);
        }
        let txn_id = self.next_txn_id.fetch_add(1, Ordering::Relaxed) + 1;
        let group = crate::wal::WalWriter::encode_transaction(txn_id, records);
        let durability = durability.unwrap_or_else(|| self.durability());
        let (ticket, epoch) = self.group_enqueue(group, durability, unit);
        // Every allocated epoch must publish, also over zero touched
        // tables, or the visibility watermark stalls behind the gap.
        let stamp = || {
            if self.mvcc {
                self.mvcc_commit(touched, epoch);
            }
        };
        match durability {
            Durability::Always => {
                let written = self.group_commit_now(ticket);
                stamp();
                drop(barriers);
                written.map(|()| epoch)
            }
            Durability::Group { max_wait, max_batch } => {
                stamp();
                drop(barriers);
                self.group_commit_wait(ticket, max_wait, max_batch).map(|()| epoch)
            }
            Durability::Async { max_wait, max_batch } => {
                stamp();
                drop(barriers);
                self.ensure_flusher(max_wait, max_batch);
                Ok(epoch)
            }
        }
    }

    /// Refuse a write up front once the log has failed: a poisoned writer
    /// takes no commit until a checkpoint rebuilds the log, and a write
    /// applied now could not be logged.
    fn log_usable(&self) -> Result<()> {
        match self.epoch_gate().failure() {
            None => Ok(()),
            Some(msg) => Err(Error::ExecError(format!(
                "the log failed ({msg}); checkpoint to rebuild it"
            ))),
        }
    }

    /// Replay one WAL record at open, before the log is attached. A
    /// statement of a committed group ran once already and must apply
    /// again. A `bare` record of an older log was logged before it ran,
    /// so it replays as it first ran: it may fail, and a failure keeps
    /// the AUTO_INCREMENT values it drew.
    pub(crate) fn replay(&self, sql: &str, params: &[Value], bare: bool) -> Result<()> {
        let stmt = parse(sql)?;
        let tables = Self::stmt_tables(&stmt);
        if bare {
            crate::executor::exec_bare(self, &stmt, params)?;
        } else {
            exec_statement(self, &stmt, params, None, None)?;
        }
        self.bump_table_versions(&tables);
        self.commit(None, None, None, &tables, &[]).map(drop)
    }

    /// Parse and execute one statement outside any transaction.
    pub fn execute(&self, sql: &str, params: &[Value]) -> Result<ExecResult> {
        let stmt = parse(sql)?;
        let tables = Self::stmt_tables(&stmt);
        self.run_logged(&OpCtx::default(), &stmt, &tables, sql, params).map(|(r, _)| r)
    }

    /// Shorthand for `execute` returning the result set of a SELECT.
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        self.execute(sql, params)?
            .rows
            .ok_or_else(|| Error::ExecError("statement returned no rows".into()))
    }

    /// Explain the access plan a SELECT would use, without executing it:
    /// one line per table (chosen index, estimated rows, cost) plus how
    /// ORDER BY and LIMIT are handled. Only SELECT is explainable.
    pub fn explain(&self, sql: &str, params: &[Value]) -> Result<Vec<String>> {
        match parse(sql)? {
            Statement::Select(sel) => crate::executor::explain_select(self, &sel, params),
            _ => Err(Error::ExecError("EXPLAIN supports only SELECT".into())),
        }
    }

    /// Check that a table exists. Plans come from live index dives, so
    /// there are no statistics to compute; the call is kept for callers
    /// written when there were (perfbench's post-load step among them).
    pub fn analyze_table(&self, name: &str) -> Result<()> {
        self.table(name).map(drop)
    }

    /// Execute a batch of `;`-separated statements (DDL bootstrap helper).
    /// Statements run independently; the first error aborts the rest.
    pub fn execute_script(&self, script: &str) -> Result<()> {
        for stmt_text in split_statements(script) {
            self.execute(&stmt_text, &[])?;
        }
        Ok(())
    }

    /// Prepare a statement for repeated execution (parse once). This is
    /// the hot path the MCS server uses, mirroring JDBC prepared
    /// statements in the original implementation.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let stmt = parse(sql)?;
        let tables = Self::stmt_tables(&stmt);
        Ok(Prepared { stmt, tables, text: sql.to_owned() })
    }

    /// Execute a prepared statement.
    pub fn execute_prepared(&self, p: &Prepared, params: &[Value]) -> Result<ExecResult> {
        self.execute_in(&OpCtx::default(), p, params).map(|(r, _)| r)
    }

    /// Execute a prepared statement outside any transaction, in `ctx`: a
    /// SELECT reads at its snapshot, and a write commits under its
    /// durability override. Returns the write's commit epoch beside the
    /// result (0 for a SELECT, or when nothing was logged). A statement
    /// that fails changes nothing and logs nothing.
    pub fn execute_in(
        &self,
        ctx: &OpCtx,
        p: &Prepared,
        params: &[Value],
    ) -> Result<(ExecResult, u64)> {
        self.run_logged(ctx, &p.stmt, &p.tables, &p.text, params)
    }

    /// Run `f` as one atomic transaction over the tables named in
    /// `claims`.
    ///
    /// The claimed tables' barriers are acquired up front in a fixed
    /// global order (sorted by name) — exclusive for [`Access::Write`],
    /// shared for [`Access::Read`] — and held until the transaction ends,
    /// so the closure's intermediate states are invisible to every other
    /// statement and its reads are stable. Because all acquisition
    /// sequences follow the same order, transactions cannot deadlock.
    ///
    /// On `Ok` the transaction commits: its writes become visible and are
    /// journalled to the WAL as a single atomic group (crash recovery
    /// replays all of them or none). On `Err` every write is rolled back,
    /// AUTO_INCREMENT counters included.
    ///
    /// Rules inside the closure:
    ///
    /// * All **writes** must go through the provided [`Session`]; a write
    ///   through the [`Database`] handle is a transaction of its own,
    ///   which fails on a table this one claimed.
    /// * Statements may only touch claimed tables ([`Error::TxnState`]
    ///   otherwise); reads of claimed tables may use either the session or
    ///   the `Database` handle (barrier acquisition is re-entrant).
    /// * Nesting a transaction that shares a table with an open one on the
    ///   same thread is rejected; nesting over disjoint tables is
    ///   unsupported (not detected).
    ///
    /// If the closure panics, barriers are released during unwind but
    /// in-memory state may retain the partial writes (they are never
    /// journalled); treat a panic mid-transaction as fatal for the
    /// process, not a recoverable error.
    pub fn transaction<T, E>(
        self: &Arc<Self>,
        claims: &[(&str, Access)],
        f: impl FnOnce(&mut Session) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E>
    where
        E: From<Error>,
    {
        self.transaction_in(&OpCtx::default(), claims, f).map(|(v, _)| v)
    }

    /// [`Database::transaction`] in `ctx`: the commit takes its
    /// durability override, a pure-read transaction on an MVCC database
    /// reads at its snapshot, and the commit epoch comes back beside
    /// `f`'s value (0 when nothing was logged).
    pub fn transaction_in<T, E>(
        self: &Arc<Self>,
        ctx: &OpCtx,
        claims: &[(&str, Access)],
        f: impl FnOnce(&mut Session) -> std::result::Result<T, E>,
    ) -> std::result::Result<(T, u64), E>
    where
        E: From<Error>,
    {
        // Normalize: lowercase, sort, dedup with Write winning over Read.
        let mut norm: Vec<(Cow<'_, str>, Access)> =
            claims.iter().map(|(n, a)| (lowercase(n), *a)).collect();
        norm.sort_by(|a, b| a.0.cmp(&b.0));
        norm.dedup_by(|next, kept| {
            if next.0 == kept.0 {
                if next.1 == Access::Write {
                    kept.1 = Access::Write;
                }
                true
            } else {
                false
            }
        });
        // MVCC: a pure-read transaction takes no barriers at all — it pins
        // one snapshot for the closure, giving repeatable reads without
        // blocking (or being blocked by) any writer. A transaction with
        // any Write claim upgrades every claim to exclusive: barriers are
        // writer-vs-writer only now, and its reads see latest state, which
        // its exclusive coverage keeps stable.
        let pure_read = norm.iter().all(|(_, a)| *a == Access::Read);
        if !pure_read {
            self.log_usable().map_err(E::from)?;
        }
        let unit = (!pure_read).then(|| self.start_unit());
        let barriers = if self.mvcc && pure_read {
            None
        } else if self.mvcc {
            let upgraded: Vec<(&str, Access)> =
                norm.iter().map(|(n, _)| (n.as_ref(), Access::Write)).collect();
            Some(self.barriers.transaction_guard(&upgraded).map_err(E::from)?)
        } else {
            Some(self.barriers.transaction_guard(&norm).map_err(E::from)?)
        };
        let mut session = Session {
            db: Arc::clone(self),
            undo: UndoLog::default(),
            pending_log: Vec::new(),
            allowed: norm.into_iter().map(|(n, _)| n.into_owned()).collect(),
            snapshot: None,
        };
        if self.mvcc && pure_read {
            session.snapshot = ctx.snapshot.clone().or_else(|| self.pin_snapshot());
        }
        match f(&mut session) {
            Ok(v) => {
                // MVCC: the tables whose pending row stamps convert to the
                // commit's epoch.
                let touched = if self.mvcc { session.undo.touched_tables() } else { Vec::new() };
                let records: Vec<(&str, &[Value])> = session
                    .pending_log
                    .iter()
                    .map(|(sql, p)| (sql.as_str(), p.as_slice()))
                    .collect();
                let epoch = self.commit(ctx.durability, unit, barriers, &touched, &records);
                Ok((v, epoch.map_err(E::from)?))
            }
            Err(e) => {
                // Preserve the original error even if rollback also fails.
                let _ = session.rollback();
                drop(barriers); // release only after rollback finished
                Err(e)
            }
        }
    }
}

/// `name` in ASCII lowercase, copied only when it has an uppercase byte
/// (table names are case-insensitive; the catalog's are all lowercase).
pub(crate) fn lowercase(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// A parsed, reusable statement. Carries its table set (lowercased,
/// sorted) so barrier acquisition and transaction-claim checks don't
/// re-derive it on every execution.
#[derive(Debug, Clone)]
pub struct Prepared {
    stmt: Statement,
    tables: Vec<String>,
    text: String,
}

impl Prepared {
    /// The original SQL text.
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// Split a script on `;` while respecting string literals.
fn split_statements(script: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut chars = script.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                in_str = !in_str;
                cur.push(c);
            }
            ';' if !in_str => {
                if !cur.trim().is_empty() {
                    out.push(std::mem::take(&mut cur));
                } else {
                    cur.clear();
                }
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// The handle a [`Database::transaction`] closure runs its statements
/// through: every statement is checked against the claimed tables, and
/// writes are recorded for rollback and for the commit's WAL group.
pub struct Session {
    db: Arc<Database>,
    undo: UndoLog,
    /// Writes made in the transaction, logged to the WAL only at commit
    /// so a rolled-back transaction never replays.
    pending_log: Vec<(String, Vec<Value>)>,
    /// The claimed table set (lowercased, sorted).
    allowed: Vec<String>,
    /// The snapshot a pure-read transaction on an MVCC database reads at.
    snapshot: Option<SnapshotPin>,
}

impl Session {
    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Parse and execute one statement in this transaction.
    pub fn execute(&mut self, sql: &str, params: &[Value]) -> Result<ExecResult> {
        let stmt = parse(sql)?;
        let tables = Database::stmt_tables(&stmt);
        self.run(&stmt, &tables, sql, params)
    }

    /// Execute a prepared statement in this transaction.
    pub fn execute_prepared(&mut self, p: &Prepared, params: &[Value]) -> Result<ExecResult> {
        self.run(&p.stmt, &p.tables, &p.text, params)
    }

    fn run(
        &mut self,
        stmt: &Statement,
        tables: &[String],
        sql: &str,
        params: &[Value],
    ) -> Result<ExecResult> {
        // a transaction may only touch its claimed tables — touching any
        // other would bypass the barriers acquired at its start and could
        // deadlock or see/expose unstable state
        if let Some(t) = tables.iter().find(|t| !self.allowed.contains(t)) {
            return Err(Error::TxnState(format!("table '{t}' not declared by this transaction")));
        }
        if !Database::is_write(stmt) {
            // its barriers already cover every table checked above, so
            // the statement-scope acquire would be a re-entrant no-op
            return exec_statement(&self.db, stmt, params, None, self.snapshot.as_ref());
        }
        let r = exec_statement(&self.db, stmt, params, Some(&mut self.undo), None)?;
        // bump while the transaction's exclusive barriers still hide the
        // write; bump-before-visible only causes spurious cache misses,
        // never stale hits
        self.db.bump_table_versions(tables);
        if self.db.is_durable() {
            self.pending_log.push((sql.to_owned(), params.to_vec()));
        }
        Ok(r)
    }

    /// Apply the undo log in reverse; the buffered WAL records are
    /// discarded unlogged.
    fn rollback(self) -> Result<()> {
        // Undo mutates the touched tables back to their old contents, so
        // their write versions must advance too (a cache entry filled from
        // the pre-rollback state would otherwise validate against the
        // restored state). Bump after the undo is applied, while the
        // transaction's barriers are still held by the caller.
        let touched = self.undo.touched_tables();
        let r = self.undo.rollback();
        self.db.bump_table_versions(&touched);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Arc<Database> {
        let db = Arc::new(Database::new());
        db.execute_script(
            "CREATE TABLE files (
                id INTEGER PRIMARY KEY AUTO_INCREMENT,
                name VARCHAR(255) NOT NULL,
                size INTEGER,
                valid BOOLEAN DEFAULT TRUE
            );
            CREATE UNIQUE INDEX by_name ON files (name);
            CREATE TABLE attrs (
                id INTEGER PRIMARY KEY AUTO_INCREMENT,
                file_id INTEGER NOT NULL,
                name VARCHAR(64) NOT NULL,
                value VARCHAR(255)
            );
            CREATE INDEX attrs_by_file ON attrs (file_id, name);",
        )
        .unwrap();
        db
    }

    #[test]
    fn insert_select_roundtrip() {
        let db = db();
        let r = db
            .execute("INSERT INTO files (name, size) VALUES ('a', 10), ('b', 20)", &[])
            .unwrap();
        assert_eq!(r.rows_affected, 2);
        assert_eq!(r.last_insert_id, Some(2));
        let rs = db.query("SELECT name, size FROM files WHERE size > 15", &[]).unwrap();
        assert_eq!(rs.columns, vec!["name", "size"]);
        assert_eq!(rs.rows, vec![vec![Value::from("b"), Value::Int(20)]]);
    }

    #[test]
    fn defaults_apply() {
        let db = db();
        db.execute("INSERT INTO files (name) VALUES ('a')", &[]).unwrap();
        let rs = db.query("SELECT valid, size FROM files", &[]).unwrap();
        assert_eq!(rs.rows[0], vec![Value::Bool(true), Value::Null]);
    }

    #[test]
    fn params_bind_in_order() {
        let db = db();
        db.execute("INSERT INTO files (name, size) VALUES (?, ?)", &["a".into(), 5i64.into()])
            .unwrap();
        let rs = db
            .query("SELECT size FROM files WHERE name = ?", &["a".into()])
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(5));
    }

    #[test]
    fn unique_violation_surfaces() {
        let db = db();
        db.execute("INSERT INTO files (name) VALUES ('a')", &[]).unwrap();
        let err = db.execute("INSERT INTO files (name) VALUES ('a')", &[]);
        assert!(matches!(err, Err(Error::UniqueViolation { .. })));
    }

    #[test]
    fn multi_row_insert_is_atomic() {
        let db = db();
        db.execute("INSERT INTO files (name) VALUES ('a')", &[]).unwrap();
        let err = db.execute("INSERT INTO files (name) VALUES ('b'), ('a')", &[]);
        assert!(err.is_err());
        let rs = db.query("SELECT COUNT(*) FROM files", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(1)); // 'b' rolled back
    }

    #[test]
    fn update_and_delete() {
        let db = db();
        db.execute("INSERT INTO files (name, size) VALUES ('a', 1), ('b', 2)", &[]).unwrap();
        let r = db.execute("UPDATE files SET size = 9 WHERE name = 'a'", &[]).unwrap();
        assert_eq!(r.rows_affected, 1);
        let r = db.execute("DELETE FROM files WHERE size = 9", &[]).unwrap();
        assert_eq!(r.rows_affected, 1);
        let rs = db.query("SELECT COUNT(*) AS n FROM files", &[]).unwrap();
        assert_eq!(rs.columns, vec!["n"]);
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn join_with_index_lookup() {
        let db = db();
        db.execute("INSERT INTO files (name) VALUES ('a'), ('b')", &[]).unwrap();
        db.execute(
            "INSERT INTO attrs (file_id, name, value) VALUES (1, 'ch', 'H1'), (2, 'ch', 'L1')",
            &[],
        )
        .unwrap();
        let rs = db
            .query(
                "SELECT f.name FROM files f JOIN attrs a ON f.id = a.file_id \
                 WHERE a.name = 'ch' AND a.value = 'L1'",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("b")]]);
    }

    #[test]
    fn self_join() {
        let db = db();
        db.execute("INSERT INTO files (name, size) VALUES ('a', 1), ('b', 1)", &[]).unwrap();
        let rs = db
            .query(
                "SELECT x.name, y.name FROM files x JOIN files y ON x.size = y.size \
                 WHERE x.name = 'a' AND y.name = 'b'",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn order_limit_offset() {
        let db = db();
        db.execute(
            "INSERT INTO files (name, size) VALUES ('c', 3), ('a', 1), ('d', 4), ('b', 2)",
            &[],
        )
        .unwrap();
        let rs = db
            .query("SELECT name FROM files ORDER BY size DESC LIMIT 2 OFFSET 1", &[])
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("c")], vec![Value::from("b")]]);
    }

    #[test]
    fn aggregates() {
        let db = db();
        db.execute("INSERT INTO files (name, size) VALUES ('a', 1), ('b', 3), ('c', 2)", &[])
            .unwrap();
        let rs = db
            .query("SELECT COUNT(*), MIN(size), MAX(size) FROM files WHERE size > 1", &[])
            .unwrap();
        assert_eq!(rs.rows[0], vec![Value::Int(2), Value::Int(2), Value::Int(3)]);
        // COUNT(col) skips NULLs
        db.execute("INSERT INTO files (name) VALUES ('d')", &[]).unwrap();
        let rs = db.query("SELECT COUNT(size) FROM files", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn session_rollback_restores_rows() {
        let db = db();
        db.execute("INSERT INTO files (name) VALUES ('keep')", &[]).unwrap();
        let r: std::result::Result<(), Error> =
            db.transaction(&[("files", Access::Write)], |s| {
                s.execute("INSERT INTO files (name) VALUES ('tmp')", &[])?;
                s.execute("UPDATE files SET size = 5 WHERE name = 'keep'", &[])?;
                s.execute("DELETE FROM files WHERE name = 'keep'", &[])?;
                Err(Error::ExecError("roll back".into()))
            });
        assert!(r.is_err());
        let rs = db.query("SELECT name, size FROM files", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("keep"), Value::Null]]);
    }

    #[test]
    fn session_commit_keeps_rows() {
        let db = db();
        db.transaction(&[("files", Access::Write)], |s| {
            s.execute("INSERT INTO files (name) VALUES ('x')", &[])?;
            Ok::<_, Error>(())
        })
        .unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM files", &[]).unwrap().rows[0][0], Value::Int(1));
    }

    /// The closure's error comes back as it was, and its writes are gone.
    #[test]
    fn with_transaction_rolls_back_on_error() {
        let db = db();
        let r: Result<()> = db.transaction(&[("files", Access::Write)], |s| {
            s.execute("INSERT INTO files (name) VALUES ('x')", &[])?;
            Err(Error::ExecError("boom".into()))
        });
        assert!(matches!(r, Err(Error::ExecError(m)) if m == "boom"));
        assert_eq!(db.query("SELECT COUNT(*) FROM files", &[]).unwrap().rows[0][0], Value::Int(0));
    }

    /// Inside a transaction's closure, a second transaction on a claimed
    /// table and a write to it through the database handle (itself a
    /// one-statement transaction) are both rejected; reads through the
    /// handle are not.
    #[test]
    fn txn_state_errors() {
        let db = db();
        let r = db.transaction(&[("files", Access::Write)], |s| {
            let nested =
                s.database().transaction(&[("files", Access::Read)], |_| Ok::<_, Error>(()));
            assert!(matches!(nested, Err(Error::TxnState(_))), "{nested:?}");
            let write = s.database().execute("INSERT INTO files (name) VALUES ('x')", &[]);
            assert!(matches!(write, Err(Error::TxnState(_))), "{write:?}");
            s.database().query("SELECT COUNT(*) FROM files", &[]).map(drop)
        });
        r.unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM files", &[]).unwrap().rows[0][0], Value::Int(0));
    }

    /// A statement that fails, also a multi-row INSERT that fails on a
    /// later row, and a transaction that rolls back take no AUTO_INCREMENT
    /// value: the next insert draws the id it would have drawn without them.
    #[test]
    fn failed_statements_and_rollbacks_take_no_ids() {
        let db = db();
        let next_id = |name: &str| {
            db.execute("INSERT INTO files (name) VALUES (?)", &[name.into()])
                .unwrap()
                .last_insert_id
                .unwrap()
        };
        assert_eq!(next_id("a"), 1);
        assert!(db.execute("INSERT INTO files (name) VALUES ('a')", &[]).is_err());
        assert!(db.execute("INSERT INTO files (name) VALUES ('b'), ('c'), ('a')", &[]).is_err());
        assert_eq!(next_id("b"), 2);
        let r: std::result::Result<(), Error> =
            db.transaction(&[("files", Access::Write), ("attrs", Access::Write)], |s| {
                s.execute("INSERT INTO files (name) VALUES ('c'), ('d')", &[])?;
                s.execute("INSERT INTO attrs (file_id, name) VALUES (3, 'x')", &[])?;
                // a failed statement inside the transaction gives its id back too
                assert!(s.execute("INSERT INTO files (name) VALUES ('a')", &[]).is_err());
                s.execute("INSERT INTO files (name) VALUES ('e')", &[])?;
                Err(Error::ExecError("abort".into()))
            });
        assert!(r.is_err());
        assert_eq!(next_id("c"), 3);
        let attr = db.execute("INSERT INTO attrs (file_id, name) VALUES (3, 'x')", &[]).unwrap();
        assert_eq!(attr.last_insert_id, Some(1));
    }

    #[test]
    fn transaction_commits_on_ok() {
        let db = db();
        let id = db
            .transaction(&[("files", Access::Write), ("attrs", Access::Write)], |s| {
                let r = s.execute("INSERT INTO files (name) VALUES ('f')", &[])?;
                let id = r.last_insert_id.unwrap();
                s.execute(
                    "INSERT INTO attrs (file_id, name) VALUES (?, 'a')",
                    &[Value::Int(id)],
                )?;
                Ok::<_, Error>(id)
            })
            .unwrap();
        assert_eq!(
            db.query("SELECT COUNT(*) FROM attrs WHERE file_id = ?", &[Value::Int(id)])
                .unwrap()
                .rows[0][0],
            Value::Int(1)
        );
    }

    #[test]
    fn transaction_rolls_back_all_statements_on_err() {
        let db = db();
        let r: std::result::Result<(), Error> =
            db.transaction(&[("files", Access::Write), ("attrs", Access::Write)], |s| {
                s.execute("INSERT INTO files (name) VALUES ('f')", &[])?;
                s.execute("INSERT INTO attrs (file_id, name) VALUES (1, 'a')", &[])?;
                Err(Error::ExecError("abort".into()))
            });
        assert!(r.is_err());
        assert_eq!(db.query("SELECT COUNT(*) FROM files", &[]).unwrap().rows[0][0], Value::Int(0));
        assert_eq!(db.query("SELECT COUNT(*) FROM attrs", &[]).unwrap().rows[0][0], Value::Int(0));
    }

    #[test]
    fn transaction_rejects_undeclared_table() {
        let db = db();
        let r: std::result::Result<(), Error> =
            db.transaction(&[("files", Access::Write)], |s| {
                s.execute("INSERT INTO attrs (file_id, name) VALUES (1, 'a')", &[])?;
                Ok(())
            });
        assert!(matches!(r, Err(Error::TxnState(_))));
        // and the check applies to reads too
        let r: std::result::Result<(), Error> =
            db.transaction(&[("files", Access::Write)], |s| {
                s.execute("SELECT * FROM attrs", &[])?;
                Ok(())
            });
        assert!(matches!(r, Err(Error::TxnState(_))));
    }

    #[test]
    fn transaction_reads_claimed_tables_through_db_handle() {
        let db = db();
        db.execute("INSERT INTO files (name, size) VALUES ('f', 1)", &[]).unwrap();
        // re-entrancy: mid-transaction reads via the plain handle work
        db.transaction(&[("files", Access::Write)], |s| {
            let n = s.database().query("SELECT COUNT(*) FROM files", &[])?.rows[0][0].clone();
            assert_eq!(n, Value::Int(1));
            s.execute("UPDATE files SET size = 2 WHERE name = 'f'", &[])?;
            Ok::<_, Error>(())
        })
        .unwrap();
    }

    #[test]
    fn in_flight_transaction_writes_are_invisible() {
        use std::sync::mpsc;
        let db = db();
        let (in_txn_tx, in_txn_rx) = mpsc::channel();
        let (observed_tx, observed_rx) = mpsc::channel::<i64>();
        let db2 = Arc::clone(&db);
        let reader = std::thread::spawn(move || {
            in_txn_rx.recv().unwrap(); // wait until the txn has written row 1
            // this query must block until the transaction commits, then
            // see both rows — never the intermediate single-row state
            let rs = db2.query("SELECT COUNT(*) FROM files", &[]).unwrap();
            let Value::Int(n) = rs.rows[0][0] else { panic!("count") };
            observed_tx.send(n).unwrap();
        });
        db.transaction(&[("files", Access::Write)], |s| {
            s.execute("INSERT INTO files (name) VALUES ('one')", &[])?;
            in_txn_tx.send(()).unwrap();
            // give the reader a chance to (incorrectly) observe row 1 only
            std::thread::sleep(std::time::Duration::from_millis(60));
            s.execute("INSERT INTO files (name) VALUES ('two')", &[])?;
            Ok::<_, Error>(())
        })
        .unwrap();
        assert_eq!(observed_rx.recv().unwrap(), 2, "reader saw a partial transaction");
        reader.join().unwrap();
    }

    #[test]
    fn write_claims_dedup_over_read() {
        let db = db();
        // same table claimed twice with different access: Write must win
        db.transaction(&[("files", Access::Read), ("FILES", Access::Write)], |s| {
            s.execute("INSERT INTO files (name) VALUES ('f')", &[])?;
            Ok::<_, Error>(())
        })
        .unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM files", &[]).unwrap().rows[0][0], Value::Int(1));
    }

    #[test]
    fn ddl_and_drops() {
        let db = db();
        assert!(db.execute("CREATE TABLE files (id INTEGER)", &[]).is_err());
        db.execute("CREATE TABLE IF NOT EXISTS files (id INTEGER)", &[]).unwrap();
        db.execute("DROP TABLE files", &[]).unwrap();
        assert!(db.execute("DROP TABLE files", &[]).is_err());
        db.execute("DROP TABLE IF EXISTS files", &[]).unwrap();
        assert!(db.query("SELECT * FROM files", &[]).is_err());
    }

    #[test]
    fn script_splitting_respects_strings() {
        let db = Arc::new(Database::new());
        db.execute_script(
            "CREATE TABLE t (s VARCHAR(32)); INSERT INTO t (s) VALUES ('a;b');",
        )
        .unwrap();
        let rs = db.query("SELECT s FROM t", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::from("a;b"));
    }

    #[test]
    fn table_versions_bump_on_writes_not_reads() {
        let db = db();
        let v0 = db.table_version("files");
        db.query("SELECT * FROM files", &[]).unwrap();
        assert_eq!(db.table_version("files"), v0, "SELECT must not bump");
        let attrs_v = db.table_version("attrs");
        db.execute("INSERT INTO files (name) VALUES ('a')", &[]).unwrap();
        let v1 = db.table_version("files");
        assert!(v1 > v0, "INSERT must bump");
        assert_eq!(db.table_version("attrs"), attrs_v, "untouched table stays put");
        assert_eq!(db.table_version("never_written"), 0);
        db.execute("UPDATE files SET size = 1 WHERE name = 'a'", &[]).unwrap();
        db.execute("DELETE FROM files WHERE name = 'a'", &[]).unwrap();
        assert!(db.table_version("files") > v1);
        // case-insensitive, and the vector snapshot matches the scalars
        assert_eq!(db.table_version("FILES"), db.table_version("files"));
        assert_eq!(
            db.version_vector(&["files", "attrs"]),
            vec![db.table_version("files"), db.table_version("attrs")]
        );
    }

    #[test]
    fn table_versions_bump_per_transaction_statement() {
        let db = db();
        let v0 = db.table_version("files");
        let a0 = db.table_version("attrs");
        db.transaction(&[("files", Access::Write), ("attrs", Access::Write)], |s| {
            s.execute("INSERT INTO files (name) VALUES ('f')", &[])?;
            s.execute("INSERT INTO attrs (file_id, name) VALUES (1, 'a')", &[])?;
            Ok::<_, Error>(())
        })
        .unwrap();
        assert!(db.table_version("files") > v0);
        assert!(db.table_version("attrs") > a0);
    }

    #[test]
    fn table_versions_bump_on_rollback() {
        let db = db();
        db.execute("INSERT INTO files (name) VALUES ('keep')", &[]).unwrap();
        let r: std::result::Result<(), Error> =
            db.transaction(&[("files", Access::Write)], |s| {
                s.execute("UPDATE files SET size = 9 WHERE name = 'keep'", &[])?;
                Err(Error::ExecError("abort".into()))
            });
        assert!(r.is_err());
        // the update bumped once, the undo that reverted it bumped again —
        // a cache entry stamped mid-transaction can never validate
        assert!(db.table_version("files") >= 3);
        // and a failed statement that wrote nothing doesn't have to bump
        let v = db.table_version("files");
        let _ = db.execute("INSERT INTO files (name) VALUES ('keep')", &[]);
        assert!(db.table_version("files") >= v);
    }

    #[test]
    fn table_versions_survive_drop_and_recreate() {
        let db = db();
        db.execute("INSERT INTO files (name) VALUES ('a')", &[]).unwrap();
        let v = db.table_version("files");
        db.execute("DROP TABLE files", &[]).unwrap();
        assert!(db.table_version("files") > v, "DROP must bump");
        let v = db.table_version("files");
        db.execute("CREATE TABLE files (id INTEGER)", &[]).unwrap();
        assert!(db.table_version("files") > v, "recreate keeps counting up");
    }

    /// Table names are case-insensitive at every entry point, whether
    /// the name is already lowercase (borrowed) or not (copied).
    #[test]
    fn table_lookup_is_case_insensitive() {
        assert!(matches!(lowercase("user_attributes"), Cow::Borrowed("user_attributes")));
        assert_eq!(lowercase("User_Attributes"), "user_attributes");
        let db = db();
        assert!(Arc::ptr_eq(&db.table("FILES").unwrap(), &db.table("files").unwrap()));
        assert!(Arc::ptr_eq(&db.table("Files").unwrap(), &db.table("files").unwrap()));
        assert!(matches!(db.table("FILEZ"), Err(Error::NoSuchTable(n)) if n == "FILEZ"));
        db.transaction(&[("Files", Access::Write), ("ATTRS", Access::Write)], |s| {
            s.execute("INSERT INTO files (name) VALUES ('a')", &[])?;
            s.execute("INSERT INTO Attrs (file_id, name) VALUES (1, 'x')", &[])?;
            Ok::<_, Error>(())
        })
        .unwrap();
        assert!(db.table_version("Files") > 0);
        assert_eq!(db.table_version("FILES"), db.table_version("files"));
        assert_eq!(db.read_table(None, "FILES", |t, _| t.len()).unwrap(), 1);
        assert_eq!(db.read_table(None, "attrs", |t, _| t.len()).unwrap(), 1);
        // a claim in any case still fences the transaction to its tables
        let r = db.transaction(&[("FILES", Access::Write)], |s| {
            s.execute("INSERT INTO attrs (file_id, name) VALUES (1, 'y')", &[]).map(drop)
        });
        assert!(matches!(r, Err(Error::TxnState(_))));
    }

    fn mvcc_db() -> Arc<Database> {
        let db = Arc::new(Database::new_mvcc());
        db.execute_script(
            "CREATE TABLE files (
                id INTEGER PRIMARY KEY AUTO_INCREMENT,
                name VARCHAR(255) NOT NULL,
                size INTEGER
            );
            CREATE UNIQUE INDEX by_name ON files (name);",
        )
        .unwrap();
        db
    }

    fn count_files(db: &Database) -> i64 {
        let rs = db.query("SELECT COUNT(*) FROM files", &[]).unwrap();
        let Value::Int(n) = rs.rows[0][0] else { panic!("count") };
        n
    }

    #[test]
    fn mvcc_reader_does_not_block_on_open_write_transaction() {
        let db = mvcc_db();
        db.execute("INSERT INTO files (name) VALUES ('base')", &[]).unwrap();
        db.transaction(&[("files", Access::Write)], |s| {
            s.execute("INSERT INTO files (name) VALUES ('in-flight')", &[])?;
            // Under the barrier engine this join would deadlock: the
            // reader would park on the exclusive barrier until the
            // transaction ends. Under MVCC it completes immediately and
            // sees only committed state.
            let db2 = Arc::clone(&db);
            let seen = std::thread::spawn(move || count_files(&db2)).join().unwrap();
            assert_eq!(seen, 1, "reader saw uncommitted transaction state");
            // ...while the transaction itself reads its own writes
            assert_eq!(count_files(s.database()), 2);
            Ok::<_, Error>(())
        })
        .unwrap();
        assert_eq!(count_files(&db), 2, "committed state visible to everyone");
    }

    fn count_in(s: &mut Session) -> i64 {
        let rs = s.execute("SELECT COUNT(*) FROM files", &[]).unwrap().rows.unwrap();
        let Value::Int(n) = rs.rows[0][0] else { panic!("count") };
        n
    }

    #[test]
    fn mvcc_pure_read_transaction_is_repeatable() {
        let db = mvcc_db();
        db.execute("INSERT INTO files (name) VALUES ('a')", &[]).unwrap();
        db.transaction(&[("files", Access::Read)], |s| {
            assert_eq!(count_in(s), 1);
            // A writer commits mid-transaction without blocking (no
            // barriers are held) ...
            let db2 = Arc::clone(&db);
            std::thread::spawn(move || {
                db2.execute("INSERT INTO files (name) VALUES ('b')", &[]).unwrap();
            })
            .join()
            .unwrap();
            // ... but this transaction's snapshot was pinned at its start
            assert_eq!(count_in(s), 1, "snapshot must be repeatable");
            Ok::<_, Error>(())
        })
        .unwrap();
        assert_eq!(count_files(&db), 2, "new snapshots see the commit");
    }

    #[test]
    fn mvcc_snapshot_pinned_before_commit_never_sees_it() {
        let db = mvcc_db();
        db.execute("INSERT INTO files (name) VALUES ('a')", &[]).unwrap();
        let before = db.pin_snapshot().unwrap();
        db.execute("INSERT INTO files (name) VALUES ('b')", &[]).unwrap();
        let after = db.pin_snapshot().unwrap();
        let db2 = Arc::clone(&db);
        std::thread::spawn(move || {
            let count = db2.prepare("SELECT COUNT(*) FROM files").unwrap();
            let at = |pin| {
                let ctx = OpCtx { snapshot: Some(pin), ..OpCtx::default() };
                db2.execute_in(&ctx, &count, &[]).unwrap().0.rows.unwrap().rows[0][0].clone()
            };
            assert_eq!(at(before), Value::Int(1));
            assert_eq!(at(after), Value::Int(2));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn mvcc_vacuum_reclaims_versions_and_counts() {
        let db = mvcc_db();
        db.execute("INSERT INTO files (name, size) VALUES ('a', 1)", &[]).unwrap();
        db.execute("UPDATE files SET size = 2 WHERE name = 'a'", &[]).unwrap();
        db.execute("UPDATE files SET size = 3 WHERE name = 'a'", &[]).unwrap();
        assert!(db.wal_stats().versions_created_count() >= 2);
        let reclaimed = db.vacuum();
        assert_eq!(reclaimed, 2, "both superseded images reclaimable");
        assert_eq!(db.wal_stats().vacuum_run_count(), 1);
        assert_eq!(db.wal_stats().versions_vacuumed_count(), 2);
        // a pinned snapshot holds the horizon: nothing further to reclaim
        let pin = db.pin_snapshot().unwrap();
        db.execute("UPDATE files SET size = 4 WHERE name = 'a'", &[]).unwrap();
        assert_eq!(db.vacuum(), 0, "pinned snapshot still needs size=3");
        drop(pin);
        assert_eq!(db.vacuum(), 1);
        assert_eq!(count_files(&db), 1);
    }

    #[test]
    fn mvcc_rollback_restores_state_and_indexes() {
        let db = mvcc_db();
        db.execute("INSERT INTO files (name, size) VALUES ('keep', 1)", &[]).unwrap();
        let r: std::result::Result<(), Error> =
            db.transaction(&[("files", Access::Write)], |s| {
                s.execute("INSERT INTO files (name) VALUES ('tmp')", &[])?;
                s.execute("UPDATE files SET size = 9 WHERE name = 'keep'", &[])?;
                s.execute("DELETE FROM files WHERE name = 'keep'", &[])?;
                Err(Error::ExecError("abort".into()))
            });
        assert!(r.is_err());
        let rs = db.query("SELECT name, size FROM files", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("keep"), Value::Int(1)]]);
        // the rolled-back name is free again
        db.execute("INSERT INTO files (name) VALUES ('tmp')", &[]).unwrap();
        db.table("files").unwrap().read().check_integrity().unwrap();
    }
}
