//! Durability: write-ahead logging and snapshots.
//!
//! MySQL — the backend the original MCS ran on — survives restarts; an
//! in-memory stand-in needs an explicit persistence story to be a fair
//! substitute. `relstore` logs every committed write — an autocommit
//! statement or a transaction — as one group of **row images**: each row
//! write (`crate::txn::Writes`) encodes its image into the unit's group
//! as it is made, and DDL is logged as its SQL text. A *snapshot*
//! serializes full table contents so the log can be truncated. The
//! finished group goes to the commit queue ([`crate::group_commit`]),
//! whose leader is the one writer of commit bytes. Recovery = load
//! snapshot, replay log. Torn tails (a crash mid-append) are detected by
//! the per-record checksum and cleanly ignored.
//!
//! # Log format v2 (`RSWAL002`)
//!
//! The log opens with the 8-byte magic `RSWAL002`, followed by framed
//! records `[len: u32][fnv1a(payload): u64][payload]`. The payload's first
//! byte is a tag:
//!
//! * `0x00` **Stmt** — `[sql: str][n: u32][n values]`: one statement (DDL,
//!   or any write statement of a log written before row images).
//! * `0x01` **Begin** — `[txn_id: u64]`: opens a transaction group.
//! * `0x02` **Commit** — `[txn_id: u64]`: closes the open group.
//! * `0x03` **Insert**, `0x04` **Update**, `0x05` **Delete** — row
//!   records, `[table: str][key: u32][image: u32]` then rows of `key`
//!   key values followed by `image` image values each, until the end of
//!   the payload. An Insert row is the after-image (key 0, image = the
//!   table's arity), AUTO_INCREMENT values included; an Update row is
//!   the old row's key and the after-image; a Delete row is the key
//!   alone. Consecutive writes of one kind to one table share a record.
//!
//! A row is named by its **primary key**, or by all its columns when the
//! table has none — never by its slot: a checkpoint compacts slots, so a
//! row's slot after a reopen is not the slot it had when it was logged.
//!
//! Every committed unit is journalled as `Begin, record…, Commit`, and
//! only writes that succeeded are in it. Several units' groups may share
//! one physical write and one `fsync` (group commit) — each group stays
//! self-delimiting, so a torn tail discards only the group(s) whose
//! Commit frame is missing while earlier groups from the same physical
//! write survive. Recovery buffers a group's records until its Commit
//! frame: a torn or uncommitted tail — including a crash anywhere between
//! Begin and Commit — is discarded **as a unit**, never record by
//! record, so a multi-statement catalog operation is atomic across
//! crashes. A record of a committed group ran once already, so it must
//! replay: one that fails fails the open, naming the record's byte
//! offset. A row record replays straight into its table, without the
//! parser, the planner or a barrier: an insert whose key exists, or an
//! update or delete whose row is missing, fails. An insert image carries
//! the id it drew, so replay moves each AUTO_INCREMENT counter past it;
//! since a failed write and a rolled-back transaction give their ids back
//! and log nothing, the counters end where the original run left them.
//!
//! Logs written by earlier versions hold Stmt records for row writes too,
//! which replay through SQL, and also **bare** Stmt records: an
//! autocommit statement was appended before it ran, failed or not.
//! Recovery replays them tolerantly, as they first ran: an error is
//! ignored, and a failed statement keeps the AUTO_INCREMENT values it
//! drew. Logs written before v2 carry no magic; they are detected,
//! replayed statement-wise (each record is bare), and migrated to v2 by
//! an immediate checkpoint on open.
//!
//! # Snapshot format v2 (`RSSNAP02`)
//!
//! A snapshot holds each table's schema, secondary indexes and rows, and
//! after the rows the next value of every AUTO_INCREMENT counter, so ids
//! drawn by rows deleted before the checkpoint are not handed out again.
//! An `RSSNAP01` snapshot has no counters: each restarts at the largest
//! id in the table plus one.
//!
//! ```
//! use relstore::{Database, Value};
//! use relstore::wal::SyncPolicy;
//! let dir = std::env::temp_dir().join(format!("relstore-doc-{}", std::process::id()));
//! let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
//! db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT, v VARCHAR(16))", &[]).unwrap();
//! db.execute("INSERT INTO t (v) VALUES (?)", &[Value::from("persisted")]).unwrap();
//! drop(db);
//! let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
//! let rs = db.query("SELECT v FROM t", &[]).unwrap();
//! assert_eq!(rs.rows[0][0], Value::from("persisted"));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::db::{Database, Durability};
use crate::error::{Error, Result};
use crate::index::{IndexDef, MAX_INDEX_WIDTH};
use crate::schema::{ColumnDef, TableSchema};
use crate::table::Table;
use crate::value::{Date, DateTime, Time, Value, ValueType};

/// How aggressively the log reaches stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every physical write of commit groups (safest,
    /// slowest) — the equivalent of `innodb_flush_log_at_trx_commit = 1`.
    /// [`Durability`] decides how many commits share one such write.
    EveryWrite,
    /// Let the OS flush; data survives process crashes but not power
    /// loss (MyISAM-era reality).
    OsBuffered,
}

/// Observable WAL write activity — the sync-counting hook the crash and
/// concurrency tests (and `mcs-bench`) use to *prove* group commit
/// amortizes `fsync`s instead of asserting it. `syncs`/`group_commits`/
/// `batches` only ever increase (sample before/after a workload and
/// subtract); `acked_not_durable` and `max_epoch_lag` are gauges tracking
/// [`Durability::Async`](crate::db::Durability::Async) acknowledgement
/// debt.
#[derive(Debug, Default)]
pub struct WalStats {
    /// `sync_data` calls issued (one per physical commit under
    /// [`SyncPolicy::EveryWrite`], plus the snapshot and directory syncs
    /// of a checkpoint; zero under [`SyncPolicy::OsBuffered`]).
    pub syncs: AtomicU64,
    /// Commit groups journalled (`Begin..Commit` units: one per committed
    /// autocommit write or transaction).
    pub group_commits: AtomicU64,
    /// Physical batch writes that carried at least one commit group.
    /// `group_commits / batches` is the achieved amortization factor.
    pub batches: AtomicU64,
    /// Async commits acknowledged whose groups have not yet been flushed
    /// to the log — the durability debt a crash right now would lose.
    /// Rises on async enqueue, falls when the flusher (or any drain path)
    /// lands the group; a checkpoint zeroes it (the snapshot pays every
    /// outstanding debt at once).
    pub acked_not_durable: AtomicU64,
    /// Largest `commit_epoch − durable_epoch` gap observed at async
    /// enqueue time: how far acknowledgement has ever run ahead of
    /// durability on this database. High-water mark; never decreases.
    pub max_epoch_lag: AtomicU64,
    /// Row versions pushed into MVCC history (updates + deletes while the
    /// `mvcc` flag is on). Zero on barrier-engine databases.
    pub versions_created: AtomicU64,
    /// Row versions reclaimed by vacuum.
    pub versions_vacuumed: AtomicU64,
    /// Vacuum passes completed (manual calls and background-thread runs).
    pub vacuum_runs: AtomicU64,
}

impl WalStats {
    /// Snapshot of `syncs` (relaxed; for before/after deltas in tests).
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Snapshot of `group_commits`.
    pub fn group_commit_count(&self) -> u64 {
        self.group_commits.load(Ordering::Relaxed)
    }

    /// Snapshot of `batches`.
    pub fn batch_count(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Snapshot of the `acked_not_durable` gauge.
    pub fn acked_not_durable_count(&self) -> u64 {
        self.acked_not_durable.load(Ordering::Relaxed)
    }

    /// Snapshot of the `max_epoch_lag` high-water mark.
    pub fn max_epoch_lag_seen(&self) -> u64 {
        self.max_epoch_lag.load(Ordering::Relaxed)
    }

    /// Snapshot of `versions_created`.
    pub fn versions_created_count(&self) -> u64 {
        self.versions_created.load(Ordering::Relaxed)
    }

    /// Snapshot of `versions_vacuumed`.
    pub fn versions_vacuumed_count(&self) -> u64 {
        self.versions_vacuumed.load(Ordering::Relaxed)
    }

    /// Snapshot of `vacuum_runs`.
    pub fn vacuum_run_count(&self) -> u64 {
        self.vacuum_runs.load(Ordering::Relaxed)
    }
}

/// Log file name inside the durability directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside the durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.db";
/// Magic prefix identifying a v2 log file.
pub const WAL_MAGIC: &[u8; 8] = b"RSWAL002";

/// Record payload tags (first payload byte) in a v2 log.
const TAG_STMT: u8 = 0x00;
const TAG_BEGIN: u8 = 0x01;
const TAG_COMMIT: u8 = 0x02;
const TAG_INSERT: u8 = 0x03;
const TAG_UPDATE: u8 = 0x04;
const TAG_DELETE: u8 = 0x05;

/// What a row record does to each row it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowOp {
    /// Insert the row's after-image.
    Insert,
    /// Find the row by its key, then replace it with the after-image.
    Update,
    /// Find the row by its key, then delete it.
    Delete,
}

impl RowOp {
    fn tag(self) -> u8 {
        match self {
            RowOp::Insert => TAG_INSERT,
            RowOp::Update => TAG_UPDATE,
            RowOp::Delete => TAG_DELETE,
        }
    }
}

// ---------- binary value encoding ----------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn corrupt(what: &str) -> Error {
        Error::ExecError(format!("corrupt durability file: {what}"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Self::corrupt("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Self::corrupt("non-utf8 string"))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Append one value's binary encoding.
pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            out.push(2);
            put_u64(out, f.to_bits());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Bool(b) => out.push(if *b { 5 } else { 4 }),
        Value::Date(d) => {
            out.push(6);
            put_u64(out, d.days_from_epoch() as u64);
        }
        Value::Time(t) => {
            out.push(7);
            put_u32(out, t.seconds_from_midnight());
        }
        Value::DateTime(dt) => {
            out.push(8);
            put_u64(out, dt.seconds_from_epoch() as u64);
        }
    }
}

fn decode_value(c: &mut Cursor<'_>) -> Result<Value> {
    Ok(match c.u8()? {
        0 => Value::Null,
        1 => Value::Int(c.u64()? as i64),
        2 => Value::Float(f64::from_bits(c.u64()?)),
        3 => Value::Str(c.str()?.into()),
        4 => Value::Bool(false),
        5 => Value::Bool(true),
        6 => Value::Date(Date::from_days_from_epoch(c.u64()? as i64)),
        7 => {
            let s = c.u32()?;
            Value::Time(
                Time::new((s / 3600) as u8, ((s % 3600) / 60) as u8, (s % 60) as u8)
                    .map_err(|_| Cursor::corrupt("bad time"))?,
            )
        }
        8 => Value::DateTime(DateTime::from_seconds_from_epoch(c.u64()? as i64)),
        _ => return Err(Cursor::corrupt("unknown value tag")),
    })
}

fn type_code(t: ValueType) -> u8 {
    match t {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Str => 2,
        ValueType::Bool => 3,
        ValueType::Date => 4,
        ValueType::Time => 5,
        ValueType::DateTime => 6,
    }
}

fn type_from(c: u8) -> Result<ValueType> {
    Ok(match c {
        0 => ValueType::Int,
        1 => ValueType::Float,
        2 => ValueType::Str,
        3 => ValueType::Bool,
        4 => ValueType::Date,
        5 => ValueType::Time,
        6 => ValueType::DateTime,
        _ => return Err(Cursor::corrupt("unknown type code")),
    })
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------- the write-ahead log ----------

/// Frame header bytes: `[len: u32][fnv1a(payload): u64]`.
const FRAME_HEADER: usize = 12;

/// Open a frame in `out`: a header to fill in by [`close_frame`].
/// Returns the frame's start.
fn open_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    start
}

/// Fill in the header of the frame at `start`, whose payload runs to the
/// end of `out`.
fn close_frame(out: &mut [u8], start: usize) {
    let (head, payload) = out[start..].split_at_mut(FRAME_HEADER);
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&fnv1a(payload).to_le_bytes());
}

fn marker(out: &mut Vec<u8>, tag: u8, txn_id: u64) {
    let start = open_frame(out);
    out.push(tag);
    put_u64(out, txn_id);
    close_frame(out, start);
}

fn stmt_frame(out: &mut Vec<u8>, sql: &str, params: &[Value]) {
    let start = open_frame(out);
    out.push(TAG_STMT);
    put_str(out, sql);
    put_u32(out, params.len() as u32);
    for p in params {
        encode_value(p, out);
    }
    close_frame(out, start);
}

/// A row record still taking rows: the writes of one kind to one table
/// that follow each other in a unit share a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpenRecord {
    op: RowOp,
    /// The table's position among the unit's touched tables.
    table: usize,
    start: usize,
}

/// A point in a [`Group`] to cut back to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupMark {
    len: usize,
    open: Option<OpenRecord>,
}

/// The WAL group of one write unit, encoded as its writes are made:
/// `Begin`, one frame per run of same-kind row writes to one table (or
/// per DDL statement), and `Commit` once the unit commits. The group is
/// self-delimiting: recovery applies it only once its Commit frame is
/// intact, so any number of groups can share one physical write and
/// still recover independently.
#[derive(Debug)]
pub(crate) struct Group {
    txn_id: u64,
    buf: Vec<u8>,
    open: Option<OpenRecord>,
}

impl Group {
    pub(crate) fn new(txn_id: u64) -> Group {
        let mut buf = Vec::with_capacity(1024);
        marker(&mut buf, TAG_BEGIN, txn_id);
        Group { txn_id, buf, open: None }
    }

    fn close(&mut self) {
        if let Some(r) = self.open.take() {
            close_frame(&mut self.buf, r.start);
        }
    }

    /// Append one row of `op` on `table` (the touched table at `ix`):
    /// `key` key values followed by `arity` image values.
    pub(crate) fn row<'v>(
        &mut self,
        op: RowOp,
        ix: usize,
        table: &str,
        key: usize,
        arity: usize,
        values: impl Iterator<Item = &'v Value>,
    ) {
        if !matches!(self.open, Some(r) if r.op == op && r.table == ix) {
            self.close();
            let start = open_frame(&mut self.buf);
            self.buf.push(op.tag());
            put_str(&mut self.buf, table);
            put_u32(&mut self.buf, key as u32);
            put_u32(&mut self.buf, arity as u32);
            self.open = Some(OpenRecord { op, table: ix, start });
        }
        for v in values {
            encode_value(v, &mut self.buf);
        }
    }

    /// Append a statement record (DDL).
    pub(crate) fn stmt(&mut self, sql: &str, params: &[Value]) {
        self.close();
        stmt_frame(&mut self.buf, sql, params);
    }

    pub(crate) fn mark(&self) -> GroupMark {
        GroupMark { len: self.buf.len(), open: self.open }
    }

    /// Drop everything appended since `m`.
    pub(crate) fn cut(&mut self, m: GroupMark) {
        self.buf.truncate(m.len);
        self.open = m.open;
    }

    /// The framed bytes, `Commit` included.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.close();
        marker(&mut self.buf, TAG_COMMIT, self.txn_id);
        self.buf
    }
}

/// Appends encoded commit groups to the log file. Only the commit-queue
/// leader writes through it ([`crate::group_commit`]); a checkpoint
/// replaces it with a fresh writer over an emptied log.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: BufWriter<File>,
    policy: SyncPolicy,
    stats: Arc<WalStats>,
    /// Set when an append, flush, or sync failed (ENOSPC, I/O error).
    /// After a failure the physical tail of the log is unknown — a torn
    /// frame may sit mid-file, and replay stops at the first corrupt
    /// frame — so appending anything more would silently discard every
    /// later commit at recovery. A poisoned writer rejects all further
    /// appends; `checkpoint()` rebuilds the log from scratch and attaches
    /// a fresh writer, which is the recovery path. `pub(crate)` so the
    /// poison-injection tests (here and in `epoch`/`group_commit`) can
    /// flip it without a real failing device.
    pub(crate) poisoned: bool,
}

impl WalWriter {
    fn open_append(path: &Path, policy: SyncPolicy, stats: Arc<WalStats>) -> Result<WalWriter> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| Error::ExecError(format!("open wal: {e}")))?;
        let len = file.metadata().map_err(|e| Error::ExecError(format!("wal stat: {e}")))?.len();
        let mut writer = WalWriter { file: BufWriter::new(file), policy, stats, poisoned: false };
        if len == 0 {
            // a fresh (or just-truncated) log starts with the v2 magic
            writer
                .file
                .write_all(WAL_MAGIC)
                .and_then(|()| writer.file.flush())
                .map_err(|e| Error::ExecError(format!("wal magic: {e}")))?;
        }
        Ok(writer)
    }

    /// Fail fast if an earlier append left the log tail in an unknown
    /// state (see the `poisoned` field).
    fn usable(&self) -> Result<()> {
        if self.poisoned {
            return Err(Error::ExecError(
                "wal writer poisoned by an earlier append failure; \
                 checkpoint to rebuild the log"
                    .into(),
            ));
        }
        Ok(())
    }

    fn write_bytes(&mut self, rec: &[u8], what: &str) -> Result<()> {
        match self.file.write_all(rec) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.poisoned = true;
                Err(Error::ExecError(format!("{what}: {e}")))
            }
        }
    }

    /// Flush, and sync if `force` or the policy says so; poisons the
    /// writer on failure.
    fn flush_and_sync(&mut self, force: bool) -> Result<()> {
        if let Err(e) = self.file.flush() {
            self.poisoned = true;
            return Err(Error::ExecError(format!("wal flush: {e}")));
        }
        if force || self.policy == SyncPolicy::EveryWrite {
            self.stats.syncs.fetch_add(1, Ordering::Relaxed);
            if let Err(e) = self.file.get_ref().sync_data() {
                self.poisoned = true;
                return Err(Error::ExecError(format!("wal sync: {e}")));
            }
        }
        Ok(())
    }

    /// Flush **and** sync regardless of [`SyncPolicy`] — the physical half
    /// of [`Database::sync_now`](crate::db::Database::sync_now), which must
    /// put already-acknowledged bytes on stable storage even under
    /// [`SyncPolicy::OsBuffered`].
    pub(crate) fn force_sync(&mut self) -> Result<()> {
        self.usable()?;
        self.flush_and_sync(true)
    }

    /// Append already-encoded commit groups in one buffered write followed
    /// by a **single** flush/sync — the physical half of group commit.
    /// Groups land in iteration order; each is framed so a torn tail
    /// discards only the units whose Commit frame did not make it, never
    /// an earlier group from the same write.
    pub(crate) fn append_batch<'a>(
        &mut self,
        groups: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<()> {
        self.usable()?;
        let mut n = 0u64;
        for g in groups {
            self.write_bytes(g, "wal batch append")?;
            n += 1;
        }
        if n == 0 {
            return Ok(());
        }
        self.stats.group_commits.fetch_add(n, Ordering::Relaxed);
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.flush_and_sync(false)
    }
}

/// One decoded log record.
#[derive(Debug)]
enum WalEntry {
    Stmt(String, Vec<Value>),
    Rows(RowRecord),
    Begin(u64),
    Commit(u64),
}

/// A decoded row record: rows of `key` key values then `arity` image
/// values each, for one table.
#[derive(Debug)]
pub(crate) struct RowRecord {
    pub(crate) op: RowOp,
    pub(crate) table: String,
    pub(crate) key: usize,
    pub(crate) arity: usize,
    pub(crate) values: Vec<Value>,
}

/// Read all intact records from a log; a torn tail ends replay cleanly.
/// Returns the entries with the byte offset of each record's frame,
/// whether the file used the pre-v2 format (no magic, untagged statement
/// payloads), and the byte length of the intact prefix — everything past
/// it is a torn or corrupt tail that replay can never reach, so the
/// opener truncates it away before appending anything new behind it.
fn read_wal(path: &Path) -> Result<(Vec<(u64, WalEntry)>, bool, u64)> {
    let mut out = Vec::new();
    let Ok(file) = File::open(path) else { return Ok((out, false, 0)) };
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    let legacy = match r.read_exact(&mut magic) {
        Ok(()) if &magic == WAL_MAGIC => false,
        Ok(()) => {
            // v1 log: those 8 bytes were record data — start over
            let file = File::open(path).map_err(|e| Error::ExecError(format!("wal: {e}")))?;
            r = BufReader::new(file);
            true
        }
        // shorter than a magic: an (empty or torn) v2 file has nothing to
        // replay; a v1 file this short holds no complete record either
        Err(_) => return Ok((out, false, 0)),
    };
    let mut valid_len: u64 = if legacy { 0 } else { WAL_MAGIC.len() as u64 };
    let mut header = [0u8; 12];
    loop {
        match r.read_exact(&mut header) {
            Ok(()) => {}
            Err(_) => break, // clean or torn end-of-log
        }
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4")) as usize;
        let checksum = u64::from_le_bytes(header[4..12].try_into().expect("8"));
        if len > 64 * 1024 * 1024 {
            break; // implausible length: torn record
        }
        let mut payload = vec![0u8; len];
        if r.read_exact(&mut payload).is_err() {
            break; // torn tail
        }
        if fnv1a(&payload) != checksum {
            break; // corrupt tail
        }
        let mut c = Cursor::new(&payload);
        let entry = if legacy {
            decode_stmt(&mut c)?
        } else {
            match c.u8()? {
                TAG_STMT => decode_stmt(&mut c)?,
                TAG_BEGIN => WalEntry::Begin(c.u64()?),
                TAG_COMMIT => WalEntry::Commit(c.u64()?),
                TAG_INSERT => decode_rows(&mut c, RowOp::Insert)?,
                TAG_UPDATE => decode_rows(&mut c, RowOp::Update)?,
                TAG_DELETE => decode_rows(&mut c, RowOp::Delete)?,
                _ => return Err(Cursor::corrupt("unknown wal record tag")),
            }
        };
        out.push((valid_len, entry));
        valid_len += (header.len() + len) as u64;
    }
    Ok((out, legacy, valid_len))
}

fn decode_rows(c: &mut Cursor<'_>, op: RowOp) -> Result<WalEntry> {
    let table = c.str()?;
    let key = c.u32()? as usize;
    let arity = c.u32()? as usize;
    let mut values = Vec::new();
    while !c.done() {
        values.push(decode_value(c)?);
    }
    if key + arity == 0 || values.len() % (key + arity) != 0 {
        return Err(Cursor::corrupt("row record of a partial row"));
    }
    Ok(WalEntry::Rows(RowRecord { op, table, key, arity, values }))
}

fn decode_stmt(c: &mut Cursor<'_>) -> Result<WalEntry> {
    let sql = c.str()?;
    let n = c.u32()? as usize;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(decode_value(c)?);
    }
    Ok(WalEntry::Stmt(sql, params))
}

// ---------- snapshots ----------

/// Magic of the current snapshot format, which stores AUTO_INCREMENT
/// counters; [`SNAPSHOT_MAGIC_V1`] snapshots still load.
const SNAPSHOT_MAGIC: &[u8; 8] = b"RSSNAP02";
const SNAPSHOT_MAGIC_V1: &[u8; 8] = b"RSSNAP01";

fn snapshot_bytes(db: &Database) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    let names = db.table_names();
    put_u32(&mut out, names.len() as u32);
    for name in names {
        let handle = db.table(&name)?;
        let t = handle.read();
        // schema
        put_str(&mut out, &t.schema.name);
        put_u32(&mut out, t.schema.columns.len() as u32);
        for col in &t.schema.columns {
            put_str(&mut out, &col.name);
            out.push(type_code(col.ty));
            out.push(u8::from(col.nullable));
            put_u32(&mut out, col.max_len.map_or(u32::MAX, |m| m as u32));
            match &col.default {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    encode_value(v, &mut out);
                }
            }
            out.push(u8::from(col.auto_increment));
        }
        put_u32(&mut out, t.schema.primary_key.len() as u32);
        for &pk in &t.schema.primary_key {
            put_u32(&mut out, pk as u32);
        }
        // secondary indexes (the implicit pk index is rebuilt by Table::new)
        let pk_name = format!("pk_{}", t.schema.name);
        let secondary: Vec<&IndexDef> = t
            .indexes()
            .iter()
            .map(|ix| &ix.def)
            .filter(|d| d.name != pk_name)
            .collect();
        put_u32(&mut out, secondary.len() as u32);
        for d in secondary {
            put_str(&mut out, &d.name);
            out.push(u8::from(d.unique));
            put_u32(&mut out, d.columns.len() as u32);
            for &c in &d.columns {
                put_u32(&mut out, c as u32);
            }
        }
        // rows
        put_u32(&mut out, t.len() as u32);
        for (_, row) in t.scan() {
            for v in row {
                encode_value(v, &mut out);
            }
        }
        for &next in t.auto_counters() {
            put_u64(&mut out, next as u64);
        }
    }
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    Ok(out)
}

fn load_snapshot(db: &Database, bytes: &[u8]) -> Result<()> {
    let counters = match bytes.get(..8) {
        Some(m) if m == SNAPSHOT_MAGIC => true,
        Some(m) if m == SNAPSHOT_MAGIC_V1 => false,
        _ => return Err(Cursor::corrupt("bad snapshot magic")),
    };
    if bytes.len() < 16 {
        return Err(Cursor::corrupt("truncated snapshot"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8"));
    if fnv1a(body) != stored {
        return Err(Cursor::corrupt("snapshot checksum mismatch"));
    }
    let mut c = Cursor::new(&body[8..]);
    let n_tables = c.u32()?;
    for _ in 0..n_tables {
        let name = c.str()?;
        let n_cols = c.u32()?;
        let mut cols = Vec::with_capacity(n_cols as usize);
        for _ in 0..n_cols {
            let cname = c.str()?;
            let ty = type_from(c.u8()?)?;
            let nullable = c.u8()? == 1;
            let max_len = match c.u32()? {
                u32::MAX => None,
                m => Some(m as usize),
            };
            let default = match c.u8()? {
                0 => None,
                _ => Some(decode_value(&mut c)?),
            };
            let auto_increment = c.u8()? == 1;
            cols.push(ColumnDef { name: cname, ty, nullable, max_len, default, auto_increment });
        }
        let n_pk = c.u32()?;
        let mut pk_cols = Vec::with_capacity(n_pk as usize);
        for _ in 0..n_pk {
            pk_cols.push(c.u32()? as usize);
        }
        if pk_cols.len() > MAX_INDEX_WIDTH {
            return Err(Cursor::corrupt("primary key wider than an index"));
        }
        let mut schema = TableSchema::new(&name, cols, &[])?;
        schema.primary_key = pk_cols;
        let arity = schema.arity();
        let mut table = Table::new(schema);
        let n_ix = c.u32()?;
        for _ in 0..n_ix {
            let ix_name = c.str()?;
            let unique = c.u8()? == 1;
            let n = c.u32()?;
            let mut columns = Vec::with_capacity(n as usize);
            for _ in 0..n {
                columns.push(c.u32()? as usize);
            }
            table.create_index(IndexDef { name: ix_name, unique, columns })?;
        }
        let n_rows = c.u32()?;
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(decode_value(&mut c)?);
            }
            table.insert(row)?;
        }
        // Without stored counters, inserting the rows left each at the
        // largest id plus one.
        if counters {
            let next = (0..arity).map(|_| Ok(c.u64()? as i64)).collect::<Result<_>>()?;
            table.restore_auto_counters(next);
        }
        db.add_table(table)?;
    }
    if !c.done() {
        return Err(Cursor::corrupt("trailing bytes in snapshot"));
    }
    Ok(())
}

impl Database {
    /// Open (or create) a durable database rooted at `dir`: load the
    /// snapshot if present, replay the write-ahead log, and attach a log
    /// writer so subsequent writes persist.
    pub fn open_durable(dir: impl AsRef<Path>, policy: SyncPolicy) -> Result<Arc<Database>> {
        Self::open_durable_with(dir, policy, Durability::Always)
    }

    /// [`Database::open_durable`] with an explicit commit [`Durability`]
    /// policy: `Durability::Always` syncs once per commit;
    /// `Durability::Group { .. }` batches concurrent commits so many
    /// share one sync (see [`crate::group_commit`]).
    pub fn open_durable_with(
        dir: impl AsRef<Path>,
        policy: SyncPolicy,
        durability: Durability,
    ) -> Result<Arc<Database>> {
        Self::open_durable_opts(dir, policy, durability, false)
    }

    /// [`Database::open_durable_with`] with the MVCC engine selectable:
    /// `mvcc = true` opens the database with version-chain snapshot reads
    /// ([`Database::new_mvcc`]). The on-disk formats are identical either
    /// way — replay rebuilds version state in memory (one epoch per
    /// replayed unit) and a post-replay vacuum collapses every chain back
    /// to single-version state, so a log written by one engine opens under
    /// the other.
    pub fn open_durable_opts(
        dir: impl AsRef<Path>,
        policy: SyncPolicy,
        durability: Durability,
        mvcc: bool,
    ) -> Result<Arc<Database>> {
        let dir: PathBuf = dir.as_ref().to_owned();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::ExecError(format!("create {dir:?}: {e}")))?;
        let db = Arc::new(if mvcc { Database::new_mvcc() } else { Database::new() });
        let snap_path = dir.join(SNAPSHOT_FILE);
        if let Ok(bytes) = std::fs::read(&snap_path) {
            load_snapshot(&db, &bytes)?;
        }
        let wal_path = dir.join(WAL_FILE);
        let (entries, legacy, valid_len) = read_wal(&wal_path)?;
        // A torn or corrupt tail ends replay for good: no future recovery
        // reads past it. Appending new commits *behind* it would durably
        // write data that is already unreachable, so cut the log back to
        // its intact prefix before attaching the writer.
        if let Ok(md) = std::fs::metadata(&wal_path) {
            if md.len() > valid_len {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&wal_path)
                    .and_then(|f| f.set_len(valid_len))
                    .map_err(|e| Error::ExecError(format!("wal truncate torn tail: {e}")))?;
            }
        }
        // Records inside a Begin..Commit group apply only once the Commit
        // frame is seen, and must apply; a group cut off by the end of the
        // log is discarded as a unit. Bare statements (older logs) apply
        // immediately, as tolerantly as they first ran.
        let mut group: Option<(u64, Vec<(u64, WalEntry)>)> = None;
        for (offset, entry) in entries {
            match entry {
                WalEntry::Stmt(..) | WalEntry::Rows(_) if group.is_some() => {
                    group.as_mut().expect("checked").1.push((offset, entry));
                }
                WalEntry::Stmt(sql, params) => {
                    let _ = db.replay(&sql, &params, true);
                }
                // The engine writes row records only inside groups.
                WalEntry::Rows(_) => {
                    return Err(Cursor::corrupt(&format!(
                        "a row record outside a commit group at byte {offset} of {}",
                        wal_path.display()
                    )))
                }
                // Begin while a group is open means the previous group
                // never committed — drop it (defensive; the writer never
                // interleaves groups).
                WalEntry::Begin(id) => group = Some((id, Vec::new())),
                WalEntry::Commit(id) => {
                    // a Commit applies only the group its id opened;
                    // a stray or mismatched Commit discards nothing bare
                    match group.take() {
                        Some((begin_id, records)) if begin_id == id => {
                            for (offset, record) in records {
                                let applied = match record {
                                    WalEntry::Stmt(sql, params) => db.replay(&sql, &params, false),
                                    WalEntry::Rows(rows) => db.replay_rows(rows),
                                    _ => unreachable!("groups hold statements and rows"),
                                };
                                applied.map_err(|e| {
                                    Cursor::corrupt(&format!(
                                        "the committed record at byte {offset} of {} \
                                         fails to replay: {e}",
                                        wal_path.display()
                                    ))
                                })?;
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        if mvcc {
            // Replay built version chains (one epoch per replayed unit);
            // nothing is pinned yet, so this collapses every chain back to
            // single-version state and clears dangling index entries.
            db.vacuum();
        }
        let writer = WalWriter::open_append(&dir.join(WAL_FILE), policy, db.wal_stats_arc())?;
        db.attach_wal(writer, dir);
        db.set_durability(durability);
        if legacy {
            // Migrate a pre-v2 log: checkpointing folds it into the
            // snapshot and rewrites an empty log with the v2 magic.
            db.checkpoint()?;
        }
        Ok(db)
    }

    /// Write a snapshot of the current state and truncate the log
    /// (checkpoint). Pauses logging for the duration. No-op on a
    /// non-durable database.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(dir) = self.durable_dir() else {
            return Err(Error::ExecError("checkpoint on a non-durable database".into()));
        };
        // Quiesce: take every table barrier exclusively so no statement or
        // transaction is mid-flight while we snapshot — otherwise the
        // snapshot could capture uncommitted (not-yet-journalled) state.
        let _quiesce = self.barriers().quiesce_guard(&self.table_names())?;
        // Drain the group-commit queue: a queued group's effects are
        // already in table state (and will be in the snapshot), so its
        // frames must land in the *old* log — after truncation they would
        // replay on top of the snapshot and double-apply.
        self.flush_commit_queue()?;
        // Hold the WAL lock across the whole checkpoint so no write can
        // slip between snapshot and truncation.
        let mut wal = self.wal_lock();
        let bytes = snapshot_bytes(self)?;
        let policy = wal.as_ref().map_or(SyncPolicy::OsBuffered, |w| w.policy);
        // Under `EveryWrite` the snapshot must be on stable storage, and
        // its name in the directory, before the log that covers the same
        // state is truncated: otherwise a power cut after the truncate
        // can leave neither. Both syncs count in `WalStats::syncs`.
        let durable = policy == SyncPolicy::EveryWrite;
        let io =
            |what: &'static str| move |e: std::io::Error| Error::ExecError(format!("{what}: {e}"));
        let tmp = dir.join("snapshot.tmp");
        let mut f = File::create(&tmp).map_err(io("snapshot"))?;
        f.write_all(&bytes).map_err(io("snapshot"))?;
        if durable {
            self.wal_stats().syncs.fetch_add(1, Ordering::Relaxed);
            f.sync_all().map_err(io("snapshot sync"))?;
        }
        drop(f);
        std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE)).map_err(io("snapshot rename"))?;
        if durable {
            self.wal_stats().syncs.fetch_add(1, Ordering::Relaxed);
            File::open(&dir).and_then(|d| d.sync_all()).map_err(io("directory sync"))?;
        }
        std::fs::write(dir.join(WAL_FILE), b"")
            .map_err(|e| Error::ExecError(format!("wal truncate: {e}")))?;
        *wal = Some(WalWriter::open_append(&dir.join(WAL_FILE), policy, self.wal_stats_arc())?);
        // The snapshot captured the effects of every epoch allocated so
        // far (the quiesce guard means none is mid-allocation), so they
        // are all durable now — raise the watermark, clear any poison
        // failure, and zero the async-debt gauge. This is also how
        // `wait_for_epoch` callers stranded by a poisoned writer get
        // unstuck.
        self.epoch_gate().recover(self.commit_epoch());
        self.wal_stats().acked_not_durable.store(0, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "relstore-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// A committed group of statement records, the shape the engine
    /// logged before row images.
    fn stmt_group(txn_id: u64, records: &[(&str, &[Value])]) -> Vec<u8> {
        let mut out = Vec::new();
        marker(&mut out, TAG_BEGIN, txn_id);
        for (sql, params) in records {
            stmt_frame(&mut out, sql, params);
        }
        marker(&mut out, TAG_COMMIT, txn_id);
        out
    }

    fn seed(db: &Database) {
        db.execute_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT,
                             name VARCHAR(32) NOT NULL, v INTEGER);
             CREATE UNIQUE INDEX t_name ON t (name);",
        )
        .unwrap();
        db.execute("INSERT INTO t (name, v) VALUES ('a', 1), ('b', 2)", &[]).unwrap();
    }

    #[test]
    fn reopen_replays_log() {
        let dir = tmpdir("replay");
        {
            let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
            seed(&db);
            db.execute("UPDATE t SET v = 9 WHERE name = 'a'", &[]).unwrap();
            db.execute("DELETE FROM t WHERE name = 'b'", &[]).unwrap();
        } // "crash": no checkpoint
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        let rs = db.query("SELECT name, v FROM t", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("a"), Value::Int(9)]]);
        // indexes rebuilt and functional
        assert!(db.execute("INSERT INTO t (name) VALUES ('a')", &[]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_and_recovers() {
        let dir = tmpdir("ckpt");
        {
            let db = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
            seed(&db);
            db.checkpoint().unwrap();
            let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
            assert_eq!(
                wal_len,
                WAL_MAGIC.len() as u64,
                "checkpoint must truncate the log down to the magic"
            );
            db.execute("INSERT INTO t (name, v) VALUES ('c', 3)", &[]).unwrap();
        }
        let db = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
        let rs = db.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3)); // snapshot (2) + log (1)
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let dir = tmpdir("torn");
        {
            let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
            seed(&db);
        }
        // simulate a crash mid-append: garbage half-record at the tail
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(dir.join(WAL_FILE)).unwrap();
            f.write_all(&[0x55; 7]).unwrap();
        }
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        let rs = db.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_value_types_survive_snapshot() {
        let dir = tmpdir("types");
        {
            let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
            db.execute_script(
                "CREATE TABLE v (i INTEGER, f DOUBLE, s TEXT, b BOOLEAN,
                                 d DATE, t TIME, dt DATETIME)",
            )
            .unwrap();
            db.execute(
                "INSERT INTO v VALUES (?, ?, ?, ?, DATE '2003-11-15', ?, ?)",
                &[
                    Value::Int(-5),
                    Value::Float(2.5),
                    Value::from("strings & <xml>"),
                    Value::Bool(true),
                    Value::parse_as("23:59:59", ValueType::Time).unwrap(),
                    Value::parse_as("2003-11-15 08:00:00", ValueType::DateTime).unwrap(),
                ],
            )
            .unwrap();
            db.execute("INSERT INTO v (i) VALUES (NULL)", &[]).unwrap();
            db.checkpoint().unwrap();
        }
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        let rs = db.query("SELECT * FROM v ORDER BY i DESC", &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Int(-5));
        assert_eq!(rs.rows[0][2], Value::from("strings & <xml>"));
        assert!(matches!(rs.rows[0][4], Value::Date(_)));
        assert!(matches!(rs.rows[0][6], Value::DateTime(_)));
        assert!(rs.rows[1].iter().all(Value::is_null));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_increment_continues_after_recovery() {
        for checkpoint in [false, true] {
            let dir = tmpdir(&format!("autoinc-{checkpoint}"));
            {
                let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
                seed(&db);
                db.execute("DELETE FROM t WHERE name = 'b'", &[]).unwrap();
                if checkpoint {
                    db.checkpoint().unwrap();
                }
            }
            let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
            let r = db.execute("INSERT INTO t (name) VALUES ('c')", &[]).unwrap();
            // id 2 was used by 'b' before deletion: replay of the original
            // inserts advances the counter past it, and a snapshot taken
            // after the delete stores the counter
            assert_eq!(r.last_insert_id, Some(3), "checkpoint {checkpoint}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn checkpoint_syncs_snapshot_and_directory_before_truncating() {
        let syncs = |policy: SyncPolicy| {
            let dir = tmpdir(&format!("ckpt-sync-{policy:?}"));
            let db = Database::open_durable(&dir, policy).unwrap();
            seed(&db);
            let before = db.wal_stats().sync_count();
            db.checkpoint().unwrap();
            let synced = db.wal_stats().sync_count() - before;
            drop(db);
            std::fs::remove_dir_all(&dir).ok();
            synced
        };
        assert!(syncs(SyncPolicy::EveryWrite) >= 2);
        assert_eq!(syncs(SyncPolicy::OsBuffered), 0);
    }

    #[test]
    fn checkpoint_requires_durability() {
        let db = Database::new();
        assert!(db.checkpoint().is_err());
    }

    #[test]
    fn committed_group_survives_reopen() {
        let dir = tmpdir("group-commit");
        {
            let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
            seed(&db);
        }
        {
            let stats = Arc::new(WalStats::default());
            let mut w =
                WalWriter::open_append(&dir.join(WAL_FILE), SyncPolicy::EveryWrite, stats).unwrap();
            let group = stmt_group(
                7,
                &[
                    ("INSERT INTO t (name, v) VALUES (?, ?)", &[Value::from("c"), Value::Int(3)]),
                    ("UPDATE t SET v = 30 WHERE name = 'c'", &[]),
                ],
            );
            w.append_batch([group.as_slice()]).unwrap();
        }
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        let rs = db.query("SELECT v FROM t WHERE name = 'c'", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(30)]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_group_is_discarded_as_unit() {
        let dir = tmpdir("group-torn");
        {
            let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
            seed(&db);
        }
        // Begin + statements but no Commit frame — the crash happened
        // after some of the group's records reached disk.
        {
            use std::io::Write;
            let mut rec = Vec::new();
            marker(&mut rec, TAG_BEGIN, 9);
            stmt_frame(&mut rec, "INSERT INTO t (name, v) VALUES ('x', 8)", &[]);
            stmt_frame(&mut rec, "DELETE FROM t WHERE name = 'a'", &[]);
            let mut f = OpenOptions::new().append(true).open(dir.join(WAL_FILE)).unwrap();
            f.write_all(&rec).unwrap();
        }
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        // neither the insert nor the delete applied: all-or-nothing
        let rs = db.query("SELECT name FROM t ORDER BY name", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("a")], vec![Value::from("b")]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_commit_frame_discards_group() {
        let dir = tmpdir("group-torn-commit");
        let wal_path = dir.join(WAL_FILE);
        {
            let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
            seed(&db);
        }
        let base = std::fs::metadata(&wal_path).unwrap().len();
        {
            let stats = Arc::new(WalStats::default());
            let mut w =
                WalWriter::open_append(&wal_path, SyncPolicy::EveryWrite, stats).unwrap();
            let insert = "INSERT INTO t (name, v) VALUES ('y', 9)";
            let group = stmt_group(11, &[(insert, &[])]);
            w.append_batch([group.as_slice()]).unwrap();
        }
        // cut into the trailing Commit frame (12-byte header + 9 payload)
        let full = std::fs::metadata(&wal_path).unwrap().len();
        assert!(full > base + 10);
        let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(full - 10).unwrap();
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        let rs = db.query("SELECT COUNT(*) FROM t WHERE name = 'y'", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_v1_log_is_replayed_and_migrated() {
        let dir = tmpdir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        // Hand-write a v1 log: no magic, untagged statement payloads.
        let mut log = Vec::new();
        for sql in [
            "CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT, name VARCHAR(32))",
            "INSERT INTO t (name) VALUES ('v1-row')",
        ] {
            let start = open_frame(&mut log);
            put_str(&mut log, sql);
            put_u32(&mut log, 0);
            close_frame(&mut log, start);
        }
        std::fs::write(dir.join(WAL_FILE), &log).unwrap();
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        let rs = db.query("SELECT name FROM t", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("v1-row")]]);
        // migration checkpointed: log now v2 (magic only), snapshot exists
        let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(&wal_bytes, WAL_MAGIC);
        assert!(dir.join(SNAPSHOT_FILE).exists());
        // and a further reopen still sees the data
        drop(db);
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0], Value::Int(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_failure_poisons_the_writer() {
        // /dev/full yields a deterministic ENOSPC on flush (Linux);
        // elsewhere there is no cheap way to force the failure — skip.
        let Ok(file) = OpenOptions::new().write(true).open("/dev/full") else { return };
        let mut w = WalWriter {
            file: BufWriter::new(file),
            policy: SyncPolicy::EveryWrite,
            stats: Arc::new(WalStats::default()),
            poisoned: false,
        };
        let group = |v: i64| {
            stmt_group(7, &[("INSERT INTO t (v) VALUES (?)", &[Value::Int(v)])])
        };
        assert!(w.append_batch([group(1).as_slice()]).is_err());
        assert!(w.poisoned);
        // every further append must fail fast: the tail may hold a torn
        // frame, and replay stops at the first corrupt frame, so anything
        // appended after it would be silently dropped at recovery
        assert!(w.append_batch([group(2).as_slice()]).is_err());
        assert!(w.append_batch([b"g".as_slice()]).is_err());
        assert_eq!(w.stats.sync_count(), 0, "must not sync after a failed flush");
    }

    #[test]
    fn checkpoint_recovers_a_poisoned_writer() {
        let dir = tmpdir("poison-ckpt");
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        seed(&db);
        // what a failed append does: poison the writer, fail the gate
        db.wal_lock().as_mut().unwrap().poisoned = true;
        db.epoch_gate().fail("injected");
        // refused before it runs, so no write is applied that the log lacks
        assert!(db.execute("INSERT INTO t (name) VALUES ('c')", &[]).is_err());
        // checkpoint folds table state into the snapshot and attaches a
        // fresh writer over an empty log — the documented recovery path
        db.checkpoint().unwrap();
        db.execute("INSERT INTO t (name) VALUES ('c')", &[]).unwrap();
        drop(db);
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0], Value::Int(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A poisoned writer must fail pending `wait_for_epoch` callers
    /// promptly — an acked async commit whose group can no longer reach
    /// the log is a broken promise, and hanging forever would hide it.
    /// `checkpoint()` is the recovery path: it folds the (already
    /// visible) effects into the snapshot, which makes every allocated
    /// epoch durable and clears the failure.
    #[test]
    fn poisoned_writer_fails_pending_wait_for_epoch() {
        // /dev/full yields a deterministic ENOSPC on flush (Linux) — the
        // flusher's batched append will fail and poison the writer.
        let Ok(full) = OpenOptions::new().write(true).open("/dev/full") else { return };
        let dir = tmpdir("poison-epoch");
        let db = Database::open_durable_with(
            &dir,
            SyncPolicy::EveryWrite,
            crate::db::Durability::Async {
                max_wait: std::time::Duration::from_millis(5),
                max_batch: 64,
            },
        )
        .unwrap();
        db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
        // The CREATE was an async commit too: land it on the real log.
        db.sync_now().unwrap();
        // Swap the log device for the full one; the async enqueue below
        // never touches the WAL, so the ack still succeeds.
        *db.wal_lock() = Some(WalWriter {
            file: BufWriter::new(full),
            policy: SyncPolicy::EveryWrite,
            stats: db.wal_stats_arc(),
            poisoned: false,
        });
        let ctx = crate::db::OpCtx::default();
        let ((), epoch) = db
            .transaction_in(&ctx, &[("t", crate::lock::Access::Write)], |s| {
                s.execute("INSERT INTO t (v) VALUES (1)", &[])?;
                Ok::<_, Error>(())
            })
            .unwrap();
        assert!(epoch > 0);
        let r = db.wait_for_epoch(epoch);
        assert!(
            matches!(r, Err(Error::DurabilityLost(_))),
            "waiter must fail, not hang: {r:?}"
        );
        assert_eq!(db.wal_stats().acked_not_durable_count(), 1);
        // Recovery: the checkpoint snapshot carries the insert, so the
        // epoch's durability promise is kept after all.
        db.checkpoint().unwrap();
        db.wait_for_epoch(epoch).unwrap();
        assert_eq!(db.wal_stats().acked_not_durable_count(), 0);
        drop(db);
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0], Value::Int(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_statements_replay_harmlessly() {
        let dir = tmpdir("failed");
        let c_id = |db: &Database| db.query("SELECT id FROM t WHERE name = 'c'", &[]).unwrap().rows;
        let before = {
            let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
            seed(&db);
            // fails: duplicate key
            assert!(db.execute("INSERT INTO t (name) VALUES ('a')", &[]).is_err());
            db.execute("INSERT INTO t (name) VALUES ('c')", &[]).unwrap();
            c_id(&db)
        };
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        let rs = db.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
        assert_eq!(c_id(&db), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A statement of a committed group ran once, so it must replay: one
    /// that does not fails the open and names the record's byte offset.
    #[test]
    fn committed_group_that_fails_to_replay_fails_the_open() {
        let dir = tmpdir("group-fails");
        {
            let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
            seed(&db);
        }
        let wal_path = dir.join(WAL_FILE);
        let offset = std::fs::metadata(&wal_path).unwrap().len();
        {
            let mut w =
                WalWriter::open_append(&wal_path, SyncPolicy::EveryWrite, Arc::default()).unwrap();
            let group = stmt_group(
                5,
                &[
                    ("INSERT INTO t (name, v) VALUES ('m', 1)", &[]),
                    ("INSERT INTO missing (v) VALUES (1)", &[]),
                ],
            );
            w.append_batch([group.as_slice()]).unwrap();
        }
        // the second statement's frame follows the Begin frame (12-byte
        // header + 9) and the first statement's
        let mut first = Vec::new();
        stmt_frame(&mut first, "INSERT INTO t (name, v) VALUES ('m', 1)", &[]);
        let at = offset + 21 + first.len() as u64;
        let err = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap_err().to_string();
        assert!(err.contains(&format!("at byte {at} ")), "{err}");
        assert!(err.contains("missing"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A row record of a committed group that does not apply — an insert
    /// whose primary key exists, a delete whose row is missing — fails the
    /// open, naming the record's byte offset.
    #[test]
    fn row_image_that_does_not_apply_fails_the_open() {
        let cases: [(RowOp, usize, usize, Vec<Value>); 2] = [
            (RowOp::Insert, 0, 3, vec![Value::Int(1), Value::from("z"), Value::Int(5)]),
            (RowOp::Delete, 1, 0, vec![Value::Int(99)]),
        ];
        for (op, key, arity, values) in cases {
            let dir = tmpdir(&format!("rows-fail-{op:?}"));
            seed(&Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap());
            let wal_path = dir.join(WAL_FILE);
            let offset = std::fs::metadata(&wal_path).unwrap().len();
            let mut group = Group::new(5);
            group.row(op, 0, "t", key, arity, values.iter());
            let mut w =
                WalWriter::open_append(&wal_path, SyncPolicy::EveryWrite, Arc::default()).unwrap();
            w.append_batch([group.finish().as_slice()]).unwrap();
            drop(w);
            // the record follows the Begin frame (12-byte header + 9)
            let err = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap_err().to_string();
            assert!(err.contains(&format!("at byte {} ", offset + 21)), "{op:?}: {err}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The engine writes row records only inside commit groups: one found
    /// outside fails the open instead of being skipped.
    #[test]
    fn row_image_outside_a_group_fails_the_open() {
        let dir = tmpdir("rows-stray");
        seed(&Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap());
        let mut log = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let start = open_frame(&mut log);
        log.push(TAG_INSERT);
        put_str(&mut log, "t");
        put_u32(&mut log, 0);
        put_u32(&mut log, 3);
        for v in [Value::Int(9), Value::from("z"), Value::Int(5)] {
            encode_value(&v, &mut log);
        }
        close_frame(&mut log, start);
        std::fs::write(dir.join(WAL_FILE), &log).unwrap();
        let err = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap_err().to_string();
        assert!(err.contains("outside a commit group"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A log of statement groups, as the engine wrote before row images,
    /// followed by row-image groups opens to both: the rows, and counters
    /// past every id an image carries.
    #[test]
    fn row_image_groups_after_statement_groups_open() {
        let dir = tmpdir("rows-after-stmts");
        std::fs::create_dir_all(&dir).unwrap();
        let mut log = WAL_MAGIC.to_vec();
        log.extend(stmt_group(
            1,
            &[
                ("CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT, name VARCHAR(32), v INTEGER)", &[]),
                ("INSERT INTO t (name, v) VALUES ('a', 1), ('b', 2)", &[]),
            ],
        ));
        std::fs::write(dir.join(WAL_FILE), &log).unwrap();
        {
            let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
            db.transaction(&[("t", crate::lock::Access::Write)], |s| {
                s.insert("t", vec![Value::Null, "c".into(), Value::Int(3)])?;
                let a = s.lookup("t", "pk_t", &[Value::Int(1)])?;
                s.delete("t", a[0])
            })
            .unwrap();
            db.execute("UPDATE t SET v = 9 WHERE name = 'b'", &[]).unwrap();
        }
        let db = Database::open_durable(&dir, SyncPolicy::EveryWrite).unwrap();
        let rs = db.query("SELECT id, name, v FROM t ORDER BY id", &[]).unwrap();
        let row = |id: i64, name: &str, v: i64| vec![Value::Int(id), name.into(), Value::Int(v)];
        assert_eq!(rs.rows, vec![row(2, "b", 9), row(3, "c", 3)]);
        let next = db.execute("INSERT INTO t (name) VALUES ('d')", &[]).unwrap();
        assert_eq!(next.last_insert_id, Some(4));
        std::fs::remove_dir_all(&dir).ok();
    }
}
