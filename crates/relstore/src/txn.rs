//! The writes of one unit: typed row mutations, their undo, and their
//! log records.
//!
//! MySQL 4.1's default MyISAM tables — what the MCS prototype ran on —
//! were non-transactional: each statement was atomic, but multi-statement
//! transactions had no isolation. relstore keeps each statement atomic
//! the same way, and adds claimed transactions
//! ([`crate::Database::transaction`]): every write of a unit — an
//! autocommit statement or a transaction — goes through `Writes`, which
//! applies it to its table, records its inverse so a failing unit (or
//! statement) rolls back as a whole, notes the table as touched, and
//! encodes its row image into the unit's WAL group. The claimed tables'
//! barriers ([`crate::lock`]) keep intermediate states invisible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::db::{lowercase, Database};
use crate::error::Result;
use crate::row::{Row, RowId};
use crate::table::Table;
use crate::value::Value;
use crate::wal::{Group, GroupMark, RowOp};

/// Inverse of one applied row write.
#[derive(Debug)]
enum UndoOp {
    /// The unit inserted this row; undo deletes it.
    Insert(RowId),
    /// The unit deleted this row; undo re-inserts it at the same id.
    Delete(RowId, Row),
    /// The unit updated this row; undo restores the old values.
    Update(RowId, Row),
}

/// A table the unit wrote.
#[derive(Debug)]
pub(crate) struct Touched {
    pub(crate) handle: Arc<RwLock<Table>>,
    /// Its write version ([`Database::table_version`]), bumped once when
    /// the unit commits or rolls back.
    pub(crate) version: Arc<AtomicU64>,
    /// Its AUTO_INCREMENT counters before the unit's first write, which a
    /// rollback restores.
    counters: Vec<i64>,
}

/// A point in a unit to undo back to: a statement that fails part-way.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mark {
    undo: usize,
    group: Option<GroupMark>,
}

/// The writes of one open unit.
#[derive(Debug)]
pub(crate) struct Writes {
    undo: Vec<(usize, UndoOp)>,
    tables: Vec<Touched>,
    /// The unit's WAL group, started at its first logged write; never on
    /// a database without a log.
    group: Option<Group>,
    durable: bool,
}

impl Writes {
    /// An empty unit of `db`, which logs its writes if `db` keeps a log.
    pub(crate) fn new(db: &Database) -> Writes {
        Writes { undo: Vec::new(), tables: Vec::new(), group: None, durable: db.is_durable() }
    }

    /// Note `t` (behind `handle`, write-locked by the caller) as written by
    /// this unit; returns its position for the write calls.
    pub(crate) fn touch(&mut self, db: &Database, handle: &Arc<RwLock<Table>>, t: &Table) -> usize {
        if let Some(i) = self.tables.iter().position(|w| Arc::ptr_eq(&w.handle, handle)) {
            return i;
        }
        self.tables.push(Touched {
            handle: Arc::clone(handle),
            version: db.version_counter(&lowercase(&t.schema.name)),
            counters: t.auto_counters().to_vec(),
        });
        self.tables.len() - 1
    }

    /// The group, started (with its `Begin` frame) at the first record.
    fn group(&mut self, db_txn_id: impl FnOnce() -> u64) -> Option<&mut Group> {
        if !self.durable {
            return None;
        }
        Some(self.group.get_or_insert_with(|| Group::new(db_txn_id())))
    }

    /// Insert `row` into `t`, the touched table at `ix`; logs its
    /// after-image, AUTO_INCREMENT values included.
    pub(crate) fn insert(
        &mut self,
        db: &Database,
        ix: usize,
        t: &mut Table,
        row: Row,
    ) -> Result<RowId> {
        let id = t.insert(row)?;
        self.undo.push((ix, UndoOp::Insert(id)));
        if let Some(g) = self.group(|| db.next_txn_id()) {
            let row = t.get(id).expect("just inserted");
            g.row(RowOp::Insert, ix, &t.schema.name, 0, row.len(), row.iter());
        }
        Ok(id)
    }

    /// Replace row `id` of `t` with `row`; logs the old row's key and the
    /// after-image.
    pub(crate) fn update(
        &mut self,
        db: &Database,
        ix: usize,
        t: &mut Table,
        id: RowId,
        row: Row,
    ) -> Result<()> {
        let old = t.update(id, row)?;
        if let Some(g) = self.group(|| db.next_txn_id()) {
            let new = t.get(id).expect("just updated");
            let values = t.key_of(&old).chain(new.iter());
            g.row(RowOp::Update, ix, &t.schema.name, t.key_columns(), new.len(), values);
        }
        self.undo.push((ix, UndoOp::Update(id, old)));
        Ok(())
    }

    /// Delete row `id` of `t`; logs its key.
    pub(crate) fn delete(
        &mut self,
        db: &Database,
        ix: usize,
        t: &mut Table,
        id: RowId,
    ) -> Result<()> {
        let old = t.delete(id)?;
        if let Some(g) = self.group(|| db.next_txn_id()) {
            g.row(RowOp::Delete, ix, &t.schema.name, t.key_columns(), 0, t.key_of(&old));
        }
        self.undo.push((ix, UndoOp::Delete(id, old)));
        Ok(())
    }

    /// Log a statement that is not a row write (DDL) as its SQL text.
    pub(crate) fn stmt(&mut self, db: &Database, sql: &str, params: &[Value]) {
        if let Some(g) = self.group(|| db.next_txn_id()) {
            g.stmt(sql, params);
        }
    }

    /// The current point, for [`Writes::undo_since`].
    pub(crate) fn mark(&self) -> Mark {
        Mark { undo: self.undo.len(), group: self.group.as_ref().map(Group::mark) }
    }

    /// Undo the writes made since `m`, all of them to `t` (one failed
    /// statement), and drop their log records.
    pub(crate) fn undo_since(&mut self, m: Mark, t: &mut Table) {
        for (_, op) in self.undo.drain(m.undo..).rev() {
            // Undoing a write this unit just made cannot fail.
            let _ = undo(t, op);
        }
        match m.group {
            Some(gm) => self.group.as_mut().expect("marked group").cut(gm),
            None => self.group = None,
        }
    }

    /// The tables this unit changed (a table whose only statement failed
    /// is unchanged), and its encoded group if it logged anything: the
    /// parts a commit needs.
    pub(crate) fn finish(self) -> (Option<Vec<u8>>, Vec<Touched>) {
        let undo = &self.undo;
        let changed = self
            .tables
            .into_iter()
            .enumerate()
            .filter(|(i, _)| undo.iter().any(|(ix, _)| ix == i))
            .map(|(_, w)| w)
            .collect();
        (self.group.map(Group::finish), changed)
    }

    /// Apply every inverse write, newest first, and restore each touched
    /// table's AUTO_INCREMENT counters; nothing reaches the log. Errors
    /// are collected rather than aborting, so a partially-conflicting
    /// rollback restores as much as possible (conflicts can only occur if
    /// another session wrote the same rows meanwhile, which the barriers
    /// prevent). Each touched table's version is bumped after its undo
    /// is applied, while the caller still holds the barriers: undo
    /// mutates row storage too.
    pub(crate) fn rollback(self) -> Result<()> {
        let mut first_err = None;
        for (ix, op) in self.undo.into_iter().rev() {
            if let Err(e) = undo(&mut self.tables[ix].handle.write(), op) {
                first_err.get_or_insert(e);
            }
        }
        for w in self.tables {
            w.handle.write().restore_auto_counters(w.counters);
            w.version.fetch_add(1, Ordering::AcqRel);
        }
        first_err.map_or(Ok(()), Err)
    }
}

fn undo(t: &mut Table, op: UndoOp) -> Result<()> {
    match op {
        UndoOp::Insert(id) => t.rollback_insert(id),
        UndoOp::Delete(id, row) => t.rollback_delete(id, row),
        UndoOp::Update(id, row) => t.rollback_update(id, row),
    }
}
