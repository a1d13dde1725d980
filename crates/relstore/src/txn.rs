//! Undo logs for transaction rollback.
//!
//! MySQL 4.1's default MyISAM tables — what the MCS prototype ran on —
//! were non-transactional: each statement was atomic, but multi-statement
//! transactions had no isolation. relstore keeps each statement atomic
//! the same way, and adds claimed transactions
//! ([`crate::Database::transaction`]): an [`UndoLog`] records inverse
//! operations so a transaction whose closure fails rolls back as a whole
//! (needed by the catalog's multi-table creates), while the claimed
//! tables' barriers ([`crate::lock`]) keep its intermediate states
//! invisible.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::Result;
use crate::row::{Row, RowId};
use crate::table::Table;

/// Inverse of one applied write.
#[derive(Debug)]
pub(crate) enum UndoOp {
    /// The statement inserted this row; undo deletes it.
    UndoInsert(RowId),
    /// The statement deleted this row; undo re-inserts it at the same id.
    UndoDelete(RowId, Row),
    /// The statement updated this row; undo restores the old values.
    UndoUpdate(RowId, Row),
    /// The statement drew AUTO_INCREMENT values; undo gives them back by
    /// restoring the counters it found.
    UndoCounters(Vec<i64>),
}

/// Undo log for an open transaction.
#[derive(Debug, Default)]
pub struct UndoLog {
    entries: Vec<(Arc<RwLock<Table>>, UndoOp)>,
}

impl UndoLog {
    /// Record an inverse operation.
    pub(crate) fn push(&mut self, table: Arc<RwLock<Table>>, op: UndoOp) {
        self.entries.push((table, op));
    }

    /// Number of recorded writes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lowercased names of the tables this log will mutate on rollback,
    /// deduped (for write-version bumps after the undo is applied).
    pub(crate) fn touched_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .entries
            .iter()
            .map(|(t, _)| t.read().schema.name.to_ascii_lowercase())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Apply all inverse operations, newest first. Errors are collected
    /// rather than aborting, so a partially-conflicting rollback restores
    /// as much as possible (conflicts can only occur if another session
    /// wrote the same rows meanwhile, which the catalog never does).
    pub(crate) fn rollback(self) -> Result<()> {
        let mut first_err = None;
        for (table, op) in self.entries.into_iter().rev() {
            let mut t = table.write();
            let r = match op {
                UndoOp::UndoInsert(id) => t.rollback_insert(id),
                UndoOp::UndoDelete(id, row) => t.rollback_delete(id, row),
                UndoOp::UndoUpdate(id, row) => t.rollback_update(id, row),
                UndoOp::UndoCounters(counters) => {
                    t.restore_auto_counters(counters);
                    Ok(())
                }
            };
            if let Err(e) = r {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}
