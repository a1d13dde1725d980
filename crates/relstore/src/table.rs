//! Heap storage for one table plus its indexes.
//!
//! With MVCC enabled (see [`crate::mvcc`] and DESIGN.md §7.5) each slot
//! additionally carries a version chain: the heap keeps the *latest*
//! physical image (so the non-MVCC fast paths are untouched), a parallel
//! `meta` vector stamps that image with the commit epoch that created it,
//! and superseded images move into per-slot history, stamped with the
//! `(begin, end)` epochs that bound their visibility. Index entries are
//! **not** removed on update/delete while MVCC is on — an old snapshot
//! still needs the old keys — so readers visibility-filter candidates and
//! vacuum removes entries once no snapshot can reach them.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, ThreadId};

use crate::error::{Error, Result};
use crate::index::{Index, IndexDef, IndexKey, MAX_INDEX_WIDTH};
use crate::row::{Row, RowId};
use crate::schema::TableSchema;
use crate::value::{Value, ValueType};
use crate::wal::WalStats;

/// Visibility stamp on a row image: either the commit epoch that made it,
/// or the thread of the uncommitted writer that produced it (pending
/// images are visible only to their own thread — read-your-writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stamp {
    /// Created/ended by the commit with this epoch.
    Committed(u64),
    /// Produced by an in-flight write on this thread; converted to
    /// `Committed` when its transaction's epoch is allocated.
    Pending(ThreadId),
}

impl Stamp {
    /// Is an image bearing this *begin* stamp (or lacking this *end*
    /// stamp) part of snapshot `snapshot` as seen by thread `me`?
    fn visible(self, snapshot: u64, me: ThreadId) -> bool {
        match self {
            Stamp::Committed(e) => e <= snapshot,
            Stamp::Pending(t) => t == me,
        }
    }
}

/// A superseded row image: valid for snapshots in `[begin, end)`.
#[derive(Debug)]
pub(crate) struct Version {
    begin: Stamp,
    end: Stamp,
    row: Row,
}

/// A table: schema, row heap, and indexes. Row ids are slot numbers in the
/// heap and are never reused, so deleted rows leave `None` tombstones
/// (compacted storage is not needed for the MCS workloads, which keep
/// database size roughly constant).
#[derive(Debug)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    rows: Vec<Option<Row>>,
    live: usize,
    indexes: Vec<Index>,
    /// Next value handed out per AUTO_INCREMENT column (indexed by column
    /// position; non-auto columns keep 0).
    auto_next: Vec<i64>,
    last_auto: Option<i64>,
    /// Version chains enabled (set once by the database at registration;
    /// never flips at runtime). All fields below stay empty when off.
    mvcc: bool,
    /// Begin stamp of the latest image, parallel to `rows` (meaningless
    /// for tombstoned slots).
    meta: Vec<Stamp>,
    /// Superseded images per slot, oldest first.
    history: BTreeMap<usize, Vec<Version>>,
    /// Slots carrying at least one `Pending` stamp (may hold duplicates
    /// and stale entries; pruned at stamp/rollback time).
    pending_slots: Vec<RowId>,
    /// Version/vacuum gauges shared with the owning database.
    mvcc_stats: Option<Arc<WalStats>>,
}

impl Table {
    /// Create an empty table. Declares a unique `pk_<table>` index if the
    /// schema has a primary key.
    pub fn new(schema: TableSchema) -> Table {
        let auto_next = vec![1; schema.columns.len()];
        let mut t = Table {
            rows: Vec::new(),
            live: 0,
            indexes: Vec::new(),
            auto_next,
            last_auto: None,
            schema,
            mvcc: false,
            meta: Vec::new(),
            history: BTreeMap::new(),
            pending_slots: Vec::new(),
            mvcc_stats: None,
        };
        if !t.schema.primary_key.is_empty() {
            let def = IndexDef {
                name: format!("pk_{}", t.schema.name),
                columns: t.schema.primary_key.clone(),
                unique: true,
            };
            t.indexes.push(Index::new(def));
        }
        t
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The value assigned by the most recent AUTO_INCREMENT insert.
    pub fn last_auto_value(&self) -> Option<i64> {
        self.last_auto
    }

    /// Enable version chains on this table (done once, at registration
    /// with an MVCC database). Rows already present — snapshot load
    /// happens before registration — are backfilled as committed at
    /// epoch 0, i.e. visible to every snapshot.
    pub(crate) fn set_mvcc(&mut self, stats: Arc<WalStats>) {
        self.mvcc = true;
        self.meta = vec![Stamp::Committed(0); self.rows.len()];
        self.mvcc_stats = Some(stats);
    }

    /// True if this table keeps version chains.
    pub fn is_mvcc(&self) -> bool {
        self.mvcc
    }

    /// Number of heap slots (live rows + tombstones). Snapshot scans must
    /// visit every slot: a tombstoned slot can still hold history-visible
    /// versions.
    pub fn slot_count(&self) -> usize {
        self.rows.len()
    }

    /// Fetch the row image visible to `snapshot` (MVCC only): the latest
    /// image if its begin stamp is visible, else the newest history
    /// version whose `[begin, end)` range covers the snapshot. A thread's
    /// own pending writes are always visible to it (read-your-writes).
    pub fn get_visible(&self, id: RowId, snapshot: u64) -> Option<&Row> {
        debug_assert!(self.mvcc);
        let me = thread::current().id();
        let slot = id.0 as usize;
        if let Some(row) = self.rows.get(slot).and_then(Option::as_ref) {
            if self.meta[slot].visible(snapshot, me) {
                return Some(row);
            }
        }
        self.history
            .get(&slot)?
            .iter()
            .rev()
            .find(|v| v.begin.visible(snapshot, me) && !v.end.visible(snapshot, me))
            .map(|v| &v.row)
    }

    /// Convert this thread's pending stamps to `Committed(epoch)`. Called
    /// at commit, after the epoch is allocated and before it is published
    /// to the visibility watermark. Intermediate images a multi-statement
    /// transaction superseded within itself get `begin == end == epoch` —
    /// an empty visibility range, reclaimed by the next vacuum.
    pub(crate) fn stamp_pending(&mut self, epoch: u64) {
        let me = thread::current().id();
        let pending = std::mem::take(&mut self.pending_slots);
        for id in pending {
            let slot = id.0 as usize;
            let mut still_pending = false;
            if self.rows.get(slot).is_some_and(Option::is_some) {
                if self.meta[slot] == Stamp::Pending(me) {
                    self.meta[slot] = Stamp::Committed(epoch);
                } else if matches!(self.meta[slot], Stamp::Pending(_)) {
                    still_pending = true;
                }
            }
            if let Some(versions) = self.history.get_mut(&slot) {
                for v in versions {
                    if v.begin == Stamp::Pending(me) {
                        v.begin = Stamp::Committed(epoch);
                    } else if matches!(v.begin, Stamp::Pending(_)) {
                        still_pending = true;
                    }
                    if v.end == Stamp::Pending(me) {
                        v.end = Stamp::Committed(epoch);
                    } else if matches!(v.end, Stamp::Pending(_)) {
                        still_pending = true;
                    }
                }
            }
            if still_pending {
                self.pending_slots.push(id);
            }
        }
    }

    /// Drop history versions no snapshot at or after `horizon` can reach,
    /// removing index entries that no surviving image needs. Returns the
    /// number of versions reclaimed.
    pub(crate) fn vacuum(&mut self, horizon: u64) -> u64 {
        if !self.mvcc {
            return 0;
        }
        let mut reclaimed = 0u64;
        let slots: Vec<usize> = self.history.keys().copied().collect();
        for slot in slots {
            let versions = self.history.get_mut(&slot).expect("slot key just listed");
            // A version is dead once its end epoch is committed at or
            // below the horizon: every current and future snapshot sees a
            // newer image (or the deletion). Pending stamps always survive.
            let (dead, keep): (Vec<Version>, Vec<Version>) = versions
                .drain(..)
                .partition(|v| matches!(v.end, Stamp::Committed(e) if e <= horizon));
            *versions = keep;
            if versions.is_empty() {
                self.history.remove(&slot);
            }
            if dead.is_empty() {
                continue;
            }
            reclaimed += dead.len() as u64;
            let id = RowId(slot as u64);
            for ix_pos in 0..self.indexes.len() {
                // The dead versions' stored keys, less those the slot still
                // needs: the latest image's and every surviving version's.
                let ix = &self.indexes[ix_pos];
                let mut gone: BTreeSet<IndexKey> =
                    dead.iter().filter_map(|v| ix.key_of(&v.row)).collect();
                if gone.is_empty() {
                    continue;
                }
                let latest = self.rows.get(slot).and_then(Option::as_ref);
                let kept = self.history.get(&slot).into_iter().flatten().map(|v| &v.row);
                for key in latest.into_iter().chain(kept).filter_map(|row| ix.key_of(row)) {
                    gone.remove(&key);
                }
                for key in gone {
                    self.indexes[ix_pos].remove(&key, id);
                }
            }
        }
        reclaimed
    }

    fn bump_versions_created(&self) {
        if let Some(stats) = &self.mvcc_stats {
            stats.versions_created.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Add a secondary index, building it from existing rows. Fails (and
    /// leaves the table unchanged) if `unique` is violated by current data.
    pub fn create_index(&mut self, def: IndexDef) -> Result<()> {
        if self.indexes.iter().any(|ix| ix.def.name.eq_ignore_ascii_case(&def.name)) {
            return Err(Error::IndexExists(def.name));
        }
        if def.columns.is_empty() || def.columns.len() > MAX_INDEX_WIDTH {
            return Err(Error::ExecError(format!(
                "index `{}` has {} columns; an index takes 1 to {MAX_INDEX_WIDTH}",
                def.name,
                def.columns.len()
            )));
        }
        for &c in &def.columns {
            if c >= self.schema.arity() {
                return Err(Error::NoSuchColumn(format!("{}[{}]", self.schema.name, c)));
            }
        }
        // A non-unique multi-column index whose last column is INTEGER
        // keeps that column in its postings (see `crate::index`).
        let last = self.schema.columns[*def.columns.last().expect("checked non-empty")].ty;
        let mut ix = if !def.unique && def.columns.len() > 1 && last == ValueType::Int {
            Index::with_tail(def)
        } else {
            Index::new(def)
        };
        for (slot, row) in self.rows.iter().enumerate() {
            if let Some(row) = row {
                ix.check_unique_row(row, |id| self.get(id))?;
                ix.insert_row(row, RowId(slot as u64));
            }
        }
        self.indexes.push(ix);
        Ok(())
    }

    /// Drop an index by name. The primary-key index cannot be dropped.
    pub fn drop_index(&mut self, name: &str) -> Result<()> {
        let pos = self
            .indexes
            .iter()
            .position(|ix| ix.def.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::NoSuchIndex(name.to_owned()))?;
        if self.indexes[pos].def.name == format!("pk_{}", self.schema.name) {
            return Err(Error::ExecError(format!("cannot drop primary key of `{}`", self.schema.name)));
        }
        self.indexes.remove(pos);
        Ok(())
    }

    /// All indexes on this table.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Find an index by name.
    pub fn index(&self, name: &str) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.def.name.eq_ignore_ascii_case(name))
    }

    /// Validate a full row (schema order) and fill AUTO_INCREMENT slots.
    fn prepare_row(&mut self, values: Vec<Value>) -> Result<Row> {
        if values.len() != self.schema.arity() {
            return Err(Error::ExecError(format!(
                "table `{}` has {} columns, {} values given",
                self.schema.name,
                self.schema.arity(),
                values.len()
            )));
        }
        let mut row = Vec::with_capacity(values.len());
        for (i, v) in values.into_iter().enumerate() {
            let col = &self.schema.columns[i];
            let v = col.check(v)?;
            if v.is_null() && col.auto_increment {
                let next = self.auto_next[i];
                self.auto_next[i] = next + 1;
                self.last_auto = Some(next);
                row.push(Value::Int(next));
            } else {
                if let (Value::Int(given), true) = (&v, col.auto_increment) {
                    // Explicit value supplied for an auto column: advance
                    // the counter past it, as MySQL does.
                    if *given >= self.auto_next[i] {
                        self.auto_next[i] = given + 1;
                    }
                }
                row.push(v);
            }
        }
        Ok(row)
    }

    /// Insert a row (values in schema order; use [`Value::Null`] to request
    /// AUTO_INCREMENT or a default). Returns the new row id.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<RowId> {
        let row = self.prepare_row(values)?;
        // Validate all unique indexes before touching any of them, so a
        // failed insert leaves every index unchanged.
        for ix in &self.indexes {
            ix.check_unique_row(&row, |id| self.get(id))?;
        }
        let id = RowId(self.rows.len() as u64);
        for ix in &mut self.indexes {
            ix.insert_row(&row, id);
        }
        self.rows.push(Some(row));
        self.live += 1;
        if self.mvcc {
            self.meta.push(Stamp::Pending(thread::current().id()));
            self.pending_slots.push(id);
        }
        Ok(id)
    }

    /// Re-insert a previously deleted row at its original id (transaction
    /// rollback of a DELETE). The slot must be a tombstone.
    pub(crate) fn undelete(&mut self, id: RowId, row: Row) -> Result<()> {
        let slot = self
            .rows
            .get_mut(id.0 as usize)
            .ok_or(Error::NoSuchRow(id.0))?;
        if slot.is_some() {
            return Err(Error::ExecError(format!("slot {} is occupied", id.0)));
        }
        for ix in &mut self.indexes {
            ix.insert_row(&row, id);
        }
        *slot = Some(row);
        self.live += 1;
        Ok(())
    }

    /// Delete a row by id, returning the removed values (for undo logs).
    ///
    /// Under MVCC the image moves into the slot's history (ended by this
    /// writer's pending stamp) and index entries stay put — an older
    /// snapshot still needs them. Vacuum reclaims both later.
    pub fn delete(&mut self, id: RowId) -> Result<Row> {
        let slot = self
            .rows
            .get_mut(id.0 as usize)
            .ok_or(Error::NoSuchRow(id.0))?;
        let row = slot.take().ok_or(Error::NoSuchRow(id.0))?;
        self.live -= 1;
        if self.mvcc {
            let begin = self.meta[id.0 as usize];
            self.history.entry(id.0 as usize).or_default().push(Version {
                begin,
                end: Stamp::Pending(thread::current().id()),
                row: row.clone(),
            });
            self.pending_slots.push(id);
            self.bump_versions_created();
            return Ok(row);
        }
        for ix in &mut self.indexes {
            ix.remove_row(&row, id);
        }
        Ok(row)
    }

    /// Replace a row's values, returning the old values (for undo logs).
    pub fn update(&mut self, id: RowId, values: Vec<Value>) -> Result<Row> {
        let old = self
            .rows
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(Error::NoSuchRow(id.0))?
            .clone();
        let new = self.prepare_row(values)?;
        // Uniqueness: only keys that actually change can conflict.
        let changed: Vec<usize> =
            (0..self.indexes.len()).filter(|&i| !self.indexes[i].same_key(&old, &new)).collect();
        for &i in &changed {
            self.indexes[i].check_unique_row(&new, |id| self.get(id))?;
        }
        if self.mvcc {
            // Insert new keys but keep the old ones: snapshots pinned
            // before this commit still look the old row up by them.
            // (Index::insert_row is set-based, so re-acquiring a key the
            // slot held earlier in its history is a no-op.)
            for i in changed {
                self.indexes[i].insert_row(&new, id);
            }
            let slot = id.0 as usize;
            self.history.entry(slot).or_default().push(Version {
                begin: self.meta[slot],
                end: Stamp::Pending(thread::current().id()),
                row: old.clone(),
            });
            self.meta[slot] = Stamp::Pending(thread::current().id());
            self.rows[slot] = Some(new);
            self.pending_slots.push(id);
            self.bump_versions_created();
            return Ok(old);
        }
        for i in changed {
            self.indexes[i].remove_row(&old, id);
            self.indexes[i].insert_row(&new, id);
        }
        self.rows[id.0 as usize] = Some(new);
        Ok(old)
    }

    /// Undo an uncommitted INSERT: free the slot and remove its index
    /// entries. The row was never committed and occupies a fresh slot, so
    /// under MVCC there is no history to preserve and the removal is safe.
    pub(crate) fn rollback_insert(&mut self, id: RowId) -> Result<()> {
        if !self.mvcc {
            return self.delete(id).map(drop);
        }
        let row = self
            .rows
            .get_mut(id.0 as usize)
            .ok_or(Error::NoSuchRow(id.0))?
            .take()
            .ok_or(Error::NoSuchRow(id.0))?;
        self.live -= 1;
        for ix in &mut self.indexes {
            ix.remove_row(&row, id);
        }
        self.pending_slots.retain(|&p| p != id);
        Ok(())
    }

    /// Undo an uncommitted DELETE. Under MVCC the image is recovered from
    /// the history version the delete pushed (its index entries were never
    /// removed, so none need re-adding).
    pub(crate) fn rollback_delete(&mut self, id: RowId, row: Row) -> Result<()> {
        if !self.mvcc {
            return self.undelete(id, row);
        }
        let slot = id.0 as usize;
        let versions = self.history.get_mut(&slot).ok_or(Error::NoSuchRow(id.0))?;
        let v = versions.pop().ok_or(Error::NoSuchRow(id.0))?;
        if versions.is_empty() {
            self.history.remove(&slot);
        }
        self.rows[slot] = Some(v.row);
        self.meta[slot] = v.begin;
        self.live += 1;
        self.pending_slots.retain(|&p| p != id);
        Ok(())
    }

    /// Undo an uncommitted UPDATE by popping the history version it
    /// pushed. Keys the update added are removed again — unless an older
    /// history version for this slot also carries the key (committed
    /// `a -> b -> a` within one transaction), in which case the entry
    /// still backs that older image.
    pub(crate) fn rollback_update(&mut self, id: RowId, values: Vec<Value>) -> Result<()> {
        if !self.mvcc {
            return self.update(id, values).map(drop);
        }
        let slot = id.0 as usize;
        let v = {
            let versions = self.history.get_mut(&slot).ok_or(Error::NoSuchRow(id.0))?;
            let v = versions.pop().ok_or(Error::NoSuchRow(id.0))?;
            if versions.is_empty() {
                self.history.remove(&slot);
            }
            v
        };
        let current = self
            .rows
            .get_mut(slot)
            .ok_or(Error::NoSuchRow(id.0))?
            .take()
            .ok_or(Error::NoSuchRow(id.0))?;
        for ix in &mut self.indexes {
            if ix.same_key(&current, &v.row) {
                continue;
            }
            let still_needed = self
                .history
                .get(&slot)
                .is_some_and(|vs| vs.iter().any(|sv| ix.same_key(&sv.row, &current)));
            if !still_needed {
                ix.remove_row(&current, id);
            }
        }
        self.rows[slot] = Some(v.row);
        self.meta[slot] = v.begin;
        self.pending_slots.retain(|&p| p != id);
        Ok(())
    }

    /// Fetch a row by id.
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.rows.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Iterate all live rows in slot order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|row| (RowId(i as u64), row)))
    }

    /// Internal integrity check used by property tests: every index
    /// entry reads back as a full-width key, in ascending `(key, RowId)`
    /// order (which for a tail-ordered index is `(tail, RowId)` order
    /// within a group), no entry has a NULL component, every entry points
    /// at a live row with a matching key, and every live row with no NULL
    /// in an index's columns appears exactly once in that index. Under
    /// MVCC an entry may instead be backed by a history version (deferred
    /// cleanup), but never by nothing.
    pub fn check_integrity(&self) -> Result<()> {
        for ix in &self.indexes {
            ix.check_layout()?;
            // Does `row` carry exactly the entry's key?
            let carries = |row: &Row, key: &[Value]| {
                ix.def.columns.iter().zip(key).all(|(&c, v)| row[c] == *v)
            };
            let mut seen = 0usize;
            let mut prev: Option<(IndexKey, RowId)> = None;
            for (key, id) in ix.entries() {
                if key.len() != ix.def.columns.len() {
                    return Err(Error::ExecError(format!(
                        "index `{}` reads back a {}-column key for row {}",
                        ix.def.name,
                        key.len(),
                        id.0
                    )));
                }
                let key = IndexKey(key);
                if prev.as_ref().is_some_and(|p| *p >= (key.clone(), id)) {
                    return Err(Error::ExecError(format!(
                        "index `{}` lists row {} out of (key, row) order",
                        ix.def.name, id.0
                    )));
                }
                prev = Some((key.clone(), id));
                let key = &key.0[..];
                if key.iter().any(Value::is_null) {
                    return Err(Error::ExecError(format!(
                        "index `{}` stores a NULL key component for row {}",
                        ix.def.name, id.0
                    )));
                }
                let latest = self.get(id);
                if let Some(row) = latest {
                    if carries(row, key) {
                        seen += 1;
                        continue;
                    }
                }
                if self.mvcc {
                    let backed = self
                        .history
                        .get(&(id.0 as usize))
                        .is_some_and(|vs| vs.iter().any(|v| carries(&v.row, key)));
                    if backed {
                        continue;
                    }
                    return Err(Error::ExecError(format!(
                        "index `{}` has a dangling entry for row {} backed by no version",
                        ix.def.name, id.0
                    )));
                }
                if latest.is_none() {
                    return Err(Error::ExecError(format!(
                        "index `{}` points at dead row {}",
                        ix.def.name, id.0
                    )));
                }
                return Err(Error::ExecError(format!(
                    "index `{}` key mismatch for row {}",
                    ix.def.name, id.0
                )));
            }
            let keyed = self.scan().filter(|(_, row)| !ix.has_null(row)).count();
            if seen != keyed {
                return Err(Error::ExecError(format!(
                    "index `{}` has {seen} entries for {keyed} live rows with a key",
                    ix.def.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ValueType;

    fn table() -> Table {
        let schema = TableSchema::new(
            "files",
            vec![
                ColumnDef::auto_id("id"),
                ColumnDef::required("name", ValueType::Str),
                ColumnDef::nullable("size", ValueType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.create_index(IndexDef { name: "by_name".into(), columns: vec![1], unique: true })
            .unwrap();
        t
    }

    #[test]
    fn insert_auto_increment() {
        let mut t = table();
        let id1 = t.insert(vec![Value::Null, "a".into(), Value::Int(1)]).unwrap();
        let id2 = t.insert(vec![Value::Null, "b".into(), Value::Null]).unwrap();
        assert_ne!(id1, id2);
        assert_eq!(t.get(id1).unwrap()[0], Value::Int(1));
        assert_eq!(t.get(id2).unwrap()[0], Value::Int(2));
        assert_eq!(t.last_auto_value(), Some(2));
        assert_eq!(t.len(), 2);
        t.check_integrity().unwrap();
    }

    #[test]
    fn explicit_auto_value_advances_counter() {
        let mut t = table();
        t.insert(vec![Value::Int(10), "a".into(), Value::Null]).unwrap();
        let id = t.insert(vec![Value::Null, "b".into(), Value::Null]).unwrap();
        assert_eq!(t.get(id).unwrap()[0], Value::Int(11));
    }

    #[test]
    fn unique_index_rejects_duplicates_atomically() {
        let mut t = table();
        t.insert(vec![Value::Null, "a".into(), Value::Null]).unwrap();
        let err = t.insert(vec![Value::Null, "a".into(), Value::Null]);
        assert!(matches!(err, Err(Error::UniqueViolation { .. })));
        // failed insert must not leave partial index entries
        t.check_integrity().unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_and_undelete() {
        let mut t = table();
        let id = t.insert(vec![Value::Null, "a".into(), Value::Int(5)]).unwrap();
        let row = t.delete(id).unwrap();
        assert_eq!(t.len(), 0);
        assert!(t.get(id).is_none());
        assert!(t.delete(id).is_err());
        t.undelete(id, row).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(id).unwrap()[1], "a".into());
        t.check_integrity().unwrap();
    }

    #[test]
    fn update_maintains_indexes() {
        let mut t = table();
        let id = t.insert(vec![Value::Null, "a".into(), Value::Int(5)]).unwrap();
        t.insert(vec![Value::Null, "b".into(), Value::Null]).unwrap();
        // renaming a -> b collides on the unique name index
        let err = t.update(id, vec![Value::Int(1), "b".into(), Value::Int(5)]);
        assert!(matches!(err, Err(Error::UniqueViolation { .. })));
        t.check_integrity().unwrap();
        // renaming a -> c works
        let old = t.update(id, vec![Value::Int(1), "c".into(), Value::Int(6)]).unwrap();
        assert_eq!(old[1], "a".into());
        t.check_integrity().unwrap();
        let ix = t.index("by_name").unwrap();
        assert_eq!(ix.get_eq(&IndexKey(vec!["c".into()])).collect::<Vec<_>>(), vec![id]);
        assert_eq!(ix.count_eq(&IndexKey(vec!["a".into()])), 0);
    }

    #[test]
    fn update_same_key_no_self_collision() {
        let mut t = table();
        let id = t.insert(vec![Value::Null, "a".into(), Value::Int(5)]).unwrap();
        // same unique key, different other column: must not self-collide
        t.update(id, vec![Value::Int(1), "a".into(), Value::Int(9)]).unwrap();
        assert_eq!(t.get(id).unwrap()[2], Value::Int(9));
    }

    #[test]
    fn create_index_on_existing_data_checks_unique() {
        let mut t = table();
        t.insert(vec![Value::Null, "a".into(), Value::Int(1)]).unwrap();
        t.insert(vec![Value::Null, "b".into(), Value::Int(1)]).unwrap();
        let err = t.create_index(IndexDef { name: "u_size".into(), columns: vec![2], unique: true });
        assert!(err.is_err());
        // non-unique works
        t.create_index(IndexDef { name: "by_size".into(), columns: vec![2], unique: false })
            .unwrap();
        t.check_integrity().unwrap();
    }

    #[test]
    fn index_widths_outside_one_to_four_rejected() {
        let mut t = table();
        for columns in [vec![], vec![0, 1, 2, 1, 0]] {
            let def = IndexDef { name: "wide".into(), columns, unique: false };
            assert!(matches!(t.create_index(def), Err(Error::ExecError(_))));
        }
        assert_eq!(t.indexes().len(), 2);
        let cols: Vec<ColumnDef> =
            (0..5).map(|i| ColumnDef::nullable(&format!("c{i}"), ValueType::Int)).collect();
        assert!(TableSchema::new("w", cols, &["c0", "c1", "c2", "c3", "c4"]).is_err());
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut t = table();
        assert!(t.insert(vec![Value::Null, "a".into()]).is_err());
    }

    #[test]
    fn scan_skips_tombstones() {
        let mut t = table();
        let a = t.insert(vec![Value::Null, "a".into(), Value::Null]).unwrap();
        t.insert(vec![Value::Null, "b".into(), Value::Null]).unwrap();
        t.delete(a).unwrap();
        let names: Vec<String> =
            t.scan().map(|(_, r)| r[1].to_string()).collect();
        assert_eq!(names, vec!["b"]);
    }

    fn mvcc_table() -> Table {
        let mut t = table();
        t.set_mvcc(Arc::new(WalStats::default()));
        t
    }

    #[test]
    fn mvcc_update_keeps_old_version_visible() {
        let mut t = mvcc_table();
        let id = t.insert(vec![Value::Null, "a".into(), Value::Int(1)]).unwrap();
        t.stamp_pending(1);
        t.update(id, vec![Value::Int(1), "b".into(), Value::Int(2)]).unwrap();
        t.stamp_pending(2);
        assert!(t.get_visible(id, 0).is_none(), "not yet inserted at epoch 0");
        assert_eq!(t.get_visible(id, 1).unwrap()[1], "a".into());
        assert_eq!(t.get_visible(id, 2).unwrap()[1], "b".into());
        // both keys are in the index until vacuum; integrity holds anyway
        let ix = t.index("by_name").unwrap();
        assert_eq!(ix.count_eq(&IndexKey(vec!["a".into()])), 1);
        assert_eq!(ix.count_eq(&IndexKey(vec!["b".into()])), 1);
        t.check_integrity().unwrap();
    }

    #[test]
    fn mvcc_delete_then_vacuum_reclaims_versions_and_keys() {
        let mut t = mvcc_table();
        let id = t.insert(vec![Value::Null, "a".into(), Value::Null]).unwrap();
        t.stamp_pending(1);
        t.delete(id).unwrap();
        t.stamp_pending(2);
        assert_eq!(t.get_visible(id, 1).unwrap()[1], "a".into());
        assert!(t.get_visible(id, 2).is_none());
        // a snapshot at 1 is still pinned: nothing reclaimable
        assert_eq!(t.vacuum(1), 0);
        assert_eq!(t.get_visible(id, 1).unwrap()[1], "a".into());
        // horizon passes the delete: version and its index keys go away
        assert_eq!(t.vacuum(2), 1);
        assert!(t.get_visible(id, 1).is_none());
        assert_eq!(t.index("by_name").unwrap().count_eq(&IndexKey(vec!["a".into()])), 0);
        t.check_integrity().unwrap();
    }

    #[test]
    fn mvcc_pending_rows_invisible_to_other_threads() {
        let mut t = mvcc_table();
        let id = t.insert(vec![Value::Null, "a".into(), Value::Null]).unwrap();
        // the writing thread sees its own pending row at any snapshot
        assert!(t.get_visible(id, 0).is_some());
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(t.get_visible(id, 0).is_none(), "pending row leaked to another thread");
                assert!(t.get_visible(id, u64::MAX).is_none());
            });
        });
        t.stamp_pending(3);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(t.get_visible(id, 2).is_none());
                assert!(t.get_visible(id, 3).is_some());
            });
        });
    }

    #[test]
    fn mvcc_rollback_update_restores_index_through_a_b_a() {
        let mut t = mvcc_table();
        let id = t.insert(vec![Value::Null, "a".into(), Value::Null]).unwrap();
        t.stamp_pending(1);
        // one transaction: a -> b -> a, then roll both updates back
        let old1 = t.update(id, vec![Value::Int(1), "b".into(), Value::Null]).unwrap();
        let old2 = t.update(id, vec![Value::Int(1), "a".into(), Value::Null]).unwrap();
        t.rollback_update(id, old2.clone()).unwrap();
        t.rollback_update(id, old1.clone()).unwrap();
        assert_eq!(t.get_visible(id, 1).unwrap()[1], "a".into());
        let ix = t.index("by_name").unwrap();
        assert_eq!(ix.count_eq(&IndexKey(vec!["a".into()])), 1);
        assert_eq!(ix.count_eq(&IndexKey(vec!["b".into()])), 0);
        t.check_integrity().unwrap();
    }

    #[test]
    fn mvcc_rollback_insert_and_delete() {
        let mut t = mvcc_table();
        let kept = t.insert(vec![Value::Null, "keep".into(), Value::Null]).unwrap();
        t.stamp_pending(1);
        // rolled-back insert leaves no trace
        let id = t.insert(vec![Value::Null, "x".into(), Value::Null]).unwrap();
        t.rollback_insert(id).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.index("by_name").unwrap().count_eq(&IndexKey(vec!["x".into()])), 0);
        // rolled-back delete restores the committed image and stamp
        let row = t.delete(kept).unwrap();
        t.rollback_delete(kept, row).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_visible(kept, 1).unwrap()[1], "keep".into());
        t.stamp_pending(2); // no-op: nothing left pending
        assert_eq!(t.get_visible(kept, 1).unwrap()[1], "keep".into());
        t.check_integrity().unwrap();
    }

    #[test]
    fn mvcc_unique_check_ignores_dangling_entries() {
        let mut t = mvcc_table();
        let id = t.insert(vec![Value::Null, "a".into(), Value::Null]).unwrap();
        t.stamp_pending(1);
        t.update(id, vec![Value::Int(1), "b".into(), Value::Null]).unwrap();
        t.stamp_pending(2);
        // "a" is only a dangling entry now: a new row may take it
        t.insert(vec![Value::Null, "a".into(), Value::Null]).unwrap();
        t.stamp_pending(3);
        // "b" is live: still rejected
        let err = t.insert(vec![Value::Null, "b".into(), Value::Null]);
        assert!(matches!(err, Err(Error::UniqueViolation { .. })));
        t.check_integrity().unwrap();
    }
}
