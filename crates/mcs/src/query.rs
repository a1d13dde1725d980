//! Attribute-based discovery — the paper's core query mechanisms.
//!
//! * **Simple query** (Figures 6/9): value match on a single static
//!   attribute of a logical file — [`Mcs::get_file`] / by-name lookup,
//!   served by the unique (name, version) index, cost independent of
//!   database size.
//! * **Complex query** (Figures 7/10/11): conjunctive value match on many
//!   user-defined attributes — [`Mcs::query_by_attributes`]. Under the
//!   paper's index profile each predicate scans the posting list of its
//!   attribute *name* (values are unindexed), so cost grows with both
//!   database size and predicate count, reproducing the paper's shapes.
//!   Under [`IndexProfile::ValueIndexed`] the conjunction is compiled by
//!   the cost-based planner in [`crate::plan`] instead: typed
//!   `(name, value, object_type, object_id)` indexes provide point/range
//!   access paths, the most selective predicate seeds the candidate set,
//!   and the rest intersect within its id span or probe per-candidate —
//!   see [`Mcs::explain_query`] for the chosen
//!   shape and [`Mcs::with_planner_bypass`] for the naive oracle.

use relstore::{IndexKey, Value};

use crate::catalog::Mcs;
use crate::error::{McsError, Result};
use crate::model::*;
use crate::schema::IndexProfile;

/// Contents of a collection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CollectionContents {
    /// Files directly in the collection: (name, version).
    pub files: Vec<(String, i64)>,
    /// Direct subcollections, by name.
    pub subcollections: Vec<String>,
}

impl Mcs {
    /// Attribute-based ("complex") query: return the logical names (with
    /// versions) of all **valid** logical files matching every predicate
    /// (paper API: "Querying the catalog for logical objects based on
    /// object attributes"). Requires service Read.
    pub fn query_by_attributes(
        &self,
        cred: &Credential,
        preds: &[AttrPredicate],
    ) -> Result<Vec<(String, i64)>> {
        self.require_service_perm(cred, Permission::Read)?;
        if preds.is_empty() {
            return Err(McsError::BadAttribute("query needs at least one predicate".into()));
        }
        // Probe the read cache *after* the permission check (authorization
        // is never cached) and take the version vector of the query's
        // input tables before computing, so the fill below can only stamp
        // a state at least as old as what it read — any write landing
        // mid-compute bumps a version and the entry self-invalidates.
        let mut fill = None;
        if let Some(cache) = self.read_cache() {
            let key = crate::cache::query_key(preds, self.profile);
            match cache.lookup(&self.db, &key) {
                crate::cache::Lookup::Hit(crate::cache::CacheValue::Hits(h)) => return Ok(h),
                crate::cache::Lookup::Hit(_) => {}
                crate::cache::Lookup::Miss(stamp) => fill = Some((cache, key, stamp)),
            }
        }
        // Resolve definitions and type-check before touching the table.
        let checked = self.check_predicates(preds)?;

        // Under MVCC the whole evaluation — every posting list and the
        // resolve pass — reads at one pinned snapshot, so it sees one
        // consistent cut; on the barrier engine `pinned` is a no-op and
        // the table read locks provide per-statement isolation.
        let out = self.pinned(|m| {
            let handle = m.db.table("user_attributes")?;
            let t = handle.read();
            let ids = if m.profile == IndexProfile::ValueIndexed && !m.ctx.planner_bypass {
                // Compile the conjunction into a cost-based plan: the
                // most selective predicate (by index dive) seeds the
                // candidate set, the rest intersect via their typed
                // indexes within its id span or run as per-candidate
                // residual probes — see `crate::plan` and
                // `Mcs::explain_query`.
                let plan = crate::plan::plan_conjunction(&t, &checked)?;
                m.run_attr_plan(&t, &checked, &plan)?
            } else {
                // The 2003 evaluation, and the naive oracle twin tests
                // diff the planned path against: one `ua_name` posting
                // scan per predicate, intersected in syntactic order.
                let mut acc: Option<Vec<i64>> = None;
                for (p, ty) in &checked {
                    let value = crate::plan::coerced_value(p, *ty);
                    let ids = m.posting_scan(&t, p, ty.full_row_column(), &value)?;
                    acc = Some(match acc {
                        None => ids,
                        Some(prev) => crate::plan::intersect_sorted(&prev, &ids),
                    });
                    if acc.as_ref().is_some_and(Vec::is_empty) {
                        break;
                    }
                }
                acc.unwrap_or_default()
            };
            // Writers lock audit_log → logical_files → user_attributes:
            // release the attribute table before touching logical_files.
            drop(t);
            m.valid_hits(&ids)
        })?;
        if let Some((cache, key, stamp)) = fill {
            cache.insert(key, crate::cache::CacheValue::Hits(out.clone()), stamp);
        }
        Ok(out)
    }

    /// Resolve candidate file ids (ascending) to the `(name, version)` of
    /// each **valid** file, sorted: one pass down `pk_logical_files` under
    /// one read of the table, reading only the three columns it needs.
    /// Ids with no visible row (an attribute row that raced a delete) and
    /// invalidated files are skipped. Under MVCC a stale pk entry can lead
    /// to another image, so the visible row's id is re-checked.
    pub(crate) fn valid_hits(&self, ids: &[i64]) -> Result<Vec<(String, i64)>> {
        self.db.read_table(self.at(), "logical_files", |t, at| {
            let pk = t
                .index("pk_logical_files")
                .ok_or_else(|| McsError::Internal("missing index pk_logical_files".into()))?;
            let mut key = IndexKey(vec![Value::Int(0)]);
            let mut out = Vec::with_capacity(ids.len());
            for &id in ids {
                key.0[0] = Value::Int(id);
                let row = pk
                    .get_eq(&key)
                    .filter_map(|rid| relstore::snapshot_row(t, rid, at))
                    .find(|row| row[0] == key.0[0]);
                if let Some(row) = row {
                    if row[4].as_bool()? {
                        out.push((row[1].as_str()?.to_owned(), row[2].as_int()?));
                    }
                }
            }
            out.sort();
            Ok(out)
        })?
    }

    /// Evaluate one predicate against the attribute table, returning the
    /// matching **file** object ids, sorted and deduplicated.
    pub(crate) fn eval_predicate(
        &self,
        t: &relstore::Table,
        p: &AttrPredicate,
        ty: AttrType,
    ) -> Result<Vec<i64>> {
        let value = crate::plan::coerced_value(p, ty);

        // Value-indexed fast path (the §9 "future work" profile): point
        // and range lookups on the typed index — this includes LIKE
        // patterns with a literal prefix, which range over the prefix and
        // re-check the pattern on each group's value. `Ne` has
        // no useful access path (everything *but* one key) and falls
        // back to the posting scan; in a conjunction the planner demotes
        // it to a per-candidate residual probe instead.
        if self.profile == IndexProfile::ValueIndexed && !self.ctx.planner_bypass {
            if let Some(access) = crate::plan::access_for(p, ty, &value) {
                let checks = [(p.op, value)];
                return self.eval_access(t, &p.name, ty, &checks, &access, crate::plan::ALL_IDS);
            }
        }

        self.posting_scan(t, p, ty.full_row_column(), &value)
    }

    /// The 2003 evaluation path: walk every attribute row with this name
    /// and compare its value column, returning matching file object ids,
    /// sorted and deduplicated. Cost ∝ rows-with-this-name ∝ database
    /// size (each file carries each workload attribute), which is the
    /// source of the complex-query scaling in Figures 7/10/11.
    pub(crate) fn posting_scan(
        &self,
        t: &relstore::Table,
        p: &AttrPredicate,
        val_col: usize,
        value: &Value,
    ) -> Result<Vec<i64>> {
        let ix = t
            .index("ua_name")
            .ok_or_else(|| McsError::Internal("missing index ua_name".into()))?;
        let key = IndexKey(vec![Value::from(p.name.as_str())]);
        let mut out = Vec::new();
        for id in ix.get_eq(&key) {
            let Some(row) = relstore::snapshot_row(t, id, self.at()) else {
                if t.is_mvcc() {
                    continue; // dangling entry awaiting vacuum, or invisible version
                }
                return Err(McsError::Internal("dangling index".into()));
            };
            if row[1] != Value::Int(ObjectType::File.code()) {
                continue;
            }
            // Stale-entry guard for MVCC (see eval_access): the visible
            // image may no longer carry this attribute name.
            if t.is_mvcc() && !matches!(&row[3], Value::Str(s) if s.as_ref() == p.name) {
                continue;
            }
            if crate::plan::value_matches(p.op, &row[val_col], value)? {
                out.push(row[2].as_int()?);
            }
        }
        Ok(crate::plan::sorted_ids(out))
    }

    /// List a collection's direct contents (paper API: "Querying the
    /// contents of a ... logical collection"). Requires Read on it.
    pub fn list_collection(&self, cred: &Credential, name: &str) -> Result<CollectionContents> {
        let c = self.resolve_collection(name)?;
        self.require_collection_perm(cred, &c, Permission::Read)?;
        if c.audit_enabled {
            self.audit_action(ObjectType::Collection, c.id, "list", cred, &c.name)?;
        }
        let mut out = CollectionContents::default();
        let files =
            self.exec(&self.stmts.files_in_coll, &[c.id.into()])?.rows.unwrap();
        for r in &files.rows {
            out.files.push((r[1].as_str()?.to_owned(), r[2].as_int()?));
        }
        let kids = self.exec(&self.stmts.sel_subcolls, &[c.id.into()])?;
        for r in &kids.rows.unwrap().rows {
            out.subcollections.push(r[0].as_str()?.to_owned());
        }
        Ok(out)
    }

    /// Total number of logical files in the catalog (harness helper).
    pub fn file_count(&self) -> Result<usize> {
        let handle = self.db.table("logical_files")?;
        let t = handle.read();
        if t.is_mvcc() {
            // `Table::len` counts latest images including other threads'
            // uncommitted inserts; count what a snapshot actually sees.
            return Ok(self.pinned(|m| {
                (0..t.slot_count() as u64)
                    .filter(|&i| relstore::snapshot_row(&t, relstore::RowId(i), m.at()).is_some())
                    .count()
            }));
        }
        Ok(t.len())
    }
}
