//! Statement execution: SELECT pipelines (scan/index → filter → sort →
//! project/aggregate) and the write statements with undo logging.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::db::Database;
use crate::mvcc::SnapshotPin;
use crate::error::{Error, Result};
use crate::index::IndexDef;
use crate::planner::{candidate_iter, candidates, plan_table, plan_table_costed, AccessPath};
use crate::predicate::{bind, BoundExpr, CmpOp, Expr, Scope, ScopeEntry};
use crate::row::RowId;
use crate::schema::{ColumnDef, TableSchema};
use crate::sql::ast::*;
use crate::table::Table;
use crate::txn::{UndoLog, UndoOp};
use crate::value::Value;

/// A query result: column labels plus data rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Data rows, one `Vec<Value>` per row.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Position of an output column by label.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Iterate one output column's values.
    pub fn column_values<'a>(&'a self, name: &str) -> Option<impl Iterator<Item = &'a Value>> {
        let i = self.column_index(name)?;
        Some(self.rows.iter().map(move |r| &r[i]))
    }
}

/// Result of executing any statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecResult {
    /// Rows inserted/updated/deleted (0 for SELECT and DDL).
    pub rows_affected: usize,
    /// AUTO_INCREMENT value assigned by the last INSERT, if any.
    pub last_insert_id: Option<i64>,
    /// Result rows, for SELECT.
    pub rows: Option<ResultSet>,
}

/// Execute a parsed statement atomically: a statement that fails leaves
/// its table as it found it, AUTO_INCREMENT counters included. `undo`,
/// when present, records inverse operations for rollback; a SELECT reads
/// at snapshot `at` (the latest images when `None`).
pub(crate) fn exec_statement(
    db: &Database,
    stmt: &Statement,
    params: &[Value],
    undo: Option<&mut UndoLog>,
    at: Option<&SnapshotPin>,
) -> Result<ExecResult> {
    exec(db, stmt, params, undo, at, true)
}

/// Execute a bare record of an older log the way the engine that wrote it
/// ran the statement: a failure keeps the AUTO_INCREMENT values it drew.
pub(crate) fn exec_bare(db: &Database, stmt: &Statement, params: &[Value]) -> Result<ExecResult> {
    exec(db, stmt, params, None, None, false)
}

/// [`exec_statement`]; a failed INSERT or UPDATE gives back the
/// AUTO_INCREMENT values it drew when `give_back` is set.
fn exec(
    db: &Database,
    stmt: &Statement,
    params: &[Value],
    mut undo: Option<&mut UndoLog>,
    at: Option<&SnapshotPin>,
    give_back: bool,
) -> Result<ExecResult> {
    match stmt {
        Statement::CreateTable { name, columns, primary_key, if_not_exists } => {
            exec_create_table(db, name, columns, primary_key, *if_not_exists)
        }
        Statement::CreateIndex { name, table, columns, unique } => {
            let handle = db.table(table)?;
            let mut t = handle.write();
            let cols: Vec<usize> = columns
                .iter()
                .map(|c| t.schema.column_index(c))
                .collect::<Result<_>>()?;
            t.create_index(IndexDef { name: name.clone(), columns: cols, unique: *unique })?;
            Ok(ExecResult::default())
        }
        Statement::DropTable { name, if_exists } => {
            match db.drop_table(name) {
                Ok(()) => Ok(ExecResult::default()),
                Err(Error::NoSuchTable(_)) if *if_exists => Ok(ExecResult::default()),
                Err(e) => Err(e),
            }
        }
        Statement::DropIndex { name, table } => {
            let handle = db.table(table)?;
            handle.write().drop_index(name)?;
            Ok(ExecResult::default())
        }
        Statement::Insert { table, columns, rows } => {
            exec_insert(db, table, columns, rows, params, undo.as_deref_mut(), give_back)
        }
        Statement::Select(sel) => {
            Ok(ExecResult { rows: Some(exec_select(db, sel, params, at)?), ..Default::default() })
        }
        Statement::Update { table, sets, where_clause } => exec_update(
            db,
            table,
            sets,
            where_clause.as_ref(),
            params,
            undo.as_deref_mut(),
            give_back,
        ),
        Statement::Delete { table, where_clause } => {
            exec_delete(db, table, where_clause.as_ref(), params, undo.as_deref_mut())
        }
    }
}

fn exec_create_table(
    db: &Database,
    name: &str,
    columns: &[ColumnSpec],
    table_pk: &[String],
    if_not_exists: bool,
) -> Result<ExecResult> {
    let mut defs = Vec::with_capacity(columns.len());
    let mut pk: Vec<String> = table_pk.to_vec();
    let mut inline_unique = Vec::new();
    for spec in columns {
        if spec.primary_key {
            if !pk.is_empty() {
                return Err(Error::ExecError(format!(
                    "multiple primary keys declared on `{name}`"
                )));
            }
            pk.push(spec.name.clone());
        }
        if spec.unique {
            inline_unique.push(spec.name.clone());
        }
        defs.push(ColumnDef {
            name: spec.name.clone(),
            ty: spec.ty,
            // PRIMARY KEY and AUTO_INCREMENT imply NOT NULL
            nullable: !(spec.not_null || spec.primary_key || spec.auto_increment),
            max_len: spec.max_len,
            default: spec.default.clone(),
            auto_increment: spec.auto_increment,
        });
    }
    let pk_refs: Vec<&str> = pk.iter().map(String::as_str).collect();
    let schema = TableSchema::new(name, defs, &pk_refs)?;
    let mut table = Table::new(schema);
    for col in inline_unique {
        let idx = table.schema.column_index(&col)?;
        table.create_index(IndexDef {
            name: format!("uq_{name}_{col}"),
            columns: vec![idx],
            unique: true,
        })?;
    }
    match db.add_table(table) {
        Ok(()) => Ok(ExecResult::default()),
        Err(Error::TableExists(_)) if if_not_exists => Ok(ExecResult::default()),
        Err(e) => Err(e),
    }
}

/// Evaluate a row-less expression (INSERT values, UPDATE right-hand sides
/// may only use literals and params).
fn eval_const(expr: &Expr, params: &[Value]) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) => params
            .get(*i)
            .cloned()
            .ok_or(Error::ParamCount { expected: i + 1, got: params.len() }),
        other => Err(Error::ExecError(format!(
            "only literals and `?` allowed here, got {other:?}"
        ))),
    }
}

fn exec_insert(
    db: &Database,
    table: &str,
    columns: &[String],
    rows: &[Vec<Expr>],
    params: &[Value],
    mut undo: Option<&mut UndoLog>,
    give_back: bool,
) -> Result<ExecResult> {
    let handle = db.table(table)?;
    let mut t = handle.write();
    let drawn = t.auto_counters().to_vec();
    let arity = t.schema.arity();
    // Map supplied columns to schema positions.
    let positions: Vec<usize> = if columns.is_empty() {
        (0..arity).collect()
    } else {
        columns.iter().map(|c| t.schema.column_index(c)).collect::<Result<_>>()?
    };
    let mut affected = 0;
    let mut last_id = None;
    let mut inserted: Vec<RowId> = Vec::new();
    let result: Result<()> = (|| {
        for row_exprs in rows {
            if row_exprs.len() != positions.len() {
                return Err(Error::ExecError(format!(
                    "INSERT expects {} values, got {}",
                    positions.len(),
                    row_exprs.len()
                )));
            }
            // Start from per-column defaults (NULL when none).
            let mut full: Vec<Value> = t
                .schema
                .columns
                .iter()
                .map(|c| c.default.clone().unwrap_or(Value::Null))
                .collect();
            for (pos, e) in positions.iter().zip(row_exprs) {
                full[*pos] = eval_const(e, params)?;
            }
            let id = t.insert(full)?;
            inserted.push(id);
            affected += 1;
            if let Some(v) = t.last_auto_value() {
                last_id = Some(v);
            }
        }
        Ok(())
    })();
    match result {
        Ok(()) => {
            if let Some(log) = undo.as_deref_mut() {
                for id in inserted {
                    log.push(handle.clone(), UndoOp::UndoInsert(id));
                }
                if t.auto_counters() != drawn {
                    log.push(handle.clone(), UndoOp::UndoCounters(drawn));
                }
            }
            Ok(ExecResult { rows_affected: affected, last_insert_id: last_id, rows: None })
        }
        Err(e) => {
            // Multi-row INSERT is atomic: roll back rows already inserted.
            for id in inserted.into_iter().rev() {
                let _ = t.rollback_insert(id);
            }
            if give_back {
                t.restore_auto_counters(drawn);
            }
            Err(e)
        }
    }
}

fn exec_update(
    db: &Database,
    table: &str,
    sets: &[(String, Expr)],
    where_clause: Option<&Expr>,
    params: &[Value],
    mut undo: Option<&mut UndoLog>,
    give_back: bool,
) -> Result<ExecResult> {
    let handle = db.table(table)?;
    let mut t = handle.write();
    let drawn = t.auto_counters().to_vec();
    let scope = Scope::single(&t.schema);
    let pred = where_clause.map(|w| bind(w, &scope, params)).transpose()?;
    let set_pos: Vec<(usize, Value)> = sets
        .iter()
        .map(|(c, e)| Ok((t.schema.column_index(c)?, eval_const(e, params)?)))
        .collect::<Result<_>>()?;
    let path = plan_table(&t, pred.as_ref(), 0);
    let ids = candidates(&t, &path);
    let mut matched = Vec::new();
    for id in ids {
        let Some(row) = t.get(id) else { continue };
        if match &pred {
            Some(p) => p.matches(row)?,
            None => true,
        } {
            matched.push(id);
        }
    }
    let mut changed = Vec::new(); // (id, old_row) for rollback on mid-way error
    let result: Result<()> = (|| {
        for &id in &matched {
            let mut new_row = t.get(id).expect("matched row exists").clone();
            for (pos, v) in &set_pos {
                new_row[*pos] = v.clone();
            }
            let old = t.update(id, new_row)?;
            changed.push((id, old));
        }
        Ok(())
    })();
    match result {
        Ok(()) => {
            let n = changed.len();
            if let Some(log) = undo.as_deref_mut() {
                for (id, old) in changed {
                    log.push(handle.clone(), UndoOp::UndoUpdate(id, old));
                }
                if t.auto_counters() != drawn {
                    log.push(handle.clone(), UndoOp::UndoCounters(drawn));
                }
            }
            Ok(ExecResult { rows_affected: n, ..Default::default() })
        }
        Err(e) => {
            for (id, old) in changed.into_iter().rev() {
                let _ = t.rollback_update(id, old);
            }
            if give_back {
                t.restore_auto_counters(drawn);
            }
            Err(e)
        }
    }
}

fn exec_delete(
    db: &Database,
    table: &str,
    where_clause: Option<&Expr>,
    params: &[Value],
    mut undo: Option<&mut UndoLog>,
) -> Result<ExecResult> {
    let handle = db.table(table)?;
    let mut t = handle.write();
    let scope = Scope::single(&t.schema);
    let pred = where_clause.map(|w| bind(w, &scope, params)).transpose()?;
    let path = plan_table(&t, pred.as_ref(), 0);
    let ids = candidates(&t, &path);
    let mut affected = 0;
    for id in ids {
        let Some(row) = t.get(id) else { continue };
        if match &pred {
            Some(p) => p.matches(row)?,
            None => true,
        } {
            let old = t.delete(id)?;
            if let Some(log) = undo.as_deref_mut() {
                log.push(handle.clone(), UndoOp::UndoDelete(id, old));
            } // else: old row dropped
            affected += 1;
        }
    }
    Ok(ExecResult { rows_affected: affected, ..Default::default() })
}

/// Execute a SELECT and materialize the result set.
pub(crate) fn exec_select(
    db: &Database,
    sel: &Select,
    params: &[Value],
    at: Option<&SnapshotPin>,
) -> Result<ResultSet> {
    // Resolve all tables, sort lock acquisition by table name to avoid
    // deadlocks with concurrent multi-table readers/writers.
    let mut names: Vec<&str> = std::iter::once(sel.from.table.as_str())
        .chain(sel.joins.iter().map(|j| j.table.table.as_str()))
        .collect();
    let handles: Vec<(String, Arc<RwLock<Table>>)> = {
        let mut hs = Vec::new();
        for n in &names {
            hs.push(((*n).to_owned(), db.table(n)?));
        }
        hs
    };
    names.sort_unstable();
    names.dedup();
    // Acquire guards in name order; keep them addressable by position.
    // (Self-joins share a guard via the map below.)
    let mut guard_map: std::collections::BTreeMap<String, parking_lot::RwLockReadGuard<'_, Table>> =
        std::collections::BTreeMap::new();
    for n in &names {
        let (_, h) = handles.iter().find(|(hn, _)| hn == n).expect("resolved above");
        // Safety of lifetime: guards borrow from `handles`, both live to fn end.
        guard_map.insert((*n).to_owned(), h.read());
    }
    let table_for = |r: &TableRef| -> &Table { &guard_map[&r.table] };

    // Build the scope.
    let mut scope = Scope::default();
    let mut base = 0usize;
    let all_refs: Vec<&TableRef> =
        std::iter::once(&sel.from).chain(sel.joins.iter().map(|j| &j.table)).collect();
    for r in &all_refs {
        let t = table_for(r);
        scope.entries.push(ScopeEntry {
            alias: r.alias.clone().unwrap_or_else(|| r.table.clone()),
            schema: &t.schema,
            base,
        });
        base += t.schema.arity();
    }

    // Bind predicates: WHERE plus each JOIN ON.
    let where_bound = sel.where_clause.as_ref().map(|w| bind(w, &scope, params)).transpose()?;
    let on_bound: Vec<BoundExpr> = sel
        .joins
        .iter()
        .map(|j| bind(&j.on, &scope, params))
        .collect::<Result<_>>()?;

    let keys: Vec<(usize, bool)> = sel
        .order_by
        .iter()
        .map(|k| Ok((scope.resolve(k.table.as_deref(), &k.column)?, k.desc)))
        .collect::<Result<_>>()?;

    // Collect matching row buffers. A single-table SELECT streams straight
    // off the chosen access path — the candidate iterator is lazy, so a
    // LIMIT (with no ORDER BY, or an ORDER BY the index already satisfies)
    // terminates the scan early instead of materializing every match.
    // Joins go through the left-deep nested loop.
    let mut matched: Vec<Vec<Value>> = Vec::new();
    let mut pre_sorted = false;
    {
        let tables: Vec<&Table> = all_refs.iter().map(|r| table_for(r)).collect();
        let bases: Vec<usize> = scope.entries.iter().map(|e| e.base).collect();
        if tables.len() == 1 {
            let t = tables[0];
            let plan = plan_table_costed(t, where_bound.as_ref(), 0);
            pre_sorted = !keys.is_empty() && index_satisfies_order(t, &plan.path, &keys);
            let cutoff = if keys.is_empty() || pre_sorted {
                sel.limit.map(|l| l.saturating_add(sel.offset.unwrap_or(0)))
            } else {
                None
            };
            for id in candidate_iter(t, &plan.path, at) {
                // Snapshot-filtered under MVCC (index candidates can be
                // dangling or too new).
                let Some(row) = crate::db::snapshot_row(t, id, at) else { continue };
                if let Some(w) = &where_bound {
                    if !w.matches(row)? {
                        continue;
                    }
                }
                matched.push(row.clone());
                if cutoff.is_some_and(|c| matched.len() >= c) {
                    break;
                }
            }
        } else {
            // Predicate availability: ON clause i is checkable once tables
            // 0..=i+1 are joined; WHERE only at the end (except that the
            // planner mines it for single-table constraints at every level).
            join_level(
                &tables,
                &bases,
                0,
                &mut vec![Value::Null; scope.width()],
                &on_bound,
                where_bound.as_ref(),
                &mut matched,
                at,
            )?;
        }
    }

    // ORDER BY on the full row buffers (skipped when the index already
    // delivered them in key order).
    if !keys.is_empty() && !pre_sorted {
        matched.sort_by(|a, b| {
            for (slot, desc) in &keys {
                let ord = a[*slot].index_cmp(&b[*slot]);
                if ord != std::cmp::Ordering::Equal {
                    return if *desc { ord.reverse() } else { ord };
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // OFFSET / LIMIT.
    let offset = sel.offset.unwrap_or(0);
    let matched: Vec<Vec<Value>> = matched
        .into_iter()
        .skip(offset)
        .take(sel.limit.unwrap_or(usize::MAX))
        .collect();

    // Projection / aggregation.
    let has_agg = sel.items.iter().any(|i| matches!(i, SelectItem::Aggregate { .. }));
    if has_agg {
        if sel.items.iter().any(|i| !matches!(i, SelectItem::Aggregate { .. })) {
            return Err(Error::ExecError(
                "mixing aggregates and plain columns requires GROUP BY (unsupported)".into(),
            ));
        }
        let mut columns = Vec::new();
        let mut out = Vec::new();
        for item in &sel.items {
            let SelectItem::Aggregate { func, column, alias } = item else { unreachable!() };
            let slot = column
                .as_ref()
                .map(|(t, c)| scope.resolve(t.as_deref(), c))
                .transpose()?;
            let label = alias.clone().unwrap_or_else(|| {
                let inner = column.as_ref().map_or("*".to_owned(), |(_, c)| c.clone());
                format!("{}({})", agg_name(*func), inner)
            });
            columns.push(label);
            out.push(eval_aggregate(*func, slot, &matched)?);
        }
        return Ok(ResultSet { columns, rows: vec![out] });
    }

    let mut columns = Vec::new();
    let mut slots = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for e in &scope.entries {
                    for (i, c) in e.schema.columns.iter().enumerate() {
                        columns.push(c.name.clone());
                        slots.push(e.base + i);
                    }
                }
            }
            SelectItem::Column { table, column, alias } => {
                slots.push(scope.resolve(table.as_deref(), column)?);
                columns.push(alias.clone().unwrap_or_else(|| column.clone()));
            }
            SelectItem::Aggregate { .. } => unreachable!("handled above"),
        }
    }
    let rows = matched
        .into_iter()
        .map(|buf| slots.iter().map(|&s| buf[s].clone()).collect())
        .collect();
    Ok(ResultSet { columns, rows })
}

/// Does walking `path` deliver rows already ordered by `keys`? True when
/// every sort key is ascending and matches the index column right after
/// the equality prefix, in order — then the B-tree walk *is* the sort.
fn index_satisfies_order(t: &Table, path: &AccessPath, keys: &[(usize, bool)]) -> bool {
    let AccessPath::Index { index, prefix, .. } = path else { return false };
    let cols = &t.indexes()[*index].def.columns;
    keys.iter()
        .enumerate()
        .all(|(i, (slot, desc))| !desc && cols.get(prefix.len() + i) == Some(slot))
}

/// Produce EXPLAIN lines for a SELECT without executing it: one line per
/// table in join order with the chosen access path, then how ORDER BY and
/// LIMIT will be handled. Join levels beyond the first are planned with
/// earlier tables' columns stood in by a placeholder value (their real
/// values exist only per outer row), so those lines show the path shape
/// without row estimates.
pub(crate) fn explain_select(db: &Database, sel: &Select, params: &[Value]) -> Result<Vec<String>> {
    let mut names: Vec<&str> = std::iter::once(sel.from.table.as_str())
        .chain(sel.joins.iter().map(|j| j.table.table.as_str()))
        .collect();
    let handles: Vec<(String, Arc<RwLock<Table>>)> = {
        let mut hs = Vec::new();
        for n in &names {
            hs.push(((*n).to_owned(), db.table(n)?));
        }
        hs
    };
    names.sort_unstable();
    names.dedup();
    let mut guard_map: std::collections::BTreeMap<String, parking_lot::RwLockReadGuard<'_, Table>> =
        std::collections::BTreeMap::new();
    for n in &names {
        let (_, h) = handles.iter().find(|(hn, _)| hn == n).expect("resolved above");
        guard_map.insert((*n).to_owned(), h.read());
    }
    let table_for = |r: &TableRef| -> &Table { &guard_map[&r.table] };

    let mut scope = Scope::default();
    let mut base = 0usize;
    let all_refs: Vec<&TableRef> =
        std::iter::once(&sel.from).chain(sel.joins.iter().map(|j| &j.table)).collect();
    for r in &all_refs {
        let t = table_for(r);
        scope.entries.push(ScopeEntry {
            alias: r.alias.clone().unwrap_or_else(|| r.table.clone()),
            schema: &t.schema,
            base,
        });
        base += t.schema.arity();
    }
    let where_bound = sel.where_clause.as_ref().map(|w| bind(w, &scope, params)).transpose()?;
    let on_bound: Vec<BoundExpr> = sel
        .joins
        .iter()
        .map(|j| bind(&j.on, &scope, params))
        .collect::<Result<_>>()?;
    let tables: Vec<&Table> = all_refs.iter().map(|r| table_for(r)).collect();
    let bases: Vec<usize> = scope.entries.iter().map(|e| e.base).collect();

    let mut lines = Vec::new();
    let mut first_path: Option<AccessPath> = None;
    for (level, (&t, &lvl_base)) in tables.iter().zip(&bases).enumerate() {
        let visible = lvl_base + t.schema.arity();
        let mut sargable: Vec<BoundExpr> = Vec::new();
        let mut preds: Vec<&BoundExpr> = Vec::new();
        if let Some(w) = &where_bound {
            preds.push(w);
        }
        for (i, on) in on_bound.iter().enumerate() {
            if level >= i + 1 {
                preds.push(on);
            }
        }
        for p in preds {
            for c in p.conjuncts() {
                if max_slot(c).is_some_and(|m| m < visible) {
                    let inlined = inline_placeholder(c, lvl_base);
                    if min_slot(&inlined).is_none_or(|s| s >= lvl_base) {
                        sargable.push(inlined);
                    }
                }
            }
        }
        let combined = combine_and(sargable);
        let plan = plan_table_costed(t, combined.as_ref(), lvl_base);
        if level == 0 {
            lines.push(plan.describe(t));
            first_path = Some(plan.path);
        } else {
            lines.push(format!("{} [per outer row]", plan.path.shape(t)));
        }
    }

    if !sel.order_by.is_empty() {
        let keys: Vec<(usize, bool)> = sel
            .order_by
            .iter()
            .map(|k| Ok((scope.resolve(k.table.as_deref(), &k.column)?, k.desc)))
            .collect::<Result<_>>()?;
        let streamed = tables.len() == 1
            && first_path.as_ref().is_some_and(|p| index_satisfies_order(tables[0], p, &keys));
        lines.push(if streamed {
            "order by: streamed from index".to_owned()
        } else {
            "order by: sort".to_owned()
        });
    }
    if let Some(l) = sel.limit {
        let early = tables.len() == 1
            && (sel.order_by.is_empty() || lines.iter().any(|s| s.ends_with("streamed from index")));
        lines.push(format!(
            "limit: {l}{}",
            if early { " (early termination)" } else { "" }
        ));
    }
    Ok(lines)
}

/// Replace slots below `base` with a placeholder literal so explain can
/// show which index a join level would probe (the real values exist only
/// per outer row at execution time).
fn inline_placeholder(e: &BoundExpr, base: usize) -> BoundExpr {
    let buf: Vec<Value> = vec![Value::Int(0); base];
    inline_known(e, base, &buf)
}

fn agg_name(f: AggFunc) -> &'static str {
    match f {
        AggFunc::Count => "COUNT",
        AggFunc::Min => "MIN",
        AggFunc::Max => "MAX",
    }
}

fn eval_aggregate(func: AggFunc, slot: Option<usize>, rows: &[Vec<Value>]) -> Result<Value> {
    Ok(match func {
        AggFunc::Count => match slot {
            None => Value::Int(rows.len() as i64),
            Some(s) => Value::Int(rows.iter().filter(|r| !r[s].is_null()).count() as i64),
        },
        AggFunc::Min | AggFunc::Max => {
            let s = slot.ok_or_else(|| Error::ExecError("MIN/MAX need a column".into()))?;
            let mut best: Option<&Value> = None;
            for r in rows {
                let v = &r[s];
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let ord = v.index_cmp(b);
                        let take = if func == AggFunc::Min {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.cloned().unwrap_or(Value::Null)
        }
    })
}

/// Recursive nested-loop join over `tables[level..]`. `buf` holds the
/// partial row; completed rows that satisfy every applicable predicate are
/// pushed to `out`.
#[allow(clippy::too_many_arguments)]
fn join_level(
    tables: &[&Table],
    bases: &[usize],
    level: usize,
    buf: &mut Vec<Value>,
    on_bound: &[BoundExpr],
    where_bound: Option<&BoundExpr>,
    out: &mut Vec<Vec<Value>>,
    at: Option<&SnapshotPin>,
) -> Result<()> {
    if level == tables.len() {
        if let Some(w) = where_bound {
            if !w.matches(buf)? {
                return Ok(());
            }
        }
        out.push(buf.clone());
        return Ok(());
    }
    let t = tables[level];
    let base = bases[level];

    // Build the constraint expression visible at this level: conjuncts of
    // WHERE and of ON clauses for already-joined tables that reference only
    // this table's slots as unknowns — with slots of earlier tables
    // replaced by their current values so the planner can use them
    // (index nested-loop join).
    let mut sargable: Vec<BoundExpr> = Vec::new();
    let mut level_filters: Vec<BoundExpr> = Vec::new();
    let visible = base + t.schema.arity();
    let mut preds: Vec<&BoundExpr> = Vec::new();
    if let Some(w) = where_bound {
        preds.push(w);
    }
    // ON clause i joins table i+1; usable once level >= i+1.
    for (i, on) in on_bound.iter().enumerate() {
        if level >= i + 1 {
            preds.push(on);
        }
    }
    for p in preds {
        for c in p.conjuncts() {
            match max_slot(c) {
                Some(m) if m < visible => {
                    let inlined = inline_known(c, base, buf);
                    if min_slot(&inlined).is_some_and(|s| s >= base) || min_slot(&inlined).is_none()
                    {
                        // references only this table (or is now constant)
                        sargable.push(inlined.clone());
                        level_filters.push(inlined);
                    }
                }
                _ => {}
            }
        }
    }
    let combined = combine_and(sargable);
    let path = plan_table(t, combined.as_ref(), base);
    let ids: Vec<RowId> = candidate_iter(t, &path, at).collect();
    'rows: for id in ids {
        // Snapshot-filtered under MVCC (index candidates can be dangling
        // or too new); plain latest-image fetch otherwise.
        let Some(row) = crate::db::snapshot_row(t, id, at) else { continue };
        buf[base..base + row.len()].clone_from_slice(row);
        for f in &level_filters {
            if !f.matches(buf)? {
                continue 'rows;
            }
        }
        join_level(tables, bases, level + 1, buf, on_bound, where_bound, out, at)?;
    }
    // clear this level's slots so stale values never leak into siblings
    for v in &mut buf[base..visible] {
        *v = Value::Null;
    }
    Ok(())
}

fn combine_and(mut exprs: Vec<BoundExpr>) -> Option<BoundExpr> {
    let mut acc = exprs.pop()?;
    while let Some(e) = exprs.pop() {
        acc = BoundExpr::And(Box::new(e), Box::new(acc));
    }
    Some(acc)
}

/// Largest slot referenced by an expression, or None if constant.
fn max_slot(e: &BoundExpr) -> Option<usize> {
    fold_slots(e, None, |acc, s| Some(acc.map_or(s, |a: usize| a.max(s))))
}

/// Smallest slot referenced by an expression, or None if constant.
fn min_slot(e: &BoundExpr) -> Option<usize> {
    fold_slots(e, None, |acc, s| Some(acc.map_or(s, |a: usize| a.min(s))))
}

fn fold_slots(
    e: &BoundExpr,
    init: Option<usize>,
    f: fn(Option<usize>, usize) -> Option<usize>,
) -> Option<usize> {
    let mut acc = init;
    let mut stack = vec![e];
    while let Some(e) = stack.pop() {
        match e {
            BoundExpr::Slot(s) => acc = f(acc, *s),
            BoundExpr::Literal(_) => {}
            BoundExpr::Cmp(_, a, b)
            | BoundExpr::And(a, b)
            | BoundExpr::Or(a, b)
            | BoundExpr::Like(a, b) => {
                stack.push(a);
                stack.push(b);
            }
            BoundExpr::Not(a) | BoundExpr::IsNull { expr: a, .. } => stack.push(a),
            BoundExpr::InList(a, list) => {
                stack.push(a);
                stack.extend(list.iter());
            }
        }
    }
    acc
}

/// Replace slots below `base` (earlier join levels, already valued in
/// `buf`) with literals so the planner can exploit them.
fn inline_known(e: &BoundExpr, base: usize, buf: &[Value]) -> BoundExpr {
    match e {
        BoundExpr::Slot(s) if *s < base => BoundExpr::Literal(buf[*s].clone()),
        BoundExpr::Slot(_) | BoundExpr::Literal(_) => e.clone(),
        BoundExpr::Cmp(op, a, b) => BoundExpr::Cmp(
            *op,
            Box::new(inline_known(a, base, buf)),
            Box::new(inline_known(b, base, buf)),
        ),
        BoundExpr::And(a, b) => BoundExpr::And(
            Box::new(inline_known(a, base, buf)),
            Box::new(inline_known(b, base, buf)),
        ),
        BoundExpr::Or(a, b) => BoundExpr::Or(
            Box::new(inline_known(a, base, buf)),
            Box::new(inline_known(b, base, buf)),
        ),
        BoundExpr::Not(a) => BoundExpr::Not(Box::new(inline_known(a, base, buf))),
        BoundExpr::Like(a, b) => BoundExpr::Like(
            Box::new(inline_known(a, base, buf)),
            Box::new(inline_known(b, base, buf)),
        ),
        BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(inline_known(expr, base, buf)),
            negated: *negated,
        },
        BoundExpr::InList(a, list) => BoundExpr::InList(
            Box::new(inline_known(a, base, buf)),
            list.iter().map(|e| inline_known(e, base, buf)).collect(),
        ),
    }
}

/// Placeholder for the unused CmpOp import when compiled without tests.
#[allow(dead_code)]
fn _keep(_: CmpOp) {}
