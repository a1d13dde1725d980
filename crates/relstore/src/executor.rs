//! Statement execution: SELECT pipelines (scan/index → filter → sort →
//! project/aggregate), DDL, and the row-write statements, which run as
//! their unit's typed row writes (`crate::txn::Writes`).

use std::sync::Arc;

use parking_lot::RwLock;

use crate::db::Database;
use crate::mvcc::SnapshotPin;
use crate::error::{Error, Result};
use crate::index::IndexDef;
use crate::planner::{candidate_iter, candidates, plan_table, plan_table_costed, AccessPath};
use crate::predicate::{bind, BoundExpr, Expr, Scope, ScopeEntry};
use crate::row::RowId;
use crate::schema::{ColumnDef, TableSchema};
use crate::sql::ast::*;
use crate::table::Table;
use crate::txn::Writes;
use crate::value::Value;

/// A query result: column labels plus data rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Data rows, one `Vec<Value>` per row.
    pub rows: Vec<Vec<Value>>,
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

/// Execute a DDL statement. A SELECT or a row write is not DDL.
pub(crate) fn exec_ddl(db: &Database, stmt: &Statement) -> Result<ExecResult> {
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
        Statement::Select(_)
        | Statement::Insert { .. }
        | Statement::Update { .. }
        | Statement::Delete { .. } => Err(Error::ExecError("not a DDL statement".into())),
    }
}

/// Execute an INSERT, UPDATE or DELETE as row writes of `writes`' unit;
/// `None` for any other statement. The statement is atomic: one that
/// fails undoes the rows it wrote and, with `give_back`, gives back the
/// AUTO_INCREMENT values it drew (a bare record of an older log replays
/// without, as it first ran).
pub(crate) fn exec_write(
    db: &Database,
    stmt: &Statement,
    params: &[Value],
    writes: &mut Writes,
    give_back: bool,
) -> Option<Result<ExecResult>> {
    let table = match stmt {
        Statement::Insert { table, .. }
        | Statement::Update { table, .. }
        | Statement::Delete { table, .. } => table,
        _ => return None,
    };
    let handle = match db.table(table) {
        Ok(h) => h,
        Err(e) => return Some(Err(e)),
    };
    let mut t = handle.write();
    let ix = writes.touch(db, &handle, &t);
    let mark = writes.mark();
    let mut run = |t: &mut Table| {
        let w = Rows { db, writes: &mut *writes, ix, params };
        match stmt {
            Statement::Insert { columns, rows, .. } => w.insert(t, columns, rows),
            Statement::Update { sets, where_clause, .. } => w.update(t, sets, where_clause.as_ref()),
            Statement::Delete { where_clause, .. } => w.delete(t, where_clause.as_ref()),
            _ => unreachable!("matched above"),
        }
    };
    let r = if give_back { t.giving_back(run) } else { run(&mut t) };
    if r.is_err() {
        writes.undo_since(mark, &mut t);
    }
    Some(r)
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

/// One row-write statement's access to its unit.
struct Rows<'a> {
    db: &'a Database,
    writes: &'a mut Writes,
    /// The table's position among the unit's touched tables.
    ix: usize,
    params: &'a [Value],
}

impl Rows<'_> {
    fn insert(self, t: &mut Table, columns: &[String], rows: &[Vec<Expr>]) -> Result<ExecResult> {
        let arity = t.schema.arity();
        // Map supplied columns to schema positions.
        let positions: Vec<usize> = if columns.is_empty() {
            (0..arity).collect()
        } else {
            columns.iter().map(|c| t.schema.column_index(c)).collect::<Result<_>>()?
        };
        let mut last_id = None;
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
                full[*pos] = eval_const(e, self.params)?;
            }
            self.writes.insert(self.db, self.ix, t, full)?;
            last_id = t.last_auto_value().or(last_id);
        }
        Ok(ExecResult { rows_affected: rows.len(), last_insert_id: last_id, rows: None })
    }

    /// The latest rows of `t` that `where_clause` matches.
    fn matching(&self, t: &Table, where_clause: Option<&Expr>) -> Result<Vec<RowId>> {
        let scope = Scope::single(&t.schema);
        let pred = where_clause.map(|w| bind(w, &scope, self.params)).transpose()?;
        let path = plan_table(t, pred.as_ref(), 0);
        let mut matched = Vec::new();
        for id in candidates(t, &path) {
            let Some(row) = t.get(id) else { continue };
            if pred.as_ref().map_or(Ok(true), |p| p.matches(row))? {
                matched.push(id);
            }
        }
        if t.is_mvcc() {
            // An index keeps a superseded image's key until vacuum, so a
            // row can be a candidate twice.
            matched.sort_unstable();
            matched.dedup();
        }
        Ok(matched)
    }

    fn update(
        self,
        t: &mut Table,
        sets: &[(String, Expr)],
        where_clause: Option<&Expr>,
    ) -> Result<ExecResult> {
        let set_pos: Vec<(usize, Value)> = sets
            .iter()
            .map(|(c, e)| Ok((t.schema.column_index(c)?, eval_const(e, self.params)?)))
            .collect::<Result<_>>()?;
        let matched = self.matching(t, where_clause)?;
        for &id in &matched {
            let mut new_row = t.get(id).expect("matched row exists").clone();
            for (pos, v) in &set_pos {
                new_row[*pos] = v.clone();
            }
            self.writes.update(self.db, self.ix, t, id, new_row)?;
        }
        Ok(ExecResult { rows_affected: matched.len(), ..Default::default() })
    }

    fn delete(self, t: &mut Table, where_clause: Option<&Expr>) -> Result<ExecResult> {
        let matched = self.matching(t, where_clause)?;
        for &id in &matched {
            self.writes.delete(self.db, self.ix, t, id)?;
        }
        Ok(ExecResult { rows_affected: matched.len(), ..Default::default() })
    }
}

/// Execute a SELECT and materialize the result set.
/// A SELECT's tables, in FROM-then-JOIN order, bound for `f`: each
/// read-locked once, in name order (which keeps concurrent multi-table
/// readers and writers from deadlocking; a self-join shares its guard),
/// with the scope of their columns, the bound WHERE clause and the bound
/// ON clause of each join.
fn with_bound<R>(
    db: &Database,
    sel: &Select,
    params: &[Value],
    f: impl FnOnce(&[&Table], &Scope<'_>, Option<BoundExpr>, Vec<BoundExpr>) -> Result<R>,
) -> Result<R> {
    let refs: Vec<&TableRef> =
        std::iter::once(&sel.from).chain(sel.joins.iter().map(|j| &j.table)).collect();
    let mut handles: Vec<(&str, Arc<RwLock<Table>>)> =
        refs.iter().map(|r| Ok((r.table.as_str(), db.table(&r.table)?))).collect::<Result<_>>()?;
    handles.sort_by(|a, b| a.0.cmp(b.0));
    handles.dedup_by(|a, b| a.0 == b.0);
    let guards: std::collections::BTreeMap<&str, parking_lot::RwLockReadGuard<'_, Table>> =
        handles.iter().map(|(n, h)| (*n, h.read())).collect();
    let tables: Vec<&Table> = refs.iter().map(|r| &*guards[r.table.as_str()]).collect();
    let mut scope = Scope::default();
    let mut base = 0usize;
    for (r, t) in refs.iter().zip(&tables) {
        scope.entries.push(ScopeEntry {
            alias: r.alias.clone().unwrap_or_else(|| r.table.clone()),
            schema: &t.schema,
            base,
        });
        base += t.schema.arity();
    }
    let where_bound = sel.where_clause.as_ref().map(|w| bind(w, &scope, params)).transpose()?;
    let on_bound: Vec<BoundExpr> =
        sel.joins.iter().map(|j| bind(&j.on, &scope, params)).collect::<Result<_>>()?;
    f(&tables, &scope, where_bound, on_bound)
}

pub(crate) fn exec_select(
    db: &Database,
    sel: &Select,
    params: &[Value],
    at: Option<&SnapshotPin>,
) -> Result<ResultSet> {
    with_bound(db, sel, params, |tables, scope, where_bound, on_bound| {
        select_rows(sel, tables, scope, where_bound, &on_bound, at)
    })
}

fn select_rows(
    sel: &Select,
    tables: &[&Table],
    scope: &Scope<'_>,
    where_bound: Option<BoundExpr>,
    on_bound: &[BoundExpr],
    at: Option<&SnapshotPin>,
) -> Result<ResultSet> {
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
                tables,
                &bases,
                0,
                &mut vec![Value::Null; scope.width()],
                on_bound,
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
    with_bound(db, sel, params, |tables, scope, where_bound, on_bound| {
        explain_lines(sel, tables, scope, where_bound, &on_bound)
    })
}

fn explain_lines(
    sel: &Select,
    tables: &[&Table],
    scope: &Scope<'_>,
    where_bound: Option<BoundExpr>,
    on_bound: &[BoundExpr],
) -> Result<Vec<String>> {
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
