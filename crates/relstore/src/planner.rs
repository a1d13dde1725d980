//! Cost-based access-path selection.
//!
//! Given the conjunctive constraints a WHERE clause places on one table's
//! columns, pick the cheapest access path: full-width index equality, an
//! index prefix scan (optionally range-bounded on the first unconstrained
//! column), or a full table scan. This mirrors the access paths MySQL 4.1
//! used for the MCS workload (paper §7 built indexes on names, ids and
//! (name,id) pairs).
//!
//! Candidates are costed with real cardinality information, the way
//! MySQL's optimizer did for the paper's deployment: each is measured by
//! an *index dive*, a walk of the matching key range that stops at
//! [`DIVE_CAP`] entries. A dive that stops there is priced at the cap,
//! with no estimate past it: it ranks above every dive that did not stop,
//! and among stopped dives the table's index order decides. Cost is
//! `log2(rows) + estimated_fetches` for an index path versus `rows` for a
//! full scan; the cheapest plan wins, so a predicate matching most of a
//! small table correctly degenerates to the scan it would cause anyway.
//!
//! An index stores no key with a NULL component (see [`crate::index`]),
//! so it holds only the rows that are non-NULL in all of its columns. It
//! is therefore a candidate only if each of its nullable columns is in
//! the equality prefix or is the range column: a comparison with a
//! non-NULL literal there already excludes the rows the index leaves
//! out, so the scan misses nothing.

use std::ops::Bound;

use crate::mvcc::SnapshotPin;
use crate::predicate::{BoundExpr, CmpOp};
use crate::table::Table;
use crate::value::Value;

/// Cap on index-dive counting: at this many entries the dive stops and
/// its path is priced at the cap. Bounds planning cost on huge posting
/// ranges.
pub const DIVE_CAP: usize = 1024;

/// Chosen access path for one table.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan every live row.
    FullScan,
    /// Walk index `index` (position in [`Table::indexes`]): rows whose key
    /// starts with `prefix`, with the column after the prefix bounded by
    /// `low`/`high`.
    Index {
        /// Index position within the table's index list.
        index: usize,
        /// Equality-constrained leading key columns.
        prefix: Vec<Value>,
        /// Lower bound on the next key column.
        low: Bound<Value>,
        /// Upper bound on the next key column.
        high: Bound<Value>,
    },
}

impl AccessPath {
    /// True if this is a full-width equality lookup (point query).
    pub fn is_point_lookup(&self, table: &Table) -> bool {
        match self {
            AccessPath::Index { index, prefix, low, high } => {
                matches!((low, high), (Bound::Unbounded, Bound::Unbounded))
                    && prefix.len() == table.indexes()[*index].def.columns.len()
            }
            AccessPath::FullScan => false,
        }
    }

    /// Compact shape string for EXPLAIN output, without estimates:
    /// `t: full scan`, `t: index ua_name_int eq(2)`,
    /// `t: index ua_name_str eq(1)+range`.
    pub fn shape(&self, table: &Table) -> String {
        match self {
            AccessPath::FullScan => format!("{}: full scan", table.schema.name),
            AccessPath::Index { index, prefix, low, high } => {
                let ix = &table.indexes()[*index];
                let ranged = !matches!((low, high), (Bound::Unbounded, Bound::Unbounded));
                let shape = match (prefix.len(), ranged) {
                    (0, _) => "range".to_owned(),
                    (n, true) => format!("eq({n})+range"),
                    (n, false) => format!("eq({n})"),
                };
                format!("{}: index {} {shape}", table.schema.name, ix.def.name)
            }
        }
    }
}

/// A costed physical plan for one table: the chosen path plus the
/// planner's cardinality/cost estimates (surfaced by `EXPLAIN`).
#[derive(Debug, Clone, PartialEq)]
pub struct TablePlan {
    /// The chosen access path.
    pub path: AccessPath,
    /// Estimated rows the path yields before residual filtering.
    pub est_rows: f64,
    /// Estimated cost (index traversal + row fetches, in row units).
    pub cost: f64,
    /// True if the estimate is an exact count; false if the dive stopped
    /// at [`DIVE_CAP`] and `est_rows` is the cap.
    pub exact: bool,
}

impl TablePlan {
    /// Human-readable one-liner for EXPLAIN output, e.g.
    /// `user_attributes: index ua_name_int eq(2) (~4 rows, cost 6.5)`.
    pub fn describe(&self, table: &Table) -> String {
        let src = if self.exact { "" } else { "~" };
        match &self.path {
            AccessPath::FullScan => {
                format!("{} ({src}{} rows)", self.path.shape(table), self.est_rows as u64)
            }
            AccessPath::Index { .. } => format!(
                "{} ({src}{} rows, cost {:.1})",
                self.path.shape(table),
                self.est_rows as u64,
                self.cost
            ),
        }
    }
}

/// Per-column constraints extracted from conjuncts.
#[derive(Debug, Default, Clone)]
struct ColConstraint {
    eq: Option<Value>,
    low: Option<(Value, bool)>,  // (bound, inclusive)
    high: Option<(Value, bool)>, // (bound, inclusive)
}

/// Extract sargable constraints for the table occupying row-buffer slots
/// `[base, base + arity)` from the conjuncts of `pred`.
fn constraints(pred: &BoundExpr, base: usize, arity: usize) -> Vec<ColConstraint> {
    let mut cons = vec![ColConstraint::default(); arity];
    for c in pred.conjuncts() {
        let BoundExpr::Cmp(op, a, b) = c else { continue };
        // normalize to slot <op> literal
        let (slot, lit, op) = match (&**a, &**b) {
            (BoundExpr::Slot(s), BoundExpr::Literal(v)) => (*s, v, *op),
            (BoundExpr::Literal(v), BoundExpr::Slot(s)) => (*s, v, flip(*op)),
            _ => continue,
        };
        if slot < base || slot >= base + arity || lit.is_null() {
            continue;
        }
        let col = slot - base;
        match op {
            CmpOp::Eq => cons[col].eq = Some(lit.clone()),
            CmpOp::Gt => tighten_low(&mut cons[col], lit.clone(), false),
            CmpOp::Ge => tighten_low(&mut cons[col], lit.clone(), true),
            CmpOp::Lt => tighten_high(&mut cons[col], lit.clone(), false),
            CmpOp::Le => tighten_high(&mut cons[col], lit.clone(), true),
            CmpOp::Ne => {}
        }
    }
    cons
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

fn tighten_low(c: &mut ColConstraint, v: Value, inclusive: bool) {
    let replace = match &c.low {
        None => true,
        Some((cur, cur_incl)) => match v.index_cmp(cur) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => *cur_incl && !inclusive,
            std::cmp::Ordering::Less => false,
        },
    };
    if replace {
        c.low = Some((v, inclusive));
    }
}

fn tighten_high(c: &mut ColConstraint, v: Value, inclusive: bool) {
    let replace = match &c.high {
        None => true,
        Some((cur, cur_incl)) => match v.index_cmp(cur) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => *cur_incl && !inclusive,
            std::cmp::Ordering::Greater => false,
        },
    };
    if replace {
        c.high = Some((v, inclusive));
    }
}

/// Pick the cheapest access path for `table` under `pred` (whose slots for
/// this table start at `base`), with cost and cardinality estimates.
pub fn plan_table_costed(table: &Table, pred: Option<&BoundExpr>, base: usize) -> TablePlan {
    let live = table.len() as f64;
    let full = TablePlan { path: AccessPath::FullScan, est_rows: live, cost: live, exact: true };
    let Some(pred) = pred else { return full };
    let cons = constraints(pred, base, table.schema.arity());
    let mut best = full;
    for (pos, ix) in table.indexes().iter().enumerate() {
        let mut eq_len = 0;
        for &col in &ix.def.columns {
            if cons[col].eq.is_some() {
                eq_len += 1;
            } else {
                break;
            }
        }
        let range_col = ix
            .def
            .columns
            .get(eq_len)
            .copied()
            .filter(|&col| cons[col].low.is_some() || cons[col].high.is_some());
        let constrained = eq_len + usize::from(range_col.is_some());
        if constrained == 0
            || ix.def.columns[constrained..].iter().any(|&col| table.schema.columns[col].nullable)
        {
            continue;
        }
        let prefix: Vec<Value> = ix.def.columns[..eq_len]
            .iter()
            .map(|&col| cons[col].eq.clone().expect("eq constraint checked"))
            .collect();
        let (low, high) = match range_col {
            Some(col) => {
                let low = match &cons[col].low {
                    None => Bound::Unbounded,
                    Some((v, true)) => Bound::Included(v.clone()),
                    Some((v, false)) => Bound::Excluded(v.clone()),
                };
                let high = match &cons[col].high {
                    None => Bound::Unbounded,
                    Some((v, true)) => Bound::Included(v.clone()),
                    Some((v, false)) => Bound::Excluded(v.clone()),
                };
                (low, high)
            }
            None => (Bound::Unbounded, Bound::Unbounded),
        };
        // Cardinality: an exact count, or the cap for a dive that hit it.
        // Capped dives then cost the same, and the strict comparison below
        // keeps the first of them.
        let (est_rows, exact) = if eq_len == ix.def.columns.len() && range_col.is_none() {
            (ix.count_eq(&prefix) as f64, true)
        } else {
            match ix.count_prefix_range(&prefix, as_ref(&low), as_ref(&high), DIVE_CAP) {
                (_, true) => (DIVE_CAP as f64, false),
                (n, false) => (n as f64, true),
            }
        };
        let cost = (live + 2.0).log2() + est_rows;
        if cost < best.cost {
            best = TablePlan {
                path: AccessPath::Index { index: pos, prefix, low, high },
                est_rows,
                cost,
                exact,
            };
        }
    }
    best
}

/// Pick an access path for `table` under `pred`. Compatibility wrapper
/// around [`plan_table_costed`] returning just the path.
pub fn plan_table(table: &Table, pred: Option<&BoundExpr>, base: usize) -> AccessPath {
    plan_table_costed(table, pred, base).path
}

/// Stream the candidate row ids for an access path in index-key order
/// (slot order for full scans), for a read at snapshot `at`. Lazy: a
/// consumer that stops early — LIMIT, short-circuiting intersection —
/// never walks the rest of the index.
pub fn candidate_iter<'t>(
    table: &'t Table,
    path: &AccessPath,
    at: Option<&SnapshotPin>,
) -> Box<dyn Iterator<Item = crate::row::RowId> + 't> {
    match path {
        AccessPath::FullScan => {
            // At a pinned MVCC snapshot a full scan must visit every heap
            // slot: a tombstoned slot can still hold the version visible
            // to this snapshot. The visibility filter happens at
            // row-fetch time (`crate::db::snapshot_row`).
            if table.is_mvcc() && at.is_some() {
                Box::new((0..table.slot_count() as u64).map(crate::row::RowId))
            } else {
                Box::new(table.scan().map(|(id, _)| id))
            }
        }
        AccessPath::Index { index, prefix, low, high } => {
            let ix = &table.indexes()[*index];
            if prefix.len() == ix.def.columns.len()
                && matches!((low, high), (Bound::Unbounded, Bound::Unbounded))
            {
                Box::new(ix.get_eq(prefix))
            } else {
                Box::new(ix.iter_prefix_range(prefix.clone(), low.clone(), high.clone()))
            }
        }
    }
}

/// Materialize the candidate row ids for an access path, for a read of
/// the latest images (a write's scan).
pub fn candidates(table: &Table, path: &AccessPath) -> Vec<crate::row::RowId> {
    candidate_iter(table, path, None).collect()
}

fn as_ref(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexDef;
    use crate::predicate::{bind, Expr, Scope};
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::ValueType;

    fn table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::auto_id("id"),
                ColumnDef::required("name", ValueType::Str),
                ColumnDef::required("version", ValueType::Int),
                ColumnDef::nullable("score", ValueType::Float),
            ],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.create_index(IndexDef { name: "by_name_ver".into(), columns: vec![1, 2], unique: false })
            .unwrap();
        for i in 0..20i64 {
            t.insert(vec![
                Value::Null,
                format!("f{}", i % 5).into(),
                Value::Int(i),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        t
    }

    fn plan(t: &Table, where_sql: &Expr) -> AccessPath {
        plan_costed(t, where_sql).path
    }

    fn plan_costed(t: &Table, where_sql: &Expr) -> TablePlan {
        let scope = Scope::single(&t.schema);
        let be = bind(where_sql, &scope, &[]).unwrap();
        plan_table_costed(t, Some(&be), 0)
    }

    #[test]
    fn picks_pk_point_lookup() {
        let t = table();
        let p = plan(&t, &Expr::col_eq("id", 3i64));
        assert!(p.is_point_lookup(&t));
        assert_eq!(candidates(&t, &p).len(), 1);
    }

    #[test]
    fn picks_composite_prefix() {
        let t = table();
        let e = Expr::col_eq("name", "f1");
        let p = plan(&t, &e);
        match &p {
            AccessPath::Index { index, prefix, .. } => {
                assert_eq!(t.indexes()[*index].def.name, "by_name_ver");
                assert_eq!(prefix.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(candidates(&t, &p).len(), 4); // f1 appears for i=1,6,11,16
    }

    #[test]
    fn eq_prefix_plus_range() {
        let t = table();
        let e = Expr::And(
            Box::new(Expr::col_eq("name", "f1")),
            Box::new(Expr::Cmp(
                CmpOp::Ge,
                Box::new(Expr::col("version")),
                Box::new(Expr::lit(6i64)),
            )),
        );
        let p = plan(&t, &e);
        match &p {
            AccessPath::Index { prefix, low, .. } => {
                assert_eq!(prefix.len(), 1);
                assert_eq!(*low, Bound::Included(Value::Int(6)));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(candidates(&t, &p).len(), 3); // versions 6, 11, 16
    }

    #[test]
    fn full_scan_when_no_index_applies() {
        let t = table();
        let e = Expr::col_eq("score", 3.0f64);
        assert_eq!(plan(&t, &e), AccessPath::FullScan);
        assert_eq!(plan_table(&t, None, 0), AccessPath::FullScan);
        assert_eq!(candidates(&t, &AccessPath::FullScan).len(), 20);
    }

    #[test]
    fn range_only_on_first_index_column() {
        let t = table();
        let e = Expr::Cmp(CmpOp::Lt, Box::new(Expr::col("name")), Box::new(Expr::lit("f1")));
        match plan(&t, &e) {
            AccessPath::Index { prefix, high, .. } => {
                assert!(prefix.is_empty());
                assert_eq!(high, Bound::Excluded(Value::from("f1")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn conflicting_bounds_tighten() {
        let t = table();
        // version > 3 AND version > 7 -> low bound 7 exclusive (on name-prefixed idx needs name eq too)
        let e = Expr::and_all(vec![
            Expr::col_eq("name", "f0"),
            Expr::Cmp(CmpOp::Gt, Box::new(Expr::col("version")), Box::new(Expr::lit(3i64))),
            Expr::Cmp(CmpOp::Gt, Box::new(Expr::col("version")), Box::new(Expr::lit(7i64))),
        ])
        .unwrap();
        match plan(&t, &e) {
            AccessPath::Index { low, .. } => assert_eq!(low, Bound::Excluded(Value::Int(7))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn or_disables_index_use() {
        let t = table();
        // OR at the top is not a conjunction of sargables
        let e = Expr::Or(
            Box::new(Expr::col_eq("name", "f0")),
            Box::new(Expr::col_eq("version", 3i64)),
        );
        assert_eq!(plan(&t, &e), AccessPath::FullScan);
    }

    #[test]
    fn costed_plan_reports_exact_dive() {
        let t = table();
        let p = plan_costed(&t, &Expr::col_eq("name", "f1"));
        assert!(p.exact, "4 matching entries are within the dive cap");
        assert_eq!(p.est_rows, 4.0);
        assert!(p.cost < t.len() as f64);
        assert!(p.describe(&t).contains("by_name_ver"), "{}", p.describe(&t));
    }

    #[test]
    fn unselective_index_degenerates_to_full_scan() {
        // Every row shares one key: fetching via the index costs a full
        // scan *plus* the tree walk, so the planner must pick the scan.
        let schema = TableSchema::new(
            "t",
            vec![ColumnDef::auto_id("id"), ColumnDef::required("name", ValueType::Str)],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.create_index(IndexDef { name: "by_name".into(), columns: vec![1], unique: false })
            .unwrap();
        for _ in 0..50 {
            t.insert(vec![Value::Null, "same".into()]).unwrap();
        }
        let p = plan_costed(&t, &Expr::col_eq("name", "same"));
        assert_eq!(p.path, AccessPath::FullScan);
    }

    #[test]
    fn capped_dives_are_priced_at_the_cap() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::auto_id("id"),
                ColumnDef::required("name", ValueType::Str),
                ColumnDef::required("version", ValueType::Int),
                ColumnDef::required("rev", ValueType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let total = DIVE_CAP as i64 + 600;
        for order in [["by_name_ver", "by_name_rev"], ["by_name_rev", "by_name_ver"]] {
            let mut t = Table::new(schema.clone());
            for name in order {
                let col = if name == "by_name_ver" { 2 } else { 3 };
                t.create_index(IndexDef { name: name.into(), columns: vec![1, col], unique: false })
                    .unwrap();
            }
            for i in 0..total {
                let name = if i % 8 == 0 { "cold" } else { "hot" };
                t.insert(vec![Value::Null, name.into(), Value::Int(i), Value::Int(-i)]).unwrap();
            }
            let chosen = |p: &TablePlan| match &p.path {
                AccessPath::Index { index, .. } => t.indexes()[*index].def.name.clone(),
                other => panic!("{other:?}"),
            };
            // "hot" matches 7/8 of the table: both dives stop at the cap
            // and are priced at it, so the index created first wins, and
            // still beats the full scan.
            let p = plan_costed(&t, &Expr::col_eq("name", "hot"));
            assert!(!p.exact);
            assert_eq!(p.est_rows, DIVE_CAP as f64);
            assert_eq!(chosen(&p), order[0]);
            assert!(p.cost < t.len() as f64);
            // A dive that ends below the cap ranks below a capped one,
            // whatever the index order.
            let e = Expr::And(
                Box::new(Expr::col_eq("name", "hot")),
                Box::new(Expr::Cmp(
                    CmpOp::Lt,
                    Box::new(Expr::col("version")),
                    Box::new(Expr::lit(1000i64)),
                )),
            );
            let p = plan_costed(&t, &e);
            assert!(p.exact);
            assert_eq!(p.est_rows, 875.0);
            assert_eq!(chosen(&p), "by_name_ver");
            // "cold" is a cheap exact dive and beats the scan.
            let p = plan_costed(&t, &Expr::col_eq("name", "cold"));
            assert!(p.exact);
            assert_eq!(p.est_rows, (total as f64 / 8.0).ceil());
            assert!(matches!(p.path, AccessPath::Index { .. }));
        }
    }

    #[test]
    fn index_with_unconstrained_nullable_column_is_not_a_candidate() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::auto_id("id"),
                ColumnDef::required("name", ValueType::Str),
                ColumnDef::nullable("score", ValueType::Float),
            ],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.create_index(IndexDef { name: "name_score".into(), columns: vec![1, 2], unique: false })
            .unwrap();
        for i in 0..20i64 {
            let score = if i % 2 == 0 { Value::Null } else { Value::Float(i as f64) };
            t.insert(vec![Value::Null, format!("f{}", i % 5).into(), score]).unwrap();
        }
        // The index holds no row whose score is NULL, so `name = 'f1'`
        // alone must not walk it: the scan still meets ids 7 and 17.
        let e = Expr::col_eq("name", "f1");
        let p = plan(&t, &e);
        assert_eq!(p, AccessPath::FullScan);
        let f1: Vec<i64> = candidates(&t, &p)
            .into_iter()
            .filter_map(|id| t.get(id))
            .filter(|row| row[1] == Value::from("f1"))
            .map(|row| row[0].as_int().unwrap())
            .collect();
        assert_eq!(f1, vec![2, 7, 12, 17]);
        // A range on `score` excludes NULL rows anyway: the index serves it.
        let e = Expr::And(
            Box::new(Expr::col_eq("name", "f1")),
            Box::new(Expr::Cmp(
                CmpOp::Ge,
                Box::new(Expr::col("score")),
                Box::new(Expr::lit(0.0f64)),
            )),
        );
        let p = plan(&t, &e);
        match &p {
            AccessPath::Index { index, prefix, low, .. } => {
                assert_eq!(t.indexes()[*index].def.name, "name_score");
                assert_eq!(prefix, &vec![Value::from("f1")]);
                assert_eq!(*low, Bound::Included(Value::Float(0.0)));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(candidates(&t, &p), vec![crate::row::RowId(1), crate::row::RowId(11)]);
    }

    #[test]
    fn null_literal_not_sargable() {
        let t = table();
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::col("name")),
            Box::new(Expr::Literal(Value::Null)),
        );
        assert_eq!(plan(&t, &e), AccessPath::FullScan);
    }
}
