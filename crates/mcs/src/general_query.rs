//! The "more general query model" of paper §9.
//!
//! The 2003 MCS API only supported conjunctions of attribute predicates;
//! both the ESG experience (§6.2: "ESG scientists wanted more flexibility
//! in the types of queries") and the redesign plans (§9: "we will provide
//! a more general query model") call for arbitrary boolean combinations.
//! [`QueryExpr`] provides AND / OR / NOT trees over attribute predicates
//! plus predicates on predefined (static) metadata, evaluated by set
//! algebra over the same access paths as the classic conjunctive query.

use std::collections::HashSet;

use relstore::predicate::like_match;
use relstore::Value;

use crate::catalog::Mcs;
use crate::error::{McsError, Result};
use crate::model::*;

/// Predicates over the predefined (static) logical-file schema that the
/// general model admits alongside user-defined attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum StaticPredicate {
    /// Logical name LIKE pattern.
    NameLike(String),
    /// Data type equals.
    DataTypeIs(String),
    /// Creator DN equals.
    CreatorIs(String),
    /// Member of this logical collection (directly).
    InCollection(String),
    /// Validity flag equals.
    ValidIs(bool),
}

/// A general boolean query over logical files.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryExpr {
    /// A user-defined attribute predicate (leaf).
    Attr(AttrPredicate),
    /// A static-schema predicate (leaf).
    Static(StaticPredicate),
    /// All subexpressions must hold.
    And(Vec<QueryExpr>),
    /// At least one subexpression must hold.
    Or(Vec<QueryExpr>),
    /// The subexpression must not hold.
    Not(Box<QueryExpr>),
}

impl QueryExpr {
    /// Leaf: attribute equality.
    pub fn attr_eq(name: impl Into<String>, value: impl Into<Value>) -> QueryExpr {
        QueryExpr::Attr(AttrPredicate::eq(name, value))
    }

    /// `self AND other`.
    pub fn and(self, other: QueryExpr) -> QueryExpr {
        match self {
            QueryExpr::And(mut v) => {
                v.push(other);
                QueryExpr::And(v)
            }
            s => QueryExpr::And(vec![s, other]),
        }
    }

    /// `self OR other`.
    pub fn or(self, other: QueryExpr) -> QueryExpr {
        match self {
            QueryExpr::Or(mut v) => {
                v.push(other);
                QueryExpr::Or(v)
            }
            s => QueryExpr::Or(vec![s, other]),
        }
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> QueryExpr {
        QueryExpr::Not(Box::new(self))
    }

    /// Number of leaves (guards against pathological requests).
    pub fn leaf_count(&self) -> usize {
        match self {
            QueryExpr::Attr(_) | QueryExpr::Static(_) => 1,
            QueryExpr::And(v) | QueryExpr::Or(v) => v.iter().map(QueryExpr::leaf_count).sum(),
            QueryExpr::Not(e) => e.leaf_count(),
        }
    }
}

/// Evaluation limit: queries with more leaves than this are rejected.
const MAX_LEAVES: usize = 64;

/// Iterate the rows a reader at `at` should see: on the barrier engine,
/// the live latest images ([`relstore::Table::scan`]); under MVCC, every
/// slot filtered through the snapshot — a slot whose latest image is
/// deleted or uncommitted may still carry a version the snapshot sees.
fn snapshot_scan<'t>(
    t: &'t relstore::Table,
    at: Option<&'t relstore::SnapshotPin>,
) -> Box<dyn Iterator<Item = &'t relstore::Row> + 't> {
    if t.is_mvcc() {
        Box::new(
            (0..t.slot_count() as u64)
                .filter_map(move |i| relstore::snapshot_row(t, relstore::RowId(i), at)),
        )
    } else {
        Box::new(t.scan().map(|(_, r)| r))
    }
}

impl Mcs {
    /// Evaluate a general boolean query; returns matching **valid**
    /// (name, version) pairs, sorted (§9's general query model).
    /// Requires service Read.
    pub fn general_query(&self, cred: &Credential, expr: &QueryExpr) -> Result<Vec<(String, i64)>> {
        self.require_service_perm(cred, Permission::Read)?;
        if expr.leaf_count() == 0 {
            return Err(McsError::BadAttribute("query has no predicates".into()));
        }
        if expr.leaf_count() > MAX_LEAVES {
            return Err(McsError::BadAttribute(format!(
                "query has {} leaves (limit {MAX_LEAVES})",
                expr.leaf_count()
            )));
        }
        // Resolve every leaf's referent before evaluating any: a missing
        // attribute or collection then fails the query whatever order the
        // leaves run in — the planner reorders conjunctions, and an empty
        // group must not short-circuit past the leaf that would fail.
        self.check_referents(expr)?;
        // One snapshot for the whole boolean tree and the resolve pass:
        // every leaf (and the NOT complement's full scan) reads the same
        // consistent cut. No-op on the barrier engine.
        self.pinned(|m| {
            let ids = m.eval_expr(expr)?;
            m.valid_hits(&crate::plan::sorted_ids(ids.into_iter().collect()))
        })
    }

    /// The errors a leaf raises whatever the data: an undefined attribute
    /// or an unknown collection, first in tree order.
    fn check_referents(&self, expr: &QueryExpr) -> Result<()> {
        match expr {
            QueryExpr::Attr(p) => {
                self.attribute_definition(&p.name)?.ok_or_else(|| {
                    McsError::BadAttribute(format!("`{}` is not defined", p.name))
                })?;
            }
            QueryExpr::Static(StaticPredicate::InCollection(name)) => {
                self.resolve_collection(name)?;
            }
            QueryExpr::Static(_) => {}
            QueryExpr::And(subs) | QueryExpr::Or(subs) => {
                subs.iter().try_for_each(|s| self.check_referents(s))?
            }
            QueryExpr::Not(sub) => self.check_referents(sub)?,
        }
        Ok(())
    }

    /// Set-algebra evaluation: every node yields the set of file ids
    /// satisfying it. NOT is complement against the full file-id set.
    fn eval_expr(&self, expr: &QueryExpr) -> Result<HashSet<i64>> {
        Ok(match expr {
            QueryExpr::Attr(p) => {
                let def = self.attribute_definition(&p.name)?.ok_or_else(|| {
                    McsError::BadAttribute(format!("`{}` is not defined", p.name))
                })?;
                let handle = self.db.table("user_attributes")?;
                let t = handle.read();
                self.eval_predicate(&t, p, def.attr_type)?.into_iter().collect()
            }
            QueryExpr::Static(sp) => self.eval_static(sp)?,
            QueryExpr::And(subs) => {
                // Under the value-indexed profile, well-typed Attr
                // leaves of a conjunction are compiled into one
                // cost-based plan (crate::plan) instead of evaluating in
                // syntactic order; the group runs where its first member
                // stood and every other child still evaluates
                // sequentially at its own position. Like any cost-based
                // reorder this may change *which* error a multi-error
                // expression reports, never a successful answer. Leaves
                // that fail type-checking stay sequential so they error
                // (or not) exactly where the naive path would.
                let planned = self.profile == crate::schema::IndexProfile::ValueIndexed
                    && !self.ctx.planner_bypass;
                let mut grouped = vec![false; subs.len()];
                let mut group: Vec<(&AttrPredicate, AttrType)> = Vec::new();
                if planned {
                    for (i, s) in subs.iter().enumerate() {
                        if let QueryExpr::Attr(p) = s {
                            if let Ok(ty) = self.check_predicate_type(p) {
                                grouped[i] = true;
                                group.push((p, ty));
                            }
                        }
                    }
                    if group.len() < 2 {
                        grouped.iter_mut().for_each(|g| *g = false);
                        group.clear();
                    }
                }
                let mut acc: Option<HashSet<i64>> = None;
                let mut group_done = false;
                for (i, s) in subs.iter().enumerate() {
                    let ids = if grouped[i] {
                        if group_done {
                            continue;
                        }
                        group_done = true;
                        let handle = self.db.table("user_attributes")?;
                        let t = handle.read();
                        let plan = crate::plan::plan_conjunction(&t, &group)?;
                        self.run_attr_plan(&t, &group, &plan)?.into_iter().collect()
                    } else {
                        self.eval_expr(s)?
                    };
                    acc = Some(match acc {
                        None => ids,
                        Some(prev) => prev.intersection(&ids).copied().collect(),
                    });
                    if acc.as_ref().is_some_and(HashSet::is_empty) {
                        break;
                    }
                }
                acc.unwrap_or_default()
            }
            QueryExpr::Or(subs) => {
                let mut acc = HashSet::new();
                for s in subs {
                    acc.extend(self.eval_expr(s)?);
                }
                acc
            }
            QueryExpr::Not(sub) => {
                let exclude = self.eval_expr(sub)?;
                let handle = self.db.table("logical_files")?;
                let t = handle.read();
                snapshot_scan(&t, self.at())
                    .filter_map(|row| row[0].as_int().ok())
                    .filter(|id| !exclude.contains(id))
                    .collect()
            }
        })
    }

    fn eval_static(&self, sp: &StaticPredicate) -> Result<HashSet<i64>> {
        let handle = self.db.table("logical_files")?;
        let t = handle.read();
        let mut out = HashSet::new();
        match sp {
            StaticPredicate::InCollection(name) => {
                // indexed path: collection_id lookup
                let c = self.resolve_collection(name)?;
                let ix = t
                    .index("lf_collection")
                    .ok_or_else(|| McsError::Internal("missing lf_collection index".into()))?;
                for id in ix.get_eq(&relstore::IndexKey(vec![Value::Int(c.id)])) {
                    if let Some(row) = relstore::snapshot_row(&t, id, self.at()) {
                        // MVCC keeps superseded keys in the index until
                        // vacuum; confirm the visible image is still in
                        // this collection (always true on the barrier
                        // engine).
                        if row[5] == Value::Int(c.id) {
                            out.insert(row[0].as_int()?);
                        }
                    }
                }
            }
            other => {
                // full scan over predefined columns (these are the paper's
                // "static attributes"; only names are indexed)
                for row in snapshot_scan(&t, self.at()) {
                    let matches = match other {
                        StaticPredicate::NameLike(pat) => like_match(row[1].as_str()?, pat),
                        StaticPredicate::DataTypeIs(dt) => {
                            matches!(&row[3], Value::Str(s) if s.as_ref() == dt.as_str())
                        }
                        StaticPredicate::CreatorIs(dn) => row[8].as_str()? == dn,
                        StaticPredicate::ValidIs(v) => row[4].as_bool()? == *v,
                        StaticPredicate::InCollection(_) => unreachable!("handled above"),
                    };
                    if matches {
                        out.insert(row[0].as_int()?);
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn setup() -> (Mcs, Credential) {
        let a = Credential::new("/CN=admin");
        let m = Mcs::with_options(
            &a,
            crate::schema::IndexProfile::Paper2003,
            Arc::new(crate::clock::ManualClock::default()),
        )
        .unwrap();
        m.define_attribute(&a, "ch", AttrType::Str, "").unwrap();
        m.define_attribute(&a, "gps", AttrType::Int, "").unwrap();
        m.create_collection(&a, "s1", None, "").unwrap();
        for (name, ch, gps, coll) in [
            ("a", "H1", 100i64, true),
            ("b", "H1", 200, false),
            ("c", "L1", 100, true),
            ("d", "L1", 300, false),
        ] {
            let mut spec = FileSpec::named(name).attr("ch", ch).attr("gps", gps);
            if coll {
                spec = spec.in_collection("s1");
            }
            m.create_file(&a, &spec).unwrap();
        }
        (m, a)
    }

    fn names(hits: Vec<(String, i64)>) -> Vec<String> {
        hits.into_iter().map(|(n, _)| n).collect()
    }

    #[test]
    fn or_union() {
        let (m, a) = setup();
        let q = QueryExpr::attr_eq("ch", "H1").or(QueryExpr::attr_eq("gps", 300i64));
        assert_eq!(names(m.general_query(&a, &q).unwrap()), vec!["a", "b", "d"]);
    }

    #[test]
    fn not_complement() {
        let (m, a) = setup();
        let q = QueryExpr::attr_eq("ch", "H1").not();
        assert_eq!(names(m.general_query(&a, &q).unwrap()), vec!["c", "d"]);
    }

    #[test]
    fn nested_and_or_not() {
        let (m, a) = setup();
        // (ch = H1 OR ch = L1) AND NOT gps = 100  => b, d
        let q = QueryExpr::attr_eq("ch", "H1")
            .or(QueryExpr::attr_eq("ch", "L1"))
            .and(QueryExpr::attr_eq("gps", 100i64).not());
        assert_eq!(names(m.general_query(&a, &q).unwrap()), vec!["b", "d"]);
    }

    #[test]
    fn static_predicates() {
        let (m, a) = setup();
        let q = QueryExpr::Static(StaticPredicate::InCollection("s1".into()));
        assert_eq!(names(m.general_query(&a, &q).unwrap()), vec!["a", "c"]);
        let q = QueryExpr::Static(StaticPredicate::NameLike("_".into()));
        assert_eq!(m.general_query(&a, &q).unwrap().len(), 4);
        let q = QueryExpr::Static(StaticPredicate::CreatorIs("/CN=admin".into()))
            .and(QueryExpr::attr_eq("ch", "L1"));
        assert_eq!(names(m.general_query(&a, &q).unwrap()), vec!["c", "d"]);
    }

    #[test]
    fn equivalent_to_classic_conjunction() {
        let (m, a) = setup();
        let classic = m
            .query_by_attributes(
                &a,
                &[AttrPredicate::eq("ch", "H1"), AttrPredicate::eq("gps", 100i64)],
            )
            .unwrap();
        let general = m
            .general_query(
                &a,
                &QueryExpr::attr_eq("ch", "H1").and(QueryExpr::attr_eq("gps", 100i64)),
            )
            .unwrap();
        assert_eq!(classic, general);
    }

    #[test]
    fn invalid_files_excluded_even_via_not() {
        let (m, a) = setup();
        m.invalidate_file(&a, "d").unwrap();
        let q = QueryExpr::attr_eq("ch", "H1").not();
        assert_eq!(names(m.general_query(&a, &q).unwrap()), vec!["c"]);
    }

    #[test]
    fn guards() {
        let (m, a) = setup();
        assert!(m.general_query(&a, &QueryExpr::And(vec![])).is_err());
        let huge = QueryExpr::Or((0..65).map(|i| QueryExpr::attr_eq("gps", i as i64)).collect());
        assert!(m.general_query(&a, &huge).is_err());
        let undefined = QueryExpr::attr_eq("nope", 1i64);
        assert!(m.general_query(&a, &undefined).is_err());
    }

    /// A conjunction whose planned group comes up empty must still fail
    /// on an unknown collection the posting-scan order reaches first.
    #[test]
    fn missing_referent_fails_whatever_the_evaluation_order() {
        let a = Credential::new("/CN=admin");
        let m = Mcs::with_options(
            &a,
            crate::schema::IndexProfile::ValueIndexed,
            Arc::new(crate::clock::ManualClock::default()),
        )
        .unwrap();
        m.define_attribute(&a, "gps", AttrType::Int, "").unwrap();
        m.create_file(&a, &FileSpec::named("a").attr("gps", 100i64)).unwrap();
        let q = QueryExpr::And(vec![
            QueryExpr::attr_eq("gps", 100i64),
            QueryExpr::Static(StaticPredicate::InCollection("gone".into())),
            QueryExpr::attr_eq("gps", 7i64),
        ]);
        let planned = m.general_query(&a, &q);
        let naive = m.with_planner_bypass(|m| m.general_query(&a, &q));
        assert!(matches!(planned, Err(McsError::NotFound(_))), "{planned:?}");
        assert_eq!(format!("{planned:?}"), format!("{naive:?}"));
    }

    #[test]
    fn range_leaves_inside_boolean_structure() {
        let (m, a) = setup();
        let q = QueryExpr::Attr(AttrPredicate {
            name: "gps".into(),
            op: AttrOp::Ge,
            value: 200i64.into(),
        })
        .or(QueryExpr::attr_eq("ch", "L1"));
        assert_eq!(names(m.general_query(&a, &q).unwrap()), vec!["b", "c", "d"]);
    }
}
