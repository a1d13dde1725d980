//! The "more general query model" of paper §9.
//!
//! The 2003 MCS API only supported conjunctions of attribute predicates;
//! both the ESG experience (§6.2: "ESG scientists wanted more flexibility
//! in the types of queries") and the redesign plans (§9: "we will provide
//! a more general query model") call for arbitrary boolean combinations.
//! [`QueryExpr`] provides AND / OR / NOT trees over attribute predicates
//! plus predicates on predefined (static) metadata.
//!
//! Every node evaluates to the ascending, deduplicated ids of the files
//! it holds for. The attribute children of an `And` run as one
//! conjunction through the evaluator of the classic query
//! ([`Mcs::eval_conjunction`]): planned under `ValueIndexed`, posting
//! scans under `Paper2003` or a planner bypass. A lone attribute leaf is
//! a conjunction of one. Each other child of an `And` intersects
//! ([`intersect_sorted`]), an `Or` merges ([`union_sorted`]), and a `Not`
//! child of an `And` is a sorted difference ([`difference_sorted`])
//! against what its positive siblings left. Only a `Not` with nothing to
//! subtract from — standalone, or in an `And` of only `Not`s — starts
//! from every visible file id. Every leaf is type-checked before any
//! runs, so no leaf fails once evaluation starts.

use relstore::predicate::like_match;
use relstore::Value;

use crate::catalog::Mcs;
use crate::error::{McsError, Result};
use crate::model::*;
use crate::plan::{difference_sorted, intersect_sorted, sorted_ids, union_sorted};

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
        // Check every leaf before evaluating any: an undefined or
        // ill-typed attribute predicate or a missing collection then
        // fails the query whatever the data and whatever order the leaves
        // run in — the planner reorders conjunctions, and an empty
        // result must not short-circuit past the leaf that would fail.
        self.check_referents(expr)?;
        // One snapshot for the whole boolean tree and the resolve pass:
        // every leaf (and a complement's scan) reads the same consistent
        // cut. No-op on the barrier engine.
        self.pinned(|m| m.valid_hits(&m.eval_expr(expr)?))
    }

    /// The errors a leaf raises whatever the data: an undefined or
    /// ill-typed attribute predicate (as [`Mcs::query_by_attributes`]
    /// reports it) or an unknown collection, first in tree order.
    fn check_referents(&self, expr: &QueryExpr) -> Result<()> {
        match expr {
            QueryExpr::Attr(p) => {
                self.check_predicate_type(p)?;
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

    /// The ascending ids of the files `expr` holds for.
    fn eval_expr(&self, expr: &QueryExpr) -> Result<Vec<i64>> {
        Ok(match expr {
            QueryExpr::And(subs) => self.eval_and(subs)?,
            QueryExpr::Or(subs) => {
                let mut acc = Vec::new();
                for s in subs {
                    acc = union_sorted(&acc, &self.eval_expr(s)?);
                }
                acc
            }
            QueryExpr::Static(sp) => self.eval_static(sp)?,
            // A conjunction of one.
            QueryExpr::Attr(_) | QueryExpr::Not(_) => self.eval_and(std::slice::from_ref(expr))?,
        })
    }

    /// The conjunction of `subs`. Its attribute predicates run first, as
    /// one conjunction; every other positive child then intersects, and
    /// each `Not` child is subtracted from the result. Stops at the first
    /// empty result.
    fn eval_and(&self, subs: &[QueryExpr]) -> Result<Vec<i64>> {
        let mut preds = Vec::new();
        for s in subs {
            if let QueryExpr::Attr(p) = s {
                preds.push((p, self.check_predicate_type(p)?));
            }
        }
        let mut acc = if preds.is_empty() { None } else { Some(self.eval_conjunction(&preds)?) };
        for s in subs {
            if acc.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
            if !matches!(s, QueryExpr::Attr(_) | QueryExpr::Not(_)) {
                let ids = self.eval_expr(s)?;
                acc = Some(match acc {
                    None => ids,
                    Some(prev) => intersect_sorted(&prev, &ids),
                });
            }
        }
        let mut nots = subs
            .iter()
            .filter_map(|s| if let QueryExpr::Not(sub) = s { Some(sub) } else { None })
            .peekable();
        let mut acc = match acc {
            Some(acc) => acc,
            // Only `Not`s: the one complement, against every visible file.
            None if nots.peek().is_some() => self.scan_files(|_| Ok(true))?,
            // An empty `And` holds for no file.
            None => return Ok(Vec::new()),
        };
        for sub in nots {
            if acc.is_empty() {
                break;
            }
            acc = difference_sorted(&acc, &self.eval_expr(sub)?);
        }
        Ok(acc)
    }

    fn eval_static(&self, sp: &StaticPredicate) -> Result<Vec<i64>> {
        let StaticPredicate::InCollection(name) = sp else {
            // full scan over predefined columns (these are the paper's
            // "static attributes"; only names are indexed)
            return self.scan_files(|row| {
                Ok(match sp {
                    StaticPredicate::NameLike(pat) => like_match(row[1].as_str()?, pat),
                    StaticPredicate::DataTypeIs(dt) => {
                        matches!(&row[3], Value::Str(s) if s.as_ref() == dt.as_str())
                    }
                    StaticPredicate::CreatorIs(dn) => row[8].as_str()? == dn,
                    StaticPredicate::ValidIs(v) => row[4].as_bool()? == *v,
                    StaticPredicate::InCollection(_) => unreachable!("handled below"),
                })
            });
        };
        // indexed path: collection_id lookup
        let c = self.resolve_collection(name)?;
        let handle = self.db.table("logical_files")?;
        let t = handle.read();
        let ix = t
            .index("lf_collection")
            .ok_or_else(|| McsError::Internal("missing lf_collection index".into()))?;
        let mut out = Vec::new();
        for id in ix.get_eq(&relstore::IndexKey(vec![Value::Int(c.id)])) {
            if let Some(row) = relstore::snapshot_row(&t, id, self.at()) {
                // MVCC keeps superseded keys in the index until vacuum;
                // confirm the visible image is still in this collection
                // (always true on the barrier engine).
                if row[5] == Value::Int(c.id) {
                    out.push(row[0].as_int()?);
                }
            }
        }
        Ok(sorted_ids(out))
    }

    /// The ascending ids of the visible files whose row passes `keep`: on
    /// the barrier engine the live latest images ([`relstore::Table::scan`]);
    /// under MVCC every slot filtered through the snapshot — a slot whose
    /// latest image is deleted or uncommitted may still carry a version
    /// the snapshot sees.
    fn scan_files(&self, keep: impl Fn(&relstore::Row) -> Result<bool>) -> Result<Vec<i64>> {
        let handle = self.db.table("logical_files")?;
        let t = handle.read();
        let rows: Box<dyn Iterator<Item = &relstore::Row>> = if t.is_mvcc() {
            Box::new(
                (0..t.slot_count() as u64)
                    .filter_map(|i| relstore::snapshot_row(&t, relstore::RowId(i), self.at())),
            )
        } else {
            Box::new(t.scan().map(|(_, r)| r))
        };
        let mut out = Vec::new();
        for row in rows {
            if keep(row)? {
                out.push(row[0].as_int()?);
            }
        }
        Ok(sorted_ids(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::IndexProfile;
    use std::sync::Arc;

    fn setup() -> (Mcs, Credential) {
        setup_with(IndexProfile::Paper2003)
    }

    fn setup_with(profile: IndexProfile) -> (Mcs, Credential) {
        let a = Credential::new("/CN=admin");
        let m =
            Mcs::with_options(&a, profile, Arc::new(crate::clock::ManualClock::default())).unwrap();
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

        // An ill-typed leaf fails as `query_by_attributes` fails, in both
        // profiles, whether or not a file carries the attribute, and
        // behind a leaf that matches nothing.
        let like = AttrPredicate { name: "gps".into(), op: AttrOp::Like, value: "1%".into() };
        let nothing = QueryExpr::Static(StaticPredicate::NameLike("zzz".into()));
        let cases = [
            (AttrPredicate::eq("gps", "x"), QueryExpr::attr_eq("gps", "x")),
            (like.clone(), QueryExpr::Attr(like.clone())),
            (like.clone(), nothing.and(QueryExpr::Attr(like.clone()))),
        ];
        for profile in [IndexProfile::Paper2003, IndexProfile::ValueIndexed] {
            let (m, a) = setup_with(profile);
            for carried in [true, false] {
                if !carried {
                    ["a", "b", "c", "d"].iter().for_each(|f| m.delete_file(&a, f).unwrap());
                }
                for (p, q) in &cases {
                    let want = m.query_by_attributes(&a, std::slice::from_ref(p)).unwrap_err();
                    assert!(matches!(want, McsError::BadAttribute(_)), "{want:?}");
                    assert_eq!(m.general_query(&a, q), Err(want), "{profile:?} {carried} {q:?}");
                }
            }
        }
    }

    /// A conjunction whose planned group comes up empty must still fail
    /// on an unknown collection the posting-scan order reaches first.
    #[test]
    fn missing_referent_fails_whatever_the_evaluation_order() {
        let a = Credential::new("/CN=admin");
        let m = Mcs::with_options(
            &a,
            IndexProfile::ValueIndexed,
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
