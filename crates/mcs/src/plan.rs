//! Cost-based planning for conjunctive attribute queries.
//!
//! Under the [`IndexProfile::ValueIndexed`] profile every attribute type
//! has a composite `(name, value)` index, so each predicate of a
//! conjunction has up to three access paths:
//!
//! * a **point lookup** on the composite index (`=`),
//! * a **range scan** on the composite index (`<`, `<=`, `>`, `>=`, and
//!   `LIKE` patterns with a literal prefix),
//! * a **posting scan** of the attribute-name index `ua_name` (the 2003
//!   evaluation — walk every row carrying the name and compare values).
//!
//! [`plan_conjunction`] estimates the cardinality of each predicate with
//! a capped *index dive* (exact counts below [`DIVE_CAP`] entries, a
//! statistics extrapolation above it), seeds the candidate set from the
//! most selective one, and then decides per remaining predicate whether
//! to **intersect** (walk its own index entries) or evaluate it as a
//! **residual** (probe the unique `ua_object` index once per surviving
//! candidate) — whichever touches fewer rows. Estimates are advisory:
//! they pick the plan shape, never change answers.
//!
//! [`Mcs::with_planner_bypass`] hands its closure a handle whose scope
//! disables the planner (and skips the read cache), so tests and
//! benchmarks can compare the planned evaluation against the naive
//! posting-scan oracle on the same store.
//!
//! [`IndexProfile::ValueIndexed`]: crate::schema::IndexProfile::ValueIndexed
//! [`DIVE_CAP`]: relstore::planner::DIVE_CAP

use std::cmp::Ordering;
use std::ops::Bound;

use relstore::planner::DIVE_CAP;
use relstore::predicate::like_match;
use relstore::{IndexKey, Table, Value};

use crate::catalog::Mcs;
use crate::error::{McsError, Result};
use crate::model::{AttrOp, AttrPredicate, AttrType, Credential, ObjectType, Permission};
use crate::schema::IndexProfile;

/// The composite `(name, value)` index serving one attribute type.
pub(crate) fn value_index_name(ty: AttrType) -> &'static str {
    match ty {
        AttrType::Str => "ua_name_str",
        AttrType::Int => "ua_name_int",
        AttrType::Float => "ua_name_float",
        AttrType::Date => "ua_name_date",
        AttrType::Time => "ua_name_time",
        AttrType::DateTime => "ua_name_datetime",
    }
}

/// Coerce the comparison literal the way the attribute store does:
/// integer literals compare against Float attributes as floats.
pub(crate) fn coerced_value(p: &AttrPredicate, ty: AttrType) -> Value {
    match (&p.value, ty) {
        (Value::Int(i), AttrType::Float) => Value::Float(*i as f64),
        (v, _) => v.clone(),
    }
}

/// An access path on the composite `(name, value)` index of a
/// predicate's type.
#[derive(Debug, Clone)]
pub(crate) enum Access {
    /// Full-key equality lookup: `(name, value)`.
    Point(Value),
    /// Range over the value column under the name prefix. `like` is set
    /// when the range came from a LIKE literal prefix and the full
    /// pattern must still be re-checked on each row.
    Range {
        /// Low bound on the value column.
        low: Bound<Value>,
        /// High bound on the value column.
        high: Bound<Value>,
        /// Residual LIKE match still required after the prefix range.
        like: bool,
    },
}

/// How one predicate participates in the plan.
#[derive(Debug, Clone)]
enum Role {
    /// Produce the initial candidate set from the composite index.
    SeedIndex(Access),
    /// Produce the initial candidate set from the `ua_name` posting
    /// list (no predicate in the conjunction is index-accessible).
    SeedPosting,
    /// Evaluate via the composite index and intersect.
    Intersect(Access),
    /// Filter surviving candidates with per-candidate `ua_object`
    /// probes instead of walking this predicate's own rows.
    Residual,
}

/// One planned evaluation step.
struct Step {
    /// Position in the caller's checked-predicate slice.
    pred: usize,
    role: Role,
    /// Estimated rows this step touches (index entries for seeds and
    /// intersections, surviving candidates for residuals).
    est: usize,
    /// Whether `est` came from an exact dive rather than statistics.
    exact: bool,
}

/// A compiled plan for a conjunction of attribute predicates.
pub(crate) struct AttrPlan {
    steps: Vec<Step>,
}

impl AttrPlan {
    /// Human-readable plan, one line per step (the `explain` surface —
    /// plan-shape tests pin these strings, so keep them stable).
    pub(crate) fn lines(&self, checked: &[(&AttrPredicate, AttrType)]) -> Vec<String> {
        self.steps
            .iter()
            .map(|s| {
                let (p, ty) = checked[s.pred];
                let tilde = if s.exact { "" } else { "~" };
                match &s.role {
                    Role::SeedIndex(a) => format!(
                        "seed: {} {} via index {} {} ({tilde}{} rows)",
                        p.name,
                        op_sym(p.op),
                        value_index_name(ty),
                        a.shape(),
                        s.est
                    ),
                    Role::SeedPosting => format!(
                        "seed: {} {} via posting scan ua_name ({tilde}{} rows)",
                        p.name,
                        op_sym(p.op),
                        s.est
                    ),
                    Role::Intersect(a) => format!(
                        "intersect: {} {} via index {} {} ({tilde}{} rows)",
                        p.name,
                        op_sym(p.op),
                        value_index_name(ty),
                        a.shape(),
                        s.est
                    ),
                    Role::Residual => format!(
                        "residual: {} {} via ua_object probes (~{} candidates)",
                        p.name,
                        op_sym(p.op),
                        s.est
                    ),
                }
            })
            .collect()
    }
}

impl Access {
    fn shape(&self) -> &'static str {
        match self {
            Access::Point(_) => "eq",
            Access::Range { like: true, .. } => "prefix-range",
            Access::Range { .. } => "range",
        }
    }
}

fn op_sym(op: AttrOp) -> &'static str {
    match op {
        AttrOp::Eq => "=",
        AttrOp::Ne => "!=",
        AttrOp::Lt => "<",
        AttrOp::Le => "<=",
        AttrOp::Gt => ">",
        AttrOp::Ge => ">=",
        AttrOp::Like => "LIKE",
    }
}

/// The literal prefix of a LIKE pattern (characters before the first
/// wildcard). Empty when the pattern starts with a wildcard.
fn like_literal_prefix(pat: &str) -> String {
    pat.chars().take_while(|c| *c != '%' && *c != '_').collect()
}

/// Smallest string strictly greater than every string starting with `s`
/// (increment the last char, carrying left past unassignable code
/// points). `None` means no such string exists — the range is unbounded
/// above.
fn str_successor(s: &str) -> Option<String> {
    let mut chars: Vec<char> = s.chars().collect();
    while let Some(c) = chars.pop() {
        let mut u = c as u32 + 1;
        while u <= char::MAX as u32 {
            if let Some(next) = char::from_u32(u) {
                chars.push(next);
                return Some(chars.into_iter().collect());
            }
            u += 1;
        }
        // char::MAX in this position: drop it and carry into the
        // previous one.
    }
    None
}

/// The composite-index access path for one predicate, if it has one.
/// `Ne` never does (the matching rows are everything *but* one key);
/// `LIKE` only when the pattern has a literal prefix to range over.
pub(crate) fn access_for(p: &AttrPredicate, ty: AttrType, value: &Value) -> Option<Access> {
    let range = |low, high| Some(Access::Range { low, high, like: false });
    match p.op {
        AttrOp::Eq => Some(Access::Point(value.clone())),
        AttrOp::Ne => None,
        AttrOp::Lt => range(Bound::Unbounded, Bound::Excluded(value.clone())),
        AttrOp::Le => range(Bound::Unbounded, Bound::Included(value.clone())),
        AttrOp::Gt => range(Bound::Excluded(value.clone()), Bound::Unbounded),
        AttrOp::Ge => range(Bound::Included(value.clone()), Bound::Unbounded),
        AttrOp::Like => {
            if ty != AttrType::Str {
                return None; // callers type-check LIKE to Str already
            }
            let prefix = like_literal_prefix(value.as_str().ok()?);
            if prefix.is_empty() {
                return None;
            }
            let high = match str_successor(&prefix) {
                Some(s) => Bound::Excluded(Value::from(s.as_str())),
                None => Bound::Unbounded,
            };
            Some(Access::Range {
                low: Bound::Included(Value::from(prefix.as_str())),
                high,
                like: true,
            })
        }
    }
}

/// Estimate how many index entries `access` visits: an exact dive when
/// the count fits under [`DIVE_CAP`], otherwise the capped dive floor
/// widened by the table's statistics (range selectivity × this name's
/// posting count). Returns `(estimate, exact)`.
/// `name` is the attribute name as a [`Value`], built once per predicate.
fn estimate(t: &Table, ty: AttrType, name: &Value, access: &Access) -> Result<(usize, bool)> {
    let ix = t
        .index(value_index_name(ty))
        .ok_or_else(|| McsError::Internal(format!("missing index {}", value_index_name(ty))))?;
    let prefix = std::slice::from_ref(name);
    Ok(match access {
        Access::Point(v) => (ix.count_eq(&[name.clone(), v.clone()]), true),
        Access::Range { low, high, .. } => {
            let (n, capped) =
                ix.count_prefix_range(prefix, low.as_ref(), high.as_ref(), DIVE_CAP);
            if !capped {
                (n, true)
            } else {
                let posting = t.index("ua_name").map_or(n, |nx| nx.count_eq(prefix));
                let sel = t.statistics().range_selectivity(ty.full_row_column());
                (((posting as f64 * sel) as usize).max(n), false)
            }
        }
    })
}

/// Build a plan for a conjunction of type-checked predicates. Pure
/// estimation — no candidate rows are touched.
pub(crate) fn plan_conjunction(
    t: &Table,
    checked: &[(&AttrPredicate, AttrType)],
) -> Result<AttrPlan> {
    struct Info {
        access: Option<Access>,
        est: usize,
        exact: bool,
        posting: usize,
    }
    let name_ix = t
        .index("ua_name")
        .ok_or_else(|| McsError::Internal("missing index ua_name".into()))?;
    let mut infos = Vec::with_capacity(checked.len());
    for (p, ty) in checked {
        let value = coerced_value(p, *ty);
        let access = access_for(p, *ty, &value);
        let name = Value::from(p.name.as_str());
        let posting = name_ix.count_eq(std::slice::from_ref(&name));
        let (est, exact) = match &access {
            Some(a) => estimate(t, *ty, &name, a)?,
            None => (posting, true),
        };
        infos.push(Info { access, est, exact, posting });
    }

    // Seed from the cheapest index-accessible predicate; when none is
    // accessible (all-`!=` conjunctions), from the smallest posting
    // list — never a full scan of rows that can't match.
    let seed = (0..infos.len())
        .filter(|&i| infos[i].access.is_some())
        .min_by_key(|&i| infos[i].est)
        .unwrap_or_else(|| {
            (0..infos.len()).min_by_key(|&i| infos[i].posting).expect("non-empty conjunction")
        });

    let mut steps = Vec::with_capacity(infos.len());
    let mut running = match infos[seed].access.clone() {
        Some(a) => {
            let (est, exact) = (infos[seed].est, infos[seed].exact);
            steps.push(Step { pred: seed, role: Role::SeedIndex(a), est, exact });
            est
        }
        None => {
            let est = infos[seed].posting;
            steps.push(Step { pred: seed, role: Role::SeedPosting, est, exact: true });
            est
        }
    };

    // Remaining predicates cheapest-first so the candidate set shrinks
    // as early as possible; each either walks its own index entries
    // (intersect) or probes `ua_object` once per surviving candidate
    // (residual) — whichever is estimated to touch fewer rows.
    let mut rest: Vec<usize> = (0..infos.len()).filter(|&i| i != seed).collect();
    rest.sort_by_key(|&i| infos[i].est);
    for i in rest {
        match infos[i].access.clone() {
            Some(a) if infos[i].est < running => {
                let (est, exact) = (infos[i].est, infos[i].exact);
                steps.push(Step { pred: i, role: Role::Intersect(a), est, exact });
                running = running.min(est);
            }
            _ => steps.push(Step { pred: i, role: Role::Residual, est: running, exact: false }),
        }
    }
    Ok(AttrPlan { steps })
}

impl Mcs {
    /// Run `f` on a handle whose scope bypasses the cost-based attribute
    /// planner: conjunctive queries evaluate every predicate by a pure
    /// `ua_name` posting scan (the 2003 evaluation), and the read cache
    /// is skipped so the comparison measures real work. Twin tests and
    /// the figure-17 A/B benchmark use this as the planner's oracle.
    pub fn with_planner_bypass<R>(&self, f: impl FnOnce(&Mcs) -> R) -> R {
        self.rescoped(relstore::OpCtx { planner_bypass: true, ..self.ctx.clone() }, f)
    }

    /// EXPLAIN for [`Mcs::query_by_attributes`]: the plan the cost-based
    /// planner would choose right now, one line per step, without
    /// executing it. Under the `Paper2003` profile (or a planner bypass)
    /// every predicate reports the posting scan it would run.
    pub fn explain_query(
        &self,
        cred: &Credential,
        preds: &[AttrPredicate],
    ) -> Result<Vec<String>> {
        self.require_service_perm(cred, Permission::Read)?;
        if preds.is_empty() {
            return Err(McsError::BadAttribute("query needs at least one predicate".into()));
        }
        let checked = self.check_predicates(preds)?;
        if self.profile != IndexProfile::ValueIndexed || self.ctx.planner_bypass {
            return Ok(checked
                .iter()
                .map(|(p, _)| format!("posting scan: {} {} via ua_name", p.name, op_sym(p.op)))
                .collect());
        }
        let handle = self.db.table("user_attributes")?;
        let t = handle.read();
        let plan = plan_conjunction(&t, &checked)?;
        Ok(plan.lines(&checked))
    }

    /// Execute a compiled plan, returning matching **file** object ids,
    /// sorted and deduplicated.
    pub(crate) fn run_attr_plan(
        &self,
        t: &Table,
        checked: &[(&AttrPredicate, AttrType)],
        plan: &AttrPlan,
    ) -> Result<Vec<i64>> {
        let mut acc: Option<Vec<i64>> = None;
        for step in &plan.steps {
            let (p, ty) = checked[step.pred];
            let value = coerced_value(p, ty);
            acc = Some(match (&step.role, acc) {
                (Role::SeedIndex(a), None) => self.eval_access(t, p, ty, &value, a)?,
                (Role::SeedPosting, None) => {
                    self.posting_scan(t, p, ty.full_row_column(), &value)?
                }
                (Role::Intersect(a), Some(prev)) => {
                    intersect_sorted(&prev, &self.eval_access(t, p, ty, &value, a)?)
                }
                (Role::Residual, Some(prev)) => self.residual_filter(t, &prev, p, ty, &value)?,
                _ => return Err(McsError::Internal("malformed attribute plan".into())),
            });
            if acc.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        Ok(acc.unwrap_or_default())
    }

    /// Evaluate one access path on the composite index of `ty`,
    /// returning matching file object ids, sorted and deduplicated.
    /// Includes the MVCC stale-entry re-check and the residual LIKE
    /// match for prefix ranges.
    pub(crate) fn eval_access(
        &self,
        t: &Table,
        p: &AttrPredicate,
        ty: AttrType,
        value: &Value,
        access: &Access,
    ) -> Result<Vec<i64>> {
        let ix = t.index(value_index_name(ty)).ok_or_else(|| {
            McsError::Internal(format!("missing index {}", value_index_name(ty)))
        })?;
        let name_val = Value::from(p.name.as_str());
        let ids: Vec<relstore::RowId> = match access {
            Access::Point(v) => ix.get_eq(&[name_val, v.clone()]).collect(),
            Access::Range { low, high, .. } => {
                let mut ids = Vec::new();
                let prefix = std::slice::from_ref(&name_val);
                ix.scan_prefix_range(prefix, low.as_ref(), high.as_ref(), &mut ids);
                ids
            }
        };
        let needs_like = matches!(access, Access::Range { like: true, .. });
        let val_col = ty.full_row_column();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            // Under MVCC a deleted row's index entries linger until
            // vacuum and a pending row is not yet visible — both read
            // back as `None` and are skipped. On the barrier engine a
            // dangling entry is a corruption signal.
            let Some(row) = relstore::snapshot_row(t, id, self.at()) else {
                if t.is_mvcc() {
                    continue;
                }
                return Err(McsError::Internal("dangling index".into()));
            };
            if row[1] != Value::Int(ObjectType::File.code()) {
                continue;
            }
            if t.is_mvcc() {
                // Stale entries may describe a superseded image —
                // re-check the *full* predicate on what this snapshot
                // actually sees (this also covers the LIKE residual).
                if !matches!(&row[3], Value::Str(s) if s.as_ref() == p.name)
                    || !value_matches(p.op, &row[val_col], value)?
                {
                    continue;
                }
            } else if needs_like && !like_match(row[val_col].as_str()?, value.as_str()?) {
                // The range only guaranteed the literal prefix; the
                // pattern's tail may still reject the row.
                continue;
            }
            out.push(row[2].as_int()?);
        }
        Ok(sorted_ids(out))
    }

    /// Residual evaluation: keep the candidates whose `(File, id, name)`
    /// attribute row — found via the unique `ua_object` index, one probe
    /// per candidate — satisfies the predicate. Same semantics as a
    /// posting scan: the attribute must exist on the file (so `!=`
    /// means "exists with a different value").
    ///
    /// `prev` is ascending, so consecutive probes descend the same
    /// B-tree path, and one probe key per predicate serves them all —
    /// only its object-id slot changes.
    fn residual_filter(
        &self,
        t: &Table,
        prev: &[i64],
        p: &AttrPredicate,
        ty: AttrType,
        value: &Value,
    ) -> Result<Vec<i64>> {
        let ix = t
            .index("ua_object")
            .ok_or_else(|| McsError::Internal("missing index ua_object".into()))?;
        let val_col = ty.full_row_column();
        let file_code = Value::Int(ObjectType::File.code());
        let mut key =
            IndexKey(vec![file_code.clone(), Value::Int(0), Value::from(p.name.as_str())]);
        let mut out = Vec::with_capacity(prev.len());
        for &oid in prev {
            key.0[1] = Value::Int(oid);
            for id in ix.get_eq(&key) {
                let Some(row) = relstore::snapshot_row(t, id, self.at()) else {
                    if t.is_mvcc() {
                        continue;
                    }
                    return Err(McsError::Internal("dangling index".into()));
                };
                // Under MVCC the visible image may no longer match the
                // stale index key it was found through.
                if t.is_mvcc()
                    && (row[1] != file_code
                        || row[2] != key.0[1]
                        || !matches!(&row[3], Value::Str(s) if s.as_ref() == p.name))
                {
                    continue;
                }
                if value_matches(p.op, &row[val_col], value)? {
                    out.push(oid);
                }
                break; // at most one image of (file, name) is visible
            }
        }
        Ok(out)
    }

    /// Type-check one predicate against the attribute definitions,
    /// returning its declared type. Shared by every query entry point so
    /// all paths reject the same malformed predicates identically.
    pub(crate) fn check_predicate_type(&self, p: &AttrPredicate) -> Result<AttrType> {
        let def = self
            .attribute_definition(&p.name)?
            .ok_or_else(|| McsError::BadAttribute(format!("`{}` is not defined", p.name)))?;
        let given = AttrType::of_value(&p.value).ok_or_else(|| {
            McsError::BadAttribute(format!("`{}`: unsupported comparison value", p.name))
        })?;
        let ok =
            given == def.attr_type || (given == AttrType::Int && def.attr_type == AttrType::Float);
        if !ok {
            return Err(McsError::BadAttribute(format!(
                "`{}` is {:?}, got {given:?}",
                p.name, def.attr_type
            )));
        }
        if p.op == AttrOp::Like && def.attr_type != AttrType::Str {
            return Err(McsError::BadAttribute(format!(
                "LIKE requires a string attribute, `{}` is {:?}",
                p.name, def.attr_type
            )));
        }
        Ok(def.attr_type)
    }

    /// [`Mcs::check_predicate_type`] over a slice, preserving order.
    pub(crate) fn check_predicates<'p>(
        &self,
        preds: &'p [AttrPredicate],
    ) -> Result<Vec<(&'p AttrPredicate, AttrType)>> {
        preds.iter().map(|p| Ok((p, self.check_predicate_type(p)?))).collect()
    }
}

/// Whether a stored attribute value satisfies `op value` (the per-row
/// test every evaluation path shares).
pub(crate) fn value_matches(op: AttrOp, stored: &Value, value: &Value) -> Result<bool> {
    if op == AttrOp::Like {
        return Ok(like_match(stored.as_str()?, value.as_str()?));
    }
    Ok(stored.sql_cmp(value).is_some_and(|ord| match op {
        AttrOp::Eq => ord.is_eq(),
        AttrOp::Ne => ord.is_ne(),
        AttrOp::Lt => ord.is_lt(),
        AttrOp::Le => ord.is_le(),
        AttrOp::Gt => ord.is_gt(),
        AttrOp::Ge => ord.is_ge(),
        AttrOp::Like => false,
    }))
}

/// Sort and deduplicate collected object ids: the form every candidate
/// set takes between plan steps.
pub(crate) fn sorted_ids(mut ids: Vec<i64>) -> Vec<i64> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Intersection of two ascending id lists by one linear merge; the
/// result is ascending and free of duplicates even if the inputs are not.
pub(crate) fn intersect_sorted(a: &[i64], b: &[i64]) -> Vec<i64> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                if out.last() != Some(&a[i]) {
                    out.push(a[i]);
                }
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_prefix_extraction() {
        assert_eq!(like_literal_prefix("run_%"), "run");
        assert_eq!(like_literal_prefix("H1%"), "H1");
        assert_eq!(like_literal_prefix("%suffix"), "");
        assert_eq!(like_literal_prefix("plain"), "plain");
    }

    #[test]
    fn str_successor_increments_last_char() {
        assert_eq!(str_successor("abc").as_deref(), Some("abd"));
        assert_eq!(str_successor("a\u{10FFFF}").as_deref(), Some("b"));
        assert_eq!(str_successor("\u{10FFFF}"), None);
        assert_eq!(str_successor(""), None);
    }

    /// The sorted-merge intersection against `BTreeSet` intersection on
    /// seeded random inputs, empty and duplicate-laden ones included.
    #[test]
    fn intersect_sorted_matches_btreeset_intersection() {
        use std::collections::BTreeSet;
        for seed in testkit::seeds(&[1, 2, 3, 4]) {
            let mut rng = testkit::Rng::new(seed);
            for _ in 0..500 {
                let mut draw = || -> Vec<i64> {
                    let (len, span) = (rng.below(40), 1 + rng.below(60));
                    let mut v: Vec<i64> = (0..len).map(|_| rng.below(span) as i64 - 10).collect();
                    v.sort_unstable();
                    v
                };
                let (a, b) = (draw(), draw());
                let expect: Vec<i64> = a
                    .iter()
                    .copied()
                    .collect::<BTreeSet<_>>()
                    .intersection(&b.iter().copied().collect())
                    .copied()
                    .collect();
                assert_eq!(intersect_sorted(&a, &b), expect, "seed {seed}: {a:?} ∩ {b:?}");
                assert_eq!(intersect_sorted(&b, &a), expect, "seed {seed}: {b:?} ∩ {a:?}");
            }
        }
        assert!(intersect_sorted(&[], &[1, 2]).is_empty());
        assert_eq!(intersect_sorted(&[3, 3, 3], &[3, 3]), vec![3]);
    }

    #[test]
    fn successor_bounds_every_prefixed_string() {
        for p in ["run", "z", "a\u{10FFFF}"] {
            let succ = str_successor(p).unwrap();
            assert!(succ.as_str() > p);
            let extended = format!("{p}\u{10FFFF}\u{10FFFF}");
            assert!(extended.as_str() < succ.as_str(), "{extended:?} !< {succ:?}");
        }
    }
}
