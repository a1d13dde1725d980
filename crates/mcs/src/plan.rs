//! Cost-based planning for conjunctive attribute queries.
//!
//! Under the [`IndexProfile::ValueIndexed`] profile every attribute type
//! has a typed index `(name, value, object_type, object_id)`, which
//! relstore keeps tail-ordered: each `(name, value, object_type)` group
//! holds its rows ordered by object id (`relstore::index`). So each
//! predicate of a conjunction has up to three access paths:
//!
//! * a **point lookup** on the typed index (`=`): one group,
//! * a **range scan** on the typed index (`<`, `<=`, `>`, `>=`, and
//!   `LIKE` patterns with a literal prefix): the groups of a value range,
//! * a **posting scan** of the attribute-name index `ua_name` (the 2003
//!   evaluation — walk every row carrying the name and compare values).
//!
//! [`plan_conjunction`] first **folds** every range bound on one
//! attribute (`>`/`>=` with `<`/`<=`, a LIKE prefix range with a range on
//! the same string attribute) into one range step that keeps the tightest
//! bound on each side. It then counts each step's file entries with
//! *index dives*: every `=` count is exact (one group's size), and each
//! range is counted only up to the best seed so far. The smallest count
//! **seeds** the candidate set (a dive stopped at its cap ranks strictly
//! above the cap, so it never wins a tie); the seed reads its object ids
//! straight from its postings. Every other step with an access path gets
//! one **span dive** over the seed's object-id span: it counts the groups
//! its walk visits and estimates the entries it reads inside the span
//! (from each group's ends, sampled after the first [`SAMPLED_GROUPS`]
//! groups), and stops once that walk costs as many µs as probing the
//! seed's candidates, the most any later step can face. Steps go most
//! selective in the span first. A seed of one candidate gets no dives:
//! its probes cost one cold probe and then warm ones, no more than the
//! descents that would start a dive and a walk.
//!
//! The plan fixes no step's role: [`Mcs::run_attr_plan`] decides each one
//! on the candidates it has. It **walks** the step's groups over the
//! running candidates' id span and intersects — checking each group's
//! value once, reading only the entries inside the span — when the dive
//! prices that walk below probing the current candidates, and otherwise
//! **probes** the unique `ua_object` index once per candidate; a probe of
//! a candidate an earlier step probed is priced warm. Both return the same
//! ids: under MVCC a walk fetches each row in the span and re-checks it on
//! its visible image. Estimates pick the work, never change answers.
//!
//! **Cost constants.** [`PROBE_US`], [`WARM_PROBE_US`], [`GROUP_US`] and
//! [`SPAN_ENTRY_US`] were measured by the ignored test
//! `calibrate_probe_and_scan_costs` on a 50 000-file catalog laid out like
//! perfbench's (2-vCPU KVM guest, pinned to one CPU, a fresh candidate
//! set, key range or span per pass after 8 MiB of other memory was
//! touched, median of 15 passes, three runs): a probe costs 1.5–1.7 µs
//! when the candidates are one collection's consecutive files, 2.5–3.1 µs
//! when they are spread over the catalog, and 0.8–1.0 µs when the same 50
//! spread candidates were probed for another attribute just before; a
//! span walk costs 0.2–0.38 µs per group it visits and 0.012–0.035 µs
//! per entry it reads inside the span (the constant keeps the top of the
//! range); starting a walk or a dive costs 0.7–1.2 µs, which the price
//! leaves out. The planner prices the spread-out probe, 3.0 µs, the first
//! probe of the eq-heavy mixes.
//!
//! **Not fixed here.** perfbench's LIKE queries own discover-cold's p99:
//! their `wl_seq >= lo` step walks up to ~1 050 one-entry groups
//! (≈ 190 µs) where probing the ~200 candidates would cost ≈ 300 µs, so
//! the walk stays, and resolving the ~200 hits adds ≈ 90 µs. Two other
//! ways to cut probe cost measured worse and are not built (DESIGN §7.6):
//! one merged walk of `ua_object` over all candidates, and probes that
//! read the value column without fetching the row.
//!
//! **One evaluator.** [`Mcs::plan_attrs`] alone reads the profile and
//! the planner bypass ([`Mcs::with_planner_bypass`], which also skips the
//! read cache): under `Paper2003` or a bypass it plans the 2003
//! evaluation, one posting step per predicate in syntactic order.
//! [`Mcs::run_attr_plan`] runs and [`AttrPlan::lines`] explains both
//! kinds, for the classic query and for every `And` of a boolean one
//! (`crate::general_query`), so tests can diff the planner against the
//! posting-scan oracle on the same store.
//!
//! [`IndexProfile::ValueIndexed`]: crate::schema::IndexProfile::ValueIndexed

use std::cmp::Ordering;
use std::ops::Bound;

use relstore::index::Group;
use relstore::predicate::like_match;
use relstore::{Index, IndexKey, Table, Value};

use crate::catalog::Mcs;
use crate::error::{McsError, Result};
use crate::model::{AttrOp, AttrPredicate, AttrType, Credential, ObjectType, Permission};
use crate::schema::IndexProfile;

/// µs the first probe of a candidate costs: a `ua_object` descent for
/// `(File, id, name)` plus the row fetch, over candidates spread across
/// the catalog (measured 2.5–3.1 µs; 1.5–1.7 µs over one collection's
/// consecutive files; see the module doc).
pub(crate) const PROBE_US: f64 = 3.0;

/// µs a probe costs of a candidate this query already probed for another
/// attribute: its `ua_object` entries share a leaf (measured 0.8–1.0 µs).
pub(crate) const WARM_PROBE_US: f64 = 0.85;

/// µs a span walk spends on each group it visits: stepping to the
/// group's key, checking it, and seeking the span in its posting
/// (measured 0.22–0.38 µs).
pub(crate) const GROUP_US: f64 = 0.35;

/// µs a span walk spends on each entry inside the span: reading its
/// object id, and sorting and merging it with the candidates (measured
/// 0.026–0.035 µs).
pub(crate) const SPAN_ENTRY_US: f64 = 0.03;

/// Groups a span dive estimates one by one (`Group::estimate` reads each
/// group's ends); it scales the size of every later group by the share of
/// entries these had inside the span, reading only the tree.
const SAMPLED_GROUPS: usize = 16;

/// Every object id: the span of a walk that no candidate set bounds.
const ALL_IDS: (i64, i64) = (i64::MIN, i64::MAX);

/// µs a span walk costs that visits `groups` groups and reads `entries`
/// entries inside the span.
fn walk_us(groups: usize, entries: usize) -> f64 {
    groups as f64 * GROUP_US + entries as f64 * SPAN_ENTRY_US
}

/// The typed `(name, value, object_type, object_id)` index serving one
/// attribute type.
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
fn coerced_value(p: &AttrPredicate, ty: AttrType) -> Value {
    match (&p.value, ty) {
        (Value::Int(i), AttrType::Float) => Value::Float(*i as f64),
        (v, _) => v.clone(),
    }
}

/// An access path on the typed index of a predicate's type.
#[derive(Debug, Clone)]
pub(crate) enum Access {
    /// Equality: the one group `(name, value, File)`.
    Point(Value),
    /// Range over the value column under the name prefix. `like` is set
    /// when a LIKE literal prefix bounds the range and the full pattern
    /// must still be re-checked on each row.
    Range {
        /// Low bound on the value column.
        low: Bound<Value>,
        /// High bound on the value column.
        high: Bound<Value>,
        /// Residual LIKE match still required after the prefix range.
        like: bool,
    },
}

/// One step of a plan: one predicate, or every range bound folded onto
/// one attribute.
struct Step {
    /// Positions in the caller's checked-predicate slice.
    preds: Vec<usize>,
    /// Its typed-index access path, if it has one.
    access: Option<Access>,
    /// What its dive over the seed's id span counted: `None` for the seed,
    /// a step with no access path, and every step after a one-candidate
    /// seed.
    dive: Option<SpanDive>,
}

/// A compiled plan for a conjunction of attribute predicates: the seed,
/// then the other steps in the order they run.
pub(crate) struct AttrPlan {
    steps: Vec<Step>,
    /// The seed's candidates: the file entries of its index access, or
    /// its posting list's rows. `None` for the 2003 evaluation, which runs
    /// every step as a `ua_name` posting scan in syntactic order.
    seed_rows: Option<usize>,
    /// The seed's object-id span, which bounds every dive.
    span: Option<(i64, i64)>,
}

impl AttrPlan {
    /// Human-readable plan, one line per step: the seed, then each other
    /// step in run order with its dive and the rule that picks its work
    /// (the `explain` surface — plan-shape tests pin these strings). A
    /// folded step names each of its predicates, joined by `AND`.
    pub(crate) fn lines(&self, checked: &[(&AttrPredicate, AttrType)]) -> Vec<String> {
        self.steps
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let preds = s
                    .preds
                    .iter()
                    .map(|&i| format!("{} {}", checked[i].0.name, op_sym(checked[i].0.op)))
                    .collect::<Vec<_>>()
                    .join(" AND ");
                let ix = value_index_name(checked[s.preds[0]].1);
                let Some(rows) = self.seed_rows else {
                    return format!("posting scan: {preds} via ua_name");
                };
                match (k, &s.access, s.dive) {
                    (0, Some(a), _) => {
                        format!("seed: {preds} via index {ix} {} ({rows} rows)", a.shape())
                    }
                    (0, None, _) => format!("seed: {preds} via posting scan ua_name ({rows} rows)"),
                    (_, Some(a), Some(d)) if !d.stopped => {
                        let (lo, hi) = self.span.expect("a finished dive has a seed span");
                        let us = walk_us(d.groups, d.entries);
                        let at = |price: f64| (us / price).floor() as usize + 1;
                        format!(
                            "walk or probe: {preds} via index {ix} {} over ids {lo}..={hi} \
                             ({} groups, ~{} rows): walks at >= {} candidates, >= {} once probed",
                            a.shape(),
                            d.groups,
                            d.entries,
                            at(PROBE_US),
                            at(WARM_PROBE_US)
                        )
                    }
                    (_, _, Some(d)) => format!(
                        "probe: {preds} via ua_object (dive stopped at {} groups, ~{} rows)",
                        d.groups, d.entries
                    ),
                    (_, Some(_), None) => {
                        format!("probe: {preds} via ua_object (no dive at {rows} candidates)")
                    }
                    (_, None, None) => format!("probe: {preds} via ua_object"),
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

    /// Narrow a range to its intersection with `other`'s: the tighter
    /// bound on each side (an excluded bound beats an included one at the
    /// same value), and a LIKE re-check if either side needs one. Bounds
    /// that cross leave an empty range, which every walk reads as empty.
    fn fold(&mut self, other: Access) {
        let (
            Access::Range { low, high, like },
            Access::Range { low: low2, high: high2, like: like2 },
        ) = (self, other)
        else {
            unreachable!("only ranges fold");
        };
        if tighter(&low2, low, Ordering::Greater) {
            *low = low2;
        }
        if tighter(&high2, high, Ordering::Less) {
            *high = high2;
        }
        *like |= like2;
    }
}

/// Whether bound `a` cuts more than bound `b` on a side where `inward`
/// is the direction of a tighter value (`Greater` for low bounds, `Less`
/// for high ones).
fn tighter(a: &Bound<Value>, b: &Bound<Value>, inward: Ordering) -> bool {
    match (a, b) {
        (Bound::Unbounded, _) => false,
        (_, Bound::Unbounded) => true,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match x.index_cmp(y) {
                Ordering::Equal => matches!((a, b), (Bound::Excluded(_), Bound::Included(_))),
                ord => ord == inward,
            }
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

/// The typed-index access path for one predicate, if it has one.
/// `Ne` never does (the matching rows are everything *but* one key);
/// `LIKE` only when the pattern has a literal prefix to range over.
fn access_for(p: &AttrPredicate, ty: AttrType, value: &Value) -> Option<Access> {
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

fn index<'t>(t: &'t Table, name: &str) -> Result<&'t Index> {
    t.index(name).ok_or_else(|| McsError::Internal(format!("missing index {name}")))
}

/// The typed index of `ty`, which must keep each group's rows in
/// object-id order (`schema::VALUE_INDEX_DDL`).
fn value_index(t: &Table, ty: AttrType) -> Result<&Index> {
    let ix = index(t, value_index_name(ty))?;
    if !ix.is_tail_ordered() {
        let name = &ix.def.name;
        return Err(McsError::Internal(format!("index {name} is not ordered by object id")));
    }
    Ok(ix)
}

/// Does a stored value pass every one of `checks`?
fn passes(stored: &Value, checks: &[(AttrOp, Value)]) -> Result<bool> {
    for (op, value) in checks {
        if !value_matches(*op, stored, value)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Walk the groups of `access` on the typed index `ix` for attribute
/// `name`, each seen through `span` of the object id, in key order.
/// `visit` gets every group the range holds, with whether the group
/// counts: it holds file rows and its value passes every one of
/// `checks` (a group's rows share its value, so the check runs once per
/// group). A `false` from `visit` ends the walk.
fn walk_groups(
    ix: &Index,
    name: &str,
    access: &Access,
    checks: &[(AttrOp, Value)],
    span: (i64, i64),
    mut visit: impl FnMut(Group<'_>, bool) -> Result<bool>,
) -> Result<()> {
    let file = Value::Int(ObjectType::File.code());
    let (prefix, low, high) = match access {
        Access::Point(v) => {
            (vec![Value::from(name), v.clone(), file.clone()], Bound::Unbounded, Bound::Unbounded)
        }
        Access::Range { low, high, .. } => (vec![Value::from(name)], low.as_ref(), high.as_ref()),
    };
    for group in ix.span_groups(&prefix, low, high, span.0..=span.1) {
        let key = group.key();
        let counts = key[2] == file && passes(&key[1], checks)?;
        if !visit(group, counts)? {
            break;
        }
    }
    Ok(())
}

/// The `(op, coerced literal)` checks of a step's predicates.
fn step_checks(checked: &[(&AttrPredicate, AttrType)], preds: &[usize]) -> Vec<(AttrOp, Value)> {
    let ty = checked[preds[0]].1;
    preds.iter().map(|&i| (checked[i].0.op, coerced_value(checked[i].0, ty))).collect()
}

/// What a dive over the seed's id span counted: the groups its walk
/// visits and an estimate of the entries it reads inside the span, and
/// whether it stopped at its cost bound before the walk's end.
#[derive(Debug, Clone, Copy, Default)]
struct SpanDive {
    groups: usize,
    entries: usize,
    stopped: bool,
}

/// Build a plan for a conjunction of type-checked predicates. Pure
/// estimation from index dives — no candidate rows are touched.
pub(crate) fn plan_conjunction(
    t: &Table,
    checked: &[(&AttrPredicate, AttrType)],
) -> Result<AttrPlan> {
    /// A step before the seed is chosen: file entries counted in every id
    /// (0 for an uncounted part, the cap for a dive stopped at one).
    struct Part {
        step: Step,
        est: usize,
        capped: bool,
    }
    // One part per predicate, except that every range bound on one
    // attribute joins that attribute's range part.
    let mut parts: Vec<Part> = Vec::with_capacity(checked.len());
    for (i, (p, ty)) in checked.iter().enumerate() {
        let access = access_for(p, *ty, &coerced_value(p, *ty));
        if let Some(a @ Access::Range { .. }) = &access {
            let same = parts.iter_mut().map(|g| &mut g.step).find(|g| {
                matches!(g.access, Some(Access::Range { .. }))
                    && checked[g.preds[0]].0.name == p.name
            });
            if let Some(g) = same {
                g.preds.push(i);
                g.access.as_mut().expect("a range part").fold(a.clone());
                continue;
            }
        }
        let step = Step { preds: vec![i], access, dive: None };
        parts.push(Part { step, est: 0, capped: false });
    }

    // Walk one step's index over `span`, handing `visit` each group of
    // its access path and whether it counts.
    let walk = |g: &Step, span, visit: &mut dyn FnMut(Group<'_>, bool) -> Result<bool>| {
        let (p, ty) = checked[g.preds[0]];
        let access = g.access.as_ref().expect("a walk needs an access path");
        let checks = step_checks(checked, &g.preds);
        walk_groups(value_index(t, ty)?, &p.name, access, &checks, span, visit)
    };
    // A dive returns `(count, false)`, or `(cap, true)` when it stopped
    // at `cap`: past its cap a dive knows nothing, so dives stopped at
    // one cap tie, and keep the order the query gave them.
    let dive = |g: &Step, cap: usize| -> Result<(usize, bool)> {
        let mut n = 0usize;
        walk(g, ALL_IDS, &mut |group, counts| {
            n += if counts { group.count() } else { 0 };
            Ok(n < cap)
        })?;
        Ok(if n >= cap { (cap, true) } else { (n, false) })
    };

    // Every `=` count is one exact lookup; each range is then counted
    // only up to the best seed so far — reaching it means the range
    // cannot seed, since a capped dive ranks above its cap.
    let mut best = usize::MAX;
    for g in parts.iter_mut().filter(|g| matches!(g.step.access, Some(Access::Point(_)))) {
        g.est = dive(&g.step, usize::MAX)?.0;
        best = best.min(g.est);
    }
    for g in parts.iter_mut().filter(|g| matches!(g.step.access, Some(Access::Range { .. }))) {
        (g.est, g.capped) = dive(&g.step, best)?;
        if !g.capped {
            best = g.est;
        }
    }

    // Seed from the cheapest index-accessible part; when none is
    // accessible (all-`!=` conjunctions), from the smallest posting
    // list — never a full scan of rows that can't match.
    if parts.iter().all(|g| g.step.access.is_none()) {
        let name_ix = index(t, "ua_name")?;
        for g in &mut parts {
            let name = Value::from(checked[g.step.preds[0]].0.name.as_str());
            g.est = name_ix.count_eq(std::slice::from_ref(&name));
        }
    }
    let rank = |g: &Part| (g.step.access.is_none(), g.est, g.capped);
    let seed = (0..parts.len()).min_by_key(|&i| rank(&parts[i])).expect("non-empty conjunction");
    let Part { step: seed, est: rows, .. } = parts.remove(seed);
    // The seed's object-id span: the least and greatest id over its
    // counted groups.
    let mut span: Option<(i64, i64)> = None;
    if seed.access.is_some() {
        walk(&seed, ALL_IDS, &mut |group, counts| {
            if let Some((lo, hi)) = group.bounds().filter(|_| counts) {
                span = Some(span.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
            }
            Ok(true)
        })?;
    }

    // Every other step with an access path dives over the seed's id
    // span, counting the groups its walk visits and estimating the
    // entries it reads inside the span (`Group::estimate` reads a group's
    // two ends, not its entries), and stops once that walk costs as many
    // µs as probing the seed's candidates. A seed that found nothing
    // leaves no candidate to probe, so every dive stops before its first
    // group; a seed of one candidate leaves a dive nothing to save, so
    // none runs.
    let budget = rows as f64 * PROBE_US;
    let dive_span = |g: &Step, (lo, hi): (i64, i64)| -> Result<SpanDive> {
        let (mut groups, mut entries, mut stopped) = (0usize, 0.0f64, false);
        // The first counted groups are estimated one by one; after them,
        // a group's size times the share of entries they had in the span.
        let (mut sampled, mut sampled_len, mut sampled_in) = (0usize, 0.0f64, 0.0f64);
        walk(g, (lo, hi), &mut |group, counts| {
            groups += 1;
            if counts && sampled < SAMPLED_GROUPS {
                let n = group.estimate();
                sampled += 1;
                (sampled_len, sampled_in) = (sampled_len + group.size() as f64, sampled_in + n);
                entries += n;
            } else if counts {
                entries += group.size() as f64 * sampled_in / sampled_len.max(1.0);
            }
            stopped = walk_us(groups, entries.round() as usize) >= budget;
            Ok(!stopped)
        })?;
        Ok(SpanDive { groups, entries: entries.round() as usize, stopped })
    };
    let mut steps = Vec::with_capacity(parts.len() + 1);
    for Part { mut step, .. } in parts {
        step.dive = match (&step.access, span) {
            (None, _) => None,
            _ if rows == 1 => None,
            (Some(_), None) => Some(SpanDive { stopped: true, ..SpanDive::default() }),
            (Some(_), Some(span)) => Some(dive_span(&step, span)?),
        };
        steps.push(step);
    }
    // Most selective in the span first; undived steps last.
    steps.sort_by_key(|g| g.dive.map_or((true, true, 0), |d| (false, d.stopped, d.entries)));
    steps.insert(0, seed);
    Ok(AttrPlan { steps, seed_rows: Some(rows), span })
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

    /// The plan of a conjunction of type-checked predicates, and the one
    /// place that reads the index profile and the planner bypass: under
    /// `ValueIndexed` the cost-based [`plan_conjunction`]; under
    /// `Paper2003` or a bypass the 2003 evaluation, one `ua_name` posting
    /// scan per predicate in syntactic order.
    pub(crate) fn plan_attrs(
        &self,
        t: &Table,
        checked: &[(&AttrPredicate, AttrType)],
    ) -> Result<AttrPlan> {
        if self.profile == IndexProfile::ValueIndexed && !self.ctx.planner_bypass {
            return plan_conjunction(t, checked);
        }
        let steps =
            (0..checked.len()).map(|i| Step { preds: vec![i], access: None, dive: None }).collect();
        Ok(AttrPlan { steps, seed_rows: None, span: None })
    }

    /// EXPLAIN for [`Mcs::query_by_attributes`]: the plan it would run
    /// right now, one line per step, without executing it. Under the
    /// `Paper2003` profile (or a planner bypass) every predicate reports
    /// the posting scan it would run.
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
        let handle = self.db.table("user_attributes")?;
        let t = handle.read();
        Ok(self.plan_attrs(&t, &checked)?.lines(&checked))
    }

    /// Execute a compiled plan, returning matching **file** object ids,
    /// sorted and deduplicated.
    pub(crate) fn run_attr_plan(
        &self,
        t: &Table,
        checked: &[(&AttrPredicate, AttrType)],
        plan: &AttrPlan,
    ) -> Result<Vec<i64>> {
        self.run_steps(t, checked, plan, |_, _| {})
    }

    /// [`Mcs::run_attr_plan`], telling `chose` for each step after the
    /// seed that runs whether it walked (`true`) or probed, in run order.
    /// A step walks when its dive prices the walk below probing the
    /// candidates it faces; a candidate an earlier step probed probes warm.
    fn run_steps(
        &self,
        t: &Table,
        checked: &[(&AttrPredicate, AttrType)],
        plan: &AttrPlan,
        mut chose: impl FnMut(&[usize], bool),
    ) -> Result<Vec<i64>> {
        let mut ids: Option<Vec<i64>> = None;
        let mut price = PROBE_US;
        for step in &plan.steps {
            let (p, ty) = checked[step.preds[0]];
            // The `(op, coerced literal)` tests every row of the step passes.
            let checks = step_checks(checked, &step.preds);
            let posting = || self.posting_scan(t, p, ty.full_row_column(), &checks[0].1);
            ids = Some(match (ids, &step.access) {
                (None, Some(a)) if plan.seed_rows.is_some() => {
                    self.eval_access(t, &p.name, ty, &checks, a, ALL_IDS)?
                }
                (None, _) => posting()?,
                (Some(prev), _) if plan.seed_rows.is_none() => intersect_sorted(&prev, &posting()?),
                (Some(prev), Some(a))
                    if step.dive.is_some_and(|d| {
                        !d.stopped && walk_us(d.groups, d.entries) < prev.len() as f64 * price
                    }) =>
                {
                    chose(&step.preds, true);
                    // The candidates are ascending: their span is the
                    // first and last.
                    let span = (prev[0], prev[prev.len() - 1]);
                    intersect_sorted(&prev, &self.eval_access(t, &p.name, ty, &checks, a, span)?)
                }
                (Some(prev), _) => {
                    chose(&step.preds, false);
                    price = WARM_PROBE_US;
                    self.probe_filter(t, &prev, &p.name, ty, &checks)?
                }
            });
            if ids.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        Ok(ids.unwrap_or_default())
    }

    /// Evaluate one access path on the typed index of `ty` for the
    /// attribute `name` over the object ids in `span`, returning matching
    /// file object ids, sorted and deduplicated. `checks` are the step's
    /// predicates, tested once per group on its value. On the barrier
    /// engine every entry is live and carries its row's key, so the ids
    /// come straight from the postings; under MVCC a stale entry may
    /// describe a superseded image and a pending one is not yet visible,
    /// so each row in the span is fetched and re-checked on its visible
    /// image.
    pub(crate) fn eval_access(
        &self,
        t: &Table,
        name: &str,
        ty: AttrType,
        checks: &[(AttrOp, Value)],
        access: &Access,
        span: (i64, i64),
    ) -> Result<Vec<i64>> {
        let ix = value_index(t, ty)?;
        let mvcc = t.is_mvcc();
        let (file, val_col) = (Value::Int(ObjectType::File.code()), ty.full_row_column());
        let mut out = Vec::new();
        walk_groups(ix, name, access, checks, span, |group, counts| {
            if !counts {
                return Ok(true);
            }
            if !mvcc {
                out.extend(group.entries().map(|(oid, _)| oid));
                return Ok(true);
            }
            for (_, id) in group.entries() {
                // A deleted row's entries linger until vacuum and a
                // pending row is not yet visible: both read back as `None`.
                let Some(row) = relstore::snapshot_row(t, id, self.at()) else {
                    continue;
                };
                if row[1] == file
                    && matches!(&row[3], Value::Str(s) if s.as_ref() == name)
                    && passes(&row[val_col], checks)?
                {
                    out.push(row[2].as_int()?);
                }
            }
            Ok(true)
        })?;
        Ok(sorted_ids(out))
    }

    /// Probe evaluation: keep the candidates whose `(File, id, name)`
    /// attribute row — found via the unique `ua_object` index, one probe
    /// per candidate — passes every one of `checks`. Same semantics as a
    /// posting scan: the attribute must exist on the file (so `!=`
    /// means "exists with a different value").
    ///
    /// `prev` is ascending, so consecutive probes descend the same
    /// B-tree path, and one probe key per step serves them all — only
    /// its object-id slot changes.
    fn probe_filter(
        &self,
        t: &Table,
        prev: &[i64],
        name: &str,
        ty: AttrType,
        checks: &[(AttrOp, Value)],
    ) -> Result<Vec<i64>> {
        let ix = index(t, "ua_object")?;
        let val_col = ty.full_row_column();
        let file_code = Value::Int(ObjectType::File.code());
        let mut key = IndexKey(vec![file_code.clone(), Value::Int(0), Value::from(name)]);
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
                        || !matches!(&row[3], Value::Str(s) if s.as_ref() == name))
                {
                    continue;
                }
                let mut pass = true;
                for (op, value) in checks {
                    pass = pass && value_matches(*op, &row[val_col], value)?;
                }
                if pass {
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

/// Intersection of two ascending id lists.
pub(crate) fn intersect_sorted(a: &[i64], b: &[i64]) -> Vec<i64> {
    merge_sorted(a, b, |in_a, in_b| in_a && in_b)
}

/// Union of two ascending id lists.
pub(crate) fn union_sorted(a: &[i64], b: &[i64]) -> Vec<i64> {
    merge_sorted(a, b, |_, _| true)
}

/// The ids of ascending `a` that are not in ascending `b`.
pub(crate) fn difference_sorted(a: &[i64], b: &[i64]) -> Vec<i64> {
    merge_sorted(a, b, |in_a, in_b| in_a && !in_b)
}

/// One linear merge of two ascending id lists that keeps each id for
/// which `keep(in a, in b)` holds; the result is ascending and free of
/// duplicates even if the inputs are not.
fn merge_sorted(a: &[i64], b: &[i64], keep: impl Fn(bool, bool) -> bool) -> Vec<i64> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    loop {
        let id = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) | (None, Some(&x)) => x,
            (None, None) => return out,
        };
        let (in_a, in_b) = (a.get(i) == Some(&id), b.get(j) == Some(&id));
        while a.get(i) == Some(&id) {
            i += 1;
        }
        while b.get(j) == Some(&id) {
            j += 1;
        }
        if keep(in_a, in_b) {
            out.push(id);
        }
    }
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

    /// The sorted-merge intersection, union and difference against
    /// `BTreeSet`'s on seeded random inputs, empty and duplicate-laden
    /// ones included.
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
                let (sa, sb): (BTreeSet<i64>, BTreeSet<i64>) =
                    (a.iter().copied().collect(), b.iter().copied().collect());
                let expect: Vec<i64> = sa.intersection(&sb).copied().collect();
                assert_eq!(intersect_sorted(&a, &b), expect, "seed {seed}: {a:?} ∩ {b:?}");
                assert_eq!(intersect_sorted(&b, &a), expect, "seed {seed}: {b:?} ∩ {a:?}");
                let expect: Vec<i64> = sa.union(&sb).copied().collect();
                assert_eq!(union_sorted(&a, &b), expect, "seed {seed}: {a:?} ∪ {b:?}");
                assert_eq!(union_sorted(&b, &a), expect, "seed {seed}: {b:?} ∪ {a:?}");
                let expect: Vec<i64> = sa.difference(&sb).copied().collect();
                assert_eq!(difference_sorted(&a, &b), expect, "seed {seed}: {a:?} ∖ {b:?}");
                let expect: Vec<i64> = sb.difference(&sa).copied().collect();
                assert_eq!(difference_sorted(&b, &a), expect, "seed {seed}: {b:?} ∖ {a:?}");
            }
        }
        assert!(intersect_sorted(&[], &[1, 2]).is_empty());
        assert_eq!(intersect_sorted(&[3, 3, 3], &[3, 3]), vec![3]);
        assert_eq!(union_sorted(&[3, 3], &[]), vec![3]);
        assert_eq!(difference_sorted(&[1, 1, 2], &[2]), vec![1]);
    }

    /// The ten attributes of perfbench's catalog (`workload::spec`).
    const WL_ATTRS: [(&str, AttrType); 10] = [
        ("wl_site", AttrType::Str),
        ("wl_type", AttrType::Str),
        ("wl_seq", AttrType::Int),
        ("wl_coll", AttrType::Int),
        ("wl_freq", AttrType::Float),
        ("wl_snr", AttrType::Float),
        ("wl_date", AttrType::Date),
        ("wl_caldate", AttrType::Date),
        ("wl_start", AttrType::DateTime),
        ("wl_end", AttrType::DateTime),
    ];

    /// Attribute `a`'s value on object index `i`, as `workload::spec`
    /// gives it (`wl_site` = i % 50, `wl_type` = i % 20, `wl_seq` =
    /// i % 1000, `wl_coll` = i / 1000, …).
    fn wl_value(a: usize, i: i64) -> Value {
        use relstore::{Date, DateTime};
        let (day, sec) = (12_341, 1_066_262_400);
        match a {
            0 => Value::from(format!("site_{:02}", i % 50)),
            1 => Value::from(format!("type_{:02}", i % 20)),
            2 => Value::Int(i % 1000),
            3 => Value::Int(i / 1000),
            4 => Value::Float((i % 997) as f64 * 0.5),
            5 => Value::Float((i % 101) as f64 * 1.25),
            6 => Value::Date(Date::from_days_from_epoch(day + i % 365)),
            7 => Value::Date(Date::from_days_from_epoch(day + i % 30)),
            8 => Value::DateTime(DateTime::from_seconds_from_epoch(sec + (i % 86_400) * 7)),
            _ => Value::DateTime(DateTime::from_seconds_from_epoch(sec + (i % 3_600) * 11)),
        }
    }

    /// A catalog laid out like perfbench's: `files` files with ids
    /// 1..=files in collections of 1 000 consecutive ones, every file
    /// `i` and every collection `c` carrying the ten attributes with
    /// [`wl_value`]`(a, i)` and `(a, c)`. No read cache.
    fn perfbench_catalog(files: i64) -> (Mcs, Credential) {
        use std::sync::Arc;

        use crate::{Attribute, FileSpec, IndexProfile, ManualClock, ObjectRef};

        let cred = Credential::new("/O=Grid/CN=admin");
        let clock = Arc::new(ManualClock::default());
        let m = Mcs::with_options(&cred, IndexProfile::ValueIndexed, clock).unwrap();
        for (name, ty) in WL_ATTRS {
            m.define_attribute(&cred, name, ty, "").unwrap();
        }
        for c in 0..(files + 999) / 1000 {
            let coll = format!("coll.{c:06}");
            m.create_collection(&cred, &coll, None, "").unwrap();
            for (a, (name, _)) in WL_ATTRS.iter().enumerate() {
                let attr = Attribute { name: name.to_string(), value: wl_value(a, c) };
                m.set_attribute(&cred, &ObjectRef::Collection(coll.clone()), &attr).unwrap();
            }
            let specs: Vec<FileSpec> = (c * 1000..files.min(c * 1000 + 1000))
                .map(|i| {
                    let spec = FileSpec::named(format!("lfn.{i:09}.dat")).in_collection(&coll);
                    WL_ATTRS.iter().enumerate().fold(spec, |s, (a, (name, _))| {
                        s.attr(*name, wl_value(a, i))
                    })
                })
                .collect();
            m.create_files(&cred, &specs).unwrap();
        }
        (m, cred)
    }

    fn wl_pred(a: usize, op: AttrOp, value: Value) -> AttrPredicate {
        AttrPredicate { name: WL_ATTRS[a].0.into(), op, value }
    }

    /// Plan and run `preds` on `m`, checking the answer against the
    /// planner bypass: the plan, its explain lines, and for each step after
    /// the seed that ran, its attribute and whether it walked.
    fn run_choices(
        m: &Mcs,
        preds: &[AttrPredicate],
    ) -> (AttrPlan, Vec<String>, Vec<(String, bool)>) {
        let checked = m.check_predicates(preds).unwrap();
        let handle = m.db.table("user_attributes").unwrap();
        let (plan, ids, chose) = {
            let t = handle.read();
            let plan = m.plan_attrs(&t, &checked).unwrap();
            let mut chose = Vec::new();
            let ids = m
                .run_steps(&t, &checked, &plan, |preds, walked| {
                    chose.push((checked[preds[0]].0.name.clone(), walked))
                })
                .unwrap();
            (plan, ids, chose)
        };
        let oracle = m.with_planner_bypass(|b| b.eval_conjunction(&checked)).unwrap();
        assert_eq!(ids, oracle, "{preds:?}");
        let lines = plan.lines(&checked);
        (plan, lines, chose)
    }

    /// The run-time choices on perfbench's nested moduli (`wl_site` =
    /// i % 50 and `wl_type` = i % 20 are functions of `wl_seq` = i % 1000)
    /// over 5 000 files: eq3's `wl_seq` seed holds 5 candidates and every
    /// one passes both later steps, so each step faces all 5 and walks;
    /// a one-candidate seed (eq10's `wl_start`) runs no dive and probes
    /// its nine `=` steps; and the LIKE shape's `wl_seq >= 50` still walks
    /// its 950 one-entry groups rather than probing the LIKE's 200
    /// survivors.
    #[test]
    fn steps_decide_on_the_candidates_they_have() {
        let (m, _) = perfbench_catalog(5_000);
        let eq = |k: usize, i: i64| -> Vec<AttrPredicate> {
            (0..k).map(|a| wl_pred(a, AttrOp::Eq, wl_value(a, i))).collect()
        };
        let walked = |names: &[&str]| -> Vec<(String, bool)> {
            names.iter().map(|n| (n.to_string(), true)).collect()
        };
        let (_, lines, chose) = run_choices(&m, &eq(3, 1_234));
        assert_eq!(chose, walked(&["wl_site", "wl_type"]), "{lines:?}");

        let (plan, lines, chose) = run_choices(&m, &eq(10, 1_234));
        assert_eq!(lines[0], "seed: wl_start = via index ua_name_datetime eq (1 rows)");
        assert!(plan.steps.iter().all(|s| s.dive.is_none()), "{lines:?}");
        assert_eq!(chose.len(), 9, "{lines:?}");
        assert!(chose.iter().all(|(_, walked)| !walked), "{chose:?}");

        let like = [
            wl_pred(0, AttrOp::Like, Value::from("site_3%")),
            wl_pred(2, AttrOp::Ge, Value::Int(50)),
            wl_pred(3, AttrOp::Eq, Value::Int(2)),
        ];
        let (_, lines, chose) = run_choices(&m, &like);
        assert_eq!(lines[0], "seed: wl_coll = via index ua_name_int eq (1000 rows)");
        assert_eq!(chose, walked(&["wl_site", "wl_seq"]), "{lines:?}");
    }

    /// Calibration of [`PROBE_US`], [`WARM_PROBE_US`], [`GROUP_US`] and
    /// [`SPAN_ENTRY_US`] on the 50 000-file [`perfbench_catalog`]: time
    /// one probe over dense candidates (one collection's files) and over
    /// sparse ones (every 50th file of the catalog), one warm probe (the
    /// 50 files of one `wl_seq` value probed for another attribute right
    /// after a first probe, as a conjunction's later steps probe them),
    /// one group visit of a span walk (the 1 000 `wl_seq` groups walked
    /// over a one-id span, which holds one entry of one of them), one
    /// entry read inside the span (one 2 500-entry `wl_type` group walked
    /// over every id), and the start of a walk (a one-entry point
    /// lookup). Each of 15 passes takes a fresh candidate set, key range
    /// or span and starts after 8 MiB of other memory has been touched,
    /// as another query's work would between two; the medians are
    /// printed. Run with `cargo test --release -p mcs --lib calibrate --
    /// --ignored --nocapture` on an otherwise idle CPU.
    #[test]
    #[ignore = "builds a 50 000-file catalog; prints cost constants"]
    fn calibrate_probe_and_scan_costs() {
        use std::time::Instant;

        const PASSES: i64 = 15;
        let (m, _) = perfbench_catalog(50_000);
        let handle = m.db.table("user_attributes").unwrap();
        let t = handle.read();
        let eq = |v: Value| vec![(AttrOp::Eq, v)];
        // The files whose attribute `a` equals its value on object `i`,
        // read by a point walk over `span`.
        let point = |a: usize, i: i64, span: (i64, i64)| {
            let (name, ty) = WL_ATTRS[a];
            let v = wl_value(a, i);
            m.eval_access(&t, name, ty, &eq(v.clone()), &Access::Point(v), span).unwrap()
        };
        // Between passes, touch 8 MiB, so that what a pass reads is no
        // closer in cache than another query's work would leave it.
        let mut filler = vec![0u8; 8 << 20];
        let mut evict = move || {
            for i in (0..filler.len()).step_by(64) {
                filler[i] = filler[i].wrapping_add(1);
            }
            std::hint::black_box(&filler);
        };
        // µs per unit for each pass's (units, work), median over passes.
        // A pass with untimed set-up restarts the clock it is handed.
        let mut per_unit = |work: &mut dyn FnMut(i64, &mut Instant) -> usize| {
            let mut v: Vec<f64> = (0..PASSES)
                .map(|k| {
                    evict();
                    let mut start = Instant::now();
                    let units = work(k, &mut start);
                    start.elapsed().as_secs_f64() * 1e6 / units.max(1) as f64
                })
                .collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        // Probe `cands` for attribute `a` = its value on file 7.
        let probe = |cands: &[i64], a: usize| {
            let (name, ty) = WL_ATTRS[a];
            let out = m.probe_filter(&t, cands, name, ty, &eq(wl_value(a, 7))).unwrap();
            std::hint::black_box(out);
            cands.len()
        };
        let dense = per_unit(&mut |k, _| probe(&point(3, (3 * k + 1) * 1000, ALL_IDS), 1));
        let sparse = per_unit(&mut |k, _| probe(&point(0, 3 * k + 1, ALL_IDS), 1));
        // The 50 spread files of one `wl_seq` value (eq3's seed), probed
        // for `wl_type`, then timed on a probe for `wl_snr`.
        let warm = per_unit(&mut |k, start| {
            let cands = point(2, 37 * k + 2, ALL_IDS);
            probe(&cands, 1);
            *start = Instant::now();
            probe(&cands, 5)
        });
        // Every `wl_seq` group, each seen through the one id of another
        // collection's file.
        let all_seq =
            Access::Range { low: Bound::Unbounded, high: Bound::Unbounded, like: false };
        let group = per_unit(&mut |k, _| {
            let id = point(8, 2_017 * k + 500, ALL_IDS)[0];
            let out = m.eval_access(&t, "wl_seq", AttrType::Int, &[], &all_seq, (id, id)).unwrap();
            std::hint::black_box(out);
            1000
        });
        // One `wl_type` group of 2 500 entries, over every id.
        let entry = per_unit(&mut |k, _| point(1, k + 1, ALL_IDS).len());
        let start = per_unit(&mut |k, _| {
            for j in 0..100 {
                std::hint::black_box(point(8, 3_000 * k + j, ALL_IDS));
            }
            100
        });
        println!(
            "probe: dense {dense:.3} µs, sparse {sparse:.3} µs, warm {warm:.3} µs; \
             group visit {group:.3} µs; entry in span {entry:.3} µs; walk start {start:.3} µs \
             (PROBE_US {PROBE_US}, WARM_PROBE_US {WARM_PROBE_US}, GROUP_US {GROUP_US}, \
             SPAN_ENTRY_US {SPAN_ENTRY_US})"
        );
    }

    /// The per-class driver of perfbench's discover-cold mix, called
    /// directly on the 50 000-file [`perfbench_catalog`] with no read
    /// cache: each query picks a uniform file `i`; 14 in 20 are the
    /// equality conjunction of its first 3 to 10 attributes, 3 in 20 a
    /// `wl_seq` range of up to 50 values in its collection, and 3 in 20
    /// `wl_site LIKE 'site_<d>%' AND wl_seq >= lo AND wl_coll = c` with a
    /// uniform `lo` at most `i`'s `wl_seq`. Prints each class's p50, p90
    /// and p99 in µs, with LIKE split at `lo` = 100, and checks the size
    /// of every answer. Run with `cargo test --release -p mcs --lib
    /// discover_cold_classes -- --ignored --nocapture` pinned to an idle
    /// CPU.
    #[test]
    #[ignore = "builds a 50 000-file catalog; prints per-class latencies"]
    fn discover_cold_classes() {
        use std::time::Instant;

        const FILES: i64 = 50_000;
        const QUERIES: usize = 20_000;
        let (m, cred) = perfbench_catalog(FILES);
        let mut classes: Vec<(String, Vec<f64>)> = (3..=10)
            .map(|k| format!("eq{k}"))
            .chain(["range".into(), "LIKE lo < 100".into(), "LIKE lo >= 100".into()])
            .map(|name| (name, Vec::new()))
            .collect();
        let mut rng = testkit::Rng::new(34);
        let mut between = |lo: i64, hi: i64| lo + rng.below((hi - lo + 1) as u64) as i64;
        for _ in 0..QUERIES {
            let i = between(0, FILES - 1);
            let (coll, seq) = (i / 1000, i % 1000);
            let int = |a: usize, op, v: i64| wl_pred(a, op, Value::Int(v));
            let (class, preds, want) = match between(0, 19) {
                0..=13 => {
                    let k = between(3, 10) as usize;
                    let preds = (0..k).map(|a| wl_pred(a, AttrOp::Eq, wl_value(a, i))).collect();
                    (k - 3, preds, if k == 3 { FILES / 1000 } else { 1 })
                }
                14..=16 => {
                    let width = between(0, 49);
                    let lo = seq - between(0, width).min(seq);
                    let hi = (lo + width).min(999);
                    let preds = vec![
                        int(2, AttrOp::Ge, lo),
                        int(2, AttrOp::Le, hi),
                        int(3, AttrOp::Eq, coll),
                    ];
                    (8, preds, hi - lo + 1)
                }
                _ => {
                    let (tens, lo) = ((i % 50) / 10, between(0, seq));
                    let like = Value::from(format!("site_{tens}%"));
                    let preds = vec![
                        wl_pred(0, AttrOp::Like, like),
                        int(2, AttrOp::Ge, lo),
                        int(3, AttrOp::Eq, coll),
                    ];
                    let want = (0..1000).filter(|j| (j % 50) / 10 == tens && *j >= lo).count();
                    (if lo < 100 { 9 } else { 10 }, preds, want as i64)
                }
            };
            let start = Instant::now();
            let hits = m.query_by_attributes(&cred, &preds).unwrap();
            classes[class].1.push(start.elapsed().as_secs_f64() * 1e6);
            assert_eq!(hits.len() as i64, want, "{preds:?}");
        }
        let mut all: Vec<(f64, bool)> = classes
            .iter()
            .enumerate()
            .flat_map(|(c, (_, us))| us.iter().map(move |&t| (t, c >= 9)))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        let tail = &all[all.len() * 99 / 100..];
        let like = tail.iter().filter(|(_, like)| *like).count();
        println!("above the mix's p99: {} queries, {like} of them LIKE", tail.len());
        let head = ["class", "queries", "p50 µs", "p90 µs", "p99 µs"];
        println!("{:<16}{:>8}{:>10}{:>10}{:>10}", head[0], head[1], head[2], head[3], head[4]);
        for (name, mut us) in classes {
            us.sort_by(f64::total_cmp);
            let q = |q: f64| us[((q * us.len() as f64).ceil() as usize).max(1) - 1];
            println!("{name:<16}{:>8}{:>10.1}{:>10.1}{:>10.1}", us.len(), q(0.5), q(0.9), q(0.99));
        }
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
