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
//! straight from its postings. Every other step is bounded to the
//! candidates' object-id span: it either **intersects** — walks its
//! groups, checking each group's value once and reading only the entries
//! inside the span — or runs as a **residual** (probes the unique
//! `ua_object` index once per surviving candidate), whichever costs fewer
//! µs. A span dive prices the walk from the groups it visits and the
//! entries it would read inside the span (estimated from each group's
//! ends, sampled after the first [`SAMPLED_GROUPS`] groups), stopped at
//! the probes' cost; steps go most selective in the span first. Under
//! MVCC a walk still fetches each row in the span and re-checks it on its
//! visible image. Estimates pick the plan shape, never change answers.
//!
//! **Cost constants.** [`PROBE_US`], [`GROUP_US`] and [`SPAN_ENTRY_US`]
//! were measured by the ignored test `calibrate_probe_and_scan_costs` on
//! a 50 000-file catalog laid out like perfbench's (2-vCPU KVM guest,
//! pinned to one CPU, a fresh candidate set, key range or span per pass
//! after 8 MiB of other memory was touched, median of 15 passes, three
//! runs): a probe costs 1.5–1.7 µs when the candidates are one
//! collection's consecutive files and 2.5–3.1 µs when they are spread
//! over the catalog; a span walk costs 0.22–0.38 µs per group it visits
//! and 0.026–0.035 µs per entry it reads inside the span; starting a walk
//! costs 0.7–1.2 µs, which the price leaves out. The planner prices the
//! spread-out probe, 3.0 µs, the residual case of the eq-heavy mixes.
//! Two other ways to cut residual cost measured worse and are not built
//! (DESIGN §7.6): one merged walk of `ua_object` over all candidates, and
//! residual checks that read the value column without fetching the row.
//!
//! [`Mcs::with_planner_bypass`] hands its closure a handle whose scope
//! disables the planner (and skips the read cache), so tests and
//! benchmarks can compare the planned evaluation against the naive
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

/// µs one residual probe costs: a `ua_object` descent for
/// `(File, id, name)` plus the row fetch, over candidates spread across
/// the catalog (measured 2.5–3.1 µs; 1.5–1.7 µs over one collection's
/// consecutive files; see the module doc).
pub(crate) const PROBE_US: f64 = 3.0;

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
pub(crate) const ALL_IDS: (i64, i64) = (i64::MIN, i64::MAX);

/// µs to filter `candidates` with one probe each.
fn probe_us(candidates: f64) -> f64 {
    candidates * PROBE_US
}

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
pub(crate) fn coerced_value(p: &AttrPredicate, ty: AttrType) -> Value {
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

/// How one step participates in the plan.
#[derive(Debug, Clone)]
enum Role {
    /// Produce the initial candidate set from the typed index.
    SeedIndex(Access),
    /// Produce the initial candidate set from the `ua_name` posting
    /// list (no predicate in the conjunction is index-accessible).
    SeedPosting,
    /// Walk the typed index over the candidates' id span and intersect.
    Intersect(Access),
    /// Filter surviving candidates with per-candidate `ua_object`
    /// probes instead of walking this step's own index entries.
    Residual,
}

/// One planned evaluation step.
struct Step {
    /// Positions in the caller's checked-predicate slice: one predicate,
    /// or every range bound folded onto one attribute.
    preds: Vec<usize>,
    role: Role,
    /// Entries for a seed (in every id), entries inside the seed's id
    /// span for an intersection, estimated surviving candidates for a
    /// residual.
    est: usize,
    /// Groups an intersection's walk visits.
    groups: usize,
    /// For a residual with an access path whose span dive stopped at the
    /// probes' cost: the groups and entries it had counted.
    cut: Option<(usize, usize)>,
}

/// A compiled plan for a conjunction of attribute predicates.
pub(crate) struct AttrPlan {
    steps: Vec<Step>,
    /// The seed's object-id span, which bounds every intersection's walk
    /// (at run time, the running candidates' narrower one).
    span: Option<(i64, i64)>,
}

impl AttrPlan {
    /// Human-readable plan, one line per step (the `explain` surface —
    /// plan-shape tests pin these strings, so keep them stable). A folded
    /// step names each of its predicates, joined by `AND`.
    pub(crate) fn lines(&self, checked: &[(&AttrPredicate, AttrType)]) -> Vec<String> {
        self.steps
            .iter()
            .map(|s| {
                let preds = s
                    .preds
                    .iter()
                    .map(|&i| format!("{} {}", checked[i].0.name, op_sym(checked[i].0.op)))
                    .collect::<Vec<_>>()
                    .join(" AND ");
                let ix = value_index_name(checked[s.preds[0]].1);
                match &s.role {
                    Role::SeedIndex(a) => {
                        format!("seed: {preds} via index {ix} {} ({} rows)", a.shape(), s.est)
                    }
                    Role::SeedPosting => {
                        format!("seed: {preds} via posting scan ua_name ({} rows)", s.est)
                    }
                    Role::Intersect(a) => {
                        let (lo, hi) = self.span.expect("an intersection has a seed span");
                        format!(
                            "intersect: {preds} via index {ix} {} over ids {lo}..={hi} \
                             ({} groups, ~{} rows)",
                            a.shape(),
                            s.groups,
                            s.est
                        )
                    }
                    Role::Residual => {
                        let cut = s.cut.map_or(String::new(), |(g, n)| {
                            format!("; dive stopped at {g} groups, ~{n} rows")
                        });
                        format!("residual: {preds} via ua_object probes (~{} candidates{cut})", s.est)
                    }
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
    /// A step before its role is known.
    struct Part {
        preds: Vec<usize>,
        access: Option<Access>,
        /// File entries counted in every id; for an uncounted part (no
        /// access path) 0, and for a dive stopped at its cap that cap.
        est: usize,
        capped: bool,
    }
    // One part per predicate, except that every range bound on one
    // attribute joins that attribute's range part.
    let mut parts: Vec<Part> = Vec::with_capacity(checked.len());
    for (i, (p, ty)) in checked.iter().enumerate() {
        let access = access_for(p, *ty, &coerced_value(p, *ty));
        if let Some(a @ Access::Range { .. }) = &access {
            let same = parts.iter_mut().find(|g| {
                matches!(g.access, Some(Access::Range { .. }))
                    && checked[g.preds[0]].0.name == p.name
            });
            if let Some(g) = same {
                g.preds.push(i);
                g.access.as_mut().expect("a range part").fold(a.clone());
                continue;
            }
        }
        parts.push(Part { preds: vec![i], access, est: 0, capped: false });
    }

    // Walk one part's index over `span`, handing `visit` each group of
    // its access path and whether it counts.
    let walk = |g: &Part, span, visit: &mut dyn FnMut(Group<'_>, bool) -> Result<bool>| {
        let (p, ty) = checked[g.preds[0]];
        let access = g.access.as_ref().expect("a walk needs an access path");
        let checks = step_checks(checked, &g.preds);
        walk_groups(value_index(t, ty)?, &p.name, access, &checks, span, visit)
    };
    // A dive returns `(count, false)`, or `(cap, true)` when it stopped
    // at `cap`: past its cap a dive knows nothing, so dives stopped at
    // one cap tie, and keep the order the query gave them.
    let dive = |g: &Part, cap: usize| -> Result<(usize, bool)> {
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
    for g in parts.iter_mut().filter(|g| matches!(g.access, Some(Access::Point(_)))) {
        g.est = dive(g, usize::MAX)?.0;
        best = best.min(g.est);
    }
    for g in parts.iter_mut().filter(|g| matches!(g.access, Some(Access::Range { .. }))) {
        (g.est, g.capped) = dive(g, best)?;
        if !g.capped {
            best = g.est;
        }
    }

    // Seed from the cheapest index-accessible part; when none is
    // accessible (all-`!=` conjunctions), from the smallest posting
    // list — never a full scan of rows that can't match.
    let name_ix = index(t, "ua_name")?;
    let posting = |preds: &[usize]| {
        name_ix.count_eq(std::slice::from_ref(&Value::from(checked[preds[0]].0.name.as_str())))
    };
    if parts.iter().all(|g| g.access.is_none()) {
        for g in &mut parts {
            g.est = posting(&g.preds);
        }
    }
    let rank = |g: &Part| (g.access.is_none(), g.est, g.capped);
    let seed = (0..parts.len()).min_by_key(|&i| rank(&parts[i])).expect("non-empty conjunction");
    let seed = parts.remove(seed);
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
    let role = match seed.access {
        Some(a) => Role::SeedIndex(a),
        None => Role::SeedPosting,
    };
    let mut steps = vec![Step { preds: seed.preds, role, est: seed.est, groups: 0, cut: None }];

    // Every other step with an access path dives over the seed's id
    // span, counting the groups its walk visits and estimating the
    // entries it reads inside the span (`Group::estimate` reads a group's
    // two ends, not its entries), and stops once that walk costs as many
    // µs as probing the seed's candidates. Steps then go most selective
    // in the span first, so each intersection narrows the candidates
    // before the next decision: a step intersects while its walk costs
    // fewer µs than probing the candidates left, and narrows their
    // estimate by the share of the span's ids it keeps, as if the
    // predicates were independent. A step whose walk costs more probes;
    // if its first dive ran to the end, it dives again up to the lower
    // cost, so that every probing step's dive reports where it stopped.
    // Residuals run after every intersection.
    let dive_span = |g: &Part, (lo, hi): (i64, i64), budget: f64| -> Result<SpanDive> {
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
    // A seed that found nothing leaves no candidate to probe, so every
    // dive stops before its first group.
    let mut dived = Vec::with_capacity(parts.len());
    for g in parts {
        let d = match (&g.access, span) {
            (None, _) => None,
            (Some(_), None) => Some(SpanDive { stopped: true, ..SpanDive::default() }),
            (Some(_), Some(span)) => Some(dive_span(&g, span, probe_us(seed.est as f64))?),
        };
        dived.push((g, d));
    }
    // Steps with no access path go last.
    dived.sort_by_key(|(_, d)| d.map_or((true, true, 0), |d| (false, d.stopped, d.entries)));
    let mut running = seed.est as f64;
    let mut residuals = Vec::new();
    for (g, d) in dived {
        let Some(mut d) = d else {
            residuals.push((g.preds, None));
            continue;
        };
        let (Some(access), Some((lo, hi))) = (g.access.clone(), span) else {
            residuals.push((g.preds, Some((d.groups, d.entries))));
            continue;
        };
        let budget = probe_us(running);
        if !d.stopped && walk_us(d.groups, d.entries) < budget {
            let ids = (hi as f64 - lo as f64 + 1.0).max(d.entries as f64).max(1.0);
            running *= d.entries as f64 / ids;
            steps.push(Step {
                preds: g.preds,
                role: Role::Intersect(access),
                est: d.entries,
                groups: d.groups,
                cut: None,
            });
            continue;
        }
        if !d.stopped {
            d = dive_span(&g, (lo, hi), budget)?;
        }
        residuals.push((g.preds, Some((d.groups, d.entries))));
    }
    let est = running.ceil() as usize;
    steps.extend(residuals.into_iter().map(|(preds, cut)| Step {
        preds,
        role: Role::Residual,
        est,
        groups: 0,
        cut,
    }));
    Ok(AttrPlan { steps, span })
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
            let (p, ty) = checked[step.preds[0]];
            // The `(op, coerced literal)` tests every row of the step passes.
            let checks = step_checks(checked, &step.preds);
            acc = Some(match (&step.role, acc) {
                (Role::SeedIndex(a), None) => {
                    self.eval_access(t, &p.name, ty, &checks, a, ALL_IDS)?
                }
                (Role::SeedPosting, None) => {
                    self.posting_scan(t, p, ty.full_row_column(), &checks[0].1)?
                }
                (Role::Intersect(a), Some(prev)) => {
                    // The candidates are ascending: their span is the
                    // first and last.
                    let span = (prev[0], prev[prev.len() - 1]);
                    intersect_sorted(&prev, &self.eval_access(t, &p.name, ty, &checks, a, span)?)
                }
                (Role::Residual, Some(prev)) => {
                    self.residual_filter(t, &prev, &p.name, ty, &checks)?
                }
                _ => return Err(McsError::Internal("malformed attribute plan".into())),
            });
            if acc.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        Ok(acc.unwrap_or_default())
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

    /// Residual evaluation: keep the candidates whose `(File, id, name)`
    /// attribute row — found via the unique `ua_object` index, one probe
    /// per candidate — passes every one of `checks`. Same semantics as a
    /// posting scan: the attribute must exist on the file (so `!=`
    /// means "exists with a different value").
    ///
    /// `prev` is ascending, so consecutive probes descend the same
    /// B-tree path, and one probe key per step serves them all — only
    /// its object-id slot changes.
    fn residual_filter(
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

    /// Calibration of [`PROBE_US`], [`GROUP_US`] and [`SPAN_ENTRY_US`]:
    /// on a catalog of 50 000 files laid out like perfbench's
    /// (collections of 1 000 consecutive files, ten attributes each),
    /// time one residual probe over dense candidates (one collection's
    /// files) and over sparse ones (every 50th file of the catalog), one
    /// group visit of a span walk (the 1 000 `seq` groups walked over a
    /// one-id span, which holds one entry of one of them), one entry read
    /// inside the span (one `kind` group of 2 500 entries walked over
    /// every id), and the start of a walk (a one-entry point lookup).
    /// Each of 15 passes takes a fresh candidate set, key range or span
    /// and starts after 8 MiB of other memory has been touched, as
    /// another query's work would between two; the medians are printed.
    /// Run with `cargo test --release -p mcs --lib calibrate -- --ignored
    /// --nocapture` on an otherwise idle CPU.
    #[test]
    #[ignore = "builds a 50 000-file catalog; prints cost constants"]
    fn calibrate_probe_and_scan_costs() {
        use std::sync::Arc;
        use std::time::Instant;

        use crate::{FileSpec, IndexProfile, ManualClock};

        const FILES: i64 = 50_000;
        const PASSES: i64 = 15;
        let cred = Credential::new("/O=Grid/CN=admin");
        let clock = Arc::new(ManualClock::default());
        let m = Mcs::with_options(&cred, IndexProfile::ValueIndexed, clock).unwrap();
        // perfbench's ten attributes with its value cycles; the two
        // string ones keep their types, the rest are Int.
        let attrs = ["site", "kind", "seq", "coll", "a4", "a5", "a6", "a7", "a8", "a9"];
        let cycles = [50, 20, 1000, 0, 997, 101, 365, 30, 86_400, 3_600];
        for (k, name) in attrs.iter().enumerate() {
            let ty = if k < 2 { AttrType::Str } else { AttrType::Int };
            m.define_attribute(&cred, name, ty, "").unwrap();
        }
        for batch in (0..FILES).collect::<Vec<_>>().chunks(1000) {
            let specs: Vec<FileSpec> = batch
                .iter()
                .map(|&i| {
                    attrs.iter().zip(cycles).enumerate().fold(
                        FileSpec::named(format!("lfn.{i:09}.dat")),
                        |spec, (k, (name, cycle))| match k {
                            0 => spec.attr(*name, format!("site_{:02}", i % cycle)),
                            1 => spec.attr(*name, format!("type_{:02}", i % cycle)),
                            3 => spec.attr(*name, i / 1000),
                            _ => spec.attr(*name, i % cycle),
                        },
                    )
                })
                .collect();
            m.create_files(&cred, &specs).unwrap();
        }

        let handle = m.db.table("user_attributes").unwrap();
        let t = handle.read();
        let eq = |v: Value| vec![(AttrOp::Eq, v)];
        let point = |name: &str, v: Value, span: (i64, i64)| {
            let ty = if v.as_str().is_ok() { AttrType::Str } else { AttrType::Int };
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
        let mut per_unit = |work: &mut dyn FnMut(i64) -> usize| {
            let mut v: Vec<f64> = (0..PASSES)
                .map(|k| {
                    evict();
                    let start = Instant::now();
                    let units = work(k);
                    start.elapsed().as_secs_f64() * 1e6 / units.max(1) as f64
                })
                .collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let probe = |cands: &[i64]| {
            let checks = eq(Value::from("type_07"));
            let out = m.residual_filter(&t, cands, "kind", AttrType::Str, &checks).unwrap();
            std::hint::black_box(out);
            cands.len()
        };
        let dense = per_unit(&mut |k| probe(&point("coll", Value::Int(3 * k + 1), ALL_IDS)));
        let sparse = per_unit(&mut |k| {
            probe(&point("site", Value::from(format!("site_{:02}", 3 * k + 1)), ALL_IDS))
        });
        // Every `seq` group, each seen through the one id of another
        // collection's file.
        let all_seq =
            Access::Range { low: Bound::Unbounded, high: Bound::Unbounded, like: false };
        let group = per_unit(&mut |k| {
            let id = point("a8", Value::Int(2_017 * k + 500), ALL_IDS)[0];
            let out = m.eval_access(&t, "seq", AttrType::Int, &[], &all_seq, (id, id)).unwrap();
            std::hint::black_box(out);
            1000
        });
        // One `kind` group of 2 500 entries, over every id.
        let entry = per_unit(&mut |k| {
            point("kind", Value::from(format!("type_{:02}", k + 1)), ALL_IDS).len()
        });
        let start = per_unit(&mut |k| {
            for j in 0..100 {
                std::hint::black_box(point("a8", Value::Int(3_000 * k + j), ALL_IDS));
            }
            100
        });
        println!(
            "probe: dense {dense:.3} µs, sparse {sparse:.3} µs; group visit {group:.3} µs; \
             entry in span {entry:.3} µs; walk start {start:.3} µs \
             (PROBE_US {PROBE_US}, GROUP_US {GROUP_US}, SPAN_ENTRY_US {SPAN_ENTRY_US})"
        );
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
