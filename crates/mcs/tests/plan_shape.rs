//! Plan-shape regression tests: `explain_query` pins the plan the
//! cost-based planner builds for canonical conjunctions, so an accidental
//! cost-model change shows up as a readable string diff: folded ranges,
//! dives bounded to the seed's object-id span and the candidate counts at
//! which each step walks instead of probing, dives stopped at their bound,
//! one-candidate seeds that run no dive, perfbench's LIKE shape — plus edge
//! cases (empty catalog, all-duplicate and NULL-heavy
//! columns, staleness after bulk deletes) that the estimates must survive
//! without panicking or mis-planning.

use std::sync::Arc;

use mcs::{
    AttrOp, AttrPredicate, AttrType, Credential, FileSpec, IndexProfile, ManualClock, Mcs,
};
use relstore::Value;

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

fn catalog() -> Mcs {
    let a = admin();
    let m =
        Mcs::with_options(&a, IndexProfile::ValueIndexed, Arc::new(ManualClock::default()))
            .unwrap();
    m.define_attribute(&a, "run", AttrType::Int, "").unwrap();
    m.define_attribute(&a, "site", AttrType::Str, "").unwrap();
    m
}

/// `n` files; every file carries site = s<i % sites> and run = i.
fn load(m: &Mcs, n: usize, sites: usize) {
    let a = admin();
    for i in 0..n {
        m.create_file(
            &a,
            &FileSpec::named(format!("f{i:04}"))
                .attr("site", format!("s{}", i % sites))
                .attr("run", i as i64),
        )
        .unwrap();
    }
}

fn pred(name: &str, op: AttrOp, value: impl Into<Value>) -> AttrPredicate {
    AttrPredicate { name: name.into(), op, value: value.into() }
}

#[test]
fn selective_eq_seeds_unselective_eq_probes() {
    let m = catalog();
    load(&m, 60, 30); // site: 2 rows per value; run: unique
    let a = admin();
    let plan = m
        .explain_query(&a, &[pred("site", AttrOp::Eq, "s3"), pred("run", AttrOp::Eq, 3i64)])
        .unwrap();
    // run = 3 hits exactly one row, file 4 — it seeds. Probing one
    // candidate costs one cold probe, no more than starting a dive and a
    // walk, so no step dives: site = s3 probes.
    assert_eq!(
        plan,
        vec![
            "seed: run = via index ua_name_int eq (1 rows)".to_string(),
            "probe: site = via ua_object (no dive at 1 candidates)".to_string(),
        ]
    );
    // However many rows share the site: at 30 rows per site the
    // one-candidate seed still probes without a dive.
    let m = catalog();
    load(&m, 60, 2);
    let plan = m
        .explain_query(&a, &[pred("site", AttrOp::Eq, "s1"), pred("run", AttrOp::Eq, 3i64)])
        .unwrap();
    assert_eq!(plan[1], "probe: site = via ua_object (no dive at 1 candidates)");
    // Two candidates 598 ids apart (run = i % 598 hits files 1 and 599)
    // hold all 300 of site = s1's entries in their span: the dive stops
    // once walking them costs more than probing the two candidates.
    let m = catalog();
    let specs: Vec<FileSpec> = (0..600i64)
        .map(|i| {
            FileSpec::named(format!("f{i:04}"))
                .attr("site", format!("s{}", i % 2))
                .attr("run", i % 598)
        })
        .collect();
    m.create_files(&a, &specs).unwrap();
    let preds = [pred("site", AttrOp::Eq, "s1"), pred("run", AttrOp::Eq, 1i64)];
    assert_eq!(
        m.explain_query(&a, &preds).unwrap(),
        vec![
            "seed: run = via index ua_name_int eq (2 rows)".to_string(),
            "probe: site = via ua_object (dive stopped at 1 groups, ~300 rows)".to_string(),
        ]
    );
    let hits = m.query_by_attributes(&a, &preds).unwrap();
    assert_eq!(hits.len(), 2);
    assert_eq!(hits, m.with_planner_bypass(|b| b.query_by_attributes(&a, &preds)).unwrap());
}

#[test]
fn broad_range_intersects_when_cheaper_than_probes() {
    let m = catalog();
    load(&m, 40, 2); // site: 20 rows per value; run: unique
    let a = admin();
    let plan = m
        .explain_query(
            &a,
            &[pred("site", AttrOp::Eq, "s0"), pred("run", AttrOp::Lt, 5i64)],
        )
        .unwrap();
    // run < 5 keeps files 1–5 and seeds; site = s0's walk reads its 3
    // entries in that span, less than probing even one candidate.
    assert_eq!(
        plan,
        vec![
            "seed: run < via index ua_name_int range (5 rows)".to_string(),
            "walk or probe: site = via index ua_name_str eq over ids 1..=5 (1 groups, ~3 rows): \
             walks at >= 1 candidates, >= 1 once probed"
                .to_string(),
        ]
    );
    // Flip the selectivities: now the equality seeds, over files 1–39.
    // The range's count stops at 20 entries; its span walk visits all 40
    // `run` groups for 39 entries, cheaper than probing 6 or more of the
    // 20 candidates cold.
    let plan = m
        .explain_query(
            &a,
            &[pred("site", AttrOp::Eq, "s0"), pred("run", AttrOp::Lt, 1_000i64)],
        )
        .unwrap();
    assert_eq!(
        plan,
        vec![
            "seed: site = via index ua_name_str eq (20 rows)".to_string(),
            "walk or probe: run < via index ua_name_int range over ids 1..=39 (40 groups, \
             ~40 rows): walks at >= 6 candidates, >= 18 once probed"
                .to_string(),
        ]
    );
}

/// All bounds on one attribute fold into one range step, tightest on
/// each side; a LIKE prefix range folds with a range on the same string
/// attribute; crossed bounds leave an empty range, and an Int literal
/// bounds a Float attribute as a float.
#[test]
fn bounds_on_one_attribute_fold_into_one_range() {
    let m = catalog();
    let a = admin();
    m.define_attribute(&a, "quality", AttrType::Float, "").unwrap();
    for i in 0..40i64 {
        m.create_file(
            &a,
            &FileSpec::named(format!("f{i:04}"))
                .attr("site", format!("s{}", i % 4))
                .attr("run", i)
                .attr("quality", i as f64 / 4.0),
        )
        .unwrap();
    }
    let folded = [
        pred("run", AttrOp::Ge, 10i64),
        pred("site", AttrOp::Eq, "s0"),
        pred("run", AttrOp::Lt, 30i64),
        pred("run", AttrOp::Gt, 12i64),
        pred("run", AttrOp::Le, 16i64),
    ];
    // run in (12, 16] keeps files 14–17 and seeds under all four
    // bounds; site = s0 has one entry in that span, cheaper to walk to
    // than one probe.
    assert_eq!(
        m.explain_query(&a, &folded).unwrap(),
        vec![
            "seed: run >= AND run < AND run > AND run <= via index ua_name_int range (4 rows)"
                .to_string(),
            "walk or probe: site = via index ua_name_str eq over ids 14..=17 (1 groups, ~1 rows): \
             walks at >= 1 candidates, >= 1 once probed"
                .to_string(),
        ]
    );
    let names = |hits: Vec<(String, i64)>| hits.into_iter().map(|h| h.0).collect::<Vec<_>>();
    assert_eq!(names(m.query_by_attributes(&a, &folded).unwrap()), vec!["f0016".to_string()]);

    let like = [pred("site", AttrOp::Like, "s%"), pred("site", AttrOp::Ge, "s3")];
    assert_eq!(
        m.explain_query(&a, &like).unwrap(),
        vec!["seed: site LIKE AND site >= via index ua_name_str prefix-range (10 rows)"
            .to_string()]
    );
    assert_eq!(m.query_by_attributes(&a, &like).unwrap().len(), 10);

    let crossed = [pred("run", AttrOp::Ge, 20i64), pred("run", AttrOp::Lt, 5i64)];
    assert_eq!(
        m.explain_query(&a, &crossed).unwrap(),
        vec!["seed: run >= AND run < via index ua_name_int range (0 rows)".to_string()]
    );
    assert!(m.query_by_attributes(&a, &crossed).unwrap().is_empty());

    // quality = i / 4: quality >= 2 (Int) and quality < 2.5 keep i = 8, 9.
    let float = [pred("quality", AttrOp::Ge, 2i64), pred("quality", AttrOp::Lt, 2.5)];
    assert_eq!(
        m.explain_query(&a, &float).unwrap(),
        vec!["seed: quality >= AND quality < via index ua_name_float range (2 rows)".to_string()]
    );
    assert_eq!(
        names(m.query_by_attributes(&a, &float).unwrap()),
        vec!["f0008".to_string(), "f0009".to_string()]
    );
    for preds in [&folded[..], &like, &crossed, &float] {
        assert_eq!(
            m.query_by_attributes(&a, preds).unwrap(),
            m.with_planner_bypass(|b| b.query_by_attributes(&a, preds)).unwrap(),
            "{preds:?}"
        );
    }
}

/// 50 candidates against a 300-entry range over 15 `run` values:
/// counting entries against candidates one to one would probe; priced in
/// µs, walking 15 groups and 300 entries costs less than probing 5 cold
/// candidates, so with 50 the range walks.
#[test]
fn cheaper_walk_intersects_instead_of_probing() {
    let m = catalog();
    let a = admin();
    let specs: Vec<FileSpec> = (0..600i64)
        .map(|i| {
            FileSpec::named(format!("f{i:04}"))
                .attr("site", format!("s{}", i % 12))
                .attr("run", i / 20)
        })
        .collect();
    m.create_files(&a, &specs).unwrap();
    let preds = [pred("run", AttrOp::Lt, 15i64), pred("site", AttrOp::Eq, "s0")];
    assert_eq!(
        m.explain_query(&a, &preds).unwrap(),
        vec![
            "seed: site = via index ua_name_str eq (50 rows)".to_string(),
            "walk or probe: run < via index ua_name_int range over ids 1..=589 (15 groups, \
             ~300 rows): walks at >= 5 candidates, >= 17 once probed"
                .to_string(),
        ]
    );
    let hits = m.query_by_attributes(&a, &preds).unwrap();
    assert_eq!(hits.len(), 25);
    assert_eq!(hits, m.with_planner_bypass(|b| b.query_by_attributes(&a, &preds)).unwrap());
}

/// A LIKE whose prefix range holds more `site` entries than an `=` has
/// rows stops its count at the `=` count it ties with: a stopped count
/// ranks above its cap, so the equality seeds. The LIKE's span dive then
/// prices each group it visits: 111 groups cost less than probing 14 of
/// the 20 candidates, but the 400 of a one-letter prefix cost more than
/// probing all 20, so that dive stops there and the LIKE probes.
#[test]
fn capped_like_dive_never_seeds_on_a_tie() {
    let m = catalog();
    let a = admin();
    // site = edge<i> and run = i % 20: run = 7 has 20 rows, every site
    // value one.
    let specs: Vec<FileSpec> = (0..400i64)
        .map(|i| {
            FileSpec::named(format!("f{i:04}"))
                .attr("site", format!("edge{i}"))
                .attr("run", i % 20)
        })
        .collect();
    m.create_files(&a, &specs).unwrap();
    let preds = [pred("site", AttrOp::Like, "edge1%"), pred("run", AttrOp::Eq, 7i64)];
    // `edge1%`'s literal prefix is `edge1`: edge1, edge10–edge19 and
    // edge100–edge199, 111 rows — the dive stops at the 20th.
    assert_eq!(
        m.explain_query(&a, &preds).unwrap(),
        vec![
            "seed: run = via index ua_name_int eq (20 rows)".to_string(),
            "walk or probe: site LIKE via index ua_name_str prefix-range over ids 8..=388 \
             (111 groups, ~104 rows): walks at >= 14 candidates, >= 50 once probed"
                .to_string(),
        ]
    );
    let preds = [pred("site", AttrOp::Like, "e%"), pred("run", AttrOp::Eq, 7i64)];
    assert_eq!(
        m.explain_query(&a, &preds).unwrap(),
        vec![
            "seed: run = via index ua_name_int eq (20 rows)".to_string(),
            "probe: site LIKE via ua_object (dive stopped at 160 groups, ~140 rows)".to_string(),
        ]
    );
    let hits = m.query_by_attributes(&a, &preds).unwrap();
    assert_eq!(hits.len(), 20);
    assert_eq!(hits, m.with_planner_bypass(|b| b.query_by_attributes(&a, &preds)).unwrap());
}

/// perfbench's LIKE shape, `wl_site LIKE 'site_<d>%' AND wl_seq >= lo
/// AND wl_coll = c` with `lo` above 750, on its layout (collections of
/// 1 000 consecutive files; site = i % 50, seq = i % 1000). The LIKE's
/// literal prefix is only `site` (`_` is a wildcard), so `wl_coll = c`
/// seeds. Each later step dives over the collection's id span only:
/// `wl_seq >= 800` would read about its 200 entries there, not the 1 000
/// its range holds over the catalog (the 11 000–12 500 of a 50 000-file
/// catalog), and the LIKE checks each of the 50 site groups once and
/// reads entries only in the ten that match. Both walk at the candidate
/// counts they face (1 000, then the LIKE's 200 survivors).
#[test]
fn like_shape_walks_only_the_collections_span() {
    let a = admin();
    let m = Mcs::with_options(&a, IndexProfile::ValueIndexed, Arc::new(ManualClock::default()))
        .unwrap();
    for (name, ty) in
        [("wl_site", AttrType::Str), ("wl_seq", AttrType::Int), ("wl_coll", AttrType::Int)]
    {
        m.define_attribute(&a, name, ty, "").unwrap();
    }
    for batch in (0..5_000i64).collect::<Vec<_>>().chunks(1_000) {
        let specs: Vec<FileSpec> = batch
            .iter()
            .map(|&i| {
                FileSpec::named(format!("lfn.{i:09}.dat"))
                    .attr("wl_site", format!("site_{:02}", i % 50))
                    .attr("wl_seq", i % 1_000)
                    .attr("wl_coll", i / 1_000)
            })
            .collect();
        m.create_files(&a, &specs).unwrap();
    }
    let preds = [
        pred("wl_site", AttrOp::Like, "site_3%"),
        pred("wl_seq", AttrOp::Ge, 800i64),
        pred("wl_coll", AttrOp::Eq, 2i64),
    ];
    assert_eq!(
        m.explain_query(&a, &preds).unwrap(),
        vec![
            "seed: wl_coll = via index ua_name_int eq (1000 rows)".to_string(),
            "walk or probe: wl_site LIKE via index ua_name_str prefix-range over ids \
             2001..=3000 (50 groups, ~202 rows): walks at >= 8 candidates, >= 28 once probed"
                .to_string(),
            "walk or probe: wl_seq >= via index ua_name_int range over ids 2001..=3000 \
             (200 groups, ~250 rows): walks at >= 26 candidates, >= 92 once probed"
                .to_string(),
        ]
    );
    let hits = m.query_by_attributes(&a, &preds).unwrap();
    // Files 2800–2999 whose site is site_30–site_39.
    assert_eq!(hits.len(), 40);
    assert_eq!(hits, m.with_planner_bypass(|b| b.query_by_attributes(&a, &preds)).unwrap());
}

#[test]
fn ne_never_seeds_when_an_indexed_predicate_exists() {
    let m = catalog();
    load(&m, 50, 25);
    let a = admin();
    // Regression for the old behavior of scanning the full posting list
    // for the negated predicate: `!=` must ride as a probe off the
    // selective equality, not drive the evaluation.
    let plan = m
        .explain_query(&a, &[pred("run", AttrOp::Ne, 7i64), pred("site", AttrOp::Eq, "s3")])
        .unwrap();
    assert_eq!(
        plan,
        vec![
            "seed: site = via index ua_name_str eq (2 rows)".to_string(),
            "probe: run != via ua_object".to_string(),
        ]
    );
    // Alone, `!=` has no access path and falls back to its posting list.
    let plan = m.explain_query(&a, &[pred("run", AttrOp::Ne, 7i64)]).unwrap();
    assert_eq!(plan, vec!["seed: run != via posting scan ua_name (50 rows)".to_string()]);
}

#[test]
fn like_literal_prefix_ranges_the_composite_index() {
    let m = catalog();
    let a = admin();
    for i in 0..30 {
        m.create_file(
            &a,
            &FileSpec::named(format!("f{i:04}"))
                .attr("site", if i < 3 { format!("edge{i}") } else { format!("bulk{i}") }),
        )
        .unwrap();
    }
    // A literal prefix turns LIKE into a bounded range over
    // (name, value) — 3 rows, not the 30-row posting list.
    let plan = m.explain_query(&a, &[pred("site", AttrOp::Like, "edge%")]).unwrap();
    assert_eq!(
        plan,
        vec!["seed: site LIKE via index ua_name_str prefix-range (3 rows)".to_string()]
    );
    assert_eq!(
        m.query_by_attributes(&a, &[pred("site", AttrOp::Like, "edge%")]).unwrap().len(),
        3
    );
    // A leading wildcard has no usable prefix: posting scan.
    let plan = m.explain_query(&a, &[pred("site", AttrOp::Like, "%9")]).unwrap();
    assert_eq!(plan, vec!["seed: site LIKE via posting scan ua_name (30 rows)".to_string()]);
    // The pattern tail still filters inside the prefix range.
    assert_eq!(
        m.query_by_attributes(&a, &[pred("site", AttrOp::Like, "edge_")]).unwrap().len(),
        3
    );
    assert_eq!(
        m.query_by_attributes(&a, &[pred("site", AttrOp::Like, "edge1")]).unwrap().len(),
        1
    );
}

#[test]
fn paper2003_profile_keeps_posting_scans() {
    let a = admin();
    let m = Mcs::with_options(&a, IndexProfile::Paper2003, Arc::new(ManualClock::default()))
        .unwrap();
    m.define_attribute(&a, "site", AttrType::Str, "").unwrap();
    let plan = m.explain_query(&a, &[pred("site", AttrOp::Eq, "s1")]).unwrap();
    assert_eq!(plan, vec!["posting scan: site = via ua_name".to_string()]);
}

#[test]
fn empty_catalog_plans_cleanly() {
    let m = catalog();
    let a = admin();
    // No rows anywhere: estimates are 0, nothing panics, the query is
    // answered (empty) through the same plan.
    let plan = m
        .explain_query(&a, &[pred("site", AttrOp::Eq, "s1"), pred("run", AttrOp::Ge, 2i64)])
        .unwrap();
    assert_eq!(plan.len(), 2);
    assert!(plan[0].contains("(0 rows)"), "{plan:?}");
    assert!(m
        .query_by_attributes(&a, &[pred("site", AttrOp::Eq, "s1")])
        .unwrap()
        .is_empty());
}

#[test]
fn all_duplicate_column_estimates_stay_exact() {
    let m = catalog();
    let a = admin();
    for i in 0..80 {
        m.create_file(
            &a,
            &FileSpec::named(format!("f{i:04}")).attr("site", "same").attr("run", i as i64),
        )
        .unwrap();
    }
    // Every site value identical: the eq dive reports the full 80 and
    // the planner correctly prefers the unique run attribute.
    let plan = m
        .explain_query(&a, &[pred("site", AttrOp::Eq, "same"), pred("run", AttrOp::Eq, 5i64)])
        .unwrap();
    assert_eq!(plan[0], "seed: run = via index ua_name_int eq (1 rows)");
    let hits = m
        .query_by_attributes(&a, &[pred("site", AttrOp::Eq, "same"), pred("run", AttrOp::Eq, 5i64)])
        .unwrap();
    assert_eq!(hits, vec![("f0005".to_string(), 1)]);
}

#[test]
fn null_heavy_value_columns_do_not_skew_ranges() {
    let m = catalog();
    let a = admin();
    // 90 string-attribute rows leave int_value NULL; 10 int rows carry
    // values. A range over `run` must see only the 10 real rows — in the
    // answer *and* in the estimate (NULLs sort below every value but
    // never satisfy a range).
    for i in 0..90 {
        m.create_file(&a, &FileSpec::named(format!("s{i:04}")).attr("site", format!("v{i}")))
            .unwrap();
    }
    for i in 0..10 {
        m.create_file(&a, &FileSpec::named(format!("i{i:04}")).attr("run", i as i64)).unwrap();
    }
    let plan = m.explain_query(&a, &[pred("run", AttrOp::Ge, 0i64)]).unwrap();
    assert_eq!(plan, vec!["seed: run >= via index ua_name_int range (10 rows)".to_string()]);
    assert_eq!(m.query_by_attributes(&a, &[pred("run", AttrOp::Ge, 0i64)]).unwrap().len(), 10);
}

#[test]
fn stats_stay_honest_after_bulk_delete() {
    let m = catalog();
    let a = admin();
    load(&m, 300, 3);
    for i in 0..280 {
        m.delete_file(&a, &format!("f{i:04}")).unwrap();
    }
    // Plans come from live index dives: after a bulk delete the estimate
    // reflects the 20 surviving files, and answers are exact.
    let plan = m.explain_query(&a, &[pred("site", AttrOp::Eq, "s0")]).unwrap();
    assert_eq!(plan, vec!["seed: site = via index ua_name_str eq (6 rows)".to_string()]);
    assert_eq!(m.query_by_attributes(&a, &[pred("site", AttrOp::Eq, "s0")]).unwrap().len(), 6);
}
