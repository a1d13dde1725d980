//! Behavioural tests for the Metadata Catalog Service: the full paper API
//! surface — files, collections, views, attributes, queries, policies.

use std::sync::Arc;

use mcs::*;
use relstore::{Date, DateTime, Value};

fn admin() -> Credential {
    Credential::new("/O=Grid/OU=ISI/CN=admin")
}

fn setup() -> (Mcs, Credential) {
    let a = admin();
    let clock = Arc::new(ManualClock::default());
    let m = Mcs::with_options(&a, IndexProfile::Paper2003, clock).unwrap();
    (m, a)
}

/// Catalog with the LIGO-ish attribute ontology defined.
fn setup_with_attrs() -> (Mcs, Credential) {
    let (m, a) = setup();
    m.define_attribute(&a, "channel", AttrType::Str, "detector channel").unwrap();
    m.define_attribute(&a, "frequency", AttrType::Float, "center frequency Hz").unwrap();
    m.define_attribute(&a, "gps_start", AttrType::Int, "GPS start second").unwrap();
    m.define_attribute(&a, "run_date", AttrType::Date, "observation date").unwrap();
    (m, a)
}

// ---------------- logical files ----------------

#[test]
fn create_and_get_file_roundtrips_static_metadata() {
    let (m, a) = setup();
    let spec = FileSpec {
        name: "f1.gwf".into(),
        data_type: Some("binary".into()),
        master_copy: Some("gsiftp://ldas.ligo.caltech.edu/f1.gwf".into()),
        container_id: Some("tar-0007".into()),
        container_service: Some("http://containers.isi.edu".into()),
        ..Default::default()
    };
    let f = m.create_file(&a, &spec).unwrap();
    assert_eq!(f.version, 1);
    assert!(f.valid);
    assert_eq!(f.creator, a.dn);
    let got = m.get_file(&a, "f1.gwf").unwrap();
    assert_eq!(got, f);
    assert_eq!(got.data_type.as_deref(), Some("binary"));
    assert_eq!(got.master_copy.as_deref(), Some("gsiftp://ldas.ligo.caltech.edu/f1.gwf"));
    assert_eq!(got.container_id.as_deref(), Some("tar-0007"));
}

#[test]
fn duplicate_name_version_rejected() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    assert!(matches!(
        m.create_file(&a, &FileSpec::named("f")),
        Err(McsError::AlreadyExists(_))
    ));
    // same name, different version is fine
    m.create_file(&a, &FileSpec { version: Some(2), ..FileSpec::named("f") }).unwrap();
}

#[test]
fn versions_must_be_disambiguated() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    m.create_file(&a, &FileSpec { version: Some(2), ..FileSpec::named("f") }).unwrap();
    assert!(matches!(m.get_file(&a, "f"), Err(McsError::VersionConflict(_))));
    assert_eq!(m.get_file_version(&a, "f", 2).unwrap().version, 2);
    let versions = m.get_file_versions(&a, "f").unwrap();
    assert_eq!(versions.len(), 2);
    assert!(versions[0].version < versions[1].version);
}

/// A caller denied every version hears about the lowest one, whatever
/// order the rows come back in.
#[test]
fn file_versions_denial_names_the_lowest_version() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec { version: Some(2), ..FileSpec::named("f") }).unwrap();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    let err = m.get_file_versions(&Credential::new("/CN=nobody"), "f").unwrap_err();
    assert!(err.to_string().contains("version 1"), "{err}");
}

#[test]
fn invalid_names_rejected() {
    let (m, a) = setup();
    assert!(matches!(m.create_file(&a, &FileSpec::named("")), Err(McsError::InvalidName(_))));
    assert!(m.create_file(&a, &FileSpec::named("a\tb")).is_err());
}

#[test]
fn update_file_fields_and_invalidate() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    let f = m
        .update_file(
            &a,
            "f",
            &FileUpdate { data_type: Some("XML".into()), ..Default::default() },
        )
        .unwrap();
    assert_eq!(f.data_type.as_deref(), Some("XML"));
    assert_eq!(f.last_modifier.as_deref(), Some(a.dn.as_str()));
    assert!(f.last_modified.is_some());
    m.invalidate_file(&a, "f").unwrap();
    assert!(!m.get_file(&a, "f").unwrap().valid);
}

#[test]
fn delete_file_removes_everything() {
    let (m, a) = setup_with_attrs();
    m.create_file(&a, &FileSpec::named("f").attr("channel", "H1")).unwrap();
    m.annotate(&a, &ObjectRef::File("f".into()), "nice data").unwrap();
    m.add_history(&a, "f", "calibrated v3").unwrap();
    m.delete_file(&a, "f").unwrap();
    assert!(matches!(m.get_file(&a, "f"), Err(McsError::NotFound(_))));
    // attribute rows must be gone: a fresh file with the same attrs works
    // and queries see nothing stale
    let hits = m.query_by_attributes(&a, &[AttrPredicate::eq("channel", "H1")]).unwrap();
    assert!(hits.is_empty());
}

#[test]
fn missing_file_not_found() {
    let (m, a) = setup();
    assert!(matches!(m.get_file(&a, "ghost"), Err(McsError::NotFound(_))));
    assert!(matches!(m.delete_file(&a, "ghost"), Err(McsError::NotFound(_))));
}

// ---------------- collections ----------------

#[test]
fn collection_tree_and_listing() {
    let (m, a) = setup();
    m.create_collection(&a, "ligo", None, "top").unwrap();
    m.create_collection(&a, "ligo/s1", Some("ligo"), "science run 1").unwrap();
    m.create_file(&a, &FileSpec::named("f1").in_collection("ligo/s1")).unwrap();
    m.create_file(&a, &FileSpec::named("f2").in_collection("ligo/s1")).unwrap();
    let c = m.list_collection(&a, "ligo/s1").unwrap();
    assert_eq!(c.files, vec![("f1".to_string(), 1), ("f2".to_string(), 1)]);
    let top = m.list_collection(&a, "ligo").unwrap();
    assert_eq!(top.subcollections, vec!["ligo/s1"]);
    assert!(top.files.is_empty());
}

#[test]
fn file_belongs_to_at_most_one_collection() {
    let (m, a) = setup();
    m.create_collection(&a, "c1", None, "").unwrap();
    m.create_collection(&a, "c2", None, "").unwrap();
    m.create_file(&a, &FileSpec::named("f").in_collection("c1")).unwrap();
    let err = m.assign_collection(&a, "f", Some("c2"));
    assert!(matches!(err, Err(McsError::AlreadyInCollection { .. })));
    // removing from c1 then adding to c2 works
    m.assign_collection(&a, "f", None).unwrap();
    m.assign_collection(&a, "f", Some("c2")).unwrap();
    assert_eq!(m.list_collection(&a, "c2").unwrap().files.len(), 1);
}

#[test]
fn nonempty_collection_cannot_be_deleted() {
    let (m, a) = setup();
    m.create_collection(&a, "c", None, "").unwrap();
    m.create_file(&a, &FileSpec::named("f").in_collection("c")).unwrap();
    assert!(matches!(
        m.delete_collection(&a, "c"),
        Err(McsError::CollectionNotEmpty(_))
    ));
    m.delete_file(&a, "f").unwrap();
    m.delete_collection(&a, "c").unwrap();
    // parent with child collection also protected
    m.create_collection(&a, "p", None, "").unwrap();
    m.create_collection(&a, "p/k", Some("p"), "").unwrap();
    assert!(m.delete_collection(&a, "p").is_err());
}

#[test]
fn duplicate_collection_rejected() {
    let (m, a) = setup();
    m.create_collection(&a, "c", None, "").unwrap();
    assert!(matches!(
        m.create_collection(&a, "c", None, ""),
        Err(McsError::AlreadyExists(_))
    ));
}

// ---------------- views ----------------

#[test]
fn views_aggregate_and_list() {
    let (m, a) = setup();
    m.create_collection(&a, "c", None, "").unwrap();
    m.create_file(&a, &FileSpec::named("f1")).unwrap();
    m.create_file(&a, &FileSpec::named("f2").in_collection("c")).unwrap();
    m.create_view(&a, "pulsars", "interesting pulsar candidates").unwrap();
    m.add_to_view(&a, "pulsars", &ObjectRef::File("f1".into())).unwrap();
    m.add_to_view(&a, "pulsars", &ObjectRef::File("f2".into())).unwrap();
    m.add_to_view(&a, "pulsars", &ObjectRef::Collection("c".into())).unwrap();
    let v = m.list_view(&a, "pulsars").unwrap();
    assert_eq!(v.files, vec![("f1".to_string(), 1), ("f2".to_string(), 1)]);
    assert_eq!(v.collections, vec!["c"]);
    // files/collections may belong to many views
    m.create_view(&a, "other", "").unwrap();
    m.add_to_view(&a, "other", &ObjectRef::File("f1".into())).unwrap();
}

#[test]
fn view_membership_duplicates_and_removal() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    m.create_view(&a, "v", "").unwrap();
    let fref = ObjectRef::File("f".into());
    m.add_to_view(&a, "v", &fref).unwrap();
    assert!(matches!(m.add_to_view(&a, "v", &fref), Err(McsError::AlreadyExists(_))));
    assert!(m.remove_from_view(&a, "v", &fref).unwrap());
    assert!(!m.remove_from_view(&a, "v", &fref).unwrap());
}

#[test]
fn view_cycles_rejected() {
    let (m, a) = setup();
    m.create_view(&a, "v1", "").unwrap();
    m.create_view(&a, "v2", "").unwrap();
    m.create_view(&a, "v3", "").unwrap();
    m.add_to_view(&a, "v1", &ObjectRef::View("v2".into())).unwrap();
    m.add_to_view(&a, "v2", &ObjectRef::View("v3".into())).unwrap();
    // v3 -> v1 closes the loop
    assert!(matches!(
        m.add_to_view(&a, "v3", &ObjectRef::View("v1".into())),
        Err(McsError::CycleDetected(_))
    ));
    // self-membership
    assert!(matches!(
        m.add_to_view(&a, "v1", &ObjectRef::View("v1".into())),
        Err(McsError::CycleDetected(_))
    ));
}

#[test]
fn deleting_view_does_not_delete_members() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    m.create_view(&a, "v", "").unwrap();
    m.add_to_view(&a, "v", &ObjectRef::File("f".into())).unwrap();
    m.delete_view(&a, "v").unwrap();
    assert!(m.get_file(&a, "f").is_ok());
    assert!(matches!(m.list_view(&a, "v"), Err(McsError::NotFound(_))));
}

// ---------------- user-defined attributes ----------------

#[test]
fn attribute_definitions_enforced() {
    let (m, a) = setup_with_attrs();
    // undefined attribute
    let err = m.create_file(&a, &FileSpec::named("f").attr("nope", 1i64));
    assert!(matches!(err, Err(McsError::BadAttribute(_))));
    // wrong type
    let err = m.create_file(&a, &FileSpec::named("f").attr("channel", 42i64));
    assert!(matches!(err, Err(McsError::BadAttribute(_))));
    // failed create must not leave the file behind
    assert!(matches!(m.get_file(&a, "f"), Err(McsError::NotFound(_))));
    // redefinition with a different type
    assert!(m.define_attribute(&a, "channel", AttrType::Int, "").is_err());
    // idempotent same-type redefinition
    m.define_attribute(&a, "channel", AttrType::Str, "").unwrap();
    assert_eq!(m.attribute_definitions().unwrap().len(), 4);
}

#[test]
fn attributes_roundtrip_all_types() {
    let (m, a) = setup();
    m.define_attribute(&a, "s", AttrType::Str, "").unwrap();
    m.define_attribute(&a, "i", AttrType::Int, "").unwrap();
    m.define_attribute(&a, "x", AttrType::Float, "").unwrap();
    m.define_attribute(&a, "d", AttrType::Date, "").unwrap();
    m.define_attribute(&a, "t", AttrType::Time, "").unwrap();
    m.define_attribute(&a, "dt", AttrType::DateTime, "").unwrap();
    let spec = FileSpec::named("f")
        .attr("s", "hello")
        .attr("i", 42i64)
        .attr("x", 2.5f64)
        .attr("d", Value::Date(Date::new(2003, 11, 15).unwrap()))
        .attr("t", Value::parse_as("08:30:00", relstore::ValueType::Time).unwrap())
        .attr("dt", Value::parse_as("2003-11-15 08:30:00", relstore::ValueType::DateTime).unwrap());
    m.create_file(&a, &spec).unwrap();
    let attrs = m.get_attributes(&a, &ObjectRef::File("f".into())).unwrap();
    assert_eq!(attrs.len(), 6);
    let by_name = |n: &str| attrs.iter().find(|x| x.name == n).unwrap().value.clone();
    assert_eq!(by_name("s"), Value::from("hello"));
    assert_eq!(by_name("i"), Value::Int(42));
    assert_eq!(by_name("x"), Value::Float(2.5));
    assert!(matches!(by_name("d"), Value::Date(_)));
    assert!(matches!(by_name("t"), Value::Time(_)));
    assert!(matches!(by_name("dt"), Value::DateTime(_)));
}

#[test]
fn set_remove_attribute_upserts() {
    let (m, a) = setup_with_attrs();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    let fref = ObjectRef::File("f".into());
    m.set_attribute(&a, &fref, &Attribute { name: "channel".into(), value: "H1".into() })
        .unwrap();
    m.set_attribute(&a, &fref, &Attribute { name: "channel".into(), value: "L1".into() })
        .unwrap();
    assert_eq!(
        m.get_attribute(&a, &fref, "channel").unwrap().unwrap().value,
        Value::from("L1")
    );
    assert!(m.remove_attribute(&a, &fref, "channel").unwrap());
    assert!(!m.remove_attribute(&a, &fref, "channel").unwrap());
    assert!(m.get_attribute(&a, &fref, "channel").unwrap().is_none());
}

#[test]
fn int_widens_to_float_attribute() {
    let (m, a) = setup_with_attrs();
    m.create_file(&a, &FileSpec::named("f").attr("frequency", 100i64)).unwrap();
    let got = m.get_attribute(&a, &ObjectRef::File("f".into()), "frequency").unwrap().unwrap();
    assert_eq!(got.value, Value::Float(100.0));
}

#[test]
fn duplicate_attribute_in_spec_rejected_atomically() {
    let (m, a) = setup_with_attrs();
    let err =
        m.create_file(&a, &FileSpec::named("f").attr("channel", "H1").attr("channel", "L1"));
    assert!(matches!(err, Err(McsError::BadAttribute(_))));
    assert!(matches!(m.get_file(&a, "f"), Err(McsError::NotFound(_))));
}

#[test]
fn attributes_on_collections_and_views() {
    let (m, a) = setup_with_attrs();
    m.create_collection(&a, "c", None, "").unwrap();
    m.create_view(&a, "v", "").unwrap();
    let cref = ObjectRef::Collection("c".into());
    let vref = ObjectRef::View("v".into());
    m.set_attribute(&a, &cref, &Attribute { name: "channel".into(), value: "H1".into() })
        .unwrap();
    m.set_attribute(&a, &vref, &Attribute { name: "channel".into(), value: "L1".into() })
        .unwrap();
    assert_eq!(m.get_attributes(&a, &cref).unwrap().len(), 1);
    assert_eq!(m.get_attributes(&a, &vref).unwrap().len(), 1);
    // collection/view attributes never alias file queries
    let hits = m.query_by_attributes(&a, &[AttrPredicate::eq("channel", "H1")]).unwrap();
    assert!(hits.is_empty());
}

// ---------------- attribute-based queries ----------------

#[test]
fn complex_query_conjunction() {
    let (m, a) = setup_with_attrs();
    for (name, ch, f) in [("a", "H1", 10.0), ("b", "H1", 20.0), ("c", "L1", 10.0)] {
        m.create_file(&a, &FileSpec::named(name).attr("channel", ch).attr("frequency", f))
            .unwrap();
    }
    let hits = m
        .query_by_attributes(
            &a,
            &[AttrPredicate::eq("channel", "H1"), AttrPredicate::eq("frequency", 10.0f64)],
        )
        .unwrap();
    assert_eq!(hits, vec![("a".to_string(), 1)]);
}

#[test]
fn range_and_like_queries() {
    let (m, a) = setup_with_attrs();
    for (name, gps) in [("r1", 100i64), ("r2", 200), ("r3", 300)] {
        m.create_file(
            &a,
            &FileSpec::named(name).attr("gps_start", gps).attr("channel", format!("ch_{name}")),
        )
        .unwrap();
    }
    let ge = m
        .query_by_attributes(
            &a,
            &[AttrPredicate { name: "gps_start".into(), op: AttrOp::Ge, value: 200i64.into() }],
        )
        .unwrap();
    assert_eq!(ge.len(), 2);
    let lt = m
        .query_by_attributes(
            &a,
            &[AttrPredicate { name: "gps_start".into(), op: AttrOp::Lt, value: 200i64.into() }],
        )
        .unwrap();
    assert_eq!(lt, vec![("r1".to_string(), 1)]);
    let like = m
        .query_by_attributes(
            &a,
            &[AttrPredicate { name: "channel".into(), op: AttrOp::Like, value: "ch_r%".into() }],
        )
        .unwrap();
    assert_eq!(like.len(), 3);
    let ne = m
        .query_by_attributes(
            &a,
            &[AttrPredicate { name: "gps_start".into(), op: AttrOp::Ne, value: 200i64.into() }],
        )
        .unwrap();
    assert_eq!(ne.len(), 2);
}

#[test]
fn invalidated_files_are_not_discoverable() {
    let (m, a) = setup_with_attrs();
    m.create_file(&a, &FileSpec::named("f").attr("channel", "H1")).unwrap();
    m.invalidate_file(&a, "f").unwrap();
    let hits = m.query_by_attributes(&a, &[AttrPredicate::eq("channel", "H1")]).unwrap();
    assert!(hits.is_empty());
}

#[test]
fn query_type_errors() {
    let (m, a) = setup_with_attrs();
    assert!(m.query_by_attributes(&a, &[]).is_err());
    assert!(m
        .query_by_attributes(&a, &[AttrPredicate::eq("undefined_attr", 1i64)])
        .is_err());
    assert!(m.query_by_attributes(&a, &[AttrPredicate::eq("channel", 1i64)]).is_err());
    // LIKE on a non-string attribute
    assert!(m
        .query_by_attributes(
            &a,
            &[AttrPredicate { name: "gps_start".into(), op: AttrOp::Like, value: "1%".into() }]
        )
        .is_err());
}

#[test]
fn value_indexed_profile_agrees_with_paper_profile() {
    let a = admin();
    let clock = Arc::new(ManualClock::default());
    let m1 = Mcs::with_options(&a, IndexProfile::Paper2003, clock.clone()).unwrap();
    let m2 = Mcs::with_options(&a, IndexProfile::ValueIndexed, clock).unwrap();
    for m in [&m1, &m2] {
        m.define_attribute(&a, "x", AttrType::Int, "").unwrap();
        m.define_attribute(&a, "s", AttrType::Str, "").unwrap();
        for i in 0..50i64 {
            m.create_file(
                &a,
                &FileSpec::named(format!("f{i}")).attr("x", i % 7).attr("s", format!("v{}", i % 3)),
            )
            .unwrap();
        }
    }
    for preds in [
        vec![AttrPredicate::eq("x", 3i64)],
        vec![AttrPredicate::eq("x", 3i64), AttrPredicate::eq("s", "v1")],
        vec![AttrPredicate { name: "x".into(), op: AttrOp::Ge, value: 5i64.into() }],
        vec![AttrPredicate { name: "x".into(), op: AttrOp::Ne, value: 5i64.into() }],
        vec![AttrPredicate { name: "x".into(), op: AttrOp::Lt, value: 2i64.into() }],
    ] {
        let h1 = m1.query_by_attributes(&a, &preds).unwrap();
        let h2 = m2.query_by_attributes(&a, &preds).unwrap();
        assert_eq!(h1, h2, "profiles disagree on {preds:?}");
    }
}

// ---------------- resolving query hits ----------------

/// Value-indexed catalogs on both engines, barrier and in-memory MVCC.
/// Each holds 40 files: file `i` is `f<(39 - i) / 2>` in version
/// `2 - i % 2`, so neither names nor versions follow creation (id)
/// order, and carries `x = i % 4` and `s = v<i % 3>`.
fn resolve_pass_catalogs() -> Vec<(&'static str, Mcs)> {
    let a = admin();
    [("barrier", relstore::Database::new()), ("mvcc", relstore::Database::new_mvcc())]
        .into_iter()
        .map(|(engine, db)| {
            let clock = Arc::new(ManualClock::default());
            let m =
                Mcs::with_database(Arc::new(db), &a, IndexProfile::ValueIndexed, clock).unwrap();
            m.define_attribute(&a, "x", AttrType::Int, "").unwrap();
            m.define_attribute(&a, "s", AttrType::Str, "").unwrap();
            for i in 0..40i64 {
                let spec = FileSpec::named(format!("f{:02}", (39 - i) / 2))
                    .attr("x", i % 4)
                    .attr("s", format!("v{}", i % 3));
                m.create_file(&a, &FileSpec { version: Some(2 - i % 2), ..spec }).unwrap();
            }
            (engine, m)
        })
        .collect()
}

fn pred(name: &str, op: AttrOp, value: impl Into<Value>) -> AttrPredicate {
    AttrPredicate { name: name.into(), op, value: value.into() }
}

/// Planned, bypassed (the posting-scan oracle) and general-query answers
/// to one conjunction; they must agree before any is returned.
fn answer(engine: &str, m: &Mcs, preds: &[AttrPredicate]) -> Vec<(String, i64)> {
    let a = admin();
    let planned = m.query_by_attributes(&a, preds).unwrap();
    let oracle = m.with_planner_bypass(|m| m.query_by_attributes(&a, preds)).unwrap();
    assert_eq!(planned, oracle, "{engine}: planner and oracle disagree on {preds:?}");
    let expr = QueryExpr::And(preds.iter().cloned().map(QueryExpr::Attr).collect());
    assert_eq!(m.general_query(&a, &expr).unwrap(), planned, "{engine}: general query");
    planned
}

#[test]
fn resolve_pass_skips_invalidated_files() {
    let a = admin();
    for (engine, m) in resolve_pass_catalogs() {
        for name in ["solo_a", "solo_b"] {
            m.create_file(&a, &FileSpec::named(name).attr("x", 9i64).attr("s", "w")).unwrap();
        }
        let preds = [pred("x", AttrOp::Eq, 9i64), pred("s", AttrOp::Like, "w%")];
        assert_eq!(answer(engine, &m, &preds).len(), 2, "{engine}");
        m.invalidate_file(&a, "solo_a").unwrap();
        assert_eq!(answer(engine, &m, &preds), vec![("solo_b".to_string(), 1)], "{engine}");
    }
}

/// An attribute row whose file row is gone (the race the resolve pass
/// guards against: a delete landing between the candidate phase and the
/// resolve) yields no hit. Deleting the file row alone leaves its
/// attribute rows indexed.
#[test]
fn resolve_pass_skips_files_deleted_under_their_attributes() {
    let a = admin();
    for (engine, m) in resolve_pass_catalogs() {
        for name in ["orphan", "kept"] {
            m.create_file(&a, &FileSpec::named(name).attr("x", 9i64).attr("s", "w")).unwrap();
        }
        m.database()
            .execute("DELETE FROM logical_files WHERE name = ?", &[Value::from("orphan")])
            .unwrap();
        let preds = [pred("x", AttrOp::Eq, 9i64), pred("s", AttrOp::Eq, "w")];
        assert_eq!(answer(engine, &m, &preds), vec![("kept".to_string(), 1)], "{engine}");
        let only_orphans = [pred("x", AttrOp::Eq, 9i64), pred("s", AttrOp::Ne, "w")];
        assert!(answer(engine, &m, &only_orphans).is_empty(), "{engine}");
    }
}

#[test]
fn resolve_pass_sorts_hits_by_name_then_version() {
    let mut every: Vec<(String, i64)> =
        (0..20).flat_map(|n| [1, 2].map(|v| (format!("f{n:02}"), v))).collect();
    every.sort();
    for (engine, m) in resolve_pass_catalogs() {
        let all = answer(engine, &m, &[pred("x", AttrOp::Ge, 0i64)]);
        assert_eq!(all, every, "{engine}");
        let some = answer(engine, &m, &[pred("s", AttrOp::Ne, "v1"), pred("x", AttrOp::Lt, 2i64)]);
        assert!(some.len() > 1 && some.windows(2).all(|w| w[0] < w[1]), "{engine}: {some:?}");
    }
}

#[test]
fn resolve_pass_multi_hit_queries_match_the_oracle() {
    for (engine, m) in resolve_pass_catalogs() {
        for preds in [
            vec![pred("x", AttrOp::Eq, 1i64)],
            vec![pred("x", AttrOp::Eq, 1i64), pred("s", AttrOp::Eq, "v2")],
            vec![pred("x", AttrOp::Ge, 2i64), pred("s", AttrOp::Like, "v%")],
            vec![pred("s", AttrOp::Ne, "v0"), pred("x", AttrOp::Le, 2i64)],
            vec![
                pred("x", AttrOp::Gt, 0i64),
                pred("s", AttrOp::Lt, "v2"),
                pred("x", AttrOp::Ne, 3i64),
            ],
        ] {
            let hits = answer(engine, &m, &preds);
            assert!(hits.len() > 1, "{engine}: {preds:?} should match several files: {hits:?}");
        }
    }
}

/// An attribute row is non-NULL in exactly one typed value column, and an
/// index stores no key with a NULL component, so each `ua_name_<type>`
/// holds exactly the rows of the attributes declared that type, through
/// creates, `setAttribute` upserts, deletes and vacuum; the SQL lookup by
/// name alone still returns every row with that name.
#[test]
fn typed_value_indexes_hold_only_their_types_rows() {
    let a = admin();
    let typed = [
        (AttrType::Str, "ua_name_str"),
        (AttrType::Int, "ua_name_int"),
        (AttrType::Float, "ua_name_float"),
        (AttrType::Date, "ua_name_date"),
        (AttrType::Time, "ua_name_time"),
        (AttrType::DateTime, "ua_name_datetime"),
    ];
    for (engine, m) in resolve_pass_catalogs() {
        m.define_attribute(&a, "w", AttrType::Float, "").unwrap();
        m.define_attribute(&a, "d", AttrType::Date, "").unwrap();
        for n in 0..10 {
            let file = ObjectRef::FileVersion(format!("f{n:02}"), 1);
            for (name, value) in [
                ("w", Value::Float(n as f64)),
                ("x", Value::Int(100 + n)),
                ("d", Value::Date(Date::new(2003, 11, 1 + n as u8).unwrap())),
            ] {
                m.set_attribute(&a, &file, &Attribute { name: name.into(), value }).unwrap();
            }
        }
        for n in 5..15 {
            m.delete_file_version(&a, &format!("f{n:02}"), 2).unwrap();
        }
        let db = m.database();
        db.vacuum();
        let handle = db.table("user_attributes").unwrap();
        let t = handle.read();
        t.check_integrity().unwrap_or_else(|e| panic!("{engine}: {e}"));
        for (ty, ix) in typed {
            let want: Vec<relstore::RowId> = t
                .scan()
                .filter(|(_, row)| row[4] == Value::Int(ty.code()))
                .map(|(id, _)| id)
                .collect();
            let mut got: Vec<relstore::RowId> =
                t.index(ix).unwrap().entries().map(|(_, id)| id).collect();
            got.sort();
            assert_eq!(got, want, "{engine}: {ix}");
        }
        for name in ["x", "s", "w", "d"] {
            let want: Vec<Value> = t
                .scan()
                .filter(|(_, row)| row[3] == Value::from(name))
                .map(|(_, row)| row[0].clone())
                .collect();
            assert!(!want.is_empty(), "{engine}: no `{name}` rows");
            let got = db
                .query("SELECT id FROM user_attributes WHERE name = ? ORDER BY id", &[name.into()])
                .unwrap();
            let got: Vec<Value> = got.rows.into_iter().map(|mut row| row.remove(0)).collect();
            assert_eq!(got, want, "{engine}: name = {name}");
        }
    }
}

// ---------------- authorization ----------------

#[test]
fn unknown_user_is_denied() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    let stranger = Credential::new("/CN=stranger");
    assert!(matches!(
        m.get_file(&stranger, "f"),
        Err(McsError::PermissionDenied { .. })
    ));
    assert!(matches!(
        m.create_file(&stranger, &FileSpec::named("g")),
        Err(McsError::PermissionDenied { .. })
    ));
}

#[test]
fn collection_permission_unions_up_the_hierarchy() {
    let (m, a) = setup();
    m.create_collection(&a, "top", None, "").unwrap();
    m.create_collection(&a, "top/mid", Some("top"), "").unwrap();
    m.create_file(&a, &FileSpec::named("f").in_collection("top/mid")).unwrap();
    let user = Credential::new("/CN=reader");
    // grant Read on the *top* collection only
    m.grant(&a, &ObjectRef::Collection("top".into()), &user.dn, Permission::Read).unwrap();
    // effective permission reaches the file through two levels
    assert!(m.get_file(&user, "f").is_ok());
    // but write is still denied
    assert!(matches!(
        m.update_file(&user, "f", &FileUpdate::default()),
        Err(McsError::PermissionDenied { .. })
    ));
}

#[test]
fn group_principals_grant_access() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    m.grant(&a, &ObjectRef::File("f".into()), "ligo-scientists", Permission::Read).unwrap();
    let member = Credential::with_groups("/CN=alice", ["ligo-scientists"]);
    assert!(m.get_file(&member, "f").is_ok());
    let nonmember = Credential::new("/CN=bob");
    assert!(m.get_file(&nonmember, "f").is_err());
}

#[test]
fn anyone_wildcard_and_revoke() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    m.grant(&a, &ObjectRef::File("f".into()), ANYONE, Permission::Read).unwrap();
    let user = Credential::new("/CN=u");
    assert!(m.get_file(&user, "f").is_ok());
    m.revoke(&a, &ObjectRef::File("f".into()), ANYONE, Permission::Read).unwrap();
    assert!(m.get_file(&user, "f").is_err());
}

#[test]
fn only_admin_may_grant() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    let user = Credential::new("/CN=u");
    assert!(matches!(
        m.grant(&user, &ObjectRef::File("f".into()), &user.dn, Permission::Read),
        Err(McsError::PermissionDenied { .. })
    ));
    // delegated object admin can grant on that object
    m.grant(&a, &ObjectRef::File("f".into()), &user.dn, Permission::Admin).unwrap();
    m.grant(&user, &ObjectRef::File("f".into()), "/CN=other", Permission::Read).unwrap();
    let acl = m.acl(&user, &ObjectRef::File("f".into())).unwrap();
    assert!(acl.iter().any(|(p, perm)| p == "/CN=other" && *perm == Permission::Read));
}

#[test]
fn allow_anyone_opens_service() {
    let (m, a) = setup_with_attrs();
    m.allow_anyone(&a).unwrap();
    let user = Credential::new("/CN=u");
    m.create_file(&user, &FileSpec::named("f").attr("channel", "H1")).unwrap();
    assert_eq!(
        m.query_by_attributes(&user, &[AttrPredicate::eq("channel", "H1")]).unwrap().len(),
        1
    );
}

#[test]
fn views_do_not_confer_permissions_on_members() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    m.create_view(&a, "v", "").unwrap();
    m.add_to_view(&a, "v", &ObjectRef::File("f".into())).unwrap();
    let user = Credential::new("/CN=u");
    m.grant(&a, &ObjectRef::View("v".into()), &user.dn, Permission::Read).unwrap();
    // user can list the view...
    assert!(m.list_view(&user, "v").is_ok());
    // ...but still cannot read the member file (paper: views do not
    // affect authorization)
    assert!(matches!(m.get_file(&user, "f"), Err(McsError::PermissionDenied { .. })));
}

// ---------------- audit, annotations, history ----------------

#[test]
fn audit_trail_records_accesses() {
    let (m, a) = setup();
    let spec = FileSpec { audit: true, ..FileSpec::named("f") };
    m.create_file(&a, &spec).unwrap();
    m.get_file(&a, "f").unwrap();
    m.update_file(&a, "f", &FileUpdate { valid: Some(false), ..Default::default() }).unwrap();
    let trail = m.get_audit_trail(&a, &ObjectRef::File("f".into())).unwrap();
    let actions: Vec<&str> = trail.iter().map(|r| r.action.as_str()).collect();
    assert_eq!(actions, vec!["create", "query", "modify"]);
    assert!(trail.iter().all(|r| r.actor == a.dn));
}

#[test]
fn audit_disabled_by_default() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    m.get_file(&a, "f").unwrap();
    assert!(m.get_audit_trail(&a, &ObjectRef::File("f".into())).unwrap().is_empty());
    // flipping it on starts recording
    m.set_audit(&a, &ObjectRef::File("f".into()), true).unwrap();
    m.get_file(&a, "f").unwrap();
    assert_eq!(m.get_audit_trail(&a, &ObjectRef::File("f".into())).unwrap().len(), 1);
}

#[test]
fn annotations_roundtrip_with_timestamps() {
    let (m, a) = setup();
    let clock = Arc::new(ManualClock::default());
    let m2 = Mcs::with_options(&a, IndexProfile::Paper2003, clock.clone()).unwrap();
    let _ = m; // the default-clock catalog is unused here
    m2.create_file(&a, &FileSpec::named("f")).unwrap();
    m2.annotate(&a, &ObjectRef::File("f".into()), "first").unwrap();
    clock.advance(60);
    m2.annotate(&a, &ObjectRef::File("f".into()), "second").unwrap();
    let anns = m2.get_annotations(&a, &ObjectRef::File("f".into())).unwrap();
    assert_eq!(anns.len(), 2);
    assert_eq!(anns[0].text, "first");
    assert!(anns[0].created < anns[1].created);
    assert_eq!(anns[0].creator, a.dn);
}

#[test]
fn annotation_requires_only_read() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    let user = Credential::new("/CN=u");
    m.grant(&a, &ObjectRef::File("f".into()), &user.dn, Permission::Read).unwrap();
    m.annotate(&user, &ObjectRef::File("f".into()), "observed a glitch").unwrap();
    assert_eq!(m.get_annotations(&user, &ObjectRef::File("f".into())).unwrap().len(), 1);
}

#[test]
fn history_records_transformations() {
    let (m, a) = setup();
    m.create_file(&a, &FileSpec::named("f")).unwrap();
    m.add_history(&a, "f", "produced by pulsar-search --band 40-60Hz").unwrap();
    m.add_history(&a, "f", "recalibrated with v2 tables").unwrap();
    let h = m.get_history(&a, "f").unwrap();
    assert_eq!(h.len(), 2);
    assert!(h[0].description.contains("pulsar-search"));
}

// ---------------- users & external catalogs ----------------

#[test]
fn user_registry_upserts() {
    let (m, a) = setup();
    let u = UserRecord {
        dn: "/CN=ewa".into(),
        description: "workflow planner".into(),
        institution: "ISI".into(),
        email: "ewa@isi.edu".into(),
        phone: "+1".into(),
    };
    m.register_user(&a, &u).unwrap();
    m.register_user(&a, &UserRecord { institution: "USC/ISI".into(), ..u.clone() }).unwrap();
    let got = m.get_user(&a, "/CN=ewa").unwrap();
    assert_eq!(got.institution, "USC/ISI");
    assert_eq!(m.list_users(&a).unwrap().len(), 1);
}

#[test]
fn external_catalogs_registry() {
    let (m, a) = setup();
    let cat = ExternalCatalog {
        name: "mcat-sdsc".into(),
        catalog_type: "MCAT".into(),
        host: "srb.sdsc.edu".into(),
        ip: "132.249.1.1".into(),
        description: "SRB metadata catalog".into(),
    };
    m.register_external_catalog(&a, &cat).unwrap();
    assert!(matches!(
        m.register_external_catalog(&a, &cat),
        Err(McsError::AlreadyExists(_))
    ));
    let cats = m.list_external_catalogs(&a).unwrap();
    assert_eq!(cats.len(), 1);
    assert_eq!(cats[0].catalog_type, "MCAT");
}

// ---------------- read cache ----------------

/// A commit invalidates exactly the cached entries whose input tables it
/// touched: a write to `user_attributes` revalidates the query entry but
/// leaves collection and attribute-definition entries warm.
#[test]
fn writes_invalidate_only_touched_tables() {
    let a = admin();
    let m = Mcs::with_options_cached(
        &a,
        IndexProfile::Paper2003,
        Arc::new(ManualClock::default()),
        CacheConfig::default(),
    )
    .unwrap();
    m.define_attribute(&a, "run", AttrType::Int, "").unwrap();
    m.create_file(&a, &FileSpec::named("a.dat").attr("run", 1i64)).unwrap();
    m.create_file(&a, &FileSpec::named("b.dat").attr("run", 2i64)).unwrap();
    m.create_collection(&a, "c0", None, "").unwrap();

    let preds = [AttrPredicate { name: "run".into(), op: AttrOp::Eq, value: 1i64.into() }];
    // Fill three kinds of entries, then read them once more so each is a
    // confirmed hit before the write.
    for _ in 0..2 {
        m.query_by_attributes(&a, &preds).unwrap();
        m.get_collection(&a, "c0").unwrap();
        m.attribute_definition("run").unwrap();
    }
    let warm = m.cache_stats().unwrap();
    assert!(warm.hits >= 3, "warm-up should hit on the second pass: {warm:?}");

    // Write to user_attributes only.
    m.set_attribute(
        &a,
        &ObjectRef::File("b.dat".into()),
        &Attribute { name: "run".into(), value: 1i64.into() },
    )
    .unwrap();

    // The query entry is stale (its vector covers user_attributes)...
    let hits = m.query_by_attributes(&a, &preds).unwrap();
    assert_eq!(hits, vec![("a.dat".to_owned(), 1), ("b.dat".to_owned(), 1)]);
    let after_query = m.cache_stats().unwrap();
    assert_eq!(
        after_query.stale,
        warm.stale + 1,
        "exactly the query entry must go stale: {warm:?} -> {after_query:?}"
    );

    // ...but entries over untouched tables are still warm hits.
    m.get_collection(&a, "c0").unwrap();
    m.attribute_definition("run").unwrap();
    let still_warm = m.cache_stats().unwrap();
    assert_eq!(
        still_warm.stale, after_query.stale,
        "collection/attrdef entries must not be invalidated: {still_warm:?}"
    );
    assert!(still_warm.hits >= after_query.hits + 2);
}

// ---------------- attribute definitions ----------------

/// A catalog with and without the read cache: definitions are read the
/// same way by both.
fn both_catalogs() -> [(Mcs, Credential); 2] {
    let a = admin();
    let cached = Mcs::with_options_cached(
        &a,
        IndexProfile::ValueIndexed,
        Arc::new(ManualClock::default()),
        CacheConfig::default(),
    )
    .unwrap();
    [setup(), (cached, a)]
}

/// A definition is used as soon as it is made, and once its row is gone
/// from the table (undefined behind the catalog's back) every create and
/// query refuses the name again.
#[test]
fn attribute_definitions_follow_their_table() {
    for (m, a) in both_catalogs() {
        let undefined = |e: McsError| matches!(e, McsError::BadAttribute(_));
        let spec = |name: &str| FileSpec::named(name).attr("tier", 1i64);
        let preds = [AttrPredicate::eq("tier", 1i64)];
        assert!(undefined(m.create_file(&a, &spec("early.dat")).unwrap_err()));
        m.define_attribute(&a, "tier", AttrType::Int, "").unwrap();
        m.create_file(&a, &spec("used.dat")).unwrap();
        assert_eq!(m.query_by_attributes(&a, &preds).unwrap().len(), 1);
        m.database()
            .execute("DELETE FROM attribute_definitions WHERE name = 'tier'", &[])
            .unwrap();
        assert_eq!(m.attribute_definition("tier").unwrap(), None);
        assert!(undefined(m.create_file(&a, &spec("late.dat")).unwrap_err()));
        assert!(undefined(m.query_by_attributes(&a, &preds).unwrap_err()));
        m.define_attribute(&a, "tier", AttrType::Int, "").unwrap();
        m.create_file(&a, &spec("again.dat")).unwrap();
    }
}

/// A define rolled back with its failing transaction is not visible,
/// also when the catalog read the definitions while it was open.
#[test]
fn attribute_definitions_forget_a_rolled_back_define() {
    for (m, a) in both_catalogs() {
        let db = Arc::clone(m.database());
        let r: std::result::Result<(), relstore::Error> =
            db.transaction(&[("attribute_definitions", relstore::Access::Write)], |s| {
                s.execute(
                    "INSERT INTO attribute_definitions (name, attr_type, creator, created) \
                     VALUES ('ghost', ?, 'x', ?)",
                    &[
                        AttrType::Str.code().into(),
                        Value::DateTime(DateTime::from_seconds_from_epoch(0)),
                    ],
                )?;
                assert!(m.attribute_definition("ghost").unwrap().is_some());
                Err(relstore::Error::ExecError("abort".into()))
            });
        assert!(r.is_err());
        assert_eq!(m.attribute_definition("ghost").unwrap(), None);
        let ghost = FileSpec::named("ghost.dat").attr("ghost", "boo");
        assert!(matches!(m.create_file(&a, &ghost), Err(McsError::BadAttribute(_))));
    }
}
