//! Property-based tests: the catalog against a reference model under
//! random operation sequences, and query-path equivalences.

use std::collections::HashMap;
use std::sync::Arc;

use mcs::{
    AttrPredicate, AttrType, Attribute, Credential, FileSpec, IndexProfile, ManualClock,
    McsError, Mcs, ObjectRef,
};
use relstore::Value;
use testkit::{check, Rng};

const TARGET: &str = "-p mcs --test proptests";

fn admin() -> Credential {
    Credential::new("/CN=admin")
}

fn catalog(profile: IndexProfile) -> Mcs {
    let m = Mcs::with_options(&admin(), profile, Arc::new(ManualClock::default())).unwrap();
    m.define_attribute(&admin(), "s", AttrType::Str, "").unwrap();
    m.define_attribute(&admin(), "n", AttrType::Int, "").unwrap();
    m
}

#[derive(Debug, Clone)]
enum Op {
    Create { name: String, s: String, n: i64 },
    Delete { name: String },
    SetAttr { name: String, n: i64 },
    Invalidate { name: String },
}

fn op(rng: &mut Rng) -> Op {
    // tiny name space to force collisions and reuse
    let name = format!("{}{}", rng.pick(&["a", "b"]), rng.below(4));
    match rng.below(4) {
        0 => Op::Create { name, s: rng.string("xy", 1..2), n: rng.range(0..5) },
        1 => Op::Delete { name },
        2 => Op::SetAttr { name, n: rng.range(0..5) },
        _ => Op::Invalidate { name },
    }
}

#[derive(Debug, Clone, PartialEq)]
struct ModelFile {
    s: String,
    n: i64,
    valid: bool,
}

/// The catalog agrees with an in-memory reference model under random
/// create/delete/set/invalidate sequences, for both index profiles.
#[test]
fn catalog_matches_model() {
    check(TARGET, 40, |rng| {
        let ops = rng.vec(1..40, op);
        let a = admin();
        for profile in [IndexProfile::Paper2003, IndexProfile::ValueIndexed] {
            let m = catalog(profile);
            let mut model: HashMap<String, ModelFile> = HashMap::new();
            for op in &ops {
                match op {
                    Op::Create { name, s, n } => {
                        let spec = FileSpec::named(name)
                            .attr("s", s.as_str())
                            .attr("n", *n);
                        let r = m.create_file(&a, &spec);
                        if model.contains_key(name) {
                            assert!(matches!(r, Err(McsError::AlreadyExists(_))));
                        } else {
                            assert!(r.is_ok(), "{r:?}");
                            model.insert(name.clone(), ModelFile { s: s.clone(), n: *n, valid: true });
                        }
                    }
                    Op::Delete { name } => {
                        let r = m.delete_file(&a, name);
                        if model.remove(name).is_some() {
                            assert!(r.is_ok());
                        } else {
                            assert!(matches!(r, Err(McsError::NotFound(_))));
                        }
                    }
                    Op::SetAttr { name, n } => {
                        let r = m.set_attribute(
                            &a,
                            &ObjectRef::File(name.clone()),
                            &Attribute { name: "n".into(), value: Value::Int(*n) },
                        );
                        match model.get_mut(name) {
                            Some(f) => {
                                assert!(r.is_ok());
                                f.n = *n;
                            }
                            None => assert!(matches!(r, Err(McsError::NotFound(_)))),
                        }
                    }
                    Op::Invalidate { name } => {
                        let r = m.invalidate_file(&a, name);
                        match model.get_mut(name) {
                            Some(f) => {
                                assert!(r.is_ok());
                                f.valid = false;
                            }
                            None => assert!(matches!(r, Err(McsError::NotFound(_)))),
                        }
                    }
                }
            }
            // final state agrees
            assert_eq!(m.file_count().unwrap(), model.len());
            for (name, mf) in &model {
                let f = m.get_file(&a, name).unwrap();
                assert_eq!(f.valid, mf.valid);
                let attrs = m.get_attributes(&a, &ObjectRef::File(name.clone())).unwrap();
                let n = attrs.iter().find(|x| x.name == "n").unwrap();
                assert_eq!(&n.value, &Value::Int(mf.n));
            }
            // every query result agrees with a model-side filter
            for probe in 0i64..5 {
                let hits = m
                    .query_by_attributes(&a, &[AttrPredicate::eq("n", probe)])
                    .unwrap();
                let mut expect: Vec<(String, i64)> = model
                    .iter()
                    .filter(|(_, f)| f.n == probe && f.valid)
                    .map(|(name, _)| (name.clone(), 1))
                    .collect();
                expect.sort();
                assert_eq!(hits, expect, "profile {:?} probe {}", profile, probe);
            }
        }
    });
}

/// Attribute round-trip: any representable value set on a file comes
/// back identical through the public API.
#[test]
fn attribute_values_roundtrip() {
    check(TARGET, 30, |rng| {
        let (sv, nv) = (rng.text(0..25), rng.next() as i64);
        // NaN ≠ NaN under PartialEq
        let fv = std::iter::repeat_with(|| rng.f64()).find(|f| !f.is_nan()).unwrap();
        let a = admin();
        let m = catalog(IndexProfile::Paper2003);
        m.define_attribute(&a, "f", AttrType::Float, "").unwrap();
        m.create_file(
            &a,
            &FileSpec::named("file")
                .attr("s", sv.as_str())
                .attr("n", nv)
                .attr("f", fv),
        )
        .unwrap();
        let attrs = m.get_attributes(&a, &ObjectRef::File("file".into())).unwrap();
        let get = |k: &str| attrs.iter().find(|x| x.name == k).unwrap().value.clone();
        assert_eq!(get("s"), Value::from(sv));
        assert_eq!(get("n"), Value::Int(nv));
        assert_eq!(get("f"), Value::Float(fv));
    });
}

/// Range queries partition the space: every file matches exactly one
/// of (< k), (= k), (> k).
#[test]
fn range_predicates_partition() {
    check(TARGET, 30, |rng| {
        let values = rng.vec(1..25, |r| r.range(0..20));
        let k = rng.range(0..20);
        let a = admin();
        let m = catalog(IndexProfile::Paper2003);
        for (i, v) in values.iter().enumerate() {
            m.create_file(&a, &FileSpec::named(format!("f{i}")).attr("n", *v)).unwrap();
        }
        let q = |op| {
            m.query_by_attributes(&a, &[AttrPredicate { name: "n".into(), op, value: k.into() }])
                .unwrap()
                .len()
        };
        let (lt, eq, gt) = (q(mcs::AttrOp::Lt), q(mcs::AttrOp::Eq), q(mcs::AttrOp::Gt));
        assert_eq!(lt + eq + gt, values.len());
        assert_eq!(q(mcs::AttrOp::Le), lt + eq);
        assert_eq!(q(mcs::AttrOp::Ge), gt + eq);
        assert_eq!(q(mcs::AttrOp::Ne), lt + gt);
    });
}
