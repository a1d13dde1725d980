//! Property-based tests: the catalog against a reference model under
//! random operation sequences, and query-path equivalences.

use std::collections::HashMap;
use std::sync::Arc;

use mcs::{
    AttrOp, AttrPredicate, AttrType, Attribute, Credential, FileSpec, IndexProfile, ManualClock,
    McsError, Mcs, ObjectRef, QueryExpr, StaticPredicate,
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

/// An attribute leaf: any operator on `s`, any comparison on `n`, and
/// one time in sixteen a LIKE on `n`, which is ill-typed.
fn leaf(rng: &mut Rng) -> AttrPredicate {
    use AttrOp::*;
    let (name, op, value) = if rng.one_in(2) {
        let op = *rng.pick(&[Eq, Ne, Lt, Le, Gt, Ge, Like]);
        let pool: &[&str] =
            if op == Like { &["x%", "%", "_", "y", "%y", "x_"] } else { &["w", "x", "y", "z"] };
        ("s", op, Value::from(*rng.pick(pool)))
    } else {
        let op = if rng.one_in(16) { Like } else { *rng.pick(&[Eq, Ne, Lt, Le, Gt, Ge]) };
        ("n", op, Value::Int(rng.range(-1..6)))
    };
    AttrPredicate { name: name.into(), op, value }
}

/// A boolean query: `And`/`Or` of one to three children down to depth
/// three, `Not` over any subtree, and attribute or static leaves.
fn tree(rng: &mut Rng, depth: u32) -> QueryExpr {
    match rng.below(if depth < 3 { 8 } else { 4 }) {
        0 => QueryExpr::Static(if rng.one_in(2) {
            StaticPredicate::NameLike(format!("{}%", rng.pick(&["a", "b"])))
        } else {
            StaticPredicate::ValidIs(rng.one_in(2))
        }),
        1 | 2 => QueryExpr::Attr(leaf(rng)),
        3 => QueryExpr::Not(Box::new(tree(rng, depth + 1))),
        4 | 5 => QueryExpr::And(rng.vec(1..4, |r| tree(r, depth + 1))),
        _ => QueryExpr::Or(rng.vec(1..4, |r| tree(r, depth + 1))),
    }
}

/// SQL LIKE: `%` matches any run of characters, `_` any one.
fn like(s: &[char], pat: &[char]) -> bool {
    match pat.split_first() {
        None => s.is_empty(),
        Some(('%', rest)) => (0..=s.len()).any(|i| like(&s[i..], rest)),
        Some(('_', rest)) => !s.is_empty() && like(&s[1..], rest),
        Some((c, rest)) => s.first() == Some(c) && like(&s[1..], rest),
    }
}

fn like_str(s: &str, pat: &str) -> bool {
    like(&s.chars().collect::<Vec<_>>(), &pat.chars().collect::<Vec<_>>())
}

/// Whether the model's file `name` satisfies `q`.
fn holds(q: &QueryExpr, name: &str, f: &ModelFile) -> bool {
    match q {
        QueryExpr::Attr(p) if p.op == AttrOp::Like => like_str(&f.s, p.value.as_str().unwrap()),
        QueryExpr::Attr(p) => {
            let ord = match p.name.as_str() {
                "s" => f.s.as_str().cmp(p.value.as_str().unwrap()),
                _ => f.n.cmp(&p.value.as_int().unwrap()),
            };
            match p.op {
                AttrOp::Eq => ord.is_eq(),
                AttrOp::Ne => ord.is_ne(),
                AttrOp::Lt => ord.is_lt(),
                AttrOp::Le => ord.is_le(),
                AttrOp::Gt => ord.is_gt(),
                AttrOp::Ge => ord.is_ge(),
                AttrOp::Like => unreachable!("matched above"),
            }
        }
        QueryExpr::Static(StaticPredicate::NameLike(pat)) => like_str(name, pat),
        QueryExpr::Static(StaticPredicate::ValidIs(v)) => f.valid == *v,
        QueryExpr::Static(other) => unreachable!("not drawn: {other:?}"),
        QueryExpr::And(subs) => subs.iter().all(|s| holds(s, name, f)),
        QueryExpr::Or(subs) => subs.iter().any(|s| holds(s, name, f)),
        QueryExpr::Not(sub) => !holds(sub, name, f),
    }
}

/// Whether `q` holds a LIKE on the Int attribute `n`.
fn ill_typed(q: &QueryExpr) -> bool {
    match q {
        QueryExpr::Attr(p) => p.name == "n" && p.op == AttrOp::Like,
        QueryExpr::Static(_) => false,
        QueryExpr::And(subs) | QueryExpr::Or(subs) => subs.iter().any(ill_typed),
        QueryExpr::Not(sub) => ill_typed(sub),
    }
}

/// The catalog agrees with an in-memory reference model under random
/// create/delete/set/invalidate sequences, for both index profiles: its
/// files, their attributes, and the answers of conjunctive and general
/// boolean queries.
#[test]
fn catalog_matches_model() {
    check(TARGET, 40, |rng| {
        let ops = rng.vec(1..40, op);
        let trees: Vec<QueryExpr> = (0..20).map(|_| tree(rng, 0)).collect();
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
            // every boolean query agrees with the model's filter, and an
            // ill-typed leaf fails the query wherever it stands
            for q in &trees {
                let got = m.general_query(&a, q);
                if ill_typed(q) {
                    assert!(matches!(got, Err(McsError::BadAttribute(_))), "{profile:?} {q:?}");
                    continue;
                }
                let mut expect: Vec<(String, i64)> = model
                    .iter()
                    .filter(|(name, f)| f.valid && holds(q, name, f))
                    .map(|(name, _)| (name.clone(), 1))
                    .collect();
                expect.sort();
                assert_eq!(got.unwrap(), expect, "profile {profile:?} query {q:?}");
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
