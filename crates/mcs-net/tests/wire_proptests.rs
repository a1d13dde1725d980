//! Property tests: the SOAP wire encoding is the identity on every MCS
//! type that crosses it.

use mcs::{AttrOp, AttrPredicate, Attribute, Credential, FileSpec, LogicalFile, ObjectRef};
use mcs_net::wire;
use relstore::{Date, DateTime, Time, Value};
use soapstack::xml::parse;
use testkit::{check, Rng};

const TARGET: &str = "-p mcs-net --test wire_proptests";

/// Printable ASCII, XML-hostile characters included.
fn text(rng: &mut Rng) -> String {
    rng.string(" -~", 0..33)
}

fn value(rng: &mut Rng) -> Value {
    match rng.below(8) {
        0 => Value::Null,
        1 => Value::Int(rng.next() as i64),
        // NaN breaks PartialEq
        2 => Value::Float(std::iter::repeat_with(|| rng.f64()).find(|f| !f.is_nan()).unwrap()),
        3 => Value::from(text(rng)),
        4 => Value::Bool(rng.one_in(2)),
        5 => Value::Date(Date::from_days_from_epoch(rng.range(-100_000..100_000))),
        6 => {
            let s = rng.below(86_400);
            Value::Time(Time::new((s / 3600) as u8, ((s % 3600) / 60) as u8, (s % 60) as u8).unwrap())
        }
        _ => Value::DateTime(DateTime::from_seconds_from_epoch(
            rng.range(-10_000_000_000..10_000_000_000),
        )),
    }
}

/// A value other than NULL: attributes and predicates never carry one.
fn non_null(rng: &mut Rng) -> Value {
    std::iter::repeat_with(|| value(rng)).find(|v| !v.is_null()).unwrap()
}

fn roundtrip_el(e: soapstack::xml::Element) -> soapstack::xml::Element {
    parse(&e.to_xml()).expect("wire xml parses")
}

#[test]
fn values_roundtrip() {
    check(TARGET, 64, |rng| {
        let v = value(rng);
        let got = wire::value_from(&roundtrip_el(wire::value_el("value", &v))).unwrap();
        assert_eq!(got, v);
    });
}

#[test]
fn attributes_roundtrip() {
    check(TARGET, 64, |rng| {
        let name = rng.string("a-zA-Z", 1..2) + &rng.string("a-zA-Z0-9_/@.#", 0..25);
        let a = Attribute { name, value: non_null(rng) };
        let got = wire::attribute_from(&roundtrip_el(wire::attribute_el(&a))).unwrap();
        assert_eq!(got, a);
    });
}

#[test]
fn predicates_roundtrip() {
    check(TARGET, 64, |rng| {
        let name = rng.string("a-z_", 1..17);
        use AttrOp::*;
        let op = *rng.pick(&[Eq, Ne, Lt, Le, Gt, Ge, Like]);
        let p = AttrPredicate { name, op, value: non_null(rng) };
        let got = wire::predicate_from(&roundtrip_el(wire::predicate_el(&p))).unwrap();
        assert_eq!(got, p);
    });
}

#[test]
fn filespecs_roundtrip() {
    check(TARGET, 64, |rng| {
        let mut spec = FileSpec {
            name: rng.string("a-zA-Z0-9._-", 1..33),
            version: rng.option(|r| r.range(1..100)),
            data_type: rng.option(text),
            collection: rng.option(|r| r.string("a-z", 1..13)),
            container_id: None,
            container_service: None,
            master_copy: rng.option(text),
            audit: rng.one_in(2),
            attributes: rng
                .vec(0..5, |r| (r.string("a-z", 1..9), value(r)))
                .into_iter()
                .filter(|(_, v)| !v.is_null())
                .map(|(name, value)| Attribute { name, value })
                .collect(),
        };
        // empty-string optionals don't survive (absent vs empty) — the
        // MCS rejects empty strings anyway, so normalize like the server
        for f in [&mut spec.data_type, &mut spec.master_copy] {
            if f.as_deref() == Some("") {
                *f = None;
            }
        }
        let got = wire::filespec_from(&roundtrip_el(wire::filespec_el(&spec))).unwrap();
        assert_eq!(got.name, spec.name);
        assert_eq!(got.version, spec.version);
        assert_eq!(got.data_type, spec.data_type);
        assert_eq!(got.collection, spec.collection);
        assert_eq!(got.master_copy, spec.master_copy);
        assert_eq!(got.audit, spec.audit);
        assert_eq!(got.attributes, spec.attributes);
    });
}

#[test]
fn files_roundtrip() {
    check(TARGET, 64, |rng| {
        let f = LogicalFile {
            id: rng.range(1..1_000_000),
            name: rng.string("a-zA-Z0-9._-", 1..33),
            version: rng.range(1..50),
            data_type: None,
            valid: rng.one_in(2),
            collection_id: rng.option(|r| r.range(1..1000)),
            container_id: None,
            container_service: None,
            creator: rng.string(" -~", 1..25),
            created: DateTime::from_seconds_from_epoch(rng.range(0..2_000_000_000)),
            last_modifier: None,
            last_modified: None,
            master_copy: None,
            audit_enabled: rng.one_in(2),
        };
        let got = wire::file_from(&roundtrip_el(wire::file_el(&f))).unwrap();
        assert_eq!(got, f);
    });
}

#[test]
fn credentials_roundtrip() {
    check(TARGET, 64, |rng| {
        let dn = rng.string(" -~", 1..41);
        let c = Credential { dn, groups: rng.vec(0..4, |r| r.string("a-z-", 1..17)) };
        let call = soapstack::xml::Element::new("call").child(wire::credential_el(&c));
        let got = wire::credential_from(&roundtrip_el(call)).unwrap();
        assert_eq!(got, c);
    });
}

#[test]
fn objrefs_roundtrip() {
    check(TARGET, 64, |rng| {
        let name = rng.string("a-zA-Z0-9._-", 1..25);
        let r = match rng.below(5) {
            0 => ObjectRef::File(name),
            1 => ObjectRef::FileVersion(name, rng.range(1..50)),
            2 => ObjectRef::Collection(name),
            3 => ObjectRef::View(name),
            _ => ObjectRef::Service,
        };
        let call = soapstack::xml::Element::new("call").child(wire::objref_el(&r));
        let got = wire::objref_from(&roundtrip_el(call)).unwrap();
        assert_eq!(got, r);
    });
}
