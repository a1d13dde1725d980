//! Property tests: both wire encodings are the identity on every MCS
//! type that crosses them. Every record type goes through its
//! [`Record`] codec in a frame and as a SOAP element, with each
//! optional field drawn present or absent.

use std::fmt::Debug;

use mcs::{
    Annotation, AttrOp, AttrPredicate, Attribute, AuditRecord, Collection, CollectionContents,
    Credential, ExternalCatalog, FileSpec, FileUpdate, HistoryRecord, LogicalFile, ObjectRef,
    ObjectType, UserRecord, View, ViewContents,
};
use mcs_net::binproto::frame::{self, Reader};
use mcs_net::codec::Record;
use mcs_net::wire;
use relstore::{Date, DateTime, Time, Value};
use soapstack::xml::{parse, Element};
use testkit::{check, Rng};

const TARGET: &str = "-p mcs-net --test wire_proptests";

/// Printable text, XML-hostile and multibyte characters included.
fn text(rng: &mut Rng) -> String {
    rng.text(0..33)
}

fn name(rng: &mut Rng) -> String {
    rng.string("a-zA-Z0-9._-", 1..33)
}

fn datetime(rng: &mut Rng) -> DateTime {
    DateTime::from_seconds_from_epoch(rng.range(-10_000_000_000..10_000_000_000))
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
        _ => Value::DateTime(datetime(rng)),
    }
}

fn object_type(rng: &mut Rng) -> ObjectType {
    *rng.pick(&[ObjectType::File, ObjectType::Collection, ObjectType::View, ObjectType::Service])
}

fn hits(rng: &mut Rng) -> Vec<(String, i64)> {
    rng.vec(0..4, |r| (text(r), r.range(1..50)))
}

fn roundtrip_el(e: Element) -> Element<'static> {
    parse(&e.to_xml()).expect("wire xml parses").into_owned()
}

/// `v` goes through a frame and through a printed and parsed SOAP
/// element, and comes back equal (by `Debug`, as `FileSpec` and
/// `FileUpdate` have no `PartialEq`); the frame decoder consumes every
/// byte.
fn both<T: Record + Debug>(v: &T) {
    let want = format!("{v:?}");
    let mut b = Vec::new();
    v.put(&mut b);
    let mut r = Reader::new(&b);
    let got = T::get(&mut r).unwrap();
    r.finish().unwrap();
    assert_eq!(format!("{got:?}"), want, "binary");
    let got = T::from_el(&roundtrip_el(v.el())).unwrap();
    assert_eq!(format!("{got:?}"), want, "SOAP");
}

/// [`both`] on one value `gen` draws per seed.
fn roundtrips<T: Record + Debug>(gen: impl Fn(&mut Rng) -> T) {
    check(TARGET, 64, |rng| both(&gen(rng)));
}

fn attribute(rng: &mut Rng) -> Attribute {
    Attribute { name: text(rng), value: value(rng) }
}

#[test]
fn values_roundtrip() {
    check(TARGET, 64, |rng| {
        let v = value(rng);
        let got = wire::value_from(&roundtrip_el(wire::value_el("value", &v))).unwrap();
        assert_eq!(got, v);
        let mut b = Vec::new();
        frame::put_value(&mut b, &v);
        let mut r = Reader::new(&b);
        assert_eq!(frame::get_value(&mut r).unwrap(), v);
        r.finish().unwrap();
    });
}

#[test]
fn attributes_roundtrip() {
    roundtrips(attribute);
}

#[test]
fn predicates_roundtrip() {
    check(TARGET, 64, |rng| {
        use AttrOp::*;
        let op = *rng.pick(&[Eq, Ne, Lt, Le, Gt, Ge, Like]);
        both(&AttrPredicate { name: text(rng), op, value: value(rng) });
    });
}

#[test]
fn filespecs_roundtrip() {
    roundtrips(|rng| FileSpec {
        name: name(rng),
        version: rng.option(|r| r.range(1..100)),
        data_type: rng.option(text),
        collection: rng.option(text),
        container_id: rng.option(text),
        container_service: rng.option(text),
        master_copy: rng.option(text),
        audit: rng.one_in(2),
        attributes: rng.vec(0..5, attribute),
    });
}

#[test]
fn fileupdates_roundtrip() {
    roundtrips(|rng| FileUpdate {
        data_type: rng.option(text),
        valid: rng.option(|r| r.one_in(2)),
        master_copy: rng.option(text),
        container_id: rng.option(text),
        container_service: rng.option(text),
    });
}

#[test]
fn files_roundtrip() {
    roundtrips(|rng| LogicalFile {
        id: rng.range(1..1_000_000),
        name: name(rng),
        version: rng.range(1..50),
        data_type: rng.option(text),
        valid: rng.one_in(2),
        collection_id: rng.option(|r| r.range(1..1000)),
        container_id: rng.option(text),
        container_service: rng.option(text),
        creator: text(rng),
        created: datetime(rng),
        last_modifier: rng.option(text),
        last_modified: rng.option(datetime),
        master_copy: rng.option(text),
        audit_enabled: rng.one_in(2),
    });
}

#[test]
fn collections_roundtrip() {
    roundtrips(|rng| Collection {
        id: rng.range(1..1_000_000),
        name: name(rng),
        description: text(rng),
        parent_id: rng.option(|r| r.range(1..1000)),
        creator: text(rng),
        created: datetime(rng),
        last_modifier: rng.option(text),
        last_modified: rng.option(datetime),
        audit_enabled: rng.one_in(2),
    });
}

#[test]
fn collection_contents_roundtrip() {
    roundtrips(|rng| CollectionContents { files: hits(rng), subcollections: rng.vec(0..4, text) });
}

#[test]
fn views_roundtrip() {
    roundtrips(|rng| View {
        id: rng.range(1..1_000_000),
        name: name(rng),
        description: text(rng),
        creator: text(rng),
        created: datetime(rng),
        last_modifier: rng.option(text),
        last_modified: rng.option(datetime),
        audit_enabled: rng.one_in(2),
    });
}

#[test]
fn view_contents_roundtrip() {
    roundtrips(|rng| ViewContents {
        files: hits(rng),
        collections: rng.vec(0..4, text),
        views: rng.vec(0..4, text),
    });
}

#[test]
fn annotations_roundtrip() {
    roundtrips(|rng| Annotation {
        object_type: object_type(rng),
        object_id: rng.next() as i64,
        text: text(rng),
        creator: text(rng),
        created: datetime(rng),
    });
}

#[test]
fn audit_records_roundtrip() {
    roundtrips(|rng| AuditRecord {
        object_type: object_type(rng),
        object_id: rng.next() as i64,
        action: text(rng),
        actor: text(rng),
        at: datetime(rng),
        details: text(rng),
    });
}

#[test]
fn history_records_roundtrip() {
    roundtrips(|rng| HistoryRecord {
        file_id: rng.next() as i64,
        description: text(rng),
        actor: text(rng),
        at: datetime(rng),
    });
}

#[test]
fn users_roundtrip() {
    roundtrips(|rng| UserRecord {
        dn: text(rng),
        description: text(rng),
        institution: text(rng),
        email: text(rng),
        phone: text(rng),
    });
}

#[test]
fn external_catalogs_roundtrip() {
    roundtrips(|rng| ExternalCatalog {
        name: text(rng),
        catalog_type: text(rng),
        host: text(rng),
        ip: text(rng),
        description: text(rng),
    });
}

#[test]
fn credentials_roundtrip() {
    check(TARGET, 64, |rng| {
        let c = Credential { dn: text(rng), groups: rng.vec(0..4, text) };
        let call = Element::new("call").child(wire::credential_el(&c));
        assert_eq!(wire::credential_from(&roundtrip_el(call)).unwrap(), c);
        let mut b = Vec::new();
        frame::put_credential(&mut b, &c);
        let mut r = Reader::new(&b);
        assert_eq!(frame::get_credential(&mut r).unwrap(), c);
        r.finish().unwrap();
    });
}

#[test]
fn objrefs_roundtrip() {
    check(TARGET, 64, |rng| {
        let name = text(rng);
        let r = match rng.below(5) {
            0 => ObjectRef::File(name),
            1 => ObjectRef::FileVersion(name, rng.next() as i64),
            2 => ObjectRef::Collection(name),
            3 => ObjectRef::View(name),
            _ => ObjectRef::Service,
        };
        let call = Element::new("call").child(wire::objref_el(&r));
        assert_eq!(wire::objref_from(&roundtrip_el(call)).unwrap(), r);
        let mut b = Vec::new();
        frame::put_objref(&mut b, &r);
        let mut rd = Reader::new(&b);
        assert_eq!(frame::get_objref(&mut rd).unwrap(), r);
        rd.finish().unwrap();
    });
}
