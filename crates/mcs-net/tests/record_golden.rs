//! Golden record corpus: the exact binary bytes and SOAP XML of every
//! record type, and of the non-record values requests carry.
//!
//! For each of the 14 [`Record`] types the corpus holds one value with
//! every optional field set (non-empty strings, lists of two or more)
//! and one with every optional field absent. Beside them: the five
//! [`ObjectRef`] kinds, an [`Attribute`] of each of the eight value
//! types, a predicate of each [`AttrOp`], every [`AttrType`] and
//! [`Permission`] code, and a [`Credential`] with two groups. For each
//! value the recording holds the binary encoding (hex) and the SOAP
//! XML, and the test checks that both decode back to the value.
//!
//! `wire.txt` pins whole requests and answers, but its calls never
//! carry a `containerId`, a `containerService`, a `fileVersion` or
//! `service` reference, credential groups, or a date, time, float,
//! datetime or null value; this corpus does.
//!
//! On a mismatch the full recording is written to
//! `$CARGO_TARGET_TMPDIR/record_golden.actual.txt`; after a deliberate
//! wire change, review the diff and copy that file over the fixture.

use std::fmt::Debug;

use mcs::{
    Annotation, AttrOp, AttrPredicate, AttrType, Attribute, AuditRecord, Collection,
    CollectionContents, Credential, ExternalCatalog, FileSpec, FileUpdate, HistoryRecord,
    LogicalFile, ObjectRef, ObjectType, Permission, UserRecord, View, ViewContents,
};
use mcs_net::binproto::frame::{self, Reader};
use mcs_net::codec::{Arg, Record};
use mcs_net::wire;
use relstore::{Date, DateTime, Time, Value};
use soapstack::xml::{parse, Element, Node};

const FIXTURE: &str = include_str!("golden/records.txt");

/// 2003-11-15 00:00:00 UTC, the paper's conference.
fn at(offset: i64) -> DateTime {
    DateTime::from_seconds_from_epoch(1_068_854_400 + offset)
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

type Put<T> = Box<dyn Fn(&T, &mut Vec<u8>)>;
type Get<T> = Box<dyn Fn(&mut Reader) -> frame::Result<T>>;
type Decode<T> = Box<dyn Fn(&Element) -> wire::Result<T>>;

/// One codec under test: how a value goes onto each wire and back.
struct Codec<T> {
    put: Put<T>,
    get: Get<T>,
    el: Box<dyn Fn(&T) -> Element>,
    /// Decodes the parsed element `el` wrote.
    from: Decode<T>,
}

fn record<T: Record + 'static>() -> Codec<T> {
    Codec {
        put: Box::new(T::put),
        get: Box::new(T::get),
        el: Box::new(T::el),
        from: Box::new(T::from_el),
    }
}

/// Wrap a parsed argument element in a method element, which is what an
/// argument decodes from.
fn call<'a>(e: &Element<'a>) -> Element<'a> {
    let mut c = Element::new("call");
    c.children.push(Node::Element(e.clone()));
    c
}

/// The one element `write` appends to a method element.
fn only_child<'a>(write: impl FnOnce(&mut Element<'a>)) -> Element<'a> {
    let mut c = Element::new("call");
    write(&mut c);
    match c.children.pop() {
        Some(Node::Element(e)) if c.children.is_empty() => e,
        _ => panic!("an argument wrote other than one element"),
    }
}

/// A scalar argument travelling in element `name`.
fn scalar<T: for<'a> Arg<'a, Owned = T> + Copy + 'static>(name: &'static str) -> Codec<T> {
    Codec {
        put: Box::new(|v, b| v.put(b)),
        get: Box::new(|r| T::get(r)),
        el: Box::new(move |v| only_child(|c| (*v).to_el(name, c))),
        from: Box::new(move |e| T::from_el(&call(e), name)),
    }
}

fn objref() -> Codec<ObjectRef> {
    Codec {
        put: Box::new(|v, b| Arg::put(&v, b)),
        get: Box::new(<&ObjectRef as Arg>::get),
        el: Box::new(|v| only_child(|c| Arg::to_el(v, "", c))),
        from: Box::new(|e| <&ObjectRef as Arg>::from_el(&call(e), "")),
    }
}

fn credential() -> Codec<Credential> {
    Codec {
        put: Box::new(|v, b| frame::put_credential(b, v)),
        get: Box::new(frame::get_credential),
        el: Box::new(wire::credential_el),
        from: Box::new(|e| wire::credential_from(&call(e))),
    }
}

#[derive(Default)]
struct Recording(String);

impl Recording {
    /// Encode `v` on both wires, check that each decodes back to `v`
    /// (compared by `Debug`, as `FileSpec` and `FileUpdate` have no
    /// `PartialEq`), and append the entry.
    fn add<T: Debug>(&mut self, label: &str, c: &Codec<T>, v: &T) {
        let want = format!("{v:?}");
        let mut b = Vec::new();
        (c.put)(v, &mut b);
        let mut r = Reader::new(&b);
        let back = (c.get)(&mut r).unwrap_or_else(|e| panic!("{label}: binary decode: {e}"));
        r.finish().unwrap_or_else(|e| panic!("{label}: binary decode: {e}"));
        assert_eq!(format!("{back:?}"), want, "{label}: binary round trip");
        let xml = (c.el)(v).to_xml();
        let parsed = parse(&xml).unwrap_or_else(|e| panic!("{label}: {xml} does not parse: {e}"));
        let back = (c.from)(&parsed).unwrap_or_else(|e| panic!("{label}: SOAP decode: {e}"));
        assert_eq!(format!("{back:?}"), want, "{label}: SOAP round trip");
        self.0.push_str(&format!("# {label}\nbin {}\nsoap {xml}\n", hex(&b)));
    }
}

fn recording() -> String {
    let mut out = Recording::default();
    let (full, absent) = ("every optional field set", "every optional field absent");
    let (a, m) = ("/O=Grid/CN=a".to_string(), "/O=Grid/CN=m".to_string());
    let store = "gsiftp://store.example.org/containers".to_string();

    let attributes = vec![
        Attribute { name: "run".into(), value: Value::Int(42) },
        Attribute { name: "site".into(), value: Value::from("cern <b1>") },
    ];
    let spec = FileSpec {
        name: "run-0042.dat".into(),
        version: Some(3),
        data_type: Some("binary".into()),
        collection: Some("runs".into()),
        container_id: Some("tar-7".into()),
        container_service: Some(store.clone()),
        master_copy: Some("gsiftp://host.example.org/run-0042.dat".into()),
        audit: true,
        attributes,
    };
    out.add(&format!("FileSpec: {full}"), &record(), &spec);
    out.add(&format!("FileSpec: {absent}"), &record(), &FileSpec::named("f"));

    let update = FileUpdate {
        data_type: Some("text".into()),
        valid: Some(false),
        master_copy: Some("gsiftp://host.example.org/f".into()),
        container_id: Some("tar-8".into()),
        container_service: Some(store.clone()),
    };
    out.add(&format!("FileUpdate: {full}"), &record(), &update);
    out.add(&format!("FileUpdate: {absent}"), &record(), &FileUpdate::default());

    for (ty, value) in [
        ("null", Value::Null),
        ("int", Value::Int(-42)),
        ("float", Value::Float(2.5e-3)),
        ("string", Value::from("a <b> & \"c\"")),
        ("bool", Value::Bool(true)),
        ("date", Value::Date(Date::new(2003, 11, 15).unwrap())),
        ("time", Value::Time(Time::new(8, 30, 5).unwrap())),
        ("datetime", Value::DateTime(at(45_296))),
    ] {
        let attr = Attribute { name: format!("a_{ty}"), value };
        out.add(&format!("Attribute: {ty} value"), &record(), &attr);
    }

    use AttrOp::*;
    for (op, value) in [
        (Eq, Value::Int(7)),
        (Ne, Value::from("x")),
        (Lt, Value::Float(-1.5)),
        (Le, Value::Date(Date::new(1999, 12, 31).unwrap())),
        (Gt, Value::Time(Time::new(23, 59, 59).unwrap())),
        (Ge, Value::DateTime(at(-86_400))),
        (Like, Value::from("site_%")),
    ] {
        let p = AttrPredicate { name: "wl_seq".into(), op, value };
        out.add(&format!("AttrPredicate: {op:?}"), &record(), &p);
    }

    let file = LogicalFile {
        id: 7,
        name: "run-0042.dat".into(),
        version: 3,
        data_type: Some("binary".into()),
        valid: false,
        collection_id: Some(12),
        container_id: Some("tar-7".into()),
        container_service: Some(store),
        creator: "/O=Grid/CN=a&b".into(),
        created: at(0),
        last_modifier: Some(m.clone()),
        last_modified: Some(at(3_600)),
        master_copy: Some("gsiftp://host.example.org/run-0042.dat".into()),
        audit_enabled: true,
    };
    out.add(&format!("LogicalFile: {full}"), &record(), &file);
    let file = LogicalFile {
        id: 1,
        name: "f".into(),
        version: 1,
        data_type: None,
        valid: true,
        collection_id: None,
        container_id: None,
        container_service: None,
        creator: a.clone(),
        created: at(59),
        last_modifier: None,
        last_modified: None,
        master_copy: None,
        audit_enabled: false,
    };
    out.add(&format!("LogicalFile: {absent}"), &record(), &file);

    let collection = Collection {
        id: 12,
        name: "runs".into(),
        description: "all runs".into(),
        parent_id: Some(3),
        creator: a.clone(),
        created: at(0),
        last_modifier: Some(m.clone()),
        last_modified: Some(at(60)),
        audit_enabled: true,
    };
    out.add(&format!("Collection: {full}"), &record(), &collection);
    let collection = Collection {
        id: 1,
        name: "c".into(),
        description: String::new(),
        parent_id: None,
        last_modifier: None,
        last_modified: None,
        audit_enabled: false,
        ..collection
    };
    out.add(&format!("Collection: {absent}"), &record(), &collection);

    let files = |v| vec![("a.dat".to_string(), 1), ("b.dat".to_string(), v)];
    let names = |x: &str| vec![format!("{x}1"), format!("{x}2")];
    let contents = CollectionContents { files: files(2), subcollections: names("sub") };
    out.add("CollectionContents: every list has two entries", &record(), &contents);
    out.add("CollectionContents: every list empty", &record(), &CollectionContents::default());

    let view = View {
        id: 4,
        name: "interesting".into(),
        description: "hand-picked".into(),
        creator: a.clone(),
        created: at(0),
        last_modifier: Some(m),
        last_modified: Some(at(7_200)),
        audit_enabled: true,
    };
    out.add(&format!("View: {full}"), &record(), &view);
    let view = View {
        id: 1,
        name: "v".into(),
        description: String::new(),
        last_modifier: None,
        last_modified: None,
        audit_enabled: false,
        ..view
    };
    out.add(&format!("View: {absent}"), &record(), &view);

    let contents = ViewContents { files: files(3), collections: names("c"), views: names("v") };
    out.add("ViewContents: every list has two entries", &record(), &contents);
    out.add("ViewContents: every list empty", &record(), &ViewContents::default());

    for (label, object_type, object_id, text, creator, created) in [
        ("on a file", ObjectType::File, 7, "checked <ok>", "/O=Grid/CN=a", at(1)),
        ("on a collection", ObjectType::Collection, 12, "c", "/O=Grid/CN=b", at(2)),
    ] {
        let (text, creator) = (text.into(), creator.into());
        let note = Annotation { object_type, object_id, text, creator, created };
        out.add(&format!("Annotation: {label}"), &record(), &note);
    }

    for (label, object_type, object_id, action, actor, at, details) in [
        ("on a view", ObjectType::View, 4, "read", "/O=Grid/CN=a", at(3), "getView"),
        ("on the service", ObjectType::Service, 0, "grant", "/O=Grid/CN=admin", at(4), ""),
    ] {
        let (action, actor, details) = (action.into(), actor.into(), details.into());
        let audit = AuditRecord { object_type, object_id, action, actor, at, details };
        out.add(&format!("AuditRecord: {label}"), &record(), &audit);
    }

    for (label, file_id, description, actor, at) in [
        ("with a description", 7, "reprocessed with v2", "/O=Grid/CN=a", at(5)),
        ("empty description", 1, "", "/CN=b", at(6)),
    ] {
        let (description, actor) = (description.into(), actor.into());
        let history = HistoryRecord { file_id, description, actor, at };
        out.add(&format!("HistoryRecord: {label}"), &record(), &history);
    }

    let [dn, description, institution, email, phone] =
        ["/O=Grid/CN=writer", "a writer", "ISI", "w@example.org", "+1 310 555 0100"]
            .map(String::from);
    let user = UserRecord { dn, description, institution, email, phone };
    out.add("UserRecord: every field filled", &record(), &user);
    let [dn, description, institution, email, phone] = ["/CN=w", "", "", "", ""].map(String::from);
    let user = UserRecord { dn, description, institution, email, phone };
    out.add("UserRecord: empty details", &record(), &user);

    let [name, catalog_type, host, ip, description] =
        ["rls", "replica", "rls.example.org", "192.0.2.7", "replica location service"]
            .map(String::from);
    let catalog = ExternalCatalog { name, catalog_type, host, ip, description };
    out.add("ExternalCatalog: every field filled", &record(), &catalog);
    let [name, catalog_type, host, ip, description] = ["x", "t", "", "", ""].map(String::from);
    let catalog = ExternalCatalog { name, catalog_type, host, ip, description };
    out.add("ExternalCatalog: empty details", &record(), &catalog);

    for r in [
        ObjectRef::File("run-0042.dat".into()),
        ObjectRef::FileVersion("run-0042.dat".into(), 3),
        ObjectRef::Collection("runs".into()),
        ObjectRef::View("interesting".into()),
        ObjectRef::Service,
    ] {
        out.add(&format!("ObjectRef: {r:?}"), &objref(), &r);
    }
    use AttrType as T;
    for t in [T::Str, T::Int, T::Float, T::Date, T::Time, T::DateTime] {
        out.add(&format!("AttrType: {t:?}"), &scalar("attrType"), &t);
    }
    use Permission as P;
    for p in [P::Read, P::Write, P::Delete, P::Admin] {
        out.add(&format!("Permission: {p:?}"), &scalar("permission"), &p);
    }
    let cred = Credential::with_groups("/O=Grid/CN=a", ["cms", "atlas-prod"]);
    out.add("Credential: two groups", &credential(), &cred);
    out.0
}

#[test]
fn records_match_the_golden_corpus() {
    let actual = recording();
    if actual == FIXTURE {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("record_golden.actual.txt");
    std::fs::write(&dump, &actual).unwrap();
    let (want, got): (Vec<&str>, Vec<&str>) =
        (FIXTURE.split("\n# ").collect(), actual.split("\n# ").collect());
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(g, w, "record recording differs from the fixture (full recording: {dump:?})");
    }
    panic!(
        "the recording has {} entries, the fixture {} (full recording: {dump:?})",
        got.len(),
        want.len()
    );
}
