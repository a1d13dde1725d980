//! Wire encoding of MCS types to and from SOAP body elements.
//!
//! The encoding is doc/literal-ish: every record becomes an element whose
//! children are named fields; typed values carry a `type` attribute.
//! Both the server and the client use these functions, so a round-trip
//! through them is the identity (property-tested).

use mcs::{
    Annotation, AttrOp, AttrPredicate, AttrType, Attribute, AuditRecord, Collection,
    CollectionContents, Credential, ExternalCatalog, FileSpec, FileUpdate, HistoryRecord,
    LogicalFile, ObjectRef, ObjectType, Permission, UserRecord, View, ViewContents,
};
use relstore::{Date, DateTime, Time, Value};
use soapstack::xml::{Element, XmlError};

/// Wire-decoding error.
pub fn shape(msg: impl Into<String>) -> XmlError {
    XmlError::Shape(msg.into())
}

/// Result alias for wire decoding.
pub type Result<T> = std::result::Result<T, XmlError>;

// ---------- scalar helpers ----------

/// Encode a typed value as `<{name} type="...">text</{name}>`.
pub fn value_el(name: &str, v: &Value) -> Element {
    let (ty, text) = match v {
        Value::Null => ("null", String::new()),
        Value::Int(i) => ("int", i.to_string()),
        Value::Float(x) => ("float", format_float(*x)),
        Value::Str(s) => ("string", s.to_string()),
        Value::Bool(b) => ("bool", b.to_string()),
        Value::Date(d) => ("date", d.to_string()),
        Value::Time(t) => ("time", t.to_string()),
        Value::DateTime(dt) => ("datetime", dt.to_string()),
    };
    let e = Element::new(name).attr("type", ty);
    if text.is_empty() {
        e
    } else {
        e.text(text)
    }
}

fn format_float(x: f64) -> String {
    if x.is_nan() {
        "NaN".into()
    } else if x.is_infinite() {
        if x > 0.0 { "inf".into() } else { "-inf".into() }
    } else {
        // Rust's shortest round-trip formatting
        format!("{x}")
    }
}

/// Decode a value element produced by [`value_el`].
pub fn value_from(e: &Element) -> Result<Value> {
    let ty = e.attr_value("type").ok_or_else(|| shape("value without type"))?;
    let text = e.text_content();
    Ok(match ty {
        "null" => Value::Null,
        "int" => Value::Int(text.parse().map_err(|_| shape(format!("bad int `{text}`")))?),
        "float" => Value::Float(match text.as_str() {
            "NaN" => f64::NAN,
            "inf" => f64::INFINITY,
            "-inf" => f64::NEG_INFINITY,
            t => t.parse().map_err(|_| shape(format!("bad float `{t}`")))?,
        }),
        "string" => Value::from(text),
        "bool" => Value::Bool(parse_bool(&text)?),
        "date" => Value::Date(Date::parse(&text).map_err(|e| shape(e.to_string()))?),
        "time" => Value::Time(Time::parse(&text).map_err(|e| shape(e.to_string()))?),
        "datetime" => {
            Value::DateTime(DateTime::parse(&text).map_err(|e| shape(e.to_string()))?)
        }
        other => return Err(shape(format!("unknown value type `{other}`"))),
    })
}

/// `<{name}>text</{name}>`.
pub fn text_el(name: &str, text: impl Into<String>) -> Element {
    Element::new(name).text(text)
}

/// Required child element's text.
pub fn req_text(e: &Element, name: &str) -> Result<String> {
    Ok(e.expect(name)?.text_content())
}

/// Optional child element's text (absent element = None).
pub fn opt_text(e: &Element, name: &str) -> Option<String> {
    e.find(name).map(|c| c.text_content())
}

/// Required child parsed as i64.
pub fn req_i64(e: &Element, name: &str) -> Result<i64> {
    req_text(e, name)?.parse().map_err(|_| shape(format!("bad i64 in <{name}>")))
}

/// Required child parsed as bool.
pub fn req_bool(e: &Element, name: &str) -> Result<bool> {
    parse_bool(&req_text(e, name)?)
}

/// Exactly the `true` or `false` the encoders write; anything else is a
/// malformed request, as a bool byte other than 0 or 1 is on the binary
/// wire.
fn parse_bool(text: &str) -> Result<bool> {
    match text {
        "true" => Ok(true),
        "false" => Ok(false),
        t => Err(shape(format!("bad bool `{t}`"))),
    }
}

fn req_datetime(e: &Element, name: &str) -> Result<DateTime> {
    DateTime::parse(&req_text(e, name)?).map_err(|e| shape(e.to_string()))
}

fn opt_datetime(e: &Element, name: &str) -> Result<Option<DateTime>> {
    opt_text(e, name)
        .map(|t| DateTime::parse(&t).map_err(|e| shape(e.to_string())))
        .transpose()
}

// ---------- credential ----------

/// Encode a credential.
pub fn credential_el(c: &Credential) -> Element {
    let mut e = Element::new("credential").child(text_el("dn", &c.dn));
    for g in &c.groups {
        e = e.child(text_el("group", g));
    }
    e
}

/// Decode a credential from a method element.
pub fn credential_from(call: &Element) -> Result<Credential> {
    let e = call.expect("credential")?;
    Ok(Credential {
        dn: req_text(e, "dn")?,
        groups: e.find_all("group").map(|g| g.text_content()).collect(),
    })
}

// ---------- object references ----------

/// Encode an [`ObjectRef`].
pub fn objref_el(r: &ObjectRef) -> Element {
    match r {
        ObjectRef::File(n) => Element::new("object").attr("kind", "file").text(n),
        ObjectRef::FileVersion(n, v) => Element::new("object")
            .attr("kind", "fileVersion")
            .attr("version", v.to_string())
            .text(n),
        ObjectRef::Collection(n) => Element::new("object").attr("kind", "collection").text(n),
        ObjectRef::View(n) => Element::new("object").attr("kind", "view").text(n),
        ObjectRef::Service => Element::new("object").attr("kind", "service"),
    }
}

/// Decode an [`ObjectRef`] child of a method element.
pub fn objref_from(call: &Element) -> Result<ObjectRef> {
    let e = call.expect("object")?;
    let kind = e.attr_value("kind").ok_or_else(|| shape("object without kind"))?;
    let name = e.text_content();
    Ok(match kind {
        "file" => ObjectRef::File(name),
        "fileVersion" => {
            let v = e
                .attr_value("version")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| shape("fileVersion without version"))?;
            ObjectRef::FileVersion(name, v)
        }
        "collection" => ObjectRef::Collection(name),
        "view" => ObjectRef::View(name),
        "service" => ObjectRef::Service,
        other => return Err(shape(format!("unknown object kind `{other}`"))),
    })
}

// ---------- attributes & predicates ----------

/// Encode one attribute.
pub fn attribute_el(a: &Attribute) -> Element {
    Element::new("attribute").attr("name", a.name.as_str()).child(value_el("value", &a.value))
}

/// Decode one attribute element.
pub fn attribute_from(e: &Element) -> Result<Attribute> {
    Ok(Attribute {
        name: e.attr_value("name").ok_or_else(|| shape("attribute without name"))?.to_owned(),
        value: value_from(e.expect("value")?)?,
    })
}

/// Encode a query predicate.
pub fn predicate_el(p: &AttrPredicate) -> Element {
    Element::new("predicate")
        .attr("name", p.name.as_str())
        .attr("op", op_code(p.op))
        .child(value_el("value", &p.value))
}

/// Decode a query predicate.
pub fn predicate_from(e: &Element) -> Result<AttrPredicate> {
    Ok(AttrPredicate {
        name: e.attr_value("name").ok_or_else(|| shape("predicate without name"))?.to_owned(),
        op: op_from(e.attr_value("op").ok_or_else(|| shape("predicate without op"))?)?,
        value: value_from(e.expect("value")?)?,
    })
}

/// Text codes for the catalog's small enums: `*_code` gives the code,
/// `*_from` decodes it and rejects unknown text.
macro_rules! text_enums {
    ($($ty:ident, $code:ident, $from:ident, $what:literal { $($v:ident = $text:literal),* };)*) => {$(
        #[doc = concat!("Encode an [`", stringify!($ty), "`].")]
        pub fn $code(v: $ty) -> &'static str {
            match v { $($ty::$v => $text),* }
        }

        #[doc = concat!("Decode an [`", stringify!($ty), "`].")]
        pub fn $from(s: &str) -> Result<$ty> {
            Ok(match s {
                $($text => $ty::$v,)*
                other => return Err(shape(format!(concat!("unknown ", $what, " `{}`"), other))),
            })
        }
    )*};
}

text_enums! {
    AttrOp, op_code, op_from, "op"
        { Eq = "eq", Ne = "ne", Lt = "lt", Le = "le", Gt = "gt", Ge = "ge", Like = "like" };
    AttrType, attr_type_code, attr_type_from, "attr type" {
        Str = "string", Int = "int", Float = "float", Date = "date", Time = "time",
        DateTime = "datetime"
    };
    Permission, permission_code, permission_from, "permission"
        { Read = "read", Write = "write", Delete = "delete", Admin = "admin" };
    ObjectType, object_type_code, object_type_from, "object type"
        { File = "file", Collection = "collection", View = "view", Service = "service" };
}

// ---------- records ----------

fn opt_child(mut e: Element, name: &str, v: &Option<String>) -> Element {
    if let Some(s) = v {
        e = e.child(text_el(name, s));
    }
    e
}

/// Encode a [`LogicalFile`].
pub fn file_el(f: &LogicalFile) -> Element {
    let mut e = Element::new("file")
        .child(text_el("id", f.id.to_string()))
        .child(text_el("name", &f.name))
        .child(text_el("version", f.version.to_string()))
        .child(text_el("valid", f.valid.to_string()))
        .child(text_el("creator", &f.creator))
        .child(text_el("created", f.created.to_string()))
        .child(text_el("auditEnabled", f.audit_enabled.to_string()));
    e = opt_child(e, "dataType", &f.data_type);
    if let Some(cid) = f.collection_id {
        e = e.child(text_el("collectionId", cid.to_string()));
    }
    e = opt_child(e, "containerId", &f.container_id);
    e = opt_child(e, "containerService", &f.container_service);
    e = opt_child(e, "lastModifier", &f.last_modifier);
    if let Some(lm) = f.last_modified {
        e = e.child(text_el("lastModified", lm.to_string()));
    }
    opt_child(e, "masterCopy", &f.master_copy)
}

/// Decode a [`LogicalFile`].
pub fn file_from(e: &Element) -> Result<LogicalFile> {
    Ok(LogicalFile {
        id: req_i64(e, "id")?,
        name: req_text(e, "name")?,
        version: req_i64(e, "version")?,
        data_type: opt_text(e, "dataType"),
        valid: req_bool(e, "valid")?,
        collection_id: opt_text(e, "collectionId")
            .map(|s| s.parse().map_err(|_| shape("bad collectionId")))
            .transpose()?,
        container_id: opt_text(e, "containerId"),
        container_service: opt_text(e, "containerService"),
        creator: req_text(e, "creator")?,
        created: req_datetime(e, "created")?,
        last_modifier: opt_text(e, "lastModifier"),
        last_modified: opt_datetime(e, "lastModified")?,
        master_copy: opt_text(e, "masterCopy"),
        audit_enabled: req_bool(e, "auditEnabled")?,
    })
}

/// Encode a [`Collection`].
pub fn collection_el(c: &Collection) -> Element {
    let mut e = Element::new("collection")
        .child(text_el("id", c.id.to_string()))
        .child(text_el("name", &c.name))
        .child(text_el("description", &c.description))
        .child(text_el("creator", &c.creator))
        .child(text_el("created", c.created.to_string()))
        .child(text_el("auditEnabled", c.audit_enabled.to_string()));
    if let Some(p) = c.parent_id {
        e = e.child(text_el("parentId", p.to_string()));
    }
    e = opt_child(e, "lastModifier", &c.last_modifier);
    if let Some(lm) = c.last_modified {
        e = e.child(text_el("lastModified", lm.to_string()));
    }
    e
}

/// Decode a [`Collection`].
pub fn collection_from(e: &Element) -> Result<Collection> {
    Ok(Collection {
        id: req_i64(e, "id")?,
        name: req_text(e, "name")?,
        description: req_text(e, "description")?,
        parent_id: opt_text(e, "parentId")
            .map(|s| s.parse().map_err(|_| shape("bad parentId")))
            .transpose()?,
        creator: req_text(e, "creator")?,
        created: req_datetime(e, "created")?,
        last_modifier: opt_text(e, "lastModifier"),
        last_modified: opt_datetime(e, "lastModified")?,
        audit_enabled: req_bool(e, "auditEnabled")?,
    })
}

/// Encode a [`View`].
pub fn view_el(v: &View) -> Element {
    let mut e = Element::new("view")
        .child(text_el("id", v.id.to_string()))
        .child(text_el("name", &v.name))
        .child(text_el("description", &v.description))
        .child(text_el("creator", &v.creator))
        .child(text_el("created", v.created.to_string()))
        .child(text_el("auditEnabled", v.audit_enabled.to_string()));
    e = opt_child(e, "lastModifier", &v.last_modifier);
    if let Some(lm) = v.last_modified {
        e = e.child(text_el("lastModified", lm.to_string()));
    }
    e
}

/// Decode a [`View`].
pub fn view_from(e: &Element) -> Result<View> {
    Ok(View {
        id: req_i64(e, "id")?,
        name: req_text(e, "name")?,
        description: req_text(e, "description")?,
        creator: req_text(e, "creator")?,
        created: req_datetime(e, "created")?,
        last_modifier: opt_text(e, "lastModifier"),
        last_modified: opt_datetime(e, "lastModified")?,
        audit_enabled: req_bool(e, "auditEnabled")?,
    })
}

/// Encode a [`FileSpec`].
pub fn filespec_el(s: &FileSpec) -> Element {
    let mut e = Element::new("fileSpec").child(text_el("name", &s.name));
    if let Some(v) = s.version {
        e = e.child(text_el("version", v.to_string()));
    }
    e = opt_child(e, "dataType", &s.data_type);
    e = opt_child(e, "collection", &s.collection);
    e = opt_child(e, "containerId", &s.container_id);
    e = opt_child(e, "containerService", &s.container_service);
    e = opt_child(e, "masterCopy", &s.master_copy);
    e = e.child(text_el("audit", s.audit.to_string()));
    for a in &s.attributes {
        e = e.child(attribute_el(a));
    }
    e
}

/// Decode a [`FileSpec`].
pub fn filespec_from(e: &Element) -> Result<FileSpec> {
    Ok(FileSpec {
        name: req_text(e, "name")?,
        version: opt_text(e, "version")
            .map(|s| s.parse().map_err(|_| shape("bad version")))
            .transpose()?,
        data_type: opt_text(e, "dataType"),
        collection: opt_text(e, "collection"),
        container_id: opt_text(e, "containerId"),
        container_service: opt_text(e, "containerService"),
        master_copy: opt_text(e, "masterCopy"),
        audit: req_bool(e, "audit")?,
        attributes: e.find_all("attribute").map(attribute_from).collect::<Result<_>>()?,
    })
}

/// Encode a [`FileUpdate`].
pub fn fileupdate_el(u: &FileUpdate) -> Element {
    let mut e = Element::new("fileUpdate");
    e = opt_child(e, "dataType", &u.data_type);
    if let Some(v) = u.valid {
        e = e.child(text_el("valid", v.to_string()));
    }
    e = opt_child(e, "masterCopy", &u.master_copy);
    e = opt_child(e, "containerId", &u.container_id);
    opt_child(e, "containerService", &u.container_service)
}

/// Decode a [`FileUpdate`].
pub fn fileupdate_from(e: &Element) -> Result<FileUpdate> {
    Ok(FileUpdate {
        data_type: opt_text(e, "dataType"),
        valid: opt_text(e, "valid").map(|s| parse_bool(&s)).transpose()?,
        master_copy: opt_text(e, "masterCopy"),
        container_id: opt_text(e, "containerId"),
        container_service: opt_text(e, "containerService"),
    })
}

/// Encode collection contents.
pub fn collection_contents_el(c: &CollectionContents) -> Element {
    let mut e = Element::new("contents");
    for (n, v) in &c.files {
        e = e.child(Element::new("file").attr("version", v.to_string()).text(n));
    }
    for n in &c.subcollections {
        e = e.child(text_el("subcollection", n));
    }
    e
}

/// Decode collection contents.
pub fn collection_contents_from(e: &Element) -> Result<CollectionContents> {
    let mut out = CollectionContents::default();
    for f in e.find_all("file") {
        let v = f
            .attr_value("version")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| shape("file without version"))?;
        out.files.push((f.text_content(), v));
    }
    out.subcollections = e.find_all("subcollection").map(|c| c.text_content()).collect();
    Ok(out)
}

/// Encode view contents.
pub fn view_contents_el(c: &ViewContents) -> Element {
    let mut e = Element::new("contents");
    for (n, v) in &c.files {
        e = e.child(Element::new("file").attr("version", v.to_string()).text(n));
    }
    for n in &c.collections {
        e = e.child(text_el("collection", n));
    }
    for n in &c.views {
        e = e.child(text_el("view", n));
    }
    e
}

/// Decode view contents.
pub fn view_contents_from(e: &Element) -> Result<ViewContents> {
    let mut out = ViewContents::default();
    for f in e.find_all("file") {
        let v = f
            .attr_value("version")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| shape("file without version"))?;
        out.files.push((f.text_content(), v));
    }
    out.collections = e.find_all("collection").map(|c| c.text_content()).collect();
    out.views = e.find_all("view").map(|c| c.text_content()).collect();
    Ok(out)
}

/// Encode an annotation.
pub fn annotation_el(a: &Annotation) -> Element {
    Element::new("annotation")
        .attr("objectType", object_type_code(a.object_type))
        .attr("objectId", a.object_id.to_string())
        .child(text_el("text", &a.text))
        .child(text_el("creator", &a.creator))
        .child(text_el("created", a.created.to_string()))
}

/// Decode an annotation.
pub fn annotation_from(e: &Element) -> Result<Annotation> {
    Ok(Annotation {
        object_type: object_type_from(
            e.attr_value("objectType").ok_or_else(|| shape("no objectType"))?,
        )?,
        object_id: e
            .attr_value("objectId")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| shape("bad objectId"))?,
        text: req_text(e, "text")?,
        creator: req_text(e, "creator")?,
        created: req_datetime(e, "created")?,
    })
}

/// Encode an audit record.
pub fn audit_el(r: &AuditRecord) -> Element {
    Element::new("audit")
        .attr("objectType", object_type_code(r.object_type))
        .attr("objectId", r.object_id.to_string())
        .child(text_el("action", &r.action))
        .child(text_el("actor", &r.actor))
        .child(text_el("at", r.at.to_string()))
        .child(text_el("details", &r.details))
}

/// Decode an audit record.
pub fn audit_from(e: &Element) -> Result<AuditRecord> {
    Ok(AuditRecord {
        object_type: object_type_from(
            e.attr_value("objectType").ok_or_else(|| shape("no objectType"))?,
        )?,
        object_id: e
            .attr_value("objectId")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| shape("bad objectId"))?,
        action: req_text(e, "action")?,
        actor: req_text(e, "actor")?,
        at: req_datetime(e, "at")?,
        details: req_text(e, "details")?,
    })
}

/// Encode a history record.
pub fn history_el(r: &HistoryRecord) -> Element {
    Element::new("history")
        .attr("fileId", r.file_id.to_string())
        .child(text_el("description", &r.description))
        .child(text_el("actor", &r.actor))
        .child(text_el("at", r.at.to_string()))
}

/// Decode a history record.
pub fn history_from(e: &Element) -> Result<HistoryRecord> {
    Ok(HistoryRecord {
        file_id: e
            .attr_value("fileId")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| shape("bad fileId"))?,
        description: req_text(e, "description")?,
        actor: req_text(e, "actor")?,
        at: req_datetime(e, "at")?,
    })
}

/// Encode a user record.
pub fn user_el(u: &UserRecord) -> Element {
    Element::new("user")
        .child(text_el("dn", &u.dn))
        .child(text_el("description", &u.description))
        .child(text_el("institution", &u.institution))
        .child(text_el("email", &u.email))
        .child(text_el("phone", &u.phone))
}

/// Decode a user record.
pub fn user_from(e: &Element) -> Result<UserRecord> {
    Ok(UserRecord {
        dn: req_text(e, "dn")?,
        description: req_text(e, "description")?,
        institution: req_text(e, "institution")?,
        email: req_text(e, "email")?,
        phone: req_text(e, "phone")?,
    })
}

/// Encode an external catalog record.
pub fn extcat_el(c: &ExternalCatalog) -> Element {
    Element::new("externalCatalog")
        .child(text_el("name", &c.name))
        .child(text_el("catalogType", &c.catalog_type))
        .child(text_el("host", &c.host))
        .child(text_el("ip", &c.ip))
        .child(text_el("description", &c.description))
}

/// Decode an external catalog record.
pub fn extcat_from(e: &Element) -> Result<ExternalCatalog> {
    Ok(ExternalCatalog {
        name: req_text(e, "name")?,
        catalog_type: req_text(e, "catalogType")?,
        host: req_text(e, "host")?,
        ip: req_text(e, "ip")?,
        description: req_text(e, "description")?,
    })
}

/// Encode a list of (name, version) hits.
pub fn hits_el(hits: &[(String, i64)]) -> Element {
    let mut e = Element::new("hits");
    for (n, v) in hits {
        e = e.child(Element::new("file").attr("version", v.to_string()).text(n));
    }
    e
}

/// Decode a list of (name, version) hits.
pub fn hits_from(e: &Element) -> Result<Vec<(String, i64)>> {
    e.find_all("file")
        .map(|f| {
            let v = f
                .attr_value("version")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| shape("file without version"))?;
            Ok((f.text_content(), v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs::ManualClock;
    use mcs::Clock;

    fn dt() -> DateTime {
        ManualClock::default().now()
    }

    #[test]
    fn value_roundtrip_all_types() {
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::from("hi <&> there"),
            Value::Bool(true),
            Value::Date(Date::new(2003, 11, 15).unwrap()),
            Value::Time(Time::new(8, 30, 0).unwrap()),
            Value::DateTime(dt()),
        ] {
            let e = value_el("value", &v);
            let wire = e.to_xml();
            let back = value_from(&soapstack::xml::parse(&wire).unwrap()).unwrap();
            match (&v, &back) {
                (Value::Float(a), Value::Float(b)) if a.is_nan() => assert!(b.is_nan()),
                _ => assert_eq!(back, v),
            }
        }
    }

    #[test]
    fn float_shortest_roundtrip() {
        for x in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.2250738585072014e-308] {
            let e = value_el("v", &Value::Float(x));
            let back = value_from(&soapstack::xml::parse(&e.to_xml()).unwrap()).unwrap();
            assert_eq!(back, Value::Float(x));
        }
    }

    #[test]
    fn file_roundtrip_full_and_minimal() {
        let full = LogicalFile {
            id: 7,
            name: "f <1>".into(),
            version: 3,
            data_type: Some("binary".into()),
            valid: false,
            collection_id: Some(12),
            container_id: Some("c".into()),
            container_service: Some("http://x".into()),
            creator: "/CN=a&b".into(),
            created: dt(),
            last_modifier: Some("/CN=m".into()),
            last_modified: Some(dt()),
            master_copy: Some("gsiftp://h/f".into()),
            audit_enabled: true,
        };
        let back = file_from(&soapstack::xml::parse(&file_el(&full).to_xml()).unwrap()).unwrap();
        assert_eq!(back, full);
        let minimal = LogicalFile {
            id: 1,
            name: "f".into(),
            version: 1,
            data_type: None,
            valid: true,
            collection_id: None,
            container_id: None,
            container_service: None,
            creator: "/CN=a".into(),
            created: dt(),
            last_modifier: None,
            last_modified: None,
            master_copy: None,
            audit_enabled: false,
        };
        let back =
            file_from(&soapstack::xml::parse(&file_el(&minimal).to_xml()).unwrap()).unwrap();
        assert_eq!(back, minimal);
    }

    #[test]
    fn filespec_roundtrip() {
        let s = FileSpec::named("f").attr("a", 1i64).attr("b", "x").in_collection("c");
        let back =
            filespec_from(&soapstack::xml::parse(&filespec_el(&s).to_xml()).unwrap()).unwrap();
        assert_eq!(back.name, s.name);
        assert_eq!(back.collection, s.collection);
        assert_eq!(back.attributes, s.attributes);
    }

    #[test]
    fn predicate_and_objref_roundtrip() {
        for p in [
            AttrPredicate::eq("a", 1i64),
            AttrPredicate { name: "b".into(), op: AttrOp::Like, value: "x%".into() },
            AttrPredicate { name: "c".into(), op: AttrOp::Ge, value: 2.5f64.into() },
        ] {
            let back =
                predicate_from(&soapstack::xml::parse(&predicate_el(&p).to_xml()).unwrap())
                    .unwrap();
            assert_eq!(back, p);
        }
        for r in [
            ObjectRef::File("f".into()),
            ObjectRef::FileVersion("f".into(), 2),
            ObjectRef::Collection("c".into()),
            ObjectRef::View("v".into()),
            ObjectRef::Service,
        ] {
            let call = Element::new("call").child(objref_el(&r));
            let back =
                objref_from(&soapstack::xml::parse(&call.to_xml()).unwrap()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn credential_roundtrip() {
        let c = Credential::with_groups("/CN=a", ["g1", "g2"]);
        let call = Element::new("call").child(credential_el(&c));
        let back = credential_from(&soapstack::xml::parse(&call.to_xml()).unwrap()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn contents_and_hits_roundtrip() {
        let cc = CollectionContents {
            files: vec![("a".into(), 1), ("b".into(), 2)],
            subcollections: vec!["sub".into()],
        };
        let back = collection_contents_from(
            &soapstack::xml::parse(&collection_contents_el(&cc).to_xml()).unwrap(),
        )
        .unwrap();
        assert_eq!(back, cc);
        let hits = vec![("x".to_string(), 1i64), ("y".to_string(), 9)];
        let back =
            hits_from(&soapstack::xml::parse(&hits_el(&hits).to_xml()).unwrap()).unwrap();
        assert_eq!(back, hits);
    }
}
