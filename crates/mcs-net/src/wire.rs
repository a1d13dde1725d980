//! SOAP encoding helpers: typed values, text elements, credentials and
//! object references, which are not records.
//!
//! The encoding is doc/literal-ish: every record becomes an element whose
//! children are named fields; typed values carry a `type` attribute. A
//! record's layout lives in its entry of the record table in
//! [`crate::codec`], which derives both its SOAP and its binary codec;
//! the `*_el`/`*_from` functions for files, file specs and predicates
//! here forward to it. Both the server and the client use these codecs,
//! so a round-trip through them is the identity (property-tested).

use std::borrow::Cow;

use mcs::{AttrPredicate, Credential, FileSpec, LogicalFile, ObjectRef};
use relstore::{Date, DateTime, Time, Value};
use soapstack::xml::{Element, Node, Str, XmlError};

use crate::codec::{Arg, Record};

/// Wire-decoding error.
pub fn shape(msg: impl Into<String>) -> XmlError {
    XmlError::Shape(msg.into())
}

/// Result alias for wire decoding.
pub type Result<T> = std::result::Result<T, XmlError>;

// ---------- scalar helpers ----------

/// Encode a typed value as `<{name} type="...">text</{name}>`; a string
/// value's text borrows from `v`.
pub fn value_el<'a>(name: &'static str, v: &'a Value) -> Element<'a> {
    let (ty, text) = match v {
        Value::Null => ("null", Str::Lit("")),
        Value::Int(i) => ("int", Str::Owned(i.to_string())),
        Value::Float(x) => ("float", Str::Owned(format_float(*x))),
        Value::Str(s) => ("string", Str::Borrowed(s)),
        Value::Bool(b) => ("bool", Str::Lit(if *b { "true" } else { "false" })),
        Value::Date(d) => ("date", Str::Owned(d.to_string())),
        Value::Time(t) => ("time", Str::Owned(t.to_string())),
        Value::DateTime(dt) => ("datetime", Str::Owned(dt.to_string())),
    };
    let e = Element::new(Str::Lit(name)).attr("type", Str::Lit(ty));
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
    let text = &*text;
    Ok(match ty {
        "null" => Value::Null,
        "int" => Value::Int(text.parse().map_err(|_| shape(format!("bad int `{text}`")))?),
        "float" => Value::Float(match text {
            "NaN" => f64::NAN,
            "inf" => f64::INFINITY,
            "-inf" => f64::NEG_INFINITY,
            t => t.parse().map_err(|_| shape(format!("bad float `{t}`")))?,
        }),
        "string" => Value::from(text),
        "bool" => Value::Bool(parse_bool(text)?),
        "date" => Value::Date(Date::parse(text).map_err(|e| shape(e.to_string()))?),
        "time" => Value::Time(Time::parse(text).map_err(|e| shape(e.to_string()))?),
        "datetime" => {
            Value::DateTime(DateTime::parse(text).map_err(|e| shape(e.to_string()))?)
        }
        other => return Err(shape(format!("unknown value type `{other}`"))),
    })
}

/// `<{name}>text</{name}>`.
pub fn text_el<'a>(name: &'static str, text: impl Into<Str<'a>>) -> Element<'a> {
    Element::new(Str::Lit(name)).text(text)
}

/// Required child element's text, borrowed from the element.
pub fn req_str<'e>(e: &'e Element, name: &str) -> Result<Cow<'e, str>> {
    Ok(e.expect(name)?.text_content())
}

/// Required child element's text.
pub fn req_text(e: &Element, name: &str) -> Result<String> {
    Ok(req_str(e, name)?.into_owned())
}

/// Optional child element's text (absent element = None).
pub fn opt_text(e: &Element, name: &str) -> Option<String> {
    e.find(name).map(|c| c.text_content().into_owned())
}

/// Required child parsed as i64.
pub fn req_i64(e: &Element, name: &str) -> Result<i64> {
    req_str(e, name)?.parse().map_err(|_| shape(format!("bad i64 in <{name}>")))
}

/// Required child parsed as bool.
pub fn req_bool(e: &Element, name: &str) -> Result<bool> {
    parse_bool(&req_str(e, name)?)
}

/// Exactly the `true` or `false` the encoders write; anything else is a
/// malformed request, as a bool byte other than 0 or 1 is on the binary
/// wire.
pub fn parse_bool(text: &str) -> Result<bool> {
    match text {
        "true" => Ok(true),
        "false" => Ok(false),
        t => Err(shape(format!("bad bool `{t}`"))),
    }
}

// ---------- credential ----------

/// Encode a credential; the text borrows from `c`.
pub fn credential_el(c: &Credential) -> Element<'_> {
    let mut e = Element::new(Str::Lit("credential"));
    e.children.reserve_exact(1 + c.groups.len());
    e.push(Node::Element(text_el("dn", &c.dn)));
    for g in &c.groups {
        e.push(Node::Element(text_el("group", g)));
    }
    e
}

/// Decode a credential from a method element.
pub fn credential_from(call: &Element) -> Result<Credential> {
    let e = call.expect("credential")?;
    Ok(Credential {
        dn: req_text(e, "dn")?,
        groups: e.find_all("group").map(|g| g.text_content().into_owned()).collect(),
    })
}

// ---------- object references ----------

/// Encode an [`ObjectRef`]; the name borrows from `r`.
pub fn objref_el(r: &ObjectRef) -> Element<'_> {
    let object = |kind| Element::new(Str::Lit("object")).attr("kind", Str::Lit(kind));
    match r {
        ObjectRef::File(n) => object("file").text(n),
        ObjectRef::FileVersion(n, v) => {
            object("fileVersion").attr("version", v.to_string()).text(n)
        }
        ObjectRef::Collection(n) => object("collection").text(n),
        ObjectRef::View(n) => object("view").text(n),
        ObjectRef::Service => object("service"),
    }
}

/// Decode an [`ObjectRef`] child of a method element.
pub fn objref_from(call: &Element) -> Result<ObjectRef> {
    let e = call.expect("object")?;
    let kind = e.attr_value("kind").ok_or_else(|| shape("object without kind"))?;
    let name = e.text_content().into_owned();
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

// ---------- records ----------

/// Encode a [`LogicalFile`]; the text borrows from `f`.
pub fn file_el(f: &LogicalFile) -> Element<'_> {
    f.el()
}

/// Decode a [`LogicalFile`].
pub fn file_from(e: &Element) -> Result<LogicalFile> {
    LogicalFile::from_el(e)
}

/// Encode a [`FileSpec`], owning its text, so that a caller may pass a
/// temporary.
pub fn filespec_el(s: &FileSpec) -> Element<'static> {
    s.el().into_owned()
}

/// Decode a [`FileSpec`].
pub fn filespec_from(e: &Element) -> Result<FileSpec> {
    FileSpec::from_el(e)
}

/// Encode a query predicate; the text borrows from `p`.
pub fn predicate_el(p: &AttrPredicate) -> Element<'_> {
    p.el()
}

/// Decode a query predicate.
pub fn predicate_from(e: &Element) -> Result<AttrPredicate> {
    AttrPredicate::from_el(e)
}

/// Encode a list of (name, version) hits; the names borrow from `hits`.
pub fn hits_el(hits: &[(String, i64)]) -> Element<'_> {
    let mut e = Element::new(Str::Lit("hits"));
    e.children.reserve_exact(hits.len());
    hits.to_el("file", &mut e);
    e
}

/// Decode a list of (name, version) hits.
pub fn hits_from(e: &Element) -> Result<Vec<(String, i64)>> {
    <&[(String, i64)]>::from_el(e, "file")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs::{CollectionContents, ManualClock};
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
            let v = Value::Float(x);
            let e = value_el("v", &v);
            let back = value_from(&soapstack::xml::parse(&e.to_xml()).unwrap()).unwrap();
            assert_eq!(back, Value::Float(x));
        }
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
        let back =
            CollectionContents::from_el(&soapstack::xml::parse(&cc.el().to_xml()).unwrap())
                .unwrap();
        assert_eq!(back, cc);
        let hits = vec![("x".to_string(), 1i64), ("y".to_string(), 9)];
        let back =
            hits_from(&soapstack::xml::parse(&hits_el(&hits).to_xml()).unwrap()).unwrap();
        assert_eq!(back, hits);
    }
}
