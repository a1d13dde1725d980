//! Per-type codecs for both wires. Every argument and result type the
//! op table ([`crate::ops`]) names knows how to write itself into a
//! binary frame ([`crate::binproto::frame`]) and into SOAP elements
//! ([`crate::wire`]), and how to read itself back. The servers and the
//! client work through the [`Record`], [`Arg`] and [`Reply`] traits;
//! nothing here is per operation.
//!
//! Each record's layout is stated once, as its entry in the `records!`
//! table: its fields in binary order, each with its SOAP name and
//! placement (XML attribute or child elements) and its codec. The
//! macro derives [`Record::put`], [`Record::get`], [`Record::el`] and
//! [`Record::from_el`] from it. The fields' codecs are the [`Arg`]
//! impls the op table uses, and [`Scalar`] for numbers, booleans,
//! datetimes and the small enums, whose byte and text codes are one
//! table too (`enums!`).

use mcs::{
    Annotation, AttrOp, AttrPredicate, AttrType, Attribute, AuditRecord, Collection,
    CollectionContents, ExternalCatalog, FileSpec, FileUpdate, HistoryRecord, LogicalFile,
    ObjectRef, ObjectType, Permission, UserRecord, View, ViewContents,
};
use relstore::{DateTime, Value};
use soapstack::xml::{Element, Node, Str};

use crate::binproto::frame::{self, *};
use crate::client::{CacheStatsReport, CatalogInfoReport};
use crate::wire::{self, *};

/// Append `child` to the element `e`.
fn push<'a>(e: &mut Element<'a>, child: Element<'a>) {
    e.push(Node::Element(child));
}

/// A required child parsed as a number.
fn num<T: std::str::FromStr>(e: &Element, name: &str) -> wire::Result<T> {
    req_str(e, name)?.parse().map_err(|_| shape(format!("bad number in <{name}>")))
}

/// Epoch vectors travel as space-separated decimals on the SOAP wire.
fn epoch_list(epochs: &[u64]) -> String {
    epochs.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
}

fn epochs_from(e: &Element, name: &str) -> wire::Result<Vec<u64>> {
    let text = req_str(e, name)?;
    text.split_whitespace()
        .map(|v| v.parse().map_err(|_| shape(format!("bad epoch `{v}`"))))
        .collect()
}

/// A record: one struct encoding in a frame, one named element in SOAP.
/// Every record's layout is one entry of the `records!` table below.
pub trait Record: Sized {
    /// The SOAP element name.
    const TAG: &'static str;
    /// Append the binary encoding.
    fn put(&self, b: &mut Vec<u8>);
    /// Decode the binary encoding.
    fn get(r: &mut Reader) -> frame::Result<Self>;
    /// Encode as a SOAP element named [`Record::TAG`], whose tags are the
    /// table's literals and whose text borrows from the record.
    fn el(&self) -> Element<'_>;
    /// Decode a SOAP element named [`Record::TAG`].
    fn from_el(e: &Element) -> wire::Result<Self>;
}

/// An operation argument in the borrowed form the client passes, with
/// the owned form a server decodes it into and lends back through
/// [`Arg::view`]. On the SOAP wire an argument is a child of the method
/// element; scalars use the element name the op table gives them,
/// records their own [`Record::TAG`]. A record's fields travel the same
/// way inside the record's element.
pub trait Arg<'a>: Sized {
    /// What a server decodes the argument into.
    type Owned: 'a;
    /// Whether SOAP leaves the element out for an absent value.
    const OPTIONAL: bool = false;
    /// Borrow a decoded argument as the call's argument.
    fn view(owned: &'a Self::Owned) -> Self;
    /// Append the binary encoding.
    fn put(&self, b: &mut Vec<u8>);
    /// Decode the binary encoding.
    fn get(r: &mut Reader) -> frame::Result<Self::Owned>;
    /// Append as child element(s) `name` of the method element `a`,
    /// borrowing the text from the argument.
    fn to_el(self, name: &'static str, a: &mut Element<'a>);
    /// Decode from the method element `call`.
    fn from_el(call: &Element, name: &str) -> wire::Result<Self::Owned>;
}

/// An option in a frame: a presence byte, then the value.
fn put_opt<T>(b: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        None => put_u8(b, 0),
        Some(v) => {
            put_u8(b, 1);
            put(b, v)
        }
    }
}

fn get_opt<'b, T>(
    r: &mut Reader<'b>,
    get: impl FnOnce(&mut Reader<'b>) -> frame::Result<T>,
) -> frame::Result<Option<T>> {
    match r.u8()? {
        0 => Ok(None),
        1 => get(r).map(Some),
        other => Err(FrameError(format!("bad option byte {other}"))),
    }
}

impl<'a> Arg<'a> for &'a str {
    type Owned = String;
    fn view(owned: &'a String) -> Self {
        owned
    }
    fn put(&self, b: &mut Vec<u8>) {
        put_str(b, self)
    }
    fn get(r: &mut Reader) -> frame::Result<String> {
        r.str()
    }
    fn to_el(self, name: &'static str, a: &mut Element<'a>) {
        push(a, text_el(name, self))
    }
    fn from_el(call: &Element, name: &str) -> wire::Result<String> {
        req_text(call, name)
    }
}

/// An optional name: a presence byte in a frame, an omitted element in
/// SOAP.
impl<'a> Arg<'a> for Option<&'a str> {
    type Owned = Option<String>;
    const OPTIONAL: bool = true;
    fn view(owned: &'a Option<String>) -> Self {
        owned.as_deref()
    }
    fn put(&self, b: &mut Vec<u8>) {
        put_opt(b, *self, put_str)
    }
    fn get(r: &mut Reader) -> frame::Result<Option<String>> {
        get_opt(r, Reader::str)
    }
    fn to_el(self, name: &'static str, a: &mut Element<'a>) {
        if let Some(s) = self {
            push(a, text_el(name, s))
        }
    }
    fn from_el(call: &Element, name: &str) -> wire::Result<Option<String>> {
        Ok(opt_text(call, name))
    }
}

impl<'a, T: Record + 'a> Arg<'a> for &'a T {
    type Owned = T;
    fn view(owned: &'a T) -> Self {
        owned
    }
    fn put(&self, b: &mut Vec<u8>) {
        Record::put(*self, b)
    }
    fn get(r: &mut Reader) -> frame::Result<T> {
        <T as Record>::get(r)
    }
    fn to_el(self, _: &'static str, a: &mut Element<'a>) {
        push(a, self.el())
    }
    fn from_el(call: &Element, _: &str) -> wire::Result<T> {
        <T as Record>::from_el(call.expect(T::TAG)?)
    }
}

/// A batch: a count and the records in a frame, repeated elements in
/// SOAP.
impl<'a, T: Record + 'a> Arg<'a> for &'a [T] {
    type Owned = Vec<T>;
    fn view(owned: &'a Vec<T>) -> Self {
        owned
    }
    fn put(&self, b: &mut Vec<u8>) {
        put_u32(b, self.len() as u32);
        self.iter().for_each(|t| Record::put(t, b));
    }
    fn get(r: &mut Reader) -> frame::Result<Vec<T>> {
        let n = r.seq_len()?;
        (0..n).map(|_| <T as Record>::get(r)).collect()
    }
    fn to_el(self, _: &'static str, a: &mut Element<'a>) {
        self.iter().for_each(|t| push(a, t.el()));
    }
    fn from_el(call: &Element, _: &str) -> wire::Result<Vec<T>> {
        call.find_all(T::TAG).map(<T as Record>::from_el).collect()
    }
}

/// An object reference is an `object` element whose kind rides in an
/// attribute, so it decodes from the method element, not from itself.
impl<'a> Arg<'a> for &'a ObjectRef {
    type Owned = ObjectRef;
    fn view(owned: &'a ObjectRef) -> Self {
        owned
    }
    fn put(&self, b: &mut Vec<u8>) {
        put_objref(b, self)
    }
    fn get(r: &mut Reader) -> frame::Result<ObjectRef> {
        get_objref(r)
    }
    fn to_el(self, _: &'static str, a: &mut Element<'a>) {
        push(a, objref_el(self))
    }
    fn from_el(call: &Element, _: &str) -> wire::Result<ObjectRef> {
        objref_from(call)
    }
}

/// A typed value: a tag byte and its payload in a frame, an element
/// with a `type` attribute in SOAP.
impl<'a> Arg<'a> for &'a Value {
    type Owned = Value;
    fn view(owned: &'a Value) -> Self {
        owned
    }
    fn put(&self, b: &mut Vec<u8>) {
        put_value(b, self)
    }
    fn get(r: &mut Reader) -> frame::Result<Value> {
        get_value(r)
    }
    fn to_el(self, name: &'static str, a: &mut Element<'a>) {
        push(a, value_el(name, self))
    }
    fn from_el(call: &Element, name: &str) -> wire::Result<Value> {
        value_from(call.expect(name)?)
    }
}

/// (name, version) pairs: a hit list in a frame, repeated elements in
/// SOAP, each like `<file version="3">run-7.dat</file>`.
impl<'a> Arg<'a> for &'a [(String, i64)] {
    type Owned = Vec<(String, i64)>;
    fn view(owned: &'a Vec<(String, i64)>) -> Self {
        owned
    }
    fn put(&self, b: &mut Vec<u8>) {
        put_hits(b, self)
    }
    fn get(r: &mut Reader) -> frame::Result<Vec<(String, i64)>> {
        get_hits(r)
    }
    fn to_el(self, name: &'static str, a: &mut Element<'a>) {
        for (n, v) in self {
            push(a, Element::new(Str::Lit(name)).attr("version", v.to_string()).text(n));
        }
    }
    fn from_el(call: &Element, name: &str) -> wire::Result<Vec<(String, i64)>> {
        call.find_all(name)
            .map(|f| {
                let v = f.attr_value("version").and_then(|v| v.parse().ok());
                let v = v.ok_or_else(|| shape(format!("{name} without version")))?;
                Ok((f.text_content().into_owned(), v))
            })
            .collect()
    }
}

/// Names: a string list in a frame, repeated text elements in SOAP.
impl<'a> Arg<'a> for &'a [String] {
    type Owned = Vec<String>;
    fn view(owned: &'a Vec<String>) -> Self {
        owned
    }
    fn put(&self, b: &mut Vec<u8>) {
        put_strs(b, self)
    }
    fn get(r: &mut Reader) -> frame::Result<Vec<String>> {
        get_strs(r)
    }
    fn to_el(self, name: &'static str, a: &mut Element<'a>) {
        self.iter().for_each(|s| push(a, text_el(name, s)));
    }
    fn from_el(call: &Element, name: &str) -> wire::Result<Vec<String>> {
        Ok(call.find_all(name).map(|e| e.text_content().into_owned()).collect())
    }
}

/// A scalar: a fixed encoding in a frame, one text node in SOAP (an
/// element's content, or an XML attribute's value).
pub trait Scalar: Sized {
    /// Append the binary encoding.
    fn put(&self, b: &mut Vec<u8>);
    /// Decode the binary encoding.
    fn get(r: &mut Reader) -> frame::Result<Self>;
    /// The SOAP text, borrowed where the value holds it.
    fn text(&self) -> Str<'_>;
    /// Parse the SOAP text of the element or XML attribute `name`.
    fn parse(s: &str, name: &str) -> wire::Result<Self>;
}

macro_rules! scalars {
    ($($ty:ty: $put:expr, $get:expr, |$v:ident| $text:expr, $parse:expr;)*) => {$(
        impl Scalar for $ty {
            fn put(&self, b: &mut Vec<u8>) {
                $put(b, self)
            }
            fn get(r: &mut Reader) -> frame::Result<$ty> {
                $get(r)
            }
            fn text(&self) -> Str<'_> {
                let $v = self;
                $text
            }
            fn parse(s: &str, name: &str) -> wire::Result<$ty> {
                $parse(s, name)
            }
        }
    )*};
}

scalars! {
    String: |b, s: &String| put_str(b, s), Reader::str, |s| Str::Borrowed(s),
        |s: &str, _| Ok(s.to_owned());
    i64: |b, v: &i64| put_i64(b, *v), Reader::i64, |v| Str::Owned(v.to_string()),
        |s: &str, name| s.parse().map_err(|_| shape(format!("bad i64 in <{name}>")));
    bool: |b, v: &bool| put_bool(b, *v), Reader::bool,
        |v| Str::Lit(if *v { "true" } else { "false" }), |s: &str, _| parse_bool(s);
    DateTime: put_datetime, Reader::datetime, |v| Str::Owned(v.to_string()),
        |s: &str, _| DateTime::parse(s).map_err(|e| shape(e.to_string()));
}

/// The catalog's small enums: each variant's byte in a frame and its
/// text in SOAP. A decode error names the enum as `bytes` or `text`
/// says.
macro_rules! enums {
    ($(
        $ty:ident (bytes $bin:literal, text $txt:literal)
            { $($v:ident = $code:literal $text:literal),* };
    )*) => {$(
        impl Scalar for $ty {
            fn put(&self, b: &mut Vec<u8>) {
                put_u8(b, match self { $($ty::$v => $code),* })
            }
            fn get(r: &mut Reader) -> frame::Result<$ty> {
                Ok(match r.u8()? {
                    $($code => $ty::$v,)*
                    other => {
                        return Err(FrameError(format!(concat!("unknown ", $bin, " {}"), other)))
                    }
                })
            }
            fn text(&self) -> Str<'_> {
                Str::Lit(match self { $($ty::$v => $text),* })
            }
            fn parse(s: &str, _: &str) -> wire::Result<$ty> {
                Ok(match s {
                    $($text => $ty::$v,)*
                    other => return Err(shape(format!(concat!("unknown ", $txt, " `{}`"), other))),
                })
            }
        }
    )*};
}

enums! {
    AttrType (bytes "attr type", text "attr type") {
        Str = 0 "string", Int = 1 "int", Float = 2 "float", Date = 3 "date", Time = 4 "time",
        DateTime = 5 "datetime"
    };
    Permission (bytes "permission", text "permission")
        { Read = 0 "read", Write = 1 "write", Delete = 2 "delete", Admin = 3 "admin" };
    ObjectType (bytes "object type", text "object type")
        { File = 0 "file", Collection = 1 "collection", View = 2 "view", Service = 3 "service" };
    AttrOp (bytes "attr op", text "op") {
        Eq = 0 "eq", Ne = 1 "ne", Lt = 2 "lt", Le = 3 "le", Gt = 4 "gt", Ge = 5 "ge",
        Like = 6 "like"
    };
}

/// A scalar as an argument or record field: a required text element.
macro_rules! scalar_args {
    ($($ty:ty),*) => {$(
        impl<'a> Arg<'a> for $ty {
            type Owned = $ty;
            fn view(owned: &$ty) -> Self {
                *owned
            }
            fn put(&self, b: &mut Vec<u8>) {
                Scalar::put(self, b)
            }
            fn get(r: &mut Reader) -> frame::Result<$ty> {
                <$ty as Scalar>::get(r)
            }
            fn to_el(self, name: &'static str, a: &mut Element<'a>) {
                push(a, text_el(name, self.text().into_owned()))
            }
            fn from_el(call: &Element, name: &str) -> wire::Result<$ty> {
                <$ty as Scalar>::parse(&req_str(call, name)?, name)
            }
        }
    )*};
}

scalar_args!(i64, bool, DateTime, AttrType, Permission);

/// An optional scalar: a presence byte in a frame, an element SOAP
/// leaves out when absent.
impl<'a, T: Scalar + Copy + 'a> Arg<'a> for Option<T> {
    type Owned = Option<T>;
    const OPTIONAL: bool = true;
    fn view(owned: &'a Option<T>) -> Self {
        *owned
    }
    fn put(&self, b: &mut Vec<u8>) {
        put_opt(b, self.as_ref(), |b, v| v.put(b))
    }
    fn get(r: &mut Reader) -> frame::Result<Option<T>> {
        get_opt(r, T::get)
    }
    fn to_el(self, name: &'static str, a: &mut Element<'a>) {
        if let Some(v) = self {
            push(a, text_el(name, v.text().into_owned()))
        }
    }
    fn from_el(call: &Element, name: &str) -> wire::Result<Option<T>> {
        call.find(name).map(|e| T::parse(&e.text_content(), name)).transpose()
    }
}

/// A commit epoch: eight bytes in a frame (the server refuses values
/// above `i64::MAX` as negative, see [`crate::ops::Call::check`]); a
/// decimal in SOAP, which a server reads as a signed number and refuses
/// when negative.
impl<'a> Arg<'a> for u64 {
    type Owned = u64;
    fn view(owned: &u64) -> Self {
        *owned
    }
    fn put(&self, b: &mut Vec<u8>) {
        put_u64(b, *self)
    }
    fn get(r: &mut Reader) -> frame::Result<u64> {
        r.u64()
    }
    fn to_el(self, name: &'static str, a: &mut Element<'a>) {
        push(a, text_el(name, self.to_string()))
    }
    fn from_el(call: &Element, name: &str) -> wire::Result<u64> {
        let v = req_i64(call, name)?;
        u64::try_from(v).map_err(|_| shape(format!("{name} must be >= 0")))
    }
}

/// A shard index: a `u32` in a frame; in SOAP an element the client
/// leaves out for shard 0 and a server reads as 0 when absent.
impl<'a> Arg<'a> for usize {
    type Owned = usize;
    fn view(owned: &usize) -> Self {
        *owned
    }
    fn put(&self, b: &mut Vec<u8>) {
        put_u32(b, *self as u32)
    }
    fn get(r: &mut Reader) -> frame::Result<usize> {
        Ok(r.u32()? as usize)
    }
    fn to_el(self, name: &'static str, a: &mut Element<'a>) {
        if self > 0 {
            push(a, text_el(name, self.to_string()))
        }
    }
    fn from_el(call: &Element, name: &str) -> wire::Result<usize> {
        match call.find(name) {
            None => Ok(0),
            Some(e) => e
                .text_content()
                .parse()
                .map_err(|_| shape(format!("{name} must be a non-negative integer"))),
        }
    }
}

/// An XML attribute `name` of the record element `e`, which must be
/// there.
fn xml_attr<T: Scalar>(e: &Element, tag: &str, name: &str) -> wire::Result<T> {
    let s = e.attr_value(name).ok_or_else(|| shape(format!("{tag} without {name}")))?;
    T::parse(s, name)
}

/// The record table. An entry is `Type = "element" [attributes] {
/// fields }`, each list in binary order, the attributes first:
///
/// * `field: Type = "name"` in `[..]` is a [`Scalar`] carried as the
///   XML attribute `name` of the record's element;
/// * `field: Type = "name"` in `{..}` travels as its [`Arg`] codec
///   `Type` does: child element(s) `name` of the record's element; a
///   record or record list, which travels in its own element(s), takes
///   no name.
///
/// SOAP writes the children in binary order, or, where the entry says
/// `optional_last = true`, every required child before the optional
/// ones.
macro_rules! records {
    ($(
        $ty:ident = $tag:literal $(, optional_last = $late:literal)?
            $([$($af:ident: $aty:ty = $aname:literal),*])?
            {$($f:ident: $fty:ty $(= $name:literal)?),* $(,)?}
    )*) => {$(
        impl Record for $ty {
            const TAG: &'static str = $tag;
            fn put(&self, b: &mut Vec<u8>) {
                $($(Scalar::put(&self.$af, b);)*)?
                $(Arg::put(&<$fty as Arg>::view(&self.$f), b);)*
            }
            fn get(r: &mut Reader) -> frame::Result<Self> {
                Ok($ty {
                    $($($af: <$aty as Scalar>::get(r)?,)*)?
                    $($f: <$fty as Arg>::get(r)?,)*
                })
            }
            fn el(&self) -> Element<'_> {
                let mut e = Element::new(Str::Lit($tag)) $($(.attr($aname, self.$af.text()))*)?;
                e.children.reserve_exact([$(stringify!($f)),*].len());
                let late = false $(|| $late)?;
                $(if !(late && <$fty as Arg>::OPTIONAL) {
                    Arg::to_el(<$fty as Arg>::view(&self.$f), concat!($($name)?), &mut e);
                })*
                if late {
                    $(if <$fty as Arg>::OPTIONAL {
                        Arg::to_el(<$fty as Arg>::view(&self.$f), concat!($($name)?), &mut e);
                    })*
                }
                e
            }
            fn from_el(e: &Element) -> wire::Result<Self> {
                Ok($ty {
                    $($($af: xml_attr(e, $tag, $aname)?,)*)?
                    $($f: <$fty as Arg>::from_el(e, concat!($($name)?))?,)*
                })
            }
        }
    )*};
}

records! {
    FileSpec = "fileSpec" {
        name: &str = "name",
        version: Option<i64> = "version",
        data_type: Option<&str> = "dataType",
        collection: Option<&str> = "collection",
        container_id: Option<&str> = "containerId",
        container_service: Option<&str> = "containerService",
        master_copy: Option<&str> = "masterCopy",
        audit: bool = "audit",
        attributes: &[Attribute],
    }
    FileUpdate = "fileUpdate" {
        data_type: Option<&str> = "dataType",
        valid: Option<bool> = "valid",
        master_copy: Option<&str> = "masterCopy",
        container_id: Option<&str> = "containerId",
        container_service: Option<&str> = "containerService",
    }
    Attribute = "attribute" [name: String = "name"] { value: &Value = "value" }
    AttrPredicate = "predicate" [name: String = "name", op: AttrOp = "op"] {
        value: &Value = "value",
    }
    LogicalFile = "file", optional_last = true {
        id: i64 = "id",
        name: &str = "name",
        version: i64 = "version",
        data_type: Option<&str> = "dataType",
        valid: bool = "valid",
        collection_id: Option<i64> = "collectionId",
        container_id: Option<&str> = "containerId",
        container_service: Option<&str> = "containerService",
        creator: &str = "creator",
        created: DateTime = "created",
        last_modifier: Option<&str> = "lastModifier",
        last_modified: Option<DateTime> = "lastModified",
        master_copy: Option<&str> = "masterCopy",
        audit_enabled: bool = "auditEnabled",
    }
    Collection = "collection", optional_last = true {
        id: i64 = "id",
        name: &str = "name",
        description: &str = "description",
        parent_id: Option<i64> = "parentId",
        creator: &str = "creator",
        created: DateTime = "created",
        last_modifier: Option<&str> = "lastModifier",
        last_modified: Option<DateTime> = "lastModified",
        audit_enabled: bool = "auditEnabled",
    }
    CollectionContents = "contents" {
        files: &[(String, i64)] = "file",
        subcollections: &[String] = "subcollection",
    }
    View = "view", optional_last = true {
        id: i64 = "id",
        name: &str = "name",
        description: &str = "description",
        creator: &str = "creator",
        created: DateTime = "created",
        last_modifier: Option<&str> = "lastModifier",
        last_modified: Option<DateTime> = "lastModified",
        audit_enabled: bool = "auditEnabled",
    }
    ViewContents = "contents" {
        files: &[(String, i64)] = "file",
        collections: &[String] = "collection",
        views: &[String] = "view",
    }
    Annotation = "annotation"
        [object_type: ObjectType = "objectType", object_id: i64 = "objectId"] {
        text: &str = "text",
        creator: &str = "creator",
        created: DateTime = "created",
    }
    AuditRecord = "audit"
        [object_type: ObjectType = "objectType", object_id: i64 = "objectId"] {
        action: &str = "action",
        actor: &str = "actor",
        at: DateTime = "at",
        details: &str = "details",
    }
    HistoryRecord = "history" [file_id: i64 = "fileId"] {
        description: &str = "description",
        actor: &str = "actor",
        at: DateTime = "at",
    }
    UserRecord = "user" {
        dn: &str = "dn",
        description: &str = "description",
        institution: &str = "institution",
        email: &str = "email",
        phone: &str = "phone",
    }
    ExternalCatalog = "externalCatalog" {
        name: &str = "name",
        catalog_type: &str = "catalogType",
        host: &str = "host",
        ip: &str = "ip",
        description: &str = "description",
    }
}

/// An operation result: the payload after a frame's response header,
/// or the children of the SOAP response element.
pub trait Reply {
    /// Append the binary payload.
    fn put(&self, b: &mut Vec<u8>);
    /// Append the SOAP children to the response element `r`, borrowing
    /// their text from the result. `shards` is the serving catalog's
    /// shard count, which the `cacheStats` and `syncNow` answers name
    /// when it is above one.
    fn to_el<'s>(&'s self, r: &mut Element<'s>, shards: usize);
    /// Decode the binary payload.
    fn get(r: &mut Reader) -> frame::Result<Self>
    where
        Self: Sized;
    /// Decode the SOAP response element.
    fn from_el(r: &Element) -> wire::Result<Self>
    where
        Self: Sized;
}

impl<T: Record> Reply for T {
    fn put(&self, b: &mut Vec<u8>) {
        Record::put(self, b)
    }
    fn to_el<'s>(&'s self, r: &mut Element<'s>, _: usize) {
        push(r, self.el())
    }
    fn get(r: &mut Reader) -> frame::Result<T> {
        <T as Record>::get(r)
    }
    fn from_el(r: &Element) -> wire::Result<T> {
        <T as Record>::from_el(r.expect(T::TAG)?)
    }
}

impl<T: Record> Reply for Vec<T> {
    fn put(&self, b: &mut Vec<u8>) {
        Arg::put(&self.as_slice(), b)
    }
    fn to_el<'s>(&'s self, r: &mut Element<'s>, _: usize) {
        Arg::to_el(self.as_slice(), "", r)
    }
    fn get(r: &mut Reader) -> frame::Result<Vec<T>> {
        <&[T] as Arg>::get(r)
    }
    fn from_el(r: &Element) -> wire::Result<Vec<T>> {
        <&[T] as Arg>::from_el(r, "")
    }
}

/// No result: an empty payload, an `<ok/>` element.
impl Reply for () {
    fn put(&self, _: &mut Vec<u8>) {}
    fn to_el<'s>(&'s self, r: &mut Element<'s>, _: usize) {
        push(r, Element::new(Str::Lit("ok")))
    }
    fn get(_: &mut Reader) -> frame::Result<()> {
        Ok(())
    }
    fn from_el(_: &Element) -> wire::Result<()> {
        Ok(())
    }
}

/// Whether a removal found its target.
impl Reply for bool {
    fn put(&self, b: &mut Vec<u8>) {
        put_bool(b, *self)
    }
    fn to_el<'s>(&'s self, r: &mut Element<'s>, _: usize) {
        push(r, text_el("removed", self.to_string()))
    }
    fn get(r: &mut Reader) -> frame::Result<bool> {
        r.bool()
    }
    fn from_el(r: &Element) -> wire::Result<bool> {
        req_bool(r, "removed")
    }
}

/// A durable-epoch watermark.
impl Reply for u64 {
    fn put(&self, b: &mut Vec<u8>) {
        put_u64(b, *self)
    }
    fn to_el<'s>(&'s self, r: &mut Element<'s>, _: usize) {
        push(r, text_el("durableEpoch", self.to_string()))
    }
    fn get(r: &mut Reader) -> frame::Result<u64> {
        r.u64()
    }
    fn from_el(r: &Element) -> wire::Result<u64> {
        num(r, "durableEpoch")
    }
}

/// The per-shard epochs a `syncNow` barrier covered. SOAP names shard
/// 0's as `durableEpoch` and lists them all only on a sharded catalog.
impl Reply for Vec<u64> {
    fn put(&self, b: &mut Vec<u8>) {
        put_u64s(b, self)
    }
    fn to_el<'s>(&'s self, r: &mut Element<'s>, shards: usize) {
        push(r, text_el("durableEpoch", self[0].to_string()));
        if shards > 1 {
            push(r, text_el("shards", shards.to_string()));
            push(r, text_el("shardEpochs", epoch_list(self)));
        }
    }
    fn get(r: &mut Reader) -> frame::Result<Vec<u64>> {
        get_u64s(r)
    }
    fn from_el(r: &Element) -> wire::Result<Vec<u64>> {
        match r.find("shardEpochs") {
            Some(_) => epochs_from(r, "shardEpochs"),
            None => Ok(vec![num(r, "durableEpoch")?]),
        }
    }
}

/// An `explainQuery` plan, one step per line.
impl Reply for Vec<String> {
    fn put(&self, b: &mut Vec<u8>) {
        put_strs(b, self)
    }
    fn to_el<'s>(&'s self, r: &mut Element<'s>, _: usize) {
        let plan = Element::new(Str::Lit("plan"));
        push(r, self.iter().fold(plan, |p, s| p.child(text_el("step", s))))
    }
    fn get(r: &mut Reader) -> frame::Result<Vec<String>> {
        get_strs(r)
    }
    fn from_el(r: &Element) -> wire::Result<Vec<String>> {
        Ok(r.expect("plan")?.find_all("step").map(|e| e.text_content().into_owned()).collect())
    }
}

/// Query hits: (logical name, version) pairs.
impl Reply for Vec<(String, i64)> {
    fn put(&self, b: &mut Vec<u8>) {
        put_hits(b, self)
    }
    fn to_el<'s>(&'s self, r: &mut Element<'s>, _: usize) {
        push(r, hits_el(self))
    }
    fn get(r: &mut Reader) -> frame::Result<Vec<(String, i64)>> {
        get_hits(r)
    }
    fn from_el(r: &Element) -> wire::Result<Vec<(String, i64)>> {
        hits_from(r.expect("hits")?)
    }
}

impl Reply for CatalogInfoReport {
    fn put(&self, b: &mut Vec<u8>) {
        put_u32(b, self.shards as u32);
        put_str(b, &self.profile);
        put_u64(b, self.files);
        put_bool(b, self.cache_enabled);
        put_u64s(b, &self.commit_epochs);
        put_u64s(b, &self.durable_epochs);
    }
    fn to_el<'s>(&'s self, r: &mut Element<'s>, _: usize) {
        push(r, text_el("shards", self.shards.to_string()));
        push(r, text_el("profile", &self.profile));
        push(r, text_el("files", self.files.to_string()));
        push(r, text_el("cacheEnabled", self.cache_enabled.to_string()));
        push(r, text_el("commitEpochs", epoch_list(&self.commit_epochs)));
        push(r, text_el("durableEpochs", epoch_list(&self.durable_epochs)));
    }
    fn get(r: &mut Reader) -> frame::Result<CatalogInfoReport> {
        Ok(CatalogInfoReport {
            shards: r.u32()? as usize,
            profile: r.str()?,
            files: r.u64()?,
            cache_enabled: r.bool()?,
            commit_epochs: get_u64s(r)?,
            durable_epochs: get_u64s(r)?,
        })
    }
    fn from_el(r: &Element) -> wire::Result<CatalogInfoReport> {
        Ok(CatalogInfoReport {
            shards: num(r, "shards")?,
            profile: req_text(r, "profile")?,
            files: num(r, "files")?,
            cache_enabled: req_bool(r, "cacheEnabled")?,
            commit_epochs: epochs_from(r, "commitEpochs")?,
            durable_epochs: epochs_from(r, "durableEpochs")?,
        })
    }
}

impl Reply for CacheStatsReport {
    fn put(&self, b: &mut Vec<u8>) {
        put_bool(b, self.enabled);
        for v in [self.hits, self.misses, self.stale, self.evictions] {
            put_u64(b, v);
        }
    }
    fn to_el<'s>(&'s self, r: &mut Element<'s>, shards: usize) {
        push(r, text_el("enabled", self.enabled.to_string()));
        push(r, text_el("hits", self.hits.to_string()));
        push(r, text_el("misses", self.misses.to_string()));
        push(r, text_el("stale", self.stale.to_string()));
        push(r, text_el("evictions", self.evictions.to_string()));
        if shards > 1 {
            push(r, text_el("shards", shards.to_string()));
        }
    }
    fn get(r: &mut Reader) -> frame::Result<CacheStatsReport> {
        Ok(CacheStatsReport {
            enabled: r.bool()?,
            hits: r.u64()?,
            misses: r.u64()?,
            stale: r.u64()?,
            evictions: r.u64()?,
        })
    }
    fn from_el(r: &Element) -> wire::Result<CacheStatsReport> {
        Ok(CacheStatsReport {
            enabled: req_bool(r, "enabled")?,
            hits: num(r, "hits")?,
            misses: num(r, "misses")?,
            stale: num(r, "stale")?,
            evictions: num(r, "evictions")?,
        })
    }
}
