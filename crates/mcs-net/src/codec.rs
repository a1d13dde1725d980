//! Per-type codecs for both wires. Every argument and result type the
//! op table ([`crate::ops`]) names knows how to write itself into a
//! binary frame ([`crate::binproto::frame`]) and into SOAP elements
//! ([`crate::wire`]), and how to read itself back. The servers and the
//! client work through these three traits; nothing here is per
//! operation.

use mcs::{
    Annotation, AttrPredicate, AttrType, Attribute, AuditRecord, Collection, CollectionContents,
    ExternalCatalog, FileSpec, FileUpdate, HistoryRecord, LogicalFile, ObjectRef, Permission,
    UserRecord, View, ViewContents,
};
use soapstack::xml::{Element, Node};

use crate::binproto::frame::{self, *};
use crate::client::{CacheStatsReport, CatalogInfoReport};
use crate::wire::{self, *};

/// Append `child` to the element `e`.
fn push(e: &mut Element, child: Element) {
    e.children.push(Node::Element(child));
}

/// A required child parsed as a number.
fn num<T: std::str::FromStr>(e: &Element, name: &str) -> wire::Result<T> {
    req_text(e, name)?.parse().map_err(|_| shape(format!("bad number in <{name}>")))
}

/// Epoch vectors travel as space-separated decimals on the SOAP wire.
fn epoch_list(epochs: &[u64]) -> String {
    epochs.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
}

fn epochs_from(e: &Element, name: &str) -> wire::Result<Vec<u64>> {
    let text = req_text(e, name)?;
    text.split_whitespace()
        .map(|v| v.parse().map_err(|_| shape(format!("bad epoch `{v}`"))))
        .collect()
}

/// A record: one struct encoding in a frame, one named element in SOAP.
pub trait Record: Sized {
    /// The SOAP element name.
    const TAG: &'static str;
    /// Append the binary encoding.
    fn put(&self, b: &mut Vec<u8>);
    /// Decode the binary encoding.
    fn get(r: &mut Reader) -> frame::Result<Self>;
    /// Encode as a SOAP element named [`Record::TAG`].
    fn el(&self) -> Element;
    /// Decode a SOAP element named [`Record::TAG`].
    fn from_el(e: &Element) -> wire::Result<Self>;
}

macro_rules! records {
    ($($ty:ty = $tag:literal, $put:ident, $get:ident, $el:ident, $from:ident;)*) => {$(
        impl Record for $ty {
            const TAG: &'static str = $tag;
            fn put(&self, b: &mut Vec<u8>) {
                $put(b, self)
            }
            fn get(r: &mut Reader) -> frame::Result<Self> {
                $get(r)
            }
            fn el(&self) -> Element {
                $el(self)
            }
            fn from_el(e: &Element) -> wire::Result<Self> {
                $from(e)
            }
        }
    )*};
}

records! {
    FileSpec = "fileSpec", put_filespec, get_filespec, filespec_el, filespec_from;
    FileUpdate = "fileUpdate", put_fileupdate, get_fileupdate, fileupdate_el, fileupdate_from;
    Attribute = "attribute", put_attribute, get_attribute, attribute_el, attribute_from;
    AttrPredicate = "predicate", put_predicate, get_predicate, predicate_el, predicate_from;
    LogicalFile = "file", put_file, get_file, file_el, file_from;
    Collection = "collection", put_collection, get_collection, collection_el, collection_from;
    CollectionContents = "contents", put_collection_contents, get_collection_contents,
        collection_contents_el, collection_contents_from;
    View = "view", put_view, get_view, view_el, view_from;
    ViewContents = "contents", put_view_contents, get_view_contents, view_contents_el,
        view_contents_from;
    Annotation = "annotation", put_annotation, get_annotation, annotation_el, annotation_from;
    AuditRecord = "audit", put_audit, get_audit, audit_el, audit_from;
    HistoryRecord = "history", put_history, get_history, history_el, history_from;
    UserRecord = "user", put_user, get_user, user_el, user_from;
    ExternalCatalog = "externalCatalog", put_extcat, get_extcat, extcat_el, extcat_from;
}

/// An operation argument in the borrowed form the client passes, with
/// the owned form a server decodes it into and lends back through
/// [`Arg::view`]. On the SOAP wire an argument is a child of the method
/// element; scalars use the element name the op table gives them,
/// records their own [`Record::TAG`].
pub trait Arg<'a>: Sized {
    /// What a server decodes the argument into.
    type Owned: 'a;
    /// Borrow a decoded argument as the call's argument.
    fn view(owned: &'a Self::Owned) -> Self;
    /// Append the binary encoding.
    fn put(&self, b: &mut Vec<u8>);
    /// Decode the binary encoding.
    fn get(r: &mut Reader) -> frame::Result<Self::Owned>;
    /// Append as child element(s) `name` of the method element `a`.
    fn to_el(&self, name: &str, a: &mut Element);
    /// Decode from the method element `call`.
    fn from_el(call: &Element, name: &str) -> wire::Result<Self::Owned>;
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
    fn to_el(&self, name: &str, a: &mut Element) {
        push(a, text_el(name, *self))
    }
    fn from_el(call: &Element, name: &str) -> wire::Result<String> {
        req_text(call, name)
    }
}

/// An optional name: a presence byte in a frame, an omitted element in
/// SOAP.
impl<'a> Arg<'a> for Option<&'a str> {
    type Owned = Option<String>;
    fn view(owned: &'a Option<String>) -> Self {
        owned.as_deref()
    }
    fn put(&self, b: &mut Vec<u8>) {
        match self {
            None => put_u8(b, 0),
            Some(s) => {
                put_u8(b, 1);
                put_str(b, s);
            }
        }
    }
    fn get(r: &mut Reader) -> frame::Result<Option<String>> {
        r.opt_str()
    }
    fn to_el(&self, name: &str, a: &mut Element) {
        if let Some(s) = self {
            push(a, text_el(name, *s))
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
    fn to_el(&self, _: &str, a: &mut Element) {
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
    fn to_el(&self, _: &str, a: &mut Element) {
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
    fn to_el(&self, _: &str, a: &mut Element) {
        push(a, objref_el(self))
    }
    fn from_el(call: &Element, _: &str) -> wire::Result<ObjectRef> {
        objref_from(call)
    }
}

macro_rules! scalar_args {
    ($($ty:ty: $put:expr, $get:expr, $text:expr, $from:expr;)*) => {$(
        impl Arg<'_> for $ty {
            type Owned = $ty;
            fn view(owned: &$ty) -> Self {
                *owned
            }
            fn put(&self, b: &mut Vec<u8>) {
                $put(b, *self)
            }
            fn get(r: &mut Reader) -> frame::Result<$ty> {
                $get(r)
            }
            fn to_el(&self, name: &str, a: &mut Element) {
                push(a, text_el(name, $text(*self)))
            }
            fn from_el(call: &Element, name: &str) -> wire::Result<$ty> {
                $from(call, name)
            }
        }
    )*};
}

scalar_args! {
    i64: put_i64, Reader::i64, |v: i64| v.to_string(), req_i64;
    bool: put_bool, Reader::bool, |v: bool| v.to_string(), req_bool;
    AttrType: put_attr_type, get_attr_type, attr_type_code,
        |call: &Element, name| attr_type_from(&req_text(call, name)?);
    Permission: put_permission, get_permission, permission_code,
        |call: &Element, name| permission_from(&req_text(call, name)?);
}

/// A commit epoch: eight bytes in a frame (the server refuses values
/// above `i64::MAX` as negative, see [`crate::ops::Call::check`]); a
/// decimal in SOAP, which a server reads as a signed number and refuses
/// when negative.
impl Arg<'_> for u64 {
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
    fn to_el(&self, name: &str, a: &mut Element) {
        push(a, text_el(name, self.to_string()))
    }
    fn from_el(call: &Element, name: &str) -> wire::Result<u64> {
        let v = req_i64(call, name)?;
        u64::try_from(v).map_err(|_| shape(format!("{name} must be >= 0")))
    }
}

/// A shard index: a `u32` in a frame; in SOAP an element the client
/// leaves out for shard 0 and a server reads as 0 when absent.
impl Arg<'_> for usize {
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
    fn to_el(&self, name: &str, a: &mut Element) {
        if *self > 0 {
            push(a, text_el(name, self.to_string()))
        }
    }
    fn from_el(call: &Element, name: &str) -> wire::Result<usize> {
        match opt_text(call, name) {
            None => Ok(0),
            Some(s) => {
                s.parse().map_err(|_| shape(format!("{name} must be a non-negative integer")))
            }
        }
    }
}

/// An operation result: the payload after a frame's response header,
/// or the children of the SOAP response element.
pub trait Reply {
    /// Append the binary payload.
    fn put(&self, b: &mut Vec<u8>);
    /// Append the SOAP children to the response element `r`. `shards`
    /// is the serving catalog's shard count, which the `cacheStats` and
    /// `syncNow` answers name when it is above one.
    fn to_el(&self, r: &mut Element, shards: usize);
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
    fn to_el(&self, r: &mut Element, _: usize) {
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
    fn to_el(&self, r: &mut Element, _: usize) {
        Arg::to_el(&self.as_slice(), "", r)
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
    fn to_el(&self, r: &mut Element, _: usize) {
        push(r, Element::new("ok"))
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
    fn to_el(&self, r: &mut Element, _: usize) {
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
    fn to_el(&self, r: &mut Element, _: usize) {
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
    fn to_el(&self, r: &mut Element, shards: usize) {
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
    fn to_el(&self, r: &mut Element, _: usize) {
        push(r, self.iter().fold(Element::new("plan"), |p, s| p.child(text_el("step", s))))
    }
    fn get(r: &mut Reader) -> frame::Result<Vec<String>> {
        get_strs(r)
    }
    fn from_el(r: &Element) -> wire::Result<Vec<String>> {
        Ok(r.expect("plan")?.find_all("step").map(Element::text_content).collect())
    }
}

/// Query hits: (logical name, version) pairs.
impl Reply for Vec<(String, i64)> {
    fn put(&self, b: &mut Vec<u8>) {
        put_hits(b, self)
    }
    fn to_el(&self, r: &mut Element, _: usize) {
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
    fn to_el(&self, r: &mut Element, _: usize) {
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
    fn to_el(&self, r: &mut Element, shards: usize) {
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
