//! The operation table: every catalog operation described once — its
//! binary opcode, its SOAP method name, its typed arguments (with the
//! SOAP element each travels in) and its result type. From this one
//! description the `ops!` macro derives
//!
//! * [`Op`], the opcode enum both wires share, with [`Op::from_u8`] and
//!   the SOAP name [`Op::name`];
//! * [`Call`], one operation with its arguments, borrowed — the value
//!   the client builds without copying its arguments and the servers
//!   hand to [`crate::dispatch::execute`];
//! * the per-operation glue of both codecs ([`Call::put_args`],
//!   [`Call::soap_args`], [`decode_bin`], [`decode_soap`]), which only
//!   sequences the per-type codecs of [`crate::codec`];
//! * one typed method per operation on [`crate::client::Client`], the
//!   client behind both [`crate::McsClient`] and [`crate::BinMcsClient`],
//!   and its untyped [`Client::call`].
//!
//! Adding an operation takes an [`mcs::Mcs`] method, one line here, one
//! arm in [`crate::dispatch::execute`] that names the op's
//! [`mcs::shard::Route`] beside the `Mcs` call, a corpus entry in
//! `tests/wire_golden.rs` and an arm in the twin generator
//! (`tests/twin/mod.rs`). A new record type is one entry of the record
//! table in [`crate::codec`], where every record's layout lives (both
//! wires' codecs derive from it); another new argument or result type
//! needs its [`crate::codec`] impl. `mcs::shard` changes only for an
//! operation that spans shards.
//!
//! Syntax of an entry: `Variant = opcode, "soapName", [pub] fn
//! client_method(arg: Type = "element", ...) -> Result;`. Record
//! arguments travel in their own element and take no name. `= "element"
//! or ""` marks a SOAP argument a server reads as empty when absent.

use soapstack::xml::Element;

use mcs::{
    AttrPredicate, AttrType, Attribute, FileSpec, FileUpdate, ObjectRef, Permission, UserRecord,
};

use crate::binproto::frame::{self, Reader};
use crate::client::{Client, Result, Wire};
use crate::codec::Arg;
use crate::dispatch::Answer;
use crate::wire::{self, opt_text};

/// Decodes one SOAP argument: with a default when the entry has one.
macro_rules! soap_arg {
    ($call:ident, $ty:ty) => {
        <$ty as Arg>::from_el($call, "")?
    };
    ($call:ident, $ty:ty, $el:literal) => {
        <$ty as Arg>::from_el($call, $el)?
    };
    ($call:ident, $ty:ty, $el:literal, $default:literal) => {
        opt_text($call, $el).unwrap_or_else(|| $default.to_string())
    };
}

macro_rules! ops {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident = $code:literal, $soap:literal,
        $vis:vis fn $method:ident($($arg:ident: $ty:ty $(= $el:literal $(or $default:literal)?)?),*)
            -> $ret:ty;
    )*) => {
        /// Operation codes: one per catalog operation. The discriminant is
        /// the opcode byte of a binary request frame.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Op {
            $($(#[doc = $doc])* $variant = $code,)*
        }

        impl Op {
            /// Every operation, in opcode order.
            pub const ALL: &'static [Op] = &[$(Op::$variant),*];

            /// Decode an opcode byte; `None` for anything unassigned.
            pub fn from_u8(b: u8) -> Option<Op> {
                match b {
                    $($code => Some(Op::$variant),)*
                    _ => None,
                }
            }

            /// The op's SOAP method name (also used in fault messages, so
            /// errors read the same on both wires).
            pub fn name(self) -> &'static str {
                match self {
                    $(Op::$variant => $soap,)*
                }
            }
        }

        /// One operation with its arguments, borrowed from the caller. The
        /// fields are the parameters of the client method of the same name.
        #[allow(missing_docs)]
        #[derive(Debug, Clone, Copy)]
        pub enum Call<'a> {
            $($(#[doc = $doc])* $variant { $($arg: $ty),* },)*
        }

        impl<'a> Call<'a> {
            /// The operation this call invokes.
            pub fn op(&self) -> Op {
                match self {
                    $(Call::$variant { .. } => Op::$variant,)*
                }
            }

            /// Append the arguments' binary encoding, in table order.
            pub fn put_args(&self, b: &mut Vec<u8>) {
                match self {
                    $(Call::$variant { $($arg),* } => { $(Arg::put($arg, b);)* })*
                }
            }

            /// Append the arguments as children of the SOAP method element,
            /// borrowing their text from the call's arguments.
            pub fn soap_args(&self, a: &mut Element<'a>) {
                match *self {
                    $(Call::$variant { $($arg),* } => {
                        $(Arg::to_el($arg, concat!($($el)?), a);)*
                    })*
                }
            }
        }

        /// Decode the arguments of `op` from the rest of a request frame,
        /// which must hold nothing else, and hand the call to `k`. Every
        /// argument is decoded before `k` runs, so a malformed request
        /// never half-executes.
        // `'a` only names the lifetime the table's argument types mention.
        #[allow(clippy::extra_unused_lifetimes)]
        pub fn decode_bin<'a, T>(
            op: Op,
            r: &mut Reader,
            k: impl FnOnce(Call<'_>) -> T,
        ) -> frame::Result<T> {
            match op {
                $(Op::$variant => {
                    $(let $arg = <$ty as Arg<'a>>::get(r)?;)*
                    r.finish()?;
                    Ok(k(Call::$variant { $($arg: Arg::view(&$arg)),* }))
                })*
            }
        }

        /// Decode the arguments of `op` from a SOAP method element and hand
        /// the call to `k`. Elements the operation does not name are
        /// ignored.
        #[allow(clippy::extra_unused_lifetimes)]
        pub fn decode_soap<'a, T>(
            op: Op,
            call: &Element,
            k: impl FnOnce(Call<'_>) -> T,
        ) -> wire::Result<T> {
            match op {
                $(Op::$variant => {
                    $(let $arg = soap_arg!(call, $ty $(, $el $(, $default)?)?);)*
                    Ok(k(Call::$variant { $($arg: Arg::view(&$arg)),* }))
                })*
            }
        }

        impl<W: Wire> Client<W> {
            $(
                $(#[doc = $doc])*
                $vis fn $method<'a>(&mut self, $($arg: $ty),*) -> Result<$ret> {
                    self.invoke(&Call::$variant { $($arg),* })
                }
            )*

            /// Send any call, answering with the same [`Answer`] the
            /// server's executor produced: the untyped counterpart of the
            /// methods above, for callers that build [`Call`]s as data.
            pub fn call(&mut self, call: &Call<'_>) -> Result<Answer> {
                match call {
                    $(Call::$variant { .. } => self.invoke::<$ret>(call).map(Answer::from),)*
                }
            }
        }
    };
}

ops! {
    /// Liveness probe.
    Ping = 0x01, "ping", pub fn ping() -> ();
    /// Server topology and vitals.
    CatalogInfo = 0x02, "catalogInfo", pub fn catalog_info() -> crate::CatalogInfoReport;
    /// Park until a shard's durable watermark covers an epoch; answers
    /// the watermark.
    WaitForEpoch = 0x03, "waitForEpoch",
        pub(crate) fn wait_epoch(epoch: u64 = "epoch", shard: usize = "shard") -> u64;
    /// Make every acknowledged write durable now; answers the per-shard
    /// epochs the barrier covered.
    SyncNow = 0x04, "syncNow", pub(crate) fn sync_epochs() -> Vec<u64>;
    /// Fetch the server's read-cache counters.
    CacheStats = 0x05, "cacheStats", pub fn cache_stats() -> crate::CacheStatsReport;

    /// Create a logical file with creation-time attributes.
    CreateFile = 0x10, "createFile", pub fn create_file(spec: &'a FileSpec) -> mcs::LogicalFile;
    /// Create a batch of logical files in one server-side transaction
    /// (all-or-nothing per shard, results in input order): one round
    /// trip and one commit replace N of each.
    CreateFiles = 0x11, "createFiles",
        pub fn create_files(specs: &'a [FileSpec]) -> Vec<mcs::LogicalFile>;
    /// Fetch a file's predefined metadata (the paper's "simple query").
    GetFile = 0x12, "getFile", pub fn get_file(name: &'a str = "name") -> mcs::LogicalFile;
    /// Fetch one version of a file.
    GetFileVersion = 0x13, "getFileVersion",
        pub fn get_file_version(name: &'a str = "name", version: i64 = "version")
            -> mcs::LogicalFile;
    /// All versions of a logical name.
    GetFileVersions = 0x14, "getFileVersions",
        pub fn get_file_versions(name: &'a str = "name") -> Vec<mcs::LogicalFile>;
    /// Update predefined attributes.
    UpdateFile = 0x15, "updateFile",
        pub fn update_file(name: &'a str = "name", update: &'a FileUpdate) -> mcs::LogicalFile;
    /// Mark a file invalid without deleting it.
    InvalidateFile = 0x16, "invalidateFile", pub fn invalidate_file(name: &'a str = "name") -> ();
    /// Delete a file and all its metadata.
    DeleteFile = 0x17, "deleteFile", pub fn delete_file(name: &'a str = "name") -> ();
    /// Delete one version of a file.
    DeleteFileVersion = 0x18, "deleteFileVersion",
        pub fn delete_file_version(name: &'a str = "name", version: i64 = "version") -> ();

    /// Create a collection (optionally nested).
    CreateCollection = 0x20, "createCollection",
        pub fn create_collection(
            name: &'a str = "name",
            parent: Option<&'a str> = "parent",
            description: &'a str = "description" or ""
        ) -> mcs::Collection;
    /// Fetch a collection record.
    GetCollection = 0x21, "getCollection",
        pub fn get_collection(name: &'a str = "name") -> mcs::Collection;
    /// Delete an empty collection.
    DeleteCollection = 0x22, "deleteCollection",
        pub fn delete_collection(name: &'a str = "name") -> ();
    /// List a collection's direct contents.
    ListCollection = 0x23, "listCollection",
        pub fn list_collection(name: &'a str = "name") -> mcs::CollectionContents;
    /// Move a file into (or out of) a collection.
    AssignCollection = 0x24, "assignCollection",
        pub fn assign_collection(file: &'a str = "file", collection: Option<&'a str> = "collection")
            -> ();

    /// Create a logical view.
    CreateView = 0x30, "createView",
        pub fn create_view(name: &'a str = "name", description: &'a str = "description" or "")
            -> mcs::View;
    /// Fetch a view record.
    GetView = 0x31, "getView", pub fn get_view(name: &'a str = "name") -> mcs::View;
    /// Delete a view.
    DeleteView = 0x32, "deleteView", pub fn delete_view(name: &'a str = "name") -> ();
    /// Add a member to a view.
    AddToView = 0x33, "addToView",
        pub fn add_to_view(view: &'a str = "view", member: &'a ObjectRef) -> ();
    /// Remove a member from a view; true if it was present.
    RemoveFromView = 0x34, "removeFromView",
        pub fn remove_from_view(view: &'a str = "view", member: &'a ObjectRef) -> bool;
    /// List a view's members.
    ListView = 0x35, "listView", pub fn list_view(name: &'a str = "name") -> mcs::ViewContents;

    /// Register a user-defined attribute.
    DefineAttribute = 0x40, "defineAttribute",
        pub fn define_attribute(
            name: &'a str = "name",
            ty: AttrType = "attrType",
            description: &'a str = "description" or ""
        ) -> ();
    /// Set (upsert) an attribute on an object.
    SetAttribute = 0x41, "setAttribute",
        pub fn set_attribute(object: &'a ObjectRef, attr: &'a Attribute) -> ();
    /// Remove an attribute; true if it was present.
    RemoveAttribute = 0x42, "removeAttribute",
        pub fn remove_attribute(object: &'a ObjectRef, name: &'a str = "name") -> bool;
    /// Fetch an object's user-defined attributes.
    GetAttributes = 0x43, "getAttributes",
        pub fn get_attributes(object: &'a ObjectRef) -> Vec<Attribute>;
    /// Attribute-based discovery (the paper's "complex query"): the
    /// matching (logical name, version) pairs.
    QueryByAttributes = 0x44, "queryByAttributes",
        pub fn query_by_attributes(preds: &'a [AttrPredicate]) -> Vec<(String, i64)>;
    /// EXPLAIN for `queryByAttributes`: the plan the server's cost-based
    /// planner would choose for this conjunction, one line per step,
    /// without executing the query.
    ExplainQuery = 0x45, "explainQuery",
        pub fn explain_query(preds: &'a [AttrPredicate]) -> Vec<String>;

    /// Attach an annotation.
    Annotate = 0x50, "annotate",
        pub fn annotate(object: &'a ObjectRef, text: &'a str = "text") -> ();
    /// Fetch annotations, oldest first.
    GetAnnotations = 0x51, "getAnnotations",
        pub fn get_annotations(object: &'a ObjectRef) -> Vec<mcs::Annotation>;
    /// Fetch the audit trail, oldest first.
    GetAuditTrail = 0x52, "getAuditTrail",
        pub fn get_audit_trail(object: &'a ObjectRef) -> Vec<mcs::AuditRecord>;
    /// Enable or disable per-access auditing.
    SetAudit = 0x53, "setAudit",
        pub fn set_audit(object: &'a ObjectRef, enabled: bool = "enabled") -> ();
    /// Append a transformation-history record.
    AddHistory = 0x54, "addHistory",
        pub fn add_history(file: &'a str = "file", description: &'a str = "description") -> ();
    /// Fetch a file's transformation history.
    GetHistory = 0x55, "getHistory",
        pub fn get_history(file: &'a str = "file") -> Vec<mcs::HistoryRecord>;

    /// Grant a permission.
    Grant = 0x60, "grant",
        pub fn grant(
            object: &'a ObjectRef,
            principal: &'a str = "principal",
            perm: Permission = "permission"
        ) -> ();
    /// Revoke a permission.
    Revoke = 0x61, "revoke",
        pub fn revoke(
            object: &'a ObjectRef,
            principal: &'a str = "principal",
            perm: Permission = "permission"
        ) -> ();

    /// Register a metadata writer.
    RegisterUser = 0x70, "registerUser", pub fn register_user(user: &'a UserRecord) -> ();
    /// Fetch a metadata writer by DN.
    GetUser = 0x71, "getUser", pub fn get_user(dn: &'a str = "dn") -> UserRecord;
    /// List all metadata writers.
    ListUsers = 0x72, "listUsers", pub fn list_users() -> Vec<UserRecord>;
    /// Register an external catalog pointer.
    RegisterExternalCatalog = 0x73, "registerExternalCatalog",
        pub fn register_external_catalog(catalog: &'a mcs::ExternalCatalog) -> ();
    /// List external catalogs.
    ListExternalCatalogs = 0x74, "listExternalCatalogs",
        pub fn list_external_catalogs() -> Vec<mcs::ExternalCatalog>;
}
