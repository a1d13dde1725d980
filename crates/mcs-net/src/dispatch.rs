//! The one executor behind both wire front ends.
//!
//! A front end decodes a request into a credential, a [`CallScope`] and
//! a [`Call`], and hands them to [`serve`]: it checks the arguments that
//! depend on the catalog's shape, turns the scope into the request's
//! [`OpCtx`], runs [`execute`] — the only code that calls catalog
//! methods — on a catalog handle in that context, and returns the
//! [`Answer`] with the [`Outcome`] it committed, the `(epoch, shard)`
//! echo. The front end encodes that answer with the answer's [`Reply`]
//! codec, or the error as a [`Fault`].
//!
//! SOAP carries the per-request options as method-element attributes
//! (`mcs:durability`, `mcs:cache`); the binary protocol carries them as
//! request-flag bits (DESIGN.md §7.7). Both decode into the same
//! [`CallScope`], so a durability override, a cache bypass and the
//! epoch/shard echo behave identically whichever framing delivered the
//! request.

use mcs::shard::Route::{self, Global, Member, Owner, Zero};
use mcs::{
    Annotation, Attribute, AuditRecord, Collection, CollectionContents, Credential,
    ExternalCatalog, HistoryRecord, LogicalFile, McsError, OpCtx, Outcome, ShardedCatalog,
    UserRecord, View, ViewContents,
};
use soapstack::xml::XmlError;
use soapstack::Fault;

use crate::client::{CacheStatsReport, CatalogInfoReport, DurabilityMode};
use crate::codec::Reply;
use crate::ops::Call;
use crate::wire::{self, shape};

/// Per-request options decoded from either wire framing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallScope {
    /// Override the store-wide commit policy for this call.
    pub durability: Option<DurabilityMode>,
    /// Run every read in this call on the uncached path.
    pub cache_bypass: bool,
}

/// The server-side commit policy a [`DurabilityMode`] header selects.
/// `Group`/`Async` use the server's default batching window; the window
/// is server policy, not something clients get to pick.
pub fn durability_of(mode: DurabilityMode) -> mcs::Durability {
    let window = std::time::Duration::from_millis(2);
    match mode {
        DurabilityMode::Always => mcs::Durability::Always,
        DurabilityMode::Group => mcs::Durability::Group { max_wait: window, max_batch: 64 },
        DurabilityMode::Async => mcs::Durability::Async { max_wait: window, max_batch: 64 },
    }
}

impl CallScope {
    /// The context a call in this scope runs in on `catalog`: the decoded
    /// options over the rest of the handle's own scope.
    pub fn on(self, catalog: &ShardedCatalog) -> OpCtx {
        OpCtx {
            durability: self.durability.map(durability_of),
            cache_bypass: self.cache_bypass,
            ..catalog.ctx().clone()
        }
    }
}

/// Structured fault-code suffix for each [`McsError`] variant, so the
/// client can reconstruct the error kind.
pub fn fault_kind(e: &McsError) -> &'static str {
    match e {
        McsError::NotFound(_) => "NotFound",
        McsError::AlreadyExists(_) => "AlreadyExists",
        McsError::PermissionDenied { .. } => "PermissionDenied",
        McsError::InvalidName(_) => "InvalidName",
        McsError::CycleDetected(_) => "CycleDetected",
        McsError::AlreadyInCollection { .. } => "AlreadyInCollection",
        McsError::CollectionNotEmpty(_) => "CollectionNotEmpty",
        McsError::BadAttribute(_) => "BadAttribute",
        McsError::VersionConflict(_) => "VersionConflict",
        McsError::DurabilityLost(_) => "DurabilityLost",
        McsError::Db(_) => "Db",
        McsError::Internal(_) => "Internal",
    }
}

/// The fault a catalog error becomes on either wire.
pub fn fault_of(e: McsError) -> Fault {
    Fault { code: format!("soap:Server.{}", fault_kind(&e)), message: e.to_string() }
}

/// The fault a malformed request gets on either wire.
pub fn bad_arguments(message: String) -> Fault {
    Fault { code: "soap:Client.BadArguments".into(), message }
}

/// The fault a request that failed to decode gets on either wire.
pub fn fault_of_xml(e: XmlError) -> Fault {
    bad_arguments(e.to_string())
}

macro_rules! answers {
    ($($variant:ident($ty:ty),)*) => {
        /// The result of one executed call: one variant per result type
        /// of the op table.
        #[derive(Debug)]
        pub enum Answer {
            $(#[allow(missing_docs)] $variant($ty),)*
        }

        $(impl From<$ty> for Answer {
            fn from(v: $ty) -> Answer {
                Answer::$variant(v)
            }
        })*

        impl Answer {
            /// The answer's codec, for either wire's encoder.
            pub fn reply(&self) -> &dyn Reply {
                match self {
                    $(Answer::$variant(v) => v,)*
                }
            }
        }
    };
}

answers! {
    Done(()),
    Removed(bool),
    Durable(u64),
    Synced(Vec<u64>),
    Info(CatalogInfoReport),
    Cache(CacheStatsReport),
    File(LogicalFile),
    Files(Vec<LogicalFile>),
    Collection(Collection),
    CollectionContents(CollectionContents),
    View(View),
    ViewContents(ViewContents),
    Attributes(Vec<Attribute>),
    Hits(Vec<(String, i64)>),
    Plan(Vec<String>),
    Annotations(Vec<Annotation>),
    Audit(Vec<AuditRecord>),
    History(Vec<HistoryRecord>),
    User(UserRecord),
    Users(Vec<UserRecord>),
    Catalogs(Vec<ExternalCatalog>),
}

impl Call<'_> {
    /// Checks of the arguments that depend on the serving catalog, made
    /// before the call runs. A SOAP `waitForEpoch` already refused a
    /// negative epoch while decoding; a binary one carries its epoch as
    /// eight raw bytes, refused here when they read as negative.
    pub fn check(&self, shards: usize) -> wire::Result<()> {
        if let Call::WaitForEpoch { epoch, shard } = *self {
            if i64::try_from(epoch).is_err() {
                return Err(shape("epoch must be >= 0"));
            }
            if shard >= shards {
                return Err(shape(format!("shard {shard} out of range (catalog has {shards})")));
            }
        }
        Ok(())
    }
}

/// Execute one call against the catalog as `cred`. An operation on one
/// shard names its [`Route`] beside the [`mcs::Mcs`] call it makes; the
/// rest are the catalog's cross-shard operations.
pub fn execute(c: &ShardedCatalog, cred: &Credential, call: Call<'_>) -> Result<Answer, McsError> {
    Ok(match call {
        Call::Ping {} => ().into(),
        Call::CatalogInfo {} => CatalogInfoReport {
            shards: c.shards(),
            profile: format!("{:?}", c.index_profile()),
            files: c.file_count()? as u64,
            cache_enabled: c.cache_enabled(),
            commit_epochs: c.commit_epochs(),
            durable_epochs: c.durable_epochs(),
        }
        .into(),
        Call::WaitForEpoch { epoch, shard } => {
            c.wait_for_epoch(shard, epoch)?;
            c.durable_epoch(shard)?.into()
        }
        Call::SyncNow {} => c.sync_now()?.into(),
        Call::CacheStats {} => {
            let stats = c.cache_stats().unwrap_or_default();
            CacheStatsReport {
                enabled: c.cache_enabled(),
                hits: stats.hits,
                misses: stats.misses,
                stale: stats.stale,
                evictions: stats.evictions,
            }
            .into()
        }
        Call::CreateFile { spec } => {
            c.run(Member(&spec.name), |m| m.create_file(cred, spec))?.into()
        }
        Call::CreateFiles { specs } => c.create_files(cred, specs)?.into(),
        Call::GetFile { name } => c.run(Owner(name), |m| m.get_file(cred, name))?.into(),
        Call::GetFileVersion { name, version } => {
            c.run(Owner(name), |m| m.get_file_version(cred, name, version))?.into()
        }
        Call::GetFileVersions { name } => {
            c.run(Owner(name), |m| m.get_file_versions(cred, name))?.into()
        }
        Call::UpdateFile { name, update } => {
            c.run(Owner(name), |m| m.update_file(cred, name, update))?.into()
        }
        Call::InvalidateFile { name } => {
            c.run(Owner(name), |m| m.invalidate_file(cred, name))?.into()
        }
        Call::DeleteFile { name } => c.run(Member(name), |m| m.delete_file(cred, name))?.into(),
        Call::DeleteFileVersion { name, version } => {
            c.run(Member(name), |m| m.delete_file_version(cred, name, version))?.into()
        }
        Call::CreateCollection { name, parent, description } => {
            c.run(Global, |m| m.create_collection(cred, name, parent, description))?.into()
        }
        Call::GetCollection { name } => c.run(Zero, |m| m.get_collection(cred, name))?.into(),
        Call::DeleteCollection { name } => c.delete_collection(cred, name)?.into(),
        Call::ListCollection { name } => c.list_collection(cred, name)?.into(),
        Call::AssignCollection { file, collection } => {
            c.run(Member(file), |m| m.assign_collection(cred, file, collection))?.into()
        }
        Call::CreateView { name, description } => {
            c.run(Global, |m| m.create_view(cred, name, description))?.into()
        }
        Call::GetView { name } => c.run(Zero, |m| m.get_view(cred, name))?.into(),
        Call::DeleteView { name } => c.delete_view(cred, name)?.into(),
        Call::AddToView { view, member } => c.add_to_view(cred, view, member)?.into(),
        Call::RemoveFromView { view, member } => c
            .run(Route::of(member, Owner, Zero), |m| m.remove_from_view(cred, view, member))?
            .into(),
        Call::ListView { name } => c.list_view(cred, name)?.into(),
        Call::DefineAttribute { name, ty, description } => {
            c.run(Global, |m| m.define_attribute(cred, name, ty, description))?;
            ().into()
        }
        Call::SetAttribute { object, attr } => c
            .run(Route::of(object, Owner, Zero), |m| m.set_attribute(cred, object, attr))?
            .into(),
        Call::RemoveAttribute { object, name } => c
            .run(Route::of(object, Owner, Zero), |m| m.remove_attribute(cred, object, name))?
            .into(),
        Call::GetAttributes { object } => {
            c.run(Route::of(object, Owner, Zero), |m| m.get_attributes(cred, object))?.into()
        }
        Call::QueryByAttributes { preds } => c.query_by_attributes(cred, preds)?.into(),
        Call::ExplainQuery { preds } => c.explain_query(cred, preds)?.into(),
        Call::Annotate { object, text } => {
            c.run(Route::of(object, Owner, Zero), |m| m.annotate(cred, object, text))?.into()
        }
        Call::GetAnnotations { object } => {
            c.run(Route::of(object, Owner, Zero), |m| m.get_annotations(cred, object))?.into()
        }
        Call::GetAuditTrail { object } => c.get_audit_trail(cred, object)?.into(),
        Call::SetAudit { object, enabled } => c
            .run(Route::of(object, Owner, Global), |m| m.set_audit(cred, object, enabled))?
            .into(),
        Call::AddHistory { file, description } => {
            c.run(Owner(file), |m| m.add_history(cred, file, description))?.into()
        }
        Call::GetHistory { file } => c.run(Owner(file), |m| m.get_history(cred, file))?.into(),
        Call::Grant { object, principal, perm } => c
            .run(Route::of(object, Member, Global), |m| m.grant(cred, object, principal, perm))?
            .into(),
        Call::Revoke { object, principal, perm } => c
            .run(Route::of(object, Member, Global), |m| m.revoke(cred, object, principal, perm))?
            .into(),
        Call::RegisterUser { user } => c.run(Zero, |m| m.register_user(cred, user))?.into(),
        Call::GetUser { dn } => c.run(Zero, |m| m.get_user(cred, dn))?.into(),
        Call::ListUsers {} => c.run(Zero, |m| m.list_users(cred))?.into(),
        Call::RegisterExternalCatalog { catalog } => {
            c.run(Zero, |m| m.register_external_catalog(cred, catalog))?.into()
        }
        Call::ListExternalCatalogs {} => c.run(Zero, |m| m.list_external_catalogs(cred))?.into(),
    })
}

/// Serve one decoded request: check it, execute it in `scope`, and
/// return the answer with the [`Outcome`] of what it committed — the
/// handle an async-acknowledged client needs for `waitForEpoch`; epoch 0
/// means the call logged nothing — or the fault either wire sends
/// instead.
pub fn serve(
    catalog: &ShardedCatalog,
    cred: &Credential,
    scope: CallScope,
    call: Call<'_>,
) -> Result<(Answer, Outcome), Fault> {
    call.check(catalog.shards()).map_err(fault_of_xml)?;
    let (answer, outcome) = catalog.scoped(scope.on(catalog), |c| execute(c, cred, call));
    Ok((answer.map_err(fault_of)?, outcome))
}
