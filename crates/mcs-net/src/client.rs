//! The synchronous MCS client — the counterpart of the paper's Java
//! client API, one method per catalog operation — written once over the
//! [`Wire`] seam. [`McsClient`] speaks SOAP ([`SoapWire`]);
//! [`crate::BinMcsClient`] speaks the binary protocol
//! ([`crate::binproto::BinWire`]). The operation methods themselves are
//! generated from the op table in [`crate::ops`].

use std::fmt;

use mcs::Credential;
use soapstack::xml::{Element, XmlError};
use soapstack::{SoapClient, SoapError, TransportOpts};

use crate::codec::Reply;
use crate::dispatch::CallScope;
use crate::ops::Call;
use crate::wire::credential_el;

/// Error kind reconstructed from a structured server fault code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Object not found.
    NotFound,
    /// Name collision.
    AlreadyExists,
    /// Authorization failure.
    PermissionDenied,
    /// Name validation failure.
    InvalidName,
    /// Cycle would be created.
    CycleDetected,
    /// File already in a collection.
    AlreadyInCollection,
    /// Collection not empty.
    CollectionNotEmpty,
    /// Attribute definition/type problem.
    BadAttribute,
    /// Ambiguous or missing version.
    VersionConflict,
    /// An async-acknowledged write can no longer become durable (server
    /// log failure after the ack); surfaced by `wait_for_epoch`/`sync_now`.
    DurabilityLost,
    /// Server-side database error.
    Db,
    /// Anything else server-side.
    Internal,
    /// Request was malformed (client-side fault).
    BadArguments,
    /// Unrecognized fault code.
    Unknown,
}

impl FaultKind {
    pub(crate) fn from_code(code: &str) -> FaultKind {
        match code.rsplit('.').next().unwrap_or("") {
            "NotFound" => FaultKind::NotFound,
            "AlreadyExists" => FaultKind::AlreadyExists,
            "PermissionDenied" => FaultKind::PermissionDenied,
            "InvalidName" => FaultKind::InvalidName,
            "CycleDetected" => FaultKind::CycleDetected,
            "AlreadyInCollection" => FaultKind::AlreadyInCollection,
            "CollectionNotEmpty" => FaultKind::CollectionNotEmpty,
            "BadAttribute" => FaultKind::BadAttribute,
            "VersionConflict" => FaultKind::VersionConflict,
            "DurabilityLost" => FaultKind::DurabilityLost,
            "Db" => FaultKind::Db,
            "Internal" => FaultKind::Internal,
            "BadArguments" => FaultKind::BadArguments,
            _ => FaultKind::Unknown,
        }
    }
}

/// Client-side errors.
#[derive(Debug)]
pub enum NetError {
    /// The server reported a fault.
    Fault {
        /// Reconstructed error kind.
        kind: FaultKind,
        /// Server message.
        message: String,
    },
    /// Transport or envelope failure.
    Soap(SoapError),
    /// The response did not have the expected shape.
    Shape(XmlError),
    /// Binary-protocol transport or framing failure
    /// ([`crate::BinMcsClient`]).
    Frame(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Fault { kind, message } => write!(f, "MCS fault ({kind:?}): {message}"),
            NetError::Soap(e) => write!(f, "{e}"),
            NetError::Shape(e) => write!(f, "bad response: {e}"),
            NetError::Frame(e) => write!(f, "frame error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<SoapError> for NetError {
    fn from(e: SoapError) -> Self {
        match e {
            SoapError::Fault(fl) => NetError::Fault {
                kind: FaultKind::from_code(&fl.code),
                message: fl.message,
            },
            other => NetError::Soap(other),
        }
    }
}

impl From<XmlError> for NetError {
    fn from(e: XmlError) -> Self {
        NetError::Shape(e)
    }
}

impl NetError {
    /// Is this a fault of the given kind?
    pub fn is(&self, kind: FaultKind) -> bool {
        matches!(self, NetError::Fault { kind: k, .. } if *k == kind)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, NetError>;

/// Per-request commit durability a client can ask of the server (the
/// `mcs:durability` header; see DESIGN.md §7.2). `Async` trades bounded
/// durability lag for immediate acknowledgement — the server echoes a
/// commit epoch with each write, and [`Client::wait_for_epoch`] /
/// [`Client::sync_now`] turn the weak ack into a hard one. The
/// discriminant is the binary protocol's durability byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DurabilityMode {
    /// One fsync per commit before the response (the default).
    Always = 0,
    /// Commit parks until a group-commit leader has synced its batch.
    Group = 1,
    /// Commit is acknowledged as soon as its log position is fixed; the
    /// response carries the commit epoch.
    Async = 2,
}

impl DurabilityMode {
    /// The `mcs:durability` attribute value.
    pub(crate) fn header_value(self) -> &'static str {
        match self {
            DurabilityMode::Always => "always",
            DurabilityMode::Group => "group",
            DurabilityMode::Async => "async",
        }
    }
}

/// Server-side read-cache counters as reported by the `cacheStats` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsReport {
    /// Whether the server has a read cache at all.
    pub enabled: bool,
    /// Entries served without re-executing the read.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries discarded because a table version moved (counted in
    /// `misses` too).
    pub stale: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
}

/// Server topology and vitals as reported by the `catalogInfo` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogInfoReport {
    /// Number of hash-partitioned backends behind the endpoint (1 for an
    /// unsharded catalog).
    pub shards: usize,
    /// The server's index profile, e.g. `Paper2003`.
    pub profile: String,
    /// Total logical files across all shards.
    pub files: u64,
    /// Whether the server has a read cache.
    pub cache_enabled: bool,
    /// Each shard's latest commit epoch.
    pub commit_epochs: Vec<u64>,
    /// Each shard's durable-epoch watermark.
    pub durable_epochs: Vec<u64>,
}

/// The transport seam under [`Client`]: how one wire carries a [`Call`]
/// and its answer.
pub trait Wire {
    /// Send `call` on behalf of `cred` under the per-request options
    /// `scope`, and decode the answer as `R`. A successful response's
    /// `(epoch, shard)` echo goes to `echo` before the answer is decoded.
    fn exchange<R: Reply>(
        &mut self,
        cred: &Credential,
        scope: CallScope,
        call: &Call<'_>,
        echo: &mut (u64, usize),
    ) -> Result<R>;
}

/// A synchronous client bound to one MCS endpoint and one credential,
/// over the wire `W`. The catalog operations are its methods.
pub struct Client<W> {
    pub(crate) wire: W,
    pub(crate) cred: Credential,
    /// Durability override and cache bypass sent with every request.
    pub(crate) scope: CallScope,
    /// `(epoch, shard)` echoed by the last successful response: the
    /// commit epoch of whatever it logged (0 if nothing) and the shard
    /// it landed on.
    pub(crate) echo: (u64, usize),
}

impl<W> Client<W> {
    pub(crate) fn new(wire: W, cred: Credential) -> Client<W> {
        Client { wire, cred, scope: CallScope::default(), echo: (0, 0) }
    }

    /// The credential this client acts as.
    pub fn credential(&self) -> &Credential {
        &self.cred
    }

    /// Act as `cred` from the next request on. Both wires carry the
    /// credential in every request, so switching identities keeps the
    /// connection.
    pub fn set_credential(&mut self, cred: Credential) {
        self.cred = cred;
    }

    /// Ask the server for a per-request commit durability (`None` reverts
    /// to the server's store-wide policy). With
    /// [`DurabilityMode::Async`], writes return as soon as their log
    /// position is fixed; read the echoed epoch with
    /// [`Client::last_epoch`] and barrier with
    /// [`Client::wait_for_epoch`] or [`Client::sync_now`].
    pub fn set_durability(&mut self, mode: Option<DurabilityMode>) {
        self.scope.durability = mode;
    }

    /// Ask the server to skip its read cache for this client's requests
    /// (see DESIGN.md §7.3). The bypass is per-request — other clients
    /// and the cache itself are unaffected — which makes it the tool for
    /// A/B measurements and for forcing a read straight from the store.
    pub fn set_cache_bypass(&mut self, bypass: bool) {
        self.scope.cache_bypass = bypass;
    }

    /// The commit epoch the server echoed on the most recent response (0
    /// if that call logged nothing). Pass it to
    /// [`Client::wait_for_epoch`] to make the write durable.
    pub fn last_epoch(&self) -> u64 {
        self.echo.0
    }

    /// The shard [`Client::last_epoch`] belongs to. Epochs are per shard
    /// on a partitioned server; always 0 against a single-shard catalog.
    pub fn last_shard(&self) -> usize {
        self.echo.1
    }
}

impl<W: Wire> Client<W> {
    pub(crate) fn invoke<R: Reply>(&mut self, call: &Call<'_>) -> Result<R> {
        self.wire.exchange(&self.cred, self.scope, call, &mut self.echo)
    }

    /// Park on the server until the durable-epoch watermark covers
    /// `epoch` (a value from [`Client::last_epoch`]); returns the
    /// watermark. Fails with [`FaultKind::DurabilityLost`] if the
    /// server's log writer broke while the epoch was pending.
    pub fn wait_for_epoch(&mut self, epoch: u64) -> Result<u64> {
        self.wait_for_epoch_on(0, epoch)
    }

    /// [`Client::wait_for_epoch`] against one shard of a partitioned
    /// server: epochs are per shard, so pair the epoch with the shard the
    /// write's response named ([`Client::last_shard`]).
    pub fn wait_for_epoch_on(&mut self, shard: usize, epoch: u64) -> Result<u64> {
        self.wait_epoch(epoch, shard)
    }

    /// Make every acknowledged write durable now (the bulk-load final
    /// barrier); returns the epoch the barrier covered (shard 0's on a
    /// partitioned server).
    pub fn sync_now(&mut self) -> Result<u64> {
        Ok(self.sync_epochs()?.first().copied().unwrap_or(0))
    }
}

/// The SOAP/HTTP wire: one envelope per call, the per-request options as
/// method-element attributes (`mcs:durability`, `mcs:cache`) and the echo
/// as response attributes (`mcs:epoch`, `mcs:shard`).
pub struct SoapWire(SoapClient);

impl Wire for SoapWire {
    fn exchange<R: Reply>(
        &mut self,
        cred: &Credential,
        scope: CallScope,
        call: &Call<'_>,
        echo: &mut (u64, usize),
    ) -> Result<R> {
        // Every call carries the credential (the GSI context of the
        // original would ride the TLS layer instead).
        let mut args = Element::new("a").child(credential_el(cred));
        call.soap_args(&mut args);
        if scope.durability.is_some() || scope.cache_bypass {
            args = args.attr("xmlns:mcs", soapstack::soap::MCS_NS);
        }
        if let Some(mode) = scope.durability {
            args = args.attr("mcs:durability", mode.header_value());
        }
        if scope.cache_bypass {
            args = args.attr("mcs:cache", "bypass");
        }
        let r = self.0.call(call.op().name(), args)?;
        let attr = |name| r.attr_value(name).and_then(|v| v.parse().ok()).unwrap_or(0);
        *echo = (attr("mcs:epoch"), attr("mcs:shard") as usize);
        Ok(R::from_el(&r)?)
    }
}

/// The typed client over SOAP.
pub type McsClient = Client<SoapWire>;

impl McsClient {
    /// Connect to `addr` (e.g. `127.0.0.1:8080`) as `cred`, with default
    /// transport options (connection per call, no simulated latency).
    pub fn connect(addr: impl Into<String>, cred: Credential) -> McsClient {
        McsClient::with_opts(addr, cred, TransportOpts::default())
    }

    /// Connect with explicit transport options.
    pub fn with_opts(addr: impl Into<String>, cred: Credential, opts: TransportOpts) -> McsClient {
        Client::new(SoapWire(SoapClient::with_opts(addr, "/mcs", opts)), cred)
    }
}
