//! # mcs-net — the MCS web service and client
//!
//! Exposes the Metadata Catalog Service over SOAP/HTTP (the Tomcat+Axis
//! deployment of the paper's Figure 4) and provides a synchronous client
//! mirroring the original Java client API. The measured gap between
//! calling [`mcs::Mcs`] directly and through this layer *is* the paper's
//! headline web-service overhead (≈4.8× on adds).
//!
//! Beside SOAP sits [`binproto`], a pipelined length-prefixed binary
//! wire protocol serving the same operations — the paper's §6.3 "the WS
//! stack is the bottleneck" finding, answered.
//!
//! Every operation is described once, in the op table of [`ops`]:
//! opcode, SOAP name, typed arguments, result type. Both wires and the
//! client are derived from it:
//!
//! * [`codec`] — how each argument and result type is encoded on each
//!   wire (per type, never per operation);
//! * [`dispatch`] — the one executor: both servers decode a request into
//!   an [`ops::Call`] and run it through [`dispatch::serve`];
//! * [`client::Client`] — the one typed client, over the [`client::Wire`]
//!   seam: [`McsClient`] is its SOAP instance, [`BinMcsClient`] its
//!   binary one.
//!
//! `tests/wire_golden.rs` pins every operation's bytes on both wires.

#![warn(missing_docs)]

pub mod binproto;
pub mod client;
pub mod codec;
pub mod dispatch;
pub mod ops;
pub mod server;
pub mod wire;
pub mod wsdl;

pub use binproto::{BinMcsClient, BinServer};
pub use client::{
    CacheStatsReport, CatalogInfoReport, Client, DurabilityMode, FaultKind, McsClient, NetError,
};
pub use server::{register_methods, McsServer};
