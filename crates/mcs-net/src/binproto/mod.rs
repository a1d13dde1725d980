//! # binproto — the pipelined binary wire protocol beside SOAP
//!
//! The paper's §6.3 analysis (and our `encoding`/`keepalive` ablations)
//! blame the web-service stack for most of the client-observed gap to
//! direct calls: SOAP envelope encode/decode is ~20× a compact binary
//! framing and TCP setup is ~57% of per-call cost. This module is the
//! escape the AliEn/ALICE catalogue built when it outgrew its WS stack:
//! the **same operations, same auth, same per-request durability/cache
//! semantics** over length-prefixed binary frames on a persistent
//! connection, with request pipelining and a batched `createFiles` bulk
//! mutation.
//!
//! Nothing here is per operation. The opcodes, argument order and
//! result types come from the op table ([`crate::ops`]), the per-type
//! encodings from [`crate::codec`] over the primitives in [`frame`];
//! [`BinServer`] hands decoded calls to the same executor as SOAP
//! ([`crate::dispatch`]), and [`BinMcsClient`] is the one typed client
//! over [`BinWire`], which adds connection handling, request tags,
//! the stale-connection retry and the `send_*`/`recv_*` pipelining.
//!
//! Frame layout, tagging, error frames and the version byte are
//! specified in DESIGN.md §7.7. `tests/wire_golden.rs` pins every
//! operation's bytes on both wires, `tests/bin_fuzz.rs` the decoder's
//! robustness, and `tests/bin_pipeline_stress.rs` in-order pipelining.

pub mod frame;

mod client;
mod server;

pub use crate::ops::Op;
pub use client::{BinMcsClient, BinWire};
pub use server::BinServer;
