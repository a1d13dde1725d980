//! # soapstack — a minimal XML + HTTP/1.1 + SOAP 1.1 web-service stack
//!
//! The web-service substrate of the SC'03 MCS reproduction: the original
//! service ran on Apache Tomcat with an Axis SOAP engine; this crate plays
//! that role with a from-scratch XML tree/parser, an HTTP/1.1 server and
//! client over `std::net`, a SOAP envelope codec, and a thread-pool
//! request dispatcher.
//!
//! The client's [`client::TransportOpts`] deliberately model paper-era
//! behaviour (connection per call) and the evaluation testbed (simulated
//! per-host RTT), because the paper's headline result — the web service is
//! ≈4.8× slower than direct database access — *is* the cost of this layer.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod server;
pub mod soap;
pub mod threadpool;
pub use xmlkit as xml;

pub use client::{SoapClient, TransportOpts};
pub use http::{Request, Response};
pub use server::{Handler, HttpServer, SoapDispatcher};
pub use soap::{Fault, SoapError};
pub use threadpool::ThreadPool;
pub use xml::{Element, Node, Str, XmlError};
