//! The paper's three measured operations — add (+delete), simple query,
//! complex query — over either access path:
//!
//! * **Direct** — in-process calls into [`mcs::Mcs`], standing in for the
//!   paper's "MySQL without web service" baseline. An optional simulated
//!   per-operation RTT models the MySQL wire protocol hop the paper's
//!   client hosts paid.
//! * **Soap** — through `mcs-net`'s client against a real HTTP server,
//!   the paper's "MCS with web service" configuration (connection per
//!   request by default, like the 2003 Axis stack).
//! * **Bin** — the same typed client over the binary protocol, plus an
//!   optional pipelined window for simple queries.

use std::sync::Arc;
use std::time::Duration;

use mcs::{Credential, FileSpec, Mcs};
use mcs_net::client::{Client, Wire};
use mcs_net::{BinMcsClient, McsClient};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soapstack::TransportOpts;

use crate::driver::Workload;
use crate::spec;

/// Which path operations take to the catalog.
#[derive(Clone)]
pub enum Access {
    /// In-process catalog calls ("no web service" baseline). The
    /// `wire_rtt` simulates the database wire-protocol round trip each
    /// client host pays per operation (zero = pure in-process).
    Direct {
        /// The catalog.
        mcs: Arc<Mcs>,
        /// Per-operation simulated round trip.
        wire_rtt: Duration,
    },
    /// SOAP calls to an MCS server.
    Soap {
        /// Server address (`host:port`).
        addr: String,
        /// Per-exchange simulated round trip (per host on a LAN).
        rtt: Duration,
        /// Reuse connections across calls (2003 default: false).
        keep_alive: bool,
    },
    /// Binary-protocol calls to a `BinServer` (DESIGN.md §7.7). Always
    /// one persistent connection per worker.
    Bin {
        /// Server address (`host:port`).
        addr: String,
        /// Per-wire-round-trip simulated latency.
        rtt: Duration,
        /// Pipeline window: 1 issues one synchronous request per round
        /// trip; >1 keeps that many requests in flight (simple queries
        /// only — other kinds fall back to the synchronous path).
        pipeline: usize,
    },
}

/// The measured operation kinds (paper §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Add a logical file with ten attributes, then delete it
    /// (size-preserving, exactly as the paper does).
    AddDelete,
    /// Value match on a single static attribute (lookup by logical name).
    SimpleQuery,
    /// Conjunctive value match on `k` user-defined attributes.
    ComplexQuery {
        /// Number of attributes matched (paper uses 10; Figure 11
        /// sweeps 1..=10).
        attrs: usize,
    },
}

/// Credential the drivers act as (the service is opened to [`mcs::ANYONE`]
/// by the populator).
pub fn driver_credential(host: usize, thread: usize) -> Credential {
    Credential::new(format!("/O=Grid/OU=bench/CN=host{host}-thread{thread}"))
}

fn unique_name(host: usize, thread: usize, counter: u64) -> String {
    format!("tmp.h{host:02}.t{thread:02}.{counter:012}.dat")
}

fn add_spec(host: usize, thread: usize, counter: u64, n_files: u64) -> FileSpec {
    let mut s = FileSpec::named(unique_name(host, thread, counter));
    // attribute values drawn from the same distributions as loaded files
    s.attributes = spec::attributes_of(n_files.wrapping_add(counter));
    s
}

/// Build one worker for (host, thread).
pub fn make_worker(
    access: &Access,
    kind: OpKind,
    n_files: u64,
    host: usize,
    thread: usize,
) -> Box<dyn Workload> {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0000 ^ ((host as u64) << 8) ^ thread as u64);
    let cred = driver_credential(host, thread);
    match access.clone() {
        Access::Direct { mcs, wire_rtt } => {
            let mut counter = 0u64;
            Box::new(move || {
                if !wire_rtt.is_zero() {
                    std::thread::sleep(wire_rtt);
                }
                match kind {
                    OpKind::AddDelete => {
                        counter += 1;
                        let spec = add_spec(host, thread, counter, n_files);
                        match mcs.create_file(&cred, &spec) {
                            Ok(_) => mcs.delete_file(&cred, &spec.name).is_ok(),
                            Err(_) => false,
                        }
                    }
                    OpKind::SimpleQuery => {
                        let i = rng.gen_range(0..n_files);
                        mcs.get_file(&cred, &spec::file_name(i)).is_ok()
                    }
                    OpKind::ComplexQuery { attrs } => {
                        let i = rng.gen_range(0..n_files);
                        mcs.query_by_attributes(&cred, &spec::complex_query(i, attrs)).is_ok()
                    }
                }
            })
        }
        Access::Soap { addr, rtt, keep_alive } => {
            let opts = TransportOpts { keep_alive, simulated_rtt: rtt };
            client_worker(McsClient::with_opts(addr, cred, opts), kind, n_files, host, thread, rng)
        }
        Access::Bin { addr, rtt, pipeline } => {
            let mut client = BinMcsClient::with_rtt(addr, cred, rtt);
            if pipeline > 1 && kind == OpKind::SimpleQuery {
                // Sliding window: issue one request per tick; once the
                // window is full, also retire the oldest. Each tick
                // counts one completed-equivalent operation (the up-to-
                // `pipeline` requests still in flight at shutdown are a
                // constant-bounded undercount).
                return Box::new(move || {
                    let i = rng.gen_range(0..n_files);
                    if client.send_get_file(&spec::file_name(i)).is_err() {
                        return false;
                    }
                    if client.inflight() >= pipeline {
                        return client.recv_file().is_ok();
                    }
                    true
                });
            }
            client_worker(client, kind, n_files, host, thread, rng)
        }
    }
}

/// One worker over the typed client, whichever wire it speaks.
fn client_worker<W: Wire + Send + 'static>(
    mut client: Client<W>,
    kind: OpKind,
    n_files: u64,
    host: usize,
    thread: usize,
    mut rng: SmallRng,
) -> Box<dyn Workload> {
    let mut counter = 0u64;
    Box::new(move || match kind {
        OpKind::AddDelete => {
            counter += 1;
            let spec = add_spec(host, thread, counter, n_files);
            match client.create_file(&spec) {
                Ok(_) => client.delete_file(&spec.name).is_ok(),
                Err(_) => false,
            }
        }
        OpKind::SimpleQuery => {
            let i = rng.gen_range(0..n_files);
            client.get_file(&spec::file_name(i)).is_ok()
        }
        OpKind::ComplexQuery { attrs } => {
            let i = rng.gen_range(0..n_files);
            client.query_by_attributes(&spec::complex_query(i, attrs)).is_ok()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_closed_loop, RunConfig};
    use crate::populate::build_catalog;
    use mcs::IndexProfile;

    #[test]
    fn direct_ops_succeed() {
        let built = build_catalog(1_000, IndexProfile::Paper2003);
        let access = Access::Direct { mcs: Arc::clone(&built.mcs), wire_rtt: Duration::ZERO };
        for kind in [OpKind::AddDelete, OpKind::SimpleQuery, OpKind::ComplexQuery { attrs: 10 }]
        {
            let mut w = make_worker(&access, kind, built.n_files, 0, 0);
            assert!(w.run_once(), "{kind:?} failed");
        }
        // add/delete preserved database size
        assert_eq!(built.mcs.file_count().unwrap(), 1_000);
    }

    #[test]
    fn soap_ops_succeed() {
        let built = build_catalog(500, IndexProfile::Paper2003);
        let server = mcs_net::McsServer::start(Arc::clone(&built.mcs), "127.0.0.1:0", 2).unwrap();
        let access = Access::Soap {
            addr: server.addr().to_string(),
            rtt: Duration::ZERO,
            keep_alive: false,
        };
        for kind in [OpKind::AddDelete, OpKind::SimpleQuery, OpKind::ComplexQuery { attrs: 3 }] {
            let mut w = make_worker(&access, kind, built.n_files, 0, 0);
            assert!(w.run_once(), "{kind:?} failed");
        }
    }

    #[test]
    fn bin_ops_succeed() {
        let built = build_catalog(500, IndexProfile::Paper2003);
        let server = mcs_net::BinServer::start(Arc::clone(&built.mcs), "127.0.0.1:0", 2).unwrap();
        let access = Access::Bin {
            addr: server.addr().to_string(),
            rtt: Duration::ZERO,
            pipeline: 1,
        };
        for kind in [OpKind::AddDelete, OpKind::SimpleQuery, OpKind::ComplexQuery { attrs: 3 }] {
            let mut w = make_worker(&access, kind, built.n_files, 0, 0);
            assert!(w.run_once(), "{kind:?} failed");
        }
        // pipelined simple queries keep a window in flight and still succeed
        let access = Access::Bin {
            addr: server.addr().to_string(),
            rtt: Duration::ZERO,
            pipeline: 8,
        };
        let mut w = make_worker(&access, OpKind::SimpleQuery, built.n_files, 0, 1);
        for _ in 0..64 {
            assert!(w.run_once());
        }
    }

    #[test]
    fn closed_loop_measures_simple_queries() {
        let built = build_catalog(1_000, IndexProfile::Paper2003);
        let access = Access::Direct { mcs: Arc::clone(&built.mcs), wire_rtt: Duration::ZERO };
        let cfg = RunConfig::single_host(2, Duration::from_millis(100));
        let m = run_closed_loop(&cfg, |h, t| {
            make_worker(&access, OpKind::SimpleQuery, built.n_files, h, t)
        });
        assert!(m.ops > 10, "implausibly low query rate: {}", m.ops);
        assert_eq!(m.errors, 0);
    }
}
