//! The MCS web service: every catalog operation exposed as a SOAP method
//! (the Tomcat/Axis deployment of the paper, Figure 4). One handler
//! serves every method: it decodes the request with the op table's SOAP
//! codec and runs it through [`crate::dispatch::serve`].

use std::sync::Arc;

use mcs::{Credential, Mcs, Outcome, ShardedCatalog};
use soapstack::server::{Handler, HttpServer, ResponseWriter, Sent, SoapDispatcher};
use soapstack::xml::Element;
use soapstack::{Fault, Request, Response};

use crate::client::DurabilityMode;
use crate::dispatch::{bad_arguments, fault_of_xml, serve, CallScope};
use crate::ops::{decode_soap, Op};
use crate::wire::credential_from;

/// Parse the per-request `mcs:durability` attribute on the method element
/// (the SOAP header clients use to relax or harden one call's commit
/// policy — see DESIGN.md §7.2).
fn durability_override(call: &Element) -> Result<Option<DurabilityMode>, Fault> {
    let Some(v) = call.attr_value("mcs:durability") else {
        return Ok(None);
    };
    match v {
        "always" => Ok(Some(DurabilityMode::Always)),
        "group" => Ok(Some(DurabilityMode::Group)),
        "async" => Ok(Some(DurabilityMode::Async)),
        other => Err(bad_arguments(format!(
            "unknown mcs:durability mode `{other}` (expected always|group|async)"
        ))),
    }
}

/// Parse the per-request `mcs:cache` attribute on the method element.
/// `bypass` makes every read in this call execute the uncached path — the
/// escape hatch for clients that must observe the raw tables (or measure
/// them, as the fig14 A/B does). Anything else is rejected.
fn cache_bypass(call: &Element) -> Result<bool, Fault> {
    match call.attr_value("mcs:cache") {
        None => Ok(false),
        Some("bypass") => Ok(true),
        Some(other) => {
            Err(bad_arguments(format!("unknown mcs:cache mode `{other}` (expected bypass)")))
        }
    }
}

/// Serve one SOAP call of `op`: the headers, the credential (which
/// `ping` alone ignores) and the arguments, then the answer as the
/// response element, with the commit epoch (and, on a sharded catalog,
/// the shard) it logged as attributes. The response element borrows its
/// text from the answer and is written straight into the response body.
fn serve_soap(
    catalog: &ShardedCatalog,
    op: Op,
    call: &Element,
    w: ResponseWriter<'_>,
) -> Result<Sent, Fault> {
    let scope =
        CallScope { durability: durability_override(call)?, cache_bypass: cache_bypass(call)? };
    let cred = match op {
        Op::Ping => Credential::new(""),
        _ => credential_from(call).map_err(fault_of_xml)?,
    };
    let (answer, Outcome { epoch, shard }) =
        decode_soap(op, call, |c| serve(catalog, &cred, scope, c)).map_err(fault_of_xml)??;
    let mut el = Element::new("r");
    answer.reply().to_el(&mut el, catalog.shards());
    if epoch > 0 {
        el = el.attr("xmlns:mcs", soapstack::soap::MCS_NS).attr("mcs:epoch", epoch.to_string());
        if catalog.shards() > 1 {
            el = el.attr("mcs:shard", shard.to_string());
        }
    }
    Ok(w.send(&el))
}

/// Register every MCS operation on a dispatcher.
pub fn register_methods(d: &mut SoapDispatcher, catalog: Arc<ShardedCatalog>) {
    for &op in Op::ALL {
        let catalog = Arc::clone(&catalog);
        d.register_writer(op.name(), move |call, w| serve_soap(&catalog, op, call, w));
    }
}

/// HTTP handler serving SOAP on POST and the service description on GET.
pub struct McsHandler {
    dispatcher: SoapDispatcher,
    wsdl: String,
}

impl Handler for McsHandler {
    fn handle(&self, req: &Request, resp: &mut Response) {
        if req.method == "GET" {
            resp.headers.push(("Content-Type".into(), "text/xml; charset=utf-8".into()));
            resp.body.extend_from_slice(self.wsdl.as_bytes());
            return;
        }
        self.dispatcher.handle(req, resp)
    }
}

/// A running MCS web service.
pub struct McsServer {
    http: HttpServer,
}

impl McsServer {
    /// Expose `mcs` at `http://{bind_addr}/mcs` with `workers` pool
    /// threads (the paper's Tomcat deployment).
    pub fn start(mcs: Arc<Mcs>, bind_addr: &str, workers: usize) -> std::io::Result<McsServer> {
        Self::start_sharded(Arc::new(ShardedCatalog::from_single(mcs)), bind_addr, workers)
    }

    /// Expose a hash-partitioned catalog ([mcs::ShardedCatalog]) over the
    /// same wire surface. With one shard this is identical to [Self::start].
    pub fn start_sharded(
        catalog: Arc<ShardedCatalog>,
        bind_addr: &str,
        workers: usize,
    ) -> std::io::Result<McsServer> {
        let mut dispatcher = SoapDispatcher::new();
        register_methods(&mut dispatcher, catalog);
        let wsdl = crate::wsdl::describe(&dispatcher);
        let handler = Arc::new(McsHandler { dispatcher, wsdl });
        let http = HttpServer::start(bind_addr, handler, workers)?;
        Ok(McsServer { http })
    }

    /// The bound socket address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.http.addr()
    }

    /// HTTP-level statistics.
    pub fn stats(&self) -> &soapstack::server::ServerStats {
        &self.http.stats
    }

    /// Stop the server (also happens on drop).
    pub fn stop(&mut self) {
        self.http.stop();
    }
}
