//! SOAP client with configurable transport behaviour.
//!
//! The transport options model the paper's client testbed:
//!
//! * `keep_alive = false` (default) opens a TCP connection per call, as the
//!   2003-era Axis HTTP stack did — part of the measured web-service
//!   overhead.
//! * `simulated_rtt` injects a round-trip latency per network exchange so a
//!   single process can stand in for *multiple client hosts on a LAN*
//!   (paper Figures 8–10). One call costs one RTT on an open connection
//!   plus one extra RTT when a connection must be established.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

use crate::http::{read_response_into, write_request, HttpError, Request, Response};
use crate::soap::{self, Result, SoapError};
use crate::xml::Element;

/// Client transport configuration.
#[derive(Debug, Clone)]
pub struct TransportOpts {
    /// Reuse the TCP connection across calls.
    pub keep_alive: bool,
    /// Simulated network round-trip time added per exchange
    /// (`Duration::ZERO` = real loopback only).
    pub simulated_rtt: Duration,
}

impl Default for TransportOpts {
    fn default() -> Self {
        TransportOpts { keep_alive: false, simulated_rtt: Duration::ZERO }
    }
}

/// One open connection: its read and write halves.
type Conn = (BufReader<TcpStream>, BufWriter<TcpStream>);

/// A synchronous SOAP client for one endpoint.
pub struct SoapClient {
    addr: String,
    opts: TransportOpts,
    conn: Option<Conn>,
    /// The request and the response of the last call, reused for the
    /// next: the request's SOAPAction header and body are rewritten in
    /// place, and the result a call returns borrows the response body.
    req: Request,
    resp: Response,
}

impl SoapClient {
    /// Client for `http://{addr}{path}` with default transport options.
    pub fn new(addr: impl Into<String>, path: impl Into<String>) -> SoapClient {
        SoapClient::with_opts(addr, path, TransportOpts::default())
    }

    /// Client with explicit transport options.
    pub fn with_opts(
        addr: impl Into<String>,
        path: impl Into<String>,
        opts: TransportOpts,
    ) -> SoapClient {
        let mut req = Request::post(&path.into(), "text/xml; charset=utf-8", Vec::new());
        req.headers.push(("SOAPAction".into(), String::new().into()));
        if !opts.keep_alive {
            req.headers.push(("Connection".into(), "close".into()));
        }
        SoapClient { addr: addr.into(), opts, conn: None, req, resp: Response::default() }
    }

    /// The endpoint address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn connect(&self) -> std::result::Result<Conn, HttpError> {
        if !self.opts.simulated_rtt.is_zero() {
            // TCP handshake costs one RTT.
            std::thread::sleep(self.opts.simulated_rtt);
        }
        let stream = TcpStream::connect(&self.addr).map_err(HttpError::Io)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(HttpError::Io)?);
        let writer = BufWriter::new(stream);
        Ok((reader, writer))
    }

    /// Invoke `method` with argument children taken from `args`.
    /// Returns the `{method}Response` element, which borrows the
    /// client's response buffer until the next call.
    pub fn call(&mut self, method: &str, args: Element<'_>) -> Result<Element<'_>> {
        let mut body = soap::text_buffer(&mut self.req.body);
        soap::write_request(&mut body, method, &args);
        self.req.body = body.into_bytes();
        let action = self.req.headers[1].1.to_mut();
        action.clear();
        for part in ["\"", soap::MCS_NS, "#", method, "\""] {
            action.push_str(part);
        }

        let mut conn = match self.conn.take() {
            Some(c) if self.opts.keep_alive => c,
            _ => self.connect()?,
        };
        if !self.opts.simulated_rtt.is_zero() {
            // Request + response propagation: one RTT.
            std::thread::sleep(self.opts.simulated_rtt);
        }
        let exchange = |conn: &mut Conn, req: &Request, resp: &mut Response, addr: &str| {
            write_request(&mut conn.1, req, addr)?;
            read_response_into(&mut conn.0, resp)
        };
        if let Err(e) = exchange(&mut conn, &self.req, &mut self.resp, &self.addr) {
            // A stale kept-alive connection may have been closed by the
            // server; retry once on a fresh connection.
            if !self.opts.keep_alive {
                return Err(e.into());
            }
            conn = self.connect()?;
            if !self.opts.simulated_rtt.is_zero() {
                std::thread::sleep(self.opts.simulated_rtt);
            }
            exchange(&mut conn, &self.req, &mut self.resp, &self.addr)?;
        }
        if self.opts.keep_alive
            && !self
                .resp
                .header("Connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.conn = Some(conn);
        }
        let text = std::str::from_utf8(&self.resp.body).map_err(|_| {
            SoapError::Http(HttpError::Malformed("response body is not UTF-8".into()))
        })?;
        soap::decode_response(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{HttpServer, SoapDispatcher};
    use crate::soap::Fault;
    use std::sync::Arc;

    fn echo_server() -> HttpServer {
        let mut d = SoapDispatcher::new();
        d.register("echo", |el| {
            let text = el.find("msg").map(|m| m.text_content()).unwrap_or_default();
            Ok(Element::new("r").child(Element::new("msg").text(text)))
        });
        d.register("fail", |_| {
            Err(Fault { code: "soap:Server".into(), message: "intentional".into() })
        });
        HttpServer::start("127.0.0.1:0", Arc::new(d), 2).unwrap()
    }

    #[test]
    fn call_roundtrip_connection_per_request() {
        let server = echo_server();
        let mut c = SoapClient::new(server.addr().to_string(), "/mcs");
        for i in 0..3 {
            let args = Element::new("a").child(Element::new("msg").text(format!("hello {i}")));
            let r = c.call("echo", args).unwrap();
            assert_eq!(r.find("msg").unwrap().text_content(), format!("hello {i}"));
        }
        // connection-per-request: 3 calls = 3 connections
        assert_eq!(server.stats.connections.load(std::sync::atomic::Ordering::Relaxed), 3);
    }

    #[test]
    fn call_roundtrip_keep_alive() {
        let server = echo_server();
        let opts = TransportOpts { keep_alive: true, simulated_rtt: Duration::ZERO };
        let mut c = SoapClient::with_opts(server.addr().to_string(), "/mcs", opts);
        for _ in 0..5 {
            let args = Element::new("a").child(Element::new("msg").text("x"));
            c.call("echo", args).unwrap();
        }
        assert_eq!(server.stats.connections.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(server.stats.requests.load(std::sync::atomic::Ordering::Relaxed), 5);
    }

    #[test]
    fn fault_propagates() {
        let server = echo_server();
        let mut c = SoapClient::new(server.addr().to_string(), "/mcs");
        match c.call("fail", Element::new("a")) {
            Err(SoapError::Fault(f)) => {
                assert_eq!(f.message, "intentional");
                assert_eq!(f.code, "soap:Server");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_method_faults() {
        let server = echo_server();
        let mut c = SoapClient::new(server.addr().to_string(), "/mcs");
        match c.call("nope", Element::new("a")) {
            Err(SoapError::Fault(f)) => assert!(f.message.contains("no such method")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn simulated_rtt_slows_calls() {
        let server = echo_server();
        let rtt = Duration::from_millis(20);
        let opts = TransportOpts { keep_alive: false, simulated_rtt: rtt };
        let mut c = SoapClient::with_opts(server.addr().to_string(), "/mcs", opts);
        let t0 = std::time::Instant::now();
        c.call("echo", Element::new("a").child(Element::new("msg").text("x"))).unwrap();
        // connect RTT + exchange RTT
        assert!(t0.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn server_stop_is_idempotent() {
        let mut server = echo_server();
        server.stop();
        server.stop();
    }
}
