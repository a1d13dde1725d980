//! Threaded HTTP server with a SOAP dispatch layer (the Tomcat+Axis
//! stand-in hosting the MCS service).

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{read_request_into, write_response, Request, Response};
use crate::soap::{self, Fault};
use crate::threadpool::ThreadPool;
use crate::xml::Element;

/// Request handler for the HTTP layer.
pub trait Handler: Send + Sync + 'static {
    /// Handle one request by filling in `resp`, which arrives as an empty
    /// 200 response whose body buffer the connection reuses.
    fn handle(&self, req: &Request, resp: &mut Response);
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request, resp: &mut Response) {
        *resp = self(req);
    }
}

/// Counters exposed by the server (requests served, connections accepted).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Total HTTP requests served.
    pub requests: AtomicU64,
    /// Total TCP connections accepted.
    pub connections: AtomicU64,
}

impl ServerStats {
    /// Assert that `expected_requests` calls were all served over a
    /// single accepted connection — the witness that a keep-alive (or
    /// persistent binary-protocol) client really reused its socket. The
    /// `what` string names the client under test in the panic message.
    pub fn assert_single_connection(&self, expected_requests: u64, what: &str) {
        assert_eq!(
            self.connections.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "{what}: {expected_requests} sequential calls must share one TCP connection"
        );
        assert_eq!(
            self.requests.load(std::sync::atomic::Ordering::Relaxed),
            expected_requests,
            "{what}: request count"
        );
    }
}

/// A running HTTP server; dropping it shuts it down.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Service counters.
    pub stats: Arc<ServerStats>,
}

impl HttpServer {
    /// Bind `bind_addr` (e.g. `127.0.0.1:0`) and serve requests on
    /// `workers` pool threads.
    pub fn start(
        bind_addr: &str,
        handler: Arc<dyn Handler>,
        workers: usize,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_stats = Arc::clone(&stats);
        let accept_thread = std::thread::Builder::new()
            .name("soap-accept".into())
            .spawn(move || {
                let pool = ThreadPool::new(workers);
                for conn in listener.incoming() {
                    if accept_shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    accept_stats.connections.fetch_add(1, Ordering::Relaxed);
                    let handler = Arc::clone(&handler);
                    let stats = Arc::clone(&accept_stats);
                    pool.execute(move || serve_connection(stream, &*handler, &stats));
                }
                // pool drops here, joining workers
            })?;
        Ok(HttpServer { addr, shutdown, accept_thread: Some(accept_thread), stats })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown and join the accept thread.
    pub fn stop(&mut self) {
        if self.accept_thread.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::Release);
        // Unblock accept() with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_connection(stream: TcpStream, handler: &dyn Handler, stats: &ServerStats) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    // one request and one response, reused for every exchange
    let (mut req, mut resp) = (Request::default(), Response::default());
    loop {
        match read_request_into(&mut reader, &mut req) {
            Ok(true) => {}
            Ok(false) => return, // clean close
            Err(_) => {
                let resp = Response::error(400, "Bad Request", "malformed request");
                let _ = write_response(&mut writer, &resp, false);
                linger_close(&mut reader, writer);
                return;
            }
        }
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let keep = req.keep_alive();
        resp.clear();
        handler.handle(&req, &mut resp);
        if write_response(&mut writer, &resp, keep).is_err() || !keep {
            return;
        }
    }
}

/// How long [`linger_close`] keeps draining a peer that keeps sending.
const LINGER: Duration = Duration::from_secs(1);
/// How many bytes [`linger_close`] drains before giving up on the peer.
const LINGER_BYTES: usize = 64 * 1024;

/// Close a connection whose input can no longer be trusted, once the
/// caller has written the error response or frame that says why, so that
/// the peer reads that error and then a clean EOF. Dropping a socket with
/// unread input makes the kernel reset the connection, which can destroy
/// the error before the peer reads it; so this flushes, shuts down the
/// write side, and drains what the peer still sends until EOF,
/// [`LINGER`] or [`LINGER_BYTES`], whichever comes first.
pub fn linger_close(reader: &mut impl Read, mut writer: BufWriter<TcpStream>) {
    if writer.flush().is_err() {
        return;
    }
    let stream = writer.get_ref();
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut buf = [0u8; 4096];
    let mut drained = 0;
    while drained < LINGER_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

/// Where a SOAP method writes its result: the body of the response
/// being built.
pub struct ResponseWriter<'o> {
    method: &'o str,
    out: &'o mut String,
}

/// Proof that a method wrote its result ([`ResponseWriter::send`]).
pub struct Sent(());

impl ResponseWriter<'_> {
    /// Write `result` as the response envelope: its children become the
    /// `{method}Response` element's children, its attributes that
    /// element's attributes.
    pub fn send(self, result: &Element<'_>) -> Sent {
        soap::write_response(self.out, self.method, result);
        Sent(())
    }
}

/// A SOAP method implementation: takes the decoded method element and
/// writes its result through the [`ResponseWriter`], or returns a fault.
pub type SoapMethod =
    Box<dyn Fn(&Element<'_>, ResponseWriter<'_>) -> Result<Sent, Fault> + Send + Sync>;

/// Dispatches SOAP calls on an HTTP path to registered methods.
#[derive(Default)]
pub struct SoapDispatcher {
    methods: HashMap<String, SoapMethod>,
}

impl SoapDispatcher {
    /// New, empty dispatcher.
    pub fn new() -> SoapDispatcher {
        SoapDispatcher::default()
    }

    /// Register `method` under its SOAP name: it returns the result
    /// element (children are the response payload), which may borrow
    /// from the method element.
    pub fn register(
        &mut self,
        name: &str,
        method: impl for<'e, 'x> Fn(&'e Element<'x>) -> Result<Element<'e>, Fault>
            + Send
            + Sync
            + 'static,
    ) {
        self.register_writer(name, move |call, w| Ok(w.send(&method(call)?)));
    }

    /// Register `method` under its SOAP name: it writes its result
    /// itself, so the result may borrow from what the method computed.
    pub fn register_writer(
        &mut self,
        name: &str,
        method: impl Fn(&Element<'_>, ResponseWriter<'_>) -> Result<Sent, Fault>
            + Send
            + Sync
            + 'static,
    ) {
        self.methods.insert(name.to_owned(), Box::new(method));
    }

    /// Names of all registered methods, sorted (used by the WSDL generator).
    pub fn method_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.methods.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Run the call in the envelope `body`, writing the response
    /// envelope to `out`; the HTTP status it goes with.
    fn serve(&self, body: &str, out: &mut String) -> u16 {
        let fault = match soap::decode_request(body) {
            Err(e) => Fault { code: "soap:Client".into(), message: format!("bad envelope: {e}") },
            Ok((method, call)) => match self.methods.get(&*method) {
                None => Fault {
                    code: "soap:Client".into(),
                    message: format!("no such method `{method}`"),
                },
                Some(f) => match f(&call, ResponseWriter { method: &method, out }) {
                    Ok(Sent(())) => return 200,
                    Err(fault) => fault,
                },
            },
        };
        out.clear();
        soap::write_fault(out, &fault);
        500
    }
}

impl Handler for SoapDispatcher {
    fn handle(&self, req: &Request, resp: &mut Response) {
        let Ok(body) = std::str::from_utf8(&req.body) else {
            *resp = Response::error(400, "Bad Request", "body is not UTF-8");
            return;
        };
        // the envelope is written straight into the response's body buffer
        let mut out = soap::text_buffer(&mut resp.body);
        resp.status = self.serve(body, &mut out);
        if resp.status != 200 {
            resp.reason = "Internal Server Error".into();
        }
        resp.body = out.into_bytes();
        resp.headers.push(("Content-Type".into(), "text/xml; charset=utf-8".into()));
    }
}
