//! The binary-protocol server: a TCP accept loop feeding per-connection
//! request loops on a worker pool. Each frame is decoded with the op
//! table's binary codec and served by the same executor as SOAP
//! ([`crate::dispatch::serve`]).
//!
//! One connection is served by one worker at a time and requests are
//! processed strictly in arrival order, which is what makes pipelining
//! safe: a client may have any number of tagged requests in flight and
//! the matching responses come back in exactly that order. Responses are
//! buffered and only flushed when the connection has no further request
//! already readable — so a pipelined burst of N requests costs far fewer
//! syscalls than N request/response round-trips.
//!
//! Error policy (fuzz-tested in `tests/bin_fuzz.rs`):
//! * a malformed **stream** — bad preamble, length prefix outside
//!   `[MIN_FRAME, MAX_FRAME]`, EOF mid-frame — kills the connection
//!   (after an explanatory error frame and a lingering close when the
//!   stream position still allows one), because the frame boundary can
//!   no longer be trusted;
//! * a malformed **frame body** — unknown opcode, bad tag bytes,
//!   truncated or trailing payload — answers with a structured fault
//!   frame and the connection keeps serving, exactly like a SOAP fault.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
// `frame::*` exports its own `Result` alias; these handlers fail with
// `Fault`, so pull std's back in.
use std::result::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mcs::{Mcs, Outcome, ShardedCatalog};
use soapstack::server::{linger_close, ServerStats};
use soapstack::threadpool::ThreadPool;
use soapstack::Fault;

use crate::client::DurabilityMode;
use crate::dispatch::{bad_arguments, fault_of_xml, serve, Answer, CallScope};
use crate::ops::{decode_bin, Op};
use crate::wire::shape;

use super::frame::*;

/// How long a worker will wait on a half-sent frame before giving up on
/// the connection — the backstop that keeps a stalled or hostile peer
/// from pinning a pool thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A running binary-protocol MCS server; dropping it shuts it down.
pub struct BinServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Service counters (same shape as the HTTP server's, so the shared
    /// `assert_single_connection` test helper applies to both).
    pub stats: Arc<ServerStats>,
}

impl BinServer {
    /// Expose `mcs` over the binary protocol at `bind_addr` with
    /// `workers` pool threads.
    pub fn start(mcs: Arc<Mcs>, bind_addr: &str, workers: usize) -> io::Result<BinServer> {
        Self::start_sharded(Arc::new(ShardedCatalog::from_single(mcs)), bind_addr, workers)
    }

    /// Expose a hash-partitioned catalog over the binary protocol. With
    /// one shard this is identical to [`BinServer::start`].
    pub fn start_sharded(
        catalog: Arc<ShardedCatalog>,
        bind_addr: &str,
        workers: usize,
    ) -> io::Result<BinServer> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_stats = Arc::clone(&stats);
        let accept_thread = std::thread::Builder::new()
            .name("binproto-accept".into())
            .spawn(move || {
                let pool = ThreadPool::new(workers);
                for conn in listener.incoming() {
                    if accept_shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    accept_stats.connections.fetch_add(1, Ordering::Relaxed);
                    let catalog = Arc::clone(&catalog);
                    let stats = Arc::clone(&accept_stats);
                    pool.execute(move || serve_connection(stream, &catalog, &stats));
                }
            })?;
        Ok(BinServer { addr, shutdown, accept_thread: Some(accept_thread), stats })
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Service counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Request shutdown and join the accept thread.
    pub fn stop(&mut self) {
        if self.accept_thread.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for BinServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_connection(stream: TcpStream, catalog: &ShardedCatalog, stats: &ServerStats) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    // Buffers sized for a full pipeline window of requests/responses, so
    // a deep window drains with one read and one write syscall.
    let mut reader = BufReader::with_capacity(
        64 * 1024,
        match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        },
    );
    let mut writer = BufWriter::with_capacity(64 * 1024, stream);
    // Preamble handshake: anything but `MCSB` + our version closes the
    // connection before a single frame is parsed.
    if read_preamble(&mut reader).is_err() {
        return;
    }
    if write_preamble(&mut writer).is_err() || writer.flush().is_err() {
        return;
    }
    loop {
        let body = match read_frame(&mut reader) {
            Ok(Some(b)) => b,
            Ok(None) => return, // clean close on a frame boundary
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Hostile length prefix: say why (tag 0 — the request's
                // tag is inside the frame we refused to read), then close
                // the connection; the stream offset is garbage now.
                let mut body = Vec::new();
                put_u32(&mut body, 0);
                put_fault(&mut body, &bad_arguments(e.to_string()));
                let _ = write_frame(&mut writer, &body);
                linger_close(&mut reader, writer);
                return;
            }
            Err(_) => return, // EOF mid-frame or a read timeout
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let resp = handle_frame(catalog, &body);
        if write_frame(&mut writer, &resp).is_err() {
            return;
        }
        // Pipelining: pay the flush only when no further request is
        // already buffered — a burst of N requests gets its N responses
        // in (usually) one write.
        if reader.buffer().is_empty() && writer.flush().is_err() {
            return;
        }
    }
}

/// One request frame in, one response frame body out. Never panics on
/// hostile input: every decode error becomes a structured fault frame.
pub fn handle_frame(catalog: &ShardedCatalog, body: &[u8]) -> Vec<u8> {
    let mut r = Reader::new(body);
    let mut b = Vec::with_capacity(128);
    // MIN_FRAME guarantees the tag is present.
    put_u32(&mut b, r.u32().unwrap_or(0));
    match run_request(catalog, &mut r) {
        Ok((answer, Outcome { epoch, shard })) => {
            put_u8(&mut b, STATUS_OK);
            put_u64(&mut b, epoch);
            // A call that logged nothing echoes (0, 0), matching the SOAP
            // front end where the epoch/shard attributes are simply absent.
            put_u16(&mut b, if epoch == 0 { 0 } else { shard as u16 });
            answer.reply().put(&mut b);
        }
        Err(fault) => put_fault(&mut b, &fault),
    }
    b
}

fn put_fault(b: &mut Vec<u8>, fault: &Fault) {
    put_u8(b, STATUS_FAULT);
    put_str(b, &fault.code);
    put_str(b, &fault.message);
}

/// A frame-decode failure maps to the same fault a malformed SOAP body
/// gets, so the client-side error kind is `BadArguments` either way.
fn fault_of_frame(e: FrameError) -> Fault {
    fault_of_xml(shape(e.to_string()))
}

/// Decode the request header, the credential and the arguments, then
/// serve the call.
fn run_request(catalog: &ShardedCatalog, r: &mut Reader) -> Result<(Answer, Outcome), Fault> {
    let opcode = r.u8().map_err(fault_of_frame)?;
    let flags = r.u8().map_err(fault_of_frame)?;
    if flags & !(FLAG_DURABILITY | FLAG_CACHE_BYPASS) != 0 {
        return Err(fault_of_xml(shape(format!("unknown request flags {flags:#04x}"))));
    }
    let durability = if flags & FLAG_DURABILITY != 0 {
        Some(match r.u8().map_err(fault_of_frame)? {
            0 => DurabilityMode::Always,
            1 => DurabilityMode::Group,
            2 => DurabilityMode::Async,
            other => {
                return Err(fault_of_xml(shape(format!(
                    "unknown durability mode byte {other} (expected 0|1|2)"
                ))))
            }
        })
    } else {
        None
    };
    let scope = CallScope { durability, cache_bypass: flags & FLAG_CACHE_BYPASS != 0 };
    let op = Op::from_u8(opcode).ok_or_else(|| Fault {
        code: "soap:Client".into(),
        message: format!("no such method `{opcode:#04x}`"),
    })?;
    let cred = get_credential(r).map_err(fault_of_frame)?;
    decode_bin(op, r, |call| serve(catalog, &cred, scope, call)).map_err(fault_of_frame)?
}
