//! The binary-protocol side of the typed client: [`BinWire`] carries
//! calls over one persistent length-prefixed connection, and
//! [`BinMcsClient`] — the one typed client over that wire — adds the
//! explicit pipelining API (`send_*`/`recv_*`) that keeps many tagged
//! requests in flight on it.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

use mcs::{AttrPredicate, Attribute, Credential, FileSpec, FileUpdate, LogicalFile, ObjectRef};

use crate::client::{Client, FaultKind, NetError, Result, Wire};
use crate::codec::Reply;
use crate::dispatch::CallScope;
use crate::ops::Call;

use super::frame::*;

/// One established connection: buffered halves of the same socket.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// The binary wire. The connection is established lazily on the first
/// call and then kept for the client's lifetime.
pub struct BinWire {
    addr: String,
    simulated_rtt: Duration,
    conn: Option<Conn>,
    next_tag: u32,
    /// Tags of pipelined requests sent but not yet answered, in send
    /// order — the server answers strictly in this order.
    inflight: VecDeque<u32>,
    /// True when sent frames are sitting in the write buffer, i.e. the
    /// next receive must flush (and pay the simulated RTT) first.
    pending_flush: bool,
}

/// A response frame body and the offset of its payload.
type Payload = (Vec<u8>, usize);

impl BinWire {
    fn ensure_conn(&mut self) -> Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(frame_err)?;
            let _ = stream.set_nodelay(true);
            // Sized for a full pipeline window in both directions.
            let reader =
                BufReader::with_capacity(64 * 1024, stream.try_clone().map_err(frame_err)?);
            let mut writer = BufWriter::with_capacity(64 * 1024, stream);
            // Preamble handshake before any frames, both directions.
            write_preamble(&mut writer).map_err(frame_err)?;
            writer.flush().map_err(frame_err)?;
            let mut conn = Conn { reader, writer };
            read_preamble(&mut conn.reader).map_err(frame_err)?;
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Encode one request frame body under the next tag and write it to
    /// the connection without flushing: tag, opcode, flags, the optional
    /// durability byte, the credential, then the call's arguments. The
    /// caller moves `next_tag` on once the request is on its way.
    fn write_request(
        &mut self,
        cred: &Credential,
        scope: CallScope,
        call: &Call<'_>,
    ) -> Result<u32> {
        let tag = self.next_tag;
        let mut b = Vec::with_capacity(128);
        put_u32(&mut b, tag);
        put_u8(&mut b, call.op() as u8);
        let mut flags = 0u8;
        if scope.durability.is_some() {
            flags |= FLAG_DURABILITY;
        }
        if scope.cache_bypass {
            flags |= FLAG_CACHE_BYPASS;
        }
        put_u8(&mut b, flags);
        if let Some(mode) = scope.durability {
            put_u8(&mut b, mode as u8);
        }
        put_credential(&mut b, cred);
        call.put_args(&mut b);
        let conn = self.ensure_conn()?;
        if let Err(e) = write_frame(&mut conn.writer, &b) {
            self.conn = None;
            return Err(frame_err(e));
        }
        Ok(tag)
    }

    fn advance_tag(&mut self) {
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
    }

    /// Read the response frame for `tag`: the OK payload (recording the
    /// epoch/shard echo) or a fault.
    fn read_response(&mut self, tag: u32, echo: &mut (u64, usize)) -> Result<Payload> {
        let conn = self.conn.as_mut().expect("connected before reading");
        let body = match read_frame(&mut conn.reader) {
            Ok(Some(b)) => b,
            Ok(None) => {
                self.conn = None;
                return Err(NetError::Frame("server closed the connection".into()));
            }
            Err(e) => {
                self.conn = None;
                return Err(frame_err(e));
            }
        };
        let mut r = Reader::new(&body);
        let got_tag = r.u32().map_err(decode_err)?;
        if got_tag != tag {
            // A tag mismatch means the stream is desynchronized; the
            // connection is useless from here on.
            self.conn = None;
            return Err(NetError::Frame(format!(
                "response tag {got_tag} does not match request tag {tag}"
            )));
        }
        match r.u8().map_err(decode_err)? {
            STATUS_OK => {
                let epoch = r.u64().map_err(decode_err)?;
                *echo = (epoch, r.u16().map_err(decode_err)? as usize);
                let at = body.len() - r.remaining();
                Ok((body, at))
            }
            STATUS_FAULT => {
                let code = r.str().map_err(decode_err)?;
                let message = r.str().map_err(decode_err)?;
                r.finish().map_err(decode_err)?;
                // Same code strings as SOAP faults, so the reconstructed
                // kind is identical across protocols.
                Err(NetError::Fault { kind: FaultKind::from_code(&code), message })
            }
            other => {
                self.conn = None;
                Err(NetError::Frame(format!("unknown response status byte {other}")))
            }
        }
    }

    fn request_once(
        &mut self,
        cred: &Credential,
        scope: CallScope,
        call: &Call<'_>,
        echo: &mut (u64, usize),
    ) -> Result<Payload> {
        let tag = self.write_request(cred, scope, call)?;
        let conn = self.conn.as_mut().expect("just written");
        if let Err(e) = conn.writer.flush() {
            self.conn = None;
            return Err(frame_err(e));
        }
        if !self.simulated_rtt.is_zero() {
            std::thread::sleep(self.simulated_rtt);
        }
        self.advance_tag();
        self.pending_flush = false;
        self.read_response(tag, echo)
    }

    /// Take the next in-order pipelined response, flushing the send
    /// buffer first if needed.
    fn recv_payload(&mut self, echo: &mut (u64, usize)) -> Result<Payload> {
        let tag = self
            .inflight
            .pop_front()
            .ok_or_else(|| NetError::Frame("recv with no pipelined request in flight".into()))?;
        if self.pending_flush {
            let conn = self.conn.as_mut().expect("in-flight requests imply a connection");
            if let Err(e) = conn.writer.flush() {
                self.conn = None;
                self.inflight.clear();
                return Err(frame_err(e));
            }
            if !self.simulated_rtt.is_zero() {
                std::thread::sleep(self.simulated_rtt);
            }
            self.pending_flush = false;
        }
        let r = self.read_response(tag, echo);
        if self.conn.is_none() {
            // A transport/desync failure invalidates every later
            // response on this connection too.
            self.inflight.clear();
        }
        r
    }
}

impl Wire for BinWire {
    /// One synchronous round trip. Retries once on a fresh connection if
    /// the kept-alive socket turned out stale — but never with pipelined
    /// requests in flight, where a blind resend could duplicate work.
    fn exchange<R: Reply>(
        &mut self,
        cred: &Credential,
        scope: CallScope,
        call: &Call<'_>,
        echo: &mut (u64, usize),
    ) -> Result<R> {
        if !self.inflight.is_empty() {
            return Err(NetError::Frame(format!(
                "cannot issue a synchronous call with {} pipelined request(s) in flight; \
                 drain them with recv_* first",
                self.inflight.len()
            )));
        }
        let had_conn = self.conn.is_some();
        let payload = match self.request_once(cred, scope, call, echo) {
            Err(NetError::Frame(_)) if had_conn => {
                // The idle connection may have been reaped; one retry on
                // a fresh one, like the SOAP client's stale-retry.
                self.conn = None;
                self.request_once(cred, scope, call, echo)
            }
            other => other,
        };
        parse(payload?)
    }
}

/// The typed client over the binary protocol.
pub type BinMcsClient = Client<BinWire>;

impl BinMcsClient {
    /// Bind a client to an endpoint (`host:port`) and credential. No I/O
    /// happens until the first call.
    pub fn connect(addr: impl Into<String>, cred: Credential) -> BinMcsClient {
        Self::with_rtt(addr, cred, Duration::ZERO)
    }

    /// Like [`BinMcsClient::connect`], with an artificial per-round-trip
    /// latency for WAN experiments. The sleep is paid once per *wire*
    /// round trip, not per request — a pipelined burst of N requests
    /// costs one RTT, which is precisely the effect pipelining exists to
    /// produce.
    pub fn with_rtt(addr: impl Into<String>, cred: Credential, rtt: Duration) -> BinMcsClient {
        let wire = BinWire {
            addr: addr.into(),
            simulated_rtt: rtt,
            conn: None,
            next_tag: 1,
            inflight: VecDeque::new(),
            pending_flush: false,
        };
        Client::new(wire, cred)
    }

    /// Number of pipelined requests sent but not yet received.
    pub fn inflight(&self) -> usize {
        self.wire.inflight.len()
    }

    /// Queue one request without flushing; its tag joins the in-flight
    /// queue. Responses must be drained in the same order with the
    /// matching `recv_*` methods.
    fn send(&mut self, call: Call<'_>) -> Result<u32> {
        let tag = self.wire.write_request(&self.cred, self.scope, &call)?;
        self.wire.advance_tag();
        self.wire.inflight.push_back(tag);
        self.wire.pending_flush = true;
        Ok(tag)
    }

    fn recv<R: Reply>(&mut self) -> Result<R> {
        parse(self.wire.recv_payload(&mut self.echo)?)
    }

    /// Pipeline a `getFile` request (the paper's "simple query").
    pub fn send_get_file(&mut self, name: &str) -> Result<u32> {
        self.send(Call::GetFile { name })
    }

    /// Pipeline a `createFile` request.
    pub fn send_create_file(&mut self, spec: &FileSpec) -> Result<u32> {
        self.send(Call::CreateFile { spec })
    }

    /// Pipeline an `updateFile` request.
    pub fn send_update_file(&mut self, name: &str, update: &FileUpdate) -> Result<u32> {
        self.send(Call::UpdateFile { name, update })
    }

    /// Pipeline a `setAttribute` request.
    pub fn send_set_attribute(&mut self, object: &ObjectRef, attr: &Attribute) -> Result<u32> {
        self.send(Call::SetAttribute { object, attr })
    }

    /// Pipeline a `queryByAttributes` request.
    pub fn send_query_by_attributes(&mut self, preds: &[AttrPredicate]) -> Result<u32> {
        self.send(Call::QueryByAttributes { preds })
    }

    /// Pipeline a `ping` request.
    pub fn send_ping(&mut self) -> Result<u32> {
        self.send(Call::Ping {})
    }

    /// Receive the next pipelined response as a file record (for
    /// `send_get_file` / `send_create_file` / `send_update_file`).
    pub fn recv_file(&mut self) -> Result<LogicalFile> {
        self.recv()
    }

    /// Receive the next pipelined response that carries no payload (for
    /// `send_ping` / `send_set_attribute`).
    pub fn recv_ok(&mut self) -> Result<()> {
        self.recv()
    }

    /// Receive the next pipelined response as query hits (for
    /// `send_query_by_attributes`).
    pub fn recv_hits(&mut self) -> Result<Vec<(String, i64)>> {
        self.recv()
    }
}

/// Decode a full response payload, requiring every byte consumed —
/// trailing bytes mean client and server disagree about the payload
/// shape, which must surface, not be ignored.
fn parse<R: Reply>((body, at): Payload) -> Result<R> {
    let mut r = Reader::new(&body[at..]);
    let v = R::get(&mut r).map_err(decode_err)?;
    r.finish().map_err(decode_err)?;
    Ok(v)
}

fn frame_err(e: std::io::Error) -> NetError {
    NetError::Frame(e.to_string())
}

fn decode_err(e: FrameError) -> NetError {
    NetError::Frame(e.to_string())
}
