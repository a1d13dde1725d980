//! Robustness harness for the binary frame decoder: a hostile or broken
//! peer — bad magic, truncated frames, oversized length prefixes,
//! garbage opcodes, malformed payloads, byte-at-a-time writes, random
//! frame bodies — must never panic the server, never hang a worker, and
//! must be answered with either a clean connection close or a
//! structured error frame on an intact connection. After every abuse
//! the server must still serve a well-behaved client.
//!
//! Seeded like the twin harness: `MCS_SEED=<seed> cargo test -p mcs-net
//! --test bin_fuzz` replays a failing randomized round.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use mcs::{AttrType, Credential, FileSpec, IndexProfile, ManualClock, ObjectRef, ShardedCatalog};
use mcs_net::binproto::frame::{
    self, read_frame, read_preamble, write_frame, write_preamble, Reader, MAGIC, STATUS_FAULT,
    VERSION,
};
use mcs_net::binproto::BinServer;
use mcs_net::{BinMcsClient, FaultKind, NetError};
use testkit::{seeds, Rng};

fn seed() -> u64 {
    seeds(&[0xF0_5EED])[0]
}

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

fn start_server() -> BinServer {
    let catalog = Arc::new(
        ShardedCatalog::in_memory(
            1,
            &admin(),
            IndexProfile::Paper2003,
            Arc::new(ManualClock::default()),
            None,
            false,
        )
        .unwrap(),
    );
    BinServer::start_sharded(catalog, "127.0.0.1:0", 2).unwrap()
}

/// Raw socket with the preamble handshake already done.
fn handshaken(server: &BinServer) -> TcpStream {
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_preamble(&mut s).unwrap();
    read_preamble(&mut s).unwrap();
    s
}

/// The server must still serve a well-behaved client — the proof that
/// an abusive connection damaged nothing but itself.
fn assert_server_alive(server: &BinServer) {
    let mut c = BinMcsClient::connect(server.addr().to_string(), admin());
    c.ping().expect("server must survive hostile input");
}

/// Drain one response frame and assert it is a fault frame; returns the
/// fault code.
fn expect_fault_frame(s: &mut TcpStream) -> String {
    let body = read_frame(s).unwrap().expect("expected an error frame, got a close");
    let mut r = Reader::new(&body);
    let _tag = r.u32().unwrap();
    assert_eq!(r.u8().unwrap(), STATUS_FAULT, "expected a fault frame");
    r.str().unwrap()
}

/// Assert the peer closed the connection (EOF) instead of hanging.
fn expect_close(s: &mut TcpStream) {
    let mut buf = [0u8; 64];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue, // drain whatever was in flight
            Err(e) => panic!("expected clean close, got {e}"),
        }
    }
}

/// A well-formed ping request frame body for tag `tag`: header + the
/// admin credential, no arguments.
fn ping_body(tag: u32) -> Vec<u8> {
    let mut b = Vec::new();
    frame::put_u32(&mut b, tag);
    frame::put_u8(&mut b, 0x01); // Op::Ping
    frame::put_u8(&mut b, 0); // no flags
    frame::put_credential(&mut b, &admin());
    b
}

fn expect_ok_ping(s: &mut TcpStream, tag: u32) {
    let body = read_frame(s).unwrap().expect("connection must still be serving");
    let mut r = Reader::new(&body);
    assert_eq!(r.u32().unwrap(), tag);
    assert_eq!(r.u8().unwrap(), frame::STATUS_OK);
}

#[test]
fn bad_preamble_closes_the_connection() {
    let server = start_server();
    // Wrong magic entirely.
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    expect_close(&mut s);
    // Right magic, wrong version byte.
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(&MAGIC).unwrap();
    s.write_all(&[VERSION + 1]).unwrap();
    expect_close(&mut s);
    assert_server_alive(&server);
}

#[test]
fn oversized_length_prefix_gets_error_frame_then_close() {
    let server = start_server();
    for len in [u32::MAX, frame::MAX_FRAME + 1, 0, frame::MIN_FRAME - 1] {
        let mut s = handshaken(&server);
        s.write_all(&len.to_le_bytes()).unwrap();
        // Follow with some bytes so a naive server would try to parse.
        s.write_all(&[0xAB; 16]).unwrap();
        let code = expect_fault_frame(&mut s);
        assert_eq!(code, "soap:Client.BadArguments", "length {len}");
        expect_close(&mut s);
        assert_server_alive(&server);
    }
}

#[test]
fn truncated_frame_closes_without_hanging() {
    let server = start_server();
    // Announce 100 bytes, send 10, close.
    let mut s = handshaken(&server);
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(&[0x42; 10]).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    expect_close(&mut s);
    // EOF exactly on the length prefix boundary is a clean close.
    let mut s = handshaken(&server);
    s.write_all(&100u32.to_le_bytes()[..2]).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    expect_close(&mut s);
    assert_server_alive(&server);
}

#[test]
fn garbage_opcode_gets_fault_and_connection_survives() {
    let server = start_server();
    let mut s = handshaken(&server);
    let mut b = Vec::new();
    frame::put_u32(&mut b, 7);
    frame::put_u8(&mut b, 0xEE); // unassigned opcode
    frame::put_u8(&mut b, 0);
    frame::put_credential(&mut b, &admin());
    write_frame(&mut s, &b).unwrap();
    let code = expect_fault_frame(&mut s);
    assert_eq!(code, "soap:Client");
    // Same connection keeps serving.
    write_frame(&mut s, &ping_body(8)).unwrap();
    expect_ok_ping(&mut s, 8);
}

/// An answer too large for one frame comes back as a server fault, and
/// the connection keeps serving: the client never sees a length prefix
/// it must refuse.
#[test]
fn oversize_answer_gets_fault_and_connection_survives() {
    let catalog = Arc::new(
        ShardedCatalog::in_memory(
            1,
            &admin(),
            IndexProfile::Paper2003,
            Arc::new(ManualClock::default()),
            None,
            false,
        )
        .unwrap(),
    );
    // 17 attributes of 1 MiB each: the getAttributes answer is just
    // over MAX_FRAME (16 MiB).
    let blob = "x".repeat(1 << 20);
    let mut spec = FileSpec::named("big");
    for k in 0..17 {
        let name = format!("blob{k}");
        catalog.shard(0).define_attribute(&admin(), &name, AttrType::Str, "").unwrap();
        spec = spec.attr(name, blob.as_str());
    }
    catalog.shard(0).create_file(&admin(), &spec).unwrap();
    let server = BinServer::start_sharded(catalog, "127.0.0.1:0", 2).unwrap();
    let mut c = BinMcsClient::connect(server.addr().to_string(), admin());
    match c.get_attributes(&ObjectRef::File("big".into())) {
        Err(NetError::Fault { kind: FaultKind::Internal, message }) => {
            assert!(message.contains("frame limit"), "{message}")
        }
        other => panic!("expected an Internal fault, got {:?}", other.map(|a| a.len())),
    }
    c.ping().unwrap();
    assert_eq!(c.get_file("big").unwrap().name, "big");
    server.stats().assert_single_connection(3, "oversize answer");
}

#[test]
fn malformed_payload_gets_fault_and_connection_survives() {
    let server = start_server();
    let mut s = handshaken(&server);

    // getFile whose string length points past the end of the frame.
    let mut b = Vec::new();
    frame::put_u32(&mut b, 1);
    frame::put_u8(&mut b, 0x12); // Op::GetFile
    frame::put_u8(&mut b, 0);
    frame::put_credential(&mut b, &admin());
    frame::put_u32(&mut b, 10_000); // claimed string length
    b.extend_from_slice(b"short");
    write_frame(&mut s, &b).unwrap();
    assert_eq!(expect_fault_frame(&mut s), "soap:Client.BadArguments");

    // Trailing bytes after a well-formed request must be rejected, not
    // silently ignored — they would mean client/server shape drift.
    let mut b = ping_body(2);
    b.push(0xFF);
    write_frame(&mut s, &b).unwrap();
    assert_eq!(expect_fault_frame(&mut s), "soap:Client.BadArguments");

    // Unknown flag bits are a decode error too.
    let mut b = Vec::new();
    frame::put_u32(&mut b, 3);
    frame::put_u8(&mut b, 0x01);
    frame::put_u8(&mut b, 0b1000_0000);
    frame::put_credential(&mut b, &admin());
    write_frame(&mut s, &b).unwrap();
    assert_eq!(expect_fault_frame(&mut s), "soap:Client.BadArguments");

    // Bad durability byte.
    let mut b = Vec::new();
    frame::put_u32(&mut b, 4);
    frame::put_u8(&mut b, 0x01);
    frame::put_u8(&mut b, frame::FLAG_DURABILITY);
    frame::put_u8(&mut b, 9);
    frame::put_credential(&mut b, &admin());
    write_frame(&mut s, &b).unwrap();
    assert_eq!(expect_fault_frame(&mut s), "soap:Client.BadArguments");

    // The connection is intact after four consecutive faults.
    write_frame(&mut s, &ping_body(5)).unwrap();
    expect_ok_ping(&mut s, 5);
}

#[test]
fn byte_at_a_time_writes_still_parse() {
    // A slow peer dribbling one byte per write (worst-case interleaved
    // partial writes) must be served exactly like a fast one.
    let server = start_server();
    let mut s = handshaken(&server);
    let body = ping_body(42);
    let mut framed = Vec::new();
    write_frame(&mut framed, &body).unwrap();
    for byte in framed {
        s.write_all(&[byte]).unwrap();
        s.flush().unwrap();
    }
    expect_ok_ping(&mut s, 42);
}

#[test]
fn random_frame_bodies_never_panic_or_hang_the_server() {
    let server = start_server();
    let mut rng = Rng::new(seed());
    for round in 0..200 {
        let mut s = handshaken(&server);
        let n = rng.below(64) as usize + 1;
        let mut body = Vec::with_capacity(n);
        for _ in 0..n {
            body.push(rng.next() as u8);
        }
        // Bias half the rounds toward "almost valid": a correct header
        // with random argument bytes digs deeper into the decoders.
        if rng.below(2) == 0 {
            let mut b = Vec::new();
            frame::put_u32(&mut b, round);
            frame::put_u8(&mut b, [0x01, 0x10, 0x12, 0x44, 0x41][rng.below(5) as usize]);
            frame::put_u8(&mut b, 0);
            frame::put_credential(&mut b, &admin());
            b.extend_from_slice(&body);
            body = b;
        }
        write_frame(&mut s, &body).unwrap();
        // The response must come promptly and be either a fault frame, a
        // (fluke) success, or a clean close — anything but a hang or a
        // dead server.
        match read_frame(&mut s) {
            Ok(Some(resp)) => {
                let mut r = Reader::new(&resp);
                r.u32().unwrap();
                let status = r.u8().unwrap();
                assert!(
                    status == frame::STATUS_OK || status == STATUS_FAULT,
                    "round {round}: unknown status {status}"
                );
            }
            Ok(None) => {}
            Err(e) => panic!("round {round}: expected frame or close, got {e}"),
        }
    }
    assert_server_alive(&server);
}

#[test]
fn random_bytes_through_record_decoders_never_panic() {
    // Codec-level fuzz, no sockets: every record decoder over random
    // buffers must return Ok or Err, never panic, and never read past
    // the buffer (the Reader is bounds-checked; a panic here would be an
    // index bug in a decoder).
    let mut rng = Rng::new(seed() ^ 0xDEC0DE);
    for _ in 0..2000 {
        let n = rng.below(48) as usize;
        let mut buf = Vec::with_capacity(n);
        for _ in 0..n {
            buf.push(rng.next() as u8);
        }
        let _ = frame::get_filespec(&mut Reader::new(&buf));
        let _ = frame::get_fileupdate(&mut Reader::new(&buf));
        let _ = frame::get_file(&mut Reader::new(&buf));
        let _ = frame::get_credential(&mut Reader::new(&buf));
        let _ = frame::get_objref(&mut Reader::new(&buf));
        let _ = frame::get_predicate(&mut Reader::new(&buf));
        let _ = frame::get_attribute(&mut Reader::new(&buf));
        let _ = frame::get_value(&mut Reader::new(&buf));
        let _ = frame::get_collection(&mut Reader::new(&buf));
        let _ = frame::get_view(&mut Reader::new(&buf));
        let _ = frame::get_user(&mut Reader::new(&buf));
        let _ = frame::get_extcat(&mut Reader::new(&buf));
        let _ = frame::get_audit(&mut Reader::new(&buf));
        let _ = frame::get_annotation(&mut Reader::new(&buf));
        let _ = frame::get_history(&mut Reader::new(&buf));
        let _ = frame::get_hits(&mut Reader::new(&buf));
        let _ = frame::get_strs(&mut Reader::new(&buf));
        let _ = frame::get_u64s(&mut Reader::new(&buf));
    }
    // And every *valid* encoding must survive arbitrary truncation.
    let spec = FileSpec::named("fuzz.dat").attr("run", 7i64).in_collection("c0");
    let mut enc = Vec::new();
    frame::put_filespec(&mut enc, &spec);
    for cut in 0..enc.len() {
        assert!(
            frame::get_filespec(&mut Reader::new(&enc[..cut])).is_err(),
            "truncation at {cut} must error, not succeed"
        );
    }
}
