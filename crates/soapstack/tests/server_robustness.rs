//! Server robustness: malformed input, connection churn, concurrency,
//! and shutdown behaviour of the HTTP/SOAP stack.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use soapstack::xml::Element;
use soapstack::{Fault, HttpServer, Request, Response, SoapClient, SoapDispatcher};

fn echo_server(workers: usize) -> HttpServer {
    let mut d = SoapDispatcher::new();
    d.register("echo", |el| {
        Ok(Element::new("r").child(Element::new("msg").text(
            el.find("msg").map(|m| m.text_content()).unwrap_or_default(),
        )))
    });
    d.register("slow", |_| {
        std::thread::sleep(std::time::Duration::from_millis(30));
        Ok(Element::new("r"))
    });
    HttpServer::start("127.0.0.1:0", Arc::new(d), workers).unwrap()
}

fn raw(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(bytes).unwrap();
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

#[test]
fn malformed_request_line_gets_400() {
    let server = echo_server(2);
    let resp = raw(server.addr(), b"GARBAGE\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
}

#[test]
fn malformed_request_with_trailing_bytes_gets_400_then_clean_eof() {
    // The server gives up on the stream at the bad request line, with
    // most of what follows still unread. Closing a socket with unread
    // input resets the connection, which can destroy the 400 before the
    // client reads it; the server must drain the rest and close cleanly.
    let server = echo_server(2);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    s.write_all(b"GARBAGE\r\n\r\n").unwrap();
    s.write_all(&[0xAB; 32 * 1024]).unwrap();
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("the 400 and a clean EOF, not a reset");
    let resp = String::from_utf8_lossy(&out);
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
}

#[test]
fn non_soap_body_gets_fault() {
    let server = echo_server(2);
    let resp = raw(
        server.addr(),
        b"POST /mcs HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\nConnection: close\r\n\r\nnot xml!!",
    );
    assert!(resp.contains("soap:Client"), "{resp}");
    assert!(resp.starts_with("HTTP/1.1 500"));
}

#[test]
fn empty_connection_is_tolerated() {
    let server = echo_server(2);
    // connect and immediately close — must not wedge the server
    for _ in 0..5 {
        drop(TcpStream::connect(server.addr()).unwrap());
    }
    let mut c = SoapClient::new(server.addr().to_string(), "/mcs");
    let r = c.call("echo", Element::new("a").child(Element::new("msg").text("still alive")));
    assert_eq!(r.unwrap().find("msg").unwrap().text_content(), "still alive");
}

#[test]
fn many_concurrent_clients_on_few_workers() {
    let server = echo_server(2); // fewer workers than clients: requests queue
    let addr = server.addr().to_string();
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = SoapClient::new(addr, "/mcs");
                for j in 0..10 {
                    let msg = format!("t{i}-{j}");
                    let r = c
                        .call("echo", Element::new("a").child(Element::new("msg").text(&msg)))
                        .unwrap();
                    assert_eq!(r.find("msg").unwrap().text_content(), msg);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(
        server.stats.requests.load(std::sync::atomic::Ordering::Relaxed),
        80
    );
}

#[test]
fn slow_handler_does_not_block_other_workers() {
    let server = echo_server(4);
    let addr = server.addr().to_string();
    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = SoapClient::new(addr, "/mcs");
            c.call("slow", Element::new("a")).unwrap();
        })
    };
    // while `slow` sleeps, echoes still go through
    let mut c = SoapClient::new(addr, "/mcs");
    let t0 = std::time::Instant::now();
    c.call("echo", Element::new("a").child(Element::new("msg").text("fast"))).unwrap();
    assert!(t0.elapsed() < std::time::Duration::from_millis(25));
    slow.join().unwrap();
}

#[test]
fn custom_handler_get_and_post() {
    struct Both;
    impl soapstack::Handler for Both {
        fn handle(&self, req: &Request, resp: &mut Response) {
            *resp = if req.method == "GET" {
                Response::ok("text/plain", b"hello".to_vec())
            } else {
                Response::error(405, "Method Not Allowed", "POST not here")
            }
        }
    }
    let server = HttpServer::start("127.0.0.1:0", Arc::new(Both), 1).unwrap();
    let resp = raw(server.addr(), b"GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    assert!(resp.ends_with("hello"));
    let resp = raw(
        server.addr(),
        b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 405"));
}

#[test]
fn fault_details_cross_the_wire() {
    let mut d = SoapDispatcher::new();
    d.register("always_fails", |_| {
        Err(Fault { code: "soap:Server.Custom".into(), message: "with <angle> & amp".into() })
    });
    let server = HttpServer::start("127.0.0.1:0", Arc::new(d), 1).unwrap();
    let mut c = SoapClient::new(server.addr().to_string(), "/mcs");
    match c.call("always_fails", Element::new("a")) {
        Err(soapstack::SoapError::Fault(f)) => {
            assert_eq!(f.code, "soap:Server.Custom");
            assert_eq!(f.message, "with <angle> & amp");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn server_survives_drop_while_clients_active() {
    let mut server = echo_server(2);
    let addr = server.addr().to_string();
    let mut c = SoapClient::new(addr, "/mcs");
    c.call("echo", Element::new("a").child(Element::new("msg").text("x"))).unwrap();
    server.stop();
    // further calls fail cleanly rather than hanging
    let r = c.call("echo", Element::new("a").child(Element::new("msg").text("y")));
    assert!(r.is_err());
}

/// A body nested deeper than the XML depth cap is a client fault, not a
/// stack overflow: a pool worker's stack cannot hold 100 000 levels of
/// recursion, and overflowing it aborts the whole process. The same
/// server then answers a normal call.
#[test]
fn deeply_nested_envelope_gets_fault_and_server_survives() {
    let server = echo_server(1);
    let depth = 100_000;
    let body = "<soap:Envelope><soap:Body><m:echo>".to_owned()
        + &"<a>".repeat(depth)
        + &"</a>".repeat(depth)
        + "</m:echo></soap:Body></soap:Envelope>";
    let head = format!(
        "POST /mcs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let resp = raw(server.addr(), (head + &body).as_bytes());
    assert!(resp.starts_with("HTTP/1.1 500"), "{resp}");
    assert!(resp.contains("soap:Client") && resp.contains("nested deeper"), "{resp}");
    let mut c = SoapClient::new(server.addr().to_string(), "/mcs");
    let r = c.call("echo", Element::new("a").child(Element::new("msg").text("after")));
    assert_eq!(r.unwrap().find("msg").unwrap().text_content(), "after");
}

/// A peer that streams a megabyte with no line end gets a 400 once the
/// server has read past the 64 KiB header cap, while it is still
/// sending; the server keeps serving other clients.
#[test]
fn endless_header_line_gets_400_and_server_survives() {
    let server = echo_server(1);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let mut reader = s.try_clone().unwrap();
    let answer = std::thread::spawn(move || {
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        // read until the server closes; a reset after the answer is fine
        while let Ok(n @ 1..) = reader.read(&mut buf) {
            out.extend_from_slice(&buf[..n]);
        }
        String::from_utf8_lossy(&out).into_owned()
    });
    // one megabyte, without closing: a server that waits for the line
    // end never answers
    let mut sent = 0;
    while sent < 1 << 20 && s.write_all(&[b'a'; 4096]).is_ok() {
        sent += 4096;
    }
    let resp = answer.join().unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp:?}");
    let mut c = SoapClient::new(server.addr().to_string(), "/mcs");
    let r = c.call("echo", Element::new("a").child(Element::new("msg").text("next")));
    assert_eq!(r.unwrap().find("msg").unwrap().text_content(), "next");
}
