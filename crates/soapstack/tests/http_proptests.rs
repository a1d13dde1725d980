//! Property tests: HTTP request/response framing round-trips arbitrary
//! bodies.

use soapstack::{Request, Response};
use std::io::BufReader;
use testkit::check;

const TARGET: &str = "-p soapstack --test http_proptests";

#[test]
fn http_request_roundtrip() {
    check(TARGET, 64, |rng| {
        let body = rng.vec(0..2048, |r| r.next() as u8);
        let path = format!("/{}", rng.string("a-z", 0..13));
        let req = Request::post(&path, "application/octet-stream", body.clone());
        let mut wire = Vec::new();
        soapstack::http::write_request(&mut wire, &req, "h:1").unwrap();
        let got = soapstack::http::read_request(&mut BufReader::new(&wire[..])).unwrap().unwrap();
        assert_eq!(got.body, body);
        assert_eq!(got.path, path);
    });
}

#[test]
fn http_response_roundtrip() {
    check(TARGET, 64, |rng| {
        let body = rng.vec(0..2048, |r| r.next() as u8);
        let status = rng.range(200..600) as u16;
        let mut resp = Response::ok("application/octet-stream", body.clone());
        resp.status = status;
        let mut wire = Vec::new();
        soapstack::http::write_response(&mut wire, &resp, false).unwrap();
        let got = soapstack::http::read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(got.status, status);
        assert_eq!(got.body, body);
    });
}

#[test]
fn soap_envelope_roundtrip_escapes() {
    check(TARGET, 64, |rng| {
        use soapstack::xml::Element;
        let method = rng.string("a-z", 1..11);
        let payload = rng.text(0..65);
        let args = Element::new("args").child(Element::new("v").text(payload.clone()));
        let wire = soapstack::soap::encode_request(&method, args);
        let (m, el) = soapstack::soap::decode_request(&wire).unwrap();
        assert_eq!(m, method);
        assert_eq!(el.find("v").unwrap().text_content(), payload);
    });
}
