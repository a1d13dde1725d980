//! HTTP/1.1 subset: Content-Length framed requests and responses over any
//! `Read`/`Write`, with keep-alive support. This is the transport under
//! the SOAP layer, standing in for Tomcat's HTTP connector.
//!
//! A connection reads every message into the same [`Request`] or
//! [`Response`] with [`read_request_into`] / [`read_response_into`],
//! which reuse its strings and body buffer, and writes the head straight
//! into the stream. The start line and headers together may take at most
//! 64 KiB, counted as they are read, so a peer that never sends a line
//! end cannot grow a line without bound.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Maximum accepted start line plus header block (DoS guard).
const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Maximum accepted body (the MCS never ships more than a result set).
const MAX_BODY_BYTES: usize = 256 * 1024 * 1024;

/// HTTP errors.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying I/O failed.
    Io(io::Error),
    /// The peer sent a malformed message.
    Malformed(String),
    /// Message exceeded a size limit.
    TooLarge(&'static str),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "http i/o error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed http message: {m}"),
            HttpError::TooLarge(what) => write!(f, "http {what} too large"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, HttpError>;

/// Protocol version of a parsed message. Connection persistence defaults
/// differ: HTTP/1.0 closes unless asked to stay open, HTTP/1.1 stays
/// open unless asked to close.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HttpVersion {
    /// HTTP/1.0.
    Http10,
    /// HTTP/1.1.
    #[default]
    Http11,
}

/// A header: name and value. Headers a program sets are usually
/// literals; headers read off the wire are owned, and a reused message
/// overwrites them in place.
pub type Header = (Cow<'static, str>, Cow<'static, str>);

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Request {
    /// Method (`POST`, `GET`...).
    pub method: String,
    /// Request target (path).
    pub path: String,
    /// Protocol version from the request line.
    pub version: HttpVersion,
    /// Headers in order received/written.
    pub headers: Vec<Header>,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: Cow<'static, str>,
    /// Headers.
    pub headers: Vec<Header>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// A POST with a body and content type.
    pub fn post(path: &str, content_type: &'static str, body: Vec<u8>) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            version: HttpVersion::Http11,
            headers: vec![("Content-Type".into(), content_type.into())],
            body,
        }
    }

    /// Header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Does the client want the connection kept open after this exchange?
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let connection = self.header("Connection");
        match self.version {
            HttpVersion::Http10 => {
                connection.is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
            }
            HttpVersion::Http11 => !connection.is_some_and(|v| v.eq_ignore_ascii_case("close")),
        }
    }
}

impl Default for Response {
    /// An empty 200 response.
    fn default() -> Response {
        Response { status: 200, reason: "OK".into(), headers: Vec::new(), body: Vec::new() }
    }
}

impl Response {
    /// A 200 response with a body and content type.
    pub fn ok(content_type: &'static str, body: Vec<u8>) -> Response {
        Response { headers: vec![("Content-Type".into(), content_type.into())], body, ..Default::default() }
    }

    /// An error response with a plain-text body.
    pub fn error(status: u16, reason: &'static str, body: &str) -> Response {
        Response {
            status,
            reason: reason.into(),
            headers: vec![("Content-Type".into(), "text/plain".into())],
            body: body.as_bytes().to_vec(),
        }
    }

    /// Make this an empty 200 response again, keeping its body buffer.
    pub fn clear(&mut self) {
        self.status = 200;
        self.reason = "OK".into();
        self.headers.clear();
        self.body.clear();
    }

    /// Header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

fn header<'a>(headers: &'a [Header], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| &**v)
}

/// Read one request. Returns `Ok(None)` on a clean EOF before any bytes
/// (client closed a kept-alive connection).
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>> {
    let mut req = Request::default();
    Ok(read_request_into(r, &mut req)?.then_some(req))
}

/// Read one request into `req`, reusing its strings and buffers.
/// Returns `Ok(false)` on a clean EOF before any bytes.
pub fn read_request_into(r: &mut impl BufRead, req: &mut Request) -> Result<bool> {
    let mut budget = MAX_HEADER_BYTES;
    // the start line is read into the method's buffer, then cut down to
    // the method
    if !read_line(r, &mut req.method, &mut budget)? {
        return Ok(false);
    }
    let line = req.method.trim_start();
    let skipped = req.method.len() - line.len();
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| HttpError::Malformed("empty start line".into()))?;
    let path = parts.next().ok_or_else(|| HttpError::Malformed("missing path".into()))?;
    let version =
        parts.next().ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    req.version = match version {
        "HTTP/1.0" => HttpVersion::Http10,
        "HTTP/1.1" => HttpVersion::Http11,
        other => return Err(HttpError::Malformed(format!("unsupported version {other}"))),
    };
    req.path.clear();
    req.path.push_str(path);
    let end = skipped + method.len();
    req.method.truncate(end);
    req.method.drain(..skipped);
    read_headers(r, &mut req.headers, &mut budget)?;
    read_body(r, &req.headers, &mut req.body)?;
    Ok(true)
}

/// Write one request (adds Content-Length and Host).
pub fn write_request(w: &mut impl Write, req: &Request, host: &str) -> Result<()> {
    write!(w, "{} {} HTTP/1.1\r\nHost: {}\r\n", req.method, req.path, host)?;
    write_rest(w, &req.headers, "", &req.body)
}

/// Read one response.
pub fn read_response(r: &mut impl BufRead) -> Result<Response> {
    let mut resp = Response::default();
    read_response_into(r, &mut resp)?;
    Ok(resp)
}

/// Read one response into `resp`, reusing its strings and buffers.
pub fn read_response_into(r: &mut impl BufRead, resp: &mut Response) -> Result<()> {
    let mut budget = MAX_HEADER_BYTES;
    // the status line is read into the reason's buffer, then cut down to
    // the reason
    let line = resp.reason.to_mut();
    if !read_line(r, line, &mut budget)? {
        return Err(HttpError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "no response")));
    }
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad status line `{line}`")));
    }
    let status = parts.next();
    resp.status = status
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status in `{line}`")))?;
    let start = (version.len() + 1 + status.map_or(0, |s| s.len() + 1)).min(line.len());
    line.drain(..start);
    read_headers(r, &mut resp.headers, &mut budget)?;
    read_body(r, &resp.headers, &mut resp.body)
}

/// Write one response (adds Connection and Content-Length).
pub fn write_response(w: &mut impl Write, resp: &Response, keep_alive: bool) -> Result<()> {
    write!(w, "HTTP/1.1 {} {}\r\n", resp.status, resp.reason)?;
    let connection = if keep_alive { "Connection: keep-alive\r\n" } else { "Connection: close\r\n" };
    write_rest(w, &resp.headers, connection, &resp.body)
}

/// The headers, `extra` (whole header lines), Content-Length, the body.
fn write_rest(w: &mut impl Write, headers: &[Header], extra: &str, body: &[u8]) -> Result<()> {
    for (n, v) in headers {
        write!(w, "{n}: {v}\r\n")?;
    }
    write!(w, "{extra}Content-Length: {}\r\n\r\n", body.len())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Read one line into `line`, without its line end, taking at most
/// `*budget` bytes from `r` and charging them to it. Returns `Ok(false)`
/// on EOF before any byte; a line cut short by EOF is returned as it is.
fn read_line(r: &mut impl BufRead, line: &mut String, budget: &mut usize) -> Result<bool> {
    let mut bytes = std::mem::take(line).into_bytes();
    bytes.clear();
    let mut any = false;
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            break;
        }
        any = true;
        let (n, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        if n > *budget {
            return Err(HttpError::TooLarge("header block"));
        }
        *budget -= n;
        bytes.extend_from_slice(&buf[..n]);
        r.consume(n);
        if done {
            break;
        }
    }
    while matches!(bytes.last(), Some(b'\n' | b'\r')) {
        bytes.pop();
    }
    *line = String::from_utf8(bytes)
        .map_err(|_| HttpError::Malformed("header line is not UTF-8".into()))?;
    Ok(any)
}

/// Read header lines up to the blank line into `headers`, overwriting
/// its entries in place.
fn read_headers(r: &mut impl BufRead, headers: &mut Vec<Header>, budget: &mut usize) -> Result<()> {
    let mut n = 0;
    loop {
        if n == headers.len() {
            headers.push(Header::default());
        }
        let (name, value) = &mut headers[n];
        // the line is read into the name's buffer, then cut down to the
        // name
        let line = name.to_mut();
        if !read_line(r, line, budget)? {
            return Err(HttpError::Malformed("EOF inside headers".into()));
        }
        if line.is_empty() {
            headers.truncate(n);
            return Ok(());
        }
        let colon = line
            .find(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line `{line}`")))?;
        let v = value.to_mut();
        v.clear();
        v.push_str(line[colon + 1..].trim());
        line.truncate(line[..colon].trim_end().len());
        let lead = line.len() - line.trim_start().len();
        line.drain(..lead);
        n += 1;
    }
}

/// Read the body Content-Length announces into `body`.
fn read_body(r: &mut impl BufRead, headers: &[Header], body: &mut Vec<u8>) -> Result<()> {
    body.clear();
    let len: usize = match header(headers, "Content-Length") {
        None => return Ok(()),
        Some(v) => v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length `{v}`")))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("body"));
    }
    body.resize(len, 0);
    io::Read::read_exact(r, body)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_roundtrip() {
        let req = Request::post("/mcs", "text/xml", b"<x/>".to_vec());
        let mut wire = Vec::new();
        write_request(&mut wire, &req, "localhost:9999").unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("POST /mcs HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        let got = read_request(&mut BufReader::new(&wire[..])).unwrap().unwrap();
        assert_eq!(got.method, "POST");
        assert_eq!(got.path, "/mcs");
        assert_eq!(got.body, b"<x/>");
        assert_eq!(got.header("content-type"), Some("text/xml"));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok("text/xml", b"<ok/>".to_vec());
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, true).unwrap();
        let got = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.body, b"<ok/>");
        assert_eq!(got.header("connection"), Some("keep-alive"));
    }

    #[test]
    fn clean_eof_yields_none() {
        let empty: &[u8] = b"";
        assert!(read_request(&mut BufReader::new(empty)).unwrap().is_none());
    }

    #[test]
    fn malformed_rejected() {
        let bad: &[u8] = b"NOT A REQUEST\r\n\r\n";
        assert!(read_request(&mut BufReader::new(bad)).is_err());
        let badver: &[u8] = b"GET / SPDY/9\r\n\r\n";
        assert!(read_request(&mut BufReader::new(badver)).is_err());
        let badlen: &[u8] = b"POST / HTTP/1.1\r\nContent-Length: wat\r\n\r\n";
        assert!(read_request(&mut BufReader::new(badlen)).is_err());
        let truncated: &[u8] = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_request(&mut BufReader::new(truncated)).is_err());
    }

    #[test]
    fn keep_alive_semantics() {
        let mut req = Request::post("/", "t", vec![]);
        assert!(req.keep_alive()); // HTTP/1.1 default
        req.headers.push(("Connection".into(), "close".into()));
        assert!(!req.keep_alive());
    }

    #[test]
    fn http10_defaults_to_close() {
        let wire: &[u8] = b"GET /x HTTP/1.0\r\n\r\n";
        let req = read_request(&mut BufReader::new(wire)).unwrap().unwrap();
        assert_eq!(req.version, HttpVersion::Http10);
        assert!(!req.keep_alive());

        let wire: &[u8] = b"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
        let req = read_request(&mut BufReader::new(wire)).unwrap().unwrap();
        assert!(req.keep_alive());

        // HTTP/1.1 with no Connection header still defaults to keep-alive
        let wire: &[u8] = b"GET /x HTTP/1.1\r\n\r\n";
        let req = read_request(&mut BufReader::new(wire)).unwrap().unwrap();
        assert_eq!(req.version, HttpVersion::Http11);
        assert!(req.keep_alive());
    }

    /// Counts the bytes taken from the reader it wraps.
    struct Counted<R>(R, usize);

    impl<R: io::Read> io::Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.0.read(buf)?;
            self.1 += n;
            Ok(n)
        }
    }

    /// A peer that streams bytes with no line end is refused once the
    /// head passes its cap, after no more than the cap and one buffer of
    /// input has been read: the line does not grow with what is sent.
    #[test]
    fn endless_line_is_cut_at_the_header_cap() {
        let cap = MAX_HEADER_BYTES + 8 * 1024;
        for prefix in [&b""[..], b"POST / HTTP/1.1\r\nX-Long: ", b"HTTP/1.1 200 OK\r\nX: "] {
            let endless = io::Read::chain(prefix, io::Read::take(io::repeat(b'a'), 1 << 20));
            let mut r = BufReader::new(Counted(endless, 0));
            let err = if prefix.starts_with(b"HTTP") {
                read_response(&mut r).unwrap_err()
            } else {
                read_request(&mut r).unwrap_err()
            };
            assert!(matches!(err, HttpError::TooLarge("header block")), "{err}");
            assert!(r.get_ref().1 <= cap, "read {} bytes", r.get_ref().1);
        }
    }

    /// Many short header lines are capped as a whole, start line included.
    #[test]
    fn header_block_is_capped_as_a_whole() {
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        while wire.len() <= MAX_HEADER_BYTES {
            wire.extend_from_slice(b"X-Pad: 0123456789abcdef\r\n");
        }
        wire.extend_from_slice(b"\r\n");
        let err = read_request(&mut BufReader::new(&wire[..])).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge("header block")), "{err}");
    }

    /// A message read into a reused request replaces every part of the
    /// last one.
    #[test]
    fn reused_request_is_overwritten() {
        let wire: &[u8] = b"POST /a HTTP/1.1\r\nX-One: 1\r\nX-Two: 2\r\nContent-Length: 3\r\n\r\nabc\
GET  /bb  HTTP/1.0\r\n X-Three :  3 \r\n\r\n";
        let mut r = BufReader::new(wire);
        let mut req = Request::default();
        assert!(read_request_into(&mut r, &mut req).unwrap());
        assert_eq!((req.method.as_str(), req.path.as_str(), &req.body[..]), ("POST", "/a", &b"abc"[..]));
        assert_eq!(req.headers.len(), 3);
        assert!(read_request_into(&mut r, &mut req).unwrap());
        assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/bb"));
        assert_eq!(req.version, HttpVersion::Http10);
        assert_eq!(req.headers, vec![("X-Three".into(), "3".into())]);
        assert!(req.body.is_empty());
        assert!(!read_request_into(&mut r, &mut req).unwrap());
    }

    #[test]
    fn error_response_shape() {
        let r = Response::error(500, "Internal Server Error", "boom");
        assert_eq!(r.status, 500);
        assert_eq!(r.body, b"boom");
    }
}
