//! SOAP 1.1 envelope encoding/decoding and fault model.
//!
//! The MCS exposed its Java API through Apache Axis doc/literal SOAP; we
//! reproduce the same wire shape: a `soap:Envelope` / `soap:Body` pair
//! around a method element in the `urn:mcs` namespace, and `soap:Fault`
//! for errors. The byte cost of building, escaping and parsing these
//! envelopes is the measured "web service overhead" of the paper's
//! evaluation (Figures 5–10).
//!
//! Encoding writes the envelope straight into a caller's buffer around
//! the argument or result element; no envelope tree is built. Decoding
//! parses the body into a tree that borrows from it and moves the
//! method element out of that tree.

use std::borrow::Cow;
use std::fmt;

use crate::xml::{self, Element, Str, XmlError};

/// SOAP envelope namespace (SOAP 1.1).
pub const SOAP_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";
/// Application namespace for MCS methods.
pub const MCS_NS: &str = "urn:mcs";

/// A SOAP fault (server-reported error).
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Fault code, e.g. `soap:Server` or `soap:Client`.
    pub code: String,
    /// Human-readable fault string.
    pub message: String,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SOAP fault {}: {}", self.code, self.message)
    }
}

impl std::error::Error for Fault {}

/// Errors crossing the SOAP client/server boundary.
#[derive(Debug)]
pub enum SoapError {
    /// Transport-level failure.
    Http(crate::http::HttpError),
    /// Envelope did not parse or had the wrong shape.
    Xml(XmlError),
    /// The server reported a fault.
    Fault(Fault),
}

impl fmt::Display for SoapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoapError::Http(e) => write!(f, "{e}"),
            SoapError::Xml(e) => write!(f, "{e}"),
            SoapError::Fault(fl) => write!(f, "{fl}"),
        }
    }
}

impl std::error::Error for SoapError {}

impl From<crate::http::HttpError> for SoapError {
    fn from(e: crate::http::HttpError) -> Self {
        SoapError::Http(e)
    }
}
impl From<XmlError> for SoapError {
    fn from(e: XmlError) -> Self {
        SoapError::Xml(e)
    }
}
impl From<Fault> for SoapError {
    fn from(f: Fault) -> Self {
        SoapError::Fault(f)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, SoapError>;

/// Everything of an envelope before the method element.
const ENVELOPE_OPEN: &str = concat!(
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>",
    "<soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\"><soap:Body>"
);
/// Everything of an envelope after the method element.
const ENVELOPE_CLOSE: &str = "</soap:Body></soap:Envelope>";

/// Append an envelope around the element `m:{method}{suffix}`, in the
/// MCS namespace, whose attributes and children are those of `inner`.
fn write_call(out: &mut String, method: &str, suffix: &str, inner: &Element<'_>) {
    out.push_str(ENVELOPE_OPEN);
    inner.write_named(&["m:", method, suffix], &[("xmlns:m", MCS_NS)], out);
    out.push_str(ENVELOPE_CLOSE);
}

/// Append a request envelope calling `method` with an already-built
/// argument element to `out`: children become the method element's
/// children, and any attributes on `args` ride along on the method
/// element itself (that is how per-request headers like
/// `mcs:durability` travel without changing the doc/literal body shape).
pub fn write_request(out: &mut String, method: &str, args: &Element<'_>) {
    write_call(out, method, "", args)
}

/// [`write_request`] into a new string.
pub fn encode_request(method: &str, args: Element<'_>) -> String {
    let mut out = String::with_capacity(256);
    write_request(&mut out, method, &args);
    out
}

/// Append a successful response to `out`: `<m:{method}Response>`
/// wrapping `result`'s children; attributes on `result` are copied onto
/// the response element (the server echoes e.g. the commit epoch of an
/// async write this way).
pub fn write_response(out: &mut String, method: &str, result: &Element<'_>) {
    write_call(out, method, "Response", result)
}

/// [`write_response`] into a new string.
pub fn encode_response(method: &str, result: Element<'_>) -> String {
    let mut out = String::with_capacity(256);
    write_response(&mut out, method, &result);
    out
}

/// Append a fault response to `out`.
pub fn write_fault(out: &mut String, fault: &Fault) {
    let f = Element::new("soap:Fault")
        .child(Element::new("faultcode").text(&fault.code))
        .child(Element::new("faultstring").text(&fault.message));
    out.push_str(ENVELOPE_OPEN);
    f.write_xml(out);
    out.push_str(ENVELOPE_CLOSE);
}

/// `buf`'s allocation as an empty `String` to write an envelope into;
/// `into_bytes` gives it back, so neither way copies.
pub(crate) fn text_buffer(buf: &mut Vec<u8>) -> String {
    let mut buf = std::mem::take(buf);
    buf.clear();
    String::from_utf8(buf).expect("an empty buffer is UTF-8")
}

/// The first element of an envelope's `soap:Body`, moved out of the
/// parsed tree.
fn body_element<'a>(mut root: Element<'a>) -> Result<Element<'a>> {
    let mut soap_body = root
        .take("Body")
        .ok_or_else(|| XmlError::Shape(format!("<{}> has no <Body> child", root.name)))?;
    Ok(soap_body.take_first().ok_or_else(|| XmlError::Shape("empty soap:Body".into()))?)
}

/// Decode a request envelope into `(method, method_element)`. Both
/// borrow from `body`; the method element is moved out of the parsed
/// tree, not copied.
pub fn decode_request(body: &str) -> Result<(Cow<'_, str>, Element<'_>)> {
    let root = xml::parse(body)?;
    if root.local_name() != "Envelope" {
        return Err(XmlError::Shape(format!("expected Envelope, got <{}>", root.name)).into());
    }
    let call = body_element(root)?;
    let method = match call.name {
        Str::Borrowed(name) => Cow::Borrowed(local_name(name)),
        _ => Cow::Owned(call.local_name().to_owned()),
    };
    Ok((method, call))
}

fn local_name(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

/// Decode a response envelope: either the `{method}Response` element,
/// borrowing from `body`, or a decoded [`Fault`].
pub fn decode_response(body: &str) -> Result<Element<'_>> {
    let first = body_element(xml::parse(body)?)?;
    if first.local_name() == "Fault" {
        let text = |name| first.find(name).map(|e| e.text_content().into_owned());
        let code = text("faultcode").unwrap_or_default();
        let message = text("faultstring").unwrap_or_default();
        return Err(SoapError::Fault(Fault { code, message }));
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let args = Element::new("args")
            .child(Element::new("logicalName").text("f1"))
            .child(Element::new("collection").text("run <42>"));
        let wire = encode_request("createFile", args);
        assert!(wire.contains("urn:mcs"));
        let (method, el) = decode_request(&wire).unwrap();
        assert_eq!(method, "createFile");
        assert_eq!(el.find("logicalName").unwrap().text_content(), "f1");
        assert_eq!(el.find("collection").unwrap().text_content(), "run <42>");
    }

    #[test]
    fn response_roundtrip() {
        let result = Element::new("r").child(Element::new("id").text("17"));
        let wire = encode_response("createFile", result);
        let el = decode_response(&wire).unwrap();
        assert_eq!(el.local_name(), "createFileResponse");
        assert_eq!(el.find("id").unwrap().text_content(), "17");
    }

    #[test]
    fn method_attributes_ride_the_envelope() {
        // per-request headers (mcs:durability) travel as attributes on
        // the method element; the epoch echo comes back the same way
        let args = Element::new("args")
            .attr("mcs:durability", "async")
            .child(Element::new("logicalName").text("f1"));
        let wire = encode_request("createFile", args);
        let (_, el) = decode_request(&wire).unwrap();
        assert_eq!(el.attr_value("mcs:durability"), Some("async"));
        assert_eq!(el.find("logicalName").unwrap().text_content(), "f1");

        let result = Element::new("r")
            .attr("mcs:epoch", "42")
            .child(Element::new("id").text("17"));
        let wire = encode_response("createFile", result);
        let el = decode_response(&wire).unwrap();
        assert_eq!(el.attr_value("mcs:epoch"), Some("42"));
        assert_eq!(el.find("id").unwrap().text_content(), "17");
    }

    #[test]
    fn fault_roundtrip() {
        let f = Fault { code: "soap:Server".into(), message: "no such file".into() };
        let mut wire = String::new();
        write_fault(&mut wire, &f);
        match decode_response(&wire) {
            Err(SoapError::Fault(got)) => assert_eq!(got, f),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_envelope_rejected() {
        assert!(decode_request("<notsoap/>").is_err());
        assert!(decode_request("<soap:Envelope xmlns:soap=\"x\"/>").is_err());
    }
}
