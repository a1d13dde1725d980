//! # xmlkit — minimal XML 1.0
//!
//! A tree model, a writer with correct escaping, and a non-validating
//! parser (elements, attributes, text, CDATA, comments, processing
//! instructions). Namespaces are not resolved — prefixed names are kept
//! verbatim, which is all the SOAP layer and the ESG metadata shredder of
//! this MCS reproduction need.

#![warn(missing_docs)]


use std::fmt;

/// XML errors.
#[derive(Debug, Clone, PartialEq)]
pub enum XmlError {
    /// Parse failure with byte offset and message.
    Parse {
        /// Byte offset in the input.
        at: usize,
        /// Description.
        msg: String,
    },
    /// Tree navigation failure (missing child, wrong text...).
    Shape(String),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Parse { at, msg } => write!(f, "XML parse error at byte {at}: {msg}"),
            XmlError::Shape(m) => write!(f, "XML shape error: {m}"),
        }
    }
}

impl std::error::Error for XmlError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, XmlError>;

/// An element node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Element {
    /// Tag name (prefix kept verbatim, e.g. `soap:Envelope`).
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child nodes.
    pub children: Vec<Node>,
}

/// Any node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Element node.
    Element(Element),
    /// Text node (already unescaped).
    Text(String),
}

impl Element {
    /// New empty element.
    pub fn new(name: impl Into<String>) -> Element {
        Element { name: name.into(), attrs: Vec::new(), children: Vec::new() }
    }

    /// Builder: add an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Element {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Builder: append a child element.
    pub fn child(mut self, e: Element) -> Element {
        self.children.push(Node::Element(e));
        self
    }

    /// Builder: append a text node.
    pub fn text(mut self, t: impl Into<String>) -> Element {
        self.children.push(Node::Text(t.into()));
        self
    }

    /// Local part of the tag name (`Body` for `soap:Body`).
    pub fn local_name(&self) -> &str {
        self.name.rsplit(':').next().unwrap_or(&self.name)
    }

    /// First child element with the given local name.
    pub fn find(&self, local: &str) -> Option<&Element> {
        self.children.iter().find_map(|n| match n {
            Node::Element(e) if e.local_name() == local => Some(e),
            _ => None,
        })
    }

    /// Like [`Element::find`] but an error if absent.
    pub fn expect(&self, local: &str) -> Result<&Element> {
        self.find(local)
            .ok_or_else(|| XmlError::Shape(format!("<{}> has no <{local}> child", self.name)))
    }

    /// All child elements with the given local name.
    pub fn find_all<'a>(&'a self, local: &'a str) -> impl Iterator<Item = &'a Element> {
        self.children.iter().filter_map(move |n| match n {
            Node::Element(e) if e.local_name() == local => Some(e),
            _ => None,
        })
    }

    /// All child elements.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    /// Concatenated text content of this element (direct text children).
    pub fn text_content(&self) -> String {
        let mut s = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                s.push_str(t);
            }
        }
        s
    }

    /// Attribute value by name.
    pub fn attr_value(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Serialize to a string (no XML declaration, no pretty-printing —
    /// SOAP peers don't care and compactness is what we measure).
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(256);
        write_element(self, &mut out);
        out
    }
}

/// Escape text content.
pub fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
}

/// Escape an attribute value (double-quoted).
pub fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

fn write_element(e: &Element, out: &mut String) {
    out.push('<');
    out.push_str(&e.name);
    for (n, v) in &e.attrs {
        out.push(' ');
        out.push_str(n);
        out.push_str("=\"");
        escape_attr(v, out);
        out.push('"');
    }
    if e.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for c in &e.children {
        match c {
            Node::Element(el) => write_element(el, out),
            Node::Text(t) => escape_text(t, out),
        }
    }
    out.push_str("</");
    out.push_str(&e.name);
    out.push('>');
}

/// Parse a document; returns the root element. Leading XML declaration,
/// comments and PIs are skipped.
pub fn parse(input: &str) -> Result<Element> {
    let mut p = Parser { input, bytes: input.as_bytes(), pos: 0 };
    p.skip_misc();
    let root = p.element()?;
    p.skip_misc();
    if p.pos != p.bytes.len() {
        return Err(p.err("content after document element"));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError::Parse { at: self.pos, msg: msg.into() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\r' | b'\n')
        {
            self.pos += 1;
        }
    }

    /// Skip whitespace, comments, PIs, and the XML declaration.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                if let Some(end) = self.input[self.pos..].find("?>") {
                    self.pos += end + 2;
                    continue;
                }
                self.pos = self.bytes.len();
                return;
            }
            if self.starts_with("<!--") {
                if let Some(end) = self.input[self.pos + 4..].find("-->") {
                    self.pos += 4 + end + 3;
                    continue;
                }
                self.pos = self.bytes.len();
                return;
            }
            return;
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn name(&mut self) -> Result<String> {
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let c = self.bytes[self.pos];
            let ok = c.is_ascii_alphanumeric()
                || c == b'_'
                || c == b'-'
                || c == b'.'
                || c == b':'
                || c >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.input[start..self.pos].to_owned())
    }

    fn element(&mut self) -> Result<Element> {
        if !self.starts_with("<") {
            return Err(self.err("expected `<`"));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut el = Element::new(name);
        loop {
            self.skip_ws();
            if self.starts_with("/>") {
                self.pos += 2;
                return Ok(el);
            }
            if self.starts_with(">") {
                self.pos += 1;
                break;
            }
            // attribute
            let an = self.name()?;
            self.skip_ws();
            if !self.starts_with("=") {
                return Err(self.err("expected `=` after attribute name"));
            }
            self.pos += 1;
            self.skip_ws();
            let quote = match self.bytes.get(self.pos) {
                Some(&q @ (b'"' | b'\'')) => q,
                _ => return Err(self.err("expected quoted attribute value")),
            };
            self.pos += 1;
            let vstart = self.pos;
            while self.pos < self.bytes.len() && self.bytes[self.pos] != quote {
                self.pos += 1;
            }
            if self.pos >= self.bytes.len() {
                return Err(self.err("unterminated attribute value"));
            }
            let raw = &self.input[vstart..self.pos];
            self.pos += 1;
            el.attrs.push((an, unescape(raw, vstart)?));
        }
        // content; a whitespace-only run before the first child is
        // indentation, unless nothing follows it: then it is the text
        let mut indent: Option<String> = None;
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.err(format!("unterminated <{}>", el.name)));
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != el.name {
                    return Err(self.err(format!("</{close}> closes <{}>", el.name)));
                }
                self.skip_ws();
                if !self.starts_with(">") {
                    return Err(self.err("expected `>`"));
                }
                self.pos += 1;
                if let (Some(t), true) = (indent, el.children.is_empty()) {
                    el.children.push(Node::Text(t));
                }
                return Ok(el);
            }
            if self.starts_with("<![CDATA[") {
                let start = self.pos + 9;
                let end = self.input[start..]
                    .find("]]>")
                    .ok_or_else(|| self.err("unterminated CDATA"))?;
                push_text(&mut el, self.input[start..start + end].to_owned());
                self.pos = start + end + 3;
                continue;
            }
            if self.starts_with("<!--") {
                let end = self.input[self.pos + 4..]
                    .find("-->")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.pos += 4 + end + 3;
                continue;
            }
            if self.starts_with("<?") {
                let end = self.input[self.pos..]
                    .find("?>")
                    .ok_or_else(|| self.err("unterminated processing instruction"))?;
                self.pos += end + 2;
                continue;
            }
            if self.starts_with("<") {
                let child = self.element()?;
                el.children.push(Node::Element(child));
                continue;
            }
            // text run
            let start = self.pos;
            while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
                self.pos += 1;
            }
            let raw = &self.input[start..self.pos];
            let text = unescape(raw, start)?;
            if !text.trim().is_empty() || !el.children.is_empty() {
                push_text(&mut el, text);
            } else {
                indent.get_or_insert_with(String::new).push_str(&text);
            }
        }
    }
}

fn push_text(el: &mut Element, t: String) {
    if let Some(Node::Text(prev)) = el.children.last_mut() {
        prev.push_str(&t);
    } else {
        el.children.push(Node::Text(t));
    }
}

/// Decode entity references in a text or attribute run.
fn unescape(raw: &str, at: usize) -> Result<String> {
    if !raw.contains('&') {
        return Ok(raw.to_owned());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let end = rest
            .find(';')
            .ok_or(XmlError::Parse { at, msg: "unterminated entity".into() })?;
        let ent = &rest[1..end];
        match ent {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let code = u32::from_str_radix(&ent[2..], 16)
                    .map_err(|_| XmlError::Parse { at, msg: format!("bad entity &{ent};") })?;
                out.push(char::from_u32(code).ok_or(XmlError::Parse {
                    at,
                    msg: format!("bad char ref &{ent};"),
                })?);
            }
            _ if ent.starts_with('#') => {
                let code: u32 = ent[1..]
                    .parse()
                    .map_err(|_| XmlError::Parse { at, msg: format!("bad entity &{ent};") })?;
                out.push(char::from_u32(code).ok_or(XmlError::Parse {
                    at,
                    msg: format!("bad char ref &{ent};"),
                })?);
            }
            _ => return Err(XmlError::Parse { at, msg: format!("unknown entity &{ent};") }),
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_serialize() {
        let e = Element::new("a")
            .attr("x", "1 & 2")
            .child(Element::new("b").text("hi <there>"))
            .child(Element::new("c"));
        assert_eq!(e.to_xml(), r#"<a x="1 &amp; 2"><b>hi &lt;there&gt;</b><c/></a>"#);
    }

    #[test]
    fn parse_roundtrip() {
        let src = r#"<a x="1 &amp; 2"><b>hi &lt;there&gt;</b><c/></a>"#;
        let e = parse(src).unwrap();
        assert_eq!(e.to_xml(), src);
    }

    #[test]
    fn parse_with_decl_comments_cdata() {
        let src = "<?xml version=\"1.0\"?>\n<!-- top -->\n<root>\n  <item>a</item>\n  <!-- mid -->\n  <item><![CDATA[<raw&stuff>]]></item>\n</root>";
        let e = parse(src).unwrap();
        let items: Vec<&Element> = e.find_all("item").collect();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].text_content(), "a");
        assert_eq!(items[1].text_content(), "<raw&stuff>");
    }

    #[test]
    fn namespaced_names() {
        let e = parse(r#"<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body/></soap:Envelope>"#).unwrap();
        assert_eq!(e.local_name(), "Envelope");
        assert!(e.find("Body").is_some());
        assert_eq!(
            e.attr_value("xmlns:soap"),
            Some("http://schemas.xmlsoap.org/soap/envelope/")
        );
    }

    #[test]
    fn numeric_entities() {
        let e = parse("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(e.text_content(), "AB");
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse("<a><b></a></b>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a>&unknown;</a>").is_err());
    }

    #[test]
    fn attribute_quotes_both_kinds() {
        let e = parse(r#"<a x='single "quotes"' y="it&apos;s"/>"#).unwrap();
        assert_eq!(e.attr_value("x"), Some(r#"single "quotes""#));
        assert_eq!(e.attr_value("y"), Some("it's"));
    }

    #[test]
    fn whitespace_only_leading_text_dropped() {
        let e = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(e.elements().count(), 1);
        assert!(matches!(&e.children[0], Node::Element(_)));
    }

    /// Whitespace that is an element's whole content is its text: a SOAP
    /// string value `" "` must not come back as `""`.
    #[test]
    fn whitespace_only_content_is_text() {
        assert_eq!(parse("<v> </v>").unwrap().text_content(), " ");
        assert_eq!(parse("<v>\n <!-- c --> </v>").unwrap().text_content(), "\n  ");
        assert_eq!(parse("<v> <!-- c -->x</v>").unwrap().text_content(), "x");
    }

    #[test]
    fn expect_error_message() {
        let e = parse("<a/>").unwrap();
        let err = e.expect("missing").unwrap_err();
        assert!(matches!(err, XmlError::Shape(_)));
    }
}
