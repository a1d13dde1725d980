//! # xmlkit — minimal XML 1.0
//!
//! A tree model, a writer with correct escaping, and a non-validating
//! parser (elements, attributes, text, CDATA, comments, processing
//! instructions). Namespaces are not resolved — prefixed names are kept
//! verbatim, which is all the SOAP layer and the ESG metadata shredder of
//! this MCS reproduction need.
//!
//! A tree's strings are [`Str`]s. A parsed tree borrows from its input:
//! element names, attribute values, text and CDATA are slices of the
//! document, and only a run in which an entity was decoded (or two runs
//! that had to be joined) is copied. A tree built in code borrows the
//! same way from whatever its text came from, and its tags and attribute
//! names are literals; [`Element::into_owned`] detaches either kind,
//! copying what is borrowed and nothing else.

#![warn(missing_docs)]

use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;

/// How deeply [`parse`] lets elements nest (the document element is at
/// depth 1). Parsing and dropping a tree recurse once per level, so the
/// cap bounds the stack a peer's document can take.
pub const MAX_DEPTH: usize = 256;

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

/// A string of a tree: a literal, a borrowed slice, or a copy. Two
/// `Str`s are equal when their text is, whatever their kinds.
#[derive(Clone)]
pub enum Str<'a> {
    /// A literal, such as a tag written in code: outlives every tree.
    Lit(&'static str),
    /// A slice of the document being parsed or of the value being
    /// encoded.
    Borrowed(&'a str),
    /// Text made for the tree: decoded, joined, formatted or copied.
    Owned(String),
}

impl Str<'_> {
    /// The text, owned by the result; a literal stays a literal.
    pub fn into_owned(self) -> Str<'static> {
        match self {
            Str::Lit(s) => Str::Lit(s),
            Str::Borrowed(s) => Str::Owned(s.to_owned()),
            Str::Owned(s) => Str::Owned(s),
        }
    }

    /// The text, made owned to be edited.
    pub fn to_mut(&mut self) -> &mut String {
        if let Str::Lit(s) | Str::Borrowed(s) = *self {
            *self = Str::Owned(s.to_owned());
        }
        match self {
            Str::Owned(s) => s,
            _ => unreachable!("made owned above"),
        }
    }
}

impl Deref for Str<'_> {
    type Target = str;
    fn deref(&self) -> &str {
        match self {
            Str::Lit(s) => s,
            Str::Borrowed(s) => s,
            Str::Owned(s) => s,
        }
    }
}

impl Default for Str<'_> {
    fn default() -> Self {
        Str::Lit("")
    }
}

impl<'a> From<&'a str> for Str<'a> {
    fn from(s: &'a str) -> Self {
        Str::Borrowed(s)
    }
}

impl<'a> From<&'a String> for Str<'a> {
    fn from(s: &'a String) -> Self {
        Str::Borrowed(s)
    }
}

impl From<String> for Str<'_> {
    fn from(s: String) -> Self {
        Str::Owned(s)
    }
}

impl<'a> From<Cow<'a, str>> for Str<'a> {
    fn from(s: Cow<'a, str>) -> Self {
        match s {
            Cow::Borrowed(s) => Str::Borrowed(s),
            Cow::Owned(s) => Str::Owned(s),
        }
    }
}

impl PartialEq for Str<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl PartialEq<str> for Str<'_> {
    fn eq(&self, other: &str) -> bool {
        &**self == other
    }
}

impl PartialEq<&str> for Str<'_> {
    fn eq(&self, other: &&str) -> bool {
        &**self == *other
    }
}

impl fmt::Debug for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

/// An element node, borrowing its strings for `'a`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Element<'a> {
    /// Tag name (prefix kept verbatim, e.g. `soap:Envelope`).
    pub name: Str<'a>,
    /// Attributes in document order, values unescaped.
    pub attrs: Vec<(Str<'a>, Str<'a>)>,
    /// Child nodes.
    pub children: Vec<Node<'a>>,
}

/// Any node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node<'a> {
    /// Element node.
    Element(Element<'a>),
    /// Text node (already unescaped).
    Text(Str<'a>),
}

impl<'a> Node<'a> {
    /// Append this node's XML to `out`.
    pub fn write_xml(&self, out: &mut String) {
        match self {
            Node::Element(e) => e.write_xml(out),
            Node::Text(t) => escape_text(t, out),
        }
    }

    /// The node with every string it borrows copied.
    pub fn into_owned(self) -> Node<'static> {
        match self {
            Node::Element(e) => Node::Element(e.into_owned()),
            Node::Text(t) => Node::Text(t.into_owned()),
        }
    }
}

impl<'a> Element<'a> {
    /// New empty element.
    pub fn new(name: impl Into<Str<'a>>) -> Element<'a> {
        Element { name: name.into(), attrs: Vec::new(), children: Vec::new() }
    }

    /// Builder: add an attribute, whose name is a literal.
    pub fn attr(mut self, name: &'static str, value: impl Into<Str<'a>>) -> Element<'a> {
        self.attrs.push((Str::Lit(name), value.into()));
        self
    }

    /// Builder: append a child element.
    pub fn child(mut self, e: Element<'a>) -> Element<'a> {
        self.push(Node::Element(e));
        self
    }

    /// Builder: append a text node.
    pub fn text(mut self, t: impl Into<Str<'a>>) -> Element<'a> {
        self.push(Node::Text(t.into()));
        self
    }

    /// Append a child node. The first child gets room for itself alone:
    /// most elements hold one text node.
    pub fn push(&mut self, n: Node<'a>) {
        if self.children.capacity() == 0 {
            self.children.reserve_exact(1);
        }
        self.children.push(n);
    }

    /// Local part of the tag name (`Body` for `soap:Body`).
    pub fn local_name(&self) -> &str {
        local_name(&self.name)
    }

    /// First child element with the given local name.
    pub fn find(&self, local: &str) -> Option<&Element<'a>> {
        self.elements().find(|e| e.local_name() == local)
    }

    /// Like [`Element::find`] but an error if absent.
    pub fn expect(&self, local: &str) -> Result<&Element<'a>> {
        self.find(local)
            .ok_or_else(|| XmlError::Shape(format!("<{}> has no <{local}> child", self.name)))
    }

    /// All child elements with the given local name.
    pub fn find_all<'s>(&'s self, local: &'s str) -> impl Iterator<Item = &'s Element<'a>> {
        self.elements().filter(move |e| e.local_name() == local)
    }

    /// All child elements.
    pub fn elements(&self) -> impl Iterator<Item = &Element<'a>> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    /// Move the first child element with the given local name out of
    /// this element, without copying it.
    pub fn take(&mut self, local: &str) -> Option<Element<'a>> {
        let i = self
            .children
            .iter()
            .position(|n| matches!(n, Node::Element(e) if e.local_name() == local))?;
        self.take_at(i)
    }

    /// Move the first child element out of this element, without copying
    /// it.
    pub fn take_first(&mut self) -> Option<Element<'a>> {
        let i = self.children.iter().position(|n| matches!(n, Node::Element(_)))?;
        self.take_at(i)
    }

    fn take_at(&mut self, i: usize) -> Option<Element<'a>> {
        match self.children.remove(i) {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }

    /// Concatenated text content of this element (direct text children):
    /// borrowed unless there are several text children to join.
    pub fn text_content(&self) -> Cow<'_, str> {
        let mut texts = self.children.iter().filter_map(|n| match n {
            Node::Text(t) => Some(&**t),
            _ => None,
        });
        let Some(first) = texts.next() else { return Cow::Borrowed("") };
        match texts.next() {
            None => Cow::Borrowed(first),
            Some(second) => {
                let mut s = String::from(first) + second;
                texts.for_each(|t| s.push_str(t));
                Cow::Owned(s)
            }
        }
    }

    /// Attribute value by name.
    pub fn attr_value(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| &**v)
    }

    /// Serialize to a string (no XML declaration, no pretty-printing —
    /// SOAP peers don't care and compactness is what we measure).
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_xml(&mut out);
        out
    }

    /// Append this element's XML to `out`.
    pub fn write_xml(&self, out: &mut String) {
        self.write_named(&[&self.name], &[], out);
    }

    /// Append this element's XML to `out` under the tag spelled by the
    /// pieces of `name`, with the attributes `first` before its own.
    pub fn write_named(&self, name: &[&str], first: &[(&str, &str)], out: &mut String) {
        out.push('<');
        name.iter().for_each(|p| out.push_str(p));
        let own = self.attrs.iter().map(|(n, v)| (&**n, &**v));
        for (n, v) in first.iter().copied().chain(own) {
            out.push(' ');
            out.push_str(n);
            out.push_str("=\"");
            escape_attr(v, out);
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        self.children.iter().for_each(|c| c.write_xml(out));
        out.push_str("</");
        name.iter().for_each(|p| out.push_str(p));
        out.push('>');
    }

    /// The element with every string it borrows copied.
    pub fn into_owned(self) -> Element<'static> {
        Element {
            name: self.name.into_owned(),
            attrs: self.attrs.into_iter().map(|(n, v)| (n.into_owned(), v.into_owned())).collect(),
            children: self.children.into_iter().map(Node::into_owned).collect(),
        }
    }
}

/// The part of a tag name after its prefix.
fn local_name(name: &str) -> &str {
    match name.bytes().rposition(|b| b == b':') {
        Some(i) => &name[i + 1..],
        None => name,
    }
}

/// Escape text content.
pub fn escape_text(s: &str, out: &mut String) {
    escape(s, out, |c| match c {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        _ => None,
    })
}

/// Escape an attribute value (double-quoted).
pub fn escape_attr(s: &str, out: &mut String) {
    escape(s, out, |c| match c {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' => Some("&quot;"),
        _ => None,
    })
}

/// Copy `s` to `out` in runs, replacing each ASCII byte `entity` names.
fn escape(s: &str, out: &mut String, entity: impl Fn(u8) -> Option<&'static str>) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(e) = entity(b) {
            out.push_str(&s[run..i]);
            out.push_str(e);
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
}

/// Parse a document; returns the root element, which borrows from
/// `input`. Leading XML declaration, comments and PIs are skipped.
/// Elements nested deeper than [`MAX_DEPTH`] are an error.
pub fn parse(input: &str) -> Result<Element<'_>> {
    let mut p = Parser { input, bytes: input.as_bytes(), pos: 0, nodes: Vec::new() };
    p.skip_misc();
    let root = p.element(1)?;
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
    /// The children of the open elements, innermost last; a closed
    /// element takes its own off the top into a vector of exactly their
    /// number.
    nodes: Vec<Node<'a>>,
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
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    /// The byte `ahead` places past the cursor, if the input has one.
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advance to the next `stop` byte (or the end); the bytes passed.
    fn until(&mut self, stop: u8) -> &'a str {
        let start = self.pos;
        let n = self.bytes[start..].iter().position(|&b| b == stop);
        self.pos = n.map_or(self.bytes.len(), |n| start + n);
        &self.input[start..self.pos]
    }

    fn name(&mut self) -> Result<&'a str> {
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
        Ok(&self.input[start..self.pos])
    }

    /// The element at the cursor, `depth` levels below the document.
    fn element(&mut self, depth: usize) -> Result<Element<'a>> {
        if self.peek(0) != Some(b'<') {
            return Err(self.err("expected `<`"));
        }
        if depth > MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        let mut el = Element::new(Str::Borrowed(self.name()?));
        loop {
            self.skip_ws();
            match self.peek(0) {
                Some(b'/') if self.peek(1) == Some(b'>') => {
                    self.pos += 2;
                    return Ok(el);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                _ => {}
            }
            // attribute
            let an = self.name()?;
            self.skip_ws();
            if self.peek(0) != Some(b'=') {
                return Err(self.err("expected `=` after attribute name"));
            }
            self.pos += 1;
            self.skip_ws();
            let quote = match self.peek(0) {
                Some(q @ (b'"' | b'\'')) => q,
                _ => return Err(self.err("expected quoted attribute value")),
            };
            self.pos += 1;
            let vstart = self.pos;
            let raw = self.until(quote);
            if self.pos >= self.bytes.len() {
                return Err(self.err("unterminated attribute value"));
            }
            self.pos += 1;
            el.attrs.push((Str::Borrowed(an), unescape(raw, vstart)?));
        }
        let base = self.nodes.len();
        self.content(&el.name, depth)?;
        el.children = self.nodes.split_off(base);
        Ok(el)
    }

    /// The content of the element `name`, through its end tag, pushed
    /// onto `nodes`. A whitespace-only run before the first child is
    /// indentation, unless nothing follows it: then it is the text.
    fn content(&mut self, name: &str, depth: usize) -> Result<()> {
        let base = self.nodes.len();
        let mut indent: Option<Str<'a>> = None;
        loop {
            match (self.peek(0), self.peek(1)) {
                (None, _) => return Err(self.err(format!("unterminated <{name}>"))),
                (Some(b'<'), Some(b'/')) => {
                    self.pos += 2;
                    let close = self.name()?;
                    if close != name {
                        return Err(self.err(format!("</{close}> closes <{name}>")));
                    }
                    self.skip_ws();
                    if self.peek(0) != Some(b'>') {
                        return Err(self.err("expected `>`"));
                    }
                    self.pos += 1;
                    if let (Some(t), true) = (indent, self.nodes.len() == base) {
                        self.nodes.push(Node::Text(t));
                    }
                    return Ok(());
                }
                (Some(b'<'), Some(b'!')) if self.starts_with("<![CDATA[") => {
                    let start = self.pos + 9;
                    let end = self.input[start..]
                        .find("]]>")
                        .ok_or_else(|| self.err("unterminated CDATA"))?;
                    self.push_text(base, Str::Borrowed(&self.input[start..start + end]));
                    self.pos = start + end + 3;
                }
                (Some(b'<'), Some(b'!')) if self.starts_with("<!--") => {
                    let end = self.input[self.pos + 4..]
                        .find("-->")
                        .ok_or_else(|| self.err("unterminated comment"))?;
                    self.pos += 4 + end + 3;
                }
                (Some(b'<'), Some(b'?')) => {
                    let end = self.input[self.pos..]
                        .find("?>")
                        .ok_or_else(|| self.err("unterminated processing instruction"))?;
                    self.pos += end + 2;
                }
                (Some(b'<'), _) => {
                    let child = self.element(depth + 1)?;
                    self.nodes.push(Node::Element(child));
                }
                _ => {
                    let start = self.pos;
                    let text = unescape(self.until(b'<'), start)?;
                    if self.nodes.len() > base || !text.trim().is_empty() {
                        self.push_text(base, text);
                    } else {
                        match &mut indent {
                            None => indent = Some(text),
                            Some(i) => i.to_mut().push_str(&text),
                        }
                    }
                }
            }
        }
    }

    /// Append a text run to the content that starts at `base`, joining
    /// it to a text node just before it.
    fn push_text(&mut self, base: usize, t: Str<'a>) {
        let open = self.nodes.len() > base;
        match self.nodes.last_mut() {
            Some(Node::Text(prev)) if open => prev.to_mut().push_str(&t),
            _ => self.nodes.push(Node::Text(t)),
        }
    }
}

/// Decode entity references in a text or attribute run; the run itself
/// when it has none.
fn unescape(raw: &str, at: usize) -> Result<Str<'_>> {
    if !raw.contains('&') {
        return Ok(Str::Borrowed(raw));
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
    Ok(Str::Owned(out))
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

    /// A run without entities is a slice of the input; only a decoded
    /// run, or runs joined into one text node, is copied.
    #[test]
    fn parsed_strings_borrow_unless_decoded() {
        let e = parse(r#"<a x="plain" y="&lt;"><b>text</b><c>&amp;</c><d>x<![CDATA[y]]></d></a>"#)
            .unwrap();
        assert!(matches!(e.name, Str::Borrowed("a")));
        assert!(matches!(e.attrs[0].1, Str::Borrowed("plain")));
        assert!(matches!(e.attrs[1].1, Str::Owned(_)));
        let text = |name: &str| match &e.find(name).unwrap().children[0] {
            Node::Text(t) => t.clone(),
            other => panic!("{other:?}"),
        };
        assert!(matches!(text("b"), Str::Borrowed("text")));
        assert!(matches!(text("c"), Str::Owned(t) if t == "&"));
        assert!(matches!(text("d"), Str::Owned(t) if t == "xy"));
        assert!(matches!(e.find("b").unwrap().text_content(), Cow::Borrowed("text")));
    }

    fn nested(depth: usize) -> String {
        "<a>".repeat(depth) + &"</a>".repeat(depth)
    }

    /// A document may nest elements [`MAX_DEPTH`] deep and no deeper;
    /// past the cap the parser stops with an error instead of recursing.
    #[test]
    fn depth_is_capped() {
        let doc = nested(MAX_DEPTH);
        let mut e = &parse(&doc).unwrap();
        let mut depth = 1;
        while let Some(c) = e.find("a") {
            (e, depth) = (c, depth + 1);
        }
        assert_eq!(depth, MAX_DEPTH);
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(matches!(&err, XmlError::Parse { msg, .. } if msg.contains("deeper")), "{err}");
        // unclosed, as a hostile peer would send it
        assert!(parse(&"<a>".repeat(100_000)).is_err());
    }

    /// Detaching a tree copies what it borrows and keeps its literals.
    #[test]
    fn into_owned_copies_only_borrowed_strings() {
        let text = String::from("t");
        let e = Element::new(Str::Lit("a")).attr("k", text.as_str()).text(text.as_str());
        let e = e.into_owned();
        assert!(matches!(e.name, Str::Lit("a")));
        assert!(matches!(e.attrs[0], (Str::Lit("k"), Str::Owned(_))));
        assert!(matches!(&e.children[0], Node::Text(Str::Owned(t)) if t == "t"));
    }

    #[test]
    fn take_moves_children_out() {
        let mut e = parse("<a>t<b>1</b><c>2</c></a>").unwrap();
        assert_eq!(e.take("c").unwrap().text_content(), "2");
        assert_eq!(e.take_first().unwrap().text_content(), "1");
        assert!(e.take_first().is_none());
        assert_eq!(e.text_content(), "t");
    }

    #[test]
    fn expect_error_message() {
        let e = parse("<a/>").unwrap();
        let err = e.expect("missing").unwrap_err();
        assert!(matches!(err, XmlError::Shape(_)));
    }
}
