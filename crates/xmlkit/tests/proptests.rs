//! Property tests: XML serialize→parse is the identity on element trees,
//! text that mixes entities and CDATA decodes to what was written, and
//! trees at the depth cap round-trip while one level more is refused.

use testkit::{check, Rng};
use xmlkit::{escape_text, parse, Element, Node, Str, XmlError, MAX_DEPTH};

const TARGET: &str = "-p xmlkit --test proptests";

/// `[a-z][a-z0-9]{0,6}`, half the time with a `:[a-z][a-z0-9]{0,4}` suffix.
fn name(rng: &mut Rng) -> String {
    let mut s = rng.string("a-z", 1..2) + &rng.string("a-z0-9", 0..7);
    if rng.one_in(2) {
        s += &format!(":{}{}", rng.string("a-z", 1..2), rng.string("a-z0-9", 0..5));
    }
    s
}

/// Text with tricky characters but never whitespace-only (the parser
/// canonicalizes indentation-only runs away).
fn text(rng: &mut Rng) -> String {
    rng.string("a-z<>&\"' ", 0..11) + &rng.string("a-z<>&\"'", 1..2)
}

/// Up to three attributes, first name wins.
fn attrs(rng: &mut Rng) -> Vec<(Str<'static>, Str<'static>)> {
    let mut seen = std::collections::HashSet::new();
    let attrs = rng.vec(0..3, |r| (name(r), text(r)));
    attrs
        .into_iter()
        .filter(|(n, _)| seen.insert(n.clone()))
        .map(|(n, v)| (n.into(), v.into()))
        .collect()
}

/// An element nested `depth` levels: at depth 0 a childless leaf, above
/// it up to three children, each an element one level down or text.
fn element(rng: &mut Rng, depth: u32) -> Element<'static> {
    let mut e = Element::new(name(rng));
    e.attrs = attrs(rng);
    if depth == 0 {
        return e;
    }
    for _ in 0..rng.below(4) {
        let child = if rng.one_in(2) {
            Node::Element(element(rng, depth - 1))
        } else {
            Node::Text(text(rng).into())
        };
        // merge adjacent text nodes (parser always coalesces them)
        match (e.children.last_mut(), child) {
            (Some(Node::Text(prev)), Node::Text(t)) => prev.to_mut().push_str(&t),
            (_, c) => e.children.push(c),
        }
    }
    e
}

fn depth(e: &Element) -> u32 {
    let below = |c: &Node| if let Node::Element(c) = c { 1 + depth(c) } else { 0 };
    e.children.iter().map(below).max().unwrap_or(0)
}

#[test]
fn xml_serialize_parse_roundtrip() {
    check(TARGET, 64, |rng| {
        let e = element(rng, 3);
        let wire = e.to_xml();
        let parsed = parse(&wire).unwrap();
        assert_eq!(parsed, e);
    });
}

/// The round-trip's default seeds reach a tree three elements deep.
#[test]
fn trees_reach_depth_three() {
    let deepest = (1..=64).map(|seed| depth(&element(&mut Rng::for_case(seed), 3))).max();
    assert_eq!(deepest, Some(3));
}

/// Text written as a mix of escaped runs, character references and
/// CDATA sections reads back as the text it spells. A single run with
/// no entity comes back borrowed from the document; a decoded run, or
/// several runs joined into one node, comes back copied.
#[test]
fn entities_and_cdata_decode_to_the_written_text() {
    check(TARGET, 200, |rng| {
        let mut doc = String::from("<t>");
        // `runs` counts the document's text runs: each CDATA section, and
        // each stretch of character data between them
        let (mut want, mut runs, mut decoded, mut in_text) = (String::new(), 0, false, false);
        for _ in 0..rng.range(1..5) {
            // never whitespace-only: a blank run before a CDATA section
            // is indentation, which the parser drops
            let piece = rng.text(0..11) + &rng.string("a-z<>&", 1..2);
            let cdata = rng.one_in(3) && !piece.contains("]]>");
            if cdata {
                doc += &format!("<![CDATA[{piece}]]>");
            } else if rng.one_in(2) {
                for c in piece.chars() {
                    doc += &format!("&#{};", c as u32);
                }
                decoded = true;
            } else {
                let before = doc.len();
                escape_text(&piece, &mut doc);
                decoded |= doc[before..].contains('&');
            }
            runs += usize::from(cdata || !in_text);
            in_text = !cdata;
            want += &piece;
        }
        doc += "</t>";
        let e = parse(&doc).unwrap();
        assert_eq!(e.text_content(), want, "{doc}");
        match &e.children[..] {
            [Node::Text(Str::Borrowed(_))] => assert!(runs == 1 && !decoded, "{doc}"),
            [Node::Text(Str::Owned(_))] => assert!(runs > 1 || decoded, "{doc}"),
            other => panic!("{doc}: {other:?}"),
        }
    });
}

/// A chain of random elements `levels` deep, text at the bottom.
fn chain(rng: &mut Rng, levels: usize) -> Element<'static> {
    let mut e = Element::new(name(rng)).text(text(rng));
    for _ in 1..levels {
        let mut parent = Element::new(name(rng));
        parent.attrs = attrs(rng);
        e = parent.child(e);
    }
    e
}

/// A tree exactly at the depth cap round-trips; one level more is a
/// parse error, not a deeper recursion.
#[test]
fn trees_at_the_depth_cap() {
    check(TARGET, 16, |rng| {
        let e = chain(rng, MAX_DEPTH);
        let wire = e.to_xml();
        assert_eq!(parse(&wire).unwrap(), e);
        let deeper = Element::new(name(rng)).child(e).to_xml();
        assert!(matches!(parse(&deeper), Err(XmlError::Parse { .. })));
    });
}
