//! Property tests: XML serialize→parse is the identity on element trees.

use testkit::{check, Rng};
use xmlkit::{parse, Element, Node};

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
fn attrs(rng: &mut Rng) -> Vec<(String, String)> {
    let mut seen = std::collections::HashSet::new();
    let attrs = rng.vec(0..3, |r| (name(r), text(r)));
    attrs.into_iter().filter(|(n, _)| seen.insert(n.clone())).collect()
}

/// An element nested `depth` levels: at depth 0 a childless leaf, above
/// it up to three children, each an element one level down or text.
fn element(rng: &mut Rng, depth: u32) -> Element {
    let mut e = Element::new(name(rng));
    e.attrs = attrs(rng);
    if depth == 0 {
        return e;
    }
    for _ in 0..rng.below(4) {
        let child = if rng.one_in(2) {
            Node::Element(element(rng, depth - 1))
        } else {
            Node::Text(text(rng))
        };
        // merge adjacent text nodes (parser always coalesces them)
        match (e.children.last_mut(), child) {
            (Some(Node::Text(prev)), Node::Text(t)) => prev.push_str(&t),
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
    check("-p xmlkit --test proptests", 64, |rng| {
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
