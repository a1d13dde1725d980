//! End-to-end tests for the read cache over the wire (DESIGN.md §7.3):
//! the `cacheStats` op, the per-request `mcs:cache="bypass"` attribute,
//! and write-driven revalidation as seen by a SOAP client.

use std::sync::Arc;

use mcs::{
    AttrPredicate, AttrType, Attribute, CacheConfig, Credential, FileSpec, IndexProfile,
    ManualClock, Mcs, ObjectRef,
};
use mcs_net::{McsClient, McsServer};
use relstore::Value;

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

fn start_cached_server() -> (McsServer, Arc<Mcs>) {
    let a = admin();
    let clock = Arc::new(ManualClock::default());
    let m = Arc::new(
        Mcs::with_options_cached(&a, IndexProfile::Paper2003, clock, CacheConfig::default())
            .unwrap(),
    );
    let server = McsServer::start(Arc::clone(&m), "127.0.0.1:0", 4).unwrap();
    (server, m)
}

fn eq(name: &str, v: impl Into<Value>) -> AttrPredicate {
    AttrPredicate { name: name.into(), op: mcs::AttrOp::Eq, value: v.into() }
}

#[test]
fn cache_stats_and_bypass_over_the_wire() {
    let (server, _m) = start_cached_server();
    let mut c = McsClient::connect(server.addr().to_string(), admin());

    c.define_attribute("run", AttrType::Int, "run number").unwrap();
    c.create_file(&FileSpec::named("a.dat").attr("run", 7i64)).unwrap();
    c.create_file(&FileSpec::named("b.dat").attr("run", 8i64)).unwrap();

    let preds = [eq("run", 7i64)];
    let first = c.query_by_attributes(&preds).unwrap();
    assert_eq!(first, vec![("a.dat".to_owned(), 1)]);
    let s0 = c.cache_stats().unwrap();
    assert!(s0.enabled);

    // Repeating the query is served from the cache.
    let again = c.query_by_attributes(&preds).unwrap();
    assert_eq!(again, first);
    let s1 = c.cache_stats().unwrap();
    assert!(s1.hits > s0.hits, "expected a cache hit: {s0:?} -> {s1:?}");

    // With the bypass attribute the cache is not consulted at all:
    // the result is identical and no counter moves.
    c.set_cache_bypass(true);
    let bypassed = c.query_by_attributes(&preds).unwrap();
    assert_eq!(bypassed, first);
    let s2 = c.cache_stats().unwrap();
    assert_eq!((s2.hits, s2.misses, s2.stale), (s1.hits, s1.misses, s1.stale));
    c.set_cache_bypass(false);

    // A write to the attribute table invalidates the cached answer; the
    // next query re-executes and sees the new state.
    c.set_attribute(
        &ObjectRef::File("b.dat".into()),
        &Attribute { name: "run".into(), value: 7i64.into() },
    )
    .unwrap();
    let after_write = c.query_by_attributes(&preds).unwrap();
    assert_eq!(after_write, vec![("a.dat".to_owned(), 1), ("b.dat".to_owned(), 1)]);
    let s3 = c.cache_stats().unwrap();
    assert!(s3.stale > s2.stale, "write must revalidate the entry: {s2:?} -> {s3:?}");
}

#[test]
fn cache_stats_reports_disabled_on_uncached_server() {
    let a = admin();
    let clock = Arc::new(ManualClock::default());
    let m = Arc::new(Mcs::with_options(&a, IndexProfile::Paper2003, clock).unwrap());
    let server = McsServer::start(Arc::clone(&m), "127.0.0.1:0", 4).unwrap();
    let mut c = McsClient::connect(server.addr().to_string(), admin());
    let s = c.cache_stats().unwrap();
    assert!(!s.enabled);
    assert_eq!((s.hits, s.misses, s.stale, s.evictions), (0, 0, 0, 0));
}

#[test]
fn unknown_cache_mode_is_a_client_fault() {
    let (server, _m) = start_cached_server();
    // Hand-rolled call: the typed client only sends "bypass".
    let mut soap = soapstack::SoapClient::new(server.addr().to_string(), "/mcs");
    let admin = admin();
    let args = soapstack::Element::new("a")
        .attr("mcs:cache", "nope")
        .child(mcs_net::wire::credential_el(&admin));
    match soap.call("ping", args) {
        Err(soapstack::SoapError::Fault(f)) => {
            assert!(f.code.contains("BadArguments"), "fault code: {}", f.code);
        }
        other => panic!("expected a BadArguments fault, got {other:?}"),
    }
}
