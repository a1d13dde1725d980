//! End-to-end tests: real MCS behind the real SOAP/HTTP server, driven by
//! the client API over loopback TCP.

use std::sync::Arc;

use mcs::{
    AttrPredicate, AttrType, Attribute, Credential, ExternalCatalog, FileSpec, FileUpdate,
    IndexProfile, ManualClock, Mcs, ObjectRef, Permission, UserRecord,
};
use mcs_net::{FaultKind, McsClient, McsServer};
use relstore::Value;
use soapstack::TransportOpts;

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

fn start_server() -> (McsServer, Arc<Mcs>) {
    let a = admin();
    let clock = Arc::new(ManualClock::default());
    let m = Arc::new(Mcs::with_options(&a, IndexProfile::Paper2003, clock).unwrap());
    let server = McsServer::start(Arc::clone(&m), "127.0.0.1:0", 4).unwrap();
    (server, m)
}

fn client(server: &McsServer) -> McsClient {
    McsClient::connect(server.addr().to_string(), admin())
}

#[test]
fn ping_and_wsdl() {
    let (server, _m) = start_server();
    let mut c = client(&server);
    c.ping().unwrap();
    // GET returns the service description
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"GET /mcs?wsdl HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    assert!(text.contains("MetadataCatalogService"));
    assert!(text.contains("queryByAttributes"));
}

#[test]
fn full_file_lifecycle_over_the_wire() {
    let (server, _m) = start_server();
    let mut c = client(&server);
    c.define_attribute("channel", AttrType::Str, "detector channel").unwrap();
    c.define_attribute("gps", AttrType::Int, "gps start").unwrap();

    let f = c
        .create_file(&FileSpec::named("run_0042.gwf").attr("channel", "H1").attr("gps", 714_000_000i64))
        .unwrap();
    assert_eq!(f.version, 1);

    let got = c.get_file("run_0042.gwf").unwrap();
    assert_eq!(got, f);

    let attrs = c.get_attributes(&ObjectRef::File("run_0042.gwf".into())).unwrap();
    assert_eq!(attrs.len(), 2);

    let hits = c
        .query_by_attributes(&[
            AttrPredicate::eq("channel", "H1"),
            AttrPredicate { name: "gps".into(), op: mcs::AttrOp::Ge, value: 714_000_000i64.into() },
        ])
        .unwrap();
    assert_eq!(hits, vec![("run_0042.gwf".to_string(), 1)]);

    let f2 = c
        .update_file("run_0042.gwf", &FileUpdate { data_type: Some("gwf".into()), ..Default::default() })
        .unwrap();
    assert_eq!(f2.data_type.as_deref(), Some("gwf"));

    c.invalidate_file("run_0042.gwf").unwrap();
    assert!(c.query_by_attributes(&[AttrPredicate::eq("channel", "H1")]).unwrap().is_empty());

    c.delete_file("run_0042.gwf").unwrap();
    let err = c.get_file("run_0042.gwf").unwrap_err();
    assert!(err.is(FaultKind::NotFound), "{err}");
}

#[test]
fn collections_views_annotations_over_the_wire() {
    let (server, _m) = start_server();
    let mut c = client(&server);
    c.create_collection("ligo", None, "top").unwrap();
    c.create_collection("ligo/s2", Some("ligo"), "run 2").unwrap();
    c.create_file(&FileSpec::named("a").in_collection("ligo/s2")).unwrap();
    c.create_file(&FileSpec::named("b").in_collection("ligo/s2")).unwrap();
    let contents = c.list_collection("ligo/s2").unwrap();
    assert_eq!(contents.files.len(), 2);
    let top = c.list_collection("ligo").unwrap();
    assert_eq!(top.subcollections, vec!["ligo/s2"]);

    c.create_view("favorites", "my picks").unwrap();
    c.add_to_view("favorites", &ObjectRef::File("a".into())).unwrap();
    c.add_to_view("favorites", &ObjectRef::Collection("ligo/s2".into())).unwrap();
    let v = c.list_view("favorites").unwrap();
    assert_eq!(v.files, vec![("a".to_string(), 1)]);
    assert_eq!(v.collections, vec!["ligo/s2"]);
    assert!(c.remove_from_view("favorites", &ObjectRef::File("a".into())).unwrap());

    c.annotate(&ObjectRef::File("a".into()), "looks noisy <after> 40Hz & up").unwrap();
    let anns = c.get_annotations(&ObjectRef::File("a".into())).unwrap();
    assert_eq!(anns[0].text, "looks noisy <after> 40Hz & up");

    c.add_history("a", "produced by calibrate --v3").unwrap();
    assert_eq!(c.get_history("a").unwrap().len(), 1);
}

#[test]
fn faults_carry_structured_kinds() {
    let (server, _m) = start_server();
    let mut c = client(&server);
    assert!(c.get_file("ghost").unwrap_err().is(FaultKind::NotFound));
    c.create_file(&FileSpec::named("f")).unwrap();
    assert!(c.create_file(&FileSpec::named("f")).unwrap_err().is(FaultKind::AlreadyExists));
    assert!(c
        .create_file(&FileSpec::named("g").attr("undefined", 1i64))
        .unwrap_err()
        .is(FaultKind::BadAttribute));
    assert!(c.create_file(&FileSpec::named("")).unwrap_err().is(FaultKind::InvalidName));
    // permission fault for a stranger
    let mut stranger =
        McsClient::connect(server.addr().to_string(), Credential::new("/CN=stranger"));
    assert!(stranger.get_file("f").unwrap_err().is(FaultKind::PermissionDenied));
}

#[test]
fn grants_work_over_the_wire() {
    let (server, _m) = start_server();
    let mut c = client(&server);
    c.create_file(&FileSpec::named("f")).unwrap();
    c.grant(&ObjectRef::File("f".into()), "/CN=reader", Permission::Read).unwrap();
    let mut reader =
        McsClient::connect(server.addr().to_string(), Credential::new("/CN=reader"));
    assert!(reader.get_file("f").is_ok());
    c.revoke(&ObjectRef::File("f".into()), "/CN=reader", Permission::Read).unwrap();
    assert!(reader.get_file("f").unwrap_err().is(FaultKind::PermissionDenied));
}

#[test]
fn audit_trail_over_the_wire() {
    let (server, _m) = start_server();
    let mut c = client(&server);
    c.create_file(&FileSpec { audit: true, ..FileSpec::named("f") }).unwrap();
    c.get_file("f").unwrap();
    let trail = c.get_audit_trail(&ObjectRef::File("f".into())).unwrap();
    let actions: Vec<&str> = trail.iter().map(|r| r.action.as_str()).collect();
    assert_eq!(actions, vec!["create", "query"]);
    c.set_audit(&ObjectRef::File("f".into()), false).unwrap();
    c.get_file("f").unwrap();
    assert_eq!(c.get_audit_trail(&ObjectRef::File("f".into())).unwrap().len(), 2);
}

#[test]
fn registries_over_the_wire() {
    let (server, _m) = start_server();
    let mut c = client(&server);
    c.register_user(&UserRecord {
        dn: "/CN=ewa".into(),
        description: "planner".into(),
        institution: "ISI".into(),
        email: "e@isi.edu".into(),
        phone: "".into(),
    })
    .unwrap();
    assert_eq!(c.get_user("/CN=ewa").unwrap().institution, "ISI");
    assert_eq!(c.list_users().unwrap().len(), 1);

    c.register_external_catalog(&ExternalCatalog {
        name: "repmec".into(),
        catalog_type: "Spitfire".into(),
        host: "edg.cern.ch".into(),
        ip: "".into(),
        description: "EDG replica metadata".into(),
    })
    .unwrap();
    assert_eq!(c.list_external_catalogs().unwrap().len(), 1);
}

#[test]
fn special_characters_survive_the_envelope() {
    let (server, _m) = start_server();
    let mut c = client(&server);
    c.define_attribute("desc", AttrType::Str, "").unwrap();
    let nasty = "a <b> & 'c' \"d\" — ümlaut 数据";
    c.create_file(&FileSpec::named("f").attr("desc", nasty)).unwrap();
    let attrs = c.get_attributes(&ObjectRef::File("f".into())).unwrap();
    assert_eq!(attrs[0].value, Value::from(nasty));
}

#[test]
fn versions_over_the_wire() {
    let (server, _m) = start_server();
    let mut c = client(&server);
    c.create_file(&FileSpec::named("f")).unwrap();
    c.create_file(&FileSpec { version: Some(2), ..FileSpec::named("f") }).unwrap();
    assert!(c.get_file("f").unwrap_err().is(FaultKind::VersionConflict));
    assert_eq!(c.get_file_version("f", 2).unwrap().version, 2);
    assert_eq!(c.get_file_versions("f").unwrap().len(), 2);
    c.delete_file_version("f", 1).unwrap();
    assert_eq!(c.get_file("f").unwrap().version, 2);
}

#[test]
fn keep_alive_transport_works() {
    let (server, _m) = start_server();
    let opts = TransportOpts { keep_alive: true, simulated_rtt: std::time::Duration::ZERO };
    let mut c = McsClient::with_opts(server.addr().to_string(), admin(), opts);
    for i in 0..10 {
        c.create_file(&FileSpec::named(format!("f{i}"))).unwrap();
    }
    assert_eq!(c.get_file("f7").unwrap().name, "f7");
    // one TCP connection for all 11+ calls
    assert_eq!(server.stats().connections.load(std::sync::atomic::Ordering::Relaxed), 1);
}

#[test]
fn concurrent_clients() {
    let (server, _m) = start_server();
    let addr = server.addr().to_string();
    let mut c = client(&server);
    c.define_attribute("x", AttrType::Int, "").unwrap();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = McsClient::connect(addr, admin());
                for i in 0..25 {
                    c.create_file(&FileSpec::named(format!("t{t}_f{i}")).attr("x", i as i64))
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let hits = c.query_by_attributes(&[AttrPredicate::eq("x", 3i64)]).unwrap();
    assert_eq!(hits.len(), 4);
    let attribute = Attribute { name: "x".into(), value: Value::Int(99) };
    c.set_attribute(&ObjectRef::File("t0_f0".into()), &attribute).unwrap();
    assert_eq!(
        c.get_attributes(&ObjectRef::File("t0_f0".into())).unwrap()[0].value,
        Value::Int(99)
    );
}

#[test]
fn explain_query_over_the_wire() {
    // Paper2003 profile: every predicate reports its posting scan.
    let (server, _m) = start_server();
    let mut c = client(&server);
    c.define_attribute("channel", AttrType::Str, "").unwrap();
    let plan = c.explain_query(&[AttrPredicate::eq("channel", "H1")]).unwrap();
    assert_eq!(plan, vec!["posting scan: channel = via ua_name".to_string()]);

    // ValueIndexed profile: the cost-based plan comes back line by line.
    let a = admin();
    let clock = Arc::new(ManualClock::default());
    let m = Arc::new(Mcs::with_options(&a, IndexProfile::ValueIndexed, clock).unwrap());
    let server = McsServer::start(m, "127.0.0.1:0", 2).unwrap();
    let mut c = client(&server);
    c.define_attribute("channel", AttrType::Str, "").unwrap();
    c.define_attribute("gps", AttrType::Int, "").unwrap();
    for i in 0..8 {
        c.create_file(
            &FileSpec::named(format!("f{i}")).attr("channel", "H1").attr("gps", i as i64),
        )
        .unwrap();
    }
    let plan = c
        .explain_query(&[
            AttrPredicate::eq("channel", "H1"),
            AttrPredicate { name: "gps".into(), op: mcs::AttrOp::Ge, value: 5i64.into() },
        ])
        .unwrap();
    assert_eq!(plan.len(), 2);
    // gps >= 5 keeps 3 of 8 rows and seeds; channel = H1 matches all 8,
    // and walking 8 index entries costs less than probing 3 survivors.
    assert!(plan[0].starts_with("seed: gps >= via index ua_name_int range"), "{plan:?}");
    assert!(plan[1].starts_with("intersect: channel = via index ua_name_str eq"), "{plan:?}");

    // Empty predicate lists fault, like the query itself.
    assert!(c.explain_query(&[]).is_err());
}

/// A SOAP boolean is exactly the `true` or `false` the encoders write:
/// each of the three decoders faults on any other text.
#[test]
fn soap_bool_decoders_accept_only_true_and_false() {
    use mcs_net::codec::Record;
    use mcs_net::wire;
    use soapstack::xml::Element;
    let el = |text: &'static str| Element::new("r").child(Element::new("valid").text(text));
    let value = |text: &'static str| Element::new("value").attr("type", "bool").text(text);
    for (text, want) in [("true", true), ("false", false)] {
        assert_eq!(wire::req_bool(&el(text), "valid").unwrap(), want);
        assert_eq!(wire::value_from(&value(text)).unwrap(), Value::Bool(want));
        assert_eq!(mcs::FileUpdate::from_el(&el(text)).unwrap().valid, Some(want));
    }
    for text in ["TRUE", "True", "1", "0", "yes", "banana", ""] {
        assert!(wire::req_bool(&el(text), "valid").is_err(), "req_bool {text:?}");
        assert!(wire::value_from(&value(text)).is_err(), "value_from {text:?}");
        assert!(mcs::FileUpdate::from_el(&el(text)).is_err(), "FileUpdate::from_el {text:?}");
    }
}

/// A raw SOAP `updateFile` with `<valid>TRUE</valid>` is a malformed
/// request, not an order to invalidate the file.
#[test]
fn soap_bool_uppercase_valid_faults_and_leaves_the_file_valid() {
    use soapstack::xml::Element;
    use soapstack::{SoapClient, SoapError};
    let (server, m) = start_server();
    client(&server).create_file(&FileSpec::named("f")).unwrap();
    let admin = admin();
    let args = Element::new("args")
        .child(mcs_net::wire::credential_el(&admin))
        .child(Element::new("name").text("f"))
        .child(Element::new("fileUpdate").child(Element::new("valid").text("TRUE")));
    match SoapClient::new(server.addr().to_string(), "/mcs").call("updateFile", args) {
        Err(SoapError::Fault(f)) => assert_eq!(f.code, "soap:Client.BadArguments", "{f:?}"),
        other => panic!("expected a BadArguments fault, got {other:?}"),
    }
    assert!(m.get_file(&admin, "f").unwrap().valid);
}
