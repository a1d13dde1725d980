//! End-to-end tests for a hash-partitioned catalog behind the SOAP
//! surface (DESIGN.md §7.4): `catalogInfo`, routed writes with per-shard
//! epoch echoes, scatter-gather queries, and the single-shard wire
//! contract staying byte-compatible.

use std::sync::Arc;

use mcs::{
    shard_of_name, AttrPredicate, AttrType, Attribute, CacheConfig, Credential, ExternalCatalog,
    FileSpec, FileUpdate, IndexProfile, ManualClock, Mcs, ObjectRef, Outcome, Permission,
    ShardedCatalog, StoreConfig, SyncPolicy, UserRecord,
};
use mcs_net::client::DurabilityMode;
use mcs_net::dispatch::{self, CallScope};
use mcs_net::ops::Call;
use mcs_net::{McsClient, McsServer};
use relstore::Value;

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcs-net-shard-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn start_sharded_server(shards: usize) -> McsServer {
    let a = admin();
    let clock = Arc::new(ManualClock::default());
    let catalog = Arc::new(
        ShardedCatalog::in_memory(
            shards,
            &a,
            IndexProfile::Paper2003,
            clock,
            Some(CacheConfig::default()),
            false,
        )
        .unwrap(),
    );
    McsServer::start_sharded(catalog, "127.0.0.1:0", 4).unwrap()
}

fn eq(name: &str, v: impl Into<Value>) -> AttrPredicate {
    AttrPredicate { name: name.into(), op: mcs::AttrOp::Eq, value: v.into() }
}

#[test]
fn catalog_info_and_routed_ops_over_the_wire() {
    let server = start_sharded_server(4);
    let mut c = McsClient::connect(server.addr().to_string(), admin());

    let info = c.catalog_info().unwrap();
    assert_eq!(info.shards, 4);
    assert_eq!(info.profile, "Paper2003");
    assert_eq!(info.files, 0);
    assert!(info.cache_enabled);

    // Global state (collections, attribute definitions) and per-file
    // state (files, their attributes) land on different shards, but the
    // wire surface is unchanged: one endpoint, one answer.
    c.define_attribute("run", AttrType::Int, "run number").unwrap();
    c.create_collection("ligo", None, "LIGO runs").unwrap();
    for i in 0..12 {
        c.create_file(
            &FileSpec::named(format!("run.{i:03}.gwf"))
                .attr("run", i as i64)
                .in_collection("ligo"),
        )
        .unwrap();
    }
    assert_eq!(c.catalog_info().unwrap().files, 12);

    // A non-name predicate fans out to every shard; the merged answer is
    // complete and name-ordered.
    let hits = c.query_by_attributes(&[eq("run", 3i64)]).unwrap();
    assert_eq!(hits, vec![("run.003.gwf".to_owned(), 1)]);
    let all: Vec<String> = c
        .list_collection("ligo")
        .unwrap()
        .files
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(all.len(), 12);
    let mut sorted = all.clone();
    sorted.sort();
    assert_eq!(all, sorted, "gathered listing must be name-ordered");
}

#[test]
fn async_writes_echo_their_shard_for_the_epoch_barrier() {
    // Epoch echoes need a WAL, so this one runs on a durable 4-shard
    // store rather than in memory.
    let dir = tmpdir("echo");
    let catalog = Arc::new(
        ShardedCatalog::open(
            &dir,
            &admin(),
            IndexProfile::Paper2003,
            Arc::new(ManualClock::default()),
            StoreConfig::default().sharded(4),
        )
        .unwrap(),
    );
    let server = McsServer::start_sharded(catalog, "127.0.0.1:0", 4).unwrap();
    let mut c = McsClient::connect(server.addr().to_string(), admin());
    c.set_durability(Some(DurabilityMode::Async));

    // Find two files that live on different shards so the echoed shard
    // id demonstrably varies with the routed name.
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..16 {
        c.create_file(&FileSpec::named(format!("epoch.{i:03}.dat"))).unwrap();
        assert!(c.last_epoch() > 0, "async write must echo its commit epoch");
        seen.insert(c.last_shard());
        // The echoed (shard, epoch) pair is the durability handle.
        let durable = c.wait_for_epoch_on(c.last_shard(), c.last_epoch()).unwrap();
        assert!(durable >= c.last_epoch());
    }
    assert!(seen.len() > 1, "16 names should spread over >1 of 4 shards: {seen:?}");

    // syncNow barriers every shard at once.
    c.set_durability(None);
    assert!(c.sync_now().is_ok());
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every committing write echoes the shard its route names: the owner
/// of the file for per-file ops and file object refs, shard 0 for global
/// state.
#[test]
fn committing_writes_echo_the_routed_shard() {
    let dir = tmpdir("route");
    let cfg = StoreConfig { sync: SyncPolicy::OsBuffered, ..StoreConfig::default().sharded(4) };
    let clock = Arc::new(ManualClock::default());
    let catalog =
        ShardedCatalog::open(&dir, &admin(), IndexProfile::Paper2003, clock, cfg).unwrap();
    let a = admin();
    let f = (0..).map(|i| format!("route.{i}.dat")).find(|n| shard_of_name(n, 4) == 3).unwrap();
    let expect = |call: Call<'_>, shard: usize| {
        let op = call.op();
        let (_, Outcome { epoch, shard: echoed }) =
            dispatch::serve(&catalog, &a, CallScope::default(), call)
            .unwrap_or_else(|e| panic!("{op:?}: {e:?}"));
        assert!(epoch > 0, "{op:?} echoed no commit");
        assert_eq!(echoed, shard, "{op:?} echoed shard {echoed}, not {shard}");
    };
    let (file, coll, view) =
        (ObjectRef::File(f.clone()), ObjectRef::Collection("c".into()), ObjectRef::View("v".into()));
    let attr = Attribute { name: "a".into(), value: Value::Int(1) };
    let user = "/O=Grid/CN=user";

    expect(Call::DefineAttribute { name: "a", ty: AttrType::Int, description: "" }, 0);
    expect(Call::CreateCollection { name: "c", parent: None, description: "" }, 0);
    expect(Call::CreateView { name: "v", description: "" }, 0);
    expect(Call::CreateFile { spec: &FileSpec::named(f.as_str()) }, 3);
    let update = FileUpdate { data_type: Some("raw".into()), ..FileUpdate::default() };
    expect(Call::UpdateFile { name: &f, update: &update }, 3);
    expect(Call::AssignCollection { file: &f, collection: Some("c") }, 3);
    for (object, shard) in [(&file, 3), (&coll, 0)] {
        expect(Call::SetAttribute { object, attr: &attr }, shard);
        expect(Call::RemoveAttribute { object, name: "a" }, shard);
        expect(Call::Annotate { object, text: "note" }, shard);
        expect(Call::Grant { object, principal: user, perm: Permission::Read }, shard);
        expect(Call::Revoke { object, principal: user, perm: Permission::Read }, shard);
        expect(Call::AddToView { view: "v", member: object }, shard);
        expect(Call::RemoveFromView { view: "v", member: object }, shard);
    }
    expect(Call::SetAudit { object: &file, enabled: true }, 3);
    expect(Call::SetAudit { object: &view, enabled: true }, 0);
    expect(Call::AddHistory { file: &f, description: "derived" }, 3);
    expect(Call::InvalidateFile { name: &f }, 3);
    let u = UserRecord {
        dn: user.into(),
        description: String::new(),
        institution: String::new(),
        email: String::new(),
        phone: String::new(),
    };
    expect(Call::RegisterUser { user: &u }, 0);
    let cat = ExternalCatalog {
        name: "ext".into(),
        catalog_type: "MCAT".into(),
        host: "h".into(),
        ip: "10.0.0.1".into(),
        description: String::new(),
    };
    expect(Call::RegisterExternalCatalog { catalog: &cat }, 0);
    let v2 = FileSpec { version: Some(2), ..FileSpec::named(f.as_str()) };
    expect(Call::CreateFiles { specs: &[v2] }, 3);
    expect(Call::DeleteFileVersion { name: &f, version: 2 }, 3);
    expect(Call::DeleteFile { name: &f }, 3);
    expect(Call::DeleteCollection { name: "c" }, 0);
    expect(Call::DeleteView { name: "v" }, 0);
    drop(catalog);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_shard_server_keeps_the_unsharded_wire_contract() {
    let a = admin();
    let clock = Arc::new(ManualClock::default());
    let dir = tmpdir("single");
    let m = Arc::new(
        Mcs::open_durable(&dir, &a, IndexProfile::Paper2003, clock, StoreConfig::default())
            .unwrap(),
    );
    let server = McsServer::start(Arc::clone(&m), "127.0.0.1:0", 4).unwrap();
    let mut c = McsClient::connect(server.addr().to_string(), admin());

    let info = c.catalog_info().unwrap();
    assert_eq!(info.shards, 1);
    assert!(!info.cache_enabled);

    // No `mcs:shard` attribute on responses from a single-shard server.
    c.set_durability(Some(DurabilityMode::Async));
    c.create_file(&FileSpec::named("only.dat")).unwrap();
    assert!(c.last_epoch() > 0);
    assert_eq!(c.last_shard(), 0);
    assert!(c.wait_for_epoch(c.last_epoch()).unwrap() >= c.last_epoch());
    drop(server);
    drop(m);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_shard_is_a_client_fault() {
    let server = start_sharded_server(2);
    let mut soap = soapstack::SoapClient::new(server.addr().to_string(), "/mcs");
    let admin = admin();
    let args = soapstack::Element::new("a")
        .child(mcs_net::wire::credential_el(&admin))
        .child(mcs_net::wire::text_el("epoch", "1"))
        .child(mcs_net::wire::text_el("shard", "9"));
    match soap.call("waitForEpoch", args) {
        Err(soapstack::SoapError::Fault(f)) => {
            assert!(f.code.contains("BadArguments"), "fault code: {}", f.code);
        }
        other => panic!("expected a BadArguments fault, got {other:?}"),
    }
}
