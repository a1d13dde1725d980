//! Golden wire corpus: the exact bytes both front ends put on the wire
//! for one representative call of every operation in the op table.
//!
//! Each wire gets its own durable `ManualClock` catalog, server and client, and
//! a recording loopback proxy between client and server. The same call
//! sequence runs over both wires; for every call the test records the
//! binary request and response frames (hex, length prefix included),
//! the SOAP request and response envelopes (with the HTTP start line),
//! and the decoded result, which must be identical on both wires. The
//! recording is compared with `tests/golden/wire.txt`.
//!
//! Operations are enumerated from the op table (`Op::from_u8` over
//! every byte), and the corpus call for each is an exhaustive `match`,
//! so an operation added to the table without a corpus entry does not
//! compile, and one that either wire cannot carry fails here.
//!
//! Beyond the per-op corpus the recording pins a fault on each wire,
//! the durability and cache-bypass flag bits and attributes, and the
//! epoch and shard echo of a two-shard catalog.
//!
//! On a mismatch the full recording is written to
//! `$CARGO_TARGET_TMPDIR/wire_golden.actual.txt`; after a deliberate
//! wire change, review the diff and copy that file over the fixture.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;

use mcs::{
    AttrPredicate, AttrType, Attribute, CacheConfig, Credential, ExternalCatalog, FileSpec,
    FileUpdate, IndexProfile, ManualClock, ObjectRef, Permission, ShardedCatalog, StoreConfig, UserRecord,
};
use mcs_net::binproto::Op;
use mcs_net::{BinMcsClient, BinServer, DurabilityMode, McsClient, McsServer};
use soapstack::TransportOpts;

const FIXTURE: &str = include_str!("golden/wire.txt");

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

type Log = Arc<Mutex<Vec<u8>>>;

/// A loopback proxy that records every byte it relays, per direction.
struct Tap {
    addr: SocketAddr,
    up: Log,
    down: Log,
}

impl Tap {
    fn new(target: SocketAddr) -> Tap {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (up, down) = (Log::default(), Log::default());
        let (u, d) = (Arc::clone(&up), Arc::clone(&down));
        thread::spawn(move || {
            for client in listener.incoming() {
                let Ok(client) = client else { return };
                let server = TcpStream::connect(target).unwrap();
                pump(client.try_clone().unwrap(), server.try_clone().unwrap(), Arc::clone(&u));
                pump(server, client, Arc::clone(&d));
            }
        });
        Tap { addr, up, down }
    }

    /// Everything relayed since the last call: (client → server,
    /// server → client). A call's bytes are complete once the client
    /// has its answer, because the proxy logs a chunk before relaying it.
    fn take(&self) -> (Vec<u8>, Vec<u8>) {
        let up = std::mem::take(&mut *self.up.lock().unwrap());
        let down = std::mem::take(&mut *self.down.lock().unwrap());
        (up, down)
    }
}

fn pump(mut from: TcpStream, mut to: TcpStream, log: Log) {
    let _ = to.set_nodelay(true);
    thread::spawn(move || {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match from.read(&mut buf) {
                Ok(0) | Err(_) => {
                    let _ = to.shutdown(Shutdown::Write);
                    return;
                }
                Ok(n) => {
                    log.lock().unwrap().extend_from_slice(&buf[..n]);
                    if to.write_all(&buf[..n]).is_err() {
                        return;
                    }
                }
            }
        }
    });
}

fn store_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mcs-wire-golden-{tag}-{}", std::process::id()))
}

/// A durable `ManualClock` catalog in a fresh directory, so writes log
/// and echo real commit epochs.
fn catalog(tag: &str, shards: usize) -> Arc<ShardedCatalog> {
    let dir = store_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = StoreConfig { shards, cache: Some(CacheConfig::default()), ..StoreConfig::default() };
    let clock = Arc::new(ManualClock::default());
    Arc::new(ShardedCatalog::open(&dir, &admin(), IndexProfile::Paper2003, clock, cfg).unwrap())
}

/// One wire under test: server, tap and client, plus the recording.
struct Rig<C, S> {
    client: C,
    tap: Tap,
    _server: S,
}

fn soap_rig(shards: usize) -> Rig<McsClient, McsServer> {
    let server = McsServer::start_sharded(catalog(&format!("soap{shards}"), shards), "127.0.0.1:0", 2).unwrap();
    let tap = Tap::new(server.addr());
    let opts = TransportOpts { keep_alive: true, ..TransportOpts::default() };
    let client = McsClient::with_opts(tap.addr.to_string(), admin(), opts);
    Rig { client, tap, _server: server }
}

fn bin_rig(shards: usize) -> Rig<BinMcsClient, BinServer> {
    let server = BinServer::start_sharded(catalog(&format!("bin{shards}"), shards), "127.0.0.1:0", 2).unwrap();
    let tap = Tap::new(server.addr());
    let client = BinMcsClient::connect(tap.addr.to_string(), admin());
    Rig { client, tap, _server: server }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// An HTTP message as `start line | body`; the headers carry the
/// proxy's port and a length derived from the body, so they are left out.
fn http(bytes: &[u8]) -> String {
    let text = String::from_utf8(bytes.to_vec()).expect("HTTP message is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("complete HTTP message");
    let start = head.lines().next().unwrap_or_default();
    assert!(!body.contains('\n'), "envelope spans lines: {body}");
    format!("{start} | {body}")
}

/// The state the corpus calls rely on, built identically on each wire.
macro_rules! setup {
    ($c:expr) => {{
        let c = &mut $c;
        c.define_attribute("run", AttrType::Int, "run number").unwrap();
        c.define_attribute("site", AttrType::Str, "").unwrap();
        c.create_collection("g-coll", None, "corpus collection").unwrap();
        c.create_collection("g-empty", None, "").unwrap();
        c.create_view("g-view", "corpus view").unwrap();
        c.create_view("g-view-del", "").unwrap();
        c.create_file(&FileSpec::named("g-seed.dat").attr("run", 7i64).attr("site", "isi"))
            .unwrap();
        c.create_file(&FileSpec::named("g-victim.dat")).unwrap();
        c.create_file(&FileSpec::named("g-ver.dat")).unwrap();
        c.create_file(&FileSpec { version: Some(2), ..FileSpec::named("g-ver.dat") }).unwrap();
        c.create_file(&FileSpec { audit: true, ..FileSpec::named("g-audited.dat") }).unwrap();
        c.get_file("g-audited.dat").unwrap();
        c.register_user(&user("/O=Grid/CN=setup")).unwrap();
    }};
}

fn user(dn: &str) -> UserRecord {
    UserRecord {
        dn: dn.into(),
        description: "corpus user".into(),
        institution: "ISI".into(),
        email: "u@example.org".into(),
        phone: "555-0100".into(),
    }
}

fn seed() -> ObjectRef {
    ObjectRef::File("g-seed.dat".into())
}

/// The representative call of `op`, its result rendered with `Debug`.
macro_rules! corpus_call {
    ($c:expr, $op:expr) => {{
        let c = &mut $c;
        let preds = [AttrPredicate::eq("run", 7i64)];
        match $op {
            Op::Ping => format!("{:?}", c.ping()),
            Op::CatalogInfo => format!(
                "{:?}",
                c.catalog_info().map(|i| (i.shards, i.profile, i.files, i.cache_enabled))
            ),
            Op::WaitForEpoch => format!("{:?}", c.wait_for_epoch(1)),
            Op::SyncNow => format!("{:?}", c.sync_now()),
            Op::CacheStats => format!("{:?}", c.cache_stats()),
            Op::CreateFile => format!(
                "{:?}",
                c.create_file(&FileSpec::named("g-new.dat").attr("run", 8i64).in_collection("g-coll"))
            ),
            Op::CreateFiles => format!(
                "{:?}",
                c.create_files(&[
                    FileSpec::named("g-batch-a.dat").attr("site", "anl"),
                    FileSpec::named("g-batch-b.dat"),
                ])
            ),
            Op::GetFile => format!("{:?}", c.get_file("g-seed.dat")),
            Op::GetFileVersion => format!("{:?}", c.get_file_version("g-ver.dat", 1)),
            Op::GetFileVersions => format!("{:?}", c.get_file_versions("g-ver.dat")),
            Op::UpdateFile => format!(
                "{:?}",
                c.update_file(
                    "g-seed.dat",
                    &FileUpdate {
                        data_type: Some("binary".into()),
                        master_copy: Some("gsiftp://host/g-seed.dat".into()),
                        ..FileUpdate::default()
                    },
                )
            ),
            Op::InvalidateFile => format!("{:?}", c.invalidate_file("g-victim.dat")),
            Op::DeleteFile => format!("{:?}", c.delete_file("g-victim.dat")),
            Op::DeleteFileVersion => format!("{:?}", c.delete_file_version("g-ver.dat", 2)),
            Op::CreateCollection => {
                format!("{:?}", c.create_collection("g-sub", Some("g-coll"), "nested <&>"))
            }
            Op::GetCollection => format!("{:?}", c.get_collection("g-coll")),
            Op::DeleteCollection => format!("{:?}", c.delete_collection("g-empty")),
            Op::ListCollection => format!("{:?}", c.list_collection("g-coll")),
            Op::AssignCollection => format!("{:?}", c.assign_collection("g-seed.dat", Some("g-coll"))),
            Op::CreateView => format!("{:?}", c.create_view("g-view2", "second view")),
            Op::GetView => format!("{:?}", c.get_view("g-view")),
            Op::DeleteView => format!("{:?}", c.delete_view("g-view-del")),
            Op::AddToView => format!("{:?}", c.add_to_view("g-view", &seed())),
            Op::RemoveFromView => format!("{:?}", c.remove_from_view("g-view", &seed())),
            Op::ListView => format!("{:?}", c.list_view("g-view")),
            Op::DefineAttribute => {
                format!("{:?}", c.define_attribute("g-ratio", AttrType::Float, "a ratio"))
            }
            Op::SetAttribute => format!(
                "{:?}",
                c.set_attribute(&seed(), &Attribute { name: "site".into(), value: "anl".into() })
            ),
            Op::RemoveAttribute => format!("{:?}", c.remove_attribute(&seed(), "site")),
            Op::GetAttributes => format!("{:?}", c.get_attributes(&seed())),
            Op::QueryByAttributes => format!("{:?}", c.query_by_attributes(&preds)),
            Op::ExplainQuery => format!("{:?}", c.explain_query(&preds)),
            Op::Annotate => format!("{:?}", c.annotate(&seed(), "checked")),
            Op::GetAnnotations => format!("{:?}", c.get_annotations(&seed())),
            Op::GetAuditTrail => {
                format!("{:?}", c.get_audit_trail(&ObjectRef::File("g-audited.dat".into())))
            }
            Op::SetAudit => format!("{:?}", c.set_audit(&seed(), true)),
            Op::AddHistory => format!("{:?}", c.add_history("g-seed.dat", "reprocessed")),
            Op::GetHistory => format!("{:?}", c.get_history("g-seed.dat")),
            Op::Grant => format!("{:?}", c.grant(&seed(), "/O=Grid/CN=reader", Permission::Read)),
            Op::Revoke => format!("{:?}", c.revoke(&seed(), "/O=Grid/CN=reader", Permission::Read)),
            Op::RegisterUser => format!("{:?}", c.register_user(&user("/O=Grid/CN=new"))),
            Op::GetUser => format!("{:?}", c.get_user("/O=Grid/CN=setup")),
            Op::ListUsers => format!("{:?}", c.list_users()),
            Op::RegisterExternalCatalog => format!(
                "{:?}",
                c.register_external_catalog(&ExternalCatalog {
                    name: "g-rls".into(),
                    catalog_type: "RLS".into(),
                    host: "rls.example.org".into(),
                    ip: "192.0.2.7".into(),
                    description: "replica locations".into(),
                })
            ),
            Op::ListExternalCatalogs => format!("{:?}", c.list_external_catalogs()),
        }
    }};
}

/// Run `call` on both wires and append one record: the bytes each wire
/// carried and the (shared) decoded result.
macro_rules! record {
    ($out:expr, $title:expr, $soap:expr, $bin:expr, |$c:ident| $call:expr) => {{
        let title: String = $title;
        let soap_result = {
            let $c = &mut $soap.client;
            $call
        };
        let bin_result = {
            let $c = &mut $bin.client;
            $call
        };
        assert_eq!(soap_result, bin_result, "{title}: the two wires decode different results");
        let (s_up, s_down) = $soap.tap.take();
        let (b_up, b_down) = $bin.tap.take();
        $out.push_str(&format!(
            "# {title}\nbin> {}\nbin< {}\nsoap> {}\nsoap< {}\n= {}\n",
            hex(&b_up),
            hex(&b_down),
            http(&s_up),
            http(&s_down),
            soap_result
        ));
    }};
}

fn recording() -> String {
    let mut out = String::new();
    let (mut soap, mut bin) = (soap_rig(1), bin_rig(1));
    setup!(soap.client);
    setup!(bin.client);
    soap.tap.take();
    bin.tap.take();

    let ops: Vec<Op> = (0..=u8::MAX).filter_map(Op::from_u8).collect();
    for &op in &ops {
        assert_eq!(Op::from_u8(op as u8), Some(op));
        record!(out, op.name().to_string(), soap, bin, |c| corpus_call!(*c, op));
    }

    // A fault on each wire.
    record!(out, "fault: getFile of a missing file".into(), soap, bin, |c| format!(
        "{:?}",
        c.get_file("g-missing.dat")
    ));
    record!(out, "fault: createFile of an existing file".into(), soap, bin, |c| format!(
        "{:?}",
        c.create_file(&FileSpec::named("g-seed.dat"))
    ));

    // Per-request durability and cache bypass.
    for (mode, bypass) in [(Some(DurabilityMode::Async), true), (Some(DurabilityMode::Group), false)]
    {
        soap.client.set_durability(mode);
        soap.client.set_cache_bypass(bypass);
        bin.client.set_durability(mode);
        bin.client.set_cache_bypass(bypass);
        let name = format!("g-flags-{mode:?}.dat");
        record!(out, format!("flags {mode:?} bypass={bypass}: createFile"), soap, bin, |c| {
            let r = c.create_file(&FileSpec::named(name.as_str()).attr("run", 9i64));
            format!("{r:?} echo=({}, {})", c.last_epoch(), c.last_shard())
        });
        record!(out, format!("flags {mode:?} bypass={bypass}: getFile"), soap, bin, |c| {
            format!("{:?}", c.get_file(&name))
        });
    }
    soap.client.set_durability(None);
    soap.client.set_cache_bypass(false);
    bin.client.set_durability(None);
    bin.client.set_cache_bypass(false);
    record!(out, "flags cleared: getFile".into(), soap, bin, |c| format!(
        "{:?} echo=({}, {})",
        c.get_file("g-seed.dat"),
        c.last_epoch(),
        c.last_shard()
    ));

    // Epoch and shard echo against a two-shard catalog.
    let (mut soap, mut bin) = (soap_rig(2), bin_rig(2));
    soap.client.ping().unwrap();
    bin.client.ping().unwrap();
    soap.tap.take();
    bin.tap.take();
    for name in ["g-shard-a.dat", "g-shard-b.dat", "g-shard-c.dat"] {
        record!(out, format!("2 shards: createFile {name}"), soap, bin, |c| {
            let r = c.create_file(&FileSpec::named(name));
            format!("{r:?} echo=({}, {})", c.last_epoch(), c.last_shard())
        });
        record!(out, format!("2 shards: waitForEpoch after {name}"), soap, bin, |c| {
            let (shard, epoch) = (c.last_shard(), c.last_epoch());
            format!("{:?}", c.wait_for_epoch_on(shard, epoch))
        });
    }
    record!(out, "2 shards: syncNow".into(), soap, bin, |c| format!("{:?}", c.sync_now()));
    record!(out, "2 shards: cacheStats".into(), soap, bin, |c| format!("{:?}", c.cache_stats()));
    record!(out, "2 shards: catalogInfo".into(), soap, bin, |c| format!(
        "{:?}",
        c.catalog_info().map(|i| (i.shards, i.profile, i.files, i.cache_enabled))
    ));
    record!(out, "2 shards: fault: waitForEpoch on a shard out of range".into(), soap, bin, |c| {
        format!("{:?}", c.wait_for_epoch_on(5, 1))
    });
    out
}

#[test]
fn both_wires_match_the_golden_corpus() {
    let actual = recording();
    for tag in ["soap1", "bin1", "soap2", "bin2"] {
        let _ = std::fs::remove_dir_all(store_dir(tag));
    }
    if actual == FIXTURE {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire_golden.actual.txt");
    std::fs::write(&dump, &actual).unwrap();
    let (want, got): (Vec<&str>, Vec<&str>) =
        (FIXTURE.split("\n# ").collect(), actual.split("\n# ").collect());
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(g, w, "wire recording differs from the fixture (full recording: {dump:?})");
    }
    panic!(
        "the recording has {} records, the fixture {} (full recording: {dump:?})",
        got.len(),
        want.len()
    );
}
