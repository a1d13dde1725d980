//! End-to-end tests for the per-request durability header and the epoch
//! ack protocol (DESIGN.md §7.2): a client asks for `async` commits on a
//! durable server, reads the echoed `mcs:epoch`, and barriers with
//! `waitForEpoch` / `syncNow` over real loopback SOAP.

use std::sync::Arc;

use mcs::{Credential, FileSpec, IndexProfile, ManualClock, Mcs, StoreConfig};
use mcs_net::{DurabilityMode, McsClient, McsServer};

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcs-net-async-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn start_durable_server(dir: &std::path::Path) -> (McsServer, Arc<Mcs>) {
    let a = admin();
    let clock = Arc::new(ManualClock::default());
    let m = Arc::new(
        Mcs::open_durable(dir, &a, IndexProfile::Paper2003, clock, StoreConfig::default())
            .unwrap(),
    );
    let server = McsServer::start(Arc::clone(&m), "127.0.0.1:0", 4).unwrap();
    (server, m)
}

#[test]
fn async_header_epoch_echo_and_barriers() {
    let dir = tmpdir("echo");
    {
        let (server, m) = start_durable_server(&dir);
        let mut c = McsClient::connect(server.addr().to_string(), admin());

        // Writes without the header still echo the epoch they logged.
        c.create_file(&FileSpec::named("always.dat")).unwrap();
        let e_always = c.last_epoch();
        assert!(e_always > 0, "durable write must echo an epoch");

        // Async header: ack carries a fresh (larger) epoch, and the
        // server-side watermark may lag it until we barrier.
        c.set_durability(Some(DurabilityMode::Async));
        c.create_file(&FileSpec::named("weak-1.dat")).unwrap();
        let e1 = c.last_epoch();
        c.create_file(&FileSpec::named("weak-2.dat")).unwrap();
        let e2 = c.last_epoch();
        assert!(e1 > e_always && e2 > e1, "epochs must increase: {e_always}, {e1}, {e2}");

        // waitForEpoch turns the weak ack into a durable one.
        let watermark = c.wait_for_epoch(e2).unwrap();
        assert!(watermark >= e2);
        assert!(m.durable_epoch() >= e2);

        // syncNow is the bulk-load final barrier.
        c.create_file(&FileSpec::named("weak-3.dat")).unwrap();
        let e3 = c.last_epoch();
        let covered = c.sync_now().unwrap();
        assert!(covered >= e3);
        assert!(m.durable_epoch() >= e3);

        // Reads don't log, so they echo no epoch.
        c.get_file("weak-3.dat").unwrap();
        assert_eq!(c.last_epoch(), 0);

        // waiting for a never-allocated epoch must fail, not hang
        let far = m.commit_epoch() + 1_000;
        assert!(c.wait_for_epoch(far).is_err());
    } // server drops; everything barriered must be on disk

    let (server, _m) = start_durable_server(&dir);
    let mut c = McsClient::connect(server.addr().to_string(), admin());
    for name in ["always.dat", "weak-1.dat", "weak-2.dat", "weak-3.dat"] {
        c.get_file(name)
            .unwrap_or_else(|e| panic!("{name} lost after restart despite barrier: {e}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_durability_mode_is_a_client_fault() {
    let dir = tmpdir("badmode");
    let (server, _m) = start_durable_server(&dir);
    // Hand-rolled call: the typed client can't send an invalid mode.
    let mut soap = soapstack::SoapClient::new(server.addr().to_string(), "/mcs");
    let admin = admin();
    let args = soapstack::Element::new("a")
        .attr("mcs:durability", "bogus")
        .child(mcs_net::wire::credential_el(&admin));
    match soap.call("ping", args) {
        Err(soapstack::SoapError::Fault(f)) => {
            assert!(f.code.contains("BadArguments"), "fault code: {}", f.code);
        }
        other => panic!("expected a BadArguments fault, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
