//! Pipelining stress: 8 concurrent clients, each keeping a window of
//! pipelined requests in flight on one persistent connection against a
//! 4-shard catalog, 200 requests per client, mixed reads and writes.
//!
//! The assertions are the pipelining contract:
//! * responses come back strictly in send order per connection (every
//!   `recv_*` checks the payload matches what that queue slot asked for,
//!   and the client itself faults on any tag mismatch);
//! * no commit is lost or duplicated — the multiset of epoch echoes
//!   collected across all clients is exactly the dense range the
//!   per-shard commit counters advanced through, and every written row
//!   is readable afterwards;
//! * each client held exactly one TCP connection for all its traffic.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mcs::{
    AttrType, Attribute, Credential, FileSpec, IndexProfile, ManualClock, ObjectRef,
    ShardedCatalog,
};
use mcs_net::{BinMcsClient, BinServer};
use relstore::Value;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 200;
const WINDOW: usize = 25;

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

/// What each queue slot of a pipelined window expects back.
enum Expect {
    File(String),
    Ok,
}

#[test]
fn pipelined_clients_stress() {
    let catalog = Arc::new(
        ShardedCatalog::in_memory(
            4,
            &admin(),
            IndexProfile::Paper2003,
            Arc::new(ManualClock::default()),
            None,
            false,
        )
        .unwrap(),
    );
    let server = BinServer::start_sharded(Arc::clone(&catalog), "127.0.0.1:0", CLIENTS).unwrap();
    let addr = server.addr().to_string();

    // Schema setup through its own connection, *before* the commit
    // counters are snapshotted: during the stress phase only the
    // workers' writes commit, so the epoch echoes they collect must
    // tile the counters' advance exactly.
    let mut setup = BinMcsClient::connect(addr.clone(), admin());
    setup.define_attribute("run", AttrType::Int, "").unwrap();
    let base: Vec<u64> = catalog.commit_epochs();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = BinMcsClient::connect(addr, admin());
                // (shard, epoch) echo of every committing response.
                let mut commits: Vec<(usize, u64)> = Vec::new();
                // Names created in completed windows — safe to read.
                let mut created: Vec<String> = Vec::new();
                let mut issued = 0usize;
                let mut serial = 0usize;
                while issued < REQUESTS_PER_CLIENT {
                    let window = WINDOW.min(REQUESTS_PER_CLIENT - issued);
                    let mut expects = Vec::with_capacity(window);
                    for j in 0..window {
                        match j % 4 {
                            // A write: unique name per client, so every
                            // create must succeed.
                            0 | 2 => {
                                let name = format!("t{t}-{serial:03}.dat");
                                serial += 1;
                                let spec =
                                    FileSpec::named(&name).attr("run", (t * 1000 + serial) as i64);
                                c.send_create_file(&spec).unwrap();
                                expects.push(Expect::File(name.clone()));
                                created.push(name);
                            }
                            // A read of an already-acknowledged file.
                            1 => {
                                let name = created[(issued + j) % created.len()].clone();
                                c.send_get_file(&name).unwrap();
                                expects.push(Expect::File(name));
                            }
                            // Another write shape: attribute upsert on an
                            // acknowledged file.
                            _ => {
                                let name = created[(issued + j) % created.len()].clone();
                                c.send_set_attribute(
                                    &ObjectRef::File(name),
                                    &Attribute {
                                        name: "run".into(),
                                        value: Value::Int(j as i64),
                                    },
                                )
                                .unwrap();
                                expects.push(Expect::Ok);
                            }
                        }
                    }
                    assert_eq!(c.inflight(), window);
                    // Drain in order; every payload must be the one this
                    // slot asked for.
                    for e in expects {
                        match e {
                            Expect::File(name) => {
                                let f = c.recv_file().unwrap_or_else(|err| {
                                    panic!("client {t}: lost response for {name}: {err}")
                                });
                                assert_eq!(f.name, name, "client {t}: out-of-order response");
                            }
                            Expect::Ok => c.recv_ok().unwrap(),
                        }
                        if c.last_epoch() > 0 {
                            commits.push((c.last_shard(), c.last_epoch()));
                        }
                    }
                    assert_eq!(c.inflight(), 0);
                    issued += window;
                }
                commits
            })
        })
        .collect();

    let mut all_commits: Vec<(usize, u64)> = Vec::new();
    for w in workers {
        all_commits.extend(w.join().expect("worker panicked"));
    }

    // No lost or duplicated commits: per shard, the epoch echoes
    // collected across every client are exactly the dense range
    // (base, final] the shard's commit counter advanced through.
    let fin: Vec<u64> = catalog.commit_epochs();
    for k in 0..catalog.shards() {
        let mut epochs: Vec<u64> =
            all_commits.iter().filter(|(s, _)| *s == k).map(|&(_, e)| e).collect();
        epochs.sort_unstable();
        let expected: Vec<u64> = (base[k] + 1..=fin[k]).collect();
        assert_eq!(
            epochs, expected,
            "shard {k}: epoch echoes must tile ({}, {}] densely",
            base[k], fin[k]
        );
    }

    // Every written row survived the concurrency: one file per create,
    // all readable with the last-written attribute present.
    let mut check = BinMcsClient::connect(addr, admin());
    let info = check.catalog_info().unwrap();
    // Replays the window loop: slot j of each window creates iff j % 4
    // is 0 or 2.
    let mut creates_per_client = 0;
    let mut issued = 0;
    while issued < REQUESTS_PER_CLIENT {
        let window = WINDOW.min(REQUESTS_PER_CLIENT - issued);
        creates_per_client += (0..window).filter(|j| j % 4 == 0 || j % 4 == 2).count();
        issued += window;
    }
    assert_eq!(info.files, (CLIENTS * creates_per_client) as u64);
    for t in 0..CLIENTS {
        let f = check.get_file(&format!("t{t}-000.dat")).unwrap();
        assert!(f.valid);
        let attrs = check.get_attributes(&ObjectRef::File(f.name)).unwrap();
        assert_eq!(attrs.len(), 1);
    }

    // One TCP connection per pipelined client (plus setup and the final
    // checker): persistent connections are the whole game.
    assert_eq!(server.stats().connections.load(Ordering::Relaxed), CLIENTS as u64 + 2);
    let expected_requests = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert!(
        server.stats().requests.load(Ordering::Relaxed) >= expected_requests,
        "server served fewer requests than the clients sent"
    );
}
