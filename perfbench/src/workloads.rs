//! The three workloads: their catalogs, set-up and operation streams.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use mcs::{CacheConfig, Credential, IndexProfile, ManualClock, Mcs, StoreConfig};
use mcs_net::{BinMcsClient, BinServer, McsClient, McsServer};
use soapstack::client::TransportOpts;
use workload::spec;

use crate::measure::Runner;
use crate::ops::{self, eq_query, like_query, range_query, Op, Target};
use crate::stats::{rss_bytes, Rng};

/// Files in the in-memory catalog of lookup-hot and discover-cold. Each
/// run loads it three times, which at 100 000 files took 8–10 s per load
/// and would not fit the run budget.
pub const CATALOG_FILES: u64 = 50_000;
/// Files lookup-hot draws from; with their query results they fit the
/// default 4 096-entry read cache.
pub const HOT_FILES: usize = 1_500;
/// Files publish-soap loads before measuring, and its batch size.
pub const PRELOAD_FILES: u64 = 50_000;
pub const PRELOAD_BATCH: u64 = 500;
/// Indices of files created while measuring start here, far above any
/// loaded file; each phase of a run uses its own block.
pub const WRITE_BASE: u64 = 10_000_000;
pub const WRITE_BLOCK: u64 = 1_000_000;

/// Purposes of the independent random streams drawn from one seed.
pub const HOT_SET: u64 = 1;
pub const PREWARM: u64 = 2;
pub const MEASURE: u64 = 3;
pub const ORACLE: u64 = 4;
pub const COUNTERS: u64 = 5;
pub const SAMPLE: u64 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LookupHot,
    DiscoverCold,
    PublishSoap,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "lookup-hot" => Some(Kind::LookupHot),
            "discover-cold" => Some(Kind::DiscoverCold),
            "publish-soap" => Some(Kind::PublishSoap),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::LookupHot => "lookup-hot",
            Kind::DiscoverCold => "discover-cold",
            Kind::PublishSoap => "publish-soap",
        }
    }

    /// The workload sends only reads while measuring; its write
    /// latencies come from a separate create/delete probe.
    pub fn read_only(self) -> bool {
        self != Kind::PublishSoap
    }
}

/// The catalog id of file `i`'s collection in a bulk-loaded catalog.
fn coll_id(i: u64) -> Option<i64> {
    Some(spec::collection_of(i) as i64 + 1)
}

/// A workload's operation stream.
pub struct Stream {
    kind: Kind,
    rng: Rng,
    hot: Arc<Vec<u64>>,
    n: u64,
    queue: VecDeque<Op>,
    next_pub: u64,
    cycle: u64,
    recent: VecDeque<u64>,
}

impl Stream {
    /// `write_base` is the first index this stream publishes.
    pub fn new(env: &Env, rng: Rng, write_base: u64) -> Stream {
        Stream {
            kind: env.kind,
            rng,
            hot: Arc::clone(&env.hot),
            n: env.n,
            queue: VecDeque::new(),
            next_pub: write_base,
            cycle: 0,
            recent: VecDeque::new(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        if let Some(op) = self.queue.pop_front() {
            return op;
        }
        let r = &mut self.rng;
        match self.kind {
            Kind::LookupHot => {
                let i = self.hot[r.below(self.hot.len() as u64) as usize];
                if r.below(10) < 8 {
                    Op::Get {
                        i,
                        coll: coll_id(i),
                    }
                } else {
                    eq_query(i, 3)
                }
            }
            Kind::DiscoverCold => {
                let i = r.below(self.n);
                let (coll, seq) = (i / 1000, i % 1000);
                match r.below(20) {
                    0..=13 => eq_query(i, r.range(3, 10) as usize),
                    14..=16 => {
                        let width = r.below(50);
                        let lo = seq.saturating_sub(r.range(0, width));
                        range_query(coll, lo, (lo + width).min(999))
                    }
                    _ => like_query(coll, (i % 50) / 10, r.range(0, seq)),
                }
            }
            Kind::PublishSoap => {
                // One cycle: publish a file, read it back, read two
                // loaded files; every 4th cycle also deletes the file
                // published two cycles earlier.
                let j = self.next_pub;
                self.next_pub += 1;
                let (a, b) = (r.below(PRELOAD_FILES), r.below(PRELOAD_FILES));
                self.queue.extend([
                    Op::Get { i: j, coll: None },
                    Op::Get { i: a, coll: None },
                    Op::Get { i: b, coll: None },
                ]);
                if self.cycle % 4 == 3 && self.recent.len() >= 2 {
                    let old = self.recent[self.recent.len() - 2];
                    self.queue.push_back(Op::Delete { i: old });
                }
                self.recent.push_back(j);
                if self.recent.len() > 4 {
                    self.recent.pop_front();
                }
                self.cycle += 1;
                Op::Create { i: j }
            }
        }
    }

    /// The next `count` operations.
    pub fn take(&mut self, count: usize) -> Vec<Op> {
        (0..count).map(|_| self.next_op()).collect()
    }
}

/// The write probe of the read-only workloads: `cycles` creates of fresh
/// files from index `base`, every 4th cycle also deleting the file
/// created two cycles earlier, as publish-soap does; then the untimed
/// deletes that remove the rest, so no later query sees them. Creates
/// and deletes cost differently, and a 1:1 mix would put the median
/// between the two.
pub fn write_probe(base: u64, cycles: u64) -> (Vec<Op>, Vec<Op>) {
    let mut timed = Vec::new();
    for c in 0..cycles {
        timed.push(Op::Create { i: base + c });
        if c % 4 == 3 {
            timed.push(Op::Delete { i: base + c - 2 });
        }
    }
    let cleanup = (0..cycles)
        .filter(|c| c % 4 != 1 || c + 2 >= cycles)
        .map(|c| Op::Delete { i: base + c })
        .collect();
    (timed, cleanup)
}

/// A set-up workload: its catalog, its server and where it keeps state.
pub struct Env {
    pub kind: Kind,
    pub mcs: Arc<Mcs>,
    /// Bulk-loaded files the queries range over.
    pub n: u64,
    pub hot: Arc<Vec<u64>>,
    pub bin: Option<BinServer>,
    pub soap: Option<McsServer>,
    /// The durable store, for publish-soap.
    pub dir: Option<PathBuf>,
    /// Time spent loading files, and the resident-set growth across it.
    pub load_s: f64,
    pub load_bytes: f64,
}

pub fn cred() -> Credential {
    workload::driver_credential(0, 0)
}

pub fn admin() -> Credential {
    Credential::new(workload::ADMIN_DN)
}

/// The store configuration every durable open uses: the default commit
/// policy (each commit logged as one group before it is acknowledged)
/// with the OS flushing the log, plus the read cache at its default
/// size. With one fsync per commit on a shared virtual disk the figures
/// spread far beyond any usable bound; see the README.
pub fn store_config() -> StoreConfig {
    StoreConfig {
        sync: mcs::SyncPolicy::OsBuffered,
        ..StoreConfig::default()
    }
    .with_cache(CacheConfig::default())
}

pub fn open_store(dir: &Path) -> mcs::Result<Mcs> {
    Mcs::open_durable(
        dir,
        &admin(),
        IndexProfile::ValueIndexed,
        Arc::new(ManualClock::default()),
        store_config(),
    )
}

impl Env {
    pub fn bin_client(&self) -> BinMcsClient {
        let addr = self.bin.as_ref().expect("binary server running").addr();
        BinMcsClient::connect(addr.to_string(), cred())
    }

    pub fn soap_client(&self) -> McsClient {
        let addr = self.soap.as_ref().expect("SOAP server running").addr();
        let opts = TransportOpts {
            keep_alive: true,
            ..TransportOpts::default()
        };
        McsClient::with_opts(addr.to_string(), cred(), opts)
    }

    /// The workload's own client: one binary connection, or one SOAP
    /// keep-alive connection for publish-soap.
    pub fn client(&self) -> Box<dyn Target> {
        match self.kind {
            Kind::PublishSoap => Box::new(self.soap_client()),
            _ => Box::new(self.bin_client()),
        }
    }

    /// Start whichever wire front end is not running yet.
    pub fn start_both_servers(&mut self) {
        if self.bin.is_none() {
            self.bin =
                Some(BinServer::start(Arc::clone(&self.mcs), "127.0.0.1:0", 1).expect("bind"));
        }
        if self.soap.is_none() {
            self.soap =
                Some(McsServer::start(Arc::clone(&self.mcs), "127.0.0.1:0", 1).expect("bind"));
        }
    }

    /// Stop the servers, drop the catalog and return the store directory.
    pub fn shut_down(self) -> Option<PathBuf> {
        let Env {
            mut bin,
            mut soap,
            mcs,
            dir,
            ..
        } = self;
        if let Some(s) = bin.as_mut() {
            s.stop();
        }
        if let Some(s) = soap.as_mut() {
            s.stop();
        }
        drop((bin, soap, mcs));
        dir
    }
}

/// The distinct hot files of lookup-hot, drawn uniformly.
fn hot_set(seed: u64) -> Vec<u64> {
    let mut rng = Rng::stream(seed, HOT_SET);
    let mut seen = std::collections::HashSet::new();
    let mut hot = Vec::with_capacity(HOT_FILES);
    while hot.len() < HOT_FILES {
        let i = rng.below(CATALOG_FILES);
        if seen.insert(i) {
            hot.push(i);
        }
    }
    hot
}

/// Build the workload's catalog and server, connect its client and
/// prewarm. Every prewarm answer is checked through `runner`.
pub fn setup(
    kind: Kind,
    seed: u64,
    work: &Path,
    tag: usize,
    runner: &mut Runner,
) -> (Env, Box<dyn Target>) {
    let rss0 = rss_bytes();
    let t = Instant::now();
    let mut env = match kind {
        Kind::LookupHot | Kind::DiscoverCold => {
            let built = workload::build_catalog_with(
                CATALOG_FILES,
                IndexProfile::ValueIndexed,
                Some(CacheConfig::default()),
            );
            Env {
                kind,
                mcs: built.mcs,
                n: CATALOG_FILES,
                hot: Arc::new(if kind == Kind::LookupHot {
                    hot_set(seed)
                } else {
                    Vec::new()
                }),
                bin: None,
                soap: None,
                dir: None,
                load_s: 0.0,
                load_bytes: 0.0,
            }
        }
        Kind::PublishSoap => {
            let dir = work.join(format!("store-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            eprintln!("publish-soap store: {}", dir.display());
            let mcs = open_store(&dir).expect("open durable store");
            let admin = admin();
            mcs.allow_anyone(&admin).expect("open service");
            for (a, name) in spec::ATTR_NAMES.iter().enumerate() {
                mcs.define_attribute(
                    &admin,
                    name,
                    spec::ATTR_TYPES[a],
                    "evaluation workload attribute",
                )
                .expect("define attribute");
            }
            for b in 0..PRELOAD_FILES / PRELOAD_BATCH {
                let specs: Vec<_> = (b * PRELOAD_BATCH..(b + 1) * PRELOAD_BATCH)
                    .map(ops::file_spec)
                    .collect();
                mcs.create_files(&admin, &specs).expect("preload");
            }
            Env {
                kind,
                mcs: Arc::new(mcs),
                n: PRELOAD_FILES,
                hot: Arc::new(Vec::new()),
                bin: None,
                soap: None,
                dir: Some(dir),
                load_s: 0.0,
                load_bytes: 0.0,
            }
        }
    };
    env.load_s = t.elapsed().as_secs_f64();
    env.load_bytes = rss_bytes().saturating_sub(rss0) as f64;
    if kind == Kind::DiscoverCold {
        let db = env.mcs.database();
        db.analyze_table("user_attributes").expect("analyze");
        db.analyze_table("logical_files").expect("analyze");
    }
    match kind {
        Kind::PublishSoap => {
            env.soap = Some(McsServer::start(Arc::clone(&env.mcs), "127.0.0.1:0", 1).expect("bind"))
        }
        _ => {
            env.bin = Some(BinServer::start(Arc::clone(&env.mcs), "127.0.0.1:0", 1).expect("bind"))
        }
    }
    let mut client = env.client();
    let prewarm: Vec<Op> = match kind {
        Kind::LookupHot => env
            .hot
            .iter()
            .flat_map(|&i| {
                [
                    Op::Get {
                        i,
                        coll: coll_id(i),
                    },
                    eq_query(i, 3),
                ]
            })
            .collect(),
        Kind::DiscoverCold => Stream::new(&env, Rng::stream(seed, PREWARM), 0).take(300),
        Kind::PublishSoap => {
            let mut r = Rng::stream(seed, PREWARM);
            (0..1000)
                .map(|_| Op::Get {
                    i: r.below(PRELOAD_FILES),
                    coll: None,
                })
                .collect()
        }
    };
    for op in &prewarm {
        runner.exec(client.as_mut(), op, env.n);
    }
    (env, client)
}
