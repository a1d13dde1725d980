//! The twin harness (DESIGN.md §7.8): every configuration of the catalog
//! must answer exactly like the plain one. One seeded stream of catalog
//! calls, drawn from the op table, runs against a **reference** — one
//! shard, the barrier engine, no cache, `Paper2003`, every call under
//! the planner bypass (the posting-scan oracle) — and against every
//! **subject** configuration in [`configs`]: in process through
//! `dispatch::serve`, and for some configurations also over SOAP and the
//! binary wire. After every step the normalised results must agree; at
//! the end every pooled object is swept and each configuration's own
//! non-vacuity checks run.
//!
//! The configurations are split into five suites, one test file each:
//! `shard_twin`, `mvcc_twin`, `cache_consistency`, `planner_twin` and
//! `wire_twin`. Each file calls [`run`] with its own name; every suite
//! runs the same stream against the same reference.
//!
//! Each seed's stream runs on one thread, so a seed replays exactly.
//! Replay a failure with
//! `MCS_SEED=<seed> cargo test -p mcs-net --test <suite> -- --nocapture`.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcs::{
    AttrOp, AttrPredicate, AttrType, Attribute, CacheConfig, Credential, ExternalCatalog, FileSpec,
    FileUpdate, IndexProfile, ManualClock, ObjectRef, ObjectType, OpCtx, Permission, QueryExpr,
    ShardedCatalog, StaticPredicate, StoreConfig, UserRecord, ANYONE,
};
use mcs_net::client::Wire;
use mcs_net::dispatch::{fault_of, serve, Answer, CallScope};
use mcs_net::ops::{Call, Op};
use mcs_net::{
    BinMcsClient, BinServer, Client, DurabilityMode, FaultKind, McsClient, McsServer, NetError,
};
use relstore::Value;
use soapstack::{Fault, SoapError, TransportOpts};
use testkit::{seeds, Rng};

const STEPS: usize = 400;
/// Every `ROUND_ROBIN`-th step takes the next op of `Op::ALL`, so each
/// seed runs every op: 400 / 5 = 80 such steps cover all 44.
const ROUND_ROBIN: usize = 5;
const FILES: u64 = 16;
const ATTRS: [(&str, AttrType); 3] =
    [("run", AttrType::Int), ("site", AttrType::Str), ("quality", AttrType::Float)];
const USER: &str = "/O=Grid/CN=user";

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

// ---------- the generator: small name pools, so collisions are common ----------

fn file(rng: &mut Rng) -> String {
    format!("f{:02}.dat", rng.below(FILES))
}

fn coll(rng: &mut Rng) -> String {
    format!("c{}", rng.below(3))
}

fn view(rng: &mut Rng) -> String {
    format!("v{}", rng.below(2))
}

fn object(rng: &mut Rng) -> ObjectRef {
    match rng.below(10) {
        0..=4 => ObjectRef::File(file(rng)),
        5 => ObjectRef::FileVersion(file(rng), 1 + rng.below(2) as i64),
        6 | 7 => ObjectRef::Collection(coll(rng)),
        8 => ObjectRef::View(view(rng)),
        _ => ObjectRef::Service,
    }
}

fn value(rng: &mut Rng, ty: AttrType) -> Value {
    match ty {
        AttrType::Int => Value::Int(rng.below(6) as i64),
        AttrType::Str => Value::from(format!("s{}", rng.below(5)).as_str()),
        _ => Value::Float(rng.below(5) as f64 / 2.0),
    }
}

/// A comparison literal for an attribute of type `ty`: now and then an
/// Int against the Float attribute, which compares as a float.
fn literal(rng: &mut Rng, ty: AttrType) -> Value {
    match ty {
        AttrType::Float if rng.one_in(3) => Value::Int(rng.below(3) as i64),
        _ => value(rng, ty),
    }
}

/// A well-formed predicate on a defined attribute; LIKE patterns (on the
/// string attribute) cover the planner's prefix-range and posting paths.
fn pred(rng: &mut Rng) -> AttrPredicate {
    let (name, ty) = *rng.pick(&ATTRS);
    if ty == AttrType::Str && rng.one_in(4) {
        let pat = *rng.pick(&["s%", "s1%", "%1", "s_", "s2", "_%"]);
        return AttrPredicate { name: name.into(), op: AttrOp::Like, value: pat.into() };
    }
    let op = *rng.pick(&[AttrOp::Eq, AttrOp::Ne, AttrOp::Le, AttrOp::Ge, AttrOp::Lt, AttrOp::Gt]);
    AttrPredicate { name: name.into(), op, value: literal(rng, ty) }
}

/// One to four predicates, and now and then a `>=`/`<` pair on one
/// attribute, so the planner folds bounds, crossed ones included.
fn preds(rng: &mut Rng) -> Vec<AttrPredicate> {
    let mut preds: Vec<AttrPredicate> = (0..1 + rng.below(4)).map(|_| pred(rng)).collect();
    if rng.one_in(4) {
        let (name, ty) = *rng.pick(&ATTRS);
        for op in [AttrOp::Ge, AttrOp::Lt] {
            preds.push(AttrPredicate { name: name.into(), op, value: literal(rng, ty) });
        }
    }
    preds
}

/// perfbench's LIKE shape in miniature: a LIKE on `site`, a range on
/// `quality`, and `run` = one value. A `createFiles` batch gives its
/// files one `run` value and one collection ([`batch`]), so this
/// conjunction is often seeded by one collection's consecutive files,
/// and its other steps walk only their id span.
fn like_shape(rng: &mut Rng) -> Vec<AttrPredicate> {
    let pat = *rng.pick(&["s%", "s_", "s1%"]);
    let quality = literal(rng, AttrType::Float);
    vec![
        AttrPredicate { name: "site".into(), op: AttrOp::Like, value: pat.into() },
        AttrPredicate { name: "quality".into(), op: AttrOp::Ge, value: quality },
        AttrPredicate { name: "run".into(), op: AttrOp::Eq, value: value(rng, AttrType::Int) },
    ]
}

/// An attribute value to store: usually type-correct, now and then on
/// an undefined attribute or of the wrong type.
fn attr(rng: &mut Rng) -> Attribute {
    let (name, ty) = *rng.pick(&ATTRS);
    match rng.below(32) {
        0 => Attribute { name: "bogus".into(), value: Value::Int(1) },
        1 => Attribute { name: name.into(), value: Value::Bool(true) },
        _ => Attribute { name: name.into(), value: value(rng, ty) },
    }
}

/// A file to create: each defined attribute half the time, and now and
/// then one more that may be undefined, mistyped or a duplicate.
fn spec(rng: &mut Rng) -> FileSpec {
    let mut spec = FileSpec::named(file(rng));
    for (name, ty) in ATTRS {
        if rng.one_in(2) {
            spec = spec.attr(name, value(rng, ty));
        }
    }
    if rng.one_in(8) {
        spec.attributes.push(attr(rng));
    }
    spec.version = rng.one_in(5).then(|| 1 + rng.below(2) as i64);
    spec.collection = rng.one_in(4).then(|| coll(rng));
    spec.data_type = rng.one_in(3).then(|| format!("t{}", rng.below(3)));
    spec.master_copy = rng.one_in(4).then(|| "gsiftp://h/x".to_string());
    spec.container_id = rng.one_in(4).then(|| format!("k{}", rng.below(2)));
    spec.container_service = rng.one_in(4).then(|| "srv".to_string());
    spec.audit = rng.one_in(4);
    spec
}

/// A `createFiles` batch: one to four files, created with consecutive
/// ids. Most batches are one collection's files sharing one `run` value,
/// the layout [`like_shape`] queries seed on.
fn batch(rng: &mut Rng) -> Vec<FileSpec> {
    let mut specs: Vec<FileSpec> = (0..1 + rng.below(4)).map(|_| spec(rng)).collect();
    if !rng.one_in(4) {
        let (collection, run) = (coll(rng), value(rng, AttrType::Int));
        for spec in &mut specs {
            spec.collection = Some(collection.clone());
            spec.attributes.retain(|a| a.name != "run");
            spec.attributes.push(Attribute { name: "run".into(), value: run.clone() });
        }
    }
    specs
}

fn update(rng: &mut Rng) -> FileUpdate {
    FileUpdate {
        data_type: rng.one_in(2).then(|| format!("t{}", rng.below(3))),
        valid: rng.one_in(2).then(|| !rng.one_in(3)),
        master_copy: rng.one_in(3).then(|| format!("gsiftp://h/{}", rng.below(2))),
        container_id: rng.one_in(4).then(|| "k1".to_string()),
        container_service: rng.one_in(4).then(|| "srv".to_string()),
    }
}

/// A random boolean tree over defined attributes and static predicates:
/// `And`/`Or` two levels deep, `Not` over any subtree, and static leaves
/// at any position, so the stream holds `And`s of only `Not`s (the one
/// complement), `Not`s of static predicates and `Not`s of `Or`s.
fn expr(rng: &mut Rng, depth: u64) -> QueryExpr {
    match rng.below(if depth == 0 { 4 } else { 8 }) {
        0..=2 if depth < 2 => {
            let subs = (0..2 + rng.below(2)).map(|_| expr(rng, depth + 1)).collect();
            if rng.one_in(2) {
                QueryExpr::And(subs)
            } else {
                QueryExpr::Or(subs)
            }
        }
        3..=5 if depth < 3 => QueryExpr::Not(Box::new(expr(rng, depth + 1))),
        6 => QueryExpr::Static(match rng.below(4) {
            0 => StaticPredicate::InCollection(format!("c{}", rng.below(2))),
            1 => StaticPredicate::DataTypeIs(format!("t{}", rng.below(3))),
            2 => StaticPredicate::ValidIs(!rng.one_in(3)),
            _ => StaticPredicate::NameLike(format!("f0{}%", rng.below(2))),
        }),
        _ => QueryExpr::Attr(pred(rng)),
    }
}

/// Draw the arguments of `op` and hand the call to `k`. Exhaustive on
/// [`Op`]: an op added to the table without an arm here does not compile.
fn with_call<T>(rng: &mut Rng, op: Op, k: impl FnOnce(Call<'_>) -> T) -> T {
    let (f, c, v, o) = (file(rng), coll(rng), view(rng), object(rng));
    let text = format!("note {}", rng.below(4));
    let version = 1 + rng.below(2) as i64;
    let principal = *rng.pick(&[USER, USER, ANYONE, "/O=Grid/CN=other"]);
    let perm =
        *rng.pick(&[Permission::Read, Permission::Write, Permission::Delete, Permission::Admin]);
    let dn = *rng.pick(&[USER, "/O=Grid/CN=other"]);
    match op {
        Op::Ping => k(Call::Ping {}),
        Op::CatalogInfo => k(Call::CatalogInfo {}),
        Op::WaitForEpoch => {
            k(Call::WaitForEpoch { epoch: rng.below(40), shard: rng.below(5) as usize })
        }
        Op::SyncNow => k(Call::SyncNow {}),
        Op::CacheStats => k(Call::CacheStats {}),
        Op::CreateFile => k(Call::CreateFile { spec: &spec(rng) }),
        Op::CreateFiles => k(Call::CreateFiles { specs: &batch(rng) }),
        Op::GetFile => k(Call::GetFile { name: &f }),
        Op::GetFileVersion => k(Call::GetFileVersion { name: &f, version }),
        Op::GetFileVersions => k(Call::GetFileVersions { name: &f }),
        Op::UpdateFile => k(Call::UpdateFile { name: &f, update: &update(rng) }),
        Op::InvalidateFile => k(Call::InvalidateFile { name: &f }),
        Op::DeleteFile => k(Call::DeleteFile { name: &f }),
        Op::DeleteFileVersion => k(Call::DeleteFileVersion { name: &f, version }),
        Op::CreateCollection => {
            let parent = rng.one_in(3).then(|| coll(rng));
            let description = if rng.one_in(2) { "" } else { "d" };
            k(Call::CreateCollection { name: &c, parent: parent.as_deref(), description })
        }
        Op::GetCollection => k(Call::GetCollection { name: &c }),
        Op::DeleteCollection => k(Call::DeleteCollection { name: &c }),
        Op::ListCollection => k(Call::ListCollection { name: &c }),
        Op::AssignCollection => {
            let collection = (!rng.one_in(3)).then_some(c.as_str());
            k(Call::AssignCollection { file: &f, collection })
        }
        Op::CreateView => k(Call::CreateView { name: &v, description: &text }),
        Op::GetView => k(Call::GetView { name: &v }),
        Op::DeleteView => k(Call::DeleteView { name: &v }),
        Op::AddToView => k(Call::AddToView { view: &v, member: &o }),
        Op::RemoveFromView => k(Call::RemoveFromView { view: &v, member: &o }),
        Op::ListView => k(Call::ListView { name: &v }),
        Op::DefineAttribute => {
            let name = *rng.pick(&["run", "extra"]);
            let ty = *rng.pick(&[AttrType::Int, AttrType::Str, AttrType::Date]);
            k(Call::DefineAttribute { name, ty, description: "" })
        }
        Op::SetAttribute => k(Call::SetAttribute { object: &o, attr: &attr(rng) }),
        Op::RemoveAttribute => k(Call::RemoveAttribute { object: &o, name: rng.pick(&ATTRS).0 }),
        Op::GetAttributes => k(Call::GetAttributes { object: &o }),
        Op::QueryByAttributes => k(Call::QueryByAttributes { preds: &preds(rng) }),
        Op::ExplainQuery => k(Call::ExplainQuery { preds: &preds(rng) }),
        Op::Annotate => k(Call::Annotate { object: &o, text: &text }),
        Op::GetAnnotations => k(Call::GetAnnotations { object: &o }),
        Op::GetAuditTrail => k(Call::GetAuditTrail { object: &o }),
        Op::SetAudit => k(Call::SetAudit { object: &o, enabled: rng.one_in(2) }),
        Op::AddHistory => k(Call::AddHistory { file: &f, description: &text }),
        Op::GetHistory => k(Call::GetHistory { file: &f }),
        Op::Grant => k(Call::Grant { object: &o, principal, perm }),
        Op::Revoke => k(Call::Revoke { object: &o, principal, perm }),
        Op::RegisterUser => {
            let user = UserRecord {
                dn: dn.into(),
                description: text.clone(),
                institution: "ISI".into(),
                email: format!("u{}@isi.edu", rng.below(2)),
                phone: "555".into(),
            };
            k(Call::RegisterUser { user: &user })
        }
        Op::GetUser => k(Call::GetUser { dn }),
        Op::ListUsers => k(Call::ListUsers {}),
        Op::RegisterExternalCatalog => {
            let catalog = ExternalCatalog {
                name: format!("x{}", rng.below(2)),
                catalog_type: "MCAT".into(),
                host: "srb.sdsc.edu".into(),
                ip: format!("10.0.0.{}", rng.below(3)),
                description: text.clone(),
            };
            k(Call::RegisterExternalCatalog { catalog: &catalog })
        }
        Op::ListExternalCatalogs => k(Call::ListExternalCatalogs {}),
    }
}

/// How often the weighted draw picks each op: the writes that build up
/// state most, everything else once.
fn weight(op: Op) -> u64 {
    match op {
        Op::CreateFile => 16,
        Op::SetAttribute => 8,
        Op::CreateFiles | Op::UpdateFile | Op::GetFile | Op::AssignCollection | Op::Grant => 3,
        Op::RemoveAttribute | Op::DeleteFile | Op::CreateCollection | Op::DeleteCollection => 2,
        Op::AddToView | Op::Annotate | Op::AddHistory | Op::SetAudit | Op::Revoke => 2,
        _ => 1,
    }
}

fn weighted(rng: &mut Rng) -> Op {
    let mut x = rng.below(Op::ALL.iter().map(|&op| weight(op)).sum());
    for &op in Op::ALL {
        if x < weight(op) {
            return op;
        }
        x -= weight(op);
    }
    unreachable!("the draw is below the total weight")
}

fn scope(rng: &mut Rng) -> CallScope {
    let modes = [DurabilityMode::Always, DurabilityMode::Group, DurabilityMode::Async];
    let durability = rng.one_in(5).then(|| *rng.pick(&modes));
    CallScope { durability, cache_bypass: rng.one_in(12) }
}

// ---------- configurations and access paths ----------

/// One subject configuration. Each runs in process; `wires` adds a SOAP
/// and a binary access path, each over its own identical catalog.
struct Config {
    /// The test file that runs this configuration.
    suite: &'static str,
    tag: &'static str,
    shards: usize,
    profile: IndexProfile,
    cache: Option<CacheConfig>,
    mvcc: bool,
    /// Open on a temporary directory (with the WAL) instead of in memory.
    durable: bool,
    wires: bool,
}

/// Every subject configuration, by suite. The wire suite runs three
/// of the others' configurations again, over SOAP and the binary wire.
fn configs() -> Vec<Config> {
    let tiny = Some(CacheConfig { capacity: 16, shards: 2 });
    let default = Some(CacheConfig::default());
    let (p, vi) = (IndexProfile::Paper2003, IndexProfile::ValueIndexed);
    [
        ("shard_twin", "sharded4", 4, p, None, false, false, false),
        ("mvcc_twin", "mvcc-durable", 1, p, None, true, true, false),
        ("cache_consistency", "default-cache", 1, p, default, false, false, false),
        ("cache_consistency", "tiny-cache", 1, p, tiny, false, false, false),
        ("cache_consistency", "tiny-cache-vi", 1, vi, tiny, false, false, false),
        ("planner_twin", "planner", 1, vi, None, false, false, false),
        ("planner_twin", "planner-mvcc", 1, vi, None, true, false, false),
        ("planner_twin", "planner-sharded4", 4, vi, None, false, false, false),
        ("wire_twin", "sharded4", 4, p, None, false, false, true),
        ("wire_twin", "mvcc-durable", 1, p, None, true, true, true),
        ("wire_twin", "default-cache", 1, p, default, false, false, true),
    ]
    .into_iter()
    .map(|(suite, tag, shards, profile, cache, mvcc, durable, wires)| Config {
        suite,
        tag,
        shards,
        profile,
        cache,
        mvcc,
        durable,
        wires,
    })
    .collect()
}

/// How a subject is reached. Clients come first so they hang up before
/// their server stops.
enum Path {
    Direct,
    Soap(McsClient, McsServer),
    Bin(BinMcsClient, BinServer),
}

struct Subject {
    catalog: Arc<ShardedCatalog>,
    path: Path,
}

/// A result as either wire's client sees it: the answer with its
/// `(epoch, shard)` echo, or the fault.
type Outcome = Result<(Answer, (u64, usize)), (FaultKind, String)>;

fn fault(f: Fault) -> (FaultKind, String) {
    let NetError::Fault { kind, message } = NetError::from(SoapError::Fault(f)) else {
        unreachable!("a fault converts to a fault")
    };
    (kind, message)
}

/// Normalisation "echo of a call that logged nothing": both wires send
/// shard 0 with epoch 0, whichever shard the call read.
fn echo(epoch: u64, shard: usize) -> (u64, usize) {
    (epoch, if epoch == 0 { 0 } else { shard })
}

fn direct(c: &ShardedCatalog, cred: &Credential, scope: CallScope, call: Call<'_>) -> Outcome {
    serve(c, cred, scope, call).map(|(a, o)| (a, echo(o.epoch, o.shard))).map_err(fault)
}

fn general(c: &ShardedCatalog, cred: &Credential, scope: CallScope, q: &QueryExpr) -> Outcome {
    let (r, o) = c.scoped(scope.on(c), |c| c.general_query(cred, q));
    r.map(|hits| (Answer::from(hits), echo(o.epoch, o.shard))).map_err(|e| fault(fault_of(e)))
}

/// The reference runs every call with the planner bypassed.
fn oracle<R>(reference: &ShardedCatalog, f: impl FnOnce(&ShardedCatalog) -> R) -> R {
    reference.scoped(OpCtx { planner_bypass: true, ..OpCtx::default() }, f).0
}

fn remote<W: Wire>(c: &mut Client<W>, cred: &Credential, scope: CallScope, call: Call) -> Outcome {
    c.set_credential(cred.clone());
    c.set_durability(scope.durability);
    c.set_cache_bypass(scope.cache_bypass);
    match c.call(&call) {
        Ok(a) => Ok((a, (c.last_epoch(), c.last_shard()))),
        Err(NetError::Fault { kind, message }) => Err((kind, message)),
        Err(e) => panic!("transport failure on {:?}: {e}", call.op()),
    }
}

impl Subject {
    fn name(&self) -> &'static str {
        match self.path {
            Path::Direct => "in-process",
            Path::Soap(..) => "SOAP",
            Path::Bin(..) => "binary",
        }
    }

    fn run(&mut self, cred: &Credential, scope: CallScope, call: Call<'_>) -> Outcome {
        match &mut self.path {
            Path::Direct => direct(&self.catalog, cred, scope, call),
            Path::Soap(c, _) => remote(c, cred, scope, call),
            Path::Bin(c, _) => remote(c, cred, scope, call),
        }
    }

    fn databases(&self) -> impl Iterator<Item = &Arc<relstore::Database>> {
        (0..self.catalog.shards()).map(|k| self.catalog.shard(k).database())
    }
}

struct Group {
    cfg: Config,
    /// The in-process path first, then the wires.
    subjects: Vec<Subject>,
    /// Explained plan steps that folded several range bounds, steps whose
    /// dive stopped at its bound, and steps whose dive over the seed's id
    /// span ran to its end, so that they walk or probe by the candidates
    /// they face.
    folded: usize,
    cut: usize,
    spanned: usize,
}

fn open(cfg: &Config, dirs: &mut Vec<PathBuf>) -> Arc<ShardedCatalog> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let clock = Arc::new(ManualClock::default());
    Arc::new(if cfg.durable {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mcs_twin_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dirs.push(dir.clone());
        let store = StoreConfig {
            shards: cfg.shards,
            cache: cfg.cache,
            mvcc: cfg.mvcc,
            ..StoreConfig::default()
        };
        ShardedCatalog::open(&dir, &admin(), cfg.profile, clock, store).unwrap()
    } else {
        ShardedCatalog::in_memory(cfg.shards, &admin(), cfg.profile, clock, cfg.cache, cfg.mvcc)
            .unwrap()
    })
}

impl Group {
    fn start(cfg: Config, dirs: &mut Vec<PathBuf>) -> Group {
        let mut subjects = vec![Subject { catalog: open(&cfg, dirs), path: Path::Direct }];
        if cfg.wires {
            let opts = TransportOpts { keep_alive: true, simulated_rtt: Duration::ZERO };
            let catalog = open(&cfg, dirs);
            let server = McsServer::start_sharded(Arc::clone(&catalog), "127.0.0.1:0", 2).unwrap();
            let client = McsClient::with_opts(server.addr().to_string(), admin(), opts);
            subjects.push(Subject { catalog, path: Path::Soap(client, server) });
            let catalog = open(&cfg, dirs);
            let server = BinServer::start_sharded(Arc::clone(&catalog), "127.0.0.1:0", 2).unwrap();
            let client = BinMcsClient::connect(server.addr().to_string(), admin());
            subjects.push(Subject { catalog, path: Path::Bin(client, server) });
        }
        Group { cfg, subjects, folded: 0, cut: 0, spanned: 0 }
    }
}

// ---------- the harness ----------

/// Ops whose answers describe one configuration rather than the catalog:
/// compared only among that configuration's access paths.
const CONFIG_LOCAL: [Op; 6] =
    [Op::CatalogInfo, Op::CacheStats, Op::ExplainQuery, Op::SyncNow, Op::WaitForEpoch, Op::Ping];

/// Normalisation "per-shard row ids": zero the file ids a multi-shard
/// catalog allocates per shard. Collection and view ids are mirrored
/// from shard 0 and stay.
fn zero_file_ids(o: &mut Outcome) {
    let Ok((answer, _)) = o else { return };
    let file = |t: &ObjectType| *t == ObjectType::File;
    match answer {
        Answer::File(f) => f.id = 0,
        Answer::Files(v) => v.iter_mut().for_each(|f| f.id = 0),
        Answer::History(v) => v.iter_mut().for_each(|h| h.file_id = 0),
        Answer::Annotations(v) => {
            v.iter_mut().filter(|a| file(&a.object_type)).for_each(|a| a.object_id = 0)
        }
        Answer::Audit(v) => {
            v.iter_mut().filter(|r| file(&r.object_type)).for_each(|r| r.object_id = 0)
        }
        _ => {}
    }
}

/// The comparable form of an outcome against the reference: the answer
/// or fault, without the echo (epochs are per configuration).
fn show(o: &Outcome) -> String {
    match o {
        Ok((answer, _)) => format!("Ok({answer:?})"),
        Err(e) => format!("Err({e:?})"),
    }
}

struct Twin {
    seed: u64,
    /// Step number, or `None` during setup and the final sweep.
    step: Option<usize>,
    reference: ShardedCatalog,
    groups: Vec<Group>,
    dirs: Vec<PathBuf>,
    seen: HashSet<Op>,
    /// Table calls run so far: each is one request on every wire path.
    calls: u64,
}

impl Drop for Twin {
    fn drop(&mut self) {
        self.groups.clear();
        for d in &self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

impl Twin {
    fn new(seed: u64, suite: &str) -> Twin {
        let clock = Arc::new(ManualClock::default());
        let reference =
            ShardedCatalog::in_memory(1, &admin(), IndexProfile::Paper2003, clock, None, false)
                .unwrap();
        let mut dirs = Vec::new();
        let groups = configs()
            .into_iter()
            .filter(|cfg| cfg.suite == suite)
            .map(|cfg| Group::start(cfg, &mut dirs))
            .collect();
        Twin { seed, step: None, reference, groups, dirs, seen: HashSet::new(), calls: 0 }
    }

    fn at(&self) -> String {
        match self.step {
            Some(step) => format!("seed {} step {step}", self.seed),
            None => format!("seed {} (setup/sweep)", self.seed),
        }
    }

    /// Run one table call everywhere and compare.
    fn call(&mut self, cred: &Credential, scope: CallScope, call: Call<'_>) {
        self.seen.insert(call.op());
        self.calls += 1;
        let want = oracle(&self.reference, |c| direct(c, cred, scope, call));
        let what = format!("{call:?} as {} under {scope:?}", cred.dn);
        self.compare(want, &what, CONFIG_LOCAL.contains(&call.op()), |s| s.run(cred, scope, call));
    }

    /// Run a general boolean query and compare. No wire op carries one,
    /// so it runs in process on every subject's catalog.
    fn query(&mut self, cred: &Credential, scope: CallScope, q: &QueryExpr) {
        let want = oracle(&self.reference, |c| general(c, cred, scope, q));
        let what = format!("general_query {q:?} as {} under {scope:?}", cred.dn);
        self.compare(want, &what, false, |s| general(&s.catalog, cred, scope, q));
    }

    /// Run `run` on each subject: a configuration's access paths must
    /// agree exactly (echo included), and unless the op is
    /// configuration-local its in-process answer must match the
    /// reference's, normalised.
    fn compare(
        &mut self,
        mut want: Outcome,
        what: &str,
        local: bool,
        mut run: impl FnMut(&mut Subject) -> Outcome,
    ) {
        let at = self.at();
        let plain = show(&want);
        zero_file_ids(&mut want);
        let zeroed = show(&want);
        for g in &mut self.groups {
            let mut got: Vec<Outcome> = g.subjects.iter_mut().map(&mut run).collect();
            let first = format!("{:?}", got[0]);
            for (s, o) in g.subjects.iter().zip(&got).skip(1) {
                assert_eq!(
                    first,
                    format!("{o:?}"),
                    "{at}: config {} {} path diverged from in-process on {what}",
                    g.cfg.tag,
                    s.name()
                );
            }
            if local {
                continue;
            }
            let want = if g.cfg.shards > 1 {
                zero_file_ids(&mut got[0]);
                &zeroed
            } else {
                &plain
            };
            assert_eq!(
                *want,
                show(&got[0]),
                "{at}: config {} diverged from the reference on {what}",
                g.cfg.tag
            );
        }
    }

    /// Reclaim versions on every MVCC subject (answers must not change).
    fn vacuum(&self) {
        for s in self.groups.iter().filter(|g| g.cfg.mvcc).flat_map(|g| &g.subjects) {
            for db in s.databases() {
                db.vacuum();
            }
        }
    }

    /// The planner subjects must explain every predicate of a well-formed
    /// conjunction exactly once: a body line names one predicate, or the
    /// range bounds it folded joined by `AND`.
    fn check_explain(&mut self, preds: &[AttrPredicate]) {
        let at = self.at();
        for g in self.groups.iter_mut().filter(|g| g.cfg.profile == IndexProfile::ValueIndexed) {
            let plan = g.subjects[0].catalog.explain_query(&admin(), preds).unwrap();
            let body: Vec<&str> = plan
                .iter()
                .filter(|l| !l.starts_with("scatter"))
                .map(|l| l.split(" via ").next().unwrap_or(l))
                .collect();
            let named: usize = body.iter().map(|l| 1 + l.matches(" AND ").count()).sum();
            assert_eq!(
                named,
                preds.len(),
                "{at}: config {} explained {preds:?} as {plan:?}",
                g.cfg.tag
            );
            // Each shard plans its own rows: count the shapes over every
            // shard's plan, not only the one a sharded explain shows.
            let c = &g.subjects[0].catalog;
            for k in 0..c.shards() {
                let plan = c.shard(k).explain_query(&admin(), preds).unwrap();
                let folded = |l: &&String| l.split(" via ").next().unwrap_or(l).contains(" AND ");
                g.folded += plan.iter().filter(folded).count();
                g.cut += plan.iter().filter(|l| l.contains("dive stopped at")).count();
                g.spanned += plan.iter().filter(|l| l.contains(" over ids ")).count();
            }
        }
    }
}

fn run_seed(seed: u64, suite: &str) {
    eprintln!("{suite}: seed = {seed}");
    let mut t = Twin::new(seed, suite);
    let (a, user) = (admin(), Credential::new(USER));
    let plain = CallScope::default();
    for (name, ty) in ATTRS {
        t.call(&a, plain, Call::DefineAttribute { name, ty, description: "" });
    }
    for name in ["c0", "c1"] {
        t.call(&a, plain, Call::CreateCollection { name, parent: None, description: "" });
    }
    let (service, read) = (ObjectRef::Service, Permission::Read);
    t.call(&a, plain, Call::Grant { object: &service, principal: USER, perm: read });

    let mut rng = Rng::new(seed);
    let offset = rng.below(Op::ALL.len() as u64) as usize;
    let mut queries = 0;
    for step in 0..STEPS {
        t.step = Some(step);
        let cred = if rng.one_in(4) { &user } else { &a };
        let scope = scope(&mut rng);
        if step % ROUND_ROBIN == 0 {
            let op = Op::ALL[(step / ROUND_ROBIN + offset) % Op::ALL.len()];
            with_call(&mut rng, op, |call| t.call(cred, scope, call));
        } else {
            match rng.below(20) {
                0..=5 => {
                    let preds = if rng.one_in(3) { like_shape(&mut rng) } else { preds(&mut rng) };
                    t.call(cred, scope, Call::QueryByAttributes { preds: &preds });
                    t.check_explain(&preds);
                    queries += 1;
                }
                6..=8 => {
                    t.query(cred, scope, &expr(&mut rng, 0));
                    queries += 1;
                }
                9 => t.vacuum(),
                _ => {
                    let op = weighted(&mut rng);
                    with_call(&mut rng, op, |call| t.call(cred, scope, call));
                }
            }
        }
        // A barrier after a relaxed commit makes the durable watermark
        // deterministic again before anything reports it.
        if matches!(scope.durability, Some(DurabilityMode::Group | DurabilityMode::Async)) {
            t.call(&a, plain, Call::SyncNow {});
        }
    }
    t.step = None;
    assert!(queries >= 100, "seed {seed}: only {queries} attribute queries");
    let missed: Vec<Op> = Op::ALL.iter().copied().filter(|op| !t.seen.contains(op)).collect();
    assert!(missed.is_empty(), "seed {seed}: the stream never ran {missed:?}");

    // A block of 16 files, eight per `run` value, then conjunctions over
    // them: the stream often leaves a catalog too small for a seed of
    // more than one candidate, and a seed of one candidate never dives,
    // so this is where every configuration, and each shard of a sharded
    // one, is sure to run span dives and walks against the reference.
    let specs: Vec<FileSpec> = (0..16i64)
        .map(|i| {
            FileSpec::named(format!("w{i:02}.dat"))
                .attr("run", i % 2)
                .attr("site", format!("s{}", i % 3))
                .attr("quality", (i % 4) as f64 / 2.0)
        })
        .collect();
    t.call(&a, plain, Call::CreateFiles { specs: &specs });
    let p = |name: &str, op, value: Value| AttrPredicate { name: name.into(), op, value };
    for preds in [
        vec![p("run", AttrOp::Eq, Value::Int(0)), p("site", AttrOp::Like, "s%".into())],
        vec![p("run", AttrOp::Eq, Value::Int(1)), p("quality", AttrOp::Ge, Value::Float(0.5))],
        vec![p("site", AttrOp::Like, "s1%".into()), p("run", AttrOp::Ge, Value::Int(0))],
    ] {
        t.call(&a, plain, Call::QueryByAttributes { preds: &preds });
        t.check_explain(&preds);
    }

    // Final sweep: every pooled object's state, as the admin.
    let mut objects: Vec<ObjectRef> =
        (0..FILES).map(|i| ObjectRef::File(format!("f{i:02}.dat"))).collect();
    objects.extend((0..3).map(|i| ObjectRef::Collection(format!("c{i}"))));
    objects.extend((0..2).map(|i| ObjectRef::View(format!("v{i}"))));
    objects.push(ObjectRef::Service);
    for obj in &objects {
        match obj {
            ObjectRef::File(name) => {
                t.call(&a, plain, Call::GetFile { name });
                t.call(&a, plain, Call::GetFileVersions { name });
                t.call(&a, plain, Call::GetHistory { file: name });
            }
            ObjectRef::Collection(name) => t.call(&a, plain, Call::ListCollection { name }),
            ObjectRef::View(name) => t.call(&a, plain, Call::ListView { name }),
            _ => {}
        }
        t.call(&a, plain, Call::GetAttributes { object: obj });
        t.call(&a, plain, Call::GetAnnotations { object: obj });
        t.call(&a, plain, Call::GetAuditTrail { object: obj });
    }
    t.call(&a, plain, Call::ListUsers {});
    t.call(&a, plain, Call::ListExternalCatalogs {});
    t.call(&a, plain, Call::CatalogInfo {});
    t.call(&a, plain, Call::CacheStats {});

    // Each configuration's non-vacuity checks.
    t.vacuum();
    for g in &t.groups {
        let tag = g.cfg.tag;
        if g.cfg.profile == IndexProfile::ValueIndexed {
            assert!(
                g.folded > 0 && g.cut > 0 && g.spanned > 0,
                "seed {seed}: {tag} planned {} folded ranges, {} stopped dives and {} \
                 span-bounded walks",
                g.folded,
                g.cut,
                g.spanned
            );
        }
        for s in &g.subjects {
            let c = &s.catalog;
            if g.cfg.cache.is_some() {
                let stats = c.cache_stats().unwrap();
                assert!(
                    stats.hits > 0 && stats.misses > 0,
                    "seed {seed}: {tag} cache idle: {stats:?}"
                );
            }
            if g.cfg.shards > 1 {
                let files: Vec<usize> =
                    (0..c.shards()).map(|k| c.shard(k).file_count().unwrap()).collect();
                let spread = files.iter().filter(|&&n| n > 0).count();
                let few = files.iter().sum::<usize>() < 4;
                assert!(few || spread >= 2, "seed {seed}: {tag} files per shard {files:?}");
            }
            if g.cfg.mvcc {
                for db in s.databases() {
                    for table in ["logical_files", "user_attributes", "logical_collections"] {
                        db.table(table).unwrap().read().check_integrity().unwrap_or_else(|e| {
                            panic!("seed {seed}: {tag} {table} failed integrity: {e}")
                        });
                    }
                    assert!(
                        db.wal_stats().versions_created_count() > 0,
                        "seed {seed}: {tag} never created a superseded version"
                    );
                }
            }
            // Every table call reached each wire path as exactly one
            // request, all over the client's one connection.
            let stats = match &s.path {
                Path::Direct => continue,
                Path::Soap(_, server) => server.stats(),
                Path::Bin(_, server) => server.stats(),
            };
            stats.assert_single_connection(t.calls, &format!("seed {seed}: {tag} {}", s.name()));
        }
    }
}

/// Every configuration of `suite` against the reference, at the default
/// seeds or the one in `MCS_SEED`. Seeds share nothing, so they run side
/// by side.
pub fn run(suite: &str) {
    assert!(configs().iter().any(|c| c.suite == suite), "no configuration in suite {suite}");
    std::thread::scope(|s| {
        for seed in seeds(&[42, 0xDEAD_BEEF, 7, 1_000_003]) {
            s.spawn(move || run_seed(seed, suite));
        }
    });
}
