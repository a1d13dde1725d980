//! Hash-partitioned catalog: N independent relstore backends behind one
//! router (DESIGN.md §7.4).
//!
//! The paper scales *reads* with stateless service replicas in front of
//! one MySQL instance (§6, figures 10–11); every write still funnels
//! through a single backend. [`ShardedCatalog`] removes that wall the way
//! AMGA and the ALICE global catalogue did: partition the namespace by a
//! stable hash of the logical-file name across N [`Mcs`] instances, each
//! with its own WAL, group/async commit queue and epoch gate, so fsync
//! streams — the write bottleneck — multiply with shards.
//!
//! ## Placement
//!
//! * **Per-file state** lives on the shard owning the file's *name*
//!   (all versions of a name colocate, so version resolution and
//!   [`McsError::VersionConflict`] semantics are unchanged):
//!   `logical_files`, `user_attributes` / `annotations` /
//!   `transformation_history` / `audit_log` rows about files, file ACEs,
//!   and `view_members` rows whose member is a file.
//! * **Global state** is authoritative on shard 0: collections, views,
//!   users, attribute definitions, external catalogs, service ACLs,
//!   non-file `view_members`. The four tables per-file operations read
//!   for authorization, type-checking and collection resolution —
//!   `logical_collections`, `logical_views`, `attribute_definitions` and
//!   the non-file rows of `acl_entries` — are *mirrored* onto every
//!   shard (same primary keys, relstore inserts honor explicit
//!   AUTO_INCREMENT ids), so a routed operation runs entirely on one
//!   shard with plain [`Mcs`] code ([`Route`], [`ShardedCatalog::run`]).
//!
//! ## Two-phase global writes
//!
//! Operations that change mirrored state (create/delete collection or
//! view, define_attribute, service/collection/view ACL changes) take the
//! catalog-wide write lock, commit on shard 0 first — the authoritative
//! copy — then diff-sync the mirrors. Per-file membership writes
//! (create_file into a collection, assign_collection, add_to_view with a
//! file member) take the read side, so a membership row can never be
//! written concurrently with the deletion of its target. Crash recovery
//! ([`ShardedCatalog::open`]) replays the same diff: mirrors are forced
//! to shard 0's content and membership rows whose target no longer
//! exists on shard 0 are swept, which is what makes replaying an
//! interrupted `add_to_collection` idempotent (the crash-matrix test
//! `shard_crash.rs` truncates either WAL at every byte offset to prove
//! it).
//!
//! ## Scatter-gather queries
//!
//! Lookups by name (`getFile`, `getAttributes` on a file, …) run on the
//! owning shard ([`Route::Owner`]). Attribute queries
//! ([`ShardedCatalog::query_by_attributes`], `general_query`) fan out on
//! a [`soapstack::threadpool::ThreadPool`] — shard 0's slice runs on the
//! caller's thread — and merge with stable ordering (per-shard result
//! sets are disjoint by name, concatenated in shard order, then sorted
//! exactly like the single-shard path sorts its output). Each worker gets
//! a shard handle carrying the request's scope and that shard's pinned
//! snapshot (DESIGN.md §7.9), so a cache or planner bypass holds on every
//! shard; epochs stay per shard too: [`ShardedCatalog::wait_for_epoch`]
//! takes a shard index and [`ShardedCatalog::sync_now`] /
//! [`ShardedCatalog::cache_stats`] aggregate.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use relstore::{Access, Database, OpCtx, Value};
use soapstack::threadpool::ThreadPool;

use crate::cache::{CacheConfig, CacheStats};
use crate::catalog::{datetime, delete_keyed, text, Mcs, StoreConfig};
use crate::clock::Clock;
use crate::error::{McsError, Result};
use crate::general_query::QueryExpr;
use crate::model::*;
use crate::query::CollectionContents;
use crate::schema::IndexProfile;
use crate::views::ViewContents;

/// FNV-1a, 64 bit. Chosen over `DefaultHasher` because the shard map is
/// *on-disk state*: the routing hash must stay stable across rustc
/// versions and process restarts, or a reopened catalog would look up
/// files on the wrong shard.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The shard owning logical-file `name` in an `n_shards`-way catalog.
/// Stable across processes and architectures (FNV-1a over the raw name
/// bytes, modulo the shard count); hashing only the *name* keeps every
/// version of a file on one shard.
pub fn shard_of_name(name: &str, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    (fnv1a64(name.as_bytes()) % n_shards as u64) as usize
}

/// The global tables mirrored from shard 0 onto every shard, row for
/// row under shard 0's ids (diff-sync). The non-file rows of
/// `acl_entries` are mirrored too, by content
/// ([`ShardedCatalog::sync_mirrors`]).
const MIRRORED: [&str; 3] = ["logical_collections", "logical_views", "attribute_definitions"];

/// A non-file access-control entry: `(object_type, object_id, principal,
/// permission)`, unique per shard.
type Ace = (i64, i64, String, i64);

/// What the calls on a scoped handle committed last
/// ([`ShardedCatalog::scoped`], [`Mcs::scoped`]): the network layer
/// echoes it as `mcs:epoch`/`mcs:shard`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Commit epoch of the last commit, 0 if nothing was logged.
    pub epoch: u64,
    /// The shard that commit landed on (0 when nothing was logged).
    pub shard: usize,
}

/// Where an operation that touches one shard runs, and which side of the
/// catalog lock it holds there ([`ShardedCatalog::run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route<'a> {
    /// A read or a shard-local write on the shard owning the named file.
    Owner(&'a str),
    /// A per-file write that installs a reference to global state (file
    /// creation, membership, file ACEs) on the file's owner, under the
    /// read side of the catalog lock, so the referenced collection or
    /// view cannot be deleted concurrently.
    Member(&'a str),
    /// Shard-0-only state: users, external catalogs, and the
    /// attributes, annotations and view members of non-file objects.
    Zero,
    /// A write to mirrored global state: the write side of the catalog
    /// lock, shard 0 first (authoritative), then every mirror diff-synced.
    /// On error the mirrors are left untouched — shard 0 rolled back, so
    /// there is nothing to sync.
    Global,
}

impl<'a> Route<'a> {
    /// The route of an operation on `object`: `if_file` of the file's
    /// name for a file or file version, `otherwise` for a collection, a
    /// view or the service.
    pub fn of(
        object: &'a ObjectRef,
        if_file: fn(&'a str) -> Route<'a>,
        otherwise: Route<'a>,
    ) -> Route<'a> {
        match ref_file_name(object) {
            Some(name) => if_file(name),
            None => otherwise,
        }
    }
}

/// A catalog hash-partitioned across N independent [`Mcs`] backends.
///
/// A router, not a second copy of the [`Mcs`] surface: an operation on
/// one shard is an `Mcs` call handed to [`ShardedCatalog::run`] with its
/// [`Route`]; the methods here are the operations that span shards
/// (batch creates, collection and view deletes and listings, queries,
/// audit trails), topology, epochs and caches. With one shard every
/// route runs on shard 0 — no locking, no mirroring, no pool — keeping
/// `shards = 1` a strict no-op.
///
/// Like [`Mcs`], a handle: [`ShardedCatalog::scoped`] runs a request on
/// a handle carrying its scope, and every shard call made through it
/// runs on a shard handle in that scope.
pub struct ShardedCatalog {
    router: Arc<Router>,
    ctx: OpCtx,
    /// `Outcome` of the last routed commit on this handle.
    last_epoch: AtomicU64,
    last_shard: AtomicUsize,
}

/// The state every handle of one sharded catalog shares.
#[doc(hidden)]
pub struct Router {
    shards: Vec<Arc<Mcs>>,
    /// Scatter workers (`None` with a single shard). Sized N-1: shard
    /// 0's slice of a fan-out runs on the calling thread.
    pool: Option<ThreadPool>,
    /// Orders global-state writes (write side) against per-file
    /// membership writes (read side); see the module docs.
    global: parking_lot::RwLock<()>,
}

impl std::ops::Deref for ShardedCatalog {
    type Target = Router;

    fn deref(&self) -> &Router {
        &self.router
    }
}

impl ShardedCatalog {
    // ---------- construction ----------

    /// Wrap an existing single catalog; every operation delegates
    /// directly. This is how [`crate::Mcs`]-based servers adopt the
    /// sharded surface without changing behavior.
    pub fn from_single(mcs: Arc<Mcs>) -> ShardedCatalog {
        ShardedCatalog::assemble(vec![mcs])
    }

    fn assemble(shards: Vec<Arc<Mcs>>) -> ShardedCatalog {
        let pool =
            if shards.len() > 1 { Some(ThreadPool::new(shards.len() - 1)) } else { None };
        let router = Router { shards, pool, global: parking_lot::RwLock::new(()) };
        ShardedCatalog::handle(Arc::new(router), OpCtx::default())
    }

    fn handle(router: Arc<Router>, ctx: OpCtx) -> ShardedCatalog {
        let (last_epoch, last_shard) = (AtomicU64::new(0), AtomicUsize::new(0));
        ShardedCatalog { router, ctx, last_epoch, last_shard }
    }

    /// Run `f` on a handle of this catalog in scope `ctx` — one request's
    /// options — and return its result with the [`Outcome`] of the last
    /// routed commit it made.
    pub fn scoped<R>(&self, ctx: OpCtx, f: impl FnOnce(&ShardedCatalog) -> R) -> (R, Outcome) {
        let sc = ShardedCatalog::handle(Arc::clone(&self.router), ctx);
        let r = f(&sc);
        (r, Outcome { epoch: sc.last_epoch.into_inner(), shard: sc.last_shard.into_inner() })
    }

    /// The scope this handle's calls run in.
    pub fn ctx(&self) -> &OpCtx {
        &self.ctx
    }

    /// A fresh in-memory sharded catalog: every shard bootstraps the
    /// schema and the admin's service ACL — identically, so the mirrored
    /// tables start in sync. `cache` gives every shard a read cache;
    /// with `mvcc` every shard runs on an MVCC database, so
    /// scatter-gather reads pin per-shard snapshots instead of taking
    /// shared barriers (DESIGN.md §7.5).
    pub fn in_memory(
        n_shards: usize,
        admin: &Credential,
        profile: IndexProfile,
        clock: Arc<dyn Clock>,
        cache: Option<CacheConfig>,
        mvcc: bool,
    ) -> Result<ShardedCatalog> {
        let n = n_shards.max(1);
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let db = if mvcc { Database::new_mvcc() } else { Database::new() };
            shards.push(Arc::new(Mcs::with_database_cached(
                Arc::new(db),
                admin,
                profile,
                Arc::clone(&clock),
                cache.clone(),
            )?));
        }
        let sc = ShardedCatalog::assemble(shards);
        sc.reconcile()?;
        Ok(sc)
    }

    /// Open (or recover) a durable sharded catalog rooted at `dir`.
    ///
    /// `cfg.shards = 1` opens the database at `dir` itself — exactly what
    /// [`Mcs::open_durable`] produces, byte-identical on disk. With N > 1
    /// each shard lives in `dir/shard-k` with its own WAL and durability
    /// policy from `cfg`, and recovery runs [`reconcile`]: mirrors are
    /// diffed against shard 0 and dangling membership rows swept, which
    /// restores the two-phase invariants after a crash anywhere in a
    /// global write.
    ///
    /// A store holding a WAL opens only with the shard count it was laid
    /// out for — the routing hash is taken modulo N — else this fails
    /// before anything is opened or written.
    ///
    /// [`reconcile`]: ShardedCatalog::open
    pub fn open(
        dir: &Path,
        admin: &Credential,
        profile: IndexProfile,
        clock: Arc<dyn Clock>,
        cfg: StoreConfig,
    ) -> Result<ShardedCatalog> {
        let n = cfg.shards.max(1);
        check_layout(dir, n)?;
        if n == 1 {
            let mcs = Mcs::open_durable(dir, admin, profile, clock, cfg)?;
            return Ok(ShardedCatalog::from_single(Arc::new(mcs)));
        }
        // Every directory exists before any shard writes its WAL, so an
        // open cut short in between still reads as this layout.
        let subs: Vec<_> = (0..n).map(|k| dir.join(format!("shard-{k}"))).collect();
        for sub in &subs {
            std::fs::create_dir_all(sub)
                .map_err(|e| McsError::Internal(format!("create {}: {e}", sub.display())))?;
        }
        let shards = subs
            .iter()
            .map(|sub| {
                Ok(Arc::new(Mcs::open_durable(sub, admin, profile, Arc::clone(&clock), cfg)?))
            })
            .collect::<Result<_>>()?;
        let sc = ShardedCatalog::assemble(shards);
        sc.reconcile()?;
        Ok(sc)
    }

    // ---------- topology ----------

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning logical-file `name`.
    pub fn shard_for(&self, name: &str) -> usize {
        shard_of_name(name, self.shards.len())
    }

    /// Direct access to one shard's catalog (populate and benchmark
    /// plumbing; regular clients go through the routed operations).
    pub fn shard(&self, k: usize) -> &Arc<Mcs> {
        &self.shards[k]
    }

    /// The index profile the shards were created with.
    pub fn index_profile(&self) -> IndexProfile {
        self.shards[0].index_profile()
    }

    fn single(&self) -> bool {
        self.shards.len() == 1
    }

    // ---------- routing primitives ----------

    /// Run `f` on shard `k` in this handle's scope, recording its last
    /// commit as the handle's [`Outcome`].
    fn record<R>(&self, k: usize, f: impl FnOnce(&Mcs) -> R) -> R {
        let (r, Outcome { epoch, .. }) = self.shards[k].scoped(self.ctx.clone(), f);
        if epoch != 0 {
            self.last_epoch.store(epoch, Ordering::Relaxed);
            self.last_shard.store(k, Ordering::Relaxed);
        }
        r
    }

    /// Run a single-shard operation `f` where `route` says, under the
    /// lock the route takes, recording its commit for the `(epoch,
    /// shard)` echo. With one shard every route runs `f` on shard 0
    /// without a lock.
    pub fn run<R>(&self, route: Route<'_>, f: impl FnOnce(&Mcs) -> Result<R>) -> Result<R> {
        match route {
            Route::Owner(name) => self.record(self.shard_for(name), f),
            Route::Member(name) => {
                let _g = (!self.single()).then(|| self.global.read());
                self.record(self.shard_for(name), f)
            }
            Route::Zero => self.record(0, f),
            Route::Global => {
                if self.single() {
                    return self.record(0, f);
                }
                let _g = self.global.write();
                let r = self.record(0, f)?;
                self.sync_mirrors()?;
                Ok(r)
            }
        }
    }

    // ---------- mirror maintenance ----------

    /// Snapshot a mirrored table keyed by id.
    fn mirror_rows(db: &Database, table: &str) -> Result<BTreeMap<i64, Vec<Value>>> {
        let rs = db.query(&format!("SELECT * FROM {table}"), &[])?;
        let mut out = BTreeMap::new();
        for row in rs.rows {
            out.insert(row[0].as_int()?, row);
        }
        Ok(out)
    }

    /// A shard's non-file ACEs, each with its local row id. File ACEs are
    /// per-file state on the owning shard.
    fn global_aces(db: &Database) -> Result<BTreeMap<Ace, i64>> {
        let rs = db.query(
            "SELECT id, object_type, object_id, principal, permission FROM acl_entries",
            &[],
        )?;
        let mut out = BTreeMap::new();
        for r in rs.rows {
            let ot = r[1].as_int()?;
            if ot != ObjectType::File.code() {
                let ace = (ot, r[2].as_int()?, r[3].as_str()?.to_owned(), r[4].as_int()?);
                out.insert(ace, r[0].as_int()?);
            }
        }
        Ok(out)
    }

    /// Force one replica's non-file ACEs to `want` (shard 0's). Unlike the
    /// id-keyed tables, ACEs mirror by content and take a local id: every
    /// shard allocates ACE ids for its own file ACEs, so shard 0's ids
    /// would collide with a replica's.
    fn sync_mirror_aces(replica: &Mcs, want: &BTreeMap<Ace, i64>) -> Result<()> {
        let have = Self::global_aces(replica.database())?;
        let dels: Vec<i64> =
            have.iter().filter(|(ace, _)| !want.contains_key(*ace)).map(|(_, id)| *id).collect();
        let ins: Vec<&Ace> = want.keys().filter(|ace| !have.contains_key(*ace)).collect();
        if dels.is_empty() && ins.is_empty() {
            return Ok(());
        }
        replica.txn(&[("acl_entries", Access::Write)], |s| {
            for id in &dels {
                delete_keyed(s, "acl_entries", "pk_acl_entries", &[(*id).into()])?;
            }
            for (ot, oid, who, perm) in ins {
                let row = vec![Value::Null, (*ot).into(), (*oid).into(), who.as_str().into(), (*perm).into()];
                s.insert("acl_entries", row)?;
            }
            Ok(())
        })
    }

    /// Force one replica's copy of `table` to `want` (shard 0's rows):
    /// delete extra or changed rows, insert missing ones with their
    /// shard-0 primary keys, atomically per table.
    fn sync_mirror_table(
        replica: &Mcs,
        table: &str,
        want: &BTreeMap<i64, Vec<Value>>,
    ) -> Result<()> {
        let have = Self::mirror_rows(replica.database(), table)?;
        let dels: Vec<i64> = have
            .iter()
            .filter(|(id, row)| want.get(id) != Some(row))
            .map(|(id, _)| *id)
            .collect();
        let ins: Vec<&Vec<Value>> = want
            .iter()
            .filter(|(id, row)| have.get(id) != Some(*row))
            .map(|(_, row)| row)
            .collect();
        if dels.is_empty() && ins.is_empty() {
            return Ok(());
        }
        let pk = format!("pk_{table}");
        replica.txn(&[(table, Access::Write)], |s| {
            for id in &dels {
                delete_keyed(s, table, &pk, &[(*id).into()])?;
            }
            for row in ins {
                s.insert(table, row.clone())?;
            }
            Ok(())
        })
    }

    /// Phase two of every global write: push shard 0's mirrored tables to
    /// all replicas, committing in this handle's scope. Also the first
    /// half of crash recovery.
    fn sync_mirrors(&self) -> Result<()> {
        let replicas: Vec<Mcs> =
            self.shards[1..].iter().map(|r| r.handle(self.ctx.clone())).collect();
        for table in MIRRORED {
            let want = Self::mirror_rows(self.shards[0].database(), table)?;
            for replica in &replicas {
                Self::sync_mirror_table(replica, table, &want)?;
            }
        }
        let want = Self::global_aces(self.shards[0].database())?;
        for replica in &replicas {
            Self::sync_mirror_aces(replica, &want)?;
        }
        Ok(())
    }

    /// Crash recovery for the two-phase protocol: force mirrors to shard
    /// 0's state, then sweep membership rows whose target no longer
    /// exists there — a file pointing at a collection that lost its
    /// authoritative row is detached, a `view_members` row for a dead
    /// view is dropped. After the sweep, replaying the interrupted
    /// operation is idempotent: it either succeeds afresh or fails with
    /// the same `AlreadyExists`/`AlreadyInCollection` a completed run
    /// would produce.
    fn reconcile(&self) -> Result<()> {
        if self.single() {
            return Ok(());
        }
        self.sync_mirrors()?;
        let ids_of = |table: &str| -> Result<BTreeSet<i64>> {
            let rs = self.shards[0].database().query(&format!("SELECT id FROM {table}"), &[])?;
            rs.rows.iter().map(|r| Ok(r[0].as_int()?)).collect()
        };
        let colls = ids_of("logical_collections")?;
        let views = ids_of("logical_views")?;
        for shard in &self.shards {
            let db = shard.database();
            let rs = db.query("SELECT id, collection_id FROM logical_files", &[])?;
            for row in rs.rows {
                if let Value::Int(cid) = row[1] {
                    if !colls.contains(&cid) {
                        db.execute(
                            "UPDATE logical_files SET collection_id = ? WHERE id = ?",
                            &[Value::Null, row[0].clone()],
                        )?;
                    }
                }
            }
            let rs = db.query("SELECT id, view_id FROM view_members", &[])?;
            for row in rs.rows {
                if !views.contains(&row[1].as_int()?) {
                    db.execute("DELETE FROM view_members WHERE id = ?", &[row[0].clone()])?;
                }
            }
        }
        Ok(())
    }

    // ---------- scatter-gather ----------

    /// Run `f` on every shard — shard 0 on the calling thread, the rest
    /// on the pool — and return the results in shard order. Each shard's
    /// handle carries this handle's scope and, on MVCC shards, a snapshot
    /// pinned for every shard before any worker starts: each worker reads
    /// its shard at that epoch, and the pin holds the vacuum horizon
    /// until the worker's handle drops, so a fan-out observes one
    /// consistent cut per shard even while writers commit underneath it.
    fn scatter<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&Mcs) -> R + Send + Sync + 'static,
    {
        let handles: Vec<Mcs> = self
            .shards
            .iter()
            .map(|s| s.handle(OpCtx { snapshot: s.database().pin_snapshot(), ..self.ctx.clone() }))
            .collect();
        let mut handles = handles.into_iter();
        let first = handles.next().expect("a catalog has shard 0");
        let Some(pool) = &self.pool else {
            return vec![f(&first)];
        };
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel();
        for (k, m) in (1..).zip(handles) {
            let (f, tx) = (Arc::clone(&f), tx.clone());
            pool.execute(move || {
                let _ = tx.send((k, f(&m)));
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..self.shards.len()).map(|_| None).collect();
        out[0] = Some(f(&first));
        for (k, r) in rx.iter() {
            out[k] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every scatter worker reports"))
            .collect()
    }

    /// Merge fan-out results: first error in shard order wins (shard 0
    /// evaluates the same permission/type checks the single-shard path
    /// would, against the same mirrored state, so the surfaced error is
    /// identical); otherwise concatenate and sort like the single-shard
    /// query paths sort their output.
    fn merge_name_hits(results: Vec<Result<Vec<(String, i64)>>>) -> Result<Vec<(String, i64)>> {
        let mut out = Vec::new();
        for r in results {
            out.extend(r?);
        }
        out.sort();
        Ok(out)
    }

    // ---------- epochs / durability (per shard) ----------

    /// Park until shard `shard`'s durable watermark covers `epoch`.
    /// Epochs are per shard — a `(shard, epoch)` pair echoed by an
    /// async-acknowledged write is only meaningful against that shard's
    /// gate.
    pub fn wait_for_epoch(&self, shard: usize, epoch: u64) -> Result<()> {
        self.shard_checked(shard)?.wait_for_epoch(epoch)
    }

    /// Shard `shard`'s durable-epoch watermark.
    pub fn durable_epoch(&self, shard: usize) -> Result<u64> {
        Ok(self.shard_checked(shard)?.durable_epoch())
    }

    /// Every shard's durable-epoch watermark, in shard order.
    pub fn durable_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.durable_epoch()).collect()
    }

    /// Every shard's most recently allocated commit epoch — the
    /// combined epoch vector a client can later wait on per shard.
    pub fn commit_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.commit_epoch()).collect()
    }

    /// Make every acknowledged write on every shard durable now; returns
    /// the per-shard epochs the barrier covered, in shard order.
    pub fn sync_now(&self) -> Result<Vec<u64>> {
        self.shards.iter().map(|s| s.sync_now()).collect()
    }

    fn shard_checked(&self, k: usize) -> Result<&Mcs> {
        self.shards.get(k).map(|s| s.as_ref()).ok_or_else(|| {
            McsError::Internal(format!("shard {k} out of range (catalog has {})", self.shards.len()))
        })
    }

    // ---------- cache (per shard, aggregated) ----------

    /// True when the shards were opened with a read cache.
    pub fn cache_enabled(&self) -> bool {
        self.shards.iter().any(|s| s.cache_enabled())
    }

    /// Aggregate counter snapshot across every shard's cache (each shard
    /// keys its own cache — the shard id is implicit in the partition),
    /// `None` when caching is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        let mut agg: Option<CacheStats> = None;
        for s in &self.shards {
            if let Some(cs) = s.cache_stats() {
                let a = agg.get_or_insert(CacheStats::default());
                a.hits += cs.hits;
                a.misses += cs.misses;
                a.stale += cs.stale;
                a.evictions += cs.evictions;
            }
        }
        agg
    }

    /// See [`Mcs::explain_query`]. Attribute queries scatter the same
    /// conjunction to every shard, so the plan is shown once (from shard
    /// 0's index dives) with a scatter header when the catalog has more
    /// than one shard.
    pub fn explain_query(
        &self,
        cred: &Credential,
        preds: &[AttrPredicate],
    ) -> Result<Vec<String>> {
        let mut lines = self.record(0, |m| m.explain_query(cred, preds))?;
        if self.shards.len() > 1 {
            lines.insert(
                0,
                format!("scatter-gather over {} shards; per-shard plan (shard 0):", self.shards.len()),
            );
        }
        Ok(lines)
    }
    // ---------- cross-shard operations ----------
    //
    // Every other operation runs on one shard: its caller names the
    // `Route` and the `Mcs` call (`mcs_net::dispatch::execute`).

    /// See [`Mcs::create_files`] — the bulk mutation behind the wire
    /// protocols' `createFiles`. Specs are grouped by owning shard and
    /// each shard's group commits in **one** transaction. The batch stays
    /// all-or-nothing across shards: under the write side of the catalog
    /// lock (so no file can be created or deleted in between) every spec
    /// is validated first and checked for the conflicts a commit could
    /// still hit, in input order — the checks and the error a single
    /// shard's batch would report. Results return in input order; the
    /// echoed epoch is the last shard's commit.
    pub fn create_files(&self, cred: &Credential, specs: &[FileSpec]) -> Result<Vec<LogicalFile>> {
        if self.single() {
            return self.record(0, |m| m.create_files(cred, specs));
        }
        let _g = self.global.write();
        self.record(0, |m| m.check_file_specs(cred, specs))?;
        let mut batch = BTreeSet::new();
        for spec in specs {
            let version = spec.version.unwrap_or(1);
            let owner = self.shard_for(&spec.name);
            let resolve = |m: &Mcs| m.resolve_file_version_uncached(&spec.name, version);
            if !batch.insert((spec.name.as_str(), version)) || self.record(owner, resolve).is_ok()
            {
                return Err(McsError::AlreadyExists(format!("{}.v{version}", spec.name)));
            }
        }
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, spec) in specs.iter().enumerate() {
            groups.entry(self.shard_for(&spec.name)).or_default().push(i);
        }
        let mut out: Vec<Option<LogicalFile>> = vec![None; specs.len()];
        for (k, idxs) in groups {
            let group: Vec<FileSpec> = idxs.iter().map(|&i| specs[i].clone()).collect();
            let files = self.record(k, |m| m.create_files(cred, &group))?;
            for (i, f) in idxs.into_iter().zip(files) {
                out[i] = Some(f);
            }
        }
        Ok(out.into_iter().map(|f| f.expect("every spec was grouped")).collect())
    }

    /// See [`Mcs::delete_collection`]. Two-phase with a cross-shard
    /// emptiness check: under the write lock (no membership write can
    /// race), every shard is checked for files still assigned to the
    /// collection — matching the single-shard
    /// [`McsError::CollectionNotEmpty`] contract — before shard 0
    /// cascades and the mirrors drop their copy.
    pub fn delete_collection(&self, cred: &Credential, name: &str) -> Result<()> {
        if self.single() {
            return self.record(0, |m| m.delete_collection(cred, name));
        }
        let _g = self.global.write();
        let c = self.record(0, |m| m.resolve_collection(name))?;
        for k in 1..self.shards.len() {
            if !self.record(k, |m| files_in_collection_local(m, c.id))?.is_empty() {
                // Same check order as the single-shard path: resolve,
                // authorize, then emptiness.
                self.record(0, |m| m.require_collection_perm(cred, &c, Permission::Delete))?;
                return Err(McsError::CollectionNotEmpty(name.to_owned()));
            }
        }
        self.record(0, |m| m.delete_collection(cred, name))?;
        self.sync_mirrors()
    }

    /// See [`Mcs::list_collection`]: resolution, authorization, auditing
    /// and subcollections come from shard 0; member files are gathered
    /// from every shard and merged in name order (ties — versions of one
    /// name — colocate, so their relative order is the owning shard's
    /// insertion order, same as a single shard's).
    pub fn list_collection(&self, cred: &Credential, name: &str) -> Result<CollectionContents> {
        if self.single() {
            return self.record(0, |m| m.list_collection(cred, name));
        }
        let mut base = self.record(0, |m| m.list_collection(cred, name))?;
        let cid = self.record(0, |m| m.resolve_collection(name))?.id;
        let gathered = self.scatter(move |m| files_in_collection_local(m, cid));
        let mut files = Vec::new();
        for r in gathered {
            files.extend(r?);
        }
        files.sort_by(|a, b| a.0.cmp(&b.0));
        base.files = files;
        Ok(base)
    }

    /// See [`Mcs::delete_view`]. Phase one cascades on shard 0; phase
    /// two drops the per-shard file-membership rows and the mirrored
    /// view row. A crash between the phases leaves orphans that
    /// [`ShardedCatalog::open`]'s sweep removes.
    pub fn delete_view(&self, cred: &Credential, name: &str) -> Result<()> {
        if self.single() {
            return self.record(0, |m| m.delete_view(cred, name));
        }
        let _g = self.global.write();
        let vid = self.record(0, |m| m.resolve_view(name))?.id;
        self.record(0, |m| m.delete_view(cred, name))?;
        for replica in &self.shards[1..] {
            let replica = replica.handle(self.ctx.clone());
            replica.exec_sql("DELETE FROM view_members WHERE view_id = ?", &[vid.into()])?;
        }
        self.sync_mirrors()
    }

    /// See [`Mcs::add_to_view`]: file members land on the file's shard;
    /// collection/view members are global state on shard 0, where the
    /// cycle check sees every view edge. The `add_member` audit row the
    /// owner writes for a file member then moves to shard 0, beside the
    /// rest of the view's trail, so the trail keeps the order the
    /// catalog saw (timestamps alone tie within a second). The write
    /// side of the catalog lock serializes the move; a crash before the
    /// owner's copy is deleted leaves the row on both shards.
    pub fn add_to_view(&self, cred: &Credential, view: &str, member: &ObjectRef) -> Result<()> {
        let add = |m: &Mcs| m.add_to_view(cred, view, member);
        let k = ref_file_name(member).map_or(0, |n| self.shard_for(n));
        if k == 0 {
            return self.run(Route::of(member, Route::Member, Route::Zero), add);
        }
        let _g = self.global.write();
        self.record(k, add)?;
        let vid = self.record(0, |m| m.resolve_view(view))?.id;
        let key = [ObjectType::View.code().into(), vid.into()];
        let zero = self.shards[0].handle(self.ctx.clone());
        let owner = self.shards[k].handle(self.ctx.clone());
        let rows = owner
            .query_sql(
                "SELECT object_type, object_id, action, actor, at, details FROM audit_log \
                 WHERE object_type = ? AND object_id = ? ORDER BY id",
                &key,
            )?
            .rows;
        if rows.is_empty() {
            return Ok(());
        }
        zero.txn(&[("audit_log", Access::Write)], |s| {
            for row in rows {
                s.insert("audit_log", [Value::Null].into_iter().chain(row).collect())?;
            }
            Ok(())
        })?;
        owner.txn(&[("audit_log", Access::Write)], |s| {
            delete_keyed(s, "audit_log", "audit_object", &key).map(drop)
        })
    }

    /// See [`Mcs::list_view`]: shard 0 resolves, authorizes, audits and
    /// contributes its members; file members on other shards are
    /// gathered and merged (all three lists come back sorted, as on a
    /// single shard).
    pub fn list_view(&self, cred: &Credential, name: &str) -> Result<ViewContents> {
        if self.single() {
            return self.record(0, |m| m.list_view(cred, name));
        }
        let mut base = self.record(0, |m| m.list_view(cred, name))?;
        let vid = self.record(0, |m| m.resolve_view(name))?.id;
        let gathered = self.scatter(move |m| view_files_local(m, vid));
        for (k, r) in gathered.into_iter().enumerate() {
            if k == 0 {
                continue; // shard 0's files are already in `base`
            }
            base.files.extend(r?);
        }
        base.files.sort();
        Ok(base)
    }

    /// See [`Mcs::query_by_attributes`]: the fan-out arm of the planner.
    /// Every shard evaluates the full predicate list over its partition
    /// (permission and type checks run against mirrored state, so any
    /// error matches the single-shard one); results merge sorted, and
    /// per-shard disjointness by name makes the merged answer identical
    /// to a single shard's.
    pub fn query_by_attributes(
        &self,
        cred: &Credential,
        preds: &[AttrPredicate],
    ) -> Result<Vec<(String, i64)>> {
        if self.single() {
            return self.record(0, |m| m.query_by_attributes(cred, preds));
        }
        let cred = cred.clone();
        let preds = preds.to_vec();
        Self::merge_name_hits(self.scatter(move |m| m.query_by_attributes(&cred, &preds)))
    }

    /// See [`Mcs::general_query`]. `Not` nodes complement against the
    /// local partition on each shard; because partitions are disjoint
    /// and exhaustive, the union of local complements equals the global
    /// complement.
    pub fn general_query(&self, cred: &Credential, expr: &QueryExpr) -> Result<Vec<(String, i64)>> {
        if self.single() {
            return self.record(0, |m| m.general_query(cred, expr));
        }
        let cred = cred.clone();
        let expr = expr.clone();
        Self::merge_name_hits(self.scatter(move |m| m.general_query(&cred, &expr)))
    }

    /// See [`Mcs::file_count`]: the sum over every shard's partition.
    pub fn file_count(&self) -> Result<usize> {
        let mut total = 0;
        for r in self.scatter(|m| m.file_count()) {
            total += r?;
        }
        Ok(total)
    }

    /// See [`Mcs::get_audit_trail`]. File trails live on the owning
    /// shard. Collection/view/service trails live on shard 0 (a file
    /// member's `add_member` row is moved there, see
    /// [`ShardedCatalog::add_to_view`]); the trail still gathers every
    /// shard's rows for the object — a crash can leave one behind —
    /// ordered by timestamp with shard-order ties.
    pub fn get_audit_trail(
        &self,
        cred: &Credential,
        object: &ObjectRef,
    ) -> Result<Vec<AuditRecord>> {
        let trail = |m: &Mcs| m.get_audit_trail(cred, object);
        if self.single() || ref_file_name(object).is_some() {
            return self.run(Route::of(object, Route::Owner, Route::Zero), trail);
        }
        // Resolve + authorize (and learn the object's identity) on the
        // authoritative shard, then gather the per-shard rows.
        let mut out = self.record(0, trail)?;
        let (ot, id, _, _) = self.record(0, |m| m.resolve_ref(object))?;
        let gathered = self.scatter(move |m| audit_rows_local(m, ot, id));
        for (k, r) in gathered.into_iter().enumerate() {
            if k == 0 {
                continue; // already in `out`
            }
            out.extend(r?);
        }
        out.sort_by(|a, b| a.at.cmp(&b.at));
        Ok(out)
    }
}

/// Refuse to open the store at `dir` with `n` shards unless it is fresh
/// or was laid out for `n`: a WAL at the root is a one-shard store, a WAL
/// in any `shard-k/` a store of exactly the `shard-k/` directories there.
fn check_layout(dir: &Path, n: usize) -> Result<()> {
    let has_wal = |d: &Path| d.join(relstore::wal::WAL_FILE).exists();
    let found: BTreeSet<String> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.strip_prefix("shard-").is_some_and(|k| k.parse::<usize>().is_ok()))
        .collect();
    let want: BTreeSet<String> =
        if n == 1 { BTreeSet::new() } else { (0..n).map(|k| format!("shard-{k}")).collect() };
    let laid_out = if n > 1 && has_wal(dir) {
        Some(1)
    } else if found != want && found.iter().any(|s| has_wal(&dir.join(s))) {
        Some(found.len())
    } else {
        None
    };
    match laid_out {
        Some(m) => Err(McsError::Internal(format!(
            "{} holds a {m}-shard catalog; opening it with {n} shards would misroute its files",
            dir.display()
        ))),
        None => Ok(()),
    }
}

/// The routed name of a file reference, `None` for global objects.
fn ref_file_name(object: &ObjectRef) -> Option<&str> {
    match object {
        ObjectRef::File(n) | ObjectRef::FileVersion(n, _) => Some(n),
        _ => None,
    }
}

/// One shard's `(name, version)` rows for a collection, in name order —
/// the gather leg of [`ShardedCatalog::list_collection`]; no
/// authorization or auditing (the authoritative shard already did both).
fn files_in_collection_local(m: &Mcs, coll_id: i64) -> Result<Vec<(String, i64)>> {
    let rs = m.exec(&m.stmts.files_in_coll, &[coll_id.into()])?;
    let rows = rs.rows.expect("select");
    rows.rows
        .iter()
        .map(|r| Ok((r[1].as_str()?.to_owned(), r[2].as_int()?)))
        .collect()
}

/// One shard's file members of a view, resolved to `(name, version)` —
/// the gather leg of [`ShardedCatalog::list_view`].
fn view_files_local(m: &Mcs, view_id: i64) -> Result<Vec<(String, i64)>> {
    let mut out = Vec::new();
    for member in m.view_members(view_id)? {
        if member.member_type == ObjectType::File {
            let f = m.resolve_file_by_id(member.member_id)?;
            out.push((f.name, f.version));
        }
    }
    Ok(out)
}

/// One shard's audit rows for `(ot, id)`, oldest first — the gather leg
/// of [`ShardedCatalog::get_audit_trail`].
fn audit_rows_local(m: &Mcs, ot: ObjectType, id: i64) -> Result<Vec<AuditRecord>> {
    let rs = m.query_sql(
        "SELECT action, actor, at, details FROM audit_log \
         WHERE object_type = ? AND object_id = ? ORDER BY id",
        &[ot.code().into(), id.into()],
    )?;
    rs.rows
        .iter()
        .map(|r| {
            Ok(AuditRecord {
                object_type: ot,
                object_id: id,
                action: r[0].as_str()?.to_owned(),
                actor: r[1].as_str()?.to_owned(),
                at: datetime(&r[2])?,
                details: text(&r[3]),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::Route::{Global, Member, Owner};
    use super::*;
    use crate::clock::ManualClock;

    fn admin() -> Credential {
        Credential::new("/O=Grid/CN=admin")
    }

    fn catalog(n: usize) -> ShardedCatalog {
        ShardedCatalog::in_memory(
            n,
            &admin(),
            IndexProfile::Paper2003,
            Arc::new(ManualClock::default()),
            None,
            false,
        )
        .unwrap()
    }

    fn create_file(sc: &ShardedCatalog, cred: &Credential, spec: &FileSpec) -> Result<LogicalFile> {
        sc.run(Member(&spec.name), |m| m.create_file(cred, spec))
    }

    #[test]
    fn hash_is_stable() {
        // Pinned values: the shard map is on-disk state, so the router
        // must produce these exact assignments forever.
        assert_eq!(fnv1a64(b"lfn.000000000.dat"), 0xb36d_a383_2a11_5592);
        assert_eq!(shard_of_name("lfn.000000000.dat", 4), 2);
        assert_eq!(shard_of_name("lfn.000000001.dat", 4), 1);
        assert_eq!(shard_of_name("anything", 1), 0);
    }

    #[test]
    fn routed_ops_spread_and_queries_merge() {
        let a = admin();
        let sc = catalog(4);
        sc.run(Global, |m| m.define_attribute(&a, "site", AttrType::Str, "")).unwrap();
        for i in 0..40 {
            create_file(&sc, &a, &FileSpec::named(format!("f{i:03}.dat")).attr("site", "isi"))
                .unwrap();
        }
        assert_eq!(sc.file_count().unwrap(), 40);
        let per_shard: Vec<usize> =
            (0..4).map(|k| sc.shard(k).file_count().unwrap()).collect();
        assert_eq!(per_shard.iter().sum::<usize>(), 40);
        assert!(per_shard.iter().filter(|&&n| n > 0).count() >= 2, "{per_shard:?}");
        let hits = sc.query_by_attributes(&a, &[AttrPredicate::eq("site", "isi")]).unwrap();
        assert_eq!(hits.len(), 40);
        let mut sorted = hits.clone();
        sorted.sort();
        assert_eq!(hits, sorted, "merged results are sorted");
    }

    #[test]
    fn collections_mirror_and_membership_routes() {
        let a = admin();
        let sc = catalog(3);
        sc.run(Global, |m| m.create_collection(&a, "run-a", None, "")).unwrap();
        // The mirrored row exists on every shard, same id.
        for k in 0..3 {
            let c = sc.shard(k).get_collection(&a, "run-a").unwrap();
            assert_eq!(c.id, 1);
        }
        for i in 0..12 {
            let spec = FileSpec::named(format!("m{i:03}.dat")).in_collection("run-a");
            create_file(&sc, &a, &spec).unwrap();
        }
        let listing = sc.list_collection(&a, "run-a").unwrap();
        assert_eq!(listing.files.len(), 12);
        assert!(listing.files.windows(2).all(|w| w[0].0 <= w[1].0));
        // Non-empty spans shards -> delete refuses like a single shard.
        assert_eq!(
            sc.delete_collection(&a, "run-a"),
            Err(McsError::CollectionNotEmpty("run-a".into()))
        );
        for i in 0..12 {
            let name = format!("m{i:03}.dat");
            sc.run(Member(&name), |m| m.delete_file(&a, &name)).unwrap();
        }
        sc.delete_collection(&a, "run-a").unwrap();
        for k in 0..3 {
            assert!(matches!(
                sc.shard(k).get_collection(&a, "run-a"),
                Err(McsError::NotFound(_))
            ));
        }
    }

    /// A define made through shard 0 reaches every shard's definitions,
    /// so a file on any shard can carry the attribute, and so does an
    /// undefine.
    #[test]
    fn attribute_definitions_mirror_to_every_shard() {
        let a = admin();
        let sc = catalog(3);
        sc.run(Global, |m| m.define_attribute(&a, "band", AttrType::Str, "")).unwrap();
        for k in 0..3 {
            assert!(sc.shard(k).attribute_definition("band").unwrap().is_some(), "shard {k}");
        }
        for i in 0..6 {
            create_file(&sc, &a, &FileSpec::named(format!("b{i}.dat")).attr("band", "r")).unwrap();
        }
        sc.shard(0)
            .database()
            .execute("DELETE FROM attribute_definitions WHERE name = 'band'", &[])
            .unwrap();
        sc.sync_mirrors().unwrap();
        for k in 0..3 {
            assert_eq!(sc.shard(k).attribute_definition("band").unwrap(), None, "shard {k}");
        }
    }

    #[test]
    fn acl_changes_mirror_to_replicas() {
        let a = admin();
        let sc = catalog(2);
        sc.run(Global, |m| m.create_collection(&a, "locked", None, "")).unwrap();
        let user = Credential::new("/O=Grid/CN=user");
        let spec = FileSpec::named("denied.dat").in_collection("locked");
        // No grant yet: the owning shard's mirrored ACLs deny the write.
        assert!(matches!(
            create_file(&sc, &user, &spec),
            Err(McsError::PermissionDenied { .. })
        ));
        let locked = ObjectRef::Collection("locked".into());
        sc.run(Global, |m| m.grant(&a, &locked, &user.dn, Permission::Write)).unwrap();
        create_file(&sc, &user, &spec).unwrap();
    }

    /// A replica allocates ids for its own file ACEs; mirroring shard 0's
    /// later service ACE must not collide with them.
    #[test]
    fn file_aces_do_not_collide_with_mirrored_aces() {
        let a = admin();
        let sc = catalog(2);
        let name = (0..).map(|i| format!("g{i}.dat")).find(|n| shard_of_name(n, 2) == 1).unwrap();
        let user = Credential::new("/O=Grid/CN=user");
        create_file(&sc, &a, &FileSpec::named(name.as_str())).unwrap();
        let file = ObjectRef::File(name.clone());
        sc.run(Member(&name), |m| m.grant(&a, &file, &user.dn, Permission::Read)).unwrap();
        sc.run(Global, |m| m.grant(&a, &ObjectRef::Service, &user.dn, Permission::Write)).unwrap();
        sc.run(Member(&name), |m| m.revoke(&a, &file, &user.dn, Permission::Read)).unwrap();
        let v2 = FileSpec { version: Some(2), ..FileSpec::named(name.as_str()) };
        // The replica owning the file authorizes with the mirrored ACE.
        create_file(&sc, &user, &v2).unwrap();
    }

    /// A view's trail keeps the catalog's order although its file
    /// members' `add_member` rows are written on their owners.
    #[test]
    fn view_audit_trail_keeps_catalog_order() {
        let a = admin();
        let on = |k: usize| (0..).map(|i| format!("v{i}.dat")).find(|n| shard_of_name(n, 4) == k);
        let (x, y) = (on(1).unwrap(), on(2).unwrap());
        let trails = [1, 4].map(|n| {
            let sc = catalog(n);
            sc.run(Global, |m| m.create_view(&a, "v", "")).unwrap();
            sc.run(Global, |m| m.set_audit(&a, &ObjectRef::View("v".into()), true)).unwrap();
            for f in [&x, &y] {
                create_file(&sc, &a, &FileSpec::named(f.as_str())).unwrap();
            }
            sc.add_to_view(&a, "v", &ObjectRef::File(x.clone())).unwrap();
            sc.list_view(&a, "v").unwrap();
            sc.add_to_view(&a, "v", &ObjectRef::File(y.clone())).unwrap();
            format!("{:?}", sc.get_audit_trail(&a, &ObjectRef::View("v".into())).unwrap())
        });
        assert!(trails[0].contains("add_member"), "{}", trails[0]);
        assert_eq!(trails[0], trails[1]);
    }

    /// A batch that fails on one shard commits nothing on any other, and
    /// reports the error one shard's batch reports: the first failing
    /// spec in input order.
    #[test]
    fn create_files_is_all_or_nothing_across_shards() {
        let a = admin();
        let names: Vec<String> = (0..8).map(|i| format!("b{i}.dat")).collect();
        let owners: BTreeSet<usize> = names.iter().map(|n| shard_of_name(n, 4)).collect();
        assert!(owners.len() > 1, "the batch must span shards");
        for batch in [
            // a conflict with an existing file on its own shard...
            names.iter().map(FileSpec::named).chain([FileSpec::named("taken.dat")]).collect(),
            // ...or a bad spec after a good one on a higher shard
            names
                .iter()
                .map(FileSpec::named)
                .chain([FileSpec::named("z.dat").attr("undefined", 1i64)])
                .collect::<Vec<_>>(),
        ] {
            let results: Vec<String> = [1, 4]
                .map(|n| {
                    let sc = catalog(n);
                    create_file(&sc, &a, &FileSpec::named("taken.dat")).unwrap();
                    let r = sc.create_files(&a, &batch);
                    assert_eq!(sc.file_count().unwrap(), 1, "{n} shards: the batch half-committed");
                    format!("{r:?}")
                })
                .into();
            assert!(results[0].starts_with("Err"), "{}", results[0]);
            assert_eq!(results[0], results[1]);
        }
    }

    /// The routing hash is taken modulo the shard count, so a store opens
    /// only with the count it was laid out for, and a refused open leaves
    /// the store as it was.
    #[test]
    fn reopening_with_another_shard_count_is_refused() {
        let dir = std::env::temp_dir().join(format!("mcs-shard-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = |n: usize| {
            let cfg = StoreConfig {
                sync: relstore::SyncPolicy::OsBuffered,
                ..StoreConfig::default().sharded(n)
            };
            let clock = Arc::new(ManualClock::default());
            ShardedCatalog::open(&dir, &admin(), IndexProfile::Paper2003, clock, cfg)
        };
        let listing = || {
            let mut names: Vec<_> =
                std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
            names.sort();
            names
        };
        let a = admin();
        create_file(&open(4).unwrap(), &a, &FileSpec::named("kept.dat")).unwrap();
        let before = listing();
        for n in [1, 2, 8] {
            assert!(open(n).is_err(), "a 4-shard store opened with {n} shards");
            assert_eq!(listing(), before, "the refused {n}-shard open wrote to the store");
        }
        let sc = open(4).unwrap();
        assert_eq!(sc.file_count().unwrap(), 1);
        sc.run(Owner("kept.dat"), |m| m.get_file(&a, "kept.dat")).unwrap();
        drop(sc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_shard_is_plain_delegation() {
        let a = admin();
        let sc = catalog(1);
        assert_eq!(sc.shards(), 1);
        assert!(sc.pool.is_none());
        create_file(&sc, &a, &FileSpec::named("solo.dat")).unwrap();
        assert_eq!(sc.file_count().unwrap(), 1);
        let f = sc.run(Owner("solo.dat"), |m| m.get_file(&a, "solo.dat")).unwrap();
        assert_eq!(f.name, "solo.dat");
    }

    #[test]
    fn views_gather_file_members_across_shards() {
        let a = admin();
        let sc = catalog(4);
        sc.run(Global, |m| m.create_view(&a, "everything", "")).unwrap();
        for i in 0..10 {
            let name = format!("v{i:03}.dat");
            create_file(&sc, &a, &FileSpec::named(&name)).unwrap();
            sc.add_to_view(&a, "everything", &ObjectRef::File(name)).unwrap();
        }
        let contents = sc.list_view(&a, "everything").unwrap();
        assert_eq!(contents.files.len(), 10);
        assert!(contents.files.windows(2).all(|w| w[0] <= w[1]));
        sc.delete_view(&a, "everything").unwrap();
        for k in 0..4 {
            let rs = sc.shard(k).database().query("SELECT id FROM view_members", &[]).unwrap();
            assert!(rs.rows.is_empty(), "shard {k} kept membership rows");
        }
    }
}
