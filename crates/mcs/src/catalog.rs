//! The Metadata Catalog Service object: construction, object resolution,
//! and the logical-file / logical-collection lifecycle.
//!
//! Other `impl Mcs` blocks live in sibling modules: attributes
//! ([`crate::attrs`]), views ([`crate::views`]), authorization
//! ([`crate::authz`]), queries ([`crate::query`]), annotations, audit,
//! history, users and external catalogs.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use relstore::{
    Access, Database, DateTime, ExecResult, OpCtx, Prepared, ResultSet, Session, Value,
};

use crate::cache::{CacheKey, CacheValue};
use crate::clock::{Clock, SystemClock};
use crate::error::{McsError, Result};
use crate::model::*;
use crate::schema::{bootstrap, IndexProfile};
use crate::shard::Outcome;

/// The tables a file create writes, claimed by its transaction.
const FILE_CREATE_CLAIMS: &[(&str, Access)] = &[
    ("audit_log", Access::Write),
    ("logical_files", Access::Write),
    ("user_attributes", Access::Write),
];

/// Prepared statements for the catalog's hot paths (the original MCS used
/// JDBC prepared statements against MySQL for the same reason).
pub(crate) struct Statements {
    pub sel_file_name_ver: Prepared,
    pub sel_file_versions: Prepared,
    pub sel_file_by_id: Prepared,
    pub sel_attrs_obj: Prepared,
    pub sel_acl_obj: Prepared,
    pub sel_coll_by_id: Prepared,
    pub sel_coll_by_name: Prepared,
    pub files_in_coll: Prepared,
    pub sel_subcolls: Prepared,
    pub count_subcolls: Prepared,
}

impl Statements {
    fn prepare(db: &Database) -> Result<Statements> {
        Ok(Statements {
            sel_file_name_ver: db
                .prepare("SELECT * FROM logical_files WHERE name = ? AND version = ?")?,
            sel_file_versions: db.prepare("SELECT * FROM logical_files WHERE name = ?")?,
            sel_file_by_id: db.prepare("SELECT * FROM logical_files WHERE id = ?")?,
            sel_attrs_obj: db.prepare(
                "SELECT name, attr_type, str_value, int_value, float_value, date_value, \
                 time_value, datetime_value FROM user_attributes \
                 WHERE object_type = ? AND object_id = ? ORDER BY name",
            )?,
            sel_acl_obj: db.prepare(
                "SELECT principal, permission FROM acl_entries \
                 WHERE object_type = ? AND object_id = ?",
            )?,
            sel_coll_by_id: db.prepare("SELECT * FROM logical_collections WHERE id = ?")?,
            sel_coll_by_name: db.prepare("SELECT * FROM logical_collections WHERE name = ?")?,
            files_in_coll: db
                .prepare("SELECT * FROM logical_files WHERE collection_id = ? ORDER BY name")?,
            sel_subcolls: db.prepare(
                "SELECT name FROM logical_collections WHERE parent_id = ? ORDER BY name",
            )?,
            count_subcolls: db.prepare(
                "SELECT COUNT(*) AS n FROM logical_collections WHERE parent_id = ?",
            )?,
        })
    }
}

/// Storage policy for a durably-opened catalog: how autocommit statements
/// sync ([`SyncPolicy`]) and how transaction commits sync
/// ([`Durability`]). The default — sync every write, one fsync per
/// commit — matches the paper's MySQL-with-binlog deployment; services
/// expecting many concurrent writers switch `durability` to
/// [`Durability::Group`] so commits share disk syncs.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Per-statement sync behavior for autocommit writes.
    pub sync: relstore::SyncPolicy,
    /// Commit durability policy (per-transaction vs group commit).
    pub durability: relstore::Durability,
    /// Read cache sizing, `None` (the default) to disable — see
    /// [`crate::cache`]. Off by default so the 2003 figures reproduce
    /// byte-identical behavior.
    pub cache: Option<crate::cache::CacheConfig>,
    /// Number of hash-partitioned relstore backends ([`crate::shard`]).
    /// The default of 1 keeps today's single-database layout —
    /// byte-identical on disk; `> 1` makes [`crate::ShardedCatalog::open`] lay the
    /// catalog out as `shard-0/..shard-N-1/` subdirectories, each with
    /// its own WAL, commit queue and epoch gate.
    pub shards: usize,
    /// Run the storage engine in MVCC mode: reads pin a snapshot epoch
    /// and traverse row version chains instead of taking shared table
    /// barriers, so readers never block behind writers (DESIGN.md §7.5).
    /// Off by default — the barrier engine's behavior is byte-identical
    /// to previous releases, and the WAL/snapshot formats are the same
    /// either way, so a catalog can be reopened with the flag flipped.
    pub mvcc: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            sync: relstore::SyncPolicy::EveryWrite,
            durability: relstore::Durability::Always,
            cache: None,
            shards: 1,
            mvcc: false,
        }
    }
}

impl StoreConfig {
    /// A config with group commit enabled at the given batching window.
    pub fn grouped(max_wait: std::time::Duration, max_batch: usize) -> StoreConfig {
        StoreConfig {
            durability: relstore::Durability::Group { max_wait, max_batch },
            ..StoreConfig::default()
        }
    }

    /// Builder: enable the read cache ([`crate::cache`]) at the given
    /// sizing.
    pub fn with_cache(mut self, cache: crate::cache::CacheConfig) -> StoreConfig {
        self.cache = Some(cache);
        self
    }

    /// Builder: partition the catalog across `n` relstore backends by a
    /// stable hash of the logical-file name (see [`crate::shard`]).
    pub fn sharded(mut self, n: usize) -> StoreConfig {
        self.shards = n.max(1);
        self
    }

    /// A config with asynchronous commit acknowledgement: writes return
    /// as soon as their WAL group is enqueued, carrying a commit epoch; a
    /// background flusher pays durability in batches. Clients turn the
    /// weak ack into a hard one with [`Mcs::wait_for_epoch`] or
    /// [`Mcs::sync_now`] — the paper's bulk loaders only need that one
    /// final barrier. See DESIGN.md §7.2 for what the ack does and does
    /// not promise.
    pub fn asynchronous(max_wait: std::time::Duration, max_batch: usize) -> StoreConfig {
        StoreConfig {
            durability: relstore::Durability::Async { max_wait, max_batch },
            ..StoreConfig::default()
        }
    }

    /// Builder: run the storage engine in MVCC mode (snapshot reads, no
    /// reader barriers). See [`StoreConfig::mvcc`] and DESIGN.md §7.5.
    pub fn with_mvcc(mut self) -> StoreConfig {
        self.mvcc = true;
        self
    }
}

/// The Metadata Catalog Service.
///
/// All operations take a [`Credential`] and enforce the ACL model of
/// paper §3/§5 (effective permissions are the union of object permissions
/// and those of the enclosing collection hierarchy).
///
/// An `Mcs` is a handle: the catalog's state is shared, and each handle
/// carries the request scope ([`OpCtx`]) its calls run in and the epoch
/// of the last commit they made. [`Mcs::with_cache_bypass`] and
/// [`Mcs::with_planner_bypass`] hand their closure a scoped handle
/// (DESIGN.md §7.9).
pub struct Mcs {
    state: Arc<McsState>,
    pub(crate) ctx: OpCtx,
    /// Commit epoch of the last WAL unit a call on this handle logged.
    epoch: AtomicU64,
}

/// The state every handle of one catalog shares.
#[doc(hidden)]
pub struct McsState {
    pub(crate) db: Arc<Database>,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) stmts: Statements,
    pub(crate) profile: IndexProfile,
    /// Version-validated read cache ([`crate::cache`]); `None` unless
    /// opened with [`StoreConfig::cache`] / [`Mcs::with_database_cached`].
    pub(crate) cache: Option<crate::cache::McsCache>,
    /// The attribute definitions, as of one write version of their table
    /// ([`Mcs::attr_defs`]).
    pub(crate) defs: parking_lot::RwLock<Arc<crate::attrs::AttrDefs>>,
    /// Trusted communities for CAS assertions (community -> shared secret).
    pub(crate) cas_trust: parking_lot::RwLock<std::collections::HashMap<String, u64>>,
}

impl std::ops::Deref for Mcs {
    type Target = McsState;

    fn deref(&self) -> &McsState {
        &self.state
    }
}

impl Mcs {
    /// Create a catalog on a fresh in-memory database. `admin` receives
    /// Admin on the service object (the bootstrap superuser).
    pub fn new(admin: &Credential) -> Result<Mcs> {
        Mcs::with_options(admin, IndexProfile::Paper2003, Arc::new(SystemClock))
    }

    /// Create a catalog with an explicit index profile and clock.
    pub fn with_options(
        admin: &Credential,
        profile: IndexProfile,
        clock: Arc<dyn Clock>,
    ) -> Result<Mcs> {
        Mcs::with_database(Arc::new(Database::new()), admin, profile, clock)
    }

    /// [`Mcs::with_options`] plus a read cache — the in-memory
    /// constructor the cache tests and benchmarks use.
    pub fn with_options_cached(
        admin: &Credential,
        profile: IndexProfile,
        clock: Arc<dyn Clock>,
        cache: crate::cache::CacheConfig,
    ) -> Result<Mcs> {
        Mcs::with_database_cached(Arc::new(Database::new()), admin, profile, clock, Some(cache))
    }

    /// Open a durable catalog rooted at `dir` with an explicit
    /// [`StoreConfig`]: the database is opened (or recovered) via
    /// [`relstore::Database::open_durable_with`] and the catalog schema
    /// bootstrapped on first open. The convenience wrapper over
    /// [`Mcs::with_database`] that catalog services and benchmarks use to
    /// pick a commit durability policy.
    pub fn open_durable(
        dir: &std::path::Path,
        admin: &Credential,
        profile: IndexProfile,
        clock: Arc<dyn Clock>,
        cfg: StoreConfig,
    ) -> Result<Mcs> {
        let db = relstore::Database::open_durable_opts(dir, cfg.sync, cfg.durability, cfg.mvcc)?;
        if cfg.mvcc {
            db.start_vacuum(std::time::Duration::from_millis(100));
        }
        Mcs::with_database_cached(db, admin, profile, clock, cfg.cache)
    }

    /// Open a catalog on an existing database — e.g. one opened durably
    /// via [`relstore::Database::open_durable`], so catalog contents
    /// survive restarts. Bootstraps the schema and the admin's service
    /// ACL only when the database is fresh; an already-initialized
    /// database keeps its contents and policies.
    pub fn with_database(
        db: Arc<Database>,
        admin: &Credential,
        profile: IndexProfile,
        clock: Arc<dyn Clock>,
    ) -> Result<Mcs> {
        Mcs::with_database_cached(db, admin, profile, clock, None)
    }

    /// [`Mcs::with_database`] plus an optional read cache
    /// ([`crate::cache`]) — the constructor every other one funnels
    /// through.
    pub fn with_database_cached(
        db: Arc<Database>,
        admin: &Credential,
        profile: IndexProfile,
        clock: Arc<dyn Clock>,
        cache: Option<crate::cache::CacheConfig>,
    ) -> Result<Mcs> {
        let fresh = db.table("logical_files").is_err();
        if fresh {
            bootstrap(&db, profile)?;
        } else {
            crate::schema::upgrade_value_indexes(&db)?;
        }
        let stmts = Statements::prepare(&db)?;
        let state = Arc::new(McsState {
            db,
            clock,
            stmts,
            profile,
            cache: cache.as_ref().map(crate::cache::McsCache::new),
            defs: Default::default(),
            cas_trust: parking_lot::RwLock::new(std::collections::HashMap::new()),
        });
        let mcs = Mcs { state, ctx: OpCtx::default(), epoch: AtomicU64::new(0) };
        if fresh {
            // Bootstrap ACL: the admin can do everything on the service.
            mcs.txn(&[("acl_entries", Access::Write)], |s| {
                for p in
                    [Permission::Read, Permission::Write, Permission::Delete, Permission::Admin]
                {
                    mcs.insert_ace_in(s, ObjectType::Service, 0, &admin.dn, p)?;
                }
                Ok::<_, McsError>(())
            })?;
        }
        Ok(mcs)
    }

    /// The index profile this catalog was created with.
    pub fn index_profile(&self) -> IndexProfile {
        self.profile
    }

    /// Access the underlying database (used by the evaluation harness to
    /// measure "direct MySQL" rates without the service layer).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    // ---------- request scope (DESIGN.md §7.9) ----------

    /// A handle of this catalog in scope `ctx`.
    pub(crate) fn handle(&self, ctx: OpCtx) -> Mcs {
        Mcs { state: Arc::clone(&self.state), ctx, epoch: AtomicU64::new(0) }
    }

    /// Run `f` on a handle of this catalog in scope `ctx`, returning its
    /// result and the [`Outcome`] of the last WAL unit it logged (epoch 0
    /// if none; the shard is always 0).
    pub fn scoped<R>(&self, ctx: OpCtx, f: impl FnOnce(&Mcs) -> R) -> (R, Outcome) {
        let m = self.handle(ctx);
        let r = f(&m);
        (r, Outcome { epoch: m.epoch.into_inner(), shard: 0 })
    }

    /// [`Mcs::scoped`], crediting what `f` committed to this handle.
    pub(crate) fn rescoped<R>(&self, ctx: OpCtx, f: impl FnOnce(&Mcs) -> R) -> R {
        let (r, outcome) = self.scoped(ctx, f);
        self.note(outcome.epoch);
        r
    }

    /// Run `f` with every read at one snapshot: this handle's, or on an
    /// MVCC database one pinned now and held until `f` returns.
    pub(crate) fn pinned<R>(&self, f: impl FnOnce(&Mcs) -> R) -> R {
        if self.ctx.snapshot.is_some() || !self.db.is_mvcc() {
            return f(self);
        }
        self.rescoped(OpCtx { snapshot: self.db.pin_snapshot(), ..self.ctx.clone() }, f)
    }

    /// The snapshot this handle's reads filter against.
    pub(crate) fn at(&self) -> Option<&relstore::SnapshotPin> {
        self.ctx.snapshot.as_ref()
    }

    fn note(&self, epoch: u64) {
        if epoch != 0 {
            self.epoch.store(epoch, Ordering::Relaxed);
        }
    }

    /// Execute one statement outside a transaction, in this handle's
    /// scope.
    pub(crate) fn exec(&self, p: &Prepared, params: &[Value]) -> Result<ExecResult> {
        let (r, epoch) = self.db.execute_in(&self.ctx, p, params)?;
        self.note(epoch);
        Ok(r)
    }

    /// [`Mcs::exec`] of SQL text.
    pub(crate) fn exec_sql(&self, sql: &str, params: &[Value]) -> Result<ExecResult> {
        self.exec(&self.db.prepare(sql)?, params)
    }

    /// The rows of a SELECT, in this handle's scope.
    pub(crate) fn query_sql(&self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        self.exec_sql(sql, params)?
            .rows
            .ok_or_else(|| McsError::Internal("statement returned no rows".into()))
    }

    /// One catalog transaction in this handle's scope; see
    /// [`relstore::Database::transaction`].
    pub(crate) fn txn<T>(
        &self,
        claims: &[(&str, Access)],
        f: impl FnOnce(&mut Session) -> Result<T>,
    ) -> Result<T> {
        let (v, epoch) = self.db.transaction_in(&self.ctx, claims, f)?;
        self.note(epoch);
        Ok(v)
    }

    // ---------- commit epochs (DESIGN.md §7.2) ----------

    /// The most recently allocated commit epoch on the underlying
    /// database. See [`relstore::Database::commit_epoch`].
    pub fn commit_epoch(&self) -> u64 {
        self.db.commit_epoch()
    }

    /// The durable-epoch watermark. See
    /// [`relstore::Database::durable_epoch`].
    pub fn durable_epoch(&self) -> u64 {
        self.db.durable_epoch()
    }

    /// Park until the watermark covers `epoch` (a value previously echoed
    /// to the caller by an async-acknowledged write). Fails promptly with
    /// [`McsError::DurabilityLost`] if the log writer failed while the
    /// epoch was pending.
    pub fn wait_for_epoch(&self, epoch: u64) -> Result<()> {
        self.db.wait_for_epoch(epoch).map_err(McsError::from)
    }

    /// Make every acknowledged write durable now (the bulk-load final
    /// barrier); returns the epoch the barrier covered.
    pub fn sync_now(&self) -> Result<u64> {
        let epoch = self.db.commit_epoch();
        self.db.sync_now()?;
        Ok(epoch)
    }

    pub(crate) fn now(&self) -> Value {
        Value::DateTime(self.clock.now())
    }

    // ---------- row decoding ----------

    pub(crate) fn file_from_row(row: &[Value]) -> Result<LogicalFile> {
        Ok(LogicalFile {
            id: row[0].as_int()?,
            name: row[1].as_str()?.to_owned(),
            version: row[2].as_int()?,
            data_type: opt_text(&row[3]),
            valid: row[4].as_bool()?,
            collection_id: match &row[5] {
                Value::Null => None,
                v => Some(v.as_int()?),
            },
            container_id: opt_text(&row[6]),
            container_service: opt_text(&row[7]),
            creator: row[8].as_str()?.to_owned(),
            created: datetime(&row[9])?,
            last_modifier: opt_text(&row[10]),
            last_modified: opt_datetime(&row[11]),
            master_copy: opt_text(&row[12]),
            audit_enabled: row[13].as_bool()?,
        })
    }

    pub(crate) fn collection_from_row(row: &[Value]) -> Result<Collection> {
        Ok(Collection {
            id: row[0].as_int()?,
            name: row[1].as_str()?.to_owned(),
            description: text(&row[2]),
            parent_id: match &row[3] {
                Value::Null => None,
                v => Some(v.as_int()?),
            },
            creator: row[4].as_str()?.to_owned(),
            created: datetime(&row[5])?,
            last_modifier: opt_text(&row[6]),
            last_modified: opt_datetime(&row[7]),
            audit_enabled: row[8].as_bool()?,
        })
    }

    // ---------- object resolution ----------

    /// Look up a logical file by name. Errors with [`McsError::VersionConflict`]
    /// if several versions exist (the client must then supply the version).
    /// Served from the read cache when one is enabled; only successful
    /// resolutions are cached (errors always re-execute).
    pub(crate) fn resolve_file(&self, name: &str) -> Result<LogicalFile> {
        let key = || CacheKey::FileByName(name.to_owned());
        self.cached(key, CacheValue::File, file_entry, || self.resolve_file_uncached(name))
    }

    fn resolve_file_uncached(&self, name: &str) -> Result<LogicalFile> {
        let rs = self.exec(&self.stmts.sel_file_versions, &[name.into()])?;
        let rows = rs.rows.expect("select");
        match rows.rows.len() {
            0 => Err(McsError::NotFound(ObjectRef::File(name.to_owned()))),
            1 => Self::file_from_row(&rows.rows[0]),
            n => Err(McsError::VersionConflict(format!(
                "`{name}` has {n} versions; specify one"
            ))),
        }
    }

    /// Look up a specific version of a logical file (cached like
    /// [`Mcs::resolve_file`]).
    pub(crate) fn resolve_file_version(&self, name: &str, version: i64) -> Result<LogicalFile> {
        let key = || CacheKey::FileByNameVer(name.to_owned(), version);
        let compute = || self.resolve_file_version_uncached(name, version);
        self.cached(key, CacheValue::File, file_entry, compute)
    }

    pub(crate) fn resolve_file_version_uncached(
        &self,
        name: &str,
        version: i64,
    ) -> Result<LogicalFile> {
        let params = [name.into(), version.into()];
        let rs = self.db.execute_prepared(&self.stmts.sel_file_name_ver, &params)?;
        first_row(rs, Self::file_from_row)?
            .ok_or_else(|| McsError::NotFound(ObjectRef::FileVersion(name.to_owned(), version)))
    }

    pub(crate) fn resolve_file_by_id(&self, id: i64) -> Result<LogicalFile> {
        let rs = self.exec(&self.stmts.sel_file_by_id, &[id.into()])?;
        first_row(rs, Self::file_from_row)?
            .ok_or_else(|| McsError::NotFound(ObjectRef::File(format!("#{id}"))))
    }

    /// Look up a collection by name (cached like [`Mcs::resolve_file`]).
    pub(crate) fn resolve_collection(&self, name: &str) -> Result<Collection> {
        let key = || CacheKey::CollByName(name.to_owned());
        let entry = |v| match v {
            CacheValue::Collection(c) => Some(c),
            _ => None,
        };
        self.cached(key, CacheValue::Collection, entry, || self.resolve_collection_uncached(name))
    }

    fn resolve_collection_uncached(&self, name: &str) -> Result<Collection> {
        let rs = self.exec(&self.stmts.sel_coll_by_name, &[name.into()])?;
        first_row(rs, Self::collection_from_row)?
            .ok_or_else(|| McsError::NotFound(ObjectRef::Collection(name.to_owned())))
    }

    pub(crate) fn resolve_collection_by_id(&self, id: i64) -> Result<Collection> {
        let rs = self.exec(&self.stmts.sel_coll_by_id, &[id.into()])?;
        first_row(rs, Self::collection_from_row)?
            .ok_or_else(|| McsError::NotFound(ObjectRef::Collection(format!("#{id}"))))
    }

    // ---------- logical files ----------

    /// Create a logical file with its creation-time attributes
    /// (paper API: "Creating a logical file").
    ///
    /// Requires Write on the target collection when one is given, else
    /// Write on the service. The insert of the file row and its attribute
    /// rows is atomic.
    pub fn create_file(&self, cred: &Credential, spec: &FileSpec) -> Result<LogicalFile> {
        let checked = self.check_file_specs(cred, std::slice::from_ref(spec))?;
        let now = self.clock.now();
        // One transaction: the file row, its attribute rows, and the audit
        // record commit together or not at all — a failure at any point
        // (and a crash at any statement boundary) leaves no trace.
        let mut files =
            self.txn(FILE_CREATE_CLAIMS, |s| self.insert_files(s, cred, checked, now))?;
        Ok(files.pop().expect("one spec"))
    }

    /// Create a batch of logical files in **one** transaction — the bulk
    /// mutation behind the binary protocol's `createFiles` op (and the
    /// SOAP op of the same name). All-or-nothing: every spec is
    /// validated, authorized and type-checked up front, then all file
    /// rows, attribute rows and audit records commit as a single unit —
    /// the first failing spec aborts the whole batch with its error.
    /// Results come back in input order.
    pub fn create_files(&self, cred: &Credential, specs: &[FileSpec]) -> Result<Vec<LogicalFile>> {
        let checked = self.check_file_specs(cred, specs)?;
        let now = self.clock.now();
        // Phase 2: one transaction for the whole batch — N file rows, all
        // their attribute rows and audit records, one commit (one fsync
        // under `Durability::Always`, which is where the bulk op's win
        // over N createFile round-trips comes from).
        self.txn(FILE_CREATE_CLAIMS, |s| self.insert_files(s, cred, checked, now))
    }

    /// Phase 1 of [`Mcs::create_files`] (and of [`Mcs::create_file`]),
    /// outside any transaction: every spec's name validation, collection
    /// resolution and authorization, then its attributes' definition,
    /// type and duplicate-name checks, in input order — so a duplicate
    /// attribute, like a type error, is reported before any spec's
    /// `AlreadyExists`, which only the insert finds. Each distinct
    /// attribute name is looked up once per call, and every row of that
    /// name shares one name value. Reads only global state, so on a
    /// sharded catalog any shard's mirror answers alike.
    pub(crate) fn check_file_specs<'a>(
        &self,
        cred: &Credential,
        specs: &'a [FileSpec],
    ) -> Result<Vec<CheckedSpec<'a>>> {
        let defined = self.attr_defs()?;
        // name -> (defined type, shared name value, last spec that used it)
        let mut defs: HashMap<&str, (AttrType, Value, usize)> = HashMap::new();
        let mut checked = Vec::with_capacity(specs.len());
        for (k, spec) in specs.iter().enumerate() {
            validate_name(&spec.name)?;
            let collection_id = match &spec.collection {
                Some(cname) => {
                    let c = self.resolve_collection(cname)?;
                    self.require_collection_perm(cred, &c, Permission::Write)?;
                    Some(c.id)
                }
                None => {
                    self.require_service_perm(cred, Permission::Write)?;
                    None
                }
            };
            let mut attr_rows = Vec::with_capacity(spec.attributes.len());
            for a in &spec.attributes {
                let (ty, name, last) = match defs.entry(a.name.as_str()) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let ty = defined.type_of(&a.name)?;
                        e.insert((ty, a.name.as_str().into(), usize::MAX))
                    }
                };
                if *last == k {
                    return Err(McsError::BadAttribute(format!(
                        "duplicate attribute `{}`",
                        a.name
                    )));
                }
                *last = k;
                attr_rows.push(crate::attrs::attr_row(name.clone(), *ty, a)?);
            }
            checked.push(CheckedSpec {
                spec,
                version: spec.version.unwrap_or(1),
                collection_id,
                attr_rows,
            });
        }
        Ok(checked)
    }

    /// Phase 2 of [`Mcs::create_files`], inside its transaction: per
    /// spec, the file row, its attribute rows and the audit record, as
    /// row writes. Returns the files as inserted, so no row is read back.
    fn insert_files(
        &self,
        s: &mut Session,
        cred: &Credential,
        checked: Vec<CheckedSpec<'_>>,
        now: DateTime,
    ) -> Result<Vec<LogicalFile>> {
        let mut files = Vec::with_capacity(checked.len());
        for c in checked {
            let spec = c.spec;
            let row = vec![
                Value::Null,
                spec.name.as_str().into(),
                c.version.into(),
                opt_str(&spec.data_type),
                true.into(),
                c.collection_id.map_or(Value::Null, Value::from),
                opt_str(&spec.container_id),
                opt_str(&spec.container_service),
                cred.dn.as_str().into(),
                Value::DateTime(now),
                Value::Null,
                Value::Null,
                opt_str(&spec.master_copy),
                spec.audit.into(),
            ];
            let id = match s.insert("logical_files", row) {
                Err(relstore::Error::UniqueViolation { .. }) => {
                    return Err(McsError::AlreadyExists(format!("{}.v{}", spec.name, c.version)))
                }
                other => other.map(|_| s.last_insert_id())?,
            };
            let id = id.ok_or_else(|| McsError::Internal("no insert id".into()))?;
            for attr in c.attr_rows {
                let row = crate::attrs::object_attr_row(ObjectType::File, id, attr);
                s.insert("user_attributes", row)?;
            }
            if spec.audit {
                self.audit_action_in(s, ObjectType::File, id, "create", cred, &spec.name)?;
            }
            files.push(LogicalFile {
                id,
                name: spec.name.clone(),
                version: c.version,
                data_type: spec.data_type.clone(),
                valid: true,
                collection_id: c.collection_id,
                container_id: spec.container_id.clone(),
                container_service: spec.container_service.clone(),
                creator: cred.dn.clone(),
                created: now,
                last_modifier: None,
                last_modified: None,
                master_copy: spec.master_copy.clone(),
                audit_enabled: spec.audit,
            });
        }
        Ok(files)
    }

    /// Delete a logical file (paper API: "Deleting a logical file").
    /// Removes its attributes, annotations, history, ACEs and view
    /// memberships. Requires Delete.
    pub fn delete_file(&self, cred: &Credential, name: &str) -> Result<()> {
        let f = self.resolve_file(name)?;
        self.delete_file_record(cred, &f)
    }

    /// Delete a specific version of a logical file.
    pub fn delete_file_version(&self, cred: &Credential, name: &str, version: i64) -> Result<()> {
        let f = self.resolve_file_version(name, version)?;
        self.delete_file_record(cred, &f)
    }

    fn delete_file_record(&self, cred: &Credential, f: &LogicalFile) -> Result<()> {
        self.require_file_perm(cred, f, Permission::Delete)?;
        // The file row and every dependent row (attributes, annotations,
        // history, ACEs, view memberships) go in one transaction: a crash
        // at any point leaves either the whole file or none of it — never
        // orphaned dependents.
        self.txn(
            &[
                ("acl_entries", Access::Write),
                ("annotations", Access::Write),
                ("audit_log", Access::Write),
                ("logical_files", Access::Write),
                ("transformation_history", Access::Write),
                ("user_attributes", Access::Write),
                ("view_members", Access::Write),
            ],
            |s| {
                if f.audit_enabled {
                    self.audit_action_in(s, ObjectType::File, f.id, "delete", cred, &f.name)?;
                }
                delete_keyed(s, "logical_files", "pk_logical_files", &[f.id.into()])?;
                delete_keyed(s, "transformation_history", "hist_file", &[f.id.into()])?;
                delete_object_rows(s, ObjectType::File, f.id)
            },
        )
    }

    /// Fetch a file's predefined ("static") metadata by logical name
    /// (paper API: "Querying the static attributes of a logical object").
    pub fn get_file(&self, cred: &Credential, name: &str) -> Result<LogicalFile> {
        let f = self.resolve_file(name)?;
        self.require_file_perm(cred, &f, Permission::Read)?;
        if f.audit_enabled {
            self.audit_action(ObjectType::File, f.id, "query", cred, &f.name)?;
        }
        Ok(f)
    }

    /// Fetch a specific version.
    pub fn get_file_version(
        &self,
        cred: &Credential,
        name: &str,
        version: i64,
    ) -> Result<LogicalFile> {
        let f = self.resolve_file_version(name, version)?;
        self.require_file_perm(cred, &f, Permission::Read)?;
        if f.audit_enabled {
            self.audit_action(ObjectType::File, f.id, "query", cred, &f.name)?;
        }
        Ok(f)
    }

    /// All versions of a logical name, ascending.
    pub fn get_file_versions(&self, cred: &Credential, name: &str) -> Result<Vec<LogicalFile>> {
        let rs = self.exec(&self.stmts.sel_file_versions, &[name.into()])?;
        let rows = rs.rows.expect("select");
        if rows.rows.is_empty() {
            return Err(McsError::NotFound(ObjectRef::File(name.to_owned())));
        }
        let mut out: Vec<LogicalFile> =
            rows.rows.iter().map(|r| Self::file_from_row(r)).collect::<Result<_>>()?;
        // Check in version order, not row order: the access path the
        // statement takes decides row order, and the first version denied
        // is the one the error names.
        out.sort_by_key(|f| f.version);
        for f in &out {
            self.require_file_perm(cred, f, Permission::Read)?;
        }
        Ok(out)
    }

    /// Update predefined attributes of a file (paper API: "Modifying the
    /// attributes of a logical object"). Only data_type, valid,
    /// master_copy, container fields are modifiable here; user-defined
    /// attributes go through [`Mcs::set_attribute`].
    pub fn update_file(
        &self,
        cred: &Credential,
        name: &str,
        update: &FileUpdate,
    ) -> Result<LogicalFile> {
        let f = self.resolve_file(name)?;
        self.require_file_perm(cred, &f, Permission::Write)?;
        let text = |col, v: &Option<String>| v.as_deref().map(|v| (col, Value::from(v)));
        let mut cols: Vec<(&str, Value)> = [
            text("data_type", &update.data_type),
            update.valid.map(|v| ("valid", v.into())),
            text("master_copy", &update.master_copy),
            text("container_id", &update.container_id),
            text("container_service", &update.container_service),
        ]
        .into_iter()
        .flatten()
        .collect();
        cols.extend([("last_modifier", cred.dn.as_str().into()), ("last_modified", self.now())]);
        self.txn(
            &[("audit_log", Access::Write), ("logical_files", Access::Write)],
            |s| {
                for id in s.lookup("logical_files", "pk_logical_files", &[f.id.into()])? {
                    s.update("logical_files", id, &cols)?;
                }
                if f.audit_enabled {
                    self.audit_action_in(s, ObjectType::File, f.id, "modify", cred, &f.name)?;
                }
                Ok::<_, McsError>(())
            },
        )?;
        self.resolve_file_by_id(f.id)
    }

    /// Mark a file invalid (the paper's quick-invalidation use case for
    /// the `valid` attribute).
    pub fn invalidate_file(&self, cred: &Credential, name: &str) -> Result<()> {
        self.update_file(cred, name, &FileUpdate { valid: Some(false), ..Default::default() })?;
        Ok(())
    }

    // ---------- logical collections ----------

    /// Create a logical collection (paper API: "Creating a ...
    /// collection"). Top-level creation requires service Write; nesting
    /// requires Write on the parent.
    pub fn create_collection(
        &self,
        cred: &Credential,
        name: &str,
        parent: Option<&str>,
        description: &str,
    ) -> Result<Collection> {
        validate_name(name)?;
        let parent_id = match parent {
            Some(p) => {
                let pc = self.resolve_collection(p)?;
                self.require_collection_perm(cred, &pc, Permission::Write)?;
                Some(pc.id)
            }
            None => {
                self.require_service_perm(cred, Permission::Write)?;
                None
            }
        };
        let id = self.txn(&[("logical_collections", Access::Write)], |s| {
            let row = vec![
                Value::Null,
                name.into(),
                description.into(),
                parent_id.map_or(Value::Null, Value::Int),
                cred.dn.as_str().into(),
                self.now(),
                Value::Null,
                Value::Null,
                false.into(),
            ];
            match s.insert("logical_collections", row) {
                Err(relstore::Error::UniqueViolation { .. }) => {
                    return Err(McsError::AlreadyExists(name.to_owned()))
                }
                other => other?,
            };
            s.last_insert_id().ok_or_else(|| McsError::Internal("no insert id".into()))
        })?;
        self.resolve_collection_by_id(id)
    }

    /// Delete a collection. It must be empty (no files, no
    /// subcollections) — the paper's tree model has no cascading delete.
    pub fn delete_collection(&self, cred: &Credential, name: &str) -> Result<()> {
        let c = self.resolve_collection(name)?;
        self.require_collection_perm(cred, &c, Permission::Delete)?;
        // The emptiness checks run inside the transaction — `logical_files`
        // is claimed for read — so a concurrent create_file into this
        // collection cannot slip between check and delete.
        self.txn(
            &[
                ("acl_entries", Access::Write),
                ("annotations", Access::Write),
                ("audit_log", Access::Write),
                ("logical_collections", Access::Write),
                ("logical_files", Access::Read),
                ("user_attributes", Access::Write),
                ("view_members", Access::Write),
            ],
            |s| {
                let files = s
                    .execute_prepared(&self.stmts.files_in_coll, &[c.id.into()])?
                    .rows
                    .ok_or_else(|| McsError::Internal("file query returned no rows".into()))?;
                if !files.rows.is_empty() {
                    return Err(McsError::CollectionNotEmpty(name.to_owned()));
                }
                let kids = s
                    .execute_prepared(&self.stmts.count_subcolls, &[c.id.into()])?
                    .rows
                    .ok_or_else(|| McsError::Internal("child query returned no rows".into()))?;
                if kids.rows[0][0] != Value::Int(0) {
                    return Err(McsError::CollectionNotEmpty(name.to_owned()));
                }
                if c.audit_enabled {
                    self.audit_action_in(s, ObjectType::Collection, c.id, "delete", cred, &c.name)?;
                }
                delete_keyed(s, "logical_collections", "pk_logical_collections", &[c.id.into()])?;
                delete_object_rows(s, ObjectType::Collection, c.id)
            },
        )
    }

    /// Fetch a collection's record.
    pub fn get_collection(&self, cred: &Credential, name: &str) -> Result<Collection> {
        let c = self.resolve_collection(name)?;
        self.require_collection_perm(cred, &c, Permission::Read)?;
        if c.audit_enabled {
            self.audit_action(ObjectType::Collection, c.id, "query", cred, &c.name)?;
        }
        Ok(c)
    }

    /// Move a file into a collection (or out, with `None`). Enforces the
    /// at-most-one-collection rule of the data model.
    pub fn assign_collection(
        &self,
        cred: &Credential,
        file: &str,
        collection: Option<&str>,
    ) -> Result<()> {
        let f = self.resolve_file(file)?;
        self.require_file_perm(cred, &f, Permission::Write)?;
        let new_id = match collection {
            Some(cname) => {
                if let Some(cur) = f.collection_id {
                    let cur = self.resolve_collection_by_id(cur)?;
                    return Err(McsError::AlreadyInCollection {
                        file: f.name.clone(),
                        collection: cur.name,
                    });
                }
                let c = self.resolve_collection(cname)?;
                self.require_collection_perm(cred, &c, Permission::Write)?;
                Value::Int(c.id)
            }
            None => Value::Null,
        };
        let cols = [
            ("collection_id", new_id),
            ("last_modifier", cred.dn.as_str().into()),
            ("last_modified", self.now()),
        ];
        self.txn(&[("logical_files", Access::Write)], |s| {
            for id in s.lookup("logical_files", "pk_logical_files", &[f.id.into()])? {
                s.update("logical_files", id, &cols)?;
            }
            Ok(())
        })
    }
}

/// Partial update of a logical file's predefined attributes.
#[derive(Debug, Clone, Default)]
pub struct FileUpdate {
    /// New data type.
    pub data_type: Option<String>,
    /// New validity.
    pub valid: Option<bool>,
    /// New master-copy location.
    pub master_copy: Option<String>,
    /// New container id.
    pub container_id: Option<String>,
    /// New container service.
    pub container_service: Option<String>,
}

/// One [`FileSpec`] that passed [`Mcs::check_file_specs`].
pub(crate) struct CheckedSpec<'a> {
    spec: &'a FileSpec,
    version: i64,
    collection_id: Option<i64>,
    /// `user_attributes` columns after the object's (see
    /// [`crate::attrs::attr_row`]).
    attr_rows: Vec<[Value; 8]>,
}

/// Delete every row of claimed table `table` whose key in `index` starts
/// with `key`; returns how many there were.
pub(crate) fn delete_keyed(
    s: &mut Session,
    table: &str,
    index: &str,
    key: &[Value],
) -> Result<usize> {
    let ids = s.lookup(table, index, key)?;
    for &id in &ids {
        s.delete(table, id)?;
    }
    Ok(ids.len())
}

/// Delete the rows that hang off object `(ot, id)`: its attributes,
/// annotations, ACEs and view memberships.
pub(crate) fn delete_object_rows(s: &mut Session, ot: ObjectType, id: i64) -> Result<()> {
    let key = [Value::Int(ot.code()), Value::Int(id)];
    delete_keyed(s, "user_attributes", "ua_object", &key)?;
    delete_keyed(s, "annotations", "ann_object", &key)?;
    delete_keyed(s, "acl_entries", "acl_unique", &key)?;
    delete_keyed(s, "view_members", "vm_member", &key)?;
    Ok(())
}

/// The file a cache entry holds.
fn file_entry(v: CacheValue) -> Option<LogicalFile> {
    match v {
        CacheValue::File(f) => Some(f),
        _ => None,
    }
}

/// The first row of a SELECT's result, decoded.
pub(crate) fn first_row<T>(r: ExecResult, decode: fn(&[Value]) -> Result<T>) -> Result<Option<T>> {
    r.rows.expect("select").rows.first().map(|r| decode(r)).transpose()
}

/// A nullable string column.
pub(crate) fn opt_text(v: &Value) -> Option<String> {
    match v {
        Value::Str(s) => Some(s.to_string()),
        _ => None,
    }
}

/// A string column, `""` for NULL.
pub(crate) fn text(v: &Value) -> String {
    opt_text(v).unwrap_or_default()
}

/// A nullable DATETIME column.
pub(crate) fn opt_datetime(v: &Value) -> Option<DateTime> {
    match v {
        Value::DateTime(dt) => Some(*dt),
        _ => None,
    }
}

/// A NOT NULL DATETIME column.
pub(crate) fn datetime(v: &Value) -> Result<DateTime> {
    opt_datetime(v).ok_or_else(|| McsError::Internal("bad datetime column".into()))
}

pub(crate) fn opt_str(s: &Option<String>) -> Value {
    match s {
        Some(s) => s.as_str().into(),
        None => Value::Null,
    }
}
