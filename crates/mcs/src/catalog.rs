//! The Metadata Catalog Service object: construction, object resolution,
//! and the logical-file / logical-collection lifecycle.
//!
//! Other `impl Mcs` blocks live in sibling modules: attributes
//! ([`crate::attrs`]), views ([`crate::views`]), authorization
//! ([`crate::authz`]), queries ([`crate::query`]), annotations, audit,
//! history, users and external catalogs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use relstore::{Access, Database, ExecResult, OpCtx, Prepared, ResultSet, Session, Value};

use crate::clock::{Clock, SystemClock};
use crate::error::{McsError, Result};
use crate::model::*;
use crate::schema::{bootstrap, IndexProfile};
use crate::shard::Outcome;

/// Prepared statements for the catalog's hot paths (the original MCS used
/// JDBC prepared statements against MySQL for the same reason).
pub(crate) struct Statements {
    pub ins_file: Prepared,
    pub sel_file_name_ver: Prepared,
    pub sel_file_versions: Prepared,
    pub sel_file_by_id: Prepared,
    pub del_file_by_id: Prepared,
    pub ins_attr: Prepared,
    pub sel_attrs_obj: Prepared,
    pub del_attrs_obj: Prepared,
    pub del_attr_named: Prepared,
    pub ins_audit: Prepared,
    pub sel_acl_obj: Prepared,
    pub sel_attrdef: Prepared,
    pub sel_coll_by_id: Prepared,
    pub sel_coll_by_name: Prepared,
    pub files_in_coll: Prepared,
    pub sel_subcolls: Prepared,
    pub count_subcolls: Prepared,
    pub ins_coll: Prepared,
    pub del_coll_by_id: Prepared,
    pub del_annot_obj: Prepared,
    pub del_hist_file: Prepared,
    pub del_acl_obj: Prepared,
    pub del_view_member: Prepared,
    pub upd_file_coll: Prepared,
}

impl Statements {
    fn prepare(db: &Database) -> Result<Statements> {
        Ok(Statements {
            ins_file: db.prepare(
                "INSERT INTO logical_files (name, version, data_type, valid, collection_id, \
                 container_id, container_service, creator, created, master_copy, audit_enabled) \
                 VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            )?,
            sel_file_name_ver: db
                .prepare("SELECT * FROM logical_files WHERE name = ? AND version = ?")?,
            sel_file_versions: db.prepare("SELECT * FROM logical_files WHERE name = ?")?,
            sel_file_by_id: db.prepare("SELECT * FROM logical_files WHERE id = ?")?,
            del_file_by_id: db.prepare("DELETE FROM logical_files WHERE id = ?")?,
            ins_attr: db.prepare(
                "INSERT INTO user_attributes (object_type, object_id, name, attr_type, \
                 str_value, int_value, float_value, date_value, time_value, datetime_value) \
                 VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            )?,
            sel_attrs_obj: db.prepare(
                "SELECT name, attr_type, str_value, int_value, float_value, date_value, \
                 time_value, datetime_value FROM user_attributes \
                 WHERE object_type = ? AND object_id = ? ORDER BY name",
            )?,
            del_attrs_obj: db
                .prepare("DELETE FROM user_attributes WHERE object_type = ? AND object_id = ?")?,
            del_attr_named: db.prepare(
                "DELETE FROM user_attributes \
                 WHERE object_type = ? AND object_id = ? AND name = ?",
            )?,
            ins_audit: db.prepare(
                "INSERT INTO audit_log (object_type, object_id, action, actor, at, details) \
                 VALUES (?, ?, ?, ?, ?, ?)",
            )?,
            sel_acl_obj: db.prepare(
                "SELECT principal, permission FROM acl_entries \
                 WHERE object_type = ? AND object_id = ?",
            )?,
            sel_attrdef: db.prepare(
                "SELECT name, attr_type, description FROM attribute_definitions WHERE name = ?",
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
            ins_coll: db.prepare(
                "INSERT INTO logical_collections \
                 (name, description, parent_id, creator, created) VALUES (?, ?, ?, ?, ?)",
            )?,
            del_coll_by_id: db.prepare("DELETE FROM logical_collections WHERE id = ?")?,
            del_annot_obj: db
                .prepare("DELETE FROM annotations WHERE object_type = ? AND object_id = ?")?,
            del_hist_file: db.prepare("DELETE FROM transformation_history WHERE file_id = ?")?,
            del_acl_obj: db
                .prepare("DELETE FROM acl_entries WHERE object_type = ? AND object_id = ?")?,
            del_view_member: db
                .prepare("DELETE FROM view_members WHERE member_type = ? AND member_id = ?")?,
            upd_file_coll: db.prepare(
                "UPDATE logical_files SET collection_id = ?, last_modifier = ?, \
                 last_modified = ? WHERE id = ?",
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
        let (epoch, r) = self.db.execute_in(&self.ctx, p, params);
        self.note(epoch);
        Ok(r?)
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
        let get_str = |v: &Value| -> Option<String> {
            match v {
                Value::Str(s) => Some(s.to_string()),
                _ => None,
            }
        };
        let get_dt = |v: &Value| match v {
            Value::DateTime(dt) => Some(*dt),
            _ => None,
        };
        Ok(LogicalFile {
            id: row[0].as_int()?,
            name: row[1].as_str()?.to_owned(),
            version: row[2].as_int()?,
            data_type: get_str(&row[3]),
            valid: row[4].as_bool()?,
            collection_id: match &row[5] {
                Value::Null => None,
                v => Some(v.as_int()?),
            },
            container_id: get_str(&row[6]),
            container_service: get_str(&row[7]),
            creator: row[8].as_str()?.to_owned(),
            created: get_dt(&row[9])
                .ok_or_else(|| McsError::Internal("bad created column".into()))?,
            last_modifier: get_str(&row[10]),
            last_modified: get_dt(&row[11]),
            master_copy: get_str(&row[12]),
            audit_enabled: row[13].as_bool()?,
        })
    }

    pub(crate) fn collection_from_row(row: &[Value]) -> Result<Collection> {
        Ok(Collection {
            id: row[0].as_int()?,
            name: row[1].as_str()?.to_owned(),
            description: match &row[2] {
                Value::Str(s) => s.to_string(),
                _ => String::new(),
            },
            parent_id: match &row[3] {
                Value::Null => None,
                v => Some(v.as_int()?),
            },
            creator: row[4].as_str()?.to_owned(),
            created: match &row[5] {
                Value::DateTime(dt) => *dt,
                _ => return Err(McsError::Internal("bad created column".into())),
            },
            last_modifier: match &row[6] {
                Value::Str(s) => Some(s.to_string()),
                _ => None,
            },
            last_modified: match &row[7] {
                Value::DateTime(dt) => Some(*dt),
                _ => None,
            },
            audit_enabled: row[8].as_bool()?,
        })
    }

    // ---------- object resolution ----------

    /// Look up a logical file by name. Errors with [`McsError::VersionConflict`]
    /// if several versions exist (the client must then supply the version).
    /// Served from the read cache when one is enabled; only successful
    /// resolutions are cached (errors always re-execute).
    pub(crate) fn resolve_file(&self, name: &str) -> Result<LogicalFile> {
        use crate::cache::{CacheKey, CacheValue, Lookup};
        let Some(cache) = self.read_cache() else {
            return self.resolve_file_uncached(name);
        };
        let key = CacheKey::FileByName(name.to_owned());
        let stamp = match cache.lookup(&self.db, &key) {
            Lookup::Hit(CacheValue::File(f)) => return Ok(f),
            Lookup::Hit(_) => return self.resolve_file_uncached(name),
            Lookup::Miss(stamp) => stamp,
        };
        let f = self.resolve_file_uncached(name)?;
        cache.insert(key, CacheValue::File(f.clone()), stamp);
        Ok(f)
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
        use crate::cache::{CacheKey, CacheValue, Lookup};
        let Some(cache) = self.read_cache() else {
            return self.resolve_file_version_uncached(name, version);
        };
        let key = CacheKey::FileByNameVer(name.to_owned(), version);
        let stamp = match cache.lookup(&self.db, &key) {
            Lookup::Hit(CacheValue::File(f)) => return Ok(f),
            Lookup::Hit(_) => return self.resolve_file_version_uncached(name, version),
            Lookup::Miss(stamp) => stamp,
        };
        let f = self.resolve_file_version_uncached(name, version)?;
        cache.insert(key, CacheValue::File(f.clone()), stamp);
        Ok(f)
    }

    pub(crate) fn resolve_file_version_uncached(
        &self,
        name: &str,
        version: i64,
    ) -> Result<LogicalFile> {
        let rs = self
            .db
            .execute_prepared(&self.stmts.sel_file_name_ver, &[name.into(), version.into()])?;
        let rows = rs.rows.expect("select");
        rows.rows
            .first()
            .map(|r| Self::file_from_row(r))
            .transpose()?
            .ok_or_else(|| McsError::NotFound(ObjectRef::FileVersion(name.to_owned(), version)))
    }

    pub(crate) fn resolve_file_by_id(&self, id: i64) -> Result<LogicalFile> {
        let rs = self.exec(&self.stmts.sel_file_by_id, &[id.into()])?;
        let rows = rs.rows.expect("select");
        rows.rows
            .first()
            .map(|r| Self::file_from_row(r))
            .transpose()?
            .ok_or_else(|| McsError::NotFound(ObjectRef::File(format!("#{id}"))))
    }

    /// Look up a collection by name (cached like [`Mcs::resolve_file`]).
    pub(crate) fn resolve_collection(&self, name: &str) -> Result<Collection> {
        use crate::cache::{CacheKey, CacheValue, Lookup};
        let Some(cache) = self.read_cache() else {
            return self.resolve_collection_uncached(name);
        };
        let key = CacheKey::CollByName(name.to_owned());
        let stamp = match cache.lookup(&self.db, &key) {
            Lookup::Hit(CacheValue::Collection(c)) => return Ok(c),
            Lookup::Hit(_) => return self.resolve_collection_uncached(name),
            Lookup::Miss(stamp) => stamp,
        };
        let c = self.resolve_collection_uncached(name)?;
        cache.insert(key, CacheValue::Collection(c.clone()), stamp);
        Ok(c)
    }

    fn resolve_collection_uncached(&self, name: &str) -> Result<Collection> {
        let rs = self.exec(&self.stmts.sel_coll_by_name, &[name.into()])?;
        let rows = rs.rows.expect("select");
        rows.rows
            .first()
            .map(|r| Self::collection_from_row(r))
            .transpose()?
            .ok_or_else(|| McsError::NotFound(ObjectRef::Collection(name.to_owned())))
    }

    pub(crate) fn resolve_collection_by_id(&self, id: i64) -> Result<Collection> {
        let rs = self.exec(&self.stmts.sel_coll_by_id, &[id.into()])?;
        let rows = rs.rows.expect("select");
        rows.rows
            .first()
            .map(|r| Self::collection_from_row(r))
            .transpose()?
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
        validate_name(&spec.name)?;
        let version = spec.version.unwrap_or(1);
        let collection = match &spec.collection {
            Some(cname) => {
                let c = self.resolve_collection(cname)?;
                self.require_collection_perm(cred, &c, Permission::Write)?;
                Some(c)
            }
            None => {
                self.require_service_perm(cred, Permission::Write)?;
                None
            }
        };
        // Type-check the attributes against their definitions up front.
        let attr_rows: Vec<[Value; 10]> = spec
            .attributes
            .iter()
            .map(|a| self.attr_row_values(ObjectType::File, a))
            .collect::<Result<_>>()?;

        let now = self.now();
        // One transaction: the file row, its attribute rows, and the audit
        // record commit together or not at all — a failure at any point
        // (and a crash at any statement boundary) leaves no trace.
        let id = self.txn(
            &[
                ("audit_log", Access::Write),
                ("logical_files", Access::Write),
                ("user_attributes", Access::Write),
            ],
            |s| {
                let res = s.execute_prepared(
                    &self.stmts.ins_file,
                    &[
                        spec.name.as_str().into(),
                        version.into(),
                        opt_str(&spec.data_type),
                        true.into(),
                        collection.as_ref().map_or(Value::Null, |c| c.id.into()),
                        opt_str(&spec.container_id),
                        opt_str(&spec.container_service),
                        cred.dn.as_str().into(),
                        now.clone(),
                        opt_str(&spec.master_copy),
                        spec.audit.into(),
                    ],
                );
                let res = match res {
                    Err(relstore::Error::UniqueViolation { .. }) => {
                        return Err(McsError::AlreadyExists(format!(
                            "{}.v{}",
                            spec.name, version
                        )))
                    }
                    other => other?,
                };
                let id =
                    res.last_insert_id.ok_or_else(|| McsError::Internal("no insert id".into()))?;
                for (i, vals) in attr_rows.iter().enumerate() {
                    let mut params: Vec<Value> = Vec::with_capacity(10);
                    params.push(ObjectType::File.code().into());
                    params.push(id.into());
                    params.extend(vals[2..].iter().cloned());
                    // vals[0..2] are placeholders replaced by the two pushes above
                    if let Err(e) = s.execute_prepared(&self.stmts.ins_attr, &params) {
                        return Err(if matches!(e, relstore::Error::UniqueViolation { .. }) {
                            McsError::BadAttribute(format!(
                                "duplicate attribute `{}`",
                                spec.attributes[i].name
                            ))
                        } else {
                            e.into()
                        });
                    }
                }
                if spec.audit {
                    self.audit_action_in(s, ObjectType::File, id, "create", cred, &spec.name)?;
                }
                Ok(id)
            },
        )?;
        self.resolve_file_by_id(id)
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
        let now = self.now();
        // Phase 2: one transaction for the whole batch — N file rows, all
        // their attribute rows and audit records, one commit (one fsync
        // under `Durability::Always`, which is where the bulk op's win
        // over N createFile round-trips comes from).
        let ids = self.txn(
            &[
                ("audit_log", Access::Write),
                ("logical_files", Access::Write),
                ("user_attributes", Access::Write),
            ],
            |s| {
                let mut ids = Vec::with_capacity(checked.len());
                for c in &checked {
                    let spec = c.spec;
                    let res = s.execute_prepared(
                        &self.stmts.ins_file,
                        &[
                            spec.name.as_str().into(),
                            c.version.into(),
                            opt_str(&spec.data_type),
                            true.into(),
                            c.collection_id.map_or(Value::Null, Value::from),
                            opt_str(&spec.container_id),
                            opt_str(&spec.container_service),
                            cred.dn.as_str().into(),
                            now.clone(),
                            opt_str(&spec.master_copy),
                            spec.audit.into(),
                        ],
                    );
                    let res = match res {
                        Err(relstore::Error::UniqueViolation { .. }) => {
                            return Err(McsError::AlreadyExists(format!(
                                "{}.v{}",
                                spec.name, c.version
                            )))
                        }
                        other => other?,
                    };
                    let id = res
                        .last_insert_id
                        .ok_or_else(|| McsError::Internal("no insert id".into()))?;
                    for (i, vals) in c.attr_rows.iter().enumerate() {
                        let mut params: Vec<Value> = Vec::with_capacity(10);
                        params.push(ObjectType::File.code().into());
                        params.push(id.into());
                        params.extend(vals[2..].iter().cloned());
                        if let Err(e) = s.execute_prepared(&self.stmts.ins_attr, &params) {
                            return Err(if matches!(e, relstore::Error::UniqueViolation { .. }) {
                                McsError::BadAttribute(format!(
                                    "duplicate attribute `{}`",
                                    spec.attributes[i].name
                                ))
                            } else {
                                e.into()
                            });
                        }
                    }
                    if spec.audit {
                        self.audit_action_in(s, ObjectType::File, id, "create", cred, &spec.name)?;
                    }
                    ids.push(id);
                }
                Ok(ids)
            },
        )?;
        ids.into_iter().map(|id| self.resolve_file_by_id(id)).collect()
    }

    /// Phase 1 of [`Mcs::create_files`], outside any transaction: every
    /// spec's name validation, collection resolution and authorization,
    /// and attribute type-checks, in input order. Reads only global
    /// state, so on a sharded catalog any shard's mirror answers alike.
    pub(crate) fn check_file_specs<'a>(
        &self,
        cred: &Credential,
        specs: &'a [FileSpec],
    ) -> Result<Vec<CheckedSpec<'a>>> {
        let mut checked = Vec::with_capacity(specs.len());
        for spec in specs {
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
            let attr_rows: Vec<[Value; 10]> = spec
                .attributes
                .iter()
                .map(|a| self.attr_row_values(ObjectType::File, a))
                .collect::<Result<_>>()?;
            checked.push(CheckedSpec {
                spec,
                version: spec.version.unwrap_or(1),
                collection_id,
                attr_rows,
            });
        }
        Ok(checked)
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
        // at any statement boundary leaves either the whole file or none
        // of it — never orphaned dependents.
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
                s.execute_prepared(&self.stmts.del_file_by_id, &[f.id.into()])?;
                s.execute_prepared(
                    &self.stmts.del_attrs_obj,
                    &[ObjectType::File.code().into(), f.id.into()],
                )?;
                s.execute_prepared(
                    &self.stmts.del_annot_obj,
                    &[ObjectType::File.code().into(), f.id.into()],
                )?;
                s.execute_prepared(&self.stmts.del_hist_file, &[f.id.into()])?;
                s.execute_prepared(
                    &self.stmts.del_acl_obj,
                    &[ObjectType::File.code().into(), f.id.into()],
                )?;
                s.execute_prepared(
                    &self.stmts.del_view_member,
                    &[ObjectType::File.code().into(), f.id.into()],
                )?;
                Ok(())
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
        let mut sets: Vec<&str> = Vec::new();
        let mut params: Vec<Value> = Vec::new();
        if let Some(dt) = &update.data_type {
            sets.push("data_type = ?");
            params.push(dt.as_str().into());
        }
        if let Some(v) = update.valid {
            sets.push("valid = ?");
            params.push(v.into());
        }
        if let Some(mc) = &update.master_copy {
            sets.push("master_copy = ?");
            params.push(mc.as_str().into());
        }
        if let Some(c) = &update.container_id {
            sets.push("container_id = ?");
            params.push(c.as_str().into());
        }
        if let Some(cs) = &update.container_service {
            sets.push("container_service = ?");
            params.push(cs.as_str().into());
        }
        sets.push("last_modifier = ?");
        params.push(cred.dn.as_str().into());
        sets.push("last_modified = ?");
        params.push(self.now());
        params.push(f.id.into());
        let sql = format!("UPDATE logical_files SET {} WHERE id = ?", sets.join(", "));
        self.txn(
            &[("audit_log", Access::Write), ("logical_files", Access::Write)],
            |s| {
                s.execute(&sql, &params)?;
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
            let res = s.execute_prepared(
                &self.stmts.ins_coll,
                &[
                    name.into(),
                    description.into(),
                    parent_id.map_or(Value::Null, Value::Int),
                    cred.dn.as_str().into(),
                    self.now(),
                ],
            );
            let res = match res {
                Err(relstore::Error::UniqueViolation { .. }) => {
                    return Err(McsError::AlreadyExists(name.to_owned()))
                }
                other => other?,
            };
            res.last_insert_id.ok_or_else(|| McsError::Internal("no insert id".into()))
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
                s.execute_prepared(&self.stmts.del_coll_by_id, &[c.id.into()])?;
                let obj = [Value::Int(ObjectType::Collection.code()), Value::Int(c.id)];
                s.execute_prepared(&self.stmts.del_attrs_obj, &obj)?;
                s.execute_prepared(&self.stmts.del_annot_obj, &obj)?;
                s.execute_prepared(&self.stmts.del_acl_obj, &obj)?;
                s.execute_prepared(&self.stmts.del_view_member, &obj)?;
                Ok(())
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
        self.exec(
            &self.stmts.upd_file_coll,
            &[new_id, cred.dn.as_str().into(), self.now(), f.id.into()],
        )?;
        Ok(())
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
    attr_rows: Vec<[Value; 10]>,
}

pub(crate) fn opt_str(s: &Option<String>) -> Value {
    match s {
        Some(s) => s.as_str().into(),
        None => Value::Null,
    }
}
