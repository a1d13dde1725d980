//! Bulk catalog population.
//!
//! The paper loaded databases of 100 k / 1 M / 5 M logical files before
//! measuring. Loading through the per-file service API would dominate
//! setup time, so — like any production catalog deployment — we provide a
//! bulk loader that writes the same rows through the storage engine with
//! batched multi-row prepared inserts. The resulting database is
//! byte-for-byte what the per-file API would have produced (asserted by
//! `bulk_loader_equivalent_to_api_loading` in `tests/end_to_end.rs`).
//!
//! [`build_sharded_catalog`] loads a hash-partitioned catalog
//! (DESIGN.md §7.4) the same way, with one writer thread per shard:
//! collections (global state) are written identically to every shard,
//! per-file rows only to the shard `mcs::shard_of_name` assigns them.

use std::sync::Arc;

use mcs::shard::Route;
use mcs::{Credential, IndexProfile, ManualClock, Mcs, ShardedCatalog};
use relstore::{Database, Value};

use crate::spec::{self, ATTR_NAMES, ATTR_TYPES, FILES_PER_COLLECTION};

/// A populated catalog ready for the evaluation drivers.
pub struct BuiltCatalog {
    /// The catalog.
    pub mcs: Arc<Mcs>,
    /// Superuser credential.
    pub admin: Credential,
    /// Number of logical files loaded.
    pub n_files: u64,
}

/// A populated hash-partitioned catalog (or a single-shard one wrapped in
/// the same interface).
pub struct BuiltShardedCatalog {
    /// The catalog.
    pub catalog: Arc<ShardedCatalog>,
    /// Superuser credential.
    pub admin: Credential,
    /// Number of logical files loaded.
    pub n_files: u64,
}

/// DN of the bulk loader / superuser.
pub const ADMIN_DN: &str = "/O=Grid/OU=ISI/CN=mcs-admin";

fn typed_null_row(name: Value, a: usize, v: Value) -> [Value; 8] {
    // columns: name, attr_type, str, int, float, date, time, datetime
    let mut row: [Value; 8] = [
        name,
        ATTR_TYPES[a].code().into(),
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
    ];
    let col = match ATTR_TYPES[a] {
        mcs::AttrType::Str => 2,
        mcs::AttrType::Int => 3,
        mcs::AttrType::Float => 4,
        mcs::AttrType::Date => 5,
        mcs::AttrType::Time => 6,
        mcs::AttrType::DateTime => 7,
    };
    row[col] = v;
    row
}

/// Batched insert of collection rows `0..n_colls` (auto-increment ids
/// from 1 in creation order).
fn insert_collections(db: &Arc<Database>, n_colls: u64, created: &Value) {
    let batch = 500usize;
    let one = "(?, ?, ?)";
    let sql_batch = format!(
        "INSERT INTO logical_collections (name, creator, created) VALUES {}",
        vec![one; batch].join(", ")
    );
    let prepared = db.prepare(&sql_batch).expect("prepare");
    let single = db
        .prepare("INSERT INTO logical_collections (name, creator, created) VALUES (?, ?, ?)")
        .expect("prepare");
    let mut params: Vec<Value> = Vec::with_capacity(batch * 3);
    let mut in_batch = 0usize;
    for c in 0..n_colls {
        params.push(spec::collection_name(c).into());
        params.push(ADMIN_DN.into());
        params.push(created.clone());
        in_batch += 1;
        if in_batch == batch {
            db.execute_prepared(&prepared, &params).expect("insert collections");
            params.clear();
            in_batch = 0;
        }
    }
    for chunk in params.chunks(3) {
        db.execute_prepared(&single, chunk).expect("insert collection");
    }
}

/// Batched insert of the file rows for the global indices yielded by
/// `files` (auto-increment ids from 1 in yield order).
fn insert_files(db: &Arc<Database>, files: impl Iterator<Item = u64>, created: &Value) {
    let batch = 500usize;
    let one = "(?, ?, ?, ?)";
    let sql_batch = format!(
        "INSERT INTO logical_files (name, collection_id, creator, created) VALUES {}",
        vec![one; batch].join(", ")
    );
    let prepared = db.prepare(&sql_batch).expect("prepare");
    let single = db
        .prepare(
            "INSERT INTO logical_files (name, collection_id, creator, created) \
             VALUES (?, ?, ?, ?)",
        )
        .expect("prepare");
    let mut params: Vec<Value> = Vec::with_capacity(batch * 4);
    let mut in_batch = 0usize;
    for i in files {
        params.push(spec::file_name(i).into());
        // collections auto-increment from 1 in creation order
        params.push(Value::Int(spec::collection_of(i) as i64 + 1));
        params.push(ADMIN_DN.into());
        params.push(created.clone());
        in_batch += 1;
        if in_batch == batch {
            db.execute_prepared(&prepared, &params).expect("insert files");
            params.clear();
            in_batch = 0;
        }
    }
    for chunk in params.chunks(4) {
        db.execute_prepared(&single, chunk).expect("insert file");
    }
}

/// Batched insert of the ten workload attributes for each
/// `(object_type, object_id, spec_index)` yielded by `objects`.
fn insert_attributes(db: &Arc<Database>, objects: impl Iterator<Item = (i64, i64, u64)>) {
    let batch = 100usize; // 100 × 10 attrs × 10 cols = 10k params
    let one = "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?)";
    let cols = "object_type, object_id, name, attr_type, str_value, int_value, \
                float_value, date_value, time_value, datetime_value";
    let sql_batch =
        format!("INSERT INTO user_attributes ({cols}) VALUES {}", vec![one; batch * 10].join(", "));
    let prepared = db.prepare(&sql_batch).expect("prepare");
    let sql_one = format!("INSERT INTO user_attributes ({cols}) VALUES {one}");
    let single = db.prepare(&sql_one).expect("prepare");
    // One name value per attribute, shared by all its rows.
    let names = ATTR_NAMES.map(Value::from);
    let mut params: Vec<Value> = Vec::with_capacity(batch * 100);
    let mut in_batch = 0usize;
    for (object_type, object_id, idx) in objects {
        for (a, name) in names.iter().enumerate() {
            params.push(Value::Int(object_type));
            params.push(Value::Int(object_id));
            let row = typed_null_row(name.clone(), a, spec::attr_value(a, idx));
            params.extend(row);
        }
        in_batch += 1;
        if in_batch == batch {
            db.execute_prepared(&prepared, &params).expect("insert attributes");
            params.clear();
            in_batch = 0;
        }
    }
    for chunk in params.chunks(10) {
        db.execute_prepared(&single, chunk).expect("insert attribute");
    }
}

/// Build and load a catalog with `n_files` logical files per the paper's
/// workload (§7): collections of 1000 files, ten typed attributes per
/// file and per collection, service opened to everyone.
pub fn build_catalog(n_files: u64, profile: IndexProfile) -> BuiltCatalog {
    build_catalog_with(n_files, profile, None)
}

/// [`build_catalog`] with an optional read cache (DESIGN.md §7.3) — the
/// fig14 A/B builds one cached catalog and measures it with and without
/// the per-request bypass.
pub fn build_catalog_with(
    n_files: u64,
    profile: IndexProfile,
    cache: Option<mcs::CacheConfig>,
) -> BuiltCatalog {
    build_catalog_opts(n_files, profile, cache, false)
}

/// [`build_catalog_with`] with the storage engine selectable: with
/// `mvcc` the catalog runs on an MVCC database (snapshot reads, no
/// shared barriers — DESIGN.md §7.5), loaded through the same bulk path.
pub fn build_catalog_opts(
    n_files: u64,
    profile: IndexProfile,
    cache: Option<mcs::CacheConfig>,
    mvcc: bool,
) -> BuiltCatalog {
    let admin = Credential::new(ADMIN_DN);
    let clock = Arc::new(ManualClock::default());
    let db = Arc::new(if mvcc { Database::new_mvcc() } else { Database::new() });
    let mcs =
        Arc::new(Mcs::with_database_cached(db, &admin, profile, clock, cache).expect("bootstrap"));
    mcs.allow_anyone(&admin).expect("open service");
    for (a, name) in ATTR_NAMES.iter().enumerate() {
        mcs.define_attribute(&admin, name, ATTR_TYPES[a], "evaluation workload attribute")
            .expect("define attribute");
    }
    let db = mcs.database();
    let created = Value::DateTime(spec::load_timestamp());
    let n_colls = n_files.div_ceil(FILES_PER_COLLECTION).max(1);

    insert_collections(db, n_colls, &created);
    insert_files(db, 0..n_files, &created);
    // files auto-increment from 1 in creation order
    insert_attributes(
        db,
        (0..n_files)
            .map(|i| (0i64, i as i64 + 1, i))
            .chain((0..n_colls).map(|c| (1i64, c as i64 + 1, c))),
    );

    BuiltCatalog { mcs, admin, n_files }
}

/// [`build_catalog_with`] for a hash-partitioned catalog, loading all
/// shards **in parallel** (one writer thread per shard — shards have
/// independent storage engines, so the load scales with the partition
/// count). With `shards <= 1` this is exactly the single-shard loader
/// wrapped in the [ShardedCatalog] interface.
pub fn build_sharded_catalog(
    n_files: u64,
    profile: IndexProfile,
    shards: usize,
    cache: Option<mcs::CacheConfig>,
) -> BuiltShardedCatalog {
    build_sharded_catalog_opts(n_files, profile, shards, cache, false)
}

/// [`build_sharded_catalog`] with the storage engine selectable (see
/// [`build_catalog_opts`]): with `mvcc` every shard serves snapshot
/// reads, so scatter-gather queries pin a per-shard snapshot vector.
pub fn build_sharded_catalog_opts(
    n_files: u64,
    profile: IndexProfile,
    shards: usize,
    cache: Option<mcs::CacheConfig>,
    mvcc: bool,
) -> BuiltShardedCatalog {
    if shards <= 1 {
        let built = build_catalog_opts(n_files, profile, cache, mvcc);
        return BuiltShardedCatalog {
            catalog: Arc::new(ShardedCatalog::from_single(built.mcs)),
            admin: built.admin,
            n_files,
        };
    }
    let admin = Credential::new(ADMIN_DN);
    let clock = Arc::new(ManualClock::default());
    let catalog = Arc::new(
        ShardedCatalog::in_memory(shards, &admin, profile, clock, cache, mvcc)
            .expect("bootstrap"),
    );
    catalog.run(Route::Global, |m| m.allow_anyone(&admin)).expect("open service");
    for (a, name) in ATTR_NAMES.iter().enumerate() {
        let desc = "evaluation workload attribute";
        catalog
            .run(Route::Global, |m| m.define_attribute(&admin, name, ATTR_TYPES[a], desc))
            .expect("define attribute");
    }
    let created = Value::DateTime(spec::load_timestamp());
    let n_colls = n_files.div_ceil(FILES_PER_COLLECTION).max(1);

    std::thread::scope(|s| {
        for k in 0..shards {
            let catalog = Arc::clone(&catalog);
            let created = created.clone();
            s.spawn(move || {
                let db = catalog.shard(k).database();
                // Collections are global state: identical rows — and
                // therefore identical ids — on every shard, exactly the
                // mirror the router maintains after each global write.
                insert_collections(db, n_colls, &created);
                // Per-file state lives only on the owning shard. Local
                // file ids auto-increment from 1 in insertion order.
                let owned = (0..n_files).filter(|i| {
                    mcs::shard_of_name(&spec::file_name(*i), shards) == k
                });
                insert_files(db, owned.clone(), &created);
                let file_attrs =
                    owned.enumerate().map(|(local, i)| (0i64, local as i64 + 1, i));
                if k == 0 {
                    // Collection attributes are global state on shard 0.
                    insert_attributes(
                        db,
                        file_attrs.chain((0..n_colls).map(|c| (1i64, c as i64 + 1, c))),
                    );
                } else {
                    insert_attributes(db, file_attrs);
                }
            });
        }
    });

    BuiltShardedCatalog { catalog, admin, n_files }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs::AttrPredicate;

    #[test]
    fn loads_expected_counts() {
        let built = build_catalog(2_500, IndexProfile::Paper2003);
        assert_eq!(built.mcs.file_count().unwrap(), 2_500);
        // 3 collections (1000+1000+500)
        let db = built.mcs.database();
        assert_eq!(db.table("logical_collections").unwrap().read().len(), 3);
        // 2500 files × 10 + 3 collections × 10 attributes
        assert_eq!(db.table("user_attributes").unwrap().read().len(), 25_030);
    }

    #[test]
    fn loaded_files_are_queryable_through_the_service() {
        let built = build_catalog(1_200, IndexProfile::Paper2003);
        let cred = Credential::new("/CN=anyone-at-all");
        // simple query
        let f = built.mcs.get_file(&cred, &spec::file_name(1_111)).unwrap();
        assert_eq!(f.collection_id, Some(2));
        // complex query for one file's attributes finds exactly it
        let hits = built.mcs.query_by_attributes(&cred, &spec::complex_query(777, 10)).unwrap();
        assert_eq!(hits, vec![(spec::file_name(777), 1)]);
        // collection listing
        let contents = built.mcs.list_collection(&cred, &spec::collection_name(1)).unwrap();
        assert_eq!(contents.files.len(), 200); // files 1000..1199
        // collection attributes exist
        let attrs = built
            .mcs
            .get_attributes(&cred, &mcs::ObjectRef::Collection(spec::collection_name(0)))
            .unwrap();
        assert_eq!(attrs.len(), 10);
    }

    #[test]
    fn partial_complex_queries_widen() {
        let built = build_catalog(2_000, IndexProfile::Paper2003);
        let cred = Credential::new("/CN=u");
        let narrow = built.mcs.query_by_attributes(&cred, &spec::complex_query(42, 10)).unwrap();
        let wide = built.mcs.query_by_attributes(&cred, &spec::complex_query(42, 1)).unwrap();
        assert_eq!(narrow.len(), 1);
        assert!(wide.len() > narrow.len());
        assert!(wide.contains(&(spec::file_name(42), 1)));
        let preds: Vec<AttrPredicate> = spec::complex_query(42, 10);
        assert_eq!(preds.len(), 10);
    }

    /// The sharded loader must answer exactly like the single-shard one.
    #[test]
    fn sharded_load_matches_single_shard_answers() {
        let single = build_sharded_catalog(2_500, IndexProfile::Paper2003, 1, None);
        let sharded = build_sharded_catalog(2_500, IndexProfile::Paper2003, 4, None);
        let cred = Credential::new("/CN=anyone-at-all");
        assert_eq!(single.catalog.file_count().unwrap(), 2_500);
        assert_eq!(sharded.catalog.file_count().unwrap(), 2_500);
        for i in [0u64, 777, 2_499] {
            let q = spec::complex_query(i, 10);
            assert_eq!(
                single.catalog.query_by_attributes(&cred, &q).unwrap(),
                sharded.catalog.query_by_attributes(&cred, &q).unwrap(),
            );
        }
        let wide = spec::complex_query(42, 1);
        assert_eq!(
            single.catalog.query_by_attributes(&cred, &wide).unwrap(),
            sharded.catalog.query_by_attributes(&cred, &wide).unwrap(),
        );
        for c in [0u64, 2] {
            assert_eq!(
                single.catalog.list_collection(&cred, &spec::collection_name(c)).unwrap(),
                sharded.catalog.list_collection(&cred, &spec::collection_name(c)).unwrap(),
            );
        }
        // collection attributes live on shard 0 and resolve globally
        let coll = mcs::ObjectRef::Collection(spec::collection_name(0));
        assert_eq!(
            sharded.catalog.run(Route::Zero, |m| m.get_attributes(&cred, &coll)).unwrap().len(),
            10
        );
    }
}
