//! The file-create path on every store layout — one in-memory shard,
//! four shards with the read cache, a durable MVCC store: `create_file`
//! and `create_files` return exactly the file `get_file` reads back
//! (no row is read back to build it), attribute lists around the 16-row
//! INSERT chunk land whole, and a duplicate attribute name fails its
//! batch before anything is written.

use std::path::PathBuf;
use std::sync::Arc;

use mcs::shard::Route;
use mcs::*;
use relstore::{Date, DateTime, Value};

/// One catalog under test, with what is needed to reopen it.
struct Store {
    name: &'static str,
    catalog: ShardedCatalog,
    clock: Arc<ManualClock>,
    /// The durable store's directory.
    dir: Option<PathBuf>,
}

impl Store {
    /// Drop the catalog; reopen a durable one from its log and hand it
    /// to `check`, then remove its directory.
    fn reopen_then(self, check: impl FnOnce(&ShardedCatalog)) {
        let Store { catalog, clock, dir, .. } = self;
        drop(catalog);
        if let Some(dir) = dir {
            let reopened = ShardedCatalog::open(
                &dir,
                &admin(),
                IndexProfile::ValueIndexed,
                clock,
                durable_config(),
            )
            .unwrap();
            check(&reopened);
            drop(reopened);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

fn admin() -> Credential {
    Credential::new("/O=Grid/OU=ISI/CN=admin")
}

fn durable_config() -> StoreConfig {
    StoreConfig { sync: SyncPolicy::OsBuffered, ..StoreConfig::default() }.with_mvcc()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcs-create-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The three layouts, each with the attributes `a00..a39` defined
/// (types cycling Str, Int, Float, Date, DateTime) and collections
/// `c1`, `c2`. The clock is past its epoch so `created` is not zero.
fn stores(tag: &str) -> Vec<Store> {
    let a = admin();
    let clock = || Arc::new(ManualClock::starting_at(1_066_262_400));
    let mut out = Vec::new();
    let c = clock();
    let one = ShardedCatalog::in_memory(1, &a, IndexProfile::Paper2003, c.clone(), None, false);
    out.push(Store { name: "1 shard", catalog: one.unwrap(), clock: c, dir: None });
    let c = clock();
    let cache = Some(CacheConfig::default());
    let four =
        ShardedCatalog::in_memory(4, &a, IndexProfile::ValueIndexed, c.clone(), cache, false);
    out.push(Store { name: "4 shards", catalog: four.unwrap(), clock: c, dir: None });
    let (c, dir) = (clock(), tmpdir(tag));
    let mvcc =
        ShardedCatalog::open(&dir, &a, IndexProfile::ValueIndexed, c.clone(), durable_config());
    out.push(Store { name: "durable mvcc", catalog: mvcc.unwrap(), clock: c, dir: Some(dir) });
    for s in &out {
        for i in 0..40 {
            let ty = TYPES[i % TYPES.len()];
            s.catalog
                .run(Route::Global, |m| m.define_attribute(&a, &attr_name(i), ty, ""))
                .unwrap();
        }
        for coll in ["c1", "c2"] {
            s.catalog.run(Route::Global, |m| m.create_collection(&a, coll, None, "")).unwrap();
        }
        s.clock.advance(60);
    }
    out
}

const TYPES: [AttrType; 5] =
    [AttrType::Str, AttrType::Int, AttrType::Float, AttrType::Date, AttrType::DateTime];

fn attr_name(i: usize) -> String {
    format!("a{i:02}")
}

/// Attribute `i` of a file, its value drawn from `seed`.
fn attr(i: usize, seed: i64) -> Attribute {
    let value = match TYPES[i % TYPES.len()] {
        AttrType::Str => Value::from(format!("v{seed}-{i}")),
        AttrType::Int => Value::Int(seed * 100 + i as i64),
        AttrType::Float => Value::Float(seed as f64 + i as f64 / 4.0),
        AttrType::Date => Value::Date(Date::from_days_from_epoch(12_000 + seed + i as i64)),
        _ => Value::DateTime(DateTime::from_seconds_from_epoch(1_000_000 + seed + i as i64)),
    };
    Attribute { name: attr_name(i), value }
}

fn spec_with_attrs(name: &str, n: usize, seed: i64) -> FileSpec {
    FileSpec { attributes: (0..n).map(|i| attr(i, seed)).collect(), ..FileSpec::named(name) }
}

/// Specs that between them set and leave unset every field a create
/// writes: version, data type, collection, container id and service,
/// master copy, audit on and off, and attributes.
fn varied_specs(prefix: &str) -> Vec<FileSpec> {
    vec![
        FileSpec::named(format!("{prefix}-bare")),
        FileSpec {
            version: Some(3),
            data_type: Some("binary".into()),
            collection: Some("c1".into()),
            container_id: Some("tar-0007".into()),
            container_service: Some("http://containers.isi.edu".into()),
            master_copy: Some("gsiftp://ldas.ligo.caltech.edu/f1.gwf".into()),
            audit: true,
            ..spec_with_attrs(&format!("{prefix}-full"), 10, 1)
        },
        FileSpec {
            collection: Some("c2".into()),
            data_type: Some(String::new()),
            audit: false,
            ..spec_with_attrs(&format!("{prefix}-coll"), 3, 2)
        },
        FileSpec {
            master_copy: Some("gsiftp://h/x".into()),
            audit: true,
            ..spec_with_attrs(&format!("{prefix}-audited"), 17, 3)
        },
    ]
}

/// What the catalog reads back for a created file, through the read
/// path a client would use.
fn read_back(sc: &ShardedCatalog, cred: &Credential, f: &LogicalFile) -> LogicalFile {
    sc.run(Route::Owner(&f.name), |m| m.get_file_version(cred, &f.name, f.version)).unwrap()
}

fn attrs_of(sc: &ShardedCatalog, cred: &Credential, f: &LogicalFile) -> Vec<Attribute> {
    let object = ObjectRef::FileVersion(f.name.clone(), f.version);
    sc.run(Route::Owner(&f.name), |m| m.get_attributes(cred, &object)).unwrap()
}

fn sorted(mut attrs: Vec<Attribute>) -> Vec<Attribute> {
    attrs.sort_by(|a, b| a.name.cmp(&b.name));
    attrs
}

#[test]
fn created_files_equal_what_get_file_reads_back() {
    let a = admin();
    for s in stores("equal") {
        let sc = &s.catalog;
        let mut made = Vec::new();
        let at = s.clock.now();
        for spec in varied_specs("one") {
            let f = sc.run(Route::Member(&spec.name), |m| m.create_file(&a, &spec)).unwrap();
            made.push((spec, at, f));
        }
        s.clock.advance(7);
        let (at, batch) = (s.clock.now(), varied_specs("many"));
        let files = sc.create_files(&a, &batch).unwrap();
        made.extend(batch.into_iter().zip(files).map(|(spec, f)| (spec, at, f)));
        for (spec, at, f) in &made {
            let ctx = format!("{}: {}", s.name, spec.name);
            // every field, against the spec and the clock ...
            assert_eq!(f.name, spec.name, "{ctx}");
            assert_eq!(f.version, spec.version.unwrap_or(1), "{ctx}");
            assert_eq!(f.data_type, spec.data_type, "{ctx}");
            assert!(f.valid, "{ctx}");
            let coll = spec
                .collection
                .as_ref()
                .map(|c| sc.run(Route::Zero, |m| m.get_collection(&a, c)).unwrap().id);
            assert_eq!(f.collection_id, coll, "{ctx}");
            assert_eq!(f.container_id, spec.container_id, "{ctx}");
            assert_eq!(f.container_service, spec.container_service, "{ctx}");
            assert_eq!(f.creator, a.dn, "{ctx}");
            assert_eq!(f.created, *at, "{ctx}");
            assert_eq!((f.last_modifier.as_deref(), f.last_modified), (None, None), "{ctx}");
            assert_eq!(f.master_copy, spec.master_copy, "{ctx}");
            assert_eq!(f.audit_enabled, spec.audit, "{ctx}");
            // ... and exactly what the catalog reads back, id included
            assert_eq!(&read_back(sc, &a, f), f, "{ctx}");
            assert_eq!(attrs_of(sc, &a, f), sorted(spec.attributes.clone()), "{ctx}");
        }
        let name = s.name;
        s.reopen_then(|sc| {
            for (_, _, f) in &made {
                assert_eq!(&read_back(sc, &a, f), f, "{name} reopened: {}", f.name);
            }
        });
    }
}

/// Attribute lists of 0, 1, 16 (one full INSERT), 17 and 33 (a full
/// chunk or two and a remainder) through both calls.
#[test]
fn attribute_lists_around_the_insert_chunk_land_whole() {
    let a = admin();
    const COUNTS: [usize; 5] = [0, 1, 16, 17, 33];
    for s in stores("chunks") {
        let sc = &s.catalog;
        let mut made = Vec::new();
        for n in COUNTS {
            let spec = spec_with_attrs(&format!("one-{n}"), n, n as i64);
            let f = sc.run(Route::Member(&spec.name), |m| m.create_file(&a, &spec)).unwrap();
            made.push((spec, f));
        }
        let batch: Vec<FileSpec> = COUNTS
            .iter()
            .map(|&n| spec_with_attrs(&format!("many-{n}"), n, 100 + n as i64))
            .collect();
        made.extend(batch.iter().cloned().zip(sc.create_files(&a, &batch).unwrap()));
        let name = s.name;
        let check = |sc: &ShardedCatalog, when: &str| {
            for (spec, f) in &made {
                let got = attrs_of(sc, &a, f);
                let ctx = format!("{name} {when}: {}", spec.name);
                assert_eq!(got.len(), spec.attributes.len(), "{ctx}");
                assert_eq!(got, sorted(spec.attributes.clone()), "{ctx}");
            }
        };
        check(sc, "live");
        s.reopen_then(|sc| check(sc, "reopened"));
    }
}

/// A duplicate attribute name in spec `k` of a batch fails the batch
/// with `BadAttribute` naming the attribute, ranks with the type checks
/// (ahead of any spec's `AlreadyExists`, behind an earlier spec's type
/// error), and writes nothing.
#[test]
fn duplicate_attribute_fails_its_batch_before_any_write() {
    let a = admin();
    for s in stores("dup") {
        let sc = &s.catalog;
        let taken = spec_with_attrs("taken", 2, 0);
        sc.run(Route::Member("taken"), |m| m.create_file(&a, &taken)).unwrap();
        let files_before = sc.file_count().unwrap();
        for k in 0..3 {
            let mut batch: Vec<FileSpec> =
                (0..3).map(|j| spec_with_attrs(&format!("d{k}-{j}"), 4, j)).collect();
            batch[k].attributes.push(attr(2, 9));
            let err = sc.create_files(&a, &batch).unwrap_err();
            let ctx = format!("{}: duplicate in spec {k}", s.name);
            assert_eq!(err, McsError::BadAttribute("duplicate attribute `a02`".into()), "{ctx}");
            // ahead of an existing name, before or after it in the batch
            for at in [0, 2] {
                let mut clash = batch.clone();
                clash[at] = FileSpec { attributes: vec![], ..taken.clone() };
                if at != k {
                    let err = sc.create_files(&a, &clash).unwrap_err();
                    assert!(
                        matches!(err, McsError::BadAttribute(ref m) if m.contains("a02")),
                        "{ctx}"
                    );
                }
            }
            // behind an earlier spec's type error
            if k > 0 {
                let mut typed = batch.clone();
                typed[0].attributes[1].value = Value::from("not an int");
                let err = sc.create_files(&a, &typed).unwrap_err();
                assert_eq!(err, McsError::BadAttribute("`a01` is Int, got Str".into()), "{ctx}");
            }
            // the single-file call reports it too
            let one = &batch[k];
            let err = sc.run(Route::Member(&one.name), |m| m.create_file(&a, one)).unwrap_err();
            assert_eq!(err, McsError::BadAttribute("duplicate attribute `a02`".into()), "{ctx}");
            assert_eq!(sc.file_count().unwrap(), files_before, "{ctx}: a file was written");
            for spec in &batch {
                let got = sc.run(Route::Owner(&spec.name), |m| m.get_file(&a, &spec.name));
                assert!(matches!(got, Err(McsError::NotFound(_))), "{ctx}: {}", spec.name);
            }
        }
        s.reopen_then(|sc| assert_eq!(sc.file_count().unwrap(), files_before));
    }
}
