//! The catalog on a durable database: metadata, attributes, policies and
//! audit trails survive a restart (the implicit durability MySQL gave the
//! 2003 deployment).

use std::sync::Arc;

use mcs::{
    AttrPredicate, AttrType, Credential, FileSpec, IndexProfile, ManualClock, Mcs, ObjectRef,
    Permission,
};
use relstore::{Database, SyncPolicy};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcs-durable-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(dir: &std::path::Path, admin: &Credential) -> Mcs {
    let db = Database::open_durable(dir, SyncPolicy::OsBuffered).unwrap();
    Mcs::with_database(db, admin, IndexProfile::Paper2003, Arc::new(ManualClock::default()))
        .unwrap()
}

#[test]
fn catalog_survives_restart() {
    let dir = tmpdir("basic");
    let admin = Credential::new("/CN=admin");
    {
        let m = open(&dir, &admin);
        m.define_attribute(&admin, "ch", AttrType::Str, "").unwrap();
        m.create_collection(&admin, "run", None, "science run").unwrap();
        m.create_file(&admin, &FileSpec::named("f1").in_collection("run").attr("ch", "H1"))
            .unwrap();
        m.annotate(&admin, &ObjectRef::File("f1".into()), "note").unwrap();
        m.grant(&admin, &ObjectRef::File("f1".into()), "/CN=reader", Permission::Read).unwrap();
    } // crash: process drops the catalog with no checkpoint

    let m = open(&dir, &admin);
    // metadata intact
    let f = m.get_file(&admin, "f1").unwrap();
    assert_eq!(f.collection_id, Some(1));
    // attributes queryable
    let hits = m.query_by_attributes(&admin, &[AttrPredicate::eq("ch", "H1")]).unwrap();
    assert_eq!(hits, vec![("f1".to_string(), 1)]);
    // annotations intact
    assert_eq!(m.get_annotations(&admin, &ObjectRef::File("f1".into())).unwrap().len(), 1);
    // policies intact: the reader's grant survived, a stranger is denied
    let reader = Credential::new("/CN=reader");
    assert!(m.get_file(&reader, "f1").is_ok());
    let stranger = Credential::new("/CN=stranger");
    assert!(m.get_file(&stranger, "f1").is_err());
    // and the admin's bootstrap ACL was not re-granted away / duplicated
    m.create_file(&admin, &FileSpec::named("f2").attr("ch", "L1")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_then_more_writes_then_crash() {
    let dir = tmpdir("ckpt");
    let admin = Credential::new("/CN=admin");
    {
        let m = open(&dir, &admin);
        m.define_attribute(&admin, "n", AttrType::Int, "").unwrap();
        for i in 0..20i64 {
            m.create_file(&admin, &FileSpec::named(format!("f{i}")).attr("n", i)).unwrap();
        }
        m.database().checkpoint().unwrap();
        for i in 20..30i64 {
            m.create_file(&admin, &FileSpec::named(format!("f{i}")).attr("n", i)).unwrap();
        }
        m.delete_file(&admin, "f0").unwrap();
    }
    let m = open(&dir, &admin);
    assert_eq!(m.file_count().unwrap(), 29);
    let hits = m
        .query_by_attributes(
            &admin,
            &[AttrPredicate { name: "n".into(), op: mcs::AttrOp::Ge, value: 25i64.into() }],
        )
        .unwrap();
    assert_eq!(hits.len(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn second_admin_does_not_hijack_existing_catalog() {
    let dir = tmpdir("hijack");
    let admin = Credential::new("/CN=admin");
    {
        let m = open(&dir, &admin);
        m.create_file(&admin, &FileSpec::named("f")).unwrap();
    }
    // an attacker reopening the durable directory with their own DN must
    // not become an admin: bootstrap ACLs only apply to a fresh database
    let attacker = Credential::new("/CN=attacker");
    let m = open(&dir, &attacker);
    assert!(m.get_file(&attacker, "f").is_err());
    assert!(m.create_file(&attacker, &FileSpec::named("g")).is_err());
    // the real admin still works
    assert!(m.get_file(&admin, "f").is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// A store whose typed value indexes still have the two-column
/// `(name, value)` definition — built here through relstore on a catalog
/// bootstrapped without them — is brought to the
/// `(name, value, object_type, object_id)` definition when the catalog
/// opens it, by logged DDL, once: the next open replays that DDL and
/// logs nothing more. Every answer stays what it was.
#[test]
fn old_two_column_typed_indexes_are_rebuilt_once_on_open() {
    const OLD_VALUE_INDEX_DDL: &str = "
        CREATE INDEX ua_name_str ON user_attributes (name, str_value);
        CREATE INDEX ua_name_int ON user_attributes (name, int_value);
        CREATE INDEX ua_name_float ON user_attributes (name, float_value);
        CREATE INDEX ua_name_date ON user_attributes (name, date_value);
        CREATE INDEX ua_name_time ON user_attributes (name, time_value);
        CREATE INDEX ua_name_datetime ON user_attributes (name, datetime_value);
    ";
    let dir = tmpdir("upgrade");
    let admin = Credential::new("/CN=admin");
    let queries = [
        vec![AttrPredicate::eq("site", "s1")],
        vec![
            AttrPredicate { name: "run".into(), op: mcs::AttrOp::Ge, value: 20i64.into() },
            AttrPredicate::eq("site", "s2"),
        ],
        vec![
            AttrPredicate { name: "site".into(), op: mcs::AttrOp::Like, value: "s_%".into() },
            AttrPredicate { name: "run".into(), op: mcs::AttrOp::Lt, value: 9i64.into() },
            AttrPredicate::eq("site", "s0"),
        ],
    ];
    let before: Vec<_> = {
        let m = open(&dir, &admin);
        m.database().execute_script(OLD_VALUE_INDEX_DDL).unwrap();
        m.define_attribute(&admin, "site", AttrType::Str, "").unwrap();
        m.define_attribute(&admin, "run", AttrType::Int, "").unwrap();
        for i in 0..40i64 {
            let spec = FileSpec::named(format!("f{i:02}"))
                .attr("site", format!("s{}", i % 3))
                .attr("run", i);
            m.create_file(&admin, &spec).unwrap();
        }
        m.delete_file(&admin, "f07").unwrap();
        let t = m.database().table("user_attributes").unwrap();
        assert_eq!(t.read().index("ua_name_int").unwrap().def.columns.len(), 2);
        queries.iter().map(|q| m.query_by_attributes(&admin, q).unwrap()).collect()
    };
    assert!(before.iter().all(|hits| !hits.is_empty()), "{before:?}");

    let wal = dir.join("wal.log");
    let reopen = || {
        let cfg = mcs::StoreConfig { sync: SyncPolicy::OsBuffered, ..Default::default() };
        let clock = Arc::new(ManualClock::default());
        Mcs::open_durable(&dir, &admin, IndexProfile::ValueIndexed, clock, cfg).unwrap()
    };
    let mut len = std::fs::metadata(&wal).unwrap().len();
    for pass in 0..2 {
        let m = reopen();
        let t = m.database().table("user_attributes").unwrap();
        for name in ["ua_name_str", "ua_name_int", "ua_name_float", "ua_name_date"] {
            let t = t.read();
            let ix = t.index(name).unwrap();
            assert_eq!(ix.def.columns.len(), 4, "pass {pass}: {name}");
            assert!(ix.is_tail_ordered(), "pass {pass}: {name}");
        }
        t.read().check_integrity().unwrap();
        for (q, want) in queries.iter().zip(&before) {
            assert_eq!(&m.query_by_attributes(&admin, q).unwrap(), want, "pass {pass}: {q:?}");
            let plan = m.explain_query(&admin, q).unwrap();
            assert!(plan[0].contains("via index ua_name_"), "pass {pass}: {plan:?}");
        }
        drop(t);
        drop(m);
        let now = std::fs::metadata(&wal).unwrap().len();
        if pass == 0 {
            assert!(now > len, "the rebuild was not logged");
        } else {
            assert_eq!(now, len, "the second open logged DDL again");
        }
        len = now;
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The ten attributes of the evaluation workload's files (two of each
/// stored type), with file `i`'s values.
fn workload_attributes(m: &Mcs, admin: &Credential) {
    for (name, ty) in WORKLOAD_ATTRS {
        m.define_attribute(admin, name, ty, "").unwrap();
    }
}

const WORKLOAD_ATTRS: [(&str, AttrType); 10] = [
    ("wl_site", AttrType::Str),
    ("wl_type", AttrType::Str),
    ("wl_seq", AttrType::Int),
    ("wl_coll", AttrType::Int),
    ("wl_freq", AttrType::Float),
    ("wl_snr", AttrType::Float),
    ("wl_date", AttrType::Date),
    ("wl_caldate", AttrType::Date),
    ("wl_start", AttrType::DateTime),
    ("wl_end", AttrType::DateTime),
];

fn workload_spec(name: &str, i: i64) -> FileSpec {
    use relstore::{Date, DateTime, Value};
    let values: [Value; 10] = [
        format!("site_{:02}", i % 50).into(),
        format!("type_{:02}", i % 20).into(),
        Value::Int(i % 1000),
        Value::Int(i / 1000),
        Value::Float((i % 997) as f64 * 0.5),
        Value::Float((i % 101) as f64 * 1.25),
        Value::Date(Date::from_days_from_epoch(12_341 + i % 365)),
        Value::Date(Date::from_days_from_epoch(12_341 + i % 30)),
        Value::DateTime(DateTime::from_seconds_from_epoch(1_066_262_400 + (i % 86_400) * 7)),
        Value::DateTime(DateTime::from_seconds_from_epoch(1_066_262_400 + (i % 3_600) * 11)),
    ];
    let mut spec = FileSpec::named(name);
    for ((attr, _), v) in WORKLOAD_ATTRS.iter().zip(values) {
        spec = spec.attr(*attr, v);
    }
    spec
}

fn wal_len(dir: &std::path::Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).unwrap().len()
}

/// A create of a file with the workload's ten attributes logs three
/// row records — the file row, its ten attribute rows and, when
/// audited, the audit row: 819 B, or 936 B audited, where three SQL
/// statements (one multi-row attribute INSERT) logged 1,247 B and
/// 1,442 B, and one statement per attribute row 2,885 B and 3,080 B.
/// Pinned: under 1,300 B unaudited (the benchmark's publish shape),
/// under 1,500 B audited.
#[test]
fn ten_attribute_create_logs_three_statements() {
    let dir = tmpdir("create-bytes");
    let admin = Credential::new("/CN=admin");
    let m = open(&dir, &admin);
    workload_attributes(&m, &admin);
    m.create_file(&admin, &workload_spec("lfn.000000001.dat", 1)).unwrap();
    let logged = |name: &str, audit: bool| {
        let before = wal_len(&dir);
        let spec = FileSpec { audit, ..workload_spec(name, 12_345) };
        m.create_file(&admin, &spec).unwrap();
        wal_len(&dir) - before
    };
    let plain = logged("lfn.000012345.dat", false);
    let audited = logged("lfn.000012346.dat", true);
    assert!(plain < 1_300, "one 10-attribute create logged {plain} B");
    assert!(audited < 1_500, "one 10-attribute audited create logged {audited} B");
    drop(m);
    std::fs::remove_dir_all(&dir).ok();
}

/// A create run as the earlier create path's SQL — one single-row INSERT
/// per attribute — recovers to the same catalog as one made by today's
/// typed writes: the same file fields, attributes, audit trail and query
/// answers. SQL writes log row images like typed ones; what the
/// statement logs of earlier releases recover to is pinned by relstore's
/// `wal_golden` corpus.
#[test]
fn single_row_attribute_log_replays_like_a_multi_row_one() {
    use relstore::{Access, Value};
    let dir = tmpdir("old-shape");
    let admin = Credential::new("/CN=admin");
    let clock = Arc::new(ManualClock::starting_at(1_066_262_400));
    let reopen = || {
        let db = Database::open_durable(&dir, SyncPolicy::OsBuffered).unwrap();
        Mcs::with_database(db, &admin, IndexProfile::ValueIndexed, clock.clone()).unwrap()
    };
    let old_spec = FileSpec { audit: true, ..workload_spec("old", 77) };
    let new_spec = FileSpec { audit: true, ..workload_spec("new", 77) };
    {
        let m = reopen();
        workload_attributes(&m, &admin);
        // The earlier create path's statements, verbatim, in one transaction.
        let at = Value::DateTime(relstore::DateTime::from_seconds_from_epoch(1_066_262_400));
        m.database()
            .transaction(
                &[
                    ("audit_log", Access::Write),
                    ("logical_files", Access::Write),
                    ("user_attributes", Access::Write),
                ],
                |s| {
                    let id = s
                        .execute(
                            "INSERT INTO logical_files (name, version, data_type, valid, \
                             collection_id, container_id, container_service, creator, created, \
                             master_copy, audit_enabled) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                            &[
                                "old".into(),
                                1i64.into(),
                                Value::Null,
                                true.into(),
                                Value::Null,
                                Value::Null,
                                Value::Null,
                                admin.dn.as_str().into(),
                                at.clone(),
                                Value::Null,
                                true.into(),
                            ],
                        )?
                        .last_insert_id
                        .unwrap();
                    for a in &old_spec.attributes {
                        let ty = WORKLOAD_ATTRS.iter().find(|(n, _)| *n == a.name).unwrap().1;
                        let mut row = vec![Value::Null; 10];
                        row[0] = 0i64.into();
                        row[1] = id.into();
                        row[2] = a.name.as_str().into();
                        row[3] = ty.code().into();
                        row[4 + ty as usize] = a.value.clone();
                        s.execute(
                            "INSERT INTO user_attributes (object_type, object_id, name, \
                             attr_type, str_value, int_value, float_value, date_value, \
                             time_value, datetime_value) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                            &row,
                        )?;
                    }
                    s.execute(
                        "INSERT INTO audit_log (object_type, object_id, action, actor, at, \
                         details) VALUES (?, ?, ?, ?, ?, ?)",
                        &[
                            0i64.into(),
                            id.into(),
                            "create".into(),
                            admin.dn.as_str().into(),
                            at,
                            "old".into(),
                        ],
                    )?;
                    Ok::<_, relstore::Error>(())
                },
            )
            .unwrap();
        m.create_file(&admin, &new_spec).unwrap();
    } // crash: no checkpoint, both creates live only in the log

    let m = reopen();
    let (old, new) = (m.get_file(&admin, "old").unwrap(), m.get_file(&admin, "new").unwrap());
    assert_eq!((old.id, new.id), (1, 2));
    assert_eq!(mcs::LogicalFile { id: 2, name: "new".into(), ..old }, new);
    let attrs = |name: &str| m.get_attributes(&admin, &ObjectRef::File(name.into())).unwrap();
    assert_eq!(attrs("old"), attrs("new"));
    assert_eq!(attrs("new").len(), 10);
    let preds: Vec<AttrPredicate> =
        new_spec.attributes.iter().map(|a| AttrPredicate::eq(&a.name, a.value.clone())).collect();
    let hits = m.query_by_attributes(&admin, &preds).unwrap();
    assert_eq!(hits, vec![("new".to_string(), 1), ("old".to_string(), 1)]);
    let audit = m.get_audit_trail(&admin, &ObjectRef::File("old".into())).unwrap();
    assert_eq!(audit.iter().filter(|r| r.action == "create").count(), 1);
    let audit = m.get_audit_trail(&admin, &ObjectRef::File("new".into())).unwrap();
    assert_eq!(audit.iter().filter(|r| r.action == "create").count(), 1);
    drop(m);
    std::fs::remove_dir_all(&dir).ok();
}

/// What a reopened catalog says about file `name`: its id and its
/// attributes.
fn file_and_attrs(m: &Mcs, admin: &Credential, name: &str) -> (i64, Vec<mcs::Attribute>) {
    let id = m.get_file(admin, name).unwrap().id;
    (id, m.get_attributes(admin, &ObjectRef::File(name.into())).unwrap())
}

/// A create that fails with `AlreadyExists` takes no file id: recovery,
/// which never sees the failed create, gives the next file the id it had
/// before the crash, so its attribute rows still point at it.
#[test]
fn failed_create_leaves_the_next_files_attributes_intact() {
    let dir = tmpdir("failed-create");
    let admin = Credential::new("/CN=admin");
    let before = {
        let m = open(&dir, &admin);
        m.define_attribute(&admin, "ch", AttrType::Str, "").unwrap();
        m.create_file(&admin, &FileSpec::named("a").attr("ch", "H1")).unwrap();
        let again = m.create_file(&admin, &FileSpec::named("a").attr("ch", "H1"));
        assert!(matches!(again, Err(mcs::McsError::AlreadyExists(_))), "{again:?}");
        m.create_file(&admin, &FileSpec::named("b").attr("ch", "L1")).unwrap();
        file_and_attrs(&m, &admin, "b")
    }; // crash: no checkpoint
    assert_eq!(before.1.len(), 1);
    let m = open(&dir, &admin);
    assert_eq!(file_and_attrs(&m, &admin, "b"), before);
    drop(m);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint taken after the file with the highest id was deleted
/// keeps the id counter where it was: the file created after it reopens
/// with the id its attribute rows carry.
#[test]
fn checkpoint_after_delete_keeps_the_next_files_attributes_intact() {
    let dir = tmpdir("ckpt-after-delete");
    let admin = Credential::new("/CN=admin");
    let before = {
        let m = open(&dir, &admin);
        m.define_attribute(&admin, "ch", AttrType::Str, "").unwrap();
        m.create_file(&admin, &FileSpec::named("a").attr("ch", "H1")).unwrap();
        m.create_file(&admin, &FileSpec::named("b").attr("ch", "H2")).unwrap();
        m.delete_file(&admin, "b").unwrap();
        m.database().checkpoint().unwrap();
        m.create_file(&admin, &FileSpec::named("c").attr("ch", "L1")).unwrap();
        file_and_attrs(&m, &admin, "c")
    }; // crash: no checkpoint after the create
    assert_eq!(before.1.len(), 1);
    let m = open(&dir, &admin);
    assert_eq!(file_and_attrs(&m, &admin, "c"), before);
    drop(m);
    std::fs::remove_dir_all(&dir).ok();
}
