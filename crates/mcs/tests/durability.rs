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
