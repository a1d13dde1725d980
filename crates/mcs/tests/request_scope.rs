//! The request scope as a value (DESIGN.md §7.9): a scoped write echoes
//! the epoch of its own catalog's commit whatever the thread committed
//! elsewhere before, and a scope's cache and planner bypasses reach every
//! shard a scatter-gather touches.

use std::path::PathBuf;
use std::sync::Arc;

use mcs::shard::Route;
use mcs::{
    AttrOp, AttrPredicate, AttrType, Attribute, CacheConfig, CollectionContents, Credential,
    Durability, FileSpec, IndexProfile, ManualClock, Mcs, OpCtx, QueryExpr, ShardedCatalog,
    StaticPredicate, StoreConfig, SyncPolicy,
};
use relstore::Value;

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mcs-scope-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn durable(dir: &std::path::Path) -> Mcs {
    let cfg = StoreConfig { sync: SyncPolicy::OsBuffered, ..StoreConfig::default() };
    let clock = Arc::new(ManualClock::default());
    Mcs::open_durable(dir, &admin(), IndexProfile::Paper2003, clock, cfg).unwrap()
}

/// One thread takes durable catalog A's epochs well past B's, then makes
/// one scoped write on durable catalog B. The echo is B's commit: epochs
/// are per database, so it must not be judged against A's counter.
#[test]
fn scoped_write_echoes_its_own_catalogs_epoch() {
    let (a_dir, b_dir) = (tmpdir("a"), tmpdir("b"));
    let a = durable(&a_dir);
    for i in 0..20 {
        a.create_file(&admin(), &FileSpec::named(format!("a{i}.dat"))).unwrap();
    }
    let b = ShardedCatalog::from_single(Arc::new(durable(&b_dir)));
    let always = OpCtx { durability: Some(Durability::Always), ..OpCtx::default() };
    let spec = FileSpec::named("b.dat");
    let (file, outcome) = b.scoped(always.clone(), |c| {
        c.run(Route::Member(&spec.name), |m| m.create_file(&admin(), &spec))
    });
    file.unwrap();
    assert!(a.commit_epoch() > outcome.epoch, "harness: A's epochs must run ahead of B's");
    assert_eq!(outcome.epoch, b.commit_epochs()[0]);
    assert_eq!(outcome.shard, 0);

    // The same write through a catalog handle.
    let spec = FileSpec::named("b2.dat");
    let (file, outcome) = b.shard(0).scoped(always, |m| m.create_file(&admin(), &spec));
    file.unwrap();
    assert_eq!(outcome.epoch, b.shard(0).commit_epoch());
    assert_eq!(outcome.shard, 0);
    drop((a, b));
    for d in [a_dir, b_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

type Answers = (Vec<(String, i64)>, Vec<(String, i64)>, CollectionContents);

fn site(i: i64) -> Value {
    ["cern", "fnal"][i as usize % 2].into()
}

/// A cache or planner bypass in a request's scope reaches every shard of
/// a fan-out: no shard's cache counts a hit or a miss, and the answers
/// are those of the same calls without the scope. On both engines.
#[test]
fn bypass_scopes_reach_every_shard() {
    let a = admin();
    let preds = vec![
        AttrPredicate { name: "run".into(), op: AttrOp::Ge, value: Value::Int(10) },
        AttrPredicate::eq("site", "cern"),
    ];
    let expr = QueryExpr::Or(vec![
        QueryExpr::Attr(AttrPredicate::eq("site", "fnal")),
        QueryExpr::And(vec![
            QueryExpr::Attr(AttrPredicate { name: "run".into(), op: AttrOp::Lt, value: 9.into() }),
            QueryExpr::Static(StaticPredicate::InCollection("c".into())),
        ]),
    ]);
    let run_all = |c: &ShardedCatalog| -> Answers {
        (
            c.query_by_attributes(&a, &preds).unwrap(),
            c.general_query(&a, &expr).unwrap(),
            c.list_collection(&a, "c").unwrap(),
        )
    };
    for mvcc in [false, true] {
        let clock = Arc::new(ManualClock::default());
        let cache = Some(CacheConfig::default());
        let sc = ShardedCatalog::in_memory(4, &a, IndexProfile::ValueIndexed, clock, cache, mvcc)
            .unwrap();
        sc.run(Route::Global, |m| m.define_attribute(&a, "run", AttrType::Int, "")).unwrap();
        sc.run(Route::Global, |m| m.define_attribute(&a, "site", AttrType::Str, "")).unwrap();
        sc.run(Route::Global, |m| m.create_collection(&a, "c", None, "")).unwrap();
        for i in 0..40i64 {
            let spec = FileSpec {
                name: format!("f{i:02}.dat"),
                collection: (i % 3 == 0).then(|| "c".into()),
                attributes: vec![
                    Attribute { name: "run".into(), value: Value::Int(i) },
                    Attribute { name: "site".into(), value: site(i) },
                ],
                ..FileSpec::default()
            };
            sc.run(Route::Member(&spec.name), |m| m.create_file(&a, &spec)).unwrap();
        }
        let counters = || -> Vec<(u64, u64)> {
            (0..sc.shards())
                .map(|k| sc.shard(k).cache_stats().map(|s| (s.hits, s.misses)).unwrap())
                .collect()
        };

        let want = run_all(&sc);
        assert!(!want.0.is_empty() && !want.1.is_empty() && !want.2.files.is_empty());
        // Non-vacuity: a plain fan-out reads through every shard's cache.
        let before = counters();
        assert_eq!(run_all(&sc), want);
        for (k, (b, n)) in before.iter().zip(counters()).enumerate() {
            assert_ne!(*b, n, "mvcc {mvcc}: shard {k}'s cache served nothing, so proves nothing");
        }

        let scopes = [
            ("cache bypass", OpCtx { cache_bypass: true, ..OpCtx::default() }),
            ("planner bypass", OpCtx { planner_bypass: true, ..OpCtx::default() }),
        ];
        for (name, ctx) in scopes {
            let before = counters();
            let (got, _) = sc.scoped(ctx, |c| run_all(c));
            assert_eq!(counters(), before, "mvcc {mvcc}: the {name} missed a shard's cache");
            assert_eq!(got, want, "mvcc {mvcc}: the {name} changed an answer");
        }
    }
}
