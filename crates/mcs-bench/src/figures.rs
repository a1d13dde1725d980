//! Figure runners: one function per figure of the paper's §7.

use std::sync::Arc;
use std::time::Duration;

use mcs::IndexProfile;
use mcs_net::{BinServer, McsServer};
use workload::{build_catalog, make_worker, run_closed_loop, Access, BuiltCatalog, OpKind, RunConfig};

use crate::config::Config;
use crate::report::{size_label, Figure, Point, Series};

/// One populated catalog with its SOAP server, shared across figures.
pub struct Deployment {
    /// Database size (logical files).
    pub n_files: u64,
    /// The populated catalog.
    pub built: BuiltCatalog,
    /// Its web service.
    pub server: McsServer,
}

/// Build all three deployments for a config (the expensive step — done
/// once, reused by every figure).
pub fn deploy(cfg: &Config) -> Vec<Deployment> {
    cfg.scale
        .sizes()
        .iter()
        .map(|&n| {
            eprintln!("[deploy] populating {} logical files...", size_label(n));
            let t0 = std::time::Instant::now();
            let built = build_catalog(n, IndexProfile::Paper2003);
            let server = McsServer::start(Arc::clone(&built.mcs), "127.0.0.1:0", cfg.server_workers)
                .expect("server start");
            eprintln!("[deploy] {} ready in {:.1}s", size_label(n), t0.elapsed().as_secs_f64());
            Deployment { n_files: n, built, server }
        })
        .collect()
}

fn direct_access(d: &Deployment, wire_rtt: Duration) -> Access {
    Access::Direct { mcs: Arc::clone(&d.built.mcs), wire_rtt }
}

fn soap_access(d: &Deployment, rtt: Duration) -> Access {
    Access::Soap { addr: d.server.addr().to_string(), rtt, keep_alive: false }
}

fn measure(
    cfg: &Config,
    d: &Deployment,
    access: &Access,
    kind: OpKind,
    hosts: usize,
    threads_per_host: usize,
) -> Point {
    let run = RunConfig {
        hosts,
        threads_per_host,
        duration: cfg.scale.point_duration(),
        warmup: cfg.scale.warmup(),
        min_ops: cfg.scale.min_ops(),
        max_extension: cfg.scale.max_extension(),
    };
    let m = run_closed_loop(&run, |h, t| make_worker(access, kind, d.n_files, h, t));
    Point { x: 0, rate: m.rate(), ops: m.ops, errors: m.errors }
}

/// Sweep a single-host thread count axis (Figures 5–7 shape).
fn single_host_figure(cfg: &Config, deployments: &[Deployment], kind: OpKind, id: &str, title: &str) -> Figure {
    let mut series = Vec::new();
    for d in deployments {
        for (path, access) in [
            ("direct", direct_access(d, Duration::ZERO)),
            ("soap", soap_access(d, Duration::ZERO)),
        ] {
            let label = format!("{} {}", size_label(d.n_files), path);
            eprintln!("[{id}] series {label}");
            let mut points = Vec::new();
            for &t in &cfg.threads {
                let mut p = measure(cfg, d, &access, kind, 1, t);
                p.x = t as u64;
                points.push(p);
            }
            series.push(Series { label, points });
        }
    }
    Figure {
        id: id.into(),
        title: title.into(),
        x_label: "threads".into(),
        y_label: "ops/sec".into(),
        series,
    }
}

/// Sweep a multi-host axis, 4 threads per host (Figures 8–10 shape). The
/// per-host RTT applies to both paths: direct clients spoke the MySQL
/// wire protocol across the same LAN (DESIGN.md substitutions).
fn multi_host_figure(cfg: &Config, deployments: &[Deployment], kind: OpKind, id: &str, title: &str) -> Figure {
    let mut series = Vec::new();
    for d in deployments {
        for (path, access) in [
            ("direct", direct_access(d, cfg.host_rtt)),
            ("soap", soap_access(d, cfg.host_rtt)),
        ] {
            let label = format!("{} {}", size_label(d.n_files), path);
            eprintln!("[{id}] series {label}");
            let mut points = Vec::new();
            for &h in &cfg.hosts {
                let mut p = measure(cfg, d, &access, kind, h, 4);
                p.x = h as u64;
                points.push(p);
            }
            series.push(Series { label, points });
        }
    }
    Figure {
        id: id.into(),
        title: title.into(),
        x_label: "hosts".into(),
        y_label: "ops/sec".into(),
        series,
    }
}

/// Figure 5: add rate with varying threads on a single client host.
pub fn fig5(cfg: &Config, deployments: &[Deployment]) -> Figure {
    single_host_figure(
        cfg,
        deployments,
        OpKind::AddDelete,
        "fig5",
        "Add Rate on MCS with Varying Threads on a Single Client Host",
    )
}

/// Figure 6: simple query rate with varying threads on a single host.
pub fn fig6(cfg: &Config, deployments: &[Deployment]) -> Figure {
    single_host_figure(
        cfg,
        deployments,
        OpKind::SimpleQuery,
        "fig6",
        "Simple Query Rate on MCS with Varying Threads on a Single Client Host",
    )
}

/// Figure 7: complex query (all 10 attributes) rate, single host.
pub fn fig7(cfg: &Config, deployments: &[Deployment]) -> Figure {
    single_host_figure(
        cfg,
        deployments,
        OpKind::ComplexQuery { attrs: 10 },
        "fig7",
        "Complex Query Rate with a Varying Number of Threads on a Single Client Host",
    )
}

/// Figure 8: add rate with a varying number of hosts (4 threads each).
pub fn fig8(cfg: &Config, deployments: &[Deployment]) -> Figure {
    multi_host_figure(
        cfg,
        deployments,
        OpKind::AddDelete,
        "fig8",
        "Add Rate with Varying Number of Hosts, Each Running 4 Threads",
    )
}

/// Figure 9: simple query rate with a varying number of hosts.
pub fn fig9(cfg: &Config, deployments: &[Deployment]) -> Figure {
    multi_host_figure(
        cfg,
        deployments,
        OpKind::SimpleQuery,
        "fig9",
        "Simple Query Rate with a Varying Number of Client Hosts",
    )
}

/// Figure 10: complex query rate with a varying number of hosts.
pub fn fig10(cfg: &Config, deployments: &[Deployment]) -> Figure {
    multi_host_figure(
        cfg,
        deployments,
        OpKind::ComplexQuery { attrs: 10 },
        "fig10",
        "Complex Query Rate with a Varying Number of Hosts",
    )
}

/// Figure 11: complex query rate as the number of matched attributes
/// varies 1..=10 (direct database path only, like the paper).
pub fn fig11(cfg: &Config, deployments: &[Deployment]) -> Figure {
    let mut series = Vec::new();
    for d in deployments {
        let access = direct_access(d, Duration::ZERO);
        let label = format!("{} direct", size_label(d.n_files));
        eprintln!("[fig11] series {label}");
        let mut points = Vec::new();
        for attrs in 1..=10usize {
            let mut p = measure(cfg, d, &access, OpKind::ComplexQuery { attrs }, 1, 4);
            p.x = attrs as u64;
            points.push(p);
        }
        series.push(Series { label, points });
    }
    Figure {
        id: "fig11".into(),
        title: "Complex Query Performance as the Number of Attributes is Varied".into(),
        x_label: "attributes".into(),
        y_label: "queries/sec".into(),
        series,
    }
}

/// Figure 12 (beyond the paper): write throughput and fsync cost of the
/// durable catalog as concurrent writers scale, per-transaction fsync
/// (`Durability::Always`) against the group-commit queue
/// (`Durability::Group`). Builds its own small durable catalogs — the
/// shared deployments are in-memory and never touch a WAL.
pub fn fig12(cfg: &Config, _deployments: &[Deployment]) -> Figure {
    use mcs::{AttrType, Credential, FileSpec, ManualClock, Mcs, StoreConfig};

    let admin = Credential::new("/O=Grid/CN=bench");
    let total: u64 = match cfg.scale {
        crate::config::Scale::Quick => 200,
        crate::config::Scale::Default => 800,
        crate::config::Scale::Full => 3_200,
    };
    let modes: [(&str, fn() -> StoreConfig); 2] = [
        ("per-txn fsync", StoreConfig::default),
        ("group commit", || StoreConfig::grouped(Duration::from_millis(2), 64)),
    ];

    let mut series = Vec::new();
    for (label, mk_store) in modes {
        eprintln!("[fig12] series {label} ({total} creates per point)");
        let mut points = Vec::new();
        for &writers in &[1usize, 2, 4, 8] {
            let dir = std::env::temp_dir().join(format!(
                "mcs-fig12-{}-{writers}-{}",
                label.replace(' ', "-"),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let catalog = Arc::new(
                Mcs::open_durable(
                    &dir,
                    &admin,
                    IndexProfile::Paper2003,
                    Arc::new(ManualClock::default()),
                    mk_store(),
                )
                .expect("open durable catalog"),
            );
            catalog.define_attribute(&admin, "experiment", AttrType::Str, "").unwrap();
            catalog.define_attribute(&admin, "run", AttrType::Int, "").unwrap();

            let per_writer = total / writers as u64;
            let syncs_before = catalog.database().wal_stats().sync_count();
            let t0 = std::time::Instant::now();
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    let catalog = Arc::clone(&catalog);
                    let admin = admin.clone();
                    std::thread::spawn(move || {
                        for i in 0..per_writer {
                            let spec = FileSpec::named(format!("f-{w}-{i:05}.dat"))
                                .attr("experiment", "bench")
                                .attr("run", (w as u64 * 1_000_000 + i) as i64);
                            catalog.create_file(&admin, &spec).unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let elapsed = t0.elapsed().as_secs_f64();
            let ops = per_writer * writers as u64;
            let syncs = catalog.database().wal_stats().sync_count() - syncs_before;
            eprintln!(
                "[fig12] {label} writers={writers}: {:.0} creates/s, {syncs} fsyncs \
                 ({:.1} txns/fsync)",
                ops as f64 / elapsed,
                ops as f64 / syncs.max(1) as f64,
            );
            points.push(Point { x: writers as u64, rate: ops as f64 / elapsed, ops, errors: 0 });
            drop(catalog);
            let _ = std::fs::remove_dir_all(&dir);
        }
        series.push(Series { label: label.into(), points });
    }
    Figure {
        id: "fig12".into(),
        title: "Catalog Add Rate with Concurrent Writers: Group Commit vs Per-Txn Fsync".into(),
        x_label: "writers".into(),
        y_label: "creates/sec".into(),
        series,
    }
}

/// Figure 13 (beyond the paper): *client-visible* commit latency and add
/// rate under the three durability tiers — per-transaction fsync
/// (`Always`), group commit (`Group`), and epoch-acknowledged async
/// commits (`Async`, DESIGN.md §7.2). Async acks return before the fsync,
/// so their per-op latency should collapse to in-memory cost while
/// throughput meets or beats group commit; the deferred durability is
/// paid by one timed `sync_now` barrier at the end (included in the
/// throughput denominator so the comparison stays honest).
pub fn fig13(cfg: &Config, _deployments: &[Deployment]) -> Figure {
    use mcs::{AttrType, Credential, FileSpec, ManualClock, Mcs, StoreConfig};

    let admin = Credential::new("/O=Grid/CN=bench");
    let total: u64 = match cfg.scale {
        crate::config::Scale::Quick => 200,
        crate::config::Scale::Default => 800,
        crate::config::Scale::Full => 3_200,
    };
    let window = Duration::from_millis(2);
    let modes: [(&str, fn(Duration) -> StoreConfig); 3] = [
        ("per-txn fsync", |_| StoreConfig::default()),
        ("group commit", |w| StoreConfig::grouped(w, 64)),
        ("async acks", |w| StoreConfig::asynchronous(w, 64)),
    ];

    let mut series = Vec::new();
    for (label, mk_store) in modes {
        eprintln!("[fig13] series {label} ({total} creates per point)");
        let mut points = Vec::new();
        for &writers in &[1usize, 4, 8] {
            let dir = std::env::temp_dir().join(format!(
                "mcs-fig13-{}-{writers}-{}",
                label.replace(' ', "-"),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let catalog = Arc::new(
                Mcs::open_durable(
                    &dir,
                    &admin,
                    IndexProfile::Paper2003,
                    Arc::new(ManualClock::default()),
                    mk_store(window),
                )
                .expect("open durable catalog"),
            );
            catalog.define_attribute(&admin, "experiment", AttrType::Str, "").unwrap();
            catalog.define_attribute(&admin, "run", AttrType::Int, "").unwrap();

            let per_writer = total / writers as u64;
            let syncs_before = catalog.database().wal_stats().sync_count();
            let t0 = std::time::Instant::now();
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    let catalog = Arc::clone(&catalog);
                    let admin = admin.clone();
                    std::thread::spawn(move || {
                        // Per-op wall time as the CLIENT sees it: for async
                        // this stops at the epoch ack, not the fsync.
                        let mut busy = Duration::ZERO;
                        for i in 0..per_writer {
                            let spec = FileSpec::named(format!("f-{w}-{i:05}.dat"))
                                .attr("experiment", "bench")
                                .attr("run", (w as u64 * 1_000_000 + i) as i64);
                            let op0 = std::time::Instant::now();
                            catalog.create_file(&admin, &spec).unwrap();
                            busy += op0.elapsed();
                        }
                        busy
                    })
                })
                .collect();
            let busy: Duration = handles.into_iter().map(|h| h.join().unwrap()).sum();
            // Async acked everything already; the durability debt is paid
            // here, once, and charged to throughput (not to op latency).
            let barrier0 = std::time::Instant::now();
            catalog.sync_now().expect("final durability barrier");
            let barrier = barrier0.elapsed();
            let elapsed = t0.elapsed().as_secs_f64();
            let ops = per_writer * writers as u64;
            let syncs = catalog.database().wal_stats().sync_count() - syncs_before;
            let lat_us = busy.as_secs_f64() * 1e6 / ops as f64;
            eprintln!(
                "[fig13] {label} writers={writers}: {:.0} creates/s, {lat_us:.0} us/op \
                 client-visible, {syncs} fsyncs, final sync_now {:.1} ms",
                ops as f64 / elapsed,
                barrier.as_secs_f64() * 1e3,
            );
            points.push(Point { x: writers as u64, rate: ops as f64 / elapsed, ops, errors: 0 });
            drop(catalog);
            let _ = std::fs::remove_dir_all(&dir);
        }
        series.push(Series { label: label.into(), points });
    }
    Figure {
        id: "fig13".into(),
        title: "Client-Visible Commit Latency: Async Epoch Acks vs Group Commit vs Per-Txn Fsync"
            .into(),
        x_label: "writers".into(),
        y_label: "creates/sec".into(),
        series,
    }
}

/// Figure 14 (beyond the paper): the epoch-consistent read cache A/B
/// (DESIGN.md §7.3) on the complex-query hot path. One *cached* catalog
/// per database size, measured three ways over a small repeated working
/// set of full 10-attribute queries:
///
/// * **cache off** — every query wrapped in the per-request bypass, i.e.
///   the byte-identical uncached execution path (the fig7 baseline);
/// * **warm cache** — the working set prewarmed, so steady state is all
///   version-validated hits;
/// * **write churn** — a background writer keeps touching
///   `user_attributes`, so every hit must revalidate and refill; each
///   query's result is checked against the expected file, so this series
///   doubles as a correctness probe of the invalidation protocol.
///
/// Builds its own catalogs — the shared deployments are uncached.
pub fn fig14(cfg: &Config, _deployments: &[Deployment]) -> Figure {
    use mcs::Attribute;
    use workload::{build_catalog_with, spec};

    /// Distinct repeated queries in the working set (same shape as a
    /// workflow re-running its discovery queries).
    const WORKING_SET: u64 = 16;

    let run = RunConfig {
        hosts: 1,
        threads_per_host: 4,
        duration: cfg.scale.point_duration(),
        warmup: cfg.scale.warmup(),
        min_ops: cfg.scale.min_ops(),
        max_extension: cfg.scale.max_extension(),
    };

    let mut off = Vec::new();
    let mut warm = Vec::new();
    let mut churn = Vec::new();
    for &n in cfg.scale.sizes().iter() {
        eprintln!("[fig14] populating {} logical files (cached catalog)...", size_label(n));
        let t0 = std::time::Instant::now();
        let built = build_catalog_with(n, IndexProfile::Paper2003, Some(mcs::CacheConfig::default()));
        eprintln!("[fig14] {} ready in {:.1}s", size_label(n), t0.elapsed().as_secs_f64());
        let mcs = &built.mcs;
        let admin = &built.admin;
        // File indices spread across the database; each query matches
        // exactly its file (attributes 2+3 pin the index).
        let targets: Vec<u64> = (0..WORKING_SET).map(|j| j * (n / WORKING_SET).max(1)).collect();
        let queries: Arc<Vec<(u64, Vec<mcs::AttrPredicate>)>> =
            Arc::new(targets.iter().map(|&i| (i, spec::complex_query(i, 10))).collect());

        // One worker: round-robin the working set, verify every answer.
        let make_worker = |bypass: bool| {
            let mcs = Arc::clone(mcs);
            let queries = Arc::clone(&queries);
            move |_h: usize, t: usize| -> Box<dyn workload::Workload> {
                let mcs = Arc::clone(&mcs);
                let queries = Arc::clone(&queries);
                let mut at = t; // stagger threads across the set
                let cred = workload::driver_credential(0, t);
                Box::new(move || {
                    let (i, preds) = &queries[at % queries.len()];
                    at += 1;
                    let r = if bypass {
                        mcs.with_cache_bypass(|m| m.query_by_attributes(&cred, preds))
                    } else {
                        mcs.query_by_attributes(&cred, preds)
                    };
                    matches!(r, Ok(hits) if hits == [(spec::file_name(*i), 1)])
                })
            }
        };

        // --- cache off: the uncached baseline via the bypass path ---
        eprintln!("[fig14] {} cache off", size_label(n));
        let m = run_closed_loop(&run, make_worker(true));
        off.push(Point { x: n, rate: m.rate(), ops: m.ops, errors: m.errors });

        // --- warm cache: prewarm, then measure repeated hits ---
        for (_, preds) in queries.iter() {
            mcs.query_by_attributes(admin, preds).expect("prewarm");
        }
        eprintln!("[fig14] {} warm cache", size_label(n));
        let m = run_closed_loop(&run, make_worker(false));
        warm.push(Point { x: n, rate: m.rate(), ops: m.ops, errors: m.errors });

        // --- write churn: a background writer invalidates while we read ---
        eprintln!("[fig14] {} write churn", size_label(n));
        let stop = std::sync::atomic::AtomicBool::new(false);
        let m = std::thread::scope(|scope| {
            scope.spawn(|| {
                // Rewrite an attribute to its current value: the commit
                // bumps `user_attributes` (staling every query entry)
                // without changing any query's answer.
                let mut k = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let i = targets[(k % WORKING_SET) as usize];
                    let attr = Attribute {
                        name: spec::ATTR_NAMES[0].to_owned(),
                        value: spec::attr_value(0, i),
                    };
                    mcs.set_attribute(admin, &mcs::ObjectRef::File(spec::file_name(i)), &attr)
                        .expect("churn write");
                    k += 1;
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
            let m = run_closed_loop(&run, make_worker(false));
            stop.store(true, std::sync::atomic::Ordering::Release);
            m
        });
        churn.push(Point { x: n, rate: m.rate(), ops: m.ops, errors: m.errors });

        let stats = mcs.cache_stats().expect("cached catalog");
        let speedup = warm.last().unwrap().rate / off.last().unwrap().rate.max(1e-9);
        eprintln!(
            "[fig14] {}: off {:.1}/s, warm {:.1}/s ({speedup:.0}x), churn {:.1}/s; \
             cache hits {} misses {} stale {} evictions {}",
            size_label(n),
            off.last().unwrap().rate,
            warm.last().unwrap().rate,
            churn.last().unwrap().rate,
            stats.hits,
            stats.misses,
            stats.stale,
            stats.evictions,
        );
    }

    Figure {
        id: "fig14".into(),
        title: "Complex Query Rate with an Epoch-Consistent Read Cache: Off vs Warm vs Churn"
            .into(),
        x_label: "database size (files)".into(),
        y_label: "queries/sec".into(),
        series: vec![
            Series { label: "cache off (bypass)".into(), points: off },
            Series { label: "warm cache".into(), points: warm },
            Series { label: "write churn".into(), points: churn },
        ],
    }
}

/// Figure 15 (beyond the paper): horizontal scaling of the
/// hash-partitioned catalog (DESIGN.md §7.4). Two experiments per shard
/// count (1/2/4/8):
///
/// * **aggregate add rate** — 8 concurrent writers creating files
///   through the router into a fresh *durable* catalog with per-txn
///   fsync. One WAL serializes every fsync; N shards fsync
///   independently, which is exactly where partitioning should pay.
/// * **complex-query rate** — the paper's 10-predicate discovery query
///   against catalogs bulk-loaded in parallel (one loader thread per
///   shard) at the two larger workload sizes, every answer verified, so
///   the scatter-gather planner is held to single-shard answers while
///   it fans out.
pub fn fig15(cfg: &Config, _deployments: &[Deployment]) -> Figure {
    use mcs::shard::Route;
    use mcs::{AttrType, Credential, FileSpec, ManualClock, ShardedCatalog, StoreConfig};
    use workload::{build_sharded_catalog, spec};

    const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
    const WRITERS: usize = 8;
    const WORKING_SET: u64 = 16;

    let admin = Credential::new("/O=Grid/CN=bench");
    let total: u64 = match cfg.scale {
        crate::config::Scale::Quick => 200,
        crate::config::Scale::Default => 800,
        crate::config::Scale::Full => 3_200,
    };

    // --- (a) durable add rate, 8 writers, per-txn fsync ---
    let mut add_points = Vec::new();
    for &shards in &SHARD_COUNTS {
        let dir = std::env::temp_dir()
            .join(format!("mcs-fig15-{shards}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Arc::new(
            ShardedCatalog::open(
                &dir,
                &admin,
                IndexProfile::Paper2003,
                Arc::new(ManualClock::default()),
                StoreConfig::default().sharded(shards),
            )
            .expect("open durable sharded catalog"),
        );
        for (name, ty) in [("experiment", AttrType::Str), ("run", AttrType::Int)] {
            catalog.run(Route::Global, |m| m.define_attribute(&admin, name, ty, "")).unwrap();
        }

        let per_writer = total / WRITERS as u64;
        let t0 = std::time::Instant::now();
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let catalog = Arc::clone(&catalog);
                let admin = admin.clone();
                std::thread::spawn(move || {
                    for i in 0..per_writer {
                        let spec = FileSpec::named(format!("f-{w}-{i:05}.dat"))
                            .attr("experiment", "bench")
                            .attr("run", (w as u64 * 1_000_000 + i) as i64);
                        let create = |m: &mcs::Mcs| m.create_file(&admin, &spec);
                        catalog.run(Route::Member(&spec.name), create).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let ops = per_writer * WRITERS as u64;
        eprintln!(
            "[fig15] add rate, {shards} shard(s), {WRITERS} writers: {:.0} creates/s",
            ops as f64 / elapsed
        );
        add_points.push(Point {
            x: shards as u64,
            rate: ops as f64 / elapsed,
            ops,
            errors: 0,
        });
        drop(catalog);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let mut series =
        vec![Series { label: format!("add rate, {WRITERS} writers"), points: add_points }];

    // --- (b) complex-query rate on parallel-loaded catalogs ---
    let run = RunConfig {
        hosts: 1,
        threads_per_host: 4,
        duration: cfg.scale.point_duration(),
        warmup: cfg.scale.warmup(),
        min_ops: cfg.scale.min_ops(),
        max_extension: cfg.scale.max_extension(),
    };
    for &n in &cfg.scale.sizes()[1..=2] {
        let mut points = Vec::new();
        for &shards in &SHARD_COUNTS {
            eprintln!(
                "[fig15] populating {} files across {shards} shard(s)...",
                size_label(n)
            );
            let t0 = std::time::Instant::now();
            let built = build_sharded_catalog(n, IndexProfile::Paper2003, shards, None);
            eprintln!("[fig15] loaded in {:.1}s", t0.elapsed().as_secs_f64());
            let targets: Vec<u64> =
                (0..WORKING_SET).map(|j| j * (n / WORKING_SET).max(1)).collect();
            let queries: Arc<Vec<(u64, Vec<mcs::AttrPredicate>)>> =
                Arc::new(targets.iter().map(|&i| (i, spec::complex_query(i, 10))).collect());
            let catalog = &built.catalog;
            let m = run_closed_loop(&run, |_h, t| -> Box<dyn workload::Workload> {
                let catalog = Arc::clone(catalog);
                let queries = Arc::clone(&queries);
                let mut at = t; // stagger threads across the set
                let cred = workload::driver_credential(0, t);
                Box::new(move || {
                    let (i, preds) = &queries[at % queries.len()];
                    at += 1;
                    let r = catalog.query_by_attributes(&cred, preds);
                    matches!(r, Ok(hits) if hits == [(spec::file_name(*i), 1)])
                })
            });
            eprintln!(
                "[fig15] complex query, {} files, {shards} shard(s): {:.1}/s",
                size_label(n),
                m.rate()
            );
            points.push(Point { x: shards as u64, rate: m.rate(), ops: m.ops, errors: m.errors });
        }
        series.push(Series { label: format!("complex query, {}", size_label(n)), points });
    }

    Figure {
        id: "fig15".into(),
        title: "Sharded Catalog Scaling: Aggregate Add Rate and Scatter-Gather Query Rate"
            .into(),
        x_label: "shards".into(),
        y_label: "ops/sec".into(),
        series,
    }
}

/// Figure 16 (beyond the paper): the MVCC snapshot-read A/B
/// (DESIGN.md §7.5). Two experiments:
///
/// * **mixed read/write throughput** — equal reader and writer thread
///   counts (2/4/8 per class) against ONE durable catalog, barrier
///   engine vs `StoreConfig::with_mvcc`. Both sides commit with
///   per-transaction fsync (`Durability::Always`, the default): the
///   fsync cadence paces writers identically on both engines, so the
///   write series compare like-for-like — and on the barrier engine
///   every committing writer holds its exclusive table barriers
///   *across its commit fsync*, which is precisely the reader stall
///   the MVCC refactor retires. Readers drive the paper's
///   simple-query shape (indexed file and attribute lookups); writers
///   mix ten-attribute `create_file` transactions (the paper's ingest
///   shape) with `set_attribute` updates, both classes paced with
///   client think times. The acceptance bar is ≥2× read throughput at
///   8r+8w with ≤10% write regression.
/// * **the fig15 shard curve re-run under MVCC** — the scatter-gather
///   complex-query experiment on parallel-loaded catalogs with every
///   shard on the MVCC engine (snapshot-vector reads), every answer
///   verified, at the middle workload size.
pub fn fig16(cfg: &Config, _deployments: &[Deployment]) -> Figure {
    use mcs::{AttrType, Credential, FileSpec, ManualClock, Mcs, ObjectRef, StoreConfig};
    use workload::{build_sharded_catalog_opts, run_closed_loop, run_mixed, spec, MixedConfig};

    const CLASS_COUNTS: [usize; 4] = [1, 2, 4, 8];
    const PRELOAD: u64 = 512;
    const COLLS: u64 = 4;

    let admin = Credential::new("/O=Grid/CN=bench");

    // --- (a) mixed read/write A/B on one durable catalog per engine ---
    let mut read_series = Vec::new();
    let mut write_series = Vec::new();
    for (engine, mvcc) in [("barrier", false), ("mvcc", true)] {
        let dir = std::env::temp_dir()
            .join(format!("mcs-fig16-{engine}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = StoreConfig::default();
        let store = if mvcc { base.with_mvcc() } else { base };
        let catalog = Arc::new(
            Mcs::open_durable(
                &dir,
                &admin,
                IndexProfile::Paper2003,
                Arc::new(ManualClock::default()),
                store,
            )
            .expect("open durable catalog"),
        );
        assert_eq!(catalog.database().is_mvcc(), mvcc);
        catalog.allow_anyone(&admin).unwrap();
        catalog.define_attribute(&admin, "experiment", AttrType::Str, "").unwrap();
        catalog.define_attribute(&admin, "run", AttrType::Int, "").unwrap();
        for a in 0..10 {
            catalog.define_attribute(&admin, &format!("run{a}"), AttrType::Int, "").unwrap();
        }
        for c in 0..COLLS {
            catalog.create_collection(&admin, &format!("c{c}"), None, "").unwrap();
        }
        for i in 0..PRELOAD {
            let spec = FileSpec::named(format!("pre-{i:05}.dat"))
                .in_collection(format!("c{}", i % COLLS))
                .attr("experiment", "bench")
                .attr("run", i as i64);
            catalog.create_file(&admin, &spec).unwrap();
        }

        // One monotone name counter per engine: warm-up and every sweep
        // share it, so writers never trip over their own earlier files.
        let next_id = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut rpoints = Vec::new();
        let mut wpoints = Vec::new();
        for &threads in &CLASS_COUNTS {
            let run = MixedConfig {
                readers: threads,
                writers: threads,
                duration: cfg.scale.point_duration(),
                warmup: cfg.scale.warmup(),
                min_ops: cfg.scale.min_ops(),
                max_extension: cfg.scale.max_extension(),
            };
            let m = run_mixed(
                &run,
                |t| {
                    // Reader: the paper's simple-query shape — indexed
                    // point lookups of files and their attributes. On
                    // the barrier engine each SELECT takes the shared
                    // statement barrier of its table, so it queues
                    // (writer-priority) whenever a committing writer
                    // holds that barrier across its fsync; under MVCC
                    // it pins a snapshot epoch and never waits.
                    let catalog = Arc::clone(&catalog);
                    let cred = workload::driver_credential(0, t);
                    let mut k = t as u64;
                    Box::new(move || {
                        // Short think time: readers stay demanding but
                        // the runqueue drains often enough that woken
                        // writers schedule promptly on a small host.
                        std::thread::sleep(Duration::from_micros(200));
                        k += 1;
                        let pre = format!("pre-{:05}.dat", k % PRELOAD);
                        if k % 2 == 0 {
                            catalog.get_file(&cred, &pre).is_ok()
                        } else {
                            catalog
                                .get_attributes(&cred, &ObjectRef::File(pre))
                                .is_ok()
                        }
                    })
                },
                |w| {
                    // Writer: create transactions + attribute updates.
                    // Per-commit fsync paces both engines' writers to
                    // the same cadence (the write series compare
                    // like-for-like); the read series isolates what
                    // that load costs concurrent readers.
                    let catalog = Arc::clone(&catalog);
                    let admin = admin.clone();
                    let next_id = Arc::clone(&next_id);
                    let mut k = w as u64;
                    Box::new(move || {
                        // Client think time: the offered write load grows
                        // with the writer count instead of saturating the
                        // commit path outright, so the sweep walks the
                        // exclusive-barrier utilization up point by point.
                        std::thread::sleep(Duration::from_micros(2_500));
                        k += 1;
                        if k % 2 == 0 {
                            let i =
                                next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            // Ten typed attributes per new file, like
                            // the paper's ingest workload — one
                            // transaction, one WAL group, one fsync.
                            let mut spec = FileSpec::named(format!("new-{i:07}.dat"))
                                .attr("experiment", "bench");
                            for a in 0..10i64 {
                                spec = spec.attr(format!("run{a}"), i as i64 + a);
                            }
                            catalog.create_file(&admin, &spec).is_ok()
                        } else {
                            let attr = mcs::Attribute {
                                name: "run".into(),
                                value: (k as i64).into(),
                            };
                            let obj = ObjectRef::File(format!("pre-{:05}.dat", k % PRELOAD));
                            catalog.set_attribute(&admin, &obj, &attr).is_ok()
                        }
                    })
                },
            );
            eprintln!(
                "[fig16] {engine} {threads}r+{threads}w: reads {:.0}/s ({} errors), \
                 writes {:.0}/s ({} errors)",
                m.reads.rate(),
                m.reads.errors,
                m.writes.rate(),
                m.writes.errors,
            );
            rpoints.push(Point {
                x: threads as u64,
                rate: m.reads.rate(),
                ops: m.reads.ops,
                errors: m.reads.errors,
            });
            wpoints.push(Point {
                x: threads as u64,
                rate: m.writes.rate(),
                ops: m.writes.ops,
                errors: m.writes.errors,
            });
        }
        read_series.push(Series { label: format!("reads, {engine}"), points: rpoints });
        write_series.push(Series { label: format!("writes, {engine}"), points: wpoints });
        drop(catalog);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- (b) the fig15 scatter-gather query curve, every shard MVCC ---
    const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
    const WORKING_SET: u64 = 16;
    let run = RunConfig {
        hosts: 1,
        threads_per_host: 4,
        duration: cfg.scale.point_duration(),
        warmup: cfg.scale.warmup(),
        min_ops: cfg.scale.min_ops(),
        max_extension: cfg.scale.max_extension(),
    };
    let n = cfg.scale.sizes()[1];
    let mut points = Vec::new();
    for &shards in &SHARD_COUNTS {
        eprintln!("[fig16] populating {} files across {shards} MVCC shard(s)...", size_label(n));
        let t0 = std::time::Instant::now();
        let built = build_sharded_catalog_opts(n, IndexProfile::Paper2003, shards, None, true);
        eprintln!("[fig16] loaded in {:.1}s", t0.elapsed().as_secs_f64());
        assert!(built.catalog.shard(0).database().is_mvcc());
        let targets: Vec<u64> = (0..WORKING_SET).map(|j| j * (n / WORKING_SET).max(1)).collect();
        let queries: Arc<Vec<(u64, Vec<mcs::AttrPredicate>)>> =
            Arc::new(targets.iter().map(|&i| (i, spec::complex_query(i, 10))).collect());
        let catalog = &built.catalog;
        let m = run_closed_loop(&run, |_h, t| -> Box<dyn workload::Workload> {
            let catalog = Arc::clone(catalog);
            let queries = Arc::clone(&queries);
            let mut at = t; // stagger threads across the set
            let cred = workload::driver_credential(0, t);
            Box::new(move || {
                let (i, preds) = &queries[at % queries.len()];
                at += 1;
                let r = catalog.query_by_attributes(&cred, preds);
                matches!(r, Ok(hits) if hits == [(spec::file_name(*i), 1)])
            })
        });
        eprintln!(
            "[fig16] complex query (mvcc), {} files, {shards} shard(s): {:.1}/s",
            size_label(n),
            m.rate()
        );
        points.push(Point { x: shards as u64, rate: m.rate(), ops: m.ops, errors: m.errors });
    }

    let mut series = read_series;
    series.extend(write_series);
    series.push(Series {
        label: format!("complex query, {} (mvcc shards)", size_label(n)),
        points,
    });
    Figure {
        id: "fig16".into(),
        title: "Mixed Read/Write Throughput and Shard Scaling: MVCC Snapshot Reads vs \
                Barrier Engine"
            .into(),
        x_label: "threads per class / shards".into(),
        y_label: "ops/sec".into(),
        series,
    }
}

/// Figure 17 (beyond the paper): **cost-based planner A/B** on the
/// value-indexed profile, read cache out of the picture.
///
/// One uncached `ValueIndexed` catalog per database size answers the
/// same complex-query working set two ways:
///
/// * **planner on** — the default path: composite-index dives pick the
///   most selective predicate as the seed, the rest intersect or run as
///   per-candidate `ua_object` probes (DESIGN.md §7.6);
/// * **planner off** — inside `with_planner_bypass`: every predicate
///   walks its attribute's full `ua_name` posting list (the 2003
///   evaluation), so per-query cost grows linearly with database size.
///
/// Two query shapes per side: the paper's 10-attribute equality
/// conjunction (Figures 7/10/11's op) and a mixed shape with a range
/// and a LIKE prefix, exercising the planner's range and prefix-range
/// access paths. Every answer is verified. The acceptance bar is ≥5×
/// planned-over-naive throughput at the largest size; the tentpole goal
/// is a planned curve that stays roughly flat while the naive curve
/// decays with n.
pub fn fig17(cfg: &Config, _deployments: &[Deployment]) -> Figure {
    use workload::spec;

    const WORKING_SET: u64 = 16;

    let run = RunConfig {
        hosts: 1,
        threads_per_host: 4,
        duration: cfg.scale.point_duration(),
        warmup: cfg.scale.warmup(),
        min_ops: cfg.scale.min_ops(),
        max_extension: cfg.scale.max_extension(),
    };

    // Eq-conjunction series and range-mix series, each planned + naive.
    let mut series: Vec<Series> = ["planner on", "planner off", "planner on, range mix", "planner off, range mix"]
        .iter()
        .map(|label| Series { label: label.to_string(), points: Vec::new() })
        .collect();
    let mut speedup_at_largest = 0.0;
    for &n in cfg.scale.sizes().iter() {
        eprintln!("[fig17] populating {} logical files (value-indexed)...", size_label(n));
        let t0 = std::time::Instant::now();
        let built = build_catalog(n, IndexProfile::ValueIndexed);
        eprintln!("[fig17] {} ready in {:.1}s", size_label(n), t0.elapsed().as_secs_f64());
        let mcs = &built.mcs;
        let targets: Vec<u64> = (0..WORKING_SET).map(|j| j * (n / WORKING_SET).max(1)).collect();

        // The paper's complex query: equality on all ten attributes.
        let eq10: Arc<Vec<(u64, Vec<mcs::AttrPredicate>)>> =
            Arc::new(targets.iter().map(|&i| (i, spec::complex_query(i, 10))).collect());
        // Mixed shape: the same file pinned by an equality plus a
        // Ge/Le range pair, with a LIKE literal prefix on top — the
        // answer is still exactly file `i`, but evaluation goes through
        // the planner's range and prefix-range access paths.
        let mixed: Arc<Vec<(u64, Vec<mcs::AttrPredicate>)>> = Arc::new(
            targets
                .iter()
                .map(|&i| {
                    let mut preds = spec::complex_query(i, 4);
                    preds[0].op = mcs::AttrOp::Like;
                    preds[0].value = relstore::Value::from(
                        format!("{}%", preds[0].value.as_str().unwrap()).as_str(),
                    );
                    preds[3].op = mcs::AttrOp::Ge;
                    let mut le = preds[3].clone();
                    le.op = mcs::AttrOp::Le;
                    preds.push(le);
                    (i, preds)
                })
                .collect(),
        );

        let make_worker = |queries: &Arc<Vec<(u64, Vec<mcs::AttrPredicate>)>>, bypass: bool| {
            let mcs = Arc::clone(mcs);
            let queries = Arc::clone(queries);
            move |_h: usize, t: usize| -> Box<dyn workload::Workload> {
                let mcs = Arc::clone(&mcs);
                let queries = Arc::clone(&queries);
                let mut at = t; // stagger threads across the set
                let cred = workload::driver_credential(0, t);
                Box::new(move || {
                    let (i, preds) = &queries[at % queries.len()];
                    at += 1;
                    let r = if bypass {
                        mcs.with_planner_bypass(|m| m.query_by_attributes(&cred, preds))
                    } else {
                        mcs.query_by_attributes(&cred, preds)
                    };
                    matches!(r, Ok(hits) if hits == [(spec::file_name(*i), 1)])
                })
            }
        };

        let mut rates = [0.0f64; 4];
        for (s, (queries, bypass)) in
            [(&eq10, false), (&eq10, true), (&mixed, false), (&mixed, true)].iter().enumerate()
        {
            let m = run_closed_loop(&run, make_worker(queries, *bypass));
            eprintln!(
                "[fig17] {} files, {}: {:.1}/s ({} errors)",
                size_label(n),
                series[s].label,
                m.rate(),
                m.errors
            );
            rates[s] = m.rate();
            series[s].points.push(Point { x: n, rate: m.rate(), ops: m.ops, errors: m.errors });
        }
        if rates[1] > 0.0 {
            speedup_at_largest = rates[0] / rates[1];
            eprintln!(
                "[fig17] {} files: planned/naive = {:.1}x (eq), {:.1}x (range mix)",
                size_label(n),
                rates[0] / rates[1],
                if rates[3] > 0.0 { rates[2] / rates[3] } else { f64::INFINITY },
            );
        }
    }
    eprintln!(
        "[fig17] acceptance: {:.1}x planned-over-naive at the largest size (bar: >=5x)",
        speedup_at_largest
    );

    Figure {
        id: "fig17".into(),
        title: "Complex-Query Throughput: Cost-Based Planner vs Posting-Scan Evaluation \
                (value-indexed, uncached)"
            .into(),
        x_label: "database size (logical files)".into(),
        y_label: "queries/sec".into(),
        series,
    }
}

/// Figure 18 (beyond the paper): **binary wire protocol A/B** on the
/// paper-profile catalog, every transport hitting the same shared
/// dispatch (DESIGN.md §7.7).
///
/// Four simple-query series per database size, all at zero simulated
/// RTT so the comparison isolates per-request protocol overhead:
///
/// * **direct (ceiling)** — in-process calls, the no-wire upper bound;
/// * **soap keep-alive** — the HTTP/XML stack with connection reuse
///   (the strongest SOAP configuration);
/// * **binary** — one length-prefixed request/response per round trip
///   on a persistent connection;
/// * **binary pipelined ×128** — the same connection with 128 requests
///   kept in flight.
///
/// Then a bulk-ingest A/B: the same 2 048 fresh files created through
/// each transport one `createFile` at a time versus 64-spec
/// `createFiles` batches (one transaction per batch on the server).
///
/// The acceptance bar is binary ≥5× soap keep-alive simple-query
/// throughput at the largest size.
pub fn fig18(cfg: &Config, _deployments: &[Deployment]) -> Figure {
    use workload::{build_catalog_with, spec};

    const PIPELINE: usize = 128;
    const BULK_TOTAL: u64 = 2_048;
    const BATCH: usize = 64;

    let query_labels =
        ["direct (ceiling)", "soap keep-alive", "binary", "binary pipelined x128"];
    let bulk_labels = [
        "bulk add: soap createFile",
        "bulk add: binary createFile",
        "bulk add: soap createFiles x64",
        "bulk add: binary createFiles x64",
    ];
    let mut series: Vec<Series> = query_labels
        .iter()
        .chain(bulk_labels.iter())
        .map(|label| Series { label: label.to_string(), points: Vec::new() })
        .collect();

    let mut speedup_at_largest = 0.0;
    for &n in cfg.scale.sizes().iter() {
        eprintln!("[fig18] populating {} logical files (cached catalog)...", size_label(n));
        let t0 = std::time::Instant::now();
        // The read cache (DESIGN.md §7.3, fig14) is on and prewarmed:
        // the figure isolates *protocol* overhead, so the server runs
        // its read-optimized configuration for every transport alike.
        let cache = mcs::CacheConfig { capacity: (2 * n as usize).max(8192), shards: 64 };
        let built = build_catalog_with(n, IndexProfile::Paper2003, Some(cache));
        {
            let cred = workload::driver_credential(0, 0);
            for i in 0..n {
                built.mcs.get_file(&cred, &spec::file_name(i)).unwrap();
            }
        }
        let soap =
            McsServer::start(Arc::clone(&built.mcs), "127.0.0.1:0", cfg.server_workers).unwrap();
        let bin =
            BinServer::start(Arc::clone(&built.mcs), "127.0.0.1:0", cfg.server_workers).unwrap();
        eprintln!("[fig18] {} ready in {:.1}s", size_label(n), t0.elapsed().as_secs_f64());
        let d = Deployment { n_files: n, built, server: soap };

        let accesses = [
            direct_access(&d, Duration::ZERO),
            Access::Soap { addr: d.server.addr().to_string(), rtt: Duration::ZERO, keep_alive: true },
            Access::Bin { addr: bin.addr().to_string(), rtt: Duration::ZERO, pipeline: 1 },
            Access::Bin { addr: bin.addr().to_string(), rtt: Duration::ZERO, pipeline: PIPELINE },
        ];
        // Longer points than the scale default: the A/B ratio is the
        // figure's product, so per-point noise matters more here than in
        // the shape-oriented paper figures.
        let run = RunConfig {
            hosts: 1,
            threads_per_host: 4,
            duration: cfg.scale.point_duration().max(Duration::from_secs(2)),
            warmup: cfg.scale.warmup().max(Duration::from_millis(400)),
            min_ops: cfg.scale.min_ops(),
            max_extension: cfg.scale.max_extension(),
        };
        let mut rates = [0.0f64; 4];
        for (s, access) in accesses.iter().enumerate() {
            let m = run_closed_loop(&run, |h, t| {
                make_worker(access, OpKind::SimpleQuery, d.n_files, h, t)
            });
            let mut p = Point { x: 0, rate: m.rate(), ops: m.ops, errors: m.errors };
            p.x = n;
            eprintln!(
                "[fig18] {} files, {}: {:.1}/s ({} errors)",
                size_label(n),
                query_labels[s],
                p.rate,
                p.errors
            );
            rates[s] = p.rate;
            series[s].points.push(p);
        }
        if rates[1] > 0.0 {
            // The protocol's rate is its pipelined mode — pipelining is
            // part of the wire design, not an optional extra.
            speedup_at_largest = rates[3] / rates[1];
            eprintln!(
                "[fig18] {} files: binary/soap-ka = {:.1}x sync, {:.1}x pipelined; \
                 pipelined/direct ceiling = {:.2}",
                size_label(n),
                rates[2] / rates[1],
                rates[3] / rates[1],
                rates[3] / rates[0].max(f64::MIN_POSITIVE),
            );
        }

        // Bulk ingest: the same fresh specs through each (transport,
        // batching) pair; rate is files landed per second. Distinct name
        // prefixes keep the four passes independent.
        let cred = workload::driver_credential(9, 0);
        let specs = |pass: usize| -> Vec<mcs::FileSpec> {
            (0..BULK_TOTAL)
                .map(|i| {
                    let mut s =
                        mcs::FileSpec::named(format!("bulk.p{pass}.{i:08}.dat"));
                    s.attributes = spec::attributes_of(n.wrapping_add(i));
                    s
                })
                .collect()
        };
        for (s, label) in bulk_labels.iter().enumerate() {
            let batch = s >= 2; // first two passes are one-at-a-time
            let soap_side = s % 2 == 0;
            let specs = specs(s);
            let mut soap_client = mcs_net::McsClient::with_opts(
                d.server.addr().to_string(),
                cred.clone(),
                soapstack::TransportOpts { keep_alive: true, simulated_rtt: Duration::ZERO },
            );
            let mut bin_client =
                mcs_net::BinMcsClient::connect(bin.addr().to_string(), cred.clone());
            let t0 = std::time::Instant::now();
            let mut errors = 0u64;
            if batch {
                for chunk in specs.chunks(BATCH) {
                    let r = if soap_side {
                        soap_client.create_files(chunk).map(|_| ())
                    } else {
                        bin_client.create_files(chunk).map(|_| ())
                    };
                    if r.is_err() {
                        errors += chunk.len() as u64;
                    }
                }
            } else {
                for spec in &specs {
                    let r = if soap_side {
                        soap_client.create_file(spec).map(|_| ())
                    } else {
                        bin_client.create_file(spec).map(|_| ())
                    };
                    if r.is_err() {
                        errors += 1;
                    }
                }
            }
            let elapsed = t0.elapsed().as_secs_f64();
            let rate = BULK_TOTAL as f64 / elapsed;
            eprintln!(
                "[fig18] {} files, {label}: {rate:.1} files/s ({errors} errors)",
                size_label(n)
            );
            series[4 + s].points.push(Point { x: n, rate, ops: BULK_TOTAL, errors });
        }
    }
    eprintln!(
        "[fig18] acceptance: {:.1}x binary-over-soap-keep-alive at the largest size (bar: >=5x)",
        speedup_at_largest
    );

    Figure {
        id: "fig18".into(),
        title: "Simple-Query and Bulk-Ingest Throughput: Binary Wire Protocol vs SOAP \
                Keep-Alive vs Direct Calls"
            .into(),
        x_label: "database size (logical files)".into(),
        y_label: "ops/sec".into(),
        series,
    }
}

/// Run one figure by number.
pub fn run_figure(n: u8, cfg: &Config, deployments: &[Deployment]) -> Figure {
    match n {
        5 => fig5(cfg, deployments),
        6 => fig6(cfg, deployments),
        7 => fig7(cfg, deployments),
        8 => fig8(cfg, deployments),
        9 => fig9(cfg, deployments),
        10 => fig10(cfg, deployments),
        11 => fig11(cfg, deployments),
        12 => fig12(cfg, deployments),
        13 => fig13(cfg, deployments),
        14 => fig14(cfg, deployments),
        15 => fig15(cfg, deployments),
        16 => fig16(cfg, deployments),
        17 => fig17(cfg, deployments),
        18 => fig18(cfg, deployments),
        other => panic!(
            "no figure {other}: 5–11 reproduce the paper, 12/13 the durability A/Bs, \
             14 the read-cache A/B, 15 the sharded-catalog scaling A/B, 16 the MVCC \
             snapshot-read A/B, 17 the cost-based planner A/B, 18 the binary wire \
             protocol A/B"
        ),
    }
}
