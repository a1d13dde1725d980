//! End-to-end and per-layer benchmark of the metadata catalog service.
//!
//! ```text
//! perfbench --workload <lookup-hot|discover-cold|publish-soap>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric and, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` a traced pass derives the per-layer ones. See
//! `perfbench/README.md`.

mod alloc;
mod layers;
mod measure;
mod ops;
mod pin;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use mcs::ObjectRef;
use workload::spec;

use measure::{counted, lat_us, over, reference_us, timed, Runner, Window};
use ops::{Op, Reply};
use stats::{median, peak_rss_mib, Rng};
use workloads::{setup, write_probe, Env, Kind, Stream, WRITE_BASE, WRITE_BLOCK};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Windows of each measured slice, and of the write probe; each figure is
/// the median over all windows of a run.
pub const WINDOWS: usize = 4;
/// Unmeasured closed-loop warm-up before the measured phase.
pub const WARMUP_S: f64 = 0.5;
/// Create cycles of each write probe of the read-only workloads.
const PROBE_CYCLES: u64 = 4_000;
/// Queries compared against the posting-scan oracle on discover-cold.
const ORACLE_QUERIES: usize = 10;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// A metric as printed: name, value, unit, and sample count when it is
/// a percentile.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

/// A failed workload-definition guard: the run no longer measures what
/// the workload was defined to measure.
pub struct GuardFailed(pub String);

fn report(runner: &Runner, metrics: &[Metric]) {
    let mut json = String::new();
    for m in metrics {
        let n = m.samples.map(|n| format!(" (n={n})")).unwrap_or_default();
        println!("{:<28} {:>14.4} {}{n}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        json.push_str(&format!(
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if json.is_empty() { "" } else { ", " },
            m.name,
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        runner.failed == 0,
        runner.attempted.max(1),
        runner.failed
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = ops::self_check(workloads::CATALOG_FILES) {
        eprintln!("perfbench: workload spec changed: {e}");
        return ExitCode::from(3);
    }
    match pin::to_one_cpu() {
        Some(cpu) => eprintln!("pinned to CPU {cpu}"),
        None => eprintln!("could not pin to one CPU; figures will be noisier"),
    }
    // Builds the reference task's memory chain before anything is timed.
    speed::reference_ns();
    let work = PathBuf::from(".bench_work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let mut runner = Runner::default();
    let result = if args.trace {
        layers::traced(args.kind, args.seed, args.seconds, &work, &mut runner)
    } else {
        untraced(args.kind, args.seed, args.seconds, &work, &mut runner)
    };
    match result {
        Ok(metrics) => {
            report(&runner, &metrics);
            ExitCode::SUCCESS
        }
        Err(GuardFailed(msg)) => {
            eprintln!(
                "perfbench: workload guard failed on {}: {msg}",
                args.kind.name()
            );
            ExitCode::from(4)
        }
    }
}

/// Compare attributes as sets of `(name, value)`.
fn same_attrs(mut a: Vec<mcs::Attribute>, mut b: Vec<mcs::Attribute>) -> bool {
    a.sort_by(|x, y| x.name.cmp(&y.name));
    b.sort_by(|x, y| x.name.cmp(&y.name));
    a == b
}

/// Checks made after the measured phase, outside all timing.
fn post_checks(env: &Env, seed: u64, runner: &mut Runner) {
    match env.kind {
        Kind::LookupHot => {
            // Every hot file's attributes, through the binary protocol.
            let mut client = env.bin_client();
            for &i in env.hot.iter() {
                let got = client.get_attributes(&ObjectRef::File(spec::file_name(i)));
                let ok = got.is_ok_and(|a| same_attrs(a, spec::attributes_of(i)));
                runner.checked(ok, || format!("attributes of file {i} differ from spec"));
            }
        }
        Kind::DiscoverCold => {
            // A seeded sample against the planner-bypass posting-scan oracle.
            let mut client = env.bin_client();
            let mut stream = Stream::new(env, Rng::stream(seed, workloads::ORACLE), 0);
            let cred = workloads::cred();
            for op in stream.take(ORACLE_QUERIES) {
                let Op::Query { preds, .. } = &op else {
                    continue;
                };
                let oracle = env
                    .mcs
                    .with_planner_bypass(|m| m.query_by_attributes(&cred, preds));
                let planned = client.query_by_attributes(preds);
                let ok = match (oracle, planned) {
                    (Ok(mut o), Ok(mut p)) => {
                        o.sort();
                        p.sort();
                        o == p && ops::check(&op, &Reply::Hits(p), env.n).is_ok()
                    }
                    _ => false,
                };
                runner.checked(ok, || {
                    format!("planned answer differs from the oracle: {preds:?}")
                });
            }
        }
        Kind::PublishSoap => {}
    }
}

/// Reopen publish-soap's store and check that every acknowledged create
/// is present and every acknowledged delete absent. Returns the reopen
/// time in seconds.
pub fn recover_and_check(dir: &Path, runner: &mut Runner) -> f64 {
    let t = Instant::now();
    let mcs = match workloads::open_store(dir) {
        Ok(m) => m,
        Err(e) => {
            runner.checked(false, || format!("reopen {}: {e}", dir.display()));
            return 0.0;
        }
    };
    let recover_s = t.elapsed().as_secs_f64();
    let cred = workloads::cred();
    for &i in &runner.live.clone() {
        let ok = mcs
            .get_file(&cred, &spec::file_name(i))
            .is_ok_and(|f| f.version == 1);
        runner.checked(ok, || format!("acknowledged create of file {i} lost"));
    }
    for &i in &runner.deleted.clone() {
        let gone = matches!(
            mcs.get_file(&cred, &spec::file_name(i)),
            Err(mcs::McsError::NotFound(_))
        );
        runner.checked(gone, || format!("acknowledged delete of file {i} undone"));
    }
    let expect = workloads::PRELOAD_FILES as usize + runner.live.len();
    let count = mcs.file_count().unwrap_or(0);
    runner.checked(count == expect, || {
        format!("{count} files after reopen, expected {expect}")
    });
    recover_s
}

/// Guards that keep each workload measuring what it was defined to.
pub fn guard(
    kind: Kind,
    env: &Env,
    c0: mcs::CacheStats,
    w0: (u64, u64),
    ws: &[Window],
) -> Result<(), GuardFailed> {
    let c1 = env
        .mcs
        .cache_stats()
        .ok_or(GuardFailed("the read cache is off".into()))?;
    let ops: u64 = ws.iter().map(|w| w.ops).sum();
    match kind {
        Kind::LookupHot => {
            let ev = c1.evictions - c0.evictions;
            if ev != 0 {
                return Err(GuardFailed(format!(
                    "{ev} cache evictions: the hot set no longer fits"
                )));
            }
        }
        Kind::DiscoverCold => {
            // Every other probe a query makes (ACL, attribute
            // definitions) is warm, so misses are query-result misses.
            let ratio = 1.0 - (c1.misses - c0.misses) as f64 / ops.max(1) as f64;
            if ratio >= 0.25 {
                return Err(GuardFailed(format!(
                    "query-result hit ratio {ratio:.3} is not well under half"
                )));
            }
        }
        Kind::PublishSoap => {
            let wal = env.mcs.database().wal_stats();
            let syncs = wal.sync_count() - w0.0;
            let commits = wal.group_commit_count() - w0.1;
            let writes: u64 = ws.iter().map(|w| w.writes.len() as u64).sum();
            if syncs != 0 || commits != writes {
                return Err(GuardFailed(format!(
                    "{syncs} fsyncs and {commits} logged commits for {writes} writes: expected no fsync and one commit per write"
                )));
            }
        }
    }
    Ok(())
}

pub fn wal_counts(env: &Env) -> (u64, u64) {
    let wal = env.mcs.database().wal_stats();
    (wal.sync_count(), wal.group_commit_count())
}

fn untraced(
    kind: Kind,
    seed: u64,
    secs: f64,
    work: &Path,
    runner: &mut Runner,
) -> Result<Vec<Metric>, GuardFailed> {
    // Each set-up is measured for a third of the phase, so the windows
    // are spread over the whole run rather than one stretch of it.
    let mut setups = Vec::with_capacity(SETUPS);
    let sampler = speed::Sampler::new();
    let (mut ws, mut probe) = (Vec::new(), Vec::new());
    for k in 0..SETUPS {
        // A set-up is one long call that cannot stop for the reference
        // task, so a thread of its own samples the host's speed.
        sampler.begin();
        let t = Instant::now();
        let (env, mut client) = setup(kind, seed, work, k, runner);
        let wall = t.elapsed().as_secs_f64();
        let (factor, sampler_s) = sampler.end();
        setups.push((wall - sampler_s) * factor);
        let rng = Rng::stream(seed, workloads::MEASURE + 16 * k as u64);
        let mut stream = Stream::new(&env, rng, WRITE_BASE);
        timed(
            runner,
            client.as_mut(),
            &mut stream,
            env.n,
            WARMUP_S,
            1,
            None,
        );
        let (c0, w0) = (env.mcs.cache_stats().unwrap_or_default(), wal_counts(&env));
        let slice = timed(
            runner,
            client.as_mut(),
            &mut stream,
            env.n,
            secs / SETUPS as f64,
            WINDOWS,
            None,
        );
        guard(kind, &env, c0, w0, &slice)?;
        eprintln!(
            "set-up {}: {wall:.3} s, {:.3} s at nominal speed; slice: {:.0} ops/s, read p50/p99 {:.1}/{:.1} us, reference task p50 {:.1} us",
            k + 1,
            setups[k],
            over(&slice, Window::ops_s),
            lat_us(&slice, false, 0.5).0,
            lat_us(&slice, false, 0.99).0,
            reference_us(&slice)
        );
        ws.extend(slice);
        // Each server has one worker, so only one connection at a time.
        drop(client);
        let last = k + 1 == SETUPS;
        if last {
            post_checks(&env, seed, runner);
        }
        if kind.read_only() {
            // The first probe is a warm-up: it grows the tables and
            // indexes once, so the timed one reuses their memory instead
            // of paying the host's page faults in its tail.
            let mut client = env.client();
            for b in [1, 2] {
                let (writes, cleanup) = write_probe(WRITE_BASE + b * WRITE_BLOCK, PROBE_CYCLES);
                let windows = counted(runner, client.as_mut(), &writes, env.n, WINDOWS);
                if b == 2 {
                    eprintln!(
                        "write probe: p50/p99 {:.1}/{:.1} us",
                        lat_us(&windows, true, 0.5).0,
                        lat_us(&windows, true, 0.99).0
                    );
                    probe.extend(windows);
                }
                for op in &cleanup {
                    runner.exec(client.as_mut(), op, env.n);
                }
            }
        }
        // The reopen-and-check of publish-soap's store belongs to the
        // traced pass, which also times it: it replays the whole log, and
        // untraced runs paying for it would not fit the run budget.
        if let Some(dir) = env.shut_down() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let writes = if kind.read_only() { &probe } else { &ws };
    let (r50, nr) = lat_us(&ws, false, 0.50);
    let (r99, _) = lat_us(&ws, false, 0.99);
    let (w50, nw) = lat_us(writes, true, 0.50);
    let (w99, _) = lat_us(writes, true, 0.99);
    Ok(vec![
        metric("ops_s", over(&ws, Window::ops_s), "1/s"),
        Metric {
            samples: Some(nr),
            ..metric("read_p50_us", r50, "us")
        },
        Metric {
            samples: Some(nr),
            ..metric("read_p99_us", r99, "us")
        },
        Metric {
            samples: Some(nw),
            ..metric("write_p50_us", w50, "us")
        },
        Metric {
            samples: Some(nw),
            ..metric("write_p99_us", w99, "us")
        },
        metric("setup_s", median(&setups), "s"),
        metric("rss_mib", peak_rss_mib(), "MiB"),
    ])
}
