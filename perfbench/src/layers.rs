//! The traced pass: per-layer metrics derived from spans recorded around
//! calls into each layer's public functions, plus the catalog's own
//! cache and WAL counters.
//!
//! It replays one sample of the workload's operations at each rung —
//! direct `Mcs` calls, the binary client, the SOAP client — and runs the
//! codec, planner and cache-bypass probes on the same sample, so every
//! difference between rungs is taken on identical operations.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mcs::{AttrPredicate, Credential, FileSpec, LogicalFile, Mcs};
use mcs_net::binproto::{frame, Op as Opcode};
use mcs_net::wire;
use soapstack::soap;
use workload::spec;
use xmlkit::Element;

use crate::measure::{counted, over, reference_us, timed, Runner, Window};
use crate::ops::{file_spec, Direct, Op, Reply, Target};
use crate::stats::{median, quantile, spread, Rng};
use crate::trace::{Tracer, ROOT};
use crate::workloads::{self, setup, write_probe, Env, Kind, Stream, WRITE_BASE, WRITE_BLOCK};
use crate::{
    alloc, guard, metric, recover_and_check, wal_counts, GuardFailed, Metric, WARMUP_S, WINDOWS,
};

/// Operations in the counter replay.
fn counter_ops(kind: Kind) -> usize {
    match kind {
        Kind::LookupHot => 20_000,
        // Enough misses to fill the 4 096-entry cache and evict.
        Kind::DiscoverCold => 6_000,
        Kind::PublishSoap => 2_000,
    }
}

/// Reads, and write-probe cycles, in the sample replayed at each rung.
fn sample_size(kind: Kind) -> (usize, u64) {
    match kind {
        Kind::LookupHot => (3_000, 300),
        Kind::DiscoverCold => (800, 200),
        Kind::PublishSoap => (2_000, 0),
    }
}

/// The sample one rung replays, and the untimed deletes that clean up
/// after it: identical for every rung except the indices of the files
/// it creates, which come from block `rung`.
fn sample(env: &Env, seed: u64, rung: u64) -> (Vec<Op>, Vec<Op>) {
    let base = WRITE_BASE + WRITE_BLOCK * (2 + rung);
    let (reads, cycles) = sample_size(env.kind);
    let mut ops = Stream::new(env, Rng::stream(seed, workloads::SAMPLE), base).take(reads);
    let (writes, cleanup) = write_probe(base + WRITE_BLOCK / 2, cycles);
    ops.extend(writes);
    (ops, cleanup)
}

fn wal_bytes(env: &Env) -> u64 {
    env.dir
        .as_ref()
        .and_then(|d| std::fs::metadata(d.join(relstore::wal::WAL_FILE)).ok())
        .map_or(0, |m| m.len())
}

/// Replay a sample on `target`, recording each call as `<rung>.read` or
/// `<rung>.write` with the operation's position as request id, then run
/// its clean-up untraced.
fn replay(
    runner: &mut Runner,
    t: &mut dyn Target,
    (ops, cleanup): &(Vec<Op>, Vec<Op>),
    n: u64,
    names: (&'static str, &'static str),
) {
    for (k, op) in ops.iter().enumerate() {
        let name = if op.is_write() { names.1 } else { names.0 };
        runner.exec_span(t, op, n, Some((name, k as u64)));
    }
    for op in cleanup {
        runner.exec(t, op, n);
    }
}

/// Put lookup-hot's hot set back in the cache after a rung's writes
/// invalidated it, so every rung reads from the same cache state.
fn rewarm(env: &Env, runner: &mut Runner) {
    if env.kind == Kind::LookupHot {
        let mut direct = Direct {
            mcs: Arc::clone(&env.mcs),
            cred: workloads::cred(),
            bypass: false,
        };
        for &i in env.hot.iter() {
            runner.exec(
                &mut direct,
                &Op::Get {
                    i,
                    coll: Some(spec::collection_of(i) as i64 + 1),
                },
                env.n,
            );
            runner.exec(&mut direct, &crate::ops::eq_query(i, 3), env.n);
        }
    }
}

/// What the server would answer to `op`, for the codec probes. Writes
/// answer with the file they create (or nothing, for deletes).
fn answer(
    mcs: &Mcs,
    cred: &Credential,
    op: &Op,
    template: &LogicalFile,
    bypass: bool,
) -> mcs::Result<Reply> {
    let run = |m: &Mcs| match op {
        // A file this sample would have published answers like a loaded one.
        Op::Get { i, .. } | Op::Create { i } => Ok(Reply::File(
            m.get_file(cred, &spec::file_name(*i))
                .unwrap_or_else(|_| LogicalFile {
                    name: spec::file_name(*i),
                    ..template.clone()
                }),
        )),
        Op::Query { preds, .. } => m.query_by_attributes(cred, preds).map(Reply::Hits),
        Op::Delete { .. } => Ok(Reply::Done),
    };
    if bypass {
        mcs.with_cache_bypass(run)
    } else {
        run(mcs)
    }
}

/// A request's argument as a codec probe decoded it.
enum Arg {
    Name(String),
    Preds(Vec<AttrPredicate>),
    Spec(FileSpec),
}

/// What a codec probe decoded from one round trip: the request's
/// credential and argument, and the response's payload.
type Decoded = Result<(Credential, Arg, Reply), String>;

fn text<E: std::fmt::Debug>(e: E) -> String {
    format!("{e:?}")
}

/// Whether a codec probe decoded exactly what was encoded.
fn decoded_right(cred: &Credential, op: &Op, reply: &Reply, got: Decoded) -> Result<(), String> {
    let (c, arg, payload) = got?;
    let arg_ok = match (op, &arg) {
        (Op::Get { i, .. } | Op::Delete { i }, Arg::Name(name)) => *name == spec::file_name(*i),
        (Op::Query { preds, .. }, Arg::Preds(p)) => p == preds,
        // FileSpec has no equality; its derived Debug text lists every field.
        (Op::Create { i }, Arg::Spec(s)) => text(s) == text(file_spec(*i)),
        _ => false,
    };
    let payload_ok = match (reply, &payload) {
        (Reply::File(a), Reply::File(b)) => a == b,
        (Reply::Hits(a), Reply::Hits(b)) => a == b,
        (Reply::Done, Reply::Done) => true,
        _ => false,
    };
    if c != *cred || !arg_ok || !payload_ok {
        return Err(format!(
            "{op:?}: decoded message differs from the encoded one"
        ));
    }
    Ok(())
}

/// One binary round trip's codec work: the request body encoded by the
/// client and decoded by the server, the response encoded by the server
/// and decoded by the client.
fn bin_codec(cred: &Credential, op: &Op, reply: &Reply) -> Decoded {
    let mut req = Vec::with_capacity(64);
    frame::put_u32(&mut req, 1);
    let opcode = match op {
        Op::Get { .. } => Opcode::GetFile,
        Op::Query { .. } => Opcode::QueryByAttributes,
        Op::Create { .. } => Opcode::CreateFile,
        Op::Delete { .. } => Opcode::DeleteFile,
    };
    frame::put_u8(&mut req, opcode as u8);
    frame::put_u8(&mut req, 0);
    frame::put_credential(&mut req, cred);
    match op {
        Op::Get { i, .. } | Op::Delete { i } => frame::put_str(&mut req, &spec::file_name(*i)),
        Op::Query { preds, .. } => {
            frame::put_u32(&mut req, preds.len() as u32);
            preds.iter().for_each(|p| frame::put_predicate(&mut req, p));
        }
        Op::Create { i } => frame::put_filespec(&mut req, &file_spec(*i)),
    }
    let mut r = frame::Reader::new(&req);
    let (tag, code, flags) = (
        r.u32().map_err(text)?,
        r.u8().map_err(text)?,
        r.u8().map_err(text)?,
    );
    if (tag, code, flags) != (1, opcode as u8, 0) {
        return Err(format!("request header decoded as {tag} {code} {flags}"));
    }
    let c = frame::get_credential(&mut r).map_err(text)?;
    let arg = match op {
        Op::Get { .. } | Op::Delete { .. } => Arg::Name(r.str().map_err(text)?),
        Op::Query { .. } => {
            let k = r.seq_len().map_err(text)?;
            let preds = (0..k).map(|_| frame::get_predicate(&mut r));
            Arg::Preds(preds.collect::<Result<_, _>>().map_err(text)?)
        }
        Op::Create { .. } => Arg::Spec(frame::get_filespec(&mut r).map_err(text)?),
    };
    let mut resp = Vec::with_capacity(64);
    frame::put_u32(&mut resp, 1);
    frame::put_u8(&mut resp, frame::STATUS_OK);
    frame::put_u64(&mut resp, 0);
    frame::put_u16(&mut resp, 0);
    match reply {
        Reply::File(f) => frame::put_file(&mut resp, f),
        Reply::Hits(h) => frame::put_hits(&mut resp, h),
        Reply::Done => {}
    }
    let mut r = frame::Reader::new(&resp);
    let head = (
        r.u32().map_err(text)?,
        r.u8().map_err(text)?,
        r.u64().map_err(text)?,
        r.u16().map_err(text)?,
    );
    if head != (1, frame::STATUS_OK, 0, 0) {
        return Err(format!("response header decoded as {head:?}"));
    }
    let payload = match reply {
        Reply::File(_) => Reply::File(frame::get_file(&mut r).map_err(text)?),
        Reply::Hits(_) => Reply::Hits(frame::get_hits(&mut r).map_err(text)?),
        Reply::Done => Reply::Done,
    };
    black_box((req, resp));
    Ok((c, arg, payload))
}

/// The request and response envelopes of one SOAP round trip.
fn soap_bodies(cred: &Credential, op: &Op, reply: &Reply) -> (String, String) {
    let (method, args) = match op {
        Op::Get { i, .. } => (
            "getFile",
            Element::new("a").child(wire::text_el("name", spec::file_name(*i))),
        ),
        Op::Delete { i } => (
            "deleteFile",
            Element::new("a").child(wire::text_el("name", spec::file_name(*i))),
        ),
        Op::Query { preds, .. } => (
            "queryByAttributes",
            preds
                .iter()
                .fold(Element::new("a"), |a, p| a.child(wire::predicate_el(p))),
        ),
        Op::Create { i } => (
            "createFile",
            Element::new("a").child(wire::filespec_el(&file_spec(*i))),
        ),
    };
    let mut args = args;
    args.children
        .insert(0, xmlkit::Node::Element(wire::credential_el(cred)));
    let result = match reply {
        Reply::File(f) => Element::new("r").child(wire::file_el(f)),
        Reply::Hits(h) => Element::new("r").child(wire::hits_el(h)),
        Reply::Done => Element::new("r").child(Element::new("ok")),
    };
    (
        soap::encode_request(method, args),
        soap::encode_response(method, result),
    )
}

/// One SOAP round trip's codec work: build and encode the request,
/// decode it and its arguments, build and encode the response, decode
/// it and its result.
fn soap_codec(cred: &Credential, op: &Op, reply: &Reply) -> Decoded {
    let (req, resp) = soap_bodies(cred, op, reply);
    let (_, call) = soap::decode_request(&req).map_err(text)?;
    let c = wire::credential_from(&call).map_err(text)?;
    let arg = match op {
        Op::Get { .. } | Op::Delete { .. } => {
            Arg::Name(wire::req_text(&call, "name").map_err(text)?)
        }
        Op::Query { .. } => {
            let preds = call.find_all("predicate").map(wire::predicate_from);
            Arg::Preds(preds.collect::<Result<_, _>>().map_err(text)?)
        }
        Op::Create { .. } => {
            let el = call.expect("fileSpec").map_err(text)?;
            Arg::Spec(wire::filespec_from(el).map_err(text)?)
        }
    };
    let el = soap::decode_response(&resp).map_err(text)?;
    let payload = match reply {
        Reply::File(_) => {
            Reply::File(wire::file_from(el.expect("file").map_err(text)?).map_err(text)?)
        }
        Reply::Hits(_) => {
            Reply::Hits(wire::hits_from(el.expect("hits").map_err(text)?).map_err(text)?)
        }
        Reply::Done => {
            el.expect("ok").map_err(text)?;
            Reply::Done
        }
    };
    black_box((req, resp));
    Ok((c, arg, payload))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The `q` quantile of a span's durations in µs (0 without spans).
fn q_us(tr: &Tracer, name: &str, q: f64) -> f64 {
    us(quantile(&mut tr.durations(name), q))
}

/// Median over matching requests of `a - b` (µs).
fn paired_diff_us(tr: &Tracer, a: &str, b: &str) -> f64 {
    let (a, b) = (tr.by_req(a), tr.by_req(b));
    let d: Vec<f64> = a
        .iter()
        .filter_map(|(k, &x)| b.get(k).map(|&y| (x as f64 - y as f64) / 1e3))
        .collect();
    median(&d)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

pub fn traced(
    kind: Kind,
    seed: u64,
    secs: f64,
    work: &Path,
    runner: &mut Runner,
) -> Result<Vec<Metric>, GuardFailed> {
    alloc::enable();
    runner.tracer = Some(Tracer::new());
    let t_setup = Instant::now();
    let (mut env, mut client) = setup(kind, seed, work, 0, runner);
    let tr = runner.tracer.as_mut().expect("tracer");
    let setup_span = tr.record("setup", t_setup, Instant::now(), ROOT, 0);
    tr.record_secs("populate", t_setup, env.load_s, setup_span, 0);

    // Counters over a fixed operation list from the state set-up left:
    // the same seed gives the same counts.
    let ops = Stream::new(&env, Rng::stream(seed, workloads::COUNTERS), WRITE_BASE)
        .take(counter_ops(kind));
    let (c0, w0, b0) = (
        env.mcs.cache_stats().unwrap_or_default(),
        wal_counts(&env),
        wal_bytes(&env),
    );
    let ws = counted(runner, client.as_mut(), &ops, env.n, 1);
    let (c1, w1, b1) = (
        env.mcs.cache_stats().unwrap_or_default(),
        wal_counts(&env),
        wal_bytes(&env),
    );
    guard(kind, &env, c0, w0, &ws)?;
    let n_ops = ops.len() as u64;
    let writes = ops.iter().filter(|o| o.is_write()).count() as u64;
    let misses = c1.misses - c0.misses;

    // The closed loop untraced, then with a span per operation.
    let mut stream = Stream::new(
        &env,
        Rng::stream(seed, workloads::MEASURE),
        WRITE_BASE + WRITE_BLOCK,
    );
    timed(
        runner,
        client.as_mut(),
        &mut stream,
        env.n,
        WARMUP_S,
        1,
        None,
    );
    let plain = timed(
        runner,
        client.as_mut(),
        &mut stream,
        env.n,
        secs / 2.0,
        WINDOWS,
        None,
    );
    let traced = timed(
        runner,
        client.as_mut(),
        &mut stream,
        env.n,
        secs / 2.0,
        WINDOWS,
        Some(("op.read", "op.write")),
    );
    drop(client);
    let (plain_ops, traced_ops) = (over(&plain, Window::ops_s), over(&traced, Window::ops_s));
    let per_op = |w: &Window| ratio(w.allocs, w.ops);
    let host_us = reference_us(&plain);
    let allocs: Vec<f64> = traced.iter().map(per_op).collect();

    // Rungs: the same sample through each layer stack.
    env.start_both_servers();
    rewarm(&env, runner);
    let bypass = kind == Kind::DiscoverCold;
    let cred = workloads::cred();
    let mcs = Arc::clone(&env.mcs);
    let mut direct = Direct {
        mcs: Arc::clone(&mcs),
        cred: cred.clone(),
        bypass,
    };
    replay(
        runner,
        &mut direct,
        &sample(&env, seed, 0),
        env.n,
        ("direct.read", "direct.write"),
    );
    rewarm(&env, runner);
    let mut bin = env.bin_client();
    bin.set_cache_bypass(bypass);
    replay(
        runner,
        &mut bin,
        &sample(&env, seed, 1),
        env.n,
        ("bin.read", "bin.write"),
    );
    rewarm(&env, runner);
    let mut soap_client = env.soap_client();
    soap_client.set_cache_bypass(bypass);
    replay(
        runner,
        &mut soap_client,
        &sample(&env, seed, 2),
        env.n,
        ("soap.read", "soap.write"),
    );
    rewarm(&env, runner);
    drop((bin, soap_client));

    // Probes on the same sample, outside any server: direct calls with
    // the cache policy flipped, then the codecs and the planner.
    let mut other = Direct {
        mcs: Arc::clone(&mcs),
        cred: cred.clone(),
        bypass: !bypass,
    };
    replay(
        runner,
        &mut other,
        &sample(&env, seed, 3),
        env.n,
        ("other.read", "other.write"),
    );
    rewarm(&env, runner);
    let template = mcs
        .get_file(&workloads::admin(), &spec::file_name(0))
        .expect("file 0 exists");
    for (k, op) in sample(&env, seed, 4).0.iter().enumerate() {
        let req = k as u64;
        let reply = match answer(&mcs, &cred, op, &template, bypass) {
            Ok(r) => r,
            Err(e) => {
                runner.checked(false, || format!("{op:?}: {e}"));
                continue;
            }
        };
        let w = op.is_write();
        let tr = runner.tracer.as_mut().expect("tracer");
        let bin = tr.span("codec.bin", ROOT, req, || bin_codec(&cred, op, &reply));
        let soap = tr.span(
            if w {
                "codec.soap.write"
            } else {
                "codec.soap.read"
            },
            ROOT,
            req,
            || soap_codec(&cred, op, &reply),
        );
        let (req_xml, resp_xml) = soap_bodies(&cred, op, &reply);
        let parsed = tr.span(
            if w {
                "xml.parse.write"
            } else {
                "xml.parse.read"
            },
            ROOT,
            req,
            || xmlkit::parse(&req_xml).is_ok() && xmlkit::parse(&resp_xml).is_ok(),
        );
        let planned = match op {
            Op::Query { preds, .. } => tr.span("plan.explain", ROOT, req, || {
                mcs.explain_query(&cred, preds).map(drop).map_err(text)
            }),
            _ => Ok(()),
        };
        for (what, verdict) in [
            ("binary codec", decoded_right(&cred, op, &reply, bin)),
            ("SOAP codec", decoded_right(&cred, op, &reply, soap)),
            (
                "XML parse",
                parsed
                    .then_some(())
                    .ok_or_else(|| format!("{op:?}: envelope does not parse")),
            ),
            ("explain", planned),
        ] {
            runner.checked(verdict.is_ok(), || {
                format!("{what}: {}", verdict.unwrap_err())
            });
        }
    }
    let load = (env.load_s, env.load_bytes / env.n as f64);
    drop((direct, other, mcs));
    let recover_s = env.shut_down().map_or(0.0, |dir| {
        let s = recover_and_check(&dir, runner);
        let _ = std::fs::remove_dir_all(dir);
        s
    });

    let tr = runner.tracer.as_ref().expect("tracer");
    let path = work.join(format!("trace-{}-{seed}.tsv", kind.name()));
    match tr.write_tsv(&path) {
        Ok(()) => eprintln!("{} spans written to {}", tr.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    let read_us = q_us(tr, "direct.read", 0.5);
    let write_us = q_us(tr, "direct.write", 0.5);
    let (uncached, cached) = if bypass {
        ("direct.read", "other.read")
    } else {
        ("other.read", "direct.read")
    };
    let exec: Vec<u64> = {
        let plan = tr.by_req("plan.explain");
        let run = tr.by_req("direct.read");
        plan.iter()
            .filter_map(|(k, p)| run.get(k).map(|r| r.saturating_sub(*p)))
            .collect()
    };
    Ok(vec![
        metric("catalog.read_us", read_us, "us"),
        metric("catalog.write_us", write_us, "us"),
        metric(
            "binproto.wire_us",
            q_us(tr, "bin.read", 0.5) - read_us,
            "us",
        ),
        metric(
            "binproto.codec_ns",
            quantile(&mut tr.durations("codec.bin"), 0.5) as f64,
            "ns",
        ),
        metric(
            "soap.wire_read_us",
            q_us(tr, "soap.read", 0.5) - read_us,
            "us",
        ),
        metric(
            "soap.wire_write_us",
            q_us(tr, "soap.write", 0.5) - write_us,
            "us",
        ),
        metric("soap.codec_read_us", q_us(tr, "codec.soap.read", 0.5), "us"),
        metric(
            "soap.codec_write_us",
            q_us(tr, "codec.soap.write", 0.5),
            "us",
        ),
        metric(
            "xmlkit.parse_read_us",
            q_us(tr, "xml.parse.read", 0.5),
            "us",
        ),
        metric(
            "xmlkit.parse_write_us",
            q_us(tr, "xml.parse.write", 0.5),
            "us",
        ),
        metric("plan.plan_p50_us", q_us(tr, "plan.explain", 0.5), "us"),
        metric("plan.plan_p99_us", q_us(tr, "plan.explain", 0.99), "us"),
        metric(
            "plan.exec_p50_us",
            us(quantile(&mut exec.clone(), 0.5)),
            "us",
        ),
        metric(
            "plan.exec_p99_us",
            us(quantile(&mut exec.clone(), 0.99)),
            "us",
        ),
        // Each operation makes one result probe; its ACL and attribute
        // definition probes are warm, so every miss is a result miss.
        metric(
            "cache.hit_ratio",
            1.0 - ratio(misses, n_ops).min(1.0),
            "ratio",
        ),
        metric(
            "cache.evictions_per_op",
            ratio(c1.evictions - c0.evictions, n_ops),
            "1/op",
        ),
        metric(
            "cache.stale_per_op",
            ratio(c1.stale - c0.stale, n_ops),
            "1/op",
        ),
        metric("cache.saved_us", paired_diff_us(tr, uncached, cached), "us"),
        metric(
            "wal.fsyncs_per_commit",
            ratio(w1.0 - w0.0, w1.1 - w0.1),
            "1/commit",
        ),
        metric("wal.bytes_per_write", ratio(b1 - b0, writes), "B/op"),
        metric("wal.recover_s", recover_s, "s"),
        metric("alloc.per_op", median(&allocs), "1/op"),
        metric(
            "alloc.bytes_per_op",
            over(&traced, |w| ratio(w.alloc_bytes, w.ops)),
            "B/op",
        ),
        metric("alloc.per_op_spread", spread(&allocs), "ratio"),
        metric("populate.load_s", load.0, "s"),
        metric("populate.bytes_per_file", load.1, "B/file"),
        metric("trace.ops_s", traced_ops, "1/s"),
        metric("host.reference_us", host_us, "us"),
        metric(
            "trace.overhead_pct",
            (plain_ops - traced_ops) / plain_ops * 100.0,
            "%",
        ),
    ])
}
