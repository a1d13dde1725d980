//! The operations the workloads send, the targets that execute them,
//! and the check every answer must pass.
//!
//! Every expected answer is derived from `workload::spec`, the same
//! formulas the bulk loader used to write the catalog.

use std::sync::Arc;

use mcs::{AttrOp, AttrPredicate, Credential, FileSpec, LogicalFile, Mcs};
use mcs_net::{BinMcsClient, McsClient};
use relstore::Value;
use workload::spec;

/// Which answer set a query must return (on a catalog whose files are
/// exactly `0..n` as laid out by `spec`).
#[derive(Debug, Clone)]
pub enum Want {
    /// Equality on the first `k` attributes of file `i`.
    Eq { k: usize, i: u64 },
    /// `lo <= wl_seq <= hi` within collection `coll`.
    Range { coll: u64, lo: u64, hi: u64 },
    /// `wl_site LIKE 'site_<tens>%'` and `wl_seq >= lo` within `coll`.
    Like { coll: u64, tens: u64, lo: u64 },
}

/// One catalog operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// getFile of file `i`, expected in collection `coll` (catalog id).
    Get { i: u64, coll: Option<i64> },
    /// queryByAttributes; the answer must be exactly the set `want`
    /// describes, which contains the file the query was built from.
    Query {
        preds: Vec<AttrPredicate>,
        want: Want,
    },
    /// createFile of file `i` with its ten spec attributes.
    Create { i: u64 },
    /// deleteFile of file `i`.
    Delete { i: u64 },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Create { .. } | Op::Delete { .. })
    }
}

/// The key that decides equality of attribute `a` between two file
/// indices, mirroring `spec::attr_value`; [`self_check`] proves the two
/// agree before any answer is judged by it.
fn attr_key(a: usize, x: u64) -> u64 {
    match a {
        0 => x % 50,
        1 => x % 20,
        2 => x % 1000,
        3 => x / 1000,
        4 => x % 997,
        5 => x % 101,
        6 => x % 365,
        7 => x % 30,
        8 => x % 86_400,
        9 => x % 3_600,
        _ => unreachable!("ten attributes"),
    }
}

/// Files `j < n` with `j % m == r`.
fn count_mod(n: u64, m: u64, r: u64) -> u64 {
    n / m + u64::from(r < n % m)
}

impl Want {
    pub fn matches(&self, j: u64) -> bool {
        match *self {
            Want::Eq { k, i } => (0..k).all(|a| attr_key(a, j) == attr_key(a, i)),
            Want::Range { coll, lo, hi } => j / 1000 == coll && (lo..=hi).contains(&(j % 1000)),
            Want::Like { coll, tens, lo } => {
                j / 1000 == coll && (j % 50) / 10 == tens && j % 1000 >= lo
            }
        }
    }

    /// Size of the answer on a catalog of files `0..n` (`n` a multiple
    /// of 1000).
    pub fn count(&self, n: u64) -> u64 {
        match *self {
            Want::Eq { k: 1, i } => count_mod(n, 50, i % 50),
            Want::Eq { k: 2, i } => count_mod(n, 100, i % 100),
            Want::Eq { k: 3, i } => count_mod(n, 1000, i % 1000),
            Want::Eq { .. } => 1,
            Want::Range { lo, hi, .. } => hi - lo + 1,
            Want::Like { coll, .. } => (coll * 1000..coll * 1000 + 1000)
                .filter(|&j| self.matches(j))
                .count() as u64,
        }
    }
}

pub fn eq_query(i: u64, k: usize) -> Op {
    Op::Query {
        preds: spec::complex_query(i, k),
        want: Want::Eq { k, i },
    }
}

pub fn range_query(coll: u64, lo: u64, hi: u64) -> Op {
    let p = |op, name: &str, v: u64| AttrPredicate {
        name: name.to_owned(),
        op,
        value: Value::Int(v as i64),
    };
    Op::Query {
        preds: vec![
            p(AttrOp::Ge, "wl_seq", lo),
            p(AttrOp::Le, "wl_seq", hi),
            p(AttrOp::Eq, "wl_coll", coll),
        ],
        want: Want::Range { coll, lo, hi },
    }
}

pub fn like_query(coll: u64, tens: u64, lo: u64) -> Op {
    Op::Query {
        preds: vec![
            AttrPredicate {
                name: "wl_site".into(),
                op: AttrOp::Like,
                value: Value::from(format!("site_{tens}%")),
            },
            AttrPredicate {
                name: "wl_seq".into(),
                op: AttrOp::Ge,
                value: Value::Int(lo as i64),
            },
            AttrPredicate {
                name: "wl_coll".into(),
                op: AttrOp::Eq,
                value: Value::Int(coll as i64),
            },
        ],
        want: Want::Like { coll, tens, lo },
    }
}

/// Prove that [`attr_key`] and the answer counts agree with `spec` on a
/// catalog of `n` files, so a change to the workload's formulas fails
/// the run instead of failing every answer.
pub fn self_check(n: u64) -> Result<(), String> {
    let probes = [0u64, 1, 49, 50, 99, 999, 1000, 4_321, 86_399, 99_999];
    for a in 0..10 {
        for &x in &probes {
            for &y in &probes {
                let same = spec::attr_value(a, x) == spec::attr_value(a, y);
                if same != (attr_key(a, x) == attr_key(a, y)) {
                    return Err(format!(
                        "attribute {a} keys disagree with spec for {x}, {y}"
                    ));
                }
            }
        }
    }
    for (k, i) in [(2usize, 7u64), (3, 4_321), (4, n - 1), (10, 0)] {
        let want = Want::Eq { k, i };
        let brute = (0..n).filter(|&j| want.matches(j)).count() as u64;
        if brute != want.count(n) {
            return Err(format!(
                "answer count for k={k} i={i}: {brute} != {}",
                want.count(n)
            ));
        }
    }
    Ok(())
}

pub fn file_spec(i: u64) -> FileSpec {
    FileSpec {
        name: spec::file_name(i),
        attributes: spec::attributes_of(i),
        ..FileSpec::default()
    }
}

/// The index of a workload file name (`lfn.<9 digits>.dat`).
pub fn index_of(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("lfn.")?.strip_suffix(".dat")?;
    if digits.len() != 9 {
        return None;
    }
    digits.parse().ok()
}

/// What a target returned.
// Each reply is checked and dropped where it is made; boxing the file
// would add an allocation to every timed getFile.
#[allow(clippy::large_enum_variant)]
pub enum Reply {
    File(LogicalFile),
    Hits(Vec<(String, i64)>),
    Done,
}

/// Check one answer against `spec`; `n` is the number of bulk-loaded
/// files the queries range over.
pub fn check(op: &Op, reply: &Reply, n: u64) -> Result<(), String> {
    match (op, reply) {
        (Op::Get { i, coll }, Reply::File(f)) => {
            if f.name != spec::file_name(*i)
                || f.version != 1
                || f.collection_id != *coll
                || !f.valid
            {
                return Err(format!(
                    "getFile {i}: got {} v{} in {:?}",
                    f.name, f.version, f.collection_id
                ));
            }
            Ok(())
        }
        (Op::Create { i }, Reply::File(f)) => {
            if f.name != spec::file_name(*i) || f.version != 1 {
                return Err(format!("createFile {i}: got {} v{}", f.name, f.version));
            }
            Ok(())
        }
        (Op::Delete { .. }, Reply::Done) => Ok(()),
        (Op::Query { want, .. }, Reply::Hits(hits)) => {
            let mut js = Vec::with_capacity(hits.len());
            for (name, version) in hits {
                let j = index_of(name).filter(|&j| j < n && want.matches(j));
                match j {
                    Some(j) if *version == 1 => js.push(j),
                    _ => return Err(format!("query {want:?}: unexpected hit {name} v{version}")),
                }
            }
            js.sort_unstable();
            js.dedup();
            let expect = want.count(n);
            if js.len() != hits.len() || js.len() as u64 != expect {
                return Err(format!(
                    "query {want:?}: {} hits ({} distinct), expected {expect}",
                    hits.len(),
                    js.len()
                ));
            }
            Ok(())
        }
        _ => Err("reply of the wrong kind".into()),
    }
}

/// Something that executes catalog operations: the catalog itself or a
/// client of one of its wire protocols.
pub trait Target {
    fn call(&mut self, op: &Op) -> Result<Reply, String>;
}

/// Direct, in-process calls on [`Mcs`], optionally under a cache bypass.
pub struct Direct {
    pub mcs: Arc<Mcs>,
    pub cred: Credential,
    pub bypass: bool,
}

impl Direct {
    fn exec(&self, m: &Mcs, op: &Op) -> mcs::Result<Reply> {
        Ok(match op {
            Op::Get { i, .. } => Reply::File(m.get_file(&self.cred, &spec::file_name(*i))?),
            Op::Query { preds, .. } => Reply::Hits(m.query_by_attributes(&self.cred, preds)?),
            Op::Create { i } => Reply::File(m.create_file(&self.cred, &file_spec(*i))?),
            Op::Delete { i } => {
                m.delete_file(&self.cred, &spec::file_name(*i))?;
                Reply::Done
            }
        })
    }
}

impl Target for Direct {
    fn call(&mut self, op: &Op) -> Result<Reply, String> {
        let r = if self.bypass {
            self.mcs.with_cache_bypass(|m| self.exec(m, op))
        } else {
            self.exec(&self.mcs, op)
        };
        r.map_err(|e| e.to_string())
    }
}

/// The two wire clients have the same four calls; one mapping serves both.
macro_rules! client_target {
    ($($client:ty),*) => {$(
        impl Target for $client {
            fn call(&mut self, op: &Op) -> Result<Reply, String> {
                let r = match op {
                    Op::Get { i, .. } => self.get_file(&spec::file_name(*i)).map(Reply::File),
                    Op::Query { preds, .. } => self.query_by_attributes(preds).map(Reply::Hits),
                    Op::Create { i } => self.create_file(&file_spec(*i)).map(Reply::File),
                    Op::Delete { i } => self.delete_file(&spec::file_name(*i)).map(|()| Reply::Done),
                };
                r.map_err(|e| e.to_string())
            }
        }
    )*};
}

client_target!(BinMcsClient, McsClient);
