//! Epoch-consistent read cache for the catalog's query hot path.
//!
//! Metadata workloads are read-heavy and repetitive — the same discovery
//! queries re-run per workflow — and successor catalogs (AMGA, AliEn)
//! made server-side caching a first-class scaling lever. This module
//! caches `query_by_attributes` results and the hot resolution paths,
//! stamped with the *write-version vector* of each entry's input tables
//! ([`relstore::Database::version_vector`]): a hit is served only when
//! the current vector still equals the stamp, i.e. no committed write has
//! touched any input table since the entry was filled. Writers never
//! maintain invalidation lists — they just bump versions — and stale
//! entries are lazily revalidated (stale → miss → refill). The
//! correctness argument lives in DESIGN.md §7.3.
//!
//! The cache is **off by default** (Figures 5–11 reproduce the 2003
//! shapes untouched) and enabled via
//! [`StoreConfig::cache`](crate::StoreConfig); a request opts out with
//! the `cache_bypass` flag of its scope ([`relstore::OpCtx`]), which the
//! network layer sets from the `mcs:cache="bypass"` attribute and
//! [`Mcs::with_cache_bypass`] sets for in-process callers.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use relstore::{Database, Value};

use crate::catalog::Mcs;
use crate::model::{AttrOp, AttrPredicate, Collection, LogicalFile};
use crate::schema::IndexProfile;

/// Sizing knobs for the read cache; see [`crate::StoreConfig::cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total cached entries across all shards (bounds memory).
    pub capacity: usize,
    /// Lock shards the keyspace is split over (bounds contention).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 4096, shards: 8 }
    }
}

/// Snapshot of the cache's counters (the `cacheStats` SOAP op).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a validated entry.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Lookups that found an entry whose stamp no longer matched the
    /// tables' current versions (counted *in addition* to the miss).
    pub stale: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
}

/// What a cache entry depends on and how it is addressed. The key kind
/// fixes both the input-table set and the [`CacheValue`] kind stored
/// under it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CacheKey {
    /// Normalized `query_by_attributes` predicate vector + index profile.
    Query(String),
    /// `resolve_file` (single-version lookup by name).
    FileByName(String),
    /// `resolve_file_version`.
    FileByNameVer(String, i64),
    /// `resolve_collection`.
    CollByName(String),
    /// The ACE list of one object (`object_type code`, `object id`) —
    /// the authorization check every catalog call makes.
    Acl(i64, i64),
}

impl CacheKey {
    /// The tables whose write versions stamp entries under this key.
    fn tables(&self) -> &'static [&'static str] {
        match self {
            CacheKey::Query(_) => {
                &["user_attributes", "logical_files", "attribute_definitions"]
            }
            CacheKey::FileByName(_) | CacheKey::FileByNameVer(..) => &["logical_files"],
            CacheKey::CollByName(_) => &["logical_collections"],
            CacheKey::Acl(..) => &["acl_entries"],
        }
    }
}

/// Cached results, one variant per [`CacheKey`] kind.
#[derive(Debug, Clone)]
pub(crate) enum CacheValue {
    /// Sorted `(name, version)` hits of a complex query.
    Hits(Vec<(String, i64)>),
    /// A resolved logical file.
    File(LogicalFile),
    /// A resolved collection.
    Collection(Collection),
    /// An object's ACE list (principal, permission).
    Acl(Vec<(String, crate::model::Permission)>),
}

/// What an entry is validated against: the write-version vector of its
/// input tables, plus — on an MVCC store — the visibility watermark
/// ([`Database::visible_epoch`]) at probe time. An entry is served when
/// its vector still matches, *or* when the watermark has not moved since
/// the entry's fill was probed (no commit became visible in between, so a
/// fresh compute would read the identical snapshot). The epoch is 0 and
/// ignored on the barrier engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FillStamp {
    pub(crate) versions: Vec<u64>,
    pub(crate) epoch: u64,
}

/// Outcome of a cache probe.
pub(crate) enum Lookup {
    /// Entry present and still valid (version vector match, or snapshot
    /// epoch unchanged on an MVCC store).
    Hit(CacheValue),
    /// No valid entry. Carries the stamp read *before* the caller
    /// recomputes, which is the only stamp safe to fill with (a stamp
    /// taken after the read could mask a write that landed mid-read).
    Miss(FillStamp),
}

/// Canonical byte encoding of a predicate comparison value. `Value` has
/// no `Hash`/`Eq` (floats), so query keys embed this string instead;
/// floats encode by bit pattern and strings are length-prefixed so
/// embedded separators can't alias two different predicate vectors.
fn canon_value(v: &Value) -> String {
    match v {
        Value::Null => "n".to_owned(),
        Value::Int(i) => format!("i{i}"),
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        Value::Str(s) => format!("s{}:{}", s.len(), s),
        Value::Bool(b) => format!("b{}", *b as u8),
        Value::Date(d) => format!("d{d:?}"),
        Value::Time(t) => format!("t{t:?}"),
        Value::DateTime(dt) => format!("z{dt:?}"),
    }
}

fn op_code(op: AttrOp) -> u8 {
    match op {
        AttrOp::Eq => 0,
        AttrOp::Ne => 1,
        AttrOp::Lt => 2,
        AttrOp::Le => 3,
        AttrOp::Gt => 4,
        AttrOp::Ge => 5,
        AttrOp::Like => 6,
    }
}

/// Key for a `query_by_attributes` call: the predicate triples are
/// rendered canonically and sorted, so predicate order doesn't fragment
/// the cache, and the index profile is included because it changes which
/// plan produced the entry.
pub(crate) fn query_key(preds: &[AttrPredicate], profile: IndexProfile) -> CacheKey {
    let mut parts: Vec<String> = preds
        .iter()
        .map(|p| {
            format!("{}:{}\u{1f}{}\u{1f}{}", p.name.len(), p.name, op_code(p.op), canon_value(&p.value))
        })
        .collect();
    parts.sort();
    CacheKey::Query(format!("{profile:?}\u{1e}{}", parts.join("\u{1e}")))
}

/// One shard: an LRU over `cap` entries. Recency is a monotonic tick; the
/// `recency` index maps tick → key so eviction pops the oldest in
/// `O(log n)` and a hit re-ticks in `O(log n)`.
struct Shard {
    map: HashMap<CacheKey, (CacheValue, FillStamp, u64)>,
    recency: BTreeMap<u64, CacheKey>,
    next_tick: u64,
    cap: usize,
}

impl Shard {
    fn new(cap: usize) -> Shard {
        Shard { map: HashMap::new(), recency: BTreeMap::new(), next_tick: 0, cap }
    }

    fn touch(&mut self, key: &CacheKey) {
        if let Some((_, _, tick)) = self.map.get_mut(key) {
            let old = *tick;
            self.next_tick += 1;
            *tick = self.next_tick;
            self.recency.remove(&old);
            self.recency.insert(self.next_tick, key.clone());
        }
    }

    fn remove(&mut self, key: &CacheKey) {
        if let Some((_, _, tick)) = self.map.remove(key) {
            self.recency.remove(&tick);
        }
    }

    /// Insert or replace; returns how many entries were evicted.
    fn insert(&mut self, key: CacheKey, value: CacheValue, stamp: FillStamp) -> u64 {
        self.remove(&key);
        let mut evicted = 0;
        while self.map.len() >= self.cap {
            let Some((_, victim)) = self.recency.pop_first() else { break };
            self.map.remove(&victim);
            evicted += 1;
        }
        self.next_tick += 1;
        self.recency.insert(self.next_tick, key.clone());
        self.map.insert(key, (value, stamp, self.next_tick));
        evicted
    }
}

/// The sharded, version-validated LRU. Constructed by
/// [`Mcs::with_database_cached`](crate::Mcs::with_database_cached) when a
/// [`CacheConfig`] is given.
pub(crate) struct McsCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    evictions: AtomicU64,
}

impl McsCache {
    pub(crate) fn new(cfg: &CacheConfig) -> McsCache {
        let shards = cfg.shards.max(1);
        let per_shard = (cfg.capacity.max(1)).div_ceil(shards);
        McsCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Probe for `key`, validating any entry against the *current* write
    /// versions of its input tables — and, on an MVCC store, against the
    /// visibility watermark (either check passing serves the entry).
    /// Stale entries are dropped on the spot (lazy revalidation — the
    /// follow-up fill re-stamps them).
    pub(crate) fn lookup(&self, db: &Database, key: &CacheKey) -> Lookup {
        let mvcc = db.is_mvcc();
        let current = FillStamp {
            versions: db.version_vector(key.tables()),
            epoch: if mvcc { db.visible_epoch() } else { 0 },
        };
        let mut shard = self.shard(key).lock();
        match shard.map.get(key) {
            Some((value, stamp, _))
                if stamp.versions == current.versions
                    || (mvcc && stamp.epoch == current.epoch) =>
            {
                let value = value.clone();
                shard.touch(key);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(value)
            }
            Some(_) => {
                shard.remove(key);
                self.stale.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss(current)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss(current)
            }
        }
    }

    /// Store a freshly computed result under `key`. `stamp` must be the
    /// one returned by the [`Lookup::Miss`] that preceded the compute.
    pub(crate) fn insert(&self, key: CacheKey, value: CacheValue, stamp: FillStamp) {
        let evicted = self.shard(&key).lock().insert(key, value, stamp);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl Mcs {
    /// The cache handle, unless caching is disabled or this handle's
    /// scope bypasses it — a planner bypass skips the cache too, since
    /// its point is to measure (and twin-test) the actual evaluation.
    /// Every cached read path goes through this, so bypass really does
    /// re-run the uncached code.
    pub(crate) fn read_cache(&self) -> Option<&McsCache> {
        if self.ctx.cache_bypass || self.ctx.planner_bypass {
            return None;
        }
        self.cache.as_ref()
    }

    /// `compute`'s answer, served from the read cache while the entry
    /// under `key` (built only when a cache is on) is valid, and stored
    /// there otherwise; `unwrap` takes the answer out of an entry of
    /// `key`'s kind. Errors are never cached.
    pub(crate) fn cached<T: Clone>(
        &self,
        key: impl FnOnce() -> CacheKey,
        wrap: fn(T) -> CacheValue,
        unwrap: fn(CacheValue) -> Option<T>,
        compute: impl FnOnce() -> crate::error::Result<T>,
    ) -> crate::error::Result<T> {
        let Some(cache) = self.read_cache() else { return compute() };
        let key = key();
        let stamp = match cache.lookup(&self.db, &key) {
            Lookup::Hit(v) => return unwrap(v).map_or_else(compute, Ok),
            Lookup::Miss(stamp) => stamp,
        };
        let v = compute()?;
        cache.insert(key, wrap(v.clone()), stamp);
        Ok(v)
    }

    /// True when this catalog was opened with a read cache.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Counter snapshot, `None` when caching is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(McsCache::stats)
    }

    /// Run `f` on a handle whose scope bypasses the read cache: every
    /// read `f` makes executes the uncached path (and fills nothing).
    /// The network layer's per-request `mcs:cache="bypass"` knob sets the
    /// same flag in the scope it builds; nesting is a no-op.
    pub fn with_cache_bypass<R>(&self, f: impl FnOnce(&Mcs) -> R) -> R {
        self.rescoped(relstore::OpCtx { cache_bypass: true, ..self.ctx.clone() }, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey::FileByName(format!("k{n}"))
    }

    fn value() -> CacheValue {
        CacheValue::Hits(Vec::new())
    }

    fn stamp(versions: Vec<u64>) -> FillStamp {
        FillStamp { versions, epoch: 0 }
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let mut s = Shard::new(2);
        assert_eq!(s.insert(key(1), value(), stamp(vec![0])), 0);
        assert_eq!(s.insert(key(2), value(), stamp(vec![0])), 0);
        s.touch(&key(1)); // 2 is now the oldest
        assert_eq!(s.insert(key(3), value(), stamp(vec![0])), 1);
        assert!(s.map.contains_key(&key(1)));
        assert!(!s.map.contains_key(&key(2)));
        assert!(s.map.contains_key(&key(3)));
        assert_eq!(s.map.len(), s.recency.len());
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut s = Shard::new(2);
        s.insert(key(1), value(), stamp(vec![0]));
        s.insert(key(2), value(), stamp(vec![0]));
        assert_eq!(s.insert(key(1), value(), stamp(vec![9])), 0);
        assert_eq!(s.map.len(), 2);
        assert_eq!(s.map.get(&key(1)).unwrap().1.versions, vec![9]);
    }

    #[test]
    fn query_key_is_order_insensitive_but_value_sensitive() {
        let a = AttrPredicate::eq("x", 1i64);
        let b = AttrPredicate::eq("y", 2i64);
        assert_eq!(
            query_key(&[a.clone(), b.clone()], IndexProfile::Paper2003),
            query_key(&[b.clone(), a.clone()], IndexProfile::Paper2003)
        );
        let c = AttrPredicate::eq("y", 3i64);
        assert_ne!(
            query_key(&[a.clone(), b.clone()], IndexProfile::Paper2003),
            query_key(&[a.clone(), c], IndexProfile::Paper2003)
        );
        // same bytes, different profile → different plan → different key
        assert_ne!(
            query_key(&[a.clone(), b.clone()], IndexProfile::Paper2003),
            query_key(&[a, b], IndexProfile::ValueIndexed)
        );
        // float keys encode by bit pattern, not display form
        let f1 = AttrPredicate::eq("x", 0.1f64);
        let f2 = AttrPredicate::eq("x", 0.1f64 + f64::EPSILON);
        assert_ne!(
            query_key(&[f1], IndexProfile::Paper2003),
            query_key(&[f2], IndexProfile::Paper2003)
        );
    }
}
