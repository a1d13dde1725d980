//! Allocation ceilings of the catalog's write path. The binary installs
//! a counting global allocator and counts, on one thread, the
//! allocations of one direct `create_file` with ten attributes and one
//! `delete_file` on a durable store opened as the publish benchmark
//! opens it (OS-buffered log, read cache on, typed value indexes). Each
//! is counted after a first create and delete of its own, so the count
//! is that of a call on a warm store.
//!
//! The ceilings sit about 20 % above the counts measured when they were
//! set (CHANGES.md records them and the older code's), so a change that
//! copies rows or statements again on this path fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mcs::{
    AttrType, CacheConfig, Credential, FileSpec, IndexProfile, ManualClock, Mcs, StoreConfig,
    SyncPolicy,
};
use relstore::{Date, DateTime, Value};

/// Allocations of a ten-attribute `create_file`.
const CREATE_CEILING: u64 = 148;
/// Allocations of a `delete_file` of a ten-attribute file.
const DELETE_CEILING: u64 = 98;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations (reallocations included,
/// as they may move) on the thread that makes them.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const ATTRS: [(&str, AttrType); 10] = [
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

/// A file spec with the publish benchmark's ten attributes.
fn spec(i: i64) -> FileSpec {
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
    let mut spec = FileSpec::named(format!("lfn.{i:09}.dat"));
    for ((attr, _), v) in ATTRS.iter().zip(values) {
        spec = spec.attr(*attr, v);
    }
    spec
}

#[test]
fn catalog_writes_stay_under_their_allocation_ceilings() {
    let dir = std::env::temp_dir().join(format!("mcs-catalog-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let admin = Credential::new("/O=Grid/OU=mcs/CN=publisher");
    let cfg = StoreConfig { sync: SyncPolicy::OsBuffered, ..StoreConfig::default() }
        .with_cache(CacheConfig::default());
    let clock = Arc::new(ManualClock::default());
    let m = Mcs::open_durable(&dir, &admin, IndexProfile::ValueIndexed, clock, cfg).unwrap();
    for (name, ty) in ATTRS {
        m.define_attribute(&admin, name, ty, "").unwrap();
    }
    for i in 0..64 {
        m.create_file(&admin, &spec(i)).unwrap();
    }
    let (first, second) = (spec(1_000), spec(1_001));
    m.create_file(&admin, &first).unwrap();
    m.delete_file(&admin, &first.name).unwrap();
    let create = allocations(|| drop(m.create_file(&admin, &second).unwrap()));
    let delete = allocations(|| m.delete_file(&admin, &second.name).unwrap());
    println!("allocations per call: create_file {create}, delete_file {delete}");
    drop(m);
    std::fs::remove_dir_all(&dir).ok();
    assert!(create <= CREATE_CEILING, "create_file: {create} allocations > {CREATE_CEILING}");
    assert!(delete <= DELETE_CEILING, "delete_file: {delete} allocations > {DELETE_CEILING}");
}
