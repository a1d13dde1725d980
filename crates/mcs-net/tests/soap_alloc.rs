//! Allocation ceiling of the SOAP codec. The binary installs a counting
//! global allocator and counts, on one thread, the allocations of one
//! full codec round trip as the keep-alive client and server run it:
//! the client builds the argument element and writes the request
//! envelope, the server decodes it and its arguments, builds the result
//! element and writes the response envelope, and the client decodes it
//! and its record. The envelope buffers are reused as a keep-alive
//! connection reuses them, so the count is that of a call after the
//! first.
//!
//! The ceilings sit about 20 % above the counts measured when they were
//! set (CHANGES.md records them and the older code's), so a change that
//! copies the envelope again fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcs::{Attribute, Credential, FileSpec, LogicalFile};
use mcs_net::codec::Reply;
use mcs_net::ops::{decode_soap, Call};
use mcs_net::wire;
use relstore::{Date, DateTime, Value};
use soapstack::soap;
use soapstack::xml::Element;

/// Allocations of a ten-attribute `createFile` round trip.
const CREATE_CEILING: u64 = 200;
/// Allocations of a `getFile` round trip.
const GET_CEILING: u64 = 60;

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

fn credential() -> Credential {
    Credential::new("/O=Grid/OU=mcs/CN=publisher")
}

/// A file spec with ten attributes of the types a workload file has.
fn spec() -> FileSpec {
    let values = [
        Value::from("site_07"),
        Value::from("type_13"),
        Value::Int(457),
        Value::Int(12),
        Value::Float(228.5),
        Value::Float(66.25),
        Value::Date(Date::from_days_from_epoch(12_400)),
        Value::Date(Date::from_days_from_epoch(12_351)),
        Value::DateTime(DateTime::from_seconds_from_epoch(1_066_290_000)),
        Value::DateTime(DateTime::from_seconds_from_epoch(1_066_270_000)),
    ];
    let attributes = values
        .into_iter()
        .enumerate()
        .map(|(i, value)| Attribute { name: format!("attr_{i}"), value })
        .collect();
    FileSpec { name: "lfn.000012457.dat".into(), attributes, ..FileSpec::default() }
}

/// The record a create or get of [`spec`] answers.
fn file() -> LogicalFile {
    LogicalFile {
        id: 12_458,
        name: "lfn.000012457.dat".into(),
        version: 1,
        data_type: None,
        valid: true,
        collection_id: Some(125),
        container_id: None,
        container_service: None,
        creator: "/O=Grid/OU=mcs/CN=publisher".into(),
        created: DateTime::from_seconds_from_epoch(1_066_262_400),
        last_modifier: None,
        last_modified: None,
        master_copy: None,
        audit_enabled: false,
    }
}

/// Envelope buffers a keep-alive connection reuses.
#[derive(Default)]
struct Buffers {
    request: String,
    response: String,
}

/// One round trip of `call`, answered by `answer`, through the SOAP
/// codec. With `check`, also checks (allocating) that the server decodes
/// the arguments that were sent.
fn round_trip(
    bufs: &mut Buffers,
    cred: &Credential,
    call: &Call<'_>,
    answer: &LogicalFile,
    check: bool,
) {
    // client: argument element and request envelope
    let mut args = Element::new("a").child(wire::credential_el(cred));
    call.soap_args(&mut args);
    bufs.request.clear();
    soap::write_request(&mut bufs.request, call.op().name(), &args);
    drop(args);

    // server: envelope, credential and arguments
    let (method, el) = soap::decode_request(&bufs.request).unwrap();
    assert_eq!(method, call.op().name());
    assert_eq!(&wire::credential_from(&el).unwrap(), cred);
    let op = call.op();
    let same = decode_soap(op, &el, |c| !check || format!("{c:?}") == format!("{call:?}"));
    assert!(same.unwrap(), "{op:?} arguments decode to what was sent");
    drop(el);

    // server: result element and response envelope
    let mut result = Element::new("r");
    answer.to_el(&mut result, 1);
    bufs.response.clear();
    soap::write_response(&mut bufs.response, op.name(), &result);
    drop(result);

    // client: envelope and record
    let el = soap::decode_response(&bufs.response).unwrap();
    assert_eq!(&<LogicalFile as Reply>::from_el(&el).unwrap(), answer);
}

/// Allocations of the second of two round trips of `call`.
fn steady_allocations(call: &Call<'_>) -> u64 {
    let (cred, answer) = (credential(), file());
    let mut bufs = Buffers::default();
    round_trip(&mut bufs, &cred, call, &answer, true);
    allocations(|| round_trip(&mut bufs, &cred, call, &answer, false))
}

#[test]
fn soap_round_trips_stay_under_their_allocation_ceilings() {
    let spec = spec();
    let create = steady_allocations(&Call::CreateFile { spec: &spec });
    let get = steady_allocations(&Call::GetFile { name: &spec.name });
    println!("allocations per round trip: createFile {create}, getFile {get}");
    assert!(create <= CREATE_CEILING, "createFile: {create} allocations > {CREATE_CEILING}");
    assert!(get <= GET_CEILING, "getFile: {get} allocations > {GET_CEILING}");
}
