//! The allocation budget of one attribute round trip over netsim.
//!
//! A `tdp_put` to a key that exists and a `tdp_get` that hits, from an
//! [`AttrClient`] to a LASS on the simulated fabric, counted across both
//! ends with a counting `#[global_allocator]`. Per op, an allocation is
//! either a string or frame the op hands on or the space's reply list:
//!
//! * put (7): the request's key and value and its frame; the server's
//!   decoded key and value (the value is kept as the new one); the
//!   space's reply list; the `Ok` frame.
//! * get (9): the request's key and its frame; the decoded key; the
//!   reply list and the reply's key and value; the `Value` frame; the
//!   client's decoded key and value.
//!
//! A frame copied once more on its way, a value the space copies instead
//! of keeping, or a reply routed through a snapshot of every session
//! shows here as one allocation over the budget.
//!
//! Lives in its own integration-test binary because a global allocator
//! is process-wide: the server's session thread counts too.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tdp_attrspace::{AttrClient, AttrSpaceServer, ServerKind};
use tdp_netsim::Network;
use tdp_proto::ContextId;

/// Forwards everything to [`System`], counting allocation entry points
/// (alloc/realloc/alloc_zeroed — frees are irrelevant to the budget).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to `System` with the caller's exact
// arguments; the only addition is a relaxed counter bump, which cannot
// allocate or otherwise violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarding the caller's layout unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarding the caller's pointer and layout unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarding the caller's layout unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CTX: ContextId = ContextId(1);
const OPS: u64 = 1_000;
const PUT_BUDGET: u64 = 7;
const GET_BUDGET: u64 = 9;

/// Allocations per call of `op` over `OPS` calls. Every allocation of a
/// round trip happens before its reply is sent, so when the last call
/// returns the server has made all of its share.
fn per_op(mut op: impl FnMut(usize)) -> f64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    for i in 0..OPS as usize {
        op(i);
    }
    (ALLOCS.load(Ordering::SeqCst) - before) as f64 / OPS as f64
}

#[test]
fn a_put_or_get_round_trip_allocates_only_what_it_hands_on() {
    let net = Network::new();
    let host = net.add_host();
    let srv = AttrSpaceServer::spawn(&net, host, 7000, ServerKind::Local).unwrap();
    let mut client = AttrClient::connect(&net, host, srv.addr()).unwrap();
    client.join(CTX).unwrap();

    let keys: Vec<String> = (0..16).map(|i| format!("beam.width.{i}")).collect();
    let put = |c: &mut AttrClient, i: usize| c.put(CTX, &keys[i % keys.len()], "0.125").unwrap();
    let get = |c: &mut AttrClient, i: usize| {
        assert_eq!(c.get(CTX, &keys[i % keys.len()]).unwrap(), "0.125");
    };
    // Warm-up: every key exists, and every queue and map has grown to
    // its steady capacity.
    for i in 0..256 {
        put(&mut client, i);
        get(&mut client, i);
    }

    let puts = per_op(|i| put(&mut client, i));
    let gets = per_op(|i| get(&mut client, i));
    assert!(
        puts <= PUT_BUDGET as f64 && gets <= GET_BUDGET as f64,
        "allocations per round trip: put {puts:.2} (budget {PUT_BUDGET}), \
         get {gets:.2} (budget {GET_BUDGET})"
    );
    srv.shutdown();
}
