//! ISSUE 24 acceptance: the call trace is cheap enough to stay on.
//!
//! `Trace::record` renders a borrowed `Call` straight into a fixed byte
//! ring, so (a) a warm `record` never touches the allocator, however
//! the keys churn, and (b) a world that puts and gets for as long as it
//! likes holds no more heap at the end than near the start — the trace
//! was the one structure in a `TdpHandle` round trip that grew per call
//! (≈ 96 B per op, 16.4 MB over this test's window, before the ring).
//!
//! Pinned with a counting `#[global_allocator]`, which is process-wide:
//! hence its own test binary, and one `#[test]` running both halves in
//! turn so neither counts the other's traffic.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;
use tdp_core::{Call, Role, TdpHandle, Trace, World};
use tdp_proto::ContextId;

/// Forwards everything to [`System`], counting allocation entry points
/// and the bytes currently live.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method delegates to `System` with the caller's exact
// arguments; the only additions are relaxed counter updates, which
// cannot allocate or otherwise violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarding the caller's layout unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` was produced by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarding the caller's pointer and layout unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarding the caller's layout unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn the_trace_stays_on_without_heap_traffic_or_growth() {
    a_warm_record_allocates_nothing();
    a_put_get_loop_holds_no_more_heap_at_the_end();
}

/// `handoff_epoll`'s shape: a fresh key per call (`req.{i}`), rendered
/// by the caller into a buffer it reuses.
fn a_warm_record_allocates_nothing() {
    let trace = Trace::new();
    let mut key = String::with_capacity(32);
    let mut record = |i: usize| {
        key.clear();
        let _ = write!(key, "req.{i}");
        trace.record("starter", Call::Put(&key));
    };
    // More than one wrap of the 1 MiB ring (≥ 23 B a record): from here
    // on every record evicts.
    const WARM: usize = 100_000;
    (0..WARM).for_each(&mut record);
    assert!(trace.events()[0].seq > 0, "the ring has not wrapped");

    let before = ALLOCS.load(Ordering::SeqCst);
    (WARM..2 * WARM).for_each(&mut record);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    assert_eq!(allocs, 0, "100 000 warm records allocated {allocs} times");
    let last = trace.events().pop().expect("the ring is full");
    assert_eq!(last.seq, 2 * WARM - 1);
    assert_eq!(last.call, format!("tdp_put(req.{})", last.seq));
}

/// `attr_netsim`'s shape: one daemon putting and getting a small set of
/// keys through its LASS in a netsim world.
fn a_put_get_loop_holds_no_more_heap_at_the_end() {
    const EARLY: usize = 20_000;
    const OPS: usize = 200_000;
    let world = World::new();
    let host = world.add_host();
    let mut rm = TdpHandle::init(&world, host, ContextId(1), "rm", Role::ResourceManager).unwrap();
    let keys: Vec<String> = (0..64).map(|i| format!("attr.{i}")).collect();

    let mut live_early = 0;
    for op in (0..OPS).step_by(2) {
        if op == EARLY {
            live_early = LIVE_BYTES.load(Ordering::SeqCst);
        }
        let key = &keys[(op / 2) % keys.len()];
        rm.put(key, "0.125").unwrap();
        let got = rm.get_timeout(key, Duration::from_secs(5)).unwrap();
        assert_eq!(got, "0.125");
    }
    let grown = LIVE_BYTES.load(Ordering::SeqCst) - live_early;

    assert!(
        grown <= 64 << 10,
        "live heap grew {grown} B between op {EARLY} and op {OPS}"
    );
    // Every call was recorded all the same.
    let last = world.trace().events().pop().expect("calls were recorded");
    let key = &keys[(OPS / 2 - 1) % keys.len()];
    assert_eq!((last.seq, last.call), (OPS, format!("tdp_get({key})")));
}
