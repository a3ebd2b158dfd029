//! ISSUE 9 acceptance: a steady-state put/get round trip over the
//! epoll backend performs **zero heap allocations**.
//!
//! The whole hot path is built to recycle: `send_msg` encodes into
//! the connection's own buffer, which is free again the moment the
//! frame is in the kernel — when `send_msg` returns; the receive side
//! drains into a retained decoder buffer, decodes key/value strings out
//! of a per-connection scratch pool, and `recycle_msg` puts consumed
//! strings back. This test pins the claim
//! with a counting `#[global_allocator]`: after a warm-up phase grows
//! every pool to its steady footprint, a measured window of full
//! request/reply round trips must not touch the allocator at all.
//!
//! Lives in its own integration-test binary because a global allocator
//! is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tdp_proto::{ContextId, HostId, Message, Reply};
use tdp_wire::{EpollTransport, Transport};

/// Forwards everything to [`System`], counting allocation entry points
/// (alloc/realloc/alloc_zeroed — frees are irrelevant to the claim).
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

#[test]
fn steady_state_put_get_round_trip_allocates_nothing() {
    let t = EpollTransport::new().unwrap();
    let lis = t.listen(HostId(1), 0).unwrap();
    let client = t.connect(HostId(0), &lis.local_endpoint()).unwrap();
    let server = lis.accept().unwrap();
    lis.close();

    let (client_tx, mut client_rx) = client.split();
    let (server_tx, mut server_rx) = server.split();

    // The request/reply set a real session cycles through — built once;
    // steady state only ever borrows them.
    let put = Message::Put {
        ctx: ContextId(7),
        key: "beam.width".into(),
        value: "0.125".into(),
    };
    let get = Message::Get {
        ctx: ContextId(7),
        key: "beam.width".into(),
        blocking: false,
    };
    let ok = Message::Reply(Reply::Ok);
    let value = Message::Reply(Reply::Value {
        key: "beam.width".into(),
        value: "0.125".into(),
    });

    // One full put/get round trip, driven single-threaded: both ends
    // camp on their own socket (direct read), so the exchange never
    // leaves this thread. Consumed messages go back to each
    // connection's scratch pool.
    let mut round_trip = || {
        client_tx.send_msg(&put).unwrap();
        let m = server_rx.recv_msg().unwrap();
        assert!(matches!(m, Message::Put { .. }));
        server_rx.recycle_msg(m);
        server_tx.send_msg(&ok).unwrap();
        let m = client_rx.recv_msg().unwrap();
        assert!(matches!(m, Message::Reply(Reply::Ok)));
        client_rx.recycle_msg(m);

        client_tx.send_msg(&get).unwrap();
        let m = server_rx.recv_msg().unwrap();
        assert!(matches!(m, Message::Get { .. }));
        server_rx.recycle_msg(m);
        server_tx.send_msg(&value).unwrap();
        let m = client_rx.recv_msg().unwrap();
        assert!(matches!(m, Message::Reply(Reply::Value { .. })));
        client_rx.recycle_msg(m);
    };

    // Warm-up: grows the buffer pool, the decoder buffers, the scratch
    // string pools, and every queue to steady-state capacity.
    for _ in 0..256 {
        round_trip();
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..256 {
        round_trip();
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state put/get must not touch the heap \
         ({} allocations across 256 warm round trips)",
        after - before
    );
}
