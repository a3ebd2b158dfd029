//! GOOD: every channel picks a capacity (the backpressure decision is
//! written down); declaring a function named `unbounded` is not a
//! construction.

use tdp_sync::channel::bounded;

const BACKLOG: usize = 128;

fn with_capacity() {
    let (_tx, _rx) = bounded::<u64>(BACKLOG);
}

fn rendezvous() {
    let (_tx, _rx) = bounded::<u32>(0);
}

// A *declaration* named `unbounded` is exempt (the rule checks call
// shapes; `fn` keeps this one legal).
fn unbounded() -> usize {
    BACKLOG
}

fn declaration_is_exempt() {
    let _ = bounded::<()>(BACKLOG);
}
