//! Synchronization facade for the TDP workspace.
//!
//! All runtime code takes its `Mutex`/`Condvar`/`RwLock`/`Arc`/atomics
//! from this crate instead of naming `std::sync` directly. The lock
//! types are one thin adapter (`adapter.rs`) giving the primitives a
//! `parking_lot`-shaped, poison-free API; it is written once and
//! instantiated over `std::sync` in a normal build and over
//! `loom::sync` under `RUSTFLAGS="--cfg loom"`, so the exact code that
//! ships can be driven through loom's exhaustive interleaving checker —
//! see `tdp-wire`'s `loom_` tests and DESIGN.md "Concurrency
//! invariants".
//!
//! API surface intentionally matches `parking_lot`:
//! - `Mutex::lock()` returns the guard directly (no `Result`; a lock
//!   poisoned by a panicking holder is recovered, not propagated).
//! - `Condvar::wait(&mut guard)` takes the guard by `&mut` and
//!   reacquires in place; `wait_for`/`wait_until` return a
//!   [`WaitTimeoutResult`]. Under loom the duration/deadline is a
//!   *nondeterministic event*: the checker explores both the notified
//!   and the timed-out path regardless of the numeric value.

mod adapter;

// `--features lockdep` wraps the adapter's locks in order-checked ones
// (see `lockdep.rs`). Zero cost when off — the default branch is the
// adapter itself.
#[cfg(all(not(loom), feature = "lockdep"))]
mod lockdep;
#[cfg(any(loom, not(feature = "lockdep")))]
use adapter as imp;
#[cfg(all(not(loom), feature = "lockdep"))]
use lockdep as imp;

#[cfg(loom)]
pub use loom::sync::{atomic, Arc, Weak};
#[cfg(not(loom))]
pub use std::sync::{Arc, Weak};

/// Only the atomics loom also models, so code that builds here builds
/// under `--cfg loom`.
#[cfg(not(loom))]
pub mod atomic {
    pub use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

pub use adapter::WaitTimeoutResult;
pub use imp::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

// One-shot/rendezvous primitives have no loom model and no lockdep
// story (they express no ordering a cycle could invert), so they are
// plain std re-exports and only exist in non-loom builds. Code that is
// loom-modelled must not use them.
#[cfg(not(loom))]
pub use std::sync::{Barrier, BarrierWaitResult, Once};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            *g = 7;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while *g != 7 {
            cv.wait(&mut g);
        }
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(1)).timed_out());
        let past = Instant::now() - Duration::from_millis(1);
        assert!(cv.wait_until(&mut g, past).timed_out());
    }

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    // Not under loom: its `RwLock` stand-in is exclusive by design.
    #[cfg(not(loom))]
    #[test]
    fn rwlock_many_readers() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 10);
    }

    #[test]
    fn atomics_are_usable() {
        use atomic::{AtomicU64, Ordering};
        let a = AtomicU64::new(1);
        a.fetch_add(2, Ordering::SeqCst);
        assert_eq!(a.load(Ordering::SeqCst), 3);
    }
}
