//! The one `parking_lot`-shaped lock adapter: `lock()`/`read()`/
//! `write()` return guards directly, `Condvar` takes `&mut MutexGuard`
//! instead of consuming it, and poisoned locks are recovered
//! transparently. Written against `base`, which is `std::sync` in a
//! normal build and `loom::sync` under `--cfg loom`; the only `cfg`'d
//! part is the `RwLock` loom has no model for.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError};
use std::time::{Duration, Instant};

use crate::atomic::{AtomicUsize, Ordering};

#[cfg(not(loom))]
use std::sync as base;

#[cfg(loom)]
mod base {
    pub use loom::sync::{Condvar, Mutex, MutexGuard};
    use std::sync::LockResult;

    /// loom has no `RwLock`; modelled as exclusive — its state space
    /// does not benefit from reader parallelism, and exclusivity is the
    /// conservative choice.
    pub struct RwLock<T: ?Sized>(Mutex<T>);
    pub type RwLockReadGuard<'a, T> = MutexGuard<'a, T>;
    pub type RwLockWriteGuard<'a, T> = MutexGuard<'a, T>;

    impl<T> RwLock<T> {
        pub fn new(value: T) -> Self {
            RwLock(Mutex::new(value))
        }

        pub fn into_inner(self) -> LockResult<T> {
            self.0.into_inner()
        }
    }

    impl<T: ?Sized> RwLock<T> {
        pub fn read(&self) -> LockResult<MutexGuard<'_, T>> {
            self.0.lock()
        }

        pub fn write(&self) -> LockResult<MutexGuard<'_, T>> {
            self.0.lock()
        }
    }
}

fn ok<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------- Mutex

pub struct Mutex<T: ?Sized>(base::Mutex<T>);

pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar` can take the inner guard out while blocking
    // and put the reacquired one back.
    inner: Option<base::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(base::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        ok(self.0.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(ok(self.0.lock())),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

// -------------------------------------------------------------- RwLock

pub struct RwLock<T: ?Sized>(base::RwLock<T>);

pub struct RwLockReadGuard<'a, T: ?Sized>(base::RwLockReadGuard<'a, T>);
pub struct RwLockWriteGuard<'a, T: ?Sized>(base::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock(base::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        ok(self.0.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(ok(self.0.read()))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(ok(self.0.write()))
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

// ------------------------------------------------------------- Condvar

/// A condition variable that counts its sleepers, so a notify with
/// nobody asleep is one atomic load, not a `futex_wake` syscall.
///
/// The rule the skip relies on: **a waiter's predicate may only be
/// changed under the mutex the waiter waits with** (notifying after the
/// unlock is fine). A waiter is counted under that mutex before it
/// sleeps, so whoever changed the predicate under it sees the count.
/// Breaking the rule loses wakeups with `std`'s condvar too.
#[derive(Default)]
pub struct Condvar {
    base: base::Condvar,
    /// Threads between "about to wait" and "holds the mutex again".
    /// Only changed under the waiters' mutex.
    sleepers: AtomicUsize,
    /// Notifies passed on to `base`, for the tests that pin the skip.
    #[cfg(any(test, loom))]
    forwarded: std::sync::atomic::AtomicUsize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

impl Condvar {
    pub fn new() -> Self {
        Condvar::default()
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard taken");
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        let g = ok(self.base.wait(g));
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(g);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard taken");
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        let (g, res) = ok(self.base.wait_timeout(g, timeout));
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(g);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        // A deadline already past is a zero-length timed wait (under
        // loom the length means nothing anyway: the checker decides
        // nondeterministically whether the timeout fires).
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }

    /// Block while `condition` holds, for at most `timeout` in all;
    /// on return `timed_out()` is true exactly when it still holds.
    /// The condition is checked before the clock is read, and once more
    /// after a wait that timed out — which is then not waited again, so
    /// under loom a timeout stays one event. The time left is
    /// `timeout - elapsed`, never a sum on an `Instant`: `Duration::MAX`
    /// waits forever.
    pub fn wait_while_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        mut condition: impl FnMut(&mut T) -> bool,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        if !condition(guard) {
            return WaitTimeoutResult { timed_out: false };
        }
        let start = Instant::now();
        loop {
            let timed_out = match timeout.checked_sub(start.elapsed()) {
                Some(left) => self.wait_for(guard, left).timed_out(),
                None => true,
            };
            let holds = condition(guard);
            if timed_out || !holds {
                return WaitTimeoutResult { timed_out: holds };
            }
        }
    }

    /// Wake one sleeper, if there is one. See the type's doc for the
    /// rule a caller keeps.
    pub fn notify_one(&self) {
        if self.has_sleepers() {
            self.base.notify_one();
        }
    }

    /// Wake every sleeper, if there is one.
    pub fn notify_all(&self) {
        if self.has_sleepers() {
            self.base.notify_all();
        }
    }

    // Relaxed is enough: the waiter's increment happens before the
    // notifier's lock of the same mutex, which comes before this load.
    fn has_sleepers(&self) -> bool {
        let any = self.sleepers.load(Ordering::Relaxed) != 0;
        #[cfg(any(test, loom))]
        if any {
            self.forwarded
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        any
    }

    /// How many notifies reached the base condvar.
    #[cfg(any(test, loom))]
    pub fn forwarded(&self) -> usize {
        self.forwarded.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A notify reaches the base condvar exactly when a waiter is
    /// parked: none before the waiter, one for it, none after it left.
    #[test]
    fn a_notify_forwards_only_to_a_parked_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let (m, cv) = &*pair;
        cv.notify_one();
        cv.notify_all();
        assert_eq!(cv.forwarded(), 0, "nobody parked, yet a notify went on");

        let p2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        // The count rises under the mutex before the wait releases it,
        // so seeing it under the mutex means the waiter is parked (or
        // about to be, which the base condvar handles).
        let start = Instant::now();
        let mut ready = m.lock();
        while cv.sleepers.load(Ordering::Relaxed) == 0 {
            drop(ready);
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "waiter never parked"
            );
            std::thread::yield_now();
            ready = m.lock();
        }
        *ready = true;
        drop(ready);
        cv.notify_one();
        assert_eq!(cv.forwarded(), 1, "a parked waiter was not notified");
        waiter.join().unwrap();

        cv.notify_all();
        assert_eq!(cv.forwarded(), 1, "the waiter left, yet a notify went on");
    }
}
