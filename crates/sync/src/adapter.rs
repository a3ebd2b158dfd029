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

#[derive(Default)]
pub struct Condvar(base::Condvar);

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
        Condvar(base::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard taken");
        guard.inner = Some(ok(self.0.wait(g)));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard taken");
        let (g, res) = ok(self.0.wait_timeout(g, timeout));
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

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}
