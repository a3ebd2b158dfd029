//! Lock-order verification (`--features lockdep`): a lockdep-style
//! dynamic detector in the spirit of the Linux kernel's, scaled to this
//! workspace.
//!
//! Every [`Mutex`]/[`RwLock`] belongs to a *class* keyed by its
//! construction site (`#[track_caller]` on `new`), the same way kernel
//! lockdep keys by lock-initializer. Each thread keeps the ordered set
//! of classes it currently holds; a blocking acquisition records a
//! `held → wanted` edge per held class into one global order graph.
//! Before the edge goes in, a reachability check asks whether `wanted`
//! already reaches `held` — if it does, the new edge closes a cycle,
//! i.e. two call paths acquire the same two classes in opposite orders,
//! and we panic **at the acquisition attempt** with the backtrace of
//! every edge on the conflicting chain plus the current one. The bug is
//! reported the first time the *order* is exercised, long before the
//! 1-in-10⁶ schedule where both threads interleave into the actual
//! deadlock.
//!
//! Precision notes, deliberate and documented:
//! - `try_lock`/`try_read`/`try_write` add the class to the held set
//!   (later blocking acquisitions order against it) but record no
//!   inbound edge — a `try` that fails cannot block, so it can close no
//!   cycle.
//! - Same-class edges are skipped. Instances created at one site (or
//!   through `Default`, which collapses to the `default()` impl's
//!   location) are indistinguishable, and ordered same-class nesting
//!   (parent → child process tables) would false-positive.
//! - `Condvar::wait` leaves the mutex's class in the held set while
//!   blocked. The thread acquires nothing while parked, so no spurious
//!   edge can form, and the wakeup path's reacquisition re-records the
//!   same edges it recorded going in.
//!
//! Everything here is behind `cfg(all(not(loom), feature = "lockdep"))`
//! — the default build uses the facade's plain adapter (`adapter.rs`),
//! which these types wrap, and pays nothing. The detector's own
//! bookkeeping uses `std::sync::Mutex` (the one crate allowed to by
//! `tdp-lint`): bookkeeping never acquires user locks, so it cannot
//! participate in the orders it checks.

use std::backtrace::Backtrace;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{self, WaitTimeoutResult};

// ------------------------------------------------------------ registry

/// A lock class: one static construction site.
#[derive(Clone, Copy)]
struct Class {
    file: &'static str,
    line: u32,
    col: u32,
}

impl Class {
    fn of(loc: &'static Location<'static>) -> Class {
        Class {
            file: loc.file(),
            line: loc.line(),
            col: loc.column(),
        }
    }
}

impl std::fmt::Display for Class {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.col)
    }
}

struct Edge {
    /// Where the `from → to` order was first exercised.
    backtrace: String,
}

#[derive(Default)]
struct Graph {
    /// Site → dense class id.
    ids: HashMap<(&'static str, u32, u32), u32>,
    classes: Vec<Class>,
    /// Adjacency + first-witness backtrace per edge.
    edges: HashMap<(u32, u32), Edge>,
    succ: HashMap<u32, Vec<u32>>,
}

impl Graph {
    fn class_id(&mut self, c: Class) -> u32 {
        *self.ids.entry((c.file, c.line, c.col)).or_insert_with(|| {
            self.classes.push(c);
            (self.classes.len() - 1) as u32
        })
    }

    /// Is `to` reachable from `from`? Returns the path if so.
    fn path(&self, from: u32, to: u32) -> Option<Vec<u32>> {
        let mut stack = vec![vec![from]];
        let mut seen = vec![false; self.classes.len()];
        while let Some(p) = stack.pop() {
            let last = *p.last().expect("non-empty path");
            if last == to {
                return Some(p);
            }
            if std::mem::replace(&mut seen[last as usize], true) {
                continue;
            }
            for &n in self.succ.get(&last).into_iter().flatten() {
                let mut q = p.clone();
                q.push(n);
                stack.push(q);
            }
        }
        None
    }
}

fn graph() -> std::sync::MutexGuard<'static, Graph> {
    static GRAPH: std::sync::LazyLock<std::sync::Mutex<Graph>> =
        std::sync::LazyLock::new(Default::default);
    GRAPH
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    /// Class ids of locks this thread currently holds, acquisition order.
    static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Assign-once cache of a lock instance's class id (`u32::MAX` = unset).
struct ClassCell {
    site: Class,
    id: AtomicU32,
}

impl ClassCell {
    fn new(loc: &'static Location<'static>) -> ClassCell {
        ClassCell {
            site: Class::of(loc),
            id: AtomicU32::new(u32::MAX),
        }
    }

    fn id(&self) -> u32 {
        let cached = self.id.load(Ordering::Relaxed);
        if cached != u32::MAX {
            return cached;
        }
        let id = graph().class_id(self.site);
        self.id.store(id, Ordering::Relaxed);
        id
    }
}

/// Record `held → wanted` edges and panic on a closed cycle. Called
/// *before* the underlying blocking acquisition, so an inverted order
/// reports instead of deadlocking.
fn before_blocking_acquire(wanted: u32) {
    let held: Vec<u32> = match HELD.try_with(|h| h.borrow().clone()) {
        Ok(h) => h,
        Err(_) => return, // TLS torn down: thread exit path, untracked
    };
    for &h in &held {
        if h == wanted {
            continue; // same-class nesting: see module docs
        }
        let mut g = graph();
        if g.edges.contains_key(&(h, wanted)) {
            continue;
        }
        // Would `h → wanted` close a cycle, i.e. does `wanted` already
        // reach `h`?
        if let Some(path) = g.path(wanted, h) {
            let mut report = String::new();
            report.push_str("lockdep: lock-order cycle detected\n");
            report.push_str(&format!(
                "  new order: {} -> {}\n  acquired here:\n{}\n",
                g.classes[h as usize],
                g.classes[wanted as usize],
                indent(&Backtrace::force_capture().to_string()),
            ));
            report.push_str("  conflicts with previously recorded chain:\n");
            for w in path.windows(2) {
                let e = &g.edges[&(w[0], w[1])];
                report.push_str(&format!(
                    "    {} -> {}\n  first recorded here:\n{}\n",
                    g.classes[w[0] as usize],
                    g.classes[w[1] as usize],
                    indent(&e.backtrace),
                ));
            }
            drop(g);
            panic!("{report}");
        }
        let bt = Backtrace::force_capture().to_string();
        g.edges.insert((h, wanted), Edge { backtrace: bt });
        g.succ.entry(h).or_default().push(wanted);
    }
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("      {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn push_held(class: u32) {
    let _ = HELD.try_with(|h| h.borrow_mut().push(class));
}

fn pop_held(class: u32) {
    let _ = HELD.try_with(|h| {
        let mut h = h.borrow_mut();
        if let Some(i) = h.iter().rposition(|&c| c == class) {
            h.remove(i);
        }
    });
}

// ------------------------------------------------------------- wrappers

pub struct Mutex<T: ?Sized> {
    class: ClassCell,
    inner: adapter::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    class: u32,
    inner: adapter::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    #[track_caller]
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            class: ClassCell::new(Location::caller()),
            inner: adapter::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let class = self.class.id();
        before_blocking_acquire(class);
        let inner = self.inner.lock();
        push_held(class);
        MutexGuard { class, inner }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let class = self.class.id();
        let inner = self.inner.try_lock()?;
        push_held(class);
        Some(MutexGuard { class, inner })
    }
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        pop_held(self.class);
    }
}

pub struct RwLock<T: ?Sized> {
    class: ClassCell,
    inner: adapter::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    class: u32,
    inner: adapter::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    class: u32,
    inner: adapter::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    #[track_caller]
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            class: ClassCell::new(Location::caller()),
            inner: adapter::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let class = self.class.id();
        before_blocking_acquire(class);
        let inner = self.inner.read();
        push_held(class);
        RwLockReadGuard { class, inner }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let class = self.class.id();
        before_blocking_acquire(class);
        let inner = self.inner.write();
        push_held(class);
        RwLockWriteGuard { class, inner }
    }
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        pop_held(self.class);
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        pop_held(self.class);
    }
}

pub struct Condvar {
    inner: adapter::Condvar,
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl Condvar {
    pub fn new() -> Condvar {
        Condvar {
            inner: adapter::Condvar::new(),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.inner.wait(&mut guard.inner);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        self.inner.wait_for(&mut guard.inner, timeout)
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.inner.wait_until(&mut guard.inner, deadline)
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}
