//! Threads that outlive their task: [`ThreadCache::run`] hands a task
//! to a thread of the cache that is parked idle, and spawns a new one
//! only when none is. A thread whose task returns parks for at most
//! [`IDLE`] for the next one, then exits.
//!
//! Pinned to one CPU, spawning and joining a named thread costs
//! ≈ 32 µs — `clone`, the stack and the sigaltstack maps — and handing
//! a task to a parked thread ≈ 15 µs. A job start is a round of short
//! daemon sessions and process creations, so that difference is paid
//! many times per job.
//!
//! Nothing is ever joined, for the reason [`crate::serve::Server`]
//! joins no session: a task ends when its own work does. Dropping the
//! cache wakes the idle threads so they exit; a busy one exits after
//! its task. A task that panics takes its own thread with it and the
//! next task gets a fresh one.

use crate::atomic::{AtomicU64, Ordering};
use crate::{Arc, Condvar, Mutex};
use std::collections::VecDeque;
use std::io;
use std::thread;
use std::time::Duration;

/// How long a thread parks for its next task before it exits.
pub const IDLE: Duration = Duration::from_secs(2);

type Task = Box<dyn FnOnce() + Send>;

struct Shared {
    state: Mutex<State>,
    /// Idle threads wait for "a task queued or the cache dropped".
    cv: Condvar,
}

#[derive(Default)]
struct State {
    /// Tasks handed over and not yet taken: never more than `idle`, so
    /// each has a parked thread bound to take it.
    queue: VecDeque<Task>,
    /// Threads parked in [`next_task`].
    idle: usize,
    /// The cache is gone: a thread exits once the queue is empty.
    closed: bool,
}

/// A set of threads named `name`, reused across tasks.
pub struct ThreadCache {
    name: String,
    shared: Arc<Shared>,
    spawned: AtomicU64,
}

impl ThreadCache {
    /// A cache with no threads yet. `name` is at most 15 bytes, which
    /// is what Linux keeps of a thread name.
    pub fn new(name: impl Into<String>) -> ThreadCache {
        let name = name.into();
        debug_assert!(
            name.len() <= 15,
            "thread name `{name}` is over 15 bytes; /proc would cut it"
        );
        ThreadCache {
            name,
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                cv: Condvar::new(),
            }),
            spawned: AtomicU64::new(0),
        }
    }

    /// Run `task` on an idle thread of this cache, or on a new one if
    /// none is idle. On a spawn error `task` is dropped unrun.
    pub fn run(&self, task: impl FnOnce() + Send + 'static) -> io::Result<()> {
        let Err(task) = offer(&self.shared, Box::new(task)) else {
            return Ok(());
        };
        let shared = self.shared.clone();
        thread::Builder::new()
            .name(self.name.clone())
            .spawn(move || work(&shared, task))?;
        self.spawned.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Threads started since [`ThreadCache::new`].
    pub fn spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }
}

impl Drop for ThreadCache {
    fn drop(&mut self) {
        self.shared.state.lock().closed = true;
        self.shared.cv.notify_all();
    }
}

/// Queue `task` for a parked thread, while more threads are parked than
/// tasks are queued; otherwise give it back to be run on a new thread.
fn offer(shared: &Shared, task: Task) -> Result<(), Task> {
    let mut state = shared.state.lock();
    if state.idle <= state.queue.len() {
        return Err(task);
    }
    state.queue.push_back(task);
    drop(state);
    shared.cv.notify_one();
    Ok(())
}

/// Park for at most [`IDLE`], then take the queue's head — after every
/// wake, timed out or not, so a task queued as the wait ran out is
/// still taken. `None` means the thread should exit.
fn next_task(shared: &Shared) -> Option<Task> {
    let mut state = shared.state.lock();
    state.idle += 1;
    shared
        .cv
        .wait_while_for(&mut state, |s| s.queue.is_empty() && !s.closed, IDLE);
    state.idle -= 1;
    state.queue.pop_front()
}

fn work(shared: &Shared, first: Task) {
    first();
    while let Some(task) = next_task(shared) {
        task();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::channel::bounded;
    use crate::Barrier;
    use std::time::Instant;

    fn census(name: &str) -> usize {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == name)
            .count()
    }

    /// Wait until `n` threads of `cache` are parked, so the next task
    /// is certain to find one.
    fn until_idle(cache: &ThreadCache, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while cache.shared.state.lock().idle != n {
            assert!(Instant::now() < deadline, "never {n} idle threads");
            thread::yield_now();
        }
    }

    #[test]
    fn sequential_tasks_share_one_thread() {
        let cache = ThreadCache::new("tc-seq");
        let (done_tx, done) = bounded(1);
        for i in 0..100 {
            let done_tx = done_tx.clone();
            cache.run(move || done_tx.send(i).unwrap()).unwrap();
            assert_eq!(done.recv_timeout(Duration::from_secs(10)), Ok(i));
            until_idle(&cache, 1);
        }
        assert_eq!(cache.spawned(), 1);
    }

    #[test]
    fn tasks_blocked_at_once_get_a_thread_each() {
        const N: usize = 8;
        let cache = ThreadCache::new("tc-many");
        let all_in = Arc::new(Barrier::new(N + 1));
        for _ in 0..N {
            let all_in = all_in.clone();
            cache
                .run(move || {
                    all_in.wait();
                })
                .unwrap();
        }
        // Only N threads at once can release the barrier.
        all_in.wait();
        assert_eq!(cache.spawned(), N as u64);
        until_idle(&cache, N);
        assert_eq!(census("tc-many"), N);
    }

    #[test]
    fn a_panicking_task_does_not_lose_the_next() {
        let cache = ThreadCache::new("tc-panic");
        let (done_tx, done) = bounded(1);
        cache.run(|| panic!("a task panics")).unwrap();
        cache.run(move || done_tx.send(()).unwrap()).unwrap();
        assert_eq!(done.recv_timeout(Duration::from_secs(10)), Ok(()));
        assert_eq!(cache.spawned(), 2);
    }

    #[test]
    fn dropping_the_cache_ends_its_idle_threads() {
        let cache = ThreadCache::new("tc-drop");
        let all_in = Arc::new(Barrier::new(4));
        for _ in 0..3 {
            let all_in = all_in.clone();
            cache
                .run(move || {
                    all_in.wait();
                })
                .unwrap();
        }
        all_in.wait();
        until_idle(&cache, 3);
        assert_eq!(census("tc-drop"), 3);
        drop(cache);
        // Well inside IDLE: it is the drop that ended them.
        let deadline = Instant::now() + IDLE / 2;
        while census("tc-drop") > 0 {
            assert!(Instant::now() < deadline, "{} left", census("tc-drop"));
            thread::yield_now();
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "over 15 bytes")]
    fn a_name_proc_would_cut_is_rejected() {
        ThreadCache::new("sixteen-byte-nam");
    }
}

/// The hand-off against a worker's timed park. Run with
/// `RUSTFLAGS="--cfg loom" cargo test -p tdp-sync --release loom_`.
#[cfg(all(test, loom))]
mod loom_models {
    use super::*;
    use crate::atomic::AtomicUsize;
    use std::collections::HashSet;
    use std::sync::Mutex as StdMutex;

    /// `offer` racing a parked worker whose wait may time out: the task
    /// runs exactly once — `offer` gives it back, or the worker takes
    /// it, also when its wait timed out between `offer`'s push and its
    /// notify (a notify is a scheduling point of the checker).
    #[test]
    fn loom_thread_cache_offer_races_idle_timeout() {
        let seen: &'static StdMutex<HashSet<&'static str>> = Box::leak(Box::default());
        loom::model(move || {
            let shared = Arc::new(Shared {
                state: Mutex::new(State::default()),
                cv: Condvar::new(),
            });
            let ran = Arc::new(AtomicUsize::new(0));
            let worker = {
                let shared = shared.clone();
                loom::thread::spawn(move || {
                    if let Some(task) = next_task(&shared) {
                        task();
                    }
                })
            };
            let r = ran.clone();
            let task: Task = Box::new(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
            let outcome = match offer(&shared, task) {
                Ok(()) => "taken",
                Err(task) => {
                    task();
                    "given back"
                }
            };
            worker.join().unwrap();
            assert_eq!(ran.load(Ordering::SeqCst), 1, "{outcome}");
            assert!(shared.state.lock().queue.is_empty(), "a task was stranded");
            seen.lock().unwrap().insert(outcome);
        });
        assert_eq!(seen.lock().unwrap().len(), 2, "one outcome never explored");
    }
}
