//! The scheduler: serialized execution with DFS over scheduling
//! decisions. See the crate docs for the model.

use crate::recover;
use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar as OsCondvar, Mutex as OsMutex, MutexGuard as OsGuard, OnceLock};

/// What a model thread is doing, from the scheduler's point of view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Blocked acquiring the mutex with this object id.
    MutexWait(u64),
    /// Parked in an untimed condvar wait.
    CvWait(u64),
    /// Parked in a timed condvar wait — still *eligible*: scheduling
    /// it means the timeout fires.
    CvTimedWait(u64),
    /// Blocked joining the thread with this tid.
    JoinWait(usize),
    Finished,
}

struct Thd {
    status: Status,
    /// Set when a timed wait was woken by its timeout rather than a
    /// notification; consumed by `cv_wait`.
    timed_out: bool,
}

impl Thd {
    fn runnable() -> Thd {
        Thd {
            status: Status::Runnable,
            timed_out: false,
        }
    }
}

/// One branch point: which of `options` (tids) ran. DFS flips `picked`
/// through every index.
#[derive(Debug)]
struct Decision {
    options: Vec<usize>,
    picked: usize,
}

#[derive(Default)]
struct Exec {
    active: bool,
    threads: Vec<Thd>,
    /// The only thread allowed to make progress.
    current: usize,
    /// Object ids of model mutexes currently held.
    held: Vec<u64>,
    /// Decision trace: replayed as a prefix, extended past it.
    schedule: Vec<Decision>,
    /// Replay cursor into `schedule`.
    pos: usize,
    /// A panic or deadlock happened: every parked thread unwinds.
    aborting: bool,
    failure: Option<Box<dyn Any + Send + 'static>>,
    /// All threads finished; the controller may collect the execution.
    done: bool,
}

impl Default for Thd {
    fn default() -> Thd {
        Thd::runnable()
    }
}

struct Rt {
    mu: OsMutex<Exec>,
    cv: OsCondvar,
}

fn rt() -> &'static Rt {
    static RT: OnceLock<Rt> = OnceLock::new();
    RT.get_or_init(|| Rt {
        mu: OsMutex::new(Exec::default()),
        cv: OsCondvar::new(),
    })
}

fn lock_exec() -> OsGuard<'static, Exec> {
    recover(rt().mu.lock())
}

thread_local! {
    static TID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Whether the calling thread is a model thread of an active
/// execution. Non-model threads (and everything outside [`model`])
/// fall back to plain `std` behaviour.
pub(crate) fn in_model() -> bool {
    TID.with(|t| t.get()).is_some()
}

fn cur_tid() -> usize {
    TID.with(|t| t.get()).expect("not a loom model thread")
}

/// Tids eligible to be scheduled: runnable threads, plus timed waiters
/// (scheduling one = its timeout fires).
fn eligible(exec: &Exec) -> Vec<usize> {
    exec.threads
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t.status, Status::Runnable | Status::CvTimedWait(_)))
        .map(|(i, _)| i)
        .collect()
}

/// Record (or replay) a choice among `options`, returning the pick.
fn choose(exec: &mut Exec, options: Vec<usize>) -> usize {
    debug_assert!(!options.is_empty());
    if options.len() == 1 {
        return options[0];
    }
    if exec.pos < exec.schedule.len() {
        let d = &exec.schedule[exec.pos];
        debug_assert_eq!(
            d.options, options,
            "loom (shim): nondeterministic model — replay diverged"
        );
        let picked = d.options[d.picked];
        exec.pos += 1;
        picked
    } else {
        exec.schedule.push(Decision {
            options: options.clone(),
            picked: 0,
        });
        exec.pos += 1;
        options[0]
    }
}

/// Pick the next thread to run and wake it. If nothing is eligible and
/// threads are still alive, the execution deadlocked.
fn handoff(exec: &mut Exec) {
    let options = eligible(exec);
    if options.is_empty() {
        if exec.threads.iter().all(|t| t.status == Status::Finished) {
            exec.done = true;
        } else {
            exec.aborting = true;
            if exec.failure.is_none() {
                let states: Vec<String> = exec
                    .threads
                    .iter()
                    .enumerate()
                    .map(|(i, t)| format!("thread {i}: {:?}", t.status))
                    .collect();
                exec.failure = Some(Box::new(format!(
                    "loom (shim): DEADLOCK — no thread can make progress [{}]",
                    states.join(", ")
                )));
            }
        }
        rt().cv.notify_all();
        return;
    }
    let chosen = choose(exec, options);
    if let Status::CvTimedWait(_) = exec.threads[chosen].status {
        // Scheduling a timed waiter = its timeout fires.
        exec.threads[chosen].status = Status::Runnable;
        exec.threads[chosen].timed_out = true;
    }
    exec.current = chosen;
    rt().cv.notify_all();
}

/// Park until the scheduler hands execution to `tid` (or the
/// execution aborts, in which case unwind so the thread wrapper can
/// mark this thread finished).
fn wait_my_turn(mut g: OsGuard<'static, Exec>, tid: usize) -> OsGuard<'static, Exec> {
    loop {
        if g.aborting {
            drop(g);
            panic!("loom (shim): execution aborted");
        }
        if g.current == tid && g.threads[tid].status == Status::Runnable {
            return g;
        }
        g = recover(rt().cv.wait(g));
    }
}

/// A plain scheduling point: let any eligible thread (including the
/// caller) run next. Called before every atomic access, every notify
/// and on `yield_now`.
pub(crate) fn schedule_point() {
    if !in_model() {
        return;
    }
    let tid = cur_tid();
    let mut g = lock_exec();
    if !g.active {
        return;
    }
    handoff(&mut g);
    let _g = wait_my_turn(g, tid);
}

/// Model-level mutex acquire (with a leading scheduling point).
pub(crate) fn acquire(mid: u64) {
    let tid = cur_tid();
    let mut g = lock_exec();
    handoff(&mut g);
    g = wait_my_turn(g, tid);
    reacquire_locked(g, tid, mid);
}

/// Acquire without the leading scheduling point — used when waking
/// from a condvar wait (the wake-up itself was the decision).
fn reacquire_locked(mut g: OsGuard<'static, Exec>, tid: usize, mid: u64) {
    loop {
        if !g.held.contains(&mid) {
            g.held.push(mid);
            return;
        }
        g.threads[tid].status = Status::MutexWait(mid);
        handoff(&mut g);
        g = wait_my_turn(g, tid);
    }
}

/// Try-acquire: a scheduling point, then a non-blocking attempt.
pub(crate) fn try_acquire(mid: u64) -> bool {
    let tid = cur_tid();
    let mut g = lock_exec();
    handoff(&mut g);
    g = wait_my_turn(g, tid);
    if g.held.contains(&mid) {
        false
    } else {
        g.held.push(mid);
        true
    }
}

/// Model-level mutex release. Not a scheduling point: the releaser
/// keeps running until its next synchronization operation.
pub(crate) fn release(mid: u64) {
    let mut g = lock_exec();
    if !g.active {
        return;
    }
    g.held.retain(|m| *m != mid);
    for t in g.threads.iter_mut() {
        if t.status == Status::MutexWait(mid) {
            t.status = Status::Runnable;
        }
    }
}

/// Condvar wait: atomically release `mid`, park on `cvid`, and on
/// wake-up reacquire `mid`. Returns whether a timed wait timed out.
pub(crate) fn cv_wait(cvid: u64, mid: u64, timed: bool) -> bool {
    let tid = cur_tid();
    let mut g = lock_exec();
    g.held.retain(|m| *m != mid);
    for t in g.threads.iter_mut() {
        if t.status == Status::MutexWait(mid) {
            t.status = Status::Runnable;
        }
    }
    g.threads[tid].status = if timed {
        Status::CvTimedWait(cvid)
    } else {
        Status::CvWait(cvid)
    };
    g.threads[tid].timed_out = false;
    handoff(&mut g);
    g = wait_my_turn(g, tid);
    let timed_out = std::mem::take(&mut g.threads[tid].timed_out);
    reacquire_locked(g, tid, mid);
    timed_out
}

/// Wake waiters of `cvid`. `notify_one` picks *which* waiter wakes as
/// a recorded scheduling decision.
///
/// A notify is a scheduling point: it is not atomic with the release
/// before it, so a timed waiter's timeout can fire in between, and the
/// waiter then finds the state changed with `timed_out()` true. Not
/// while unwinding, since an aborting execution panics parked threads.
pub(crate) fn notify(cvid: u64, all: bool) {
    if !std::thread::panicking() {
        schedule_point();
    }
    let mut g = lock_exec();
    if !g.active {
        return;
    }
    let waiters: Vec<usize> = g
        .threads
        .iter()
        .enumerate()
        .filter(
            |(_, t)| matches!(t.status, Status::CvWait(c) | Status::CvTimedWait(c) if c == cvid),
        )
        .map(|(i, _)| i)
        .collect();
    if waiters.is_empty() {
        return;
    }
    if all {
        for w in waiters {
            g.threads[w].status = Status::Runnable;
            g.threads[w].timed_out = false;
        }
    } else {
        let w = choose(&mut g, waiters);
        g.threads[w].status = Status::Runnable;
        g.threads[w].timed_out = false;
    }
}

/// Register a new model thread; it starts runnable but does not run
/// until scheduled.
pub(crate) fn register_thread() -> usize {
    let mut g = lock_exec();
    g.threads.push(Thd::runnable());
    g.threads.len() - 1
}

/// Body wrapper for every model thread: adopt the tid, wait to be
/// scheduled, run, then mark finished (recording any panic).
pub(crate) fn run_thread<T>(tid: usize, f: impl FnOnce() -> T) -> Option<T> {
    TID.with(|t| t.set(Some(tid)));
    let res = panic::catch_unwind(AssertUnwindSafe(|| {
        {
            let g = lock_exec();
            let _g = wait_my_turn(g, tid);
        }
        f()
    }));
    let mut g = lock_exec();
    let out = match res {
        Ok(v) => Some(v),
        Err(p) => {
            if g.failure.is_none() {
                g.failure = Some(p);
            }
            g.aborting = true;
            None
        }
    };
    finish_locked(&mut g, tid);
    out
}

fn finish_locked(g: &mut Exec, tid: usize) {
    g.threads[tid].status = Status::Finished;
    for t in g.threads.iter_mut() {
        if t.status == Status::JoinWait(tid) {
            t.status = Status::Runnable;
        }
    }
    if g.threads.iter().all(|t| t.status == Status::Finished) {
        g.done = true;
        rt().cv.notify_all();
        return;
    }
    if g.aborting {
        // Parked threads wake, see the abort flag, and unwind.
        rt().cv.notify_all();
        return;
    }
    handoff(g);
}

/// Block until thread `tid` finishes.
pub(crate) fn join_thread(tid: usize) {
    let me = cur_tid();
    let mut g = lock_exec();
    if g.threads[tid].status != Status::Finished {
        g.threads[me].status = Status::JoinWait(tid);
        handoff(&mut g);
        let _g = wait_my_turn(g, me);
    }
}

/// Run `f` under every interleaving of its model threads' scheduling
/// decisions (depth-first, with prefix replay). Panics — including
/// deadlocks and the iteration cap — propagate to the caller, so a
/// failing schedule fails the enclosing `#[test]`.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    // One model at a time: the scheduler state is global.
    static SERIAL: OsMutex<()> = OsMutex::new(());
    let _serial = recover(SERIAL.lock());

    let max_iters: u64 = std::env::var("LOOM_MAX_ITERATIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let f = std::sync::Arc::new(f);
    let mut schedule: Vec<Decision> = Vec::new();
    let mut iters: u64 = 0;
    loop {
        iters += 1;
        assert!(
            iters <= max_iters,
            "loom (shim): exceeded {max_iters} executions without exhausting \
             the schedule space — shrink the model or raise LOOM_MAX_ITERATIONS"
        );
        {
            let mut g = lock_exec();
            *g = Exec {
                active: true,
                threads: vec![Thd::runnable()],
                current: 0,
                held: Vec::new(),
                schedule: std::mem::take(&mut schedule),
                pos: 0,
                aborting: false,
                failure: None,
                done: false,
            };
        }
        let body = f.clone();
        let main = std::thread::Builder::new()
            .name("loom-model".into())
            .spawn(move || {
                run_thread(0, move || body());
            })
            .expect("spawn loom model thread");
        {
            let mut g = lock_exec();
            while !g.done {
                g = recover(rt().cv.wait(g));
            }
        }
        let _ = main.join();
        let failure = {
            let mut g = lock_exec();
            g.active = false;
            schedule = std::mem::take(&mut g.schedule);
            g.failure.take()
        };
        if let Some(p) = failure {
            panic::resume_unwind(p);
        }
        // Backtrack: flip the deepest decision with an untried option.
        loop {
            match schedule.last_mut() {
                None => return, // schedule space exhausted: model passed
                Some(d) if d.picked + 1 < d.options.len() => {
                    d.picked += 1;
                    break;
                }
                Some(_) => {
                    schedule.pop();
                }
            }
        }
    }
}

/// Fresh object id for a model mutex/condvar.
pub(crate) fn next_object_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}
