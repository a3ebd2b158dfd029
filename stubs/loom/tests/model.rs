//! Self-tests for the shim's CHESS-style scheduler: exploration
//! actually covers distinct interleavings, deadlocks are caught, and
//! timed waits escape via the nondeterministic timeout.

use loom::sync::{Arc, Condvar, Mutex};
use std::collections::HashSet;
use std::sync::Mutex as StdMutex;

/// Two threads append their id under a lock; DFS must visit both
/// acquisition orders.
#[test]
fn explores_both_lock_orders() {
    let seen: &'static StdMutex<HashSet<Vec<u8>>> = Box::leak(Box::default());
    loom::model(move || {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        let t = loom::thread::spawn(move || {
            l2.lock().unwrap().push(1u8);
        });
        log.lock().unwrap().push(2u8);
        t.join().unwrap();
        let order = log.lock().unwrap().clone();
        seen.lock().unwrap().insert(order);
    });
    let seen = seen.lock().unwrap();
    assert!(seen.contains(&vec![1, 2]), "missing child-first order");
    assert!(seen.contains(&vec![2, 1]), "missing parent-first order");
}

/// The classic lost wakeup: the waiter checks the flag, the setter
/// notifies *before* the waiter parks (no flag recheck under the same
/// critical section would be a bug — here the waiter holds the lock
/// across check+wait, so this must pass).
#[test]
fn correct_condvar_protocol_passes() {
    loom::model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = loom::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock().unwrap();
            *g = true;
            drop(g);
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock().unwrap();
        while !*g {
            g = cv.wait(g).unwrap();
        }
        drop(g);
        t.join().unwrap();
    });
}

/// A notify sent while nobody waits is lost; if the waiter then parks
/// untimed, some schedule deadlocks — the checker must report it.
#[test]
#[should_panic(expected = "DEADLOCK")]
fn lost_wakeup_is_reported_as_deadlock() {
    loom::model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = loom::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock().unwrap() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        // BUG (deliberate): flag checked *outside* the wait's critical
        // section — the notify can land between check and park.
        let flag_was_set = *m.lock().unwrap();
        if !flag_was_set {
            let g = m.lock().unwrap();
            let _g = cv.wait(g).unwrap();
        }
        t.join().unwrap();
    });
}

/// Same broken protocol, but with a *timed* wait: every schedule can
/// escape via the timeout, so the model must complete.
#[test]
fn timed_wait_escapes_lost_wakeup() {
    loom::model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = loom::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock().unwrap() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock().unwrap();
        while !*g {
            let (back, res) = cv
                .wait_timeout(g, std::time::Duration::from_millis(1))
                .unwrap();
            g = back;
            if res.timed_out() {
                break;
            }
        }
        drop(g);
        t.join().unwrap();
    });
}

/// A notify is a scheduling point: the waiter's timeout can fire
/// between the setter's release and its notify, so some schedule sees
/// the flag set *and* `timed_out()`.
#[test]
fn timeout_can_fire_between_release_and_notify() {
    let seen: &'static StdMutex<HashSet<(bool, bool)>> = Box::leak(Box::default());
    loom::model(move || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = loom::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock().unwrap() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let g = m.lock().unwrap();
        let g = if *g {
            g
        } else {
            let (g, res) = cv
                .wait_timeout(g, std::time::Duration::from_millis(1))
                .unwrap();
            seen.lock().unwrap().insert((*g, res.timed_out()));
            g
        };
        drop(g);
        t.join().unwrap();
    });
    assert!(
        seen.lock().unwrap().contains(&(true, true)),
        "never timed out with the flag already set"
    );
}

/// Assertion failures inside a model thread propagate out of `model`.
#[test]
#[should_panic(expected = "boom")]
fn model_thread_panic_propagates() {
    loom::model(|| {
        let t = loom::thread::spawn(|| panic!("boom"));
        let _ = t.join();
    });
}

/// Atomics are scheduling points: an unsynchronized read-modify-write
/// race must be observable (both threads read 0 before either writes).
#[test]
fn atomic_interleavings_expose_rmw_race() {
    use loom::sync::atomic::{AtomicU64, Ordering};
    let seen: &'static StdMutex<HashSet<u64>> = Box::leak(Box::default());
    loom::model(move || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = loom::thread::spawn(move || {
            let v = n2.load(Ordering::SeqCst);
            n2.store(v + 1, Ordering::SeqCst);
        });
        let v = n.load(Ordering::SeqCst);
        n.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        seen.lock().unwrap().insert(n.load(Ordering::SeqCst));
    });
    let seen = seen.lock().unwrap();
    assert!(seen.contains(&2), "missing serialized outcome");
    assert!(seen.contains(&1), "missing lost-update outcome");
}
