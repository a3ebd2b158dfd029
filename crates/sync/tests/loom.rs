//! Loom models of the facade's one timed wait, its notify skip and the
//! channel built on it. Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p tdp-sync --release loom_
//! ```
//!
//! The timeout of a model wait is a nondeterministic event (the
//! numbers below mean nothing to the checker), so each model explores
//! the notify landing before, during and after the timeout — and
//! asserts both ends were reached, or it is not exploring the race it
//! names.
#![cfg(loom)]

use std::collections::HashSet;
use std::sync::Mutex as StdMutex;
use std::time::Duration;
use tdp_sync::channel::{bounded, RecvTimeoutError, TryRecvError};
use tdp_sync::{Arc, Condvar, Mutex};

const WAIT: Duration = Duration::from_secs(3600);

type Seen = &'static StdMutex<HashSet<&'static str>>;

fn seen() -> Seen {
    Box::leak(Box::default())
}

/// `wait_while_for` against a notify racing its timeout: on return,
/// `timed_out()` is true exactly when the condition still holds.
#[test]
fn loom_wait_while_for_races_notify() {
    let seen = seen();
    loom::model(move || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let setter = loom::thread::spawn(move || {
            *p2.0.lock() = true;
            // Notify after unlocking, as most waits' signallers do: the
            // timeout may fire in between, with the condition false.
            loom::thread::yield_now();
            p2.1.notify_all();
        });

        let (m, cv) = &*pair;
        let mut ready = m.lock();
        let res = cv.wait_while_for(&mut ready, |r| !*r, WAIT);
        assert_eq!(
            res.timed_out(),
            !*ready,
            "timed_out() must mean \"still holds\""
        );
        let outcome = if res.timed_out() {
            "timed out"
        } else {
            "woken"
        };
        seen.lock().unwrap().insert(outcome);
        drop(ready);
        setter.join().unwrap();
    });
    assert_eq!(seen.lock().unwrap().len(), 2, "one outcome never explored");
}

/// An untimed `wait` loop against a setter that changes the predicate
/// under the mutex and notifies after unlocking: whether the notify
/// finds the waiter asleep or not, no wakeup is lost (the shim reports
/// an untimed lost wakeup as a deadlock), and the notify reaches the
/// base condvar exactly when the waiter slept.
#[test]
fn loom_notify_without_sleeper_races_wait() {
    let seen = seen();
    loom::model(move || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let setter = loom::thread::spawn(move || {
            *p2.0.lock() = true;
            p2.1.notify_one();
        });

        let (m, cv) = &*pair;
        let mut ready = m.lock();
        let mut slept = false;
        while !*ready {
            cv.wait(&mut ready);
            slept = true;
        }
        drop(ready);
        setter.join().unwrap();
        let forwarded = cv.forwarded();
        assert_eq!(
            forwarded,
            usize::from(slept),
            "a notify must reach the base condvar exactly when the waiter slept"
        );
        let outcome = if slept {
            "notify forwarded"
        } else {
            "notify skipped (nobody asleep yet)"
        };
        seen.lock().unwrap().insert(outcome);
    });
    assert_eq!(seen.lock().unwrap().len(), 2, "one outcome never explored");
}

/// `recv_timeout` racing a `send` and the drop of the last `Sender`: a
/// sent value is never lost, and `Disconnected` only ever reports an
/// empty queue — here never, because the value is sent before the drop.
#[test]
fn loom_recv_timeout_races_send_and_disconnect() {
    let seen = seen();
    loom::model(move || {
        let (tx, rx) = bounded(1);
        let sender = loom::thread::spawn(move || {
            tx.send(7u8).unwrap();
            drop(tx);
        });

        let got = rx.recv_timeout(WAIT);
        sender.join().unwrap();
        match got {
            Ok(v) => {
                assert_eq!(v, 7);
                assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
                seen.lock().unwrap().insert("received");
            }
            Err(RecvTimeoutError::Timeout) => {
                assert_eq!(rx.try_recv(), Ok(7), "a timed-out receive lost the value");
                seen.lock().unwrap().insert("timed out");
            }
            Err(RecvTimeoutError::Disconnected) => {
                panic!("Disconnected with a sent value unreceived")
            }
        }
    });
    assert_eq!(seen.lock().unwrap().len(), 2, "one outcome never explored");
}
