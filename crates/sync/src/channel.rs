//! Bounded multi-producer channels over the facade's own `Mutex` +
//! `Condvar`, so every hand-off is a lock lockdep orders (one class per
//! `bounded` call site) and a wait loom can model. Exactly the API the
//! workspace uses; a sender blocks while the queue is full, and there
//! is no `unbounded`: nothing may queue without a limit (`tdp-lint`'s
//! `unbounded-channel` rule).

use std::collections::VecDeque;
use std::time::Duration;

use crate::{Arc, Condvar, Mutex};

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Receivers wait for "queue non-empty or no senders left".
    recv_cv: Condvar,
    /// Senders wait for "queue below capacity or the receiver gone".
    send_cv: Condvar,
}

struct State<T> {
    queue: VecDeque<T>,
    cap: usize,
    senders: usize,
    receiver_gone: bool,
}

pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    Full(T),
    Disconnected(T),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

/// A channel holding at most `cap` values (a capacity of zero is one:
/// there is no rendezvous channel). `#[track_caller]` makes the
/// caller's line the channel lock's lockdep class.
#[track_caller]
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            cap: cap.max(1),
            senders: 1,
            receiver_gone: false,
        }),
        recv_cv: Condvar::new(),
        send_cv: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Shared<T> {
    /// Take the next value and make room for one blocked sender.
    fn pop(&self, st: &mut State<T>) -> Option<T> {
        let v = st.queue.pop_front()?;
        self.send_cv.notify_one();
        Some(v)
    }
}

impl<T> Sender<T> {
    /// Whether this sender feeds `rx` (the same channel).
    pub fn feeds(&self, rx: &Receiver<T>) -> bool {
        Arc::ptr_eq(&self.shared, &rx.shared)
    }

    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.state.lock();
        while st.queue.len() >= st.cap && !st.receiver_gone {
            self.shared.send_cv.wait(&mut st);
        }
        if st.receiver_gone {
            return Err(SendError(value));
        }
        st.queue.push_back(value);
        self.shared.recv_cv.notify_one();
        Ok(())
    }

    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.shared.state.lock();
        if st.receiver_gone {
            return Err(TrySendError::Disconnected(value));
        }
        if st.queue.len() >= st.cap {
            return Err(TrySendError::Full(value));
        }
        st.queue.push_back(value);
        self.shared.recv_cv.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.state.lock();
        while st.queue.is_empty() && st.senders > 0 {
            self.shared.recv_cv.wait(&mut st);
        }
        self.shared.pop(&mut st).ok_or(RecvError)
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let mut st = self.shared.state.lock();
        self.shared.recv_cv.wait_while_for(
            &mut st,
            |st| st.queue.is_empty() && st.senders > 0,
            timeout,
        );
        match self.shared.pop(&mut st) {
            Some(v) => Ok(v),
            None if st.senders == 0 => Err(RecvTimeoutError::Disconnected),
            None => Err(RecvTimeoutError::Timeout),
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.state.lock();
        match self.shared.pop(&mut st) {
            Some(v) => Ok(v),
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.shared.state.lock().queue.is_empty()
    }

    /// Drains what is queued now, without blocking.
    pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(|| self.try_recv().ok())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.shared.recv_cv.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.state.lock().receiver_gone = true;
        self.shared.send_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_disconnect() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn timeout_fires() {
        let (_tx, rx) = bounded::<u8>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        let t = std::thread::spawn(move || tx.send(3));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn cloned_senders_disconnect_with_the_last() {
        let (tx, rx) = bounded(1);
        let tx2 = tx.clone();
        tx2.send(7).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }
}
