//! Offline shim for `crossbeam` (see `stubs/README.md`).
//!
//! Only the `channel` module is provided: MPMC `bounded` channels with
//! the blocking, timeout and non-blocking receive forms the workspace
//! uses. Built on `std::sync::{Mutex, Condvar}`; a sender blocks while
//! the queue is at capacity (backpressure). There is no `unbounded`:
//! nothing in the workspace may queue without a limit (`tdp-lint`'s
//! `unbounded-channel` rule).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        state: Mutex<State<T>>,
        // Waiters for "queue non-empty or no senders left".
        recv_cv: Condvar,
        // Waiters for "queue below capacity or no receivers left".
        send_cv: Condvar,
    }

    struct State<T> {
        queue: VecDeque<T>,
        cap: usize,
        senders: usize,
        receivers: usize,
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

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    /// A bounded MPMC channel; `send` blocks while full. A capacity of
    /// zero is treated as one (true rendezvous is not implemented —
    /// nothing in this workspace uses it).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap: cap.max(1),
                senders: 1,
                receivers: 1,
            }),
            recv_cv: Condvar::new(),
            send_cv: Condvar::new(),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T> State<T> {
        fn full(&self) -> bool {
            self.queue.len() >= self.cap
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                if !st.full() {
                    st.queue.push_back(value);
                    self.shared.recv_cv.notify_one();
                    return Ok(());
                }
                st = self
                    .shared
                    .send_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self.shared.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if st.full() {
                return Err(TrySendError::Full(value));
            }
            st.queue.push_back(value);
            self.shared.recv_cv.notify_one();
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.shared.send_cv.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .shared
                    .recv_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.shared.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.shared.send_cv.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (g, _) = self
                    .shared
                    .recv_cv
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = g;
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.lock();
            if let Some(v) = st.queue.pop_front() {
                self.shared.send_cv.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator until all senders disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }

        /// Drains currently available values without blocking.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { rx: self }
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    pub struct TryIter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.try_recv().ok()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.shared.recv_cv.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.shared.send_cv.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

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
        fn mpmc_clones_work() {
            let (tx, rx) = bounded(1);
            let tx2 = tx.clone();
            let rx2 = rx.clone();
            tx2.send(7).unwrap();
            drop(tx);
            drop(tx2);
            let got = rx2.recv().unwrap();
            assert_eq!(got, 7);
            assert_eq!(rx.recv(), Err(RecvError));
        }
    }
}
