//! The event loop behind the epoll transport: one thread,
//! `wire-reactor`, whose only duty is to finish the writes a sender
//! could not.
//!
//! # Who owns a connection when
//!
//! Every connection is a non-blocking socket with two owners, neither
//! of them this thread:
//!
//! * **reads** belong to the connection's one `WireRx`. It decodes off
//!   its own fd and parks in `poll(2)` on it — see `epoll::EpollRx`. The
//!   reactor never reads and never asks for `EPOLLIN`; data nobody is
//!   receiving waits in the kernel's socket buffer and TCP's window does
//!   the backpressure.
//! * **writes** belong to whichever sender holds the flow lock: it
//!   `writev`s inline ([`crate::flow::Flow::send`]). Only when the
//!   socket buffer fills (`EWOULDBLOCK`) does the sender leave the rest
//!   in the bounded outbox and arm `EPOLLOUT`; the reactor then drains
//!   it under the same lock and rearms while bytes remain.
//!
//! So a connection is registered `EPOLLONESHOT` with an *empty* mask
//! and stays disarmed for as long as its peer keeps up — which in both
//! epoll benchmarks and both integration suites is always. The kernel
//! still reports error/hangup unasked, once per arm;
//! [`Flow::on_ready`](crate::flow::Flow::on_ready) ignores a report when
//! no drain is owed. Because the IO and the rearm both happen under the
//! per-connection mutex, a report that races a sender is harmless — the
//! drain finds nothing to do. The outbox state machine lives in
//! [`crate::flow`] so the loom models can drive the shipped logic
//! exhaustively; this file keeps the epoll plumbing.
//!
//! One thread is enough because `on_ready` cannot block: a non-blocking
//! `writev` under the flow lock, a `notify_all` and one `epoll_ctl`.
//! The write half is not folded into the senders (a `poll(POLLOUT)` in
//! `send`) because senders are not the connection's owners:
//! `attrspace::server::route` fans replies out to *other* sessions'
//! connections, and a sender parked on one stalled tool would block the
//! LASS thread serving another. Bounded outbox + stall-kill is the
//! stated slow-peer outcome. The gateway's HTTP loop (`tdp-gateway`'s
//! `http.rs`) is the same oneshot-rearm idea with the opposite numbers,
//! and the two must not be merged by reflex: its handlers block for up
//! to 30 s, so it runs N threads on one shared set and takes *one*
//! event per `wait`; here nothing blocks, so one thread takes up to 256
//! events per `wait` and serves them all before the next syscall.
//!
//! Shutdown signals a level-triggered [`EventFd`] at token 0 that
//! nobody drains; the loop returns when it sees it. `epoll_ctl` changes
//! need no kick, the kernel applies them to an in-progress wait.

use crate::flow::{ConnTuning, Flow, FlowIo};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLIN, EPOLLONESHOT, EPOLLOUT};
use crate::WireCensus;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::thread;
use tdp_proto::{TdpError, TdpResult};
use tdp_sync::atomic::{AtomicU64, Ordering};
use tdp_sync::{Arc, Mutex, Weak};

// -------------------------------------------------------------- reactor

pub(crate) struct Reactor {
    ep: Epoll,
    wake: EventFd,
    conns: Mutex<HashMap<u64, Arc<ConnState>>>,
    next_token: AtomicU64,
    thread: Mutex<Option<thread::JoinHandle<()>>>,
}

const WAKE_TOKEN: u64 = 0;

impl Reactor {
    /// Create the epoll set and spawn the thread that waits on it.
    pub fn start() -> TdpResult<Arc<Reactor>> {
        let sub = |e: std::io::Error| TdpError::Substrate(format!("epoll reactor: {e}"));
        let ep = Epoll::new().map_err(sub)?;
        let wake = EventFd::new().map_err(sub)?;
        ep.add(wake.fd(), EPOLLIN, WAKE_TOKEN).map_err(sub)?;
        let reactor = Arc::new(Reactor {
            ep,
            wake,
            conns: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            thread: Mutex::new(None),
        });
        let r = reactor.clone();
        let handle = thread::Builder::new()
            .name("wire-reactor".into())
            .spawn(move || r.run())
            .map_err(|e| TdpError::Substrate(format!("spawn wire thread: {e}")))?;
        *reactor.thread.lock() = Some(handle);
        Ok(reactor)
    }

    fn run(&self) {
        // A fixed array, not a `Vec` — the event loop allocates nothing.
        let mut buf = [EpollEvent {
            events: 0,
            token: 0,
        }; 256];
        // Loop until the epoll fd is torn down or shutdown is signalled.
        while let Ok(ready) = self.ep.wait(&mut buf, -1) {
            for e in ready {
                // By value: `EpollEvent` is packed on x86-64.
                let token = e.token;
                if token == WAKE_TOKEN {
                    return;
                }
                if let Some(conn) = self.lookup(token) {
                    conn.flow.on_ready();
                }
            }
        }
    }

    fn lookup(&self, token: u64) -> Option<Arc<ConnState>> {
        self.conns.lock().get(&token).cloned()
    }

    /// Adopt an established, handshake-complete stream: make it
    /// non-blocking and register it, disarmed, for the `EPOLLOUT` a
    /// backed-up sender may one day ask for. Returns the shared
    /// connection state.
    pub fn register(
        self: &Arc<Reactor>,
        stream: TcpStream,
        tuning: ConnTuning,
    ) -> TdpResult<Arc<ConnState>> {
        let sub = |e: std::io::Error| TdpError::Substrate(format!("epoll register: {e}"));
        crate::sys::set_nonblocking(stream.as_raw_fd()).map_err(sub)?;
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let io = SocketIo {
            stream,
            reactor: Arc::downgrade(self),
            token,
        };
        let conn = Arc::new(ConnState {
            token,
            flow: Flow::new(io, tuning),
            handles: AtomicU64::new(2), // one Tx wrapper + one Rx wrapper
        });
        self.conns.lock().insert(token, conn.clone());
        if let Err(e) = self.ep.add(conn.fd(), EPOLLONESHOT, token) {
            self.conns.lock().remove(&token);
            return Err(sub(e));
        }
        Ok(conn)
    }

    /// The thread owned (the join handle held — nothing is ever spawned
    /// per connection, so that is the live count until shutdown) and
    /// the connections currently registered.
    pub fn census(&self) -> WireCensus {
        WireCensus {
            threads: usize::from(self.thread.lock().is_some()),
            conns: self.conns.lock().len(),
        }
    }

    fn deregister(&self, token: u64, fd: i32) {
        let _ = self.ep.delete(fd);
        self.conns.lock().remove(&token);
    }

    /// Stop the loop and join its thread. Idempotent: the eventfd is
    /// level-triggered and never drained, and the handle is taken once.
    pub fn shutdown(&self) {
        self.wake.signal();
        let handle = self.thread.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

// ------------------------------------------------------------ socket IO

/// The production [`FlowIo`]: a non-blocking socket whose readiness
/// registration is rearmed through the owning reactor's epoll set.
pub(crate) struct SocketIo {
    stream: TcpStream,
    reactor: Weak<Reactor>,
    token: u64,
}

impl FlowIo for SocketIo {
    fn writev(&self, bufs: &[&[u8]]) -> std::io::Result<usize> {
        crate::sys::writev_fd(self.stream.as_raw_fd(), bufs)
    }

    fn shutdown_read(&self) {
        let _ = self.stream.shutdown(Shutdown::Read);
    }

    fn shutdown_write(&self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }

    fn shutdown_both(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn arm_write(&self) {
        if let Some(r) = self.reactor.upgrade() {
            let fd = self.stream.as_raw_fd();
            let _ = r.ep.modify(fd, EPOLLOUT | EPOLLONESHOT, self.token);
        }
    }
}

// ----------------------------------------------------- connection state

/// Shared state of one connection: the outbox state machine bound to
/// its socket, plus handle accounting. All socket *writes* and all
/// interest changes happen under the flow's lock, so concurrent senders
/// and the reactor thread serialize per connection while different
/// connections proceed in parallel; reads are the `WireRx`'s alone.
pub(crate) struct ConnState {
    token: u64,
    pub flow: Flow<SocketIo>,
    /// Live API handles (Tx + Rx wrappers); the last one out
    /// deregisters and closes the socket.
    handles: AtomicU64,
}

impl ConnState {
    /// The socket, for the receive half to read and park on.
    pub fn stream(&self) -> &TcpStream {
        &self.flow.io().stream
    }

    fn fd(&self) -> i32 {
        self.stream().as_raw_fd()
    }

    // ---- lifecycle ----------------------------------------------------

    /// Called when a Tx or Rx API wrapper drops; the last one releases
    /// the connection.
    pub fn handle_dropped(&self) {
        if self.handles.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.release();
        }
    }

    /// Deregister from the reactor; dropping the last `Arc` then closes
    /// the socket (peer sees EOF). Frames still queued are flushed
    /// synchronously first — dropping a connection never drops what it
    /// already accepted for sending. The flow is quiesced *before* the
    /// socket flips to blocking mode, so the reactor thread holding a
    /// stale readiness event cannot enter a drain and block on the
    /// now-blocking socket.
    fn release(&self) {
        let plan = self.flow.begin_release();
        if let Some(plan) = plan {
            let mut stream = self.stream();
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_write_timeout(Some(self.flow.tuning().write_stall));
            let mut first = true;
            for front in plan.frames {
                let from = if first { plan.head_off } else { 0 };
                first = false;
                if stream.write_all(&front[from..]).is_err() {
                    break;
                }
            }
            if plan.shutdown_write_after {
                let _ = stream.shutdown(Shutdown::Write);
            }
        }
        if let Some(r) = self.flow.io().reactor.upgrade() {
            r.deregister(self.token, self.fd());
        }
    }
}
