//! The event loop behind the epoll transport: per shard, one thread
//! owning an epoll set, and per-connection state machines
//! ([`crate::flow::Flow`]) that turn readiness into framed messages.
//!
//! # Who owns a connection when
//!
//! A shard is one thread, `wire-reactor-{shard}`. It blocks in
//! `epoll_wait` on its own set and, for every event of a wake, in
//! order, calls [`ConnState::handle_event`] itself — no queue, no second
//! thread. Every connection is a non-blocking socket registered
//! `EPOLLONESHOT`: the kernel reports it at most once, the shard thread
//! drains it under the connection's lock, and the drain's last act is to
//! rearm the registration with the interest set the state machine
//! currently wants:
//!
//! * `EPOLLIN` while the decoded-message inbox is below its bound —
//!   above it, reads pause and TCP's window does the backpressure;
//! * `EPOLLOUT` only while the bounded outbox holds bytes a previous
//!   write could not push (`EWOULDBLOCK`) — senders write inline on the
//!   fast path and only fall back to reactor-driven draining when the
//!   socket buffer fills.
//!
//! Because both the IO and the rearm happen under the per-connection
//! mutex, a readiness report that races a sender or a camped receiver
//! is harmless — the drain finds nothing to do. The state-machine half
//! of this module lives in [`crate::flow`] so the loom models can drive
//! the shipped protocol logic exhaustively; this file keeps the epoll
//! plumbing.
//!
//! One thread is enough because [`Flow::on_ready`] cannot block: it is
//! a non-blocking `read`/`writev` under the flow lock, a `notify_all`
//! and one `epoll_ctl`. A connection whose inbox is full is not a slow
//! event, it is no event — its `EPOLLIN` is withheld until the receiver
//! drains — and blocked receivers camp on their own fd, so the shard
//! thread is off the put/get hot path altogether. The gateway's HTTP
//! loop (`tdp-gateway`'s `http.rs`) is the same oneshot-rearm idea with
//! the opposite numbers, and the two must not be merged by reflex: its
//! handlers block for up to 30 s, so it runs N threads on one shared
//! set and takes *one* event per `wait` (a thread must never sit on a
//! second ready connection while its handler is parked); here nothing
//! blocks, so one thread takes up to 256 events per `wait` and serves
//! them all before the next syscall.
//!
//! Shutdown signals a level-triggered [`EventFd`] at token 0 that
//! nobody drains; the loop returns when it sees it. `epoll_ctl` changes
//! need no kick, the kernel applies them to an in-progress wait.
//!
//! # Thread budget
//!
//! [`reactors`](crate::EpollConfig::reactors) threads serve *every*
//! connection of the transport — O(shards), not O(connections). The set
//! holds the `JoinHandle` of every thread it spawned, so its
//! [`census`](ReactorSet::census) is exact and per transport.

use crate::flow::{ConnTuning, Flow, FlowIo, Interest};
use crate::sys::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLONESHOT, EPOLLOUT, EPOLLRDHUP,
};
use crate::WireCensus;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::thread;
use tdp_proto::{FrameDecoder, TdpError, TdpResult};
use tdp_sync::atomic::{AtomicU64, Ordering};
use tdp_sync::{Arc, Mutex, Weak};

// ---------------------------------------------------------- reactor set

/// The shard a connection lives on: plain modulo over the sequentially
/// assigned connection id. Ids arrive round-robin, so shards stay
/// balanced without coordination, and the mapping is a pure function of
/// the id — nothing ever needs to look a connection's shard up.
pub(crate) fn shard_index(conn_id: u64, nshards: usize) -> usize {
    (conn_id % nshards.max(1) as u64) as usize
}

/// N independent reactors, each one thread owning its own epoll set and
/// wake eventfd. A connection is hashed to a shard when it is
/// registered (accept/dial time) and never migrates, so the whole
/// put/get path — readiness, drains, rearms, wakeups — touches only
/// shard-local state; no lock is shared between shards.
pub(crate) struct ReactorSet {
    shards: Vec<Arc<Reactor>>,
    next_conn: AtomicU64,
}

impl ReactorSet {
    /// Spawn `shards` reactor threads (at least one).
    pub fn start(shards: usize) -> TdpResult<ReactorSet> {
        let shards = (0..shards.max(1))
            .map(Reactor::start)
            .collect::<TdpResult<Vec<_>>>()?;
        Ok(ReactorSet {
            shards,
            next_conn: AtomicU64::new(0),
        })
    }

    /// Hash the new connection to a shard and register it there.
    pub fn register(
        &self,
        stream: TcpStream,
        leftover: FrameDecoder,
        tuning: ConnTuning,
    ) -> TdpResult<Arc<ConnState>> {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        self.shards[shard_index(id, self.shards.len())].register(stream, leftover, tuning)
    }

    #[cfg(test)]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Threads owned (the join handles held — nothing is ever spawned
    /// per connection, so that is the live count until shutdown) and
    /// connections currently registered, summed over the shards.
    pub fn census(&self) -> WireCensus {
        let mut census = WireCensus {
            threads: 0,
            conns: 0,
        };
        for s in &self.shards {
            census.threads += usize::from(s.thread.lock().is_some());
            census.conns += s.conns.lock().len();
        }
        census
    }

    /// Stop every shard and join its thread. Idempotent.
    pub fn shutdown(&self) {
        for s in &self.shards {
            s.shutdown();
        }
    }
}

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
    /// Spawn shard `shard`'s thread.
    pub fn start(shard: usize) -> TdpResult<Arc<Reactor>> {
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
            .name(format!("wire-reactor-{shard}"))
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
                let (token, revents) = ({ e.token }, { e.events });
                if token == WAKE_TOKEN {
                    return;
                }
                if let Some(conn) = self.lookup(token) {
                    conn.handle_event(revents);
                }
            }
        }
    }

    fn lookup(&self, token: u64) -> Option<Arc<ConnState>> {
        self.conns.lock().get(&token).cloned()
    }

    /// Adopt an established, handshake-complete stream: make it
    /// non-blocking, pump any bytes the handshake over-read, and start
    /// watching it. Returns the shared connection state.
    pub fn register(
        self: &Arc<Reactor>,
        stream: TcpStream,
        leftover: FrameDecoder,
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
            // Frames pipelined behind the handshake are pumped out of
            // `leftover` by `Flow::new`; readiness will never re-report
            // those bytes.
            flow: Flow::new(io, tuning, leftover),
            handles: AtomicU64::new(2), // one Tx wrapper + one Rx wrapper
        });
        self.conns.lock().insert(token, conn.clone());
        if let Err(e) = self
            .ep
            .add(conn.fd(), EPOLLIN | EPOLLRDHUP | EPOLLONESHOT, token)
        {
            self.conns.lock().remove(&token);
            return Err(sub(e));
        }
        Ok(conn)
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
    fn read(&self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::io::Read::read(&mut (&self.stream), buf)
    }

    fn write(&self, buf: &[u8]) -> std::io::Result<usize> {
        std::io::Write::write(&mut (&self.stream), buf)
    }

    fn writev(&self, bufs: &[&[u8]]) -> std::io::Result<usize> {
        crate::sys::writev_fd(self.stream.as_raw_fd(), bufs)
    }

    fn supports_direct_read(&self) -> bool {
        true
    }

    fn wait_readable(&self, timeout_ms: i32) -> std::io::Result<bool> {
        crate::sys::poll_readable(self.stream.as_raw_fd(), timeout_ms)
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

    fn rearm(&self, interest: Interest) {
        let mut mask = 0;
        if interest.read {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.write {
            mask |= EPOLLOUT;
        }
        if let Some(r) = self.reactor.upgrade() {
            let _ =
                r.ep.modify(self.stream.as_raw_fd(), mask | EPOLLONESHOT, self.token);
        }
    }
}

// ----------------------------------------------------- connection state

/// Shared state of one reactor-managed connection: the generic flow
/// state machine bound to its socket, plus handle accounting. All
/// socket IO and all interest changes happen under the flow's lock, so
/// concurrent senders, the receiver, and the shard thread serialize per
/// connection while different connections proceed in parallel.
pub(crate) struct ConnState {
    token: u64,
    pub flow: Flow<SocketIo>,
    /// Live API handles (Tx + Rx wrappers); the last one out
    /// deregisters and closes the socket.
    handles: AtomicU64,
}

impl ConnState {
    fn fd(&self) -> i32 {
        self.flow.io().stream.as_raw_fd()
    }

    /// Translate an epoll readiness report for the flow. Error/hangup
    /// conditions count as both readable and writable so the drains
    /// observe the failure.
    pub fn handle_event(&self, revents: u32) {
        let readable = revents & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0;
        let writable = revents & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0;
        self.flow.on_ready(readable, writable);
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
    /// socket flips to blocking mode, so the shard thread holding a
    /// stale readiness event cannot enter a drain and block on the
    /// now-blocking socket.
    fn release(&self) {
        let plan = self.flow.begin_release();
        if let Some(plan) = plan {
            let mut stream = &self.flow.io().stream;
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
