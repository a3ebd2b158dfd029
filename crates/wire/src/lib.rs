//! `tdp-wire`: the message transport layer of the TDP workspace.
//!
//! Every protocol component above this crate (the attribute-space
//! servers and clients, `tdp-core`'s `TdpHandle`) exchanges framed
//! [`Message`]s over an abstract connection. This crate defines that
//! abstraction — [`WireConn`] / [`WireTx`] / [`WireRx`] /
//! [`WireListener`], produced by a [`Transport`] — and ships two
//! transports:
//!
//! * [`sim`] — an adapter over `tdp-netsim`'s in-memory fabric, keeping
//!   the simulated topology and firewalls;
//! * [`epoll`] — real loopback TCP sockets with no thread per
//!   connection or per transport. A receiver reads its own socket: an
//!   incremental streaming decoder ([`tdp_proto::FrameDecoder`]) owned
//!   by the connection's one `WireRx`, which parks in `recv(2)` on its
//!   own fd — one syscall, straight into the decoder's buffer — or,
//!   with a deadline, in `poll(2)`. A sender writes its own socket: it
//!   takes the connection's send turn (`flow.rs`), encodes into the
//!   connection's buffer and writes, parking in `poll(2)` if the
//!   kernel's socket buffer — the only queue — is full; a peer that
//!   stops reading for 5 s is killed. Fail-fast close semantics match
//!   netsim's, and the per-connection encode buffer and decode scratch
//!   make steady-state put/get allocation-free. [`socket`] holds the
//!   accept thread, the write loop an adopted stream is sent through,
//!   and the §2.4 byte-relay proxy.
//!
//! The two are observably equivalent to the layers above: the same
//! scenario driven over either produces the same TDP call trace.

// The only crate in the workspace allowed to use `unsafe` (the raw
// poll/recv/send FFI in `sys`); every unsafe operation must be
// explicit even inside unsafe fns, and every block carries a
// `// SAFETY:` comment (clippy::undocumented_unsafe_blocks).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod endpoint;
pub mod epoll;
pub(crate) mod flow;
#[cfg(all(loom, test))]
mod loom_models;
#[cfg(all(test, not(loom)))]
mod serve_tests;
pub mod sim;
pub mod socket;
pub mod sys;

pub use endpoint::Endpoint;
pub use epoll::EpollTransport;
pub use sim::SimTransport;
pub use socket::TcpProxy;

use std::time::{Duration, Instant};
use tdp_proto::{HostId, Message, TdpError, TdpResult};
use tdp_sync::Arc;

/// Send half of a connection. Object-safe; shared behind [`WireTx`].
pub trait TxApi: Send + Sync {
    /// Send one framed message. May block for backpressure; fails fast
    /// once the connection is closed, and with `Protocol` — the
    /// connection untouched — for a message over `MAX_FRAME`.
    fn send_msg(&self, msg: &Message) -> TdpResult<()>;
    /// Close the connection. Pending sends are abandoned; the peer sees
    /// EOF. Idempotent.
    fn close(&self);
}

/// Receive half of a connection. Object-safe; owned by [`WireRx`].
pub trait RxApi: Send {
    /// Blocking framed receive; `deadline` bounds the wait (`None` waits
    /// as long as it takes). A deadline already past still delivers a
    /// frame that has arrived, and only then reports `Timeout`.
    fn recv_msg_deadline(&mut self, deadline: Option<Instant>) -> TdpResult<Message>;
    /// Non-blocking framed receive: `Ok(None)` when no complete message
    /// has arrived yet.
    fn try_recv_msg(&mut self) -> TdpResult<Option<Message>>;
    /// Hand a consumed message's string buffers back to the decoder's
    /// scratch pool, so the next decode on this connection reuses them
    /// instead of allocating. Purely an optimisation — backends without
    /// a scratch pool just drop the message.
    fn recycle_msg(&mut self, msg: Message) {
        drop(msg);
    }
}

/// A passive listener. Object-safe; shared behind [`WireListener`].
pub trait ListenerApi: Send + Sync {
    /// Block for the next inbound connection.
    fn accept(&self) -> TdpResult<WireConn>;
    /// Where this listener is bound, in transport terms.
    fn local_endpoint(&self) -> Endpoint;
    /// Stop accepting; blocked `accept` calls return an error.
    fn close(&self);
}

/// Clonable send handle — multiple threads may write to one connection.
#[derive(Clone)]
pub struct WireTx {
    inner: Arc<dyn TxApi>,
}

impl WireTx {
    pub fn new(inner: Arc<dyn TxApi>) -> WireTx {
        WireTx { inner }
    }

    pub fn send_msg(&self, msg: &Message) -> TdpResult<()> {
        self.inner.send_msg(msg)
    }

    pub fn close(&self) {
        self.inner.close();
    }
}

/// Exclusive receive handle (framed reads keep per-connection decoder
/// state).
pub struct WireRx {
    inner: Box<dyn RxApi>,
}

impl WireRx {
    pub fn new(inner: Box<dyn RxApi>) -> WireRx {
        WireRx { inner }
    }

    pub fn recv_msg(&mut self) -> TdpResult<Message> {
        self.inner.recv_msg_deadline(None)
    }

    /// A `timeout` too large for `Instant` to hold (`Duration::MAX`,
    /// the natural "wait forever") is no deadline at all.
    pub fn recv_msg_timeout(&mut self, timeout: Duration) -> TdpResult<Message> {
        self.inner
            .recv_msg_deadline(Instant::now().checked_add(timeout))
    }

    /// See [`RxApi::recv_msg_deadline`].
    pub fn recv_msg_deadline(&mut self, deadline: Option<Instant>) -> TdpResult<Message> {
        self.inner.recv_msg_deadline(deadline)
    }

    pub fn try_recv_msg(&mut self) -> TdpResult<Option<Message>> {
        self.inner.try_recv_msg()
    }

    /// Return a consumed message's buffers for reuse — see
    /// [`RxApi::recycle_msg`].
    pub fn recycle_msg(&mut self, msg: Message) {
        self.inner.recycle_msg(msg);
    }
}

/// An established connection over either transport.
pub struct WireConn {
    tx: WireTx,
    rx: WireRx,
    local: Endpoint,
    peer: Endpoint,
    /// Logical host of the peer: carried by the address on the simulated
    /// fabric, declared by the `Hello` handshake over sockets. `None` on
    /// the client side of a socket connection (the dialled server never
    /// introduces itself — the client already knows whom it called).
    peer_host: Option<HostId>,
}

impl WireConn {
    pub fn from_parts(
        tx: WireTx,
        rx: WireRx,
        local: Endpoint,
        peer: Endpoint,
        peer_host: Option<HostId>,
    ) -> WireConn {
        WireConn {
            tx,
            rx,
            local,
            peer,
            peer_host,
        }
    }

    pub fn local_endpoint(&self) -> Endpoint {
        self.local
    }

    pub fn peer_endpoint(&self) -> Endpoint {
        self.peer
    }

    /// Logical host of the peer, when known (see field docs).
    pub fn peer_host(&self) -> Option<HostId> {
        self.peer_host
    }

    pub fn send_msg(&self, msg: &Message) -> TdpResult<()> {
        self.tx.send_msg(msg)
    }

    pub fn recv_msg(&mut self) -> TdpResult<Message> {
        self.rx.recv_msg()
    }

    pub fn recv_msg_timeout(&mut self, timeout: Duration) -> TdpResult<Message> {
        self.rx.recv_msg_timeout(timeout)
    }

    pub fn recv_msg_deadline(&mut self, deadline: Option<Instant>) -> TdpResult<Message> {
        self.rx.recv_msg_deadline(deadline)
    }

    pub fn try_recv_msg(&mut self) -> TdpResult<Option<Message>> {
        self.rx.try_recv_msg()
    }

    /// A clonable handle onto the send half (the connection itself stays
    /// intact).
    pub fn sender(&self) -> WireTx {
        self.tx.clone()
    }

    pub fn close(&self) {
        self.tx.close();
    }

    /// Split into independently owned halves, so a server can fan
    /// replies in from other sessions while one thread blocks reading.
    pub fn split(self) -> (WireTx, WireRx) {
        (self.tx, self.rx)
    }
}

impl std::fmt::Debug for WireConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WireConn({} <-> {})", self.local, self.peer)
    }
}

/// Clonable listener handle. Dropping the last clone closes the
/// listener, on either transport.
#[derive(Clone)]
pub struct WireListener {
    inner: Arc<dyn ListenerApi>,
}

impl WireListener {
    pub fn new(inner: Arc<dyn ListenerApi>) -> WireListener {
        WireListener { inner }
    }

    pub fn accept(&self) -> TdpResult<WireConn> {
        self.inner.accept()
    }

    pub fn local_endpoint(&self) -> Endpoint {
        self.inner.local_endpoint()
    }

    pub fn close(&self) {
        self.inner.close();
    }
}

impl tdp_sync::serve::Accept for WireListener {
    type Conn = WireConn;

    fn accept(&self) -> Option<WireConn> {
        self.inner.accept().ok()
    }

    fn close(&self) {
        self.inner.close();
    }
}

/// A connection factory: one per transport.
///
/// `from` is the logical host the connection originates on — the
/// simulated transport uses it to pick the source address (and so the
/// firewall rules that apply); the socket transport announces it to
/// the server in the `Hello` handshake.
pub trait Transport: Send + Sync {
    /// Bind a listener. `port` is the logical port (the socket
    /// transport always binds an ephemeral loopback port; callers map
    /// logical to real addresses — see `tdp-core`'s resolver).
    fn listen(&self, host: HostId, port: u16) -> TdpResult<WireListener>;
    /// Open a connection from logical host `from` to `to`.
    fn connect(&self, from: HostId, to: &Endpoint) -> TdpResult<WireConn>;
}

pub(crate) fn protocol_err(e: tdp_proto::FrameError) -> TdpError {
    TdpError::Protocol(e.to_string())
}

/// Names of this process's live wire-layer OS threads (accept threads,
/// proxies and their relay pumps — every thread this crate spawns is
/// named `wire-…`). Linux-only by way of `/proc`, which truncates names
/// to 15 bytes.
fn wire_threads() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with("wire-"))
        .collect()
}

/// Process-wide count of live wire-layer OS threads, across every
/// transport and proxy in the process (the benches' headline number).
pub fn wire_thread_count() -> usize {
    wire_threads().len()
}

static STALL_KILLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

pub(crate) fn record_stall_kill() {
    STALL_KILLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

/// Process-wide count of connections this crate has killed because a
/// peer stopped draining for longer than the write-stall timeout (5 s).
/// A monotone counter, never reset: ops KPI consumers diff successive
/// samples.
pub fn stall_kill_count() -> u64 {
    STALL_KILLS.load(std::sync::atomic::Ordering::Relaxed)
}
