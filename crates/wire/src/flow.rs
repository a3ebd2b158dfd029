//! The send side of a socket connection: a *send turn*. The thread
//! that wants a frame sent takes the connection's turn (one mutex),
//! encodes into the connection's own buffer and writes its own socket;
//! the kernel's socket buffer is the only queue. Generic over its IO so
//! the `loom_` tests drive the exact code that ships against a scripted
//! socket; production binds it to a `TcpStream` whose every `send` is
//! `MSG_DONTWAIT`.
//!
//! There is no receive side here. A connection's reads belong to its
//! one `WireRx` (`&mut self`, not clonable), which decodes off its own
//! fd without a lock — see `epoll::EpollRx`. The only thing the two
//! sides share is [`Flow::is_shut`].
//!
//! # Why no outbox, and no thread to drain one
//!
//! Until PR 19 a sender that met a full socket left its frames in a
//! 256 KiB per-connection outbox, and a `wire-reactor` thread per
//! transport finished the write on `EPOLLOUT` — kept because
//! `attrspace::server::route` fans replies out to *other* sessions'
//! connections, "and a sender parked on one stalled tool would block
//! the LASS thread serving another". Measured rather than repeated: on
//! a Linux 6.18 loopback (`tcp_wmem` max 4 MiB) a peer that never reads
//! absorbs 3 909 744 B — within 1 % for 64 B, 300 B and 8 200 B frames
//! — before the first `EWOULDBLOCK`. The outbox then took 256 KiB more
//! (6.7 %), after which `send` parked that same LASS thread for the
//! same 5 s and killed the connection the same way. The kernel's buffer
//! already was the bounded outbox; moving the threshold from 3.8 to
//! 4.07 MiB cost a thread, an epoll set and an eventfd per world, a
//! buffer pool (a queued frame outlived its sender), flush-on-release
//! and four loom models of sender-vs-drainer races. Recipe: non-blocking
//! loopback socket, peer never reads, count bytes until `EWOULDBLOCK`.
//!
//! So the slow-peer outcome is unchanged and stated once: a send that
//! cannot finish within [`WRITE_STALL`] kills the connection
//! ([`crate::stall_kill_count`]). A neighbour connection is untouched —
//! it has its own turn and its own socket.
//!
//! All synchronization goes through `tdp-sync`, so under
//! `RUSTFLAGS="--cfg loom"` the mutex and atomic here are loom's
//! instrumented ones. See DESIGN.md "Concurrency invariants".

use bytes::BytesMut;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;
use tdp_proto::{check_sendable, encode_frame_into, Message, TdpError, TdpResult};
use tdp_sync::atomic::{AtomicBool, Ordering};
use tdp_sync::Mutex;

/// How long one `send` waits, in total, on a peer that has stopped
/// reading before declaring it wedged and killing the connection.
pub(crate) const WRITE_STALL: Duration = Duration::from_secs(5);

/// Encode-buffer capacity a connection keeps between sends — one
/// pathological frame must not pin its footprint for the connection's
/// life (the gateway's `KEEP_BUF` states the same rule).
const MAX_RETAINED_CAP: usize = 64 * 1024;

/// What [`Flow`] needs from a transport endpoint — the seam the loom
/// models substitute a scripted socket at.
pub(crate) trait FlowIo {
    /// Write the whole frame, waiting at most `stall` in total for a
    /// full socket to make room; `TimedOut` means it did not, with
    /// part of the frame possibly written. Called with the send turn
    /// held.
    fn write_frame(&self, frame: &[u8], stall: Duration) -> io::Result<()>;
    /// Tear down both directions: the peer sees EOF behind whatever was
    /// written, and every local thread parked on the socket wakes.
    /// Never called under the send turn's lock by anyone but its holder.
    fn shutdown(&self);
}

impl FlowIo for TcpStream {
    fn write_frame(&self, frame: &[u8], stall: Duration) -> io::Result<()> {
        crate::socket::write_all_stall(self, frame, stall)
    }

    fn shutdown(&self) {
        let _ = TcpStream::shutdown(self, Shutdown::Both);
    }
}

pub(crate) struct Flow<IO> {
    io: IO,
    stall: Duration,
    /// The send turn. Only senders to this connection ever take it;
    /// `close`, the receiver and `Drop` do not.
    tx: Mutex<Tx>,
    /// Raised by a local [`Flow::close`] and by the stall-kill, *before*
    /// the `shutdown` that wakes whoever is parked on the fd. Fails
    /// sends fast, and local reads too: Linux keeps delivering data
    /// that arrives after `shutdown(SHUT_RD)`, so this flag — not the
    /// socket — is what ends the receive side.
    shut: AtomicBool,
}

struct Tx {
    /// The connection's encode buffer, reused send after send.
    buf: BytesMut,
    /// A write failed (`EPIPE`, reset): sends fail fast. Reads do not —
    /// the peer's last reply may still be in our receive buffer, and
    /// the receiver finds the EOF behind it on its own.
    dead: bool,
}

impl<IO: FlowIo> Flow<IO> {
    /// Wrap an established endpoint.
    pub fn new(io: IO, stall: Duration) -> Flow<IO> {
        Flow {
            io,
            stall,
            tx: Mutex::new(Tx {
                buf: BytesMut::new(),
                dead: false,
            }),
            shut: AtomicBool::new(false),
        }
    }

    pub fn io(&self) -> &IO {
        &self.io
    }

    /// Whether a local close or a stall-kill has ended this connection:
    /// the receiver delivers what it already buffered, then fails.
    pub fn is_shut(&self) -> bool {
        self.shut.load(Ordering::Acquire)
    }

    /// Send one message, on the calling thread. When this returns `Ok`
    /// the whole frame is in the kernel, so a later `close` or drop
    /// cannot lose it. A message over `MAX_FRAME` is refused before a
    /// byte is written — the peer's decoder would answer it by ending
    /// the session.
    pub fn send(&self, msg: &Message) -> TdpResult<()> {
        let mut tx = self.tx.lock();
        if tx.dead || self.is_shut() {
            return Err(TdpError::Disconnected);
        }
        encode_frame_into(msg, &mut tx.buf);
        let res = check_sendable(&tx.buf).and_then(|()| {
            self.io.write_frame(&tx.buf, self.stall).map_err(|e| {
                if e.kind() != io::ErrorKind::TimedOut {
                    tx.dead = true;
                } else if !self.shut.swap(true, Ordering::AcqRel) {
                    // The peer is wedged and the kill is ours; a
                    // `close` that won the race has already shut the
                    // socket down, and its stall is not a kill.
                    crate::record_stall_kill();
                    self.io.shutdown();
                }
                TdpError::Disconnected
            })
        });
        if tx.buf.capacity() > MAX_RETAINED_CAP {
            tx.buf = BytesMut::new();
        }
        res
    }

    /// End the connection from this side: local sends and reads fail
    /// fast, the peer sees EOF behind every frame a `send` returned
    /// `Ok` for. Never takes the send turn, so it returns at once while
    /// a sender is parked on a stalled peer — and releases it.
    /// Idempotent.
    pub fn close(&self) {
        if !self.shut.swap(true, Ordering::AcqRel) {
            self.io.shutdown();
        }
    }
}
