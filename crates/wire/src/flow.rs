//! The send side of an epoll connection: a bounded outbox with an
//! inline-`writev` fast path, extracted from the reactor so it is
//! generic over its IO — production wires it to a non-blocking
//! `TcpStream` + `epoll_ctl` rearm (`reactor::SocketIo`); the `loom_`
//! tests wire it to a scripted in-memory IO and drive every
//! interleaving of senders, a closer and the reactor thread through the
//! exact code that ships.
//!
//! There is no receive side here. A connection's reads belong to its
//! one `WireRx` (`&mut self`, not clonable), which decodes off its own
//! fd without a lock — see `epoll::EpollRx`. The only thing the two
//! sides share is [`Flow::is_shut`], the flag a local close or a
//! stall-kill raises so the receiver fails fast.
//!
//! All synchronization goes through `tdp-sync`, so under
//! `RUSTFLAGS="--cfg loom"` the mutex/condvar/atomic here are loom's
//! instrumented ones. See DESIGN.md "Concurrency invariants" for the
//! lock-ordering and state-machine rules this module must uphold.

use crate::pool::PooledBuf;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tdp_proto::{TdpError, TdpResult};
use tdp_sync::atomic::{AtomicBool, Ordering};
use tdp_sync::{Condvar, Mutex};

/// Cap on slices gathered per [`FlowIo::writev`] call (mirrors
/// [`crate::sys::WRITEV_BATCH`] without depending on the FFI module).
pub(crate) const WRITEV_BATCH: usize = 64;

/// Per-connection bounds. Production uses [`ConnTuning::DEFAULT`]; only
/// tests (the stall test, the loom models) build another.
#[derive(Debug, Clone)]
pub(crate) struct ConnTuning {
    /// `send_msg` blocks (backpressure) while the outbox holds this many
    /// bytes.
    pub outbox_bytes: usize,
    /// How long a backpressured `send_msg` waits on a peer that has
    /// stopped draining before declaring it wedged and killing the
    /// connection.
    pub write_stall: Duration,
}

impl ConnTuning {
    pub const DEFAULT: ConnTuning = ConnTuning {
        outbox_bytes: 256 * 1024,
        write_stall: Duration::from_secs(5),
    };
}

/// What [`Flow`] needs from a transport endpoint. The real
/// implementation is a non-blocking socket; the loom models script
/// results. Every method is called *with the flow lock held*, so
/// implementations must not block (beyond a non-blocking syscall) and
/// must not call back into the flow.
pub(crate) trait FlowIo {
    /// Non-blocking vectored write: push several frames in one syscall.
    /// Returns bytes accepted (possibly a partial gather); `WouldBlock`
    /// when the send buffer is full.
    fn writev(&self, bufs: &[&[u8]]) -> std::io::Result<usize>;
    /// Half-close the receive side (local reads fail fast).
    fn shutdown_read(&self);
    /// Half-close the send side (peer sees EOF).
    fn shutdown_write(&self);
    /// Tear down both directions (wedged-peer kill path).
    fn shutdown_both(&self);
    /// Ask for one writability report (the registration is oneshot):
    /// the reactor owes this connection a drain.
    fn arm_write(&self);
}

pub(crate) struct Flow<IO> {
    io: IO,
    tuning: ConnTuning,
    inner: Mutex<FlowInner>,
    tx_cv: Condvar,
    /// Raised by a local [`Flow::close`] and by the stall-kill, *before*
    /// the `shutdown` that wakes a receiver parked on the fd. Linux
    /// keeps delivering data that arrives after `shutdown(SHUT_RD)`, so
    /// this flag — not the socket — is what makes local reads fail fast.
    shut: AtomicBool,
}

struct FlowInner {
    outbox: VecDeque<PooledBuf>,
    outbox_bytes: usize,
    /// Partial-write offset into the front outbox frame.
    head_off: usize,
    /// Write interest armed: the reactor owes us a drain.
    want_write: bool,
    /// `close()` ran with frames still queued: half-close after flush.
    flush_then_shutdown: bool,
    /// Local close or fatal socket error: sends fail fast.
    closed: bool,
}

/// Outbox contents handed back by [`Flow::begin_release`] for the
/// owner to flush synchronously (outside the flow lock).
pub(crate) struct FlushPlan {
    pub frames: VecDeque<PooledBuf>,
    pub head_off: usize,
    /// `close()` had requested a half-close once the queue drained.
    pub shutdown_write_after: bool,
}

impl<IO: FlowIo> Flow<IO> {
    /// Wrap an established endpoint.
    pub fn new(io: IO, tuning: ConnTuning) -> Flow<IO> {
        Flow {
            io,
            tuning,
            inner: Mutex::new(FlowInner {
                outbox: VecDeque::new(),
                outbox_bytes: 0,
                head_off: 0,
                want_write: false,
                flush_then_shutdown: false,
                closed: false,
            }),
            tx_cv: Condvar::new(),
            shut: AtomicBool::new(false),
        }
    }

    pub fn io(&self) -> &IO {
        &self.io
    }

    pub fn tuning(&self) -> &ConnTuning {
        &self.tuning
    }

    /// Whether a local close or a stall-kill has ended this connection:
    /// the receiver delivers what it already buffered, then fails.
    pub fn is_shut(&self) -> bool {
        self.shut.load(Ordering::Acquire)
    }

    // ---- event handling (the reactor thread) --------------------------

    /// One readiness report. The registration only ever asks for
    /// `EPOLLOUT`; the kernel adds error/hangup unasked, and those are
    /// ignored unless a drain is owed — the drain then surfaces the
    /// failure through the IO result.
    pub fn on_ready(&self) {
        let mut inner = self.inner.lock();
        if inner.want_write || inner.flush_then_shutdown {
            self.drain_write(&mut inner);
            if inner.want_write {
                self.io.arm_write();
            }
        }
    }

    /// Write outbox frames until empty or `EWOULDBLOCK` (which arms
    /// write interest — so the reactor resumes the drain when the
    /// socket buffer empties). Queued frames are coalesced into
    /// vectored writes: a burst of small puts leaves in one `writev`
    /// instead of one syscall per frame.
    fn drain_write(&self, inner: &mut FlowInner) {
        // Whether this drain freed any outbox space: backpressured
        // senders must be woken even when the drain ends in
        // `EWOULDBLOCK`, or a partial drain strands them until the
        // write-stall timer kills the connection (found by the loom
        // model `loom_outbox_partial_drain_wakes_sender`).
        let mut freed = false;
        while !inner.outbox.is_empty() {
            let res = {
                let mut iovs: [&[u8]; WRITEV_BATCH] = [&[]; WRITEV_BATCH];
                let mut n = 0;
                for (slot, frame) in iovs.iter_mut().zip(inner.outbox.iter()) {
                    *slot = if n == 0 {
                        &frame[inner.head_off..]
                    } else {
                        frame
                    };
                    n += 1;
                }
                self.io.writev(&iovs[..n])
            };
            match res {
                Ok(mut written) => {
                    if written > 0 {
                        freed = true;
                    }
                    inner.outbox_bytes -= written;
                    // Retire fully-written frames; a partial tail frame
                    // keeps its offset for the next pass. Dropping a
                    // retired frame returns its buffer to the pool.
                    while written > 0 {
                        let front_rem = inner.outbox.front().expect("bytes imply a frame").len()
                            - inner.head_off;
                        if written >= front_rem {
                            written -= front_rem;
                            inner.outbox.pop_front();
                            inner.head_off = 0;
                        } else {
                            inner.head_off += written;
                            written = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    inner.want_write = true;
                    if freed {
                        self.tx_cv.notify_all();
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Peer gone: fail fast.
                    inner.closed = true;
                    inner.want_write = false;
                    inner.outbox.clear();
                    inner.outbox_bytes = 0;
                    inner.head_off = 0;
                    self.io.shutdown_write();
                    self.tx_cv.notify_all();
                    return;
                }
            }
        }
        inner.want_write = false;
        self.tx_cv.notify_all(); // backpressured senders may proceed
        if inner.flush_then_shutdown {
            inner.flush_then_shutdown = false;
            self.io.shutdown_write();
        }
    }

    // ---- send path ----------------------------------------------------

    pub fn send(&self, frame: PooledBuf) -> TdpResult<()> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(TdpError::Disconnected);
        }
        // Backpressure: wait for outbox space (a lone oversized frame is
        // admitted so progress is always possible). A peer that stops
        // draining for `write_stall` kills the connection instead of
        // wedging the sender.
        if inner.outbox_bytes + frame.len() > self.tuning.outbox_bytes && !inner.outbox.is_empty() {
            let deadline = Instant::now() + self.tuning.write_stall;
            while inner.outbox_bytes + frame.len() > self.tuning.outbox_bytes
                && !inner.outbox.is_empty()
                && !inner.closed
            {
                if self.tx_cv.wait_until(&mut inner, deadline).timed_out() {
                    // The stall timer races the reactor's drain: space
                    // may have been freed concurrently with the
                    // deadline. Kill only if the stall is still real —
                    // otherwise loop, recheck, and proceed (found by
                    // the loom stall/kill model).
                    if inner.outbox_bytes + frame.len() <= self.tuning.outbox_bytes
                        || inner.outbox.is_empty()
                        || inner.closed
                    {
                        continue;
                    }
                    inner.closed = true;
                    self.shut.store(true, Ordering::Release);
                    crate::record_stall_kill();
                    self.io.shutdown_both();
                    self.tx_cv.notify_all();
                    return Err(TdpError::Disconnected);
                }
            }
            if inner.closed {
                return Err(TdpError::Disconnected);
            }
        }
        inner.outbox_bytes += frame.len();
        inner.outbox.push_back(frame);
        if !inner.want_write {
            // Fast path: the socket was writable last we knew — drain
            // inline, no reactor round trip. Falls back to armed write
            // interest on a partial write.
            self.drain_write(&mut inner);
            if inner.want_write {
                self.io.arm_write();
            }
        }
        Ok(())
    }

    pub fn close(&self) {
        let mut inner = self.inner.lock();
        if inner.closed {
            return;
        }
        inner.closed = true;
        // Local reads fail fast (after already-buffered frames drain),
        // matching netsim's `Conn::close`, which severs both directions.
        // The shutdown wakes a receiver parked on the fd; the flag is
        // what it then finds.
        self.shut.store(true, Ordering::Release);
        self.io.shutdown_read();
        if inner.outbox.is_empty() {
            self.io.shutdown_write();
        } else {
            // Queued frames flush first, then the peer sees EOF.
            inner.flush_then_shutdown = true;
            if !inner.want_write {
                self.drain_write(&mut inner);
                if inner.want_write {
                    self.io.arm_write();
                }
            }
        }
        self.tx_cv.notify_all();
    }

    // ---- lifecycle ----------------------------------------------------

    /// First half of tearing the connection down, run once both API
    /// halves are gone (so no receiver is left to tell): quiesce the
    /// state machine (stale readiness reports and senders become
    /// no-ops) and hand any unflushed outbox back to the caller, which
    /// flushes it synchronously *outside* the flow lock. Quiescing
    /// before the owner flips the socket to blocking mode is
    /// load-bearing: the reactor thread holding a stale readiness event
    /// must find no drain owed here rather than enter `drain_write` on
    /// a now-blocking socket and wedge every other connection's drain.
    pub fn begin_release(&self) -> Option<FlushPlan> {
        let mut inner = self.inner.lock();
        let flush = !inner.outbox.is_empty() && (!inner.closed || inner.flush_then_shutdown);
        inner.closed = true;
        inner.want_write = false;
        let shutdown_write_after = inner.flush_then_shutdown;
        inner.flush_then_shutdown = false;
        let frames = std::mem::take(&mut inner.outbox);
        let head_off = std::mem::take(&mut inner.head_off);
        inner.outbox_bytes = 0;
        if !flush {
            return None;
        }
        Some(FlushPlan {
            frames,
            head_off,
            shutdown_write_after,
        })
    }

    /// Test-only: block *untimed* on the same condvar and predicate as
    /// `send`'s backpressure wait. The loom models use this to prove
    /// the notify side of the protocol without the stall timeout as an
    /// escape hatch — a drain that frees space but fails to notify
    /// leaves this parked forever, which the checker reports as a
    /// deadlock. Returns whether the connection was still open.
    #[cfg(all(loom, test))]
    pub fn await_outbox_space(&self, frame_len: usize) -> bool {
        let mut inner = self.inner.lock();
        while inner.outbox_bytes + frame_len > self.tuning.outbox_bytes
            && !inner.outbox.is_empty()
            && !inner.closed
        {
            self.tx_cv.wait(&mut inner);
        }
        !inner.closed
    }

    /// Test-only visibility into the state machine: `(want_write,
    /// closed, outbox_bytes)`.
    #[cfg(test)]
    pub fn snapshot(&self) -> (bool, bool, usize) {
        let inner = self.inner.lock();
        (inner.want_write, inner.closed, inner.outbox_bytes)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::pool::BufferPool;
    use proptest::prelude::*;
    use std::sync::Mutex as StdMutex;
    use tdp_proto::{encode_frame, ContextId, FrameDecoder, Message, Reply};
    use tdp_sync::Arc;

    /// A scripted endpoint for the writev-coalescing property: each
    /// `writev` call consumes one allowance from the script — `0` means
    /// `EWOULDBLOCK`, `n` accepts up to `n` bytes gathered across the
    /// iovec in order. Once the script runs dry the socket accepts
    /// everything, so every run terminates with a full flush.
    #[derive(Clone)]
    struct GatherIo {
        inner: Arc<StdMutex<GatherState>>,
    }

    struct GatherState {
        allowances: VecDeque<usize>,
        written: Vec<u8>,
        /// writev calls that gathered more than one frame (coalescing
        /// actually exercised, not just frame-at-a-time).
        gathers: usize,
    }

    impl GatherIo {
        fn new(allowances: Vec<usize>) -> GatherIo {
            GatherIo {
                inner: Arc::new(StdMutex::new(GatherState {
                    allowances: allowances.into_iter().collect(),
                    written: Vec::new(),
                    gathers: 0,
                })),
            }
        }

        fn written(&self) -> Vec<u8> {
            self.inner.lock().unwrap().written.clone()
        }

        fn gathers(&self) -> usize {
            self.inner.lock().unwrap().gathers
        }
    }

    impl FlowIo for GatherIo {
        fn writev(&self, bufs: &[&[u8]]) -> std::io::Result<usize> {
            let mut st = self.inner.lock().unwrap();
            let mut allowance = match st.allowances.pop_front() {
                Some(0) => return Err(std::io::ErrorKind::WouldBlock.into()),
                Some(n) => n,
                None => usize::MAX, // script exhausted: accept all
            };
            if bufs.iter().filter(|b| !b.is_empty()).count() > 1 {
                st.gathers += 1;
            }
            let mut accepted = 0;
            for b in bufs {
                if allowance == 0 {
                    break;
                }
                let n = b.len().min(allowance);
                st.written.extend_from_slice(&b[..n]);
                accepted += n;
                allowance -= n;
            }
            Ok(accepted)
        }

        fn shutdown_read(&self) {}
        fn shutdown_write(&self) {}
        fn shutdown_both(&self) {}
        fn arm_write(&self) {}
    }

    fn arb_string() -> impl Strategy<Value = String> {
        proptest::string::string_regex(".{0,64}").unwrap()
    }

    fn arb_message() -> impl Strategy<Value = Message> {
        let ctx = any::<u64>().prop_map(ContextId);
        prop_oneof![
            (ctx.clone(), arb_string(), arb_string())
                .prop_map(|(ctx, key, value)| { Message::Put { ctx, key, value } }),
            (ctx.clone(), arb_string(), any::<bool>())
                .prop_map(|(ctx, key, blocking)| { Message::Get { ctx, key, blocking } }),
            ctx.prop_map(|ctx| Message::Join { ctx }),
            Just(Message::Reply(Reply::Ok)),
            (arb_string(), arb_string())
                .prop_map(|(key, value)| Message::Reply(Reply::Value { key, value })),
        ]
    }

    proptest! {
        /// ISSUE 9: frames pushed through the pooled outbox and drained
        /// by partial, gathering `writev` calls come out as the exact
        /// byte stream of their individual encodings — and that stream
        /// re-decodes to the original messages under arbitrary read
        /// chunk boundaries.
        #[test]
        fn writev_coalesced_frames_decode_byte_identically(
            msgs in proptest::collection::vec(arb_message(), 1..12),
            allowances in proptest::collection::vec(0usize..48, 0..32),
            cuts in proptest::collection::vec(1usize..17, 0..96),
        ) {
            let io = GatherIo::new(allowances.clone());
            let pool = BufferPool::new();
            let flow = Flow::new(
                io.clone(),
                ConnTuning {
                    outbox_bytes: 1 << 20,
                    write_stall: Duration::from_secs(5),
                },
            );

            let mut expected = Vec::new();
            for m in &msgs {
                let frame = encode_frame(m);
                expected.extend_from_slice(&frame);
                flow.send(pool.pooled(&frame)).unwrap();
            }
            // Flush whatever the scripted EWOULDBLOCKs left queued; the
            // exhausted script accepts everything, so this terminates.
            for _ in 0..allowances.len() + 2 {
                let (_, _, outbox_bytes) = flow.snapshot();
                if outbox_bytes == 0 {
                    break;
                }
                flow.on_ready();
            }

            let written = io.written();
            prop_assert_eq!(&written, &expected, "byte stream diverged");
            let _ = io.gathers(); // coalescing path is schedule-dependent

            // Re-decode under unrelated chunk boundaries.
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut off = 0;
            let mut cuts = cuts.into_iter();
            while off < written.len() {
                let n = cuts.next().unwrap_or(written.len()).min(written.len() - off);
                dec.feed(&written[off..off + n]);
                off += n;
                while let Some(msg) = dec.next().expect("stream is well-formed") {
                    got.push(msg);
                }
            }
            prop_assert_eq!(&got, &msgs);
            prop_assert_eq!(pool.live(), 0, "flushed frames must return to the pool");
        }
    }
}
