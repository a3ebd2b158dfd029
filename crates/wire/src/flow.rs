//! The per-connection state machine of the epoll transport, extracted
//! from the reactor so it is generic over its IO — production wires it
//! to a non-blocking `TcpStream` + `epoll_ctl` rearm
//! (`reactor::SocketIo`); the `loom_` tests wire it to a scripted
//! in-memory IO and drive every interleaving of senders, receivers,
//! and the shard thread through the exact code that ships.
//!
//! All synchronization goes through `tdp-sync`, so under
//! `RUSTFLAGS="--cfg loom"` the mutex/condvars here are loom's
//! instrumented ones. See DESIGN.md "Concurrency invariants" for the
//! lock-ordering and state-machine rules this module must uphold.

use crate::pool::PooledBuf;
use crate::protocol_err;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tdp_proto::{DecodeScratch, FrameDecoder, Message, TdpError, TdpResult};
use tdp_sync::{Condvar, Mutex};

/// Cap on slices gathered per [`FlowIo::writev`] call (mirrors
/// [`crate::sys::WRITEV_BATCH`] without depending on the FFI module).
pub(crate) const WRITEV_BATCH: usize = 64;

/// Per-connection tunables, derived from [`crate::EpollConfig`].
#[derive(Debug, Clone)]
pub(crate) struct ConnTuning {
    /// Pause `EPOLLIN` while this many decoded messages are undelivered.
    pub inbox_messages: usize,
    /// `send_msg` blocks (backpressure) while the outbox holds this many
    /// bytes.
    pub outbox_bytes: usize,
    /// How long a backpressured `send_msg` waits before declaring the
    /// peer wedged and killing the connection
    /// ([`crate::EpollConfig::write_timeout`]).
    pub write_stall: Duration,
}

/// The readiness the state machine currently wants from its IO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub read: bool,
    pub write: bool,
}

/// What [`Flow`] needs from a transport endpoint. The real
/// implementation is a non-blocking socket; the loom models script
/// results. Every method is called *with the flow lock held*, so
/// implementations must not block (beyond a non-blocking syscall) and
/// must not call back into the flow.
pub(crate) trait FlowIo {
    /// Non-blocking read; `WouldBlock` when nothing is buffered.
    fn read(&self, buf: &mut [u8]) -> std::io::Result<usize>;
    /// Non-blocking write; `WouldBlock` when the send buffer is full.
    fn write(&self, buf: &[u8]) -> std::io::Result<usize>;
    /// Non-blocking vectored write: push several frames in one syscall.
    /// Returns bytes accepted (possibly a partial gather). The default
    /// degenerates to a plain write of the first non-empty slice, so
    /// scripted test IOs keep their one-write-per-step semantics.
    fn writev(&self, bufs: &[&[u8]]) -> std::io::Result<usize> {
        for b in bufs {
            if !b.is_empty() {
                return self.write(b);
            }
        }
        Ok(0)
    }
    /// Half-close the receive side (local reads fail fast).
    fn shutdown_read(&self);
    /// Half-close the send side (peer sees EOF).
    fn shutdown_write(&self);
    /// Tear down both directions (wedged-peer kill path).
    fn shutdown_both(&self);
    /// Re-register readiness interest. Only called with a non-empty
    /// set; an empty interest leaves the registration disarmed until a
    /// state change rearms it.
    fn rearm(&self, interest: Interest);
    /// Whether a blocked receiver may take over the read side and wait
    /// on the endpoint directly ([`FlowIo::wait_readable`]) instead of
    /// parking on the reactor-fed condvar. `false` for scripted IOs.
    fn supports_direct_read(&self) -> bool {
        false
    }
    /// Block until the endpoint is readable (data, EOF, or error) or
    /// `timeout_ms` elapses (`< 0` = forever); returns whether it was
    /// reported ready. Unlike every other method, this is called
    /// *without* the flow lock — it parks the calling thread. Only
    /// called when [`FlowIo::supports_direct_read`] returns true.
    fn wait_readable(&self, timeout_ms: i32) -> std::io::Result<bool> {
        let _ = timeout_ms;
        Ok(true)
    }
}

pub(crate) struct Flow<IO> {
    io: IO,
    tuning: ConnTuning,
    inner: Mutex<FlowInner>,
    rx_cv: Condvar,
    tx_cv: Condvar,
}

struct FlowInner {
    // Receive side.
    dec: FrameDecoder,
    inbox: VecDeque<Message>,
    /// Recycled-string storage: decoded string fields reuse capacity of
    /// messages the consumer handed back through [`Flow::recycle`].
    scratch: DecodeScratch,
    /// Terminal receive condition, reported once the inbox drains.
    rx_err: Option<TdpError>,
    read_open: bool,
    /// Read interest withheld because the inbox is at its bound.
    paused: bool,
    /// A consumer blocked in `recv` owns the read side: it waits on the
    /// endpoint itself and drains in place, so readiness handlers must
    /// neither read nor arm read interest (a reactor-side drain here
    /// would strand the consumer in its endpoint wait — a lost wakeup).
    direct_reader: bool,
    // Send side.
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
    /// Wrap an established endpoint. Frames the handshake over-read
    /// (already sitting in `dec`) are pumped into the inbox here —
    /// readiness will never re-report those bytes.
    pub fn new(io: IO, tuning: ConnTuning, dec: FrameDecoder) -> Flow<IO> {
        let flow = Flow {
            io,
            tuning,
            inner: Mutex::new(FlowInner {
                dec,
                inbox: VecDeque::new(),
                scratch: DecodeScratch::new(),
                rx_err: None,
                read_open: true,
                paused: false,
                direct_reader: false,
                outbox: VecDeque::new(),
                outbox_bytes: 0,
                head_off: 0,
                want_write: false,
                flush_then_shutdown: false,
                closed: false,
            }),
            rx_cv: Condvar::new(),
            tx_cv: Condvar::new(),
        };
        {
            let mut inner = flow.inner.lock();
            flow.pump_decoder(&mut inner);
        }
        flow
    }

    pub fn io(&self) -> &IO {
        &self.io
    }

    pub fn tuning(&self) -> &ConnTuning {
        &self.tuning
    }

    // ---- interest -----------------------------------------------------

    fn interest(inner: &FlowInner) -> Interest {
        Interest {
            // No read interest while a direct reader camps on the
            // endpoint: it sees readability itself, and a racing
            // reactor drain would strand it.
            read: inner.read_open && !inner.paused && !inner.direct_reader,
            write: inner.want_write,
        }
    }

    /// Rearm the (oneshot) registration to the current interest set.
    fn rearm(&self, inner: &FlowInner) {
        let interest = Self::interest(inner);
        if !interest.read && !interest.write {
            return; // stay disarmed; a state change will rearm
        }
        self.io.rearm(interest);
    }

    // ---- event handling (the shard thread) ----------------------------

    /// One readiness report. Error/hangup conditions map to both flags:
    /// the drains will surface the failure through the IO result.
    pub fn on_ready(&self, readable: bool, writable: bool) {
        let mut inner = self.inner.lock();
        if readable && inner.read_open && !inner.direct_reader {
            self.drain_read(&mut inner);
        }
        if writable && (inner.want_write || inner.flush_then_shutdown) {
            self.drain_write(&mut inner);
        }
        self.rearm(&inner);
    }

    /// Read until `EWOULDBLOCK`, EOF, error, or the inbox bound.
    fn drain_read(&self, inner: &mut FlowInner) {
        let mut chunk = [0u8; 16 * 1024];
        let mut delivered = false;
        loop {
            if inner.inbox.len() >= self.tuning.inbox_messages {
                inner.paused = true; // consumer will unpause + rearm
                break;
            }
            match self.io.read(&mut chunk) {
                Ok(0) => {
                    inner.read_open = false;
                    inner.rx_err.get_or_insert(TdpError::Disconnected);
                    break;
                }
                Ok(n) => {
                    inner.dec.feed(&chunk[..n]);
                    if self.pump_decoder(inner) {
                        delivered = true;
                    }
                    if !inner.read_open {
                        break; // decoder hit a malformed frame
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Hard socket error kills both directions.
                    inner.read_open = false;
                    inner.rx_err.get_or_insert(TdpError::Disconnected);
                    inner.closed = true;
                    self.tx_cv.notify_all();
                    break;
                }
            }
        }
        if delivered || inner.rx_err.is_some() {
            self.rx_cv.notify_all();
        }
    }

    /// Move complete frames out of the decoder into the inbox. Returns
    /// whether anything was delivered.
    fn pump_decoder(&self, inner: &mut FlowInner) -> bool {
        let mut delivered = false;
        loop {
            let FlowInner { dec, scratch, .. } = inner;
            match dec.next_with(scratch) {
                Ok(Some(msg)) => {
                    inner.inbox.push_back(msg);
                    delivered = true;
                }
                Ok(None) => break,
                Err(e) => {
                    inner.read_open = false;
                    inner.rx_err.get_or_insert(protocol_err(e));
                    break;
                }
            }
        }
        delivered
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
                    inner.read_open = false;
                    inner.rx_err.get_or_insert(TdpError::Disconnected);
                    crate::record_stall_kill();
                    self.io.shutdown_both();
                    self.rx_cv.notify_all();
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
                self.rearm(&inner);
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
        // Local reads fail fast (after already-decoded frames drain),
        // matching netsim's `Conn::close`, which severs both directions.
        inner.read_open = false;
        inner.rx_err.get_or_insert(TdpError::Disconnected);
        self.io.shutdown_read();
        if inner.outbox.is_empty() {
            self.io.shutdown_write();
        } else {
            // Queued frames flush first, then the peer sees EOF.
            inner.flush_then_shutdown = true;
            if !inner.want_write {
                self.drain_write(&mut inner);
                if inner.want_write {
                    self.rearm(&inner);
                }
            }
        }
        self.rx_cv.notify_all();
        self.tx_cv.notify_all();
    }

    // ---- receive path -------------------------------------------------

    pub fn recv(&self, deadline: Option<Instant>) -> TdpResult<Message> {
        let mut inner = self.inner.lock();
        if self.io.supports_direct_read() && !inner.direct_reader {
            return self.recv_direct(inner, deadline);
        }
        loop {
            if let Some(msg) = self.pop_inbox(&mut inner) {
                return Ok(msg);
            }
            if let Some(e) = inner.rx_err.clone() {
                return Err(e);
            }
            match deadline {
                None => self.rx_cv.wait(&mut inner),
                Some(d) => {
                    if self.rx_cv.wait_until(&mut inner, d).timed_out() {
                        return Err(TdpError::Timeout);
                    }
                }
            }
        }
    }

    /// Blocking receive that owns the read side: instead of parking on
    /// the condvar and paying a reactor wakeup plus a cross-thread
    /// handoff per message, the consumer waits on the endpoint itself
    /// (`poll(2)` on the production socket) and drains under the flow
    /// lock. While `direct_reader` is set, readiness handlers skip the
    /// read half entirely and the interest mask excludes reads — the
    /// registration stays read-disarmed between camps, so a
    /// request/reply loop never wakes the reactor at all. Data arriving
    /// while nobody is receiving simply waits in the socket buffer
    /// (TCP's window still backpressures the peer) until the next
    /// `recv`/`try_recv` drains it.
    fn recv_direct<'a>(
        &'a self,
        mut inner: tdp_sync::MutexGuard<'a, FlowInner>,
        deadline: Option<Instant>,
    ) -> TdpResult<Message> {
        inner.direct_reader = true;
        let res = loop {
            if inner.read_open {
                self.drain_read(&mut inner);
            }
            if let Some(msg) = self.pop_inbox(&mut inner) {
                break Ok(msg);
            }
            if let Some(e) = inner.rx_err.clone() {
                break Err(e);
            }
            let timeout_ms = match deadline {
                None => -1,
                Some(d) => {
                    let now = Instant::now();
                    if d <= now {
                        break Err(TdpError::Timeout);
                    }
                    // Round up so the final wait cannot spin at 0 ms.
                    d.duration_since(now)
                        .as_millis()
                        .saturating_add(1)
                        .min(i32::MAX as u128) as i32
                }
            };
            drop(inner);
            let ready = self.io.wait_readable(timeout_ms);
            inner = self.inner.lock();
            match ready {
                // Ready (or spurious): loop drains and re-checks.
                Ok(true) => {}
                // Timeout: loop re-checks the deadline (and anything a
                // concurrent close delivered meanwhile).
                Ok(false) => {}
                Err(_) => {
                    // A failing poll cannot make progress; surface it
                    // as a dead connection rather than spinning.
                    inner.read_open = false;
                    inner.rx_err.get_or_insert(TdpError::Disconnected);
                }
            }
        };
        inner.direct_reader = false;
        res
    }

    pub fn try_recv(&self) -> TdpResult<Option<Message>> {
        let mut inner = self.inner.lock();
        // With the registration read-disarmed between direct-read
        // camps, arrived-but-unread bytes sit in the socket buffer; a
        // non-blocking probe drains them here.
        if inner.inbox.is_empty()
            && inner.read_open
            && !inner.direct_reader
            && self.io.supports_direct_read()
        {
            self.drain_read(&mut inner);
        }
        if let Some(msg) = self.pop_inbox(&mut inner) {
            return Ok(Some(msg));
        }
        match inner.rx_err.clone() {
            Some(e) => Err(e),
            None => Ok(None),
        }
    }

    /// Hand a finished message's string capacity back for future
    /// decodes (the zero-alloc receive loop's other half).
    pub fn recycle(&self, msg: Message) {
        self.inner.lock().scratch.recycle_message(msg);
    }

    fn pop_inbox(&self, inner: &mut FlowInner) -> Option<Message> {
        let msg = inner.inbox.pop_front()?;
        if inner.paused && inner.read_open && inner.inbox.len() * 2 <= self.tuning.inbox_messages {
            inner.paused = false;
            self.rearm(inner);
        }
        Some(msg)
    }

    // ---- lifecycle ----------------------------------------------------

    /// First half of tearing the connection down: quiesce the state
    /// machine (stale readiness reports and senders become no-ops) and
    /// hand any unflushed outbox back to the caller, which flushes it
    /// synchronously *outside* the flow lock. Quiescing before the
    /// owner flips the socket to blocking mode is load-bearing: the
    /// shard thread holding a stale readiness event must find
    /// `read_open == false` here rather than enter `drain_read` on a
    /// now-blocking socket and wedge the whole shard.
    pub fn begin_release(&self) -> Option<FlushPlan> {
        let mut inner = self.inner.lock();
        let flush = !inner.outbox.is_empty() && (!inner.closed || inner.flush_then_shutdown);
        inner.closed = true;
        inner.read_open = false;
        inner.paused = false;
        inner.want_write = false;
        inner.rx_err.get_or_insert(TdpError::Disconnected);
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

    /// Test-only visibility into the state machine (loom assertions).
    #[cfg(test)]
    pub fn snapshot(&self) -> (usize, bool, bool, bool, usize) {
        let inner = self.inner.lock();
        (
            inner.inbox.len(),
            inner.paused,
            inner.want_write,
            inner.closed,
            inner.outbox_bytes,
        )
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::pool::BufferPool;
    use proptest::prelude::*;
    use std::sync::Mutex as StdMutex;
    use tdp_proto::{encode_frame, ContextId, Reply};
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
        fn read(&self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::WouldBlock.into())
        }

        fn write(&self, buf: &[u8]) -> std::io::Result<usize> {
            self.writev(&[buf])
        }

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
        fn rearm(&self, _interest: Interest) {}
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
                    inbox_messages: 64,
                    outbox_bytes: 1 << 20,
                    write_stall: Duration::from_secs(5),
                },
                FrameDecoder::new(),
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
                let (_, _, _, _, outbox_bytes) = flow.snapshot();
                if outbox_bytes == 0 {
                    break;
                }
                flow.on_ready(false, true);
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
