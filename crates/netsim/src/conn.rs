//! Connections and listeners: in-memory duplex byte pipes with blocking
//! semantics matching a TCP socket.

use bytes::{Bytes, BytesMut};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use tdp_proto::{
    check_sendable, decode_frame, encode_frame, Addr, FrameError, Message, TdpError, TdpResult,
};
use tdp_sync::{Condvar, Mutex};

/// One direction of a connection: a queue of byte chunks with a
/// delivery timestamp (for latency simulation) and an EOF flag.
pub(crate) struct Pipe {
    state: Mutex<PipeState>,
    cv: Condvar,
    /// Total bytes ever enqueued, for [`crate::NetStats`].
    pub(crate) bytes: AtomicU64,
}

struct PipeState {
    queue: VecDeque<(Instant, Bytes)>,
    closed: bool,
}

impl Pipe {
    pub(crate) fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                queue: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            bytes: AtomicU64::new(0),
        })
    }

    fn push(&self, deliver_at: Instant, chunk: Bytes) -> TdpResult<()> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(TdpError::Disconnected);
        }
        self.bytes.fetch_add(chunk.len() as u64, Ordering::Relaxed);
        st.queue.push_back((deliver_at, chunk));
        drop(st);
        self.cv.notify_all();
        Ok(())
    }

    /// Pop the next chunk, honouring its delivery time. `None` deadline
    /// blocks forever.
    fn pop(&self, deadline: Option<Instant>) -> TdpResult<Bytes> {
        let mut st = self.state.lock();
        loop {
            if let Some(&(at, _)) = st.queue.front() {
                let now = Instant::now();
                if at <= now {
                    let (_, chunk) = st.queue.pop_front().expect("front checked");
                    return Ok(chunk);
                }
                // Wait until the chunk "arrives" (latency model) or the
                // caller's deadline, whichever is sooner.
                let wake = deadline.map_or(at, |d| d.min(at));
                if self.cv.wait_until(&mut st, wake).timed_out()
                    && deadline.is_some_and(|d| d <= Instant::now())
                    && at > Instant::now()
                {
                    return Err(TdpError::Timeout);
                }
                continue;
            }
            if st.closed {
                return Err(TdpError::Disconnected);
            }
            match deadline {
                Some(d) => {
                    if self.cv.wait_until(&mut st, d).timed_out() {
                        return Err(TdpError::Timeout);
                    }
                }
                None => self.cv.wait(&mut st),
            }
        }
    }

    fn try_pop(&self) -> Option<TdpResult<Bytes>> {
        let mut st = self.state.lock();
        if let Some(&(at, _)) = st.queue.front() {
            if at <= Instant::now() {
                return Some(Ok(st.queue.pop_front().expect("front checked").1));
            }
            return None; // still "in flight"
        }
        if st.closed {
            return Some(Err(TdpError::Disconnected));
        }
        None
    }

    pub(crate) fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        drop(st);
        self.cv.notify_all();
    }

    /// Closed and fully drained: nothing more will ever arrive.
    fn at_eof(&self) -> bool {
        let st = self.state.lock();
        st.closed && st.queue.is_empty()
    }

    /// Is there a deliverable chunk queued right now?
    fn readable(&self) -> bool {
        let st = self.state.lock();
        st.queue
            .front()
            .is_some_and(|&(at, _)| at <= Instant::now())
            || st.closed
    }
}

/// One endpoint of an established connection: a send half and a
/// receive half ([`Conn::split`] hands them out) plus the addresses.
///
/// `send` is `&self` (multiple writers may share the endpoint behind an
/// `Arc`); `recv*` take `&mut self` because framed reads keep a
/// reassembly buffer. Closing either endpoint (or dropping it) delivers
/// EOF to the peer, like a TCP FIN.
pub struct Conn {
    tx: ConnTx,
    rx: ConnRx,
    local: Addr,
    peer: Addr,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Conn({} <-> {})", self.local, self.peer)
    }
}

impl Conn {
    /// Create a connected pair directly, outside any [`crate::Network`].
    /// Useful for unit tests of protocol layers.
    pub fn pair() -> (Conn, Conn) {
        Self::pair_with(
            Addr::new(tdp_proto::HostId(0), 0),
            Addr::new(tdp_proto::HostId(0), 0),
            Duration::ZERO,
        )
    }

    pub(crate) fn pair_with(a: Addr, b: Addr, latency: Duration) -> (Conn, Conn) {
        let ab = Pipe::new();
        let ba = Pipe::new();
        let end = |tx: &Arc<Pipe>, rx: &Arc<Pipe>, local, peer| Conn {
            tx: ConnTx {
                tx: tx.clone(),
                latency,
            },
            rx: ConnRx {
                rx: rx.clone(),
                read_buf: BytesMut::new(),
            },
            local,
            peer,
        };
        (end(&ab, &ba, a, b), end(&ba, &ab, b, a))
    }

    /// Both directions' pipes, for the fabric's host-kill registry.
    pub(crate) fn pipes(&self) -> [Weak<Pipe>; 2] {
        [Arc::downgrade(&self.tx.tx), Arc::downgrade(&self.rx.rx)]
    }

    /// Local address of this endpoint.
    pub fn local_addr(&self) -> Addr {
        self.local
    }

    /// Address of the peer endpoint.
    pub fn peer_addr(&self) -> Addr {
        self.peer
    }

    /// Send a chunk of bytes. Ordered, reliable, never blocks (pipes are
    /// unbounded, as justified by TDP's small control-plane messages).
    pub fn send(&self, data: &[u8]) -> TdpResult<()> {
        self.tx.send(data)
    }

    /// Send an owned chunk without copying.
    pub fn send_bytes(&self, data: Bytes) -> TdpResult<()> {
        self.tx.send_bytes(data)
    }

    /// Blocking receive of the next chunk.
    pub fn recv(&mut self) -> TdpResult<Bytes> {
        self.rx.recv()
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&mut self, timeout: Duration) -> TdpResult<Bytes> {
        self.rx.recv_timeout(timeout)
    }

    /// Non-blocking receive: `None` when nothing is deliverable yet.
    pub fn try_recv(&mut self) -> Option<TdpResult<Bytes>> {
        if !self.rx.read_buf.is_empty() {
            return Some(Ok(self.rx.read_buf.split().freeze()));
        }
        self.rx.rx.try_pop()
    }

    /// Send one framed [`Message`].
    pub fn send_msg(&self, msg: &Message) -> TdpResult<()> {
        self.tx.send_msg(msg)
    }

    /// Blocking receive of one framed [`Message`], reassembling partial
    /// chunks.
    pub fn recv_msg(&mut self) -> TdpResult<Message> {
        self.rx.recv_msg()
    }

    /// Framed receive with a timeout.
    pub fn recv_msg_timeout(&mut self, timeout: Duration) -> TdpResult<Message> {
        self.rx.recv_msg_timeout(timeout)
    }

    /// Non-blocking framed receive: `Ok(None)` when no complete message
    /// is deliverable yet.
    pub fn try_recv_msg(&mut self) -> TdpResult<Option<Message>> {
        self.rx.try_recv_msg()
    }

    /// Push bytes back to the front of the read buffer (they will be the
    /// next bytes returned by any `recv*`). Used by protocol code that
    /// over-reads past its header.
    pub fn unread(&mut self, data: &[u8]) {
        let read_buf = &mut self.rx.read_buf;
        let mut buf = BytesMut::with_capacity(data.len() + read_buf.len());
        buf.extend_from_slice(data);
        buf.extend_from_slice(read_buf);
        *read_buf = buf;
    }

    /// Is the peer gone (and no buffered data remains)?
    pub fn is_disconnected(&self) -> bool {
        self.rx.read_buf.is_empty() && self.rx.rx.at_eof()
    }

    /// True when a `recv` would not block.
    pub fn readable(&self) -> bool {
        !self.rx.read_buf.is_empty() || self.rx.rx.readable()
    }

    /// Half-close: the peer sees EOF after draining. Further sends fail.
    pub fn close(&self) {
        self.tx.close();
        self.rx.rx.close();
    }

    /// Split into independently owned send and receive halves, so two
    /// threads can pump opposite directions (as the proxy relay does).
    /// Each half closes its pipe when dropped.
    pub fn split(self) -> (ConnTx, ConnRx) {
        (self.tx, self.rx)
    }
}

/// Send half of a [`Conn`].
pub struct ConnTx {
    tx: Arc<Pipe>,
    latency: Duration,
}

impl ConnTx {
    pub fn send(&self, data: &[u8]) -> TdpResult<()> {
        self.tx
            .push(Instant::now() + self.latency, Bytes::copy_from_slice(data))
    }

    pub fn send_bytes(&self, data: Bytes) -> TdpResult<()> {
        self.tx.push(Instant::now() + self.latency, data)
    }

    /// Framed send. A message over `MAX_FRAME` is refused here, the
    /// connection untouched.
    pub fn send_msg(&self, msg: &Message) -> TdpResult<()> {
        let frame = encode_frame(msg);
        check_sendable(&frame)?;
        self.tx.push(Instant::now() + self.latency, frame)
    }

    /// Signal EOF to the peer.
    pub fn close(&self) {
        self.tx.close();
    }
}

impl Drop for ConnTx {
    fn drop(&mut self) {
        self.tx.close();
    }
}

/// Receive half of a [`Conn`].
pub struct ConnRx {
    rx: Arc<Pipe>,
    read_buf: BytesMut,
}

impl ConnRx {
    pub fn recv(&mut self) -> TdpResult<Bytes> {
        if !self.read_buf.is_empty() {
            return Ok(self.read_buf.split().freeze());
        }
        self.rx.pop(None)
    }

    pub fn recv_timeout(&mut self, timeout: Duration) -> TdpResult<Bytes> {
        if !self.read_buf.is_empty() {
            return Ok(self.read_buf.split().freeze());
        }
        self.rx.pop(Instant::now().checked_add(timeout))
    }

    pub fn recv_msg(&mut self) -> TdpResult<Message> {
        self.recv_msg_deadline(None)
    }

    /// Framed receive with a timeout; one too large for `Instant` to
    /// hold (`Duration::MAX`) is no deadline at all.
    pub fn recv_msg_timeout(&mut self, timeout: Duration) -> TdpResult<Message> {
        self.recv_msg_deadline(Instant::now().checked_add(timeout))
    }

    fn recv_msg_deadline(&mut self, deadline: Option<Instant>) -> TdpResult<Message> {
        loop {
            match decode_frame(&mut self.read_buf) {
                Ok(msg) => return Ok(msg),
                Err(FrameError::Incomplete) => {}
                Err(e) => return Err(TdpError::Protocol(e.to_string())),
            }
            let chunk = self.rx.pop(deadline)?;
            self.read_buf.extend_from_slice(&chunk);
        }
    }

    /// Non-blocking framed receive: `Ok(None)` when no complete message
    /// is deliverable yet.
    pub fn try_recv_msg(&mut self) -> TdpResult<Option<Message>> {
        loop {
            match decode_frame(&mut self.read_buf) {
                Ok(msg) => return Ok(Some(msg)),
                Err(FrameError::Incomplete) => {}
                Err(e) => return Err(TdpError::Protocol(e.to_string())),
            }
            match self.rx.try_pop() {
                Some(Ok(chunk)) => self.read_buf.extend_from_slice(&chunk),
                Some(Err(e)) => return Err(e),
                None => return Ok(None),
            }
        }
    }
}

impl Drop for ConnRx {
    fn drop(&mut self) {
        self.rx.close();
    }
}

/// A passive listener bound to `(host, port)`.
///
/// Produced by [`crate::Network::listen`]; yields one [`Conn`] per
/// accepted connection.
pub struct Listener {
    pub(crate) addr: Addr,
    pub(crate) incoming: crossbeam::channel::Receiver<Conn>,
}

impl Listener {
    /// Address this listener is bound to.
    pub fn local_addr(&self) -> Addr {
        self.addr
    }

    /// Block until the next inbound connection.
    pub fn accept(&self) -> TdpResult<Conn> {
        self.incoming.recv().map_err(|_| TdpError::Disconnected)
    }

    /// Accept with a timeout.
    pub fn accept_timeout(&self, timeout: Duration) -> TdpResult<Conn> {
        match self.incoming.recv_timeout(timeout) {
            Ok(c) => Ok(c),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(TdpError::Timeout),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(TdpError::Disconnected),
        }
    }

    /// Non-blocking accept.
    pub fn try_accept(&self) -> Option<Conn> {
        self.incoming.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_proto::ids::ContextId;

    #[test]
    fn pair_roundtrip() {
        let (a, mut b) = Conn::pair();
        a.send(b"hello").unwrap();
        assert_eq!(&b.recv().unwrap()[..], b"hello");
    }

    #[test]
    fn ordered_delivery() {
        let (a, mut b) = Conn::pair();
        for i in 0..100u8 {
            a.send(&[i]).unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 100 {
            got.extend_from_slice(&b.recv().unwrap());
        }
        assert_eq!(got, (0..100).collect::<Vec<u8>>());
    }

    #[test]
    fn eof_on_drop() {
        let (a, mut b) = Conn::pair();
        a.send(b"x").unwrap();
        drop(a);
        assert_eq!(&b.recv().unwrap()[..], b"x");
        assert_eq!(b.recv(), Err(TdpError::Disconnected));
        assert!(b.is_disconnected());
    }

    #[test]
    fn send_after_peer_close_fails() {
        let (a, b) = Conn::pair();
        b.close();
        assert_eq!(a.send(b"x"), Err(TdpError::Disconnected));
    }

    #[test]
    fn recv_timeout_fires() {
        let (_a, mut b) = Conn::pair();
        let t0 = Instant::now();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(30)),
            Err(TdpError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn try_recv_nonblocking() {
        let (a, mut b) = Conn::pair();
        assert!(b.try_recv().is_none());
        a.send(b"1").unwrap();
        assert_eq!(&b.try_recv().unwrap().unwrap()[..], b"1");
    }

    #[test]
    fn framed_messages_cross_chunk_boundaries() {
        let (a, mut b) = Conn::pair();
        let msg = Message::Put {
            ctx: ContextId(1),
            key: "pid".into(),
            value: "42".into(),
        };
        let frame = encode_frame(&msg);
        // Send the frame one byte at a time.
        for byte in frame.iter() {
            a.send(&[*byte]).unwrap();
        }
        assert_eq!(b.recv_msg().unwrap(), msg);
    }

    #[test]
    fn framed_messages_coalesced_in_one_chunk() {
        let (a, mut b) = Conn::pair();
        let m1 = Message::Join { ctx: ContextId(1) };
        let m2 = Message::Leave { ctx: ContextId(1) };
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encode_frame(&m1));
        buf.extend_from_slice(&encode_frame(&m2));
        a.send(&buf).unwrap();
        assert_eq!(b.recv_msg().unwrap(), m1);
        assert_eq!(b.recv_msg().unwrap(), m2);
    }

    #[test]
    fn cross_thread_blocking_recv() {
        let (a, mut b) = Conn::pair();
        let h = std::thread::spawn(move || b.recv().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        a.send(b"late").unwrap();
        assert_eq!(&h.join().unwrap()[..], b"late");
    }

    #[test]
    fn latency_delays_delivery() {
        let (a, mut b) = Conn::pair_with(
            Addr::new(tdp_proto::HostId(0), 1),
            Addr::new(tdp_proto::HostId(1), 2),
            Duration::from_millis(40),
        );
        let t0 = Instant::now();
        a.send(b"slow").unwrap();
        assert!(b.try_recv().is_none(), "chunk must still be in flight");
        assert_eq!(&b.recv().unwrap()[..], b"slow");
        assert!(t0.elapsed() >= Duration::from_millis(35));
    }

    #[test]
    fn readable_reflects_state() {
        let (a, mut b) = Conn::pair();
        assert!(!b.readable());
        a.send(b"x").unwrap();
        assert!(b.readable());
        b.recv().unwrap();
        assert!(!b.readable());
    }
}
