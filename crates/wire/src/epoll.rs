//! The socket transport: framed [`Message`]s over loopback TCP with no
//! per-connection threads — and no thread on the put/get path at all.
//!
//! Observable contract (the same one the netsim adapter gives):
//! `Hello` handshake carrying the dialler's logical host, streaming
//! [`FrameDecoder`] reassembly across arbitrary segment boundaries,
//! bounded-queue backpressure, fail-fast close (local sends fail at
//! once, queued frames flush, then the peer sees EOF), and byte-relay
//! proxy interop.
//!
//! A connection's two halves are owned the way their types say. The
//! send half is shared (`WireTx` is `Clone`): senders write inline under
//! the connection's [`Flow`](crate::flow::Flow) lock and the transport's
//! one `wire-reactor` thread finishes what a full socket buffer made
//! them leave behind — see [`crate::reactor`]. The receive half is
//! exclusive (`WireRx` is `&mut`, not `Clone`): [`EpollRx`] owns the
//! decoder outright, reads its own fd and parks in `poll(2)` on it,
//! taking no lock. So a process can hold thousands of sessions on one
//! wire thread ([`EpollTransport::census`]).
//!
//! Listeners keep one blocking accept thread each (see
//! [`crate::socket`]); only per-connection threads are gone.

use crate::flow::ConnTuning;
use crate::pool::BufferPool;
use crate::reactor::{ConnState, Reactor};
use crate::socket::{dial_via_proxy, spawn_real_listener, DIAL_TIMEOUT};
use crate::{
    protocol_err, Endpoint, RxApi, Transport, TxApi, WireCensus, WireConn, WireListener, WireRx,
    WireTx,
};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::Instant;
use tdp_proto::{
    encode_frame, encode_frame_into, Addr, DecodeScratch, FrameDecoder, HostId, Message, TdpError,
    TdpResult,
};
use tdp_sync::Arc;

struct EpollShared {
    tuning: ConnTuning,
    reactor: Arc<Reactor>,
    pool: Arc<BufferPool>,
}

impl Drop for EpollShared {
    fn drop(&mut self) {
        self.reactor.shutdown();
    }
}

/// Transport over real loopback TCP sockets. Cheap to clone; all clones
/// share the one reactor thread. Keep the transport alive while its
/// connections are in use — a connection outliving it can still send
/// and receive, but a backed-up outbox is no longer drained.
#[derive(Clone)]
pub struct EpollTransport {
    shared: Arc<EpollShared>,
}

impl EpollTransport {
    pub fn new() -> TdpResult<EpollTransport> {
        EpollTransport::with_tuning(ConnTuning::DEFAULT)
    }

    fn with_tuning(tuning: ConnTuning) -> TdpResult<EpollTransport> {
        Ok(EpollTransport {
            shared: Arc::new(EpollShared {
                tuning,
                reactor: Reactor::start()?,
                pool: BufferPool::new(),
            }),
        })
    }

    /// The IO thread this transport owns and the connections currently
    /// registered with it. The thread count is fixed at construction —
    /// nothing here spawns per connection.
    pub fn census(&self) -> WireCensus {
        self.shared.reactor.census()
    }

    /// Adopt an established, handshake-complete stream: register it
    /// with the reactor and wrap it as a [`WireConn`]. `leftover` holds
    /// bytes the handshake over-read past its frame.
    pub(crate) fn adopt(
        &self,
        stream: TcpStream,
        peer_host: Option<HostId>,
        leftover: FrameDecoder,
    ) -> TdpResult<WireConn> {
        let sub = |e: std::io::Error| TdpError::Substrate(format!("epoll setup: {e}"));
        stream.set_nodelay(true).map_err(sub)?;
        let local = Endpoint::Tcp(stream.local_addr().map_err(sub)?);
        let peer = Endpoint::Tcp(stream.peer_addr().map_err(sub)?);
        let (tx, rx) = self.halves(stream, leftover)?;
        Ok(WireConn::from_parts(
            WireTx::new(Arc::new(tx)),
            WireRx::new(Box::new(rx)),
            local,
            peer,
            peer_host,
        ))
    }

    fn halves(&self, stream: TcpStream, leftover: FrameDecoder) -> TdpResult<(EpollTx, EpollRx)> {
        let conn = self
            .shared
            .reactor
            .register(stream, self.shared.tuning.clone())?;
        let tx = EpollTx {
            conn: conn.clone(),
            pool: self.shared.pool.clone(),
        };
        let rx = EpollRx {
            conn,
            dec: leftover,
            scratch: DecodeScratch::new(),
            err: None,
        };
        Ok((tx, rx))
    }

    /// Finish the client side on an established stream: introduce
    /// ourselves with `Hello` (still blocking — the socket goes
    /// non-blocking when it joins the reactor), then adopt.
    fn client_over(&self, stream: TcpStream, from: HostId) -> TdpResult<WireConn> {
        stream
            .set_write_timeout(Some(self.shared.tuning.write_stall))
            .map_err(|e| TdpError::Substrate(format!("epoll set timeout: {e}")))?;
        use std::io::Write;
        (&stream)
            .write_all(&encode_frame(&Message::Hello { host: from }))
            .map_err(|_| TdpError::Disconnected)?;
        self.adopt(stream, None, FrameDecoder::new())
    }

    /// Open a reactor-managed [`WireConn`] to the logical `target`
    /// through the byte-relay proxy at `proxy` (the §2.4 crossing — see
    /// [`crate::socket::spawn_proxy`]).
    pub fn connect_via(
        &self,
        proxy: SocketAddr,
        target: Addr,
        from: HostId,
    ) -> TdpResult<WireConn> {
        let stream = dial_via_proxy(proxy, target)?;
        self.client_over(stream, from)
    }
}

impl Transport for EpollTransport {
    /// Bind a loopback listener. The logical `port` is ignored — real
    /// ports are ephemeral and callers map logical to real addresses.
    fn listen(&self, _host: HostId, _port: u16) -> TdpResult<WireListener> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| TdpError::Substrate(format!("epoll bind: {e}")))?;
        spawn_real_listener(listener, self.clone())
    }

    fn connect(&self, from: HostId, to: &Endpoint) -> TdpResult<WireConn> {
        let sa = to
            .as_tcp()
            .ok_or_else(|| TdpError::Substrate(format!("epoll transport cannot dial {to}")))?;
        let stream = TcpStream::connect_timeout(&sa, DIAL_TIMEOUT)
            .map_err(|e| TdpError::Substrate(format!("epoll connect {sa}: {e}")))?;
        self.client_over(stream, from)
    }
}

// --------------------------------------------------------- API adapters

struct EpollTx {
    conn: Arc<ConnState>,
    pool: Arc<BufferPool>,
}

impl TxApi for EpollTx {
    fn send_msg(&self, msg: &Message) -> TdpResult<()> {
        // Encode into a recycled buffer; the frame rides the outbox as a
        // `PooledBuf` and returns to the pool when fully written.
        let mut frame = self.pool.acquire();
        encode_frame_into(msg, frame.buf_mut());
        self.conn.flow.send(frame)
    }

    fn close(&self) {
        self.conn.flow.close();
    }
}

impl Drop for EpollTx {
    fn drop(&mut self) {
        self.conn.handle_dropped();
    }
}

/// The receive half: everything a read touches is owned here, behind
/// the `&mut` of the one `WireRx`. Shared with the send side are only
/// the fd and the flow's shut flag.
struct EpollRx {
    conn: Arc<ConnState>,
    /// Bytes read off the socket and not yet decoded — seeded with
    /// whatever the handshake over-read, which no `read` will return
    /// again.
    dec: FrameDecoder,
    /// Recycled-string storage: decoded string fields reuse capacity of
    /// messages the consumer handed back through `recycle_msg`.
    scratch: DecodeScratch,
    /// Terminal receive condition, reported once `dec` holds no more
    /// complete frames.
    err: Option<TdpError>,
}

impl RxApi for EpollRx {
    fn recv_msg_deadline(&mut self, deadline: Option<Instant>) -> TdpResult<Message> {
        loop {
            if let Some(msg) = self.try_recv_msg()? {
                return Ok(msg);
            }
            let timeout_ms = match deadline {
                None => -1,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(TdpError::Timeout);
                    }
                    // Round up so the final wait cannot spin at 0 ms.
                    left.as_millis().saturating_add(1).min(i32::MAX as u128) as i32
                }
            };
            // Data, EOF, an error or a local `shutdown` all report
            // ready, and so does a timeout for our purposes: the next
            // turn of the loop reads, or re-checks the deadline.
            if crate::sys::poll_readable(self.conn.stream().as_raw_fd(), timeout_ms).is_err() {
                // A failing poll cannot make progress; surface it as a
                // dead connection rather than spinning.
                self.err = Some(TdpError::Disconnected);
            }
        }
    }

    /// The next buffered frame; else whatever a non-blocking read can
    /// add to the decoder; else `None`. A terminal error is only ever
    /// recorded with the decoder dry, so frames that arrived ahead of
    /// it are delivered first, whichever side ended the stream.
    fn try_recv_msg(&mut self) -> TdpResult<Option<Message>> {
        let mut stream = self.conn.stream();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(e) = &self.err {
                return Err(e.clone());
            }
            match self.dec.next_with(&mut self.scratch) {
                Ok(Some(msg)) => return Ok(Some(msg)),
                Ok(None) => {}
                Err(e) => {
                    self.err = Some(protocol_err(e));
                    continue;
                }
            }
            if self.conn.flow.is_shut() {
                self.err = Some(TdpError::Disconnected);
                continue;
            }
            match stream.read(&mut chunk) {
                Ok(0) => self.err = Some(TdpError::Disconnected),
                Ok(n) => self.dec.feed(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => self.err = Some(TdpError::Disconnected),
            }
        }
    }

    fn recycle_msg(&mut self, msg: Message) {
        self.scratch.recycle_message(msg);
    }
}

impl Drop for EpollRx {
    fn drop(&mut self) {
        self.conn.handle_dropped();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::{spawn_proxy, ProxyResolver};
    use crate::wire_threads;
    use std::time::Duration;
    use tdp_proto::ContextId;

    fn transport() -> EpollTransport {
        EpollTransport::new().unwrap()
    }

    fn pair(t: &EpollTransport) -> (WireConn, WireConn) {
        let lis = t.listen(HostId(1), 0).unwrap();
        let client = t.connect(HostId(0), &lis.local_endpoint()).unwrap();
        let server = lis.accept().unwrap();
        lis.close();
        (client, server)
    }

    /// A raw client socket and the transport-side halves of its peer,
    /// unboxed so a test can look at the receiver's decoder.
    fn raw_pair(t: &EpollTransport, lis: &TcpListener) -> (TcpStream, EpollTx, EpollRx) {
        let client = TcpStream::connect(lis.local_addr().unwrap()).unwrap();
        let (server, _) = lis.accept().unwrap();
        let (tx, rx) = t.halves(server, FrameDecoder::new()).unwrap();
        (client, tx, rx)
    }

    fn join(i: u64) -> Message {
        Message::Join { ctx: ContextId(i) }
    }

    fn big_put() -> Message {
        Message::Put {
            ctx: ContextId(1),
            key: "k".into(),
            value: "x".repeat(8 * 1024),
        }
    }

    /// How long a parked receiver may take to notice its release.
    const RELEASE: Duration = Duration::from_secs(1);

    /// Park a thread in an *untimed* `recv_msg` on `rx` and hand back
    /// the channel its result arrives on.
    fn blocked_recv(mut rx: WireRx) -> crossbeam::channel::Receiver<TdpResult<Message>> {
        let (started_tx, started_rx) = crossbeam::channel::bounded(1);
        let (done_tx, done_rx) = crossbeam::channel::bounded(1);
        std::thread::spawn(move || {
            let _ = started_tx.send(());
            let _ = done_tx.send(rx.recv_msg());
        });
        started_rx.recv().unwrap();
        // Time to get from running to parked on the fd. A release must
        // work either way; this makes parked the case exercised.
        std::thread::park_timeout(Duration::from_millis(20));
        done_rx
    }

    fn wait_for(what: &str, within: Duration, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + within;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::park_timeout(Duration::from_millis(1));
        }
    }

    #[test]
    fn hello_establishes_peer_host() {
        let t = transport();
        let (_client, server) = pair(&t);
        assert_eq!(server.peer_host(), Some(HostId(0)));
    }

    #[test]
    fn roundtrip_both_directions() {
        let t = transport();
        let (mut client, mut server) = pair(&t);
        let m1 = Message::Join { ctx: ContextId(1) };
        let m2 = Message::Reply(tdp_proto::Reply::Ok);
        client.send_msg(&m1).unwrap();
        assert_eq!(server.recv_msg().unwrap(), m1);
        server.send_msg(&m2).unwrap();
        assert_eq!(client.recv_msg().unwrap(), m2);
    }

    #[test]
    fn many_messages_survive_streaming() {
        let t = transport();
        let (client, mut server) = pair(&t);
        for i in 0..500u64 {
            client
                .send_msg(&Message::Put {
                    ctx: ContextId(i),
                    key: format!("k{i}"),
                    value: "v".repeat((i % 97) as usize),
                })
                .unwrap();
        }
        for i in 0..500u64 {
            match server.recv_msg().unwrap() {
                Message::Put { ctx, key, .. } => {
                    assert_eq!(ctx, ContextId(i));
                    assert_eq!(key, format!("k{i}"));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn recv_timeout_fires() {
        let t = transport();
        let (_client, mut server) = pair(&t);
        let t0 = Instant::now();
        assert_eq!(
            server.recv_msg_timeout(Duration::from_millis(50)),
            Err(TdpError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn try_recv_msg_nonblocking() {
        let t = transport();
        let (client, mut server) = pair(&t);
        assert_eq!(server.try_recv_msg().unwrap(), None);
        let msg = Message::Leave { ctx: ContextId(5) };
        client.send_msg(&msg).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match server.try_recv_msg().unwrap() {
                Some(m) => {
                    assert_eq!(m, msg);
                    break;
                }
                None if Instant::now() < deadline => {
                    std::thread::park_timeout(Duration::from_millis(1))
                }
                None => panic!("message never arrived"),
            }
        }
        client.send_msg(&msg).unwrap();
        assert_eq!(server.recv_msg().unwrap(), msg);
    }

    #[test]
    fn close_fails_fast_and_peer_sees_eof() {
        let t = transport();
        let (client, mut server) = pair(&t);
        let (tx, rx) = client.split();
        for i in 0..200 {
            tx.send_msg(&join(i)).unwrap();
        }
        let done = blocked_recv(rx);
        tx.close();
        assert_eq!(tx.send_msg(&join(0)), Err(TdpError::Disconnected));
        // Every frame ahead of the close is delivered before EOF.
        for i in 0..200 {
            assert_eq!(server.recv_msg().unwrap(), join(i));
        }
        assert_eq!(
            server.recv_msg_timeout(Duration::from_secs(2)),
            Err(TdpError::Disconnected)
        );
        // The closing side's own reader, parked untimed on another
        // thread, is released too.
        assert_eq!(done.recv_timeout(RELEASE), Ok(Err(TdpError::Disconnected)));
    }

    #[test]
    fn drop_releases_connection() {
        let t = transport();
        let (client, server) = pair(&t);
        let done = blocked_recv(server.split().1);
        drop(client);
        assert_eq!(done.recv_timeout(RELEASE), Ok(Err(TdpError::Disconnected)));
    }

    #[test]
    fn listener_close_unblocks_accept() {
        let t = transport();
        let lis = t.listen(HostId(0), 0).unwrap();
        let l2 = lis.clone();
        let (ready_tx, ready_rx) = crossbeam::channel::bounded::<()>(1);
        let th = std::thread::spawn(move || {
            let _ = ready_tx.send(());
            l2.accept()
        });
        ready_rx.recv().unwrap();
        lis.close();
        assert!(th.join().unwrap().is_err());
    }

    #[test]
    fn dropped_listener_releases_its_port() {
        let t = transport();
        let lis = t.listen(HostId(0), 0).unwrap();
        let addr = lis.local_endpoint().as_tcp().unwrap();
        drop(lis);
        // The join in `close` makes this synchronous; the loop only
        // allows for the kernel tearing the socket down.
        wait_for("the old port to refuse", RELEASE, || {
            TcpStream::connect(addr).is_err()
        });
    }

    #[test]
    fn close_returns_with_the_accept_queue_full() {
        let t = transport();
        let lis = t.listen(HostId(0), 0).unwrap();
        // More unaccepted sessions than the accept queue holds (64), so
        // the accept thread is parked in `send`, not in `accept`.
        let _clients: Vec<_> = (0..70)
            .map(|_| t.connect(HostId(1), &lis.local_endpoint()).unwrap())
            .collect();
        let (done_tx, done_rx) = crossbeam::channel::bounded(1);
        std::thread::spawn(move || {
            lis.close();
            let _ = done_tx.send(());
        });
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(5)), Ok(()));
    }

    #[test]
    fn proxy_relays_with_reactor_endpoints() {
        let t = transport();
        let lis = t.listen(HostId(9), 0).unwrap();
        let real = lis.local_endpoint().as_tcp().unwrap();
        let allowed = Addr::new(HostId(9), 7777);
        let resolver: ProxyResolver = Arc::new(move |a: Addr| {
            if a == allowed {
                Ok(real)
            } else {
                Err(TdpError::BlockedByFirewall {
                    from: HostId(0),
                    to: a,
                })
            }
        });
        let proxy = spawn_proxy(resolver).unwrap();
        let client = t
            .connect_via(proxy.local_addr(), allowed, HostId(3))
            .unwrap();
        let mut server = lis.accept().unwrap();
        assert_eq!(server.peer_host(), Some(HostId(3)));
        let m = Message::Join { ctx: ContextId(4) };
        client.send_msg(&m).unwrap();
        assert_eq!(server.recv_msg().unwrap(), m);
        // The frame just crossed the relay, so its pump thread is live —
        // and, like every thread this crate spawns, named `wire-…`.
        assert!(
            wire_threads().iter().any(|n| n == "wire-proxy-pump"),
            "relay pump missing from the wire thread census: {:?}",
            wire_threads()
        );
        let err = t
            .connect_via(proxy.local_addr(), Addr::new(HostId(1), 1), HostId(3))
            .unwrap_err();
        assert!(matches!(err, TdpError::Substrate(_)), "{err}");
        proxy.shutdown();
    }

    #[test]
    fn fifty_connections_share_the_thread_budget() {
        let t = transport();
        let lis = t.listen(HostId(1), 0).unwrap();
        let ep = lis.local_endpoint();
        let mut conns = Vec::new();
        for i in 0..50u64 {
            let client = t.connect(HostId(0), &ep).unwrap();
            let mut server = lis.accept().unwrap();
            let m = Message::Join { ctx: ContextId(i) };
            client.send_msg(&m).unwrap();
            assert_eq!(server.recv_msg().unwrap(), m);
            conns.push((client, server));
        }
        // The thread budget is a constant, never a function of the
        // connection count: fifty sessions (a client and a server end
        // each) and still the one reactor thread.
        assert_eq!(
            t.census(),
            WireCensus {
                threads: 1,
                conns: 100
            }
        );
        // One reactor, not a numbered shard of several — in this
        // transport or in any sibling test's.
        assert!(wire_threads()
            .iter()
            .all(|n| !n.starts_with("wire-reactor-")));
        // Every connection still works after the census.
        for (i, (client, server)) in conns.iter_mut().enumerate() {
            let m = Message::Leave {
                ctx: ContextId(i as u64),
            };
            client.send_msg(&m).unwrap();
            assert_eq!(server.recv_msg().unwrap(), m);
        }
    }

    #[test]
    fn nothing_is_delivered_after_a_local_close() {
        use std::io::Write;
        let t = transport();
        let lis = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let (mut peer, tx, mut rx) = raw_pair(&t, &lis);
        // Back the outbox up against a peer that is not reading, so
        // `close` half-closes reads only (the write side flushes first)
        // and the socket stays ESTABLISHED: the one state in which
        // Linux still queues data arriving after `shutdown(SHUT_RD)`.
        while !tx.conn.flow.snapshot().0 {
            tx.send_msg(&big_put()).unwrap();
        }
        tx.close();
        peer.write_all(&encode_frame(&join(1))).unwrap();
        // The late frame reaches the socket (readable within the
        // second) and must still not be handed to the consumer.
        assert!(crate::sys::poll_readable(rx.conn.stream().as_raw_fd(), 1000).unwrap());
        assert_eq!(rx.try_recv_msg(), Err(TdpError::Disconnected));
        assert_eq!(
            rx.recv_msg_deadline(Some(Instant::now() + RELEASE)),
            Err(TdpError::Disconnected)
        );
    }

    #[test]
    fn an_unread_burst_waits_in_the_kernel_and_delays_nobody() {
        use std::io::Write;
        let t = transport();
        let lis = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let (mut hog_peer, _hog_tx, mut hog_rx) = raw_pair(&t, &lis);
        let (mut client, mut server) = pair(&t);

        // A burst to a connection nobody is receiving on. No thread of
        // ours reads it: it is held by the socket buffer and nothing
        // else, so the receiver's decoder stays empty.
        const BURST: u64 = 3000;
        for i in 0..BURST {
            hog_peer.write_all(&encode_frame(&join(i))).unwrap();
        }
        assert!(crate::sys::poll_readable(hog_rx.conn.stream().as_raw_fd(), 1000).unwrap());

        // A neighbour's round trip is not held up meanwhile.
        let t0 = Instant::now();
        client.send_msg(&join(7)).unwrap();
        assert_eq!(server.recv_msg_timeout(RELEASE), Ok(join(7)));
        let reply = Message::Reply(tdp_proto::Reply::Ok);
        server.send_msg(&reply).unwrap();
        assert_eq!(client.recv_msg_timeout(RELEASE), Ok(reply));
        assert!(t0.elapsed() < RELEASE, "{:?}", t0.elapsed());
        assert_eq!(hog_rx.dec.buffered(), 0, "somebody read the hog's socket");

        // Its owner asks: the whole burst arrives, in order.
        assert_eq!(hog_rx.try_recv_msg(), Ok(Some(join(0))));
        for i in 1..BURST {
            assert_eq!(
                hog_rx.recv_msg_deadline(Some(Instant::now() + RELEASE)),
                Ok(join(i))
            );
        }
        assert_eq!(hog_rx.try_recv_msg(), Ok(None));
    }

    #[test]
    fn backpressure_bounds_the_outbox() {
        // A tiny outbox against a reader that never drains: send_msg
        // must block (bounded memory) and then fail fast once the stall
        // exceeds the write budget — not wedge forever.
        let t = EpollTransport::with_tuning(ConnTuning {
            outbox_bytes: 4 * 1024,
            write_stall: Duration::from_millis(200),
        })
        .unwrap();
        let (client, _server) = pair(&t);
        let (tx, rx) = client.split();
        let done = blocked_recv(rx);
        // Fill the socket buffer plus the outbox; eventually the stall
        // trips and the connection dies instead of hanging.
        let r = (0..10_000).try_for_each(|_| tx.send_msg(&big_put()));
        assert_eq!(r, Err(TdpError::Disconnected));
        // The kill also releases the connection's own parked receiver.
        assert_eq!(done.recv_timeout(RELEASE), Ok(Err(TdpError::Disconnected)));
    }
}
