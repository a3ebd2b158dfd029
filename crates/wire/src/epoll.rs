//! The socket transport: framed [`Message`]s over loopback TCP with no
//! thread of its own per connection or per transport — every send and
//! every receive is done by the thread that asked for it, on the
//! connection's own fd.
//!
//! Observable contract (the same one the netsim adapter gives):
//! `Hello` handshake carrying the dialler's logical host, streaming
//! [`FrameDecoder`] reassembly across arbitrary segment boundaries,
//! bounded-queue backpressure (the kernel's socket buffer is the queue;
//! a peer that stops reading for 5 s is killed), fail-fast close (local
//! sends and reads fail at once, every frame already sent arrives, then
//! the peer sees EOF), and byte-relay proxy interop.
//!
//! A connection's two halves are owned the way their types say. The
//! send half is shared (`WireTx` is `Clone`): senders take turns under
//! the connection's [`Flow`](crate::flow::Flow) and each writes its own
//! frame to the socket, parking in `poll(2)` if the buffer is full. The
//! receive half is exclusive (`WireRx` is `&mut`, not `Clone`):
//! [`EpollRx`] owns the decoder outright and receives from its own fd
//! straight into the decoder's buffer, taking no lock. So a process can
//! hold thousands of sessions and the wire layer adds no thread to it
//! ([`EpollTransport::conns`]).
//!
//! The socket stays in *blocking* mode; not waiting is a property of a
//! call (`MSG_DONTWAIT`), not of the fd. A receiver with no deadline
//! therefore parks in the `recv` itself — one syscall per parked
//! receive — one with a deadline does `poll(remaining)` then a
//! non-waiting `recv`, and every `send` is non-waiting (a full buffer
//! is waited out in `poll`, under the stall budget). `close` and the
//! stall-kill release whoever is parked with `shutdown(2)`.
//!
//! Listeners keep one blocking accept thread each (see
//! [`crate::socket`]); those are the only threads this transport
//! spawns.

use crate::flow::{Flow, WRITE_STALL};
use crate::socket::{
    dial_via_proxy, spawn_real_listener, write_all_stall, DIAL_TIMEOUT, HANDSHAKE_TIMEOUT,
};
use crate::{
    protocol_err, Endpoint, RxApi, Transport, TxApi, WireConn, WireListener, WireRx, WireTx,
};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};
use tdp_proto::{
    encode_frame, Addr, DecodeScratch, FrameDecoder, HostId, Message, TdpError, TdpResult,
};
use tdp_sync::atomic::{AtomicUsize, Ordering};
use tdp_sync::Arc;

/// Transport over real loopback TCP sockets. Cheap to clone; clones
/// share nothing but the connection count. The name is historical: no
/// epoll set is left behind it (the rename rides with the `benchmark`
/// issue, since `tdpbench` links this type).
#[derive(Clone)]
pub struct EpollTransport {
    stall: Duration,
    conns: Arc<AtomicUsize>,
}

impl EpollTransport {
    pub fn new() -> TdpResult<EpollTransport> {
        Ok(EpollTransport::with_stall(WRITE_STALL))
    }

    /// A transport whose sends give a stalled peer `stall` instead of
    /// [`WRITE_STALL`] — for the stall tests, which cannot wait 5 s.
    fn with_stall(stall: Duration) -> EpollTransport {
        EpollTransport {
            stall,
            conns: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Connections of this transport that are currently open (either
    /// half still held). Per transport, so concurrent worlds never see
    /// each other.
    pub fn conns(&self) -> usize {
        self.conns.load(Ordering::Relaxed)
    }

    /// Wrap an established stream as a [`WireConn`]. The socket stays
    /// in blocking mode, so it must carry no timeout of its own: a
    /// leftover `SO_RCVTIMEO` (the proxy dial arms one) would wake a
    /// parked receiver for nothing every time it ran out. Both are left
    /// cleared here, whoever armed them.
    fn adopt(&self, stream: TcpStream) -> TdpResult<WireConn> {
        let sub = |e: std::io::Error| TdpError::Substrate(format!("epoll setup: {e}"));
        stream.set_nodelay(true).map_err(sub)?;
        stream.set_read_timeout(None).map_err(sub)?;
        stream.set_write_timeout(None).map_err(sub)?;
        let local = Endpoint::Tcp(stream.local_addr().map_err(sub)?);
        let peer = Endpoint::Tcp(stream.peer_addr().map_err(sub)?);
        let (tx, rx) = self.halves(stream);
        Ok(WireConn::from_parts(
            WireTx::new(Arc::new(tx)),
            WireRx::new(Box::new(rx)),
            local,
            peer,
            None,
        ))
    }

    fn halves(&self, stream: TcpStream) -> (EpollTx, EpollRx) {
        self.conns.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(ConnState {
            flow: Flow::new(stream, self.stall),
            conns: self.conns.clone(),
        });
        let tx = EpollTx { conn: conn.clone() };
        let rx = EpollRx {
            conn,
            dec: FrameDecoder::new(),
            scratch: DecodeScratch::new(),
            err: None,
        };
        (tx, rx)
    }

    /// Finish the client side on an established stream: introduce
    /// ourselves with `Hello` — TCP carries no logical host identity —
    /// then adopt.
    fn client_over(&self, stream: TcpStream, from: HostId) -> TdpResult<WireConn> {
        let hello = encode_frame(&Message::Hello { host: from });
        write_all_stall(&stream, &hello, self.stall).map_err(|_| TdpError::Disconnected)?;
        self.adopt(stream)
    }

    /// Finish the accept side: adopt, then take the dialler's `Hello`
    /// off the connection's own receive half and record `peer_host` for
    /// the LASS locality rule. Frames the client pipelined behind its
    /// `Hello` stay in the decoder for the session.
    ///
    /// [`HANDSHAKE_TIMEOUT`] bounds the whole handshake, not each
    /// `recv`: the accept thread is serial, so a client that trickles a
    /// byte at a time must not hold it past the one deadline.
    pub(crate) fn accept_over(&self, stream: TcpStream) -> TdpResult<WireConn> {
        let mut conn = self.adopt(stream)?;
        match conn.recv_msg_timeout(HANDSHAKE_TIMEOUT)? {
            Message::Hello { host } => conn.peer_host = Some(host),
            other => return Err(TdpError::Protocol(format!("expected Hello, got {other:?}"))),
        }
        Ok(conn)
    }

    /// Open a [`WireConn`] to the logical `target` through the
    /// byte-relay proxy at `proxy` (the §2.4 crossing — see
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

/// What a connection's two halves share: the socket under its send
/// turn. Dropping the last half drops this, which closes the socket —
/// every frame a `send` returned `Ok` for is already in the kernel, so
/// the peer reads them all and then EOF.
struct ConnState {
    flow: Flow<TcpStream>,
    /// The owning transport's open-connection count.
    conns: Arc<AtomicUsize>,
}

impl ConnState {
    /// The socket, for the receive half to read and park on.
    fn stream(&self) -> &TcpStream {
        self.flow.io()
    }
}

impl Drop for ConnState {
    fn drop(&mut self) {
        self.conns.fetch_sub(1, Ordering::Relaxed);
    }
}

// --------------------------------------------------------- API adapters

struct EpollTx {
    conn: Arc<ConnState>,
}

impl TxApi for EpollTx {
    fn send_msg(&self, msg: &Message) -> TdpResult<()> {
        self.conn.flow.send(msg)
    }

    fn close(&self) {
        self.conn.flow.close();
    }
}

/// The receive half: everything a receive touches is owned here, behind
/// the `&mut` of the one `WireRx`. Shared with the send side are only
/// the fd and the flow's shut flag.
struct EpollRx {
    conn: Arc<ConnState>,
    /// Bytes received and not yet decoded; `recv` lands in its buffer.
    dec: FrameDecoder,
    /// Recycled-string storage: decoded string fields reuse capacity of
    /// messages the consumer handed back through `recycle_msg`.
    scratch: DecodeScratch,
    /// Terminal receive condition, reported once `dec` holds no more
    /// complete frames.
    err: Option<TdpError>,
}

impl EpollRx {
    /// The next frame the decoder already holds, `None` if it needs
    /// more bytes, or the terminal error. That is only ever recorded
    /// with the decoder dry, so frames that arrived ahead of it are
    /// delivered first, whichever side ended the stream.
    fn buffered_msg(&mut self) -> TdpResult<Option<Message>> {
        if let Some(e) = &self.err {
            return Err(e.clone());
        }
        let err = match self.dec.next_with(&mut self.scratch) {
            Ok(Some(msg)) => return Ok(Some(msg)),
            Ok(None) if !self.conn.flow.is_shut() => return Ok(None),
            Ok(None) => TdpError::Disconnected,
            Err(e) => protocol_err(e),
        };
        self.err = Some(err.clone());
        Err(err)
    }

    /// One `recv` into the decoder's own buffer, parked in the call if
    /// `park`. False when nothing had arrived (only without `park`, or
    /// after a wake-up that brought nothing); EOF and errors are
    /// recorded for [`EpollRx::buffered_msg`] to report.
    fn fill(&mut self, park: bool) -> bool {
        let fd = self.conn.stream().as_raw_fd();
        let res = self.dec.read_with(|room| {
            if park {
                crate::sys::recv_blocking(fd, room)
            } else {
                crate::sys::recv_dontwait(fd, room)
            }
        });
        match res {
            Ok(0) => self.err = Some(TdpError::Disconnected),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(_) => self.err = Some(TdpError::Disconnected),
        }
        true
    }
}

impl RxApi for EpollRx {
    fn recv_msg_deadline(&mut self, deadline: Option<Instant>) -> TdpResult<Message> {
        loop {
            if let Some(msg) = self.buffered_msg()? {
                return Ok(msg);
            }
            let Some(deadline) = deadline else {
                // Data, EOF, an error and a local `shutdown` all end
                // the `recv`; the next turn of the loop reports which.
                self.fill(true);
                continue;
            };
            let left = deadline.saturating_duration_since(Instant::now());
            if !left.is_zero() {
                let fd = self.conn.stream().as_raw_fd();
                match crate::sys::poll_readable(fd, crate::sys::poll_timeout_ms(left)) {
                    Ok(true) => {}
                    Ok(false) => continue,
                    // A failing poll cannot make progress; surface it
                    // as a dead connection rather than spinning.
                    Err(_) => {
                        self.err = Some(TdpError::Disconnected);
                        continue;
                    }
                }
            }
            // An expired deadline still looks once: what has already
            // arrived is delivered, and only then `Timeout`.
            if !self.fill(false) && left.is_zero() {
                return Err(TdpError::Timeout);
            }
        }
    }

    fn try_recv_msg(&mut self) -> TdpResult<Option<Message>> {
        loop {
            if let Some(msg) = self.buffered_msg()? {
                return Ok(Some(msg));
            }
            if !self.fill(false) {
                return Ok(None);
            }
        }
    }

    fn recycle_msg(&mut self, msg: Message) {
        self.scratch.recycle_message(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::{spawn_proxy, ProxyResolver};
    use crate::{stall_kill_count, wire_threads};
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
        let (tx, rx) = t.halves(server);
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
    fn blocked_recv(mut rx: WireRx) -> tdp_sync::channel::Receiver<TdpResult<Message>> {
        let (started_tx, started_rx) = tdp_sync::channel::bounded(1);
        let (done_tx, done_rx) = tdp_sync::channel::bounded(1);
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
        // The socket is in blocking mode; this call still must not park.
        let t0 = Instant::now();
        assert_eq!(server.try_recv_msg().unwrap(), None);
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(50), "{took:?}");
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
        let (ready_tx, ready_rx) = tdp_sync::channel::bounded::<()>(1);
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
        let (done_tx, done_rx) = tdp_sync::channel::bounded(1);
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
    fn a_parked_receiver_outlasts_every_setup_timeout() {
        let t = transport();
        let lis = t.listen(HostId(9), 0).unwrap();
        let real = lis.local_endpoint().as_tcp().unwrap();
        let proxy = spawn_proxy(Arc::new(move |_| Ok(real))).unwrap();
        let dialled = t.connect(HostId(0), &lis.local_endpoint()).unwrap();
        let accepted = lis.accept().unwrap();
        let relayed = t
            .connect_via(proxy.local_addr(), Addr::new(HostId(9), 1), HostId(3))
            .unwrap();
        let relay_peer = lis.accept().unwrap();

        // One receiver per way a connection comes to be, each parked
        // untimed for longer than any timeout its set-up armed (the
        // handshake's, the proxy dial's): none of them returns before
        // its frame, and each then gets it.
        let (dialled_tx, dialled_rx) = dialled.split();
        let (accepted_tx, accepted_rx) = accepted.split();
        let (_relayed_tx, relayed_rx) = relayed.split();
        let parked = [accepted_rx, dialled_rx, relayed_rx].map(blocked_recv);
        std::thread::sleep(HANDSHAKE_TIMEOUT.max(DIAL_TIMEOUT) + Duration::from_millis(300));
        for (i, done) in parked.iter().enumerate() {
            assert!(done.is_empty(), "receiver {i} returned with no frame sent");
        }
        for tx in [&dialled_tx, &accepted_tx, &relay_peer.sender()] {
            tx.send_msg(&join(7)).unwrap();
        }
        for done in &parked {
            assert_eq!(done.recv_timeout(RELEASE), Ok(Ok(join(7))));
        }
        proxy.shutdown();
    }

    #[test]
    fn adoption_clears_leftover_socket_timeouts() {
        let t = transport();
        let lis = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let _client = TcpStream::connect(lis.local_addr().unwrap()).unwrap();
        let (server, _) = lis.accept().unwrap();
        server.set_read_timeout(Some(DIAL_TIMEOUT)).unwrap();
        server.set_write_timeout(Some(DIAL_TIMEOUT)).unwrap();
        // Socket options belong to the socket, not the descriptor.
        let probe = server.try_clone().unwrap();
        let _conn = t.adopt(server).unwrap();
        assert_eq!(probe.read_timeout().unwrap(), None);
        assert_eq!(probe.write_timeout().unwrap(), None);
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
        // Fifty sessions are a hundred connections (a client and a
        // server end each) and no wire thread: every send and receive
        // above ran on this one. No transport in this process — this
        // one or a sibling test's — has a reactor.
        assert_eq!(t.conns(), 100);
        assert!(wire_threads()
            .iter()
            .all(|n| !n.starts_with("wire-reactor")));
        // Every connection still works after the count.
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
        // Leave frames of ours unread in the peer's socket, so the
        // close's FIN queues behind data and the late frame below meets
        // a connection that is shut down locally but not yet gone.
        // Linux queues data arriving after `shutdown(SHUT_RD)` in some
        // states and resets in others; the flag makes both the same.
        for _ in 0..16 {
            tx.send_msg(&big_put()).unwrap();
        }
        tx.close();
        peer.write_all(&encode_frame(&join(1))).unwrap();
        // The socket reads as ready (shut down, late frame or reset)
        // and nothing is handed to the consumer.
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

    /// Send 8 KiB puts until one fails; how many were accepted, and
    /// the error that ended it.
    fn send_until_err(tx: &EpollTx) -> (usize, TdpError) {
        let mut sent = 0;
        loop {
            match tx.send_msg(&big_put()) {
                Ok(()) => sent += 1,
                Err(e) => return (sent, e),
            }
        }
    }

    /// Park a thread in `send_msg` on `tx`, whose peer never reads:
    /// returns once the socket is full, with the channel the sender's
    /// eventual result arrives on.
    fn parked_sender(tx: &Arc<EpollTx>) -> tdp_sync::channel::Receiver<(usize, TdpError)> {
        let (done_tx, done_rx) = tdp_sync::channel::bounded(1);
        let sender = tx.clone();
        std::thread::spawn(move || {
            let _ = done_tx.send(send_until_err(&sender));
        });
        let fd = tx.conn.stream().as_raw_fd();
        wait_for("the socket to fill", Duration::from_secs(10), || {
            !crate::sys::poll_writable(fd, 0).unwrap()
        });
        // From full to parked on it — as in `blocked_recv`.
        std::thread::park_timeout(Duration::from_millis(20));
        assert!(done_rx.is_empty(), "the sender gave up before any close");
        done_rx
    }

    #[test]
    fn a_peer_that_never_reads_is_killed_after_the_stall_budget() {
        let stall = Duration::from_millis(200);
        let t = EpollTransport::with_stall(stall);
        let lis = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let (_peer, tx, rx) = raw_pair(&t, &lis);
        let done = blocked_recv(WireRx::new(Box::new(rx)));
        let kills = stall_kill_count();
        // The kernel's socket buffer is the queue: it takes a good deal
        // (how much is the host's business), then `send_msg` blocks —
        // bounded memory — and fails once the stall budget is spent.
        let (sent, err) = send_until_err(&tx);
        assert!(sent > 16, "only {sent} frames fit the socket buffers");
        assert_eq!(err, TdpError::Disconnected);
        assert!(stall_kill_count() > kills);
        // Dead for good, without another wait.
        let t0 = Instant::now();
        assert_eq!(tx.send_msg(&join(0)), Err(TdpError::Disconnected));
        assert!(t0.elapsed() < stall, "{:?}", t0.elapsed());
        // The kill also releases the connection's own parked receiver.
        assert_eq!(done.recv_timeout(RELEASE), Ok(Err(TdpError::Disconnected)));
    }

    #[test]
    fn close_returns_at_once_behind_a_parked_sender_and_releases_it() {
        let t = EpollTransport::with_stall(Duration::from_secs(30));
        let lis = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let (_peer, tx, _rx) = raw_pair(&t, &lis);
        let tx = Arc::new(tx);
        let done = parked_sender(&tx);
        let t0 = Instant::now();
        tx.close();
        assert!(t0.elapsed() < RELEASE, "close waited for the send turn");
        let (_, err) = done.recv_timeout(RELEASE).expect("sender still parked");
        assert_eq!(err, TdpError::Disconnected);
        assert!(t0.elapsed() < RELEASE, "{:?}", t0.elapsed());
    }

    #[test]
    fn a_sender_parked_on_a_stalled_peer_delays_no_neighbour() {
        let t = EpollTransport::with_stall(Duration::from_secs(30));
        let lis = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let (_stalled_peer, stalled_tx, _stalled_rx) = raw_pair(&t, &lis);
        let stalled_tx = Arc::new(stalled_tx);
        let (mut client, mut server) = pair(&t);
        let done = parked_sender(&stalled_tx);

        // The sentence the outbox was kept for, as a test: one tool has
        // stopped reading and a thread is parked sending to it; a
        // round trip on another connection of the same transport does
        // not notice.
        let t0 = Instant::now();
        client.send_msg(&join(7)).unwrap();
        assert_eq!(server.recv_msg_timeout(RELEASE), Ok(join(7)));
        let reply = Message::Reply(tdp_proto::Reply::Ok);
        server.send_msg(&reply).unwrap();
        assert_eq!(client.recv_msg_timeout(RELEASE), Ok(reply));
        assert!(t0.elapsed() < RELEASE, "{:?}", t0.elapsed());
        assert!(done.is_empty(), "the stalled sender is still parked");

        stalled_tx.close();
        assert!(done.recv_timeout(RELEASE).is_ok());
    }

    #[test]
    fn concurrent_senders_frames_arrive_whole_and_in_sender_order() {
        // Four senders share one connection; the big frames overrun the
        // socket buffer while the receiver is busy, so sends are cut
        // into partial writes with other senders waiting for the turn.
        const SIZES: [usize; 4] = [3, 900, 40_000, 17];
        const FRAMES: u64 = 300;
        let t = transport();
        let (client, mut server) = pair(&t);
        let senders: Vec<_> = SIZES
            .iter()
            .enumerate()
            .map(|(who, &size)| {
                let tx = client.sender();
                std::thread::spawn(move || {
                    for seq in 0..FRAMES {
                        tx.send_msg(&Message::Put {
                            ctx: ContextId(who as u64),
                            key: seq.to_string(),
                            value: "v".repeat(size),
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        let mut next = [0u64; 4];
        for _ in 0..FRAMES * 4 {
            match server.recv_msg_timeout(Duration::from_secs(10)).unwrap() {
                Message::Put { ctx, key, value } => {
                    let who = ctx.0 as usize;
                    assert_eq!(key, next[who].to_string(), "sender {who} out of order");
                    assert!(value.len() == SIZES[who] && value.bytes().all(|b| b == b'v'));
                    next[who] += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(next, [FRAMES; 4]);
        for s in senders {
            s.join().unwrap();
        }
        assert_eq!(server.try_recv_msg(), Ok(None));
    }
}
