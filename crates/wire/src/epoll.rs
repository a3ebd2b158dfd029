//! The socket transport: framed [`Message`]s over loopback TCP, driven
//! by a Linux `epoll` event loop — no per-connection threads.
//!
//! Observable contract (the same one the netsim adapter gives):
//! `Hello` handshake carrying the dialler's logical host, streaming
//! [`FrameDecoder`] reassembly across arbitrary segment boundaries,
//! bounded-queue backpressure, fail-fast close (local sends fail at
//! once, queued frames flush, then the peer sees EOF), and byte-relay
//! proxy interop. *All* connections are served from a set of reactor
//! shards (each one thread with its own epoll set and eventfd;
//! connections hashed to a shard at accept/dial) — see
//! [`crate::reactor`] for the ownership rule. Receivers either camp
//! directly on their own fd or park on a condvar fed by the owning
//! shard, so a process can hold thousands of sessions with a fixed,
//! config-derived thread budget ([`EpollTransport::census`]).
//!
//! Listeners keep one blocking accept thread each (see
//! [`crate::socket`]); only per-connection threads are gone.

use crate::flow::ConnTuning;
use crate::pool::BufferPool;
use crate::reactor::{ConnState, ReactorSet};
use crate::socket::{dial_via_proxy, spawn_real_listener, DIAL_TIMEOUT};
use crate::{
    Endpoint, RxApi, Transport, TxApi, WireCensus, WireConn, WireListener, WireRx, WireTx,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};
use tdp_proto::{
    encode_frame, encode_frame_into, Addr, FrameDecoder, HostId, Message, TdpError, TdpResult,
};
use tdp_sync::Arc;

/// Inbound bound: decoded messages held per connection before `EPOLLIN`
/// is paused and TCP flow control pushes back on the peer.
const INBOX_MESSAGES: usize = 1024;

/// Tunables for the epoll transport.
#[derive(Debug, Clone)]
pub struct EpollConfig {
    /// Reactor shards. Each shard is one thread owning its own epoll
    /// set, wake eventfd, and connection table; connections are hashed
    /// to a shard at accept/dial time, so shards share no locks on the
    /// put/get path and readiness scales across cores. Defaults to
    /// `std::thread::available_parallelism()` (capped at 8).
    pub reactors: usize,
    /// How long a backpressured `send_msg` may wait on a peer that has
    /// stopped draining before the connection is killed.
    pub write_timeout: Duration,
    /// Outbound bound, in bytes. A full outbox blocks `send_msg`
    /// (backpressure).
    pub outbox_bytes: usize,
}

impl Default for EpollConfig {
    fn default() -> EpollConfig {
        EpollConfig {
            reactors: std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            write_timeout: Duration::from_secs(5),
            outbox_bytes: 256 * 1024,
        }
    }
}

struct EpollShared {
    tuning: ConnTuning,
    reactors: ReactorSet,
    pool: Arc<BufferPool>,
}

impl Drop for EpollShared {
    fn drop(&mut self) {
        self.reactors.shutdown();
    }
}

/// Transport over real loopback TCP sockets, multiplexed onto the epoll
/// reactor shards. Cheap to clone; all clones share the reactors. Keep
/// the transport alive while its connections are in use — connections
/// outliving it stop receiving readiness service.
#[derive(Clone)]
pub struct EpollTransport {
    shared: Arc<EpollShared>,
}

impl EpollTransport {
    pub fn new() -> TdpResult<EpollTransport> {
        EpollTransport::with_config(EpollConfig::default())
    }

    pub fn with_config(cfg: EpollConfig) -> TdpResult<EpollTransport> {
        Ok(EpollTransport {
            shared: Arc::new(EpollShared {
                tuning: ConnTuning {
                    inbox_messages: INBOX_MESSAGES,
                    outbox_bytes: cfg.outbox_bytes.max(1),
                    write_stall: cfg.write_timeout,
                },
                reactors: ReactorSet::start(cfg.reactors)?,
                pool: BufferPool::new(),
            }),
        })
    }

    /// The IO threads this transport owns and the connections currently
    /// registered with them. The thread count is fixed at construction —
    /// nothing here spawns per connection.
    pub fn census(&self) -> WireCensus {
        self.shared.reactors.census()
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
        let conn = self
            .shared
            .reactors
            .register(stream, leftover, self.shared.tuning.clone())?;
        Ok(WireConn::from_parts(
            WireTx::new(Arc::new(EpollTx {
                conn: conn.clone(),
                pool: self.shared.pool.clone(),
            })),
            WireRx::new(Box::new(EpollRx { conn })),
            local,
            peer,
            peer_host,
        ))
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

struct EpollRx {
    conn: Arc<ConnState>,
}

impl RxApi for EpollRx {
    fn recv_msg_deadline(&mut self, deadline: Option<Instant>) -> TdpResult<Message> {
        self.conn.flow.recv(deadline)
    }

    fn try_recv_msg(&mut self) -> TdpResult<Option<Message>> {
        self.conn.flow.try_recv()
    }

    fn recycle_msg(&mut self, msg: Message) {
        self.conn.flow.recycle(msg);
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
    use tdp_proto::ContextId;

    fn transport() -> EpollTransport {
        EpollTransport::new().unwrap()
    }

    fn sharded(reactors: usize) -> EpollTransport {
        EpollTransport::with_config(EpollConfig {
            reactors,
            ..EpollConfig::default()
        })
        .unwrap()
    }

    fn pair(t: &EpollTransport) -> (WireConn, WireConn) {
        let lis = t.listen(HostId(1), 0).unwrap();
        let client = t.connect(HostId(0), &lis.local_endpoint()).unwrap();
        let server = lis.accept().unwrap();
        lis.close();
        (client, server)
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
        let (mut client, mut server) = pair(&t);
        let m = Message::Join { ctx: ContextId(1) };
        client.send_msg(&m).unwrap();
        client.close();
        assert_eq!(client.send_msg(&m), Err(TdpError::Disconnected));
        // Queued frame flushed before EOF.
        assert_eq!(server.recv_msg().unwrap(), m);
        assert_eq!(
            server.recv_msg_timeout(Duration::from_secs(2)),
            Err(TdpError::Disconnected)
        );
        // The closing side's reader wakes too.
        assert!(client.recv_msg_timeout(Duration::from_secs(2)).is_err());
    }

    #[test]
    fn drop_releases_connection() {
        let t = transport();
        let (client, mut server) = pair(&t);
        drop(client);
        assert_eq!(
            server.recv_msg_timeout(Duration::from_secs(2)),
            Err(TdpError::Disconnected)
        );
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
        // The thread budget is a function of the config, never of the
        // connection count: fifty sessions (a client and a server end
        // each) and still one thread per shard.
        assert_eq!(
            t.census(),
            WireCensus {
                threads: EpollConfig::default().reactors,
                conns: 100
            }
        );
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
    fn sharded_reactors_route_connections_across_all_shards() {
        let t = sharded(4);
        assert_eq!(t.shared.reactors.shard_count(), 4);
        assert_eq!(t.census().threads, 4);
        let lis = t.listen(HostId(1), 0).unwrap();
        let ep = lis.local_endpoint();
        // 8 sessions = 16 registered connections → every shard (ids are
        // assigned round-robin) carries traffic.
        let mut conns = Vec::new();
        for i in 0..8u64 {
            let client = t.connect(HostId(0), &ep).unwrap();
            let server = lis.accept().unwrap();
            conns.push((i, client, server));
        }
        for (i, client, server) in &mut conns {
            let m = Message::Join { ctx: ContextId(*i) };
            client.send_msg(&m).unwrap();
            assert_eq!(server.recv_msg().unwrap(), m);
            let r = Message::Reply(tdp_proto::Reply::Ok);
            server.send_msg(&r).unwrap();
            assert_eq!(client.recv_msg().unwrap(), r);
        }
    }

    /// A raw client socket and the reactor-side state of its peer,
    /// registered on `t` with no `WireRx` attached. Nobody camps on the
    /// fd and nobody calls `try_recv` (which drains an empty inbox
    /// from the socket itself), so the shard thread is the only thing
    /// that can move a frame from the socket into the inbox.
    fn raw_pair(t: &EpollTransport, lis: &TcpListener) -> (TcpStream, Arc<ConnState>) {
        let client = TcpStream::connect(lis.local_addr().unwrap()).unwrap();
        let (server, _) = lis.accept().unwrap();
        let conn = t
            .shared
            .reactors
            .register(server, FrameDecoder::new(), t.shared.tuning.clone())
            .unwrap();
        (client, conn)
    }

    fn inbox_len(conn: &ConnState) -> usize {
        conn.flow.snapshot().0
    }

    fn paused(conn: &ConnState) -> bool {
        conn.flow.snapshot().1
    }

    fn wait_for(what: &str, within: Duration, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + within;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::park_timeout(Duration::from_millis(1));
        }
    }

    fn join(i: u64) -> Message {
        Message::Join { ctx: ContextId(i) }
    }

    #[test]
    fn one_shard_thread_delivers_a_wave() {
        use std::io::Write;
        let t = sharded(1);
        let lis = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut peers: Vec<_> = (0..64).map(|_| raw_pair(&t, &lis)).collect();
        // The wave: every connection gets a frame before anyone looks.
        for (i, (client, _)) in peers.iter_mut().enumerate() {
            client.write_all(&encode_frame(&join(i as u64))).unwrap();
        }
        wait_for("all 64 deliveries", Duration::from_secs(5), || {
            peers.iter().all(|(_, conn)| inbox_len(conn) == 1)
        });
        for (i, (_, conn)) in peers.iter().enumerate() {
            assert_eq!(conn.flow.try_recv().unwrap(), Some(join(i as u64)));
        }
        // One thread did that: the only `wire-epoll-*` names left in
        // the process are listeners' accept threads.
        assert_eq!(t.census().threads, 1);
        assert!(wire_threads()
            .iter()
            .all(|n| !n.starts_with("wire-epoll-") || n.starts_with("wire-epoll-acc")));
    }

    #[test]
    fn paused_connection_does_not_delay_its_shard_neighbour() {
        use std::io::{Read, Write};
        let t = sharded(1);
        let lis = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let (mut hog_client, hog) = raw_pair(&t, &lis);
        let (mut client, neighbour) = raw_pair(&t, &lis);

        // Drive one connection past its inbox bound and leave it
        // unread: the shard thread pauses it (`EPOLLIN` withheld) with
        // the rest of the burst still in the socket buffer.
        const BURST: u64 = 3000;
        for i in 0..BURST {
            hog_client.write_all(&encode_frame(&join(i))).unwrap();
        }
        wait_for("the hog to pause", Duration::from_secs(5), || paused(&hog));
        assert!(inbox_len(&hog) >= INBOX_MESSAGES);

        // A round trip on the neighbour, inbound half delivered by the
        // same shard thread, is not held up by the paused connection.
        let t0 = Instant::now();
        client.write_all(&encode_frame(&join(7))).unwrap();
        wait_for("the neighbour's delivery", Duration::from_secs(1), || {
            inbox_len(&neighbour) == 1
        });
        assert_eq!(neighbour.flow.try_recv().unwrap(), Some(join(7)));
        let reply = Message::Reply(tdp_proto::Reply::Ok);
        let mut frame = t.shared.pool.acquire();
        encode_frame_into(&reply, frame.buf_mut());
        neighbour.flow.send(frame).unwrap();
        let want = encode_frame(&reply);
        let mut got = vec![0u8; want.len()];
        client
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        client.read_exact(&mut got).unwrap();
        assert_eq!(got[..], want[..]);
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert!(paused(&hog), "the hog was read while its inbox was full");

        // Draining below half the bound resumes it: the shard thread
        // refills the inbox, and the whole burst arrives in order.
        let half = INBOX_MESSAGES / 2;
        let mut next = 0;
        for _ in half..inbox_len(&hog) {
            assert_eq!(hog.flow.try_recv().unwrap(), Some(join(next)));
            next += 1;
        }
        wait_for("the shard thread to refill", Duration::from_secs(5), || {
            inbox_len(&hog) > half
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while next < BURST {
            match hog.flow.try_recv().unwrap() {
                Some(m) => {
                    assert_eq!(m, join(next));
                    next += 1;
                }
                None => assert!(Instant::now() < deadline, "burst stalled at {next}"),
            }
        }
    }

    #[test]
    fn backpressure_bounds_the_outbox() {
        // A tiny outbox against a reader that never drains: send_msg
        // must block (bounded memory) and then fail fast once the stall
        // exceeds the write budget — not wedge forever.
        let t = EpollTransport::with_config(EpollConfig {
            outbox_bytes: 4 * 1024,
            write_timeout: Duration::from_millis(200),
            ..EpollConfig::default()
        })
        .unwrap();
        let lis = t.listen(HostId(1), 0).unwrap();
        let client = t.connect(HostId(0), &lis.local_endpoint()).unwrap();
        let _server = lis.accept().unwrap();
        let big = Message::Put {
            ctx: ContextId(1),
            key: "k".into(),
            value: "x".repeat(8 * 1024),
        };
        // Fill the socket buffer plus the outbox; eventually the stall
        // trips and the connection dies instead of hanging.
        let r = (0..10_000).try_for_each(|_| client.send_msg(&big));
        assert_eq!(r, Err(TdpError::Disconnected));
    }
}
