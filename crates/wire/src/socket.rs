//! Loopback-socket plumbing under the socket transport — everything
//! that touches a `TcpStream` *before* the transport adopts it, the one
//! write loop an adopted stream is sent through, plus the byte-relay
//! proxy that never frames a message at all:
//!
//! * **Listener** — one blocking accept thread per listener feeding a
//!   bounded channel; it hands each stream to
//!   [`EpollTransport::accept_over`], which runs the `Hello` handshake
//!   inline. Accept rates are tiny and a serial handshake keeps
//!   connection establishment ordered.
//! * **[`write_all_stall`]** — the tree's one non-blocking write path:
//!   a wire connection's send turn (`flow.rs`) and the gateway's HTTP
//!   sessions both call it, each with its own stall budget.
//! * **[`TcpAccept`]** — a `TcpListener` that `serve` can drive and
//!   close: the relay proxy's and the gateway's listener.
//! * **Relay proxy** — the §2.4 firewall crossing: a one-line
//!   `CONNECT host:port\n` exchange, then two byte pumps.

use crate::epoll::EpollTransport;
use crate::{Endpoint, ListenerApi, WireConn, WireListener};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::thread;
use std::time::{Duration, Instant};
use tdp_proto::{Addr, TdpError, TdpResult};
use tdp_sync::atomic::{AtomicBool, Ordering};
use tdp_sync::channel::{bounded, Receiver};
use tdp_sync::serve::{serve, Accept, Server};
use tdp_sync::Arc;

/// Bound on a loopback dial and on each line of the proxy `CONNECT`
/// exchange.
pub(crate) const DIAL_TIMEOUT: Duration = Duration::from_secs(2);
/// How long the accept side waits for the `Hello` frame.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Write all of `data` to `stream`, by the calling thread, never
/// parking in the `send` itself — each one is `MSG_DONTWAIT`, so the
/// socket's own mode does not matter. When the socket buffer is full, park
/// in `poll(2)` until the peer makes room — for `stall` in total across
/// the call, after which the peer counts as stalled and the call fails
/// [`ErrorKind::TimedOut`] with part of `data` possibly written. Any
/// other error is the socket's own (`EPIPE`, reset, a local `shutdown`).
pub fn write_all_stall(stream: &TcpStream, mut data: &[u8], stall: Duration) -> io::Result<()> {
    let fd = stream.as_raw_fd();
    let mut stalled_since = None;
    while !data.is_empty() {
        match crate::sys::send_dontwait(fd, data) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => data = &data[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let since = *stalled_since.get_or_insert_with(Instant::now);
                let left = stall.saturating_sub(since.elapsed());
                let ms = crate::sys::poll_timeout_ms(left);
                if left.is_zero() || !crate::sys::poll_writable(fd, ms)? {
                    return Err(ErrorKind::TimedOut.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A bound loopback listener: a blocking accept thread feeding a
/// bounded channel.
pub(crate) struct RealListener {
    tcp: Arc<TcpAccept>,
    incoming: Receiver<WireConn>,
    thread: tdp_sync::Mutex<Option<thread::JoinHandle<()>>>,
}

impl ListenerApi for RealListener {
    fn accept(&self) -> TdpResult<WireConn> {
        self.incoming.recv().map_err(|_| TdpError::Disconnected)
    }

    fn local_endpoint(&self) -> Endpoint {
        Endpoint::Tcp(self.tcp.local)
    }

    fn close(&self) {
        self.tcp.close();
        // The accept thread may be parked in `send` on a full queue; it
        // sends at most once more now `closed` is set, so emptying the
        // queue here is enough for the join below to return.
        while self.incoming.try_recv().is_ok() {}
        if let Some(h) = self.thread.lock().take() {
            let _ = h.join();
        }
    }
}

/// A listener dropped without `close()` would otherwise leave its accept
/// thread parked in `accept` for the life of the process, holding the
/// bound socket.
impl Drop for RealListener {
    fn drop(&mut self) {
        self.close();
    }
}

/// Spawn the accept thread for a bound listener and wrap it as a
/// [`WireListener`]. Each accepted stream is adopted and handshaken by
/// `transport` inline on the accept thread.
pub(crate) fn spawn_real_listener(
    listener: TcpListener,
    transport: EpollTransport,
) -> TdpResult<WireListener> {
    let tcp = Arc::new(TcpAccept::new(listener)?);
    let (tx, rx) = bounded::<WireConn>(64);
    let t2 = tcp.clone();
    let thread = thread::Builder::new()
        .name(format!("wire-epoll-accept-{}", tcp.local))
        .spawn(move || {
            while let Some(stream) = t2.accept() {
                // A client whose handshake fails is dropped.
                if let Ok(conn) = transport.accept_over(stream) {
                    if tx.send(conn).is_err() {
                        break;
                    }
                }
            }
        })
        .map_err(|e| TdpError::Substrate(format!("spawn accept thread: {e}")))?;
    Ok(WireListener::new(Arc::new(RealListener {
        tcp,
        incoming: rx,
        thread: tdp_sync::Mutex::new(Some(thread)),
    })))
}

/// A `TcpListener` that can be closed. `std`'s `accept` cannot be
/// interrupted, so `close` raises a flag and wakes it with a throwaway
/// self-connection.
pub struct TcpAccept {
    listener: TcpListener,
    pub(crate) local: SocketAddr,
    closed: AtomicBool,
}

impl TcpAccept {
    pub fn new(listener: TcpListener) -> TdpResult<TcpAccept> {
        let local = listener
            .local_addr()
            .map_err(|e| TdpError::Substrate(format!("listener local_addr: {e}")))?;
        Ok(TcpAccept {
            listener,
            local,
            closed: AtomicBool::new(false),
        })
    }
}

impl Accept for TcpAccept {
    type Conn = TcpStream;

    fn accept(&self) -> Option<TcpStream> {
        let (stream, _) = self.listener.accept().ok()?;
        (!self.closed.load(Ordering::Acquire)).then_some(stream)
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect_timeout(&self.local, Duration::from_millis(500));
        }
    }
}

// ---------------------------------------------------------------- proxy

/// Resolves a *logical* target address (as named in a CONNECT header) to
/// the real socket address to dial — and decides whether the crossing is
/// permitted at all. `tdp-core` supplies a closure that consults the
/// simulated topology's firewall rules plus its logical→real map.
pub type ProxyResolver = Arc<dyn Fn(Addr) -> TdpResult<SocketAddr> + Send + Sync>;

/// A running byte-relay proxy over real TCP — the §2.4 mechanism, same
/// one-line `CONNECT host:port\n` protocol as the netsim relay, so a
/// client can reach a logical address its own routes do not permit.
pub struct TcpProxy {
    local: SocketAddr,
    _server: Server,
}

impl TcpProxy {
    /// Real loopback address clients dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Stop accepting; the same as dropping it.
    pub fn shutdown(self) {}
}

/// Spawn a relay proxy on an ephemeral loopback port.
pub fn spawn_proxy(resolver: ProxyResolver) -> TdpResult<TcpProxy> {
    let listener = TcpListener::bind(("127.0.0.1", 0))
        .map_err(|e| TdpError::Substrate(format!("proxy bind: {e}")))?;
    let listener = TcpAccept::new(listener)?;
    let local = listener.local;
    let server = serve("wire-proxy", listener, move |client| {
        relay_session(client, resolver.clone())
    })
    .map_err(|e| TdpError::Substrate(format!("spawn proxy thread: {e}")))?;
    Ok(TcpProxy {
        local,
        _server: server,
    })
}

fn relay_session(mut client: TcpStream, resolver: ProxyResolver) {
    let _ = client.set_read_timeout(Some(DIAL_TIMEOUT));
    let header = match read_header_line(&mut client) {
        Ok(h) => h,
        Err(_) => return,
    };
    let target = match header.strip_prefix("CONNECT ").and_then(Addr::parse) {
        Some(t) => t,
        None => {
            let _ = client.write_all(b"ERR bad connect header\n");
            return;
        }
    };
    let upstream = match resolver(target).and_then(|sa| {
        TcpStream::connect_timeout(&sa, DIAL_TIMEOUT)
            .map_err(|e| TdpError::Substrate(format!("dial {sa}: {e}")))
    }) {
        Ok(s) => s,
        Err(e) => {
            let _ = client.write_all(format!("ERR {e}\n").as_bytes());
            return;
        }
    };
    let _ = client.set_read_timeout(None);
    if client.write_all(b"OK\n").is_err() {
        return;
    }
    let (Ok(c2), Ok(u2)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    let up = thread::Builder::new()
        .name("wire-proxy-pump".into())
        .spawn(move || pump(client, upstream))
        .expect("spawn proxy pump");
    pump(u2, c2);
    let _ = up.join();
}

/// Copy one direction until EOF or error, then propagate the close.
fn pump(mut from: TcpStream, mut to: TcpStream) {
    let _ = std::io::copy(&mut from, &mut to);
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}

/// Read a `\n`-terminated header, byte at a time (headers are tiny and
/// this never over-reads into the relayed stream).
fn read_header_line(stream: &mut TcpStream) -> TdpResult<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return Err(TdpError::Disconnected),
            Ok(_) => {
                if byte[0] == b'\n' {
                    return String::from_utf8(line)
                        .map_err(|_| TdpError::Protocol("non-utf8 header".into()));
                }
                line.push(byte[0]);
                if line.len() > 256 {
                    return Err(TdpError::Protocol("connect header too long".into()));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(TdpError::Timeout),
        }
    }
}

/// Dial the logical `target` through the relay proxy at `proxy` and run
/// the `CONNECT` exchange, returning the established raw stream (ready
/// for the dialler's `Hello`).
pub(crate) fn dial_via_proxy(proxy: SocketAddr, target: Addr) -> TdpResult<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&proxy, DIAL_TIMEOUT)
        .map_err(|e| TdpError::Substrate(format!("tcp connect {proxy}: {e}")))?;
    stream
        .set_read_timeout(Some(DIAL_TIMEOUT))
        .map_err(|e| TdpError::Substrate(format!("tcp set timeout: {e}")))?;
    stream
        .write_all(format!("CONNECT {}\n", target.to_attr_value()).as_bytes())
        .map_err(|_| TdpError::Disconnected)?;
    let reply = read_header_line(&mut stream)?;
    if reply == "OK" {
        stream
            .set_read_timeout(None)
            .map_err(|e| TdpError::Substrate(format!("tcp set timeout: {e}")))?;
        Ok(stream)
    } else if let Some(e) = reply.strip_prefix("ERR ") {
        Err(TdpError::Substrate(format!("proxy: {e}")))
    } else {
        Err(TdpError::Protocol(format!("bad proxy reply: {reply:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transport;
    use tdp_proto::HostId;

    /// A connected pair whose first end is non-blocking and full: the
    /// second has read none of the bytes (their count is returned) that
    /// it took to reach `EWOULDBLOCK`.
    fn full_socket() -> (TcpStream, TcpStream, usize) {
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        let block = [0u8; 64 * 1024];
        let mut filled = 0;
        while let Ok(n) = (&a).write(&block) {
            filled += n;
        }
        (a, b, filled)
    }

    #[test]
    fn write_all_stall_times_out_on_a_full_socket() {
        // Whatever the socket's mode: on a blocking socket the wait
        // must still be the bounded `poll`, never the `send`.
        for nonblocking in [true, false] {
            let (a, _b, _) = full_socket();
            a.set_nonblocking(nonblocking).unwrap();
            let stall = Duration::from_millis(200);
            let t0 = Instant::now();
            let err = write_all_stall(&a, &[1u8; 1024], stall).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::TimedOut);
            assert!(t0.elapsed() >= stall, "{:?}", t0.elapsed());
            assert!(t0.elapsed() < stall + Duration::from_secs(1));
        }
    }

    #[test]
    fn write_all_stall_completes_when_the_peer_drains_mid_wait() {
        let (a, mut b, filled) = full_socket();
        let payload: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
        let want = payload.clone();
        let drain = thread::spawn(move || {
            // Time for the writer to get from called to parked; it must
            // complete either way, this makes parked the case exercised.
            thread::park_timeout(Duration::from_millis(50));
            let mut got = vec![0u8; filled + want.len()];
            b.read_exact(&mut got).unwrap();
            assert!(got[filled..] == want[..], "payload torn or reordered");
        });
        write_all_stall(&a, &payload, Duration::from_secs(10)).unwrap();
        drain.join().unwrap();
    }

    #[test]
    fn trickled_hello_cannot_hold_the_accept_thread() {
        let t = EpollTransport::new().unwrap();
        let lis = t.listen(HostId(1), 0).unwrap();
        let ep = lis.local_endpoint();

        // First in the accept queue: a client that announces a 1 MiB
        // frame and then feeds it a byte at a time, each well inside
        // the per-read timeout the handshake used to apply.
        let mut trickler = TcpStream::connect(ep.as_tcp().unwrap()).unwrap();
        trickler.write_all(&(1u32 << 20).to_be_bytes()).unwrap();
        let budget = HANDSHAKE_TIMEOUT + Duration::from_secs(1);
        let trickle = thread::spawn(move || {
            let t0 = Instant::now();
            while t0.elapsed() < budget + Duration::from_secs(1) {
                if trickler.write_all(&[0]).is_err() {
                    return true; // the server hung up on us
                }
                thread::sleep(Duration::from_millis(50));
            }
            false
        });

        // Behind it: a well-behaved client. Its accept must not wait
        // for the trickler's frame, only for the one handshake deadline.
        let _client = t.connect(HostId(0), &ep).unwrap();
        let (done_tx, done_rx) = bounded(1);
        let l2 = lis.clone();
        let accept = thread::spawn(move || {
            let _ = done_tx.send(l2.accept().map(|c| c.peer_host()));
        });
        let accepted = done_rx.recv_timeout(budget);
        let dropped = trickle.join().unwrap();
        lis.close();
        accept.join().unwrap();
        assert_eq!(accepted, Ok(Ok(Some(HostId(0)))));
        assert!(dropped, "the trickling client was never dropped");
    }
}
