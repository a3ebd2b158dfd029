//! `tdp_sync::serve` driving each listener it runs in this workspace:
//! the simulated fabric's `Listener`, a socket `WireListener`, and the
//! relay proxy's raw `TcpListener`. One contract, three impls.

use crate::epoll::EpollTransport;
use crate::socket::TcpAccept;
use crate::{Transport, WireConn};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use tdp_netsim::{Conn, Network};
use tdp_proto::HostId;
use tdp_sync::atomic::{AtomicUsize, Ordering};
use tdp_sync::serve::{serve, Accept, Server};
use tdp_sync::Arc;

const PATIENCE: Duration = Duration::from_secs(10);

fn until(what: &str, server: &Server, cond: impl Fn(&Server) -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !cond(server) {
        assert!(
            Instant::now() < deadline,
            "{what}: live {}, spawned {}",
            server.live(),
            server.spawned()
        );
        std::thread::yield_now();
    }
}

/// The contract for one listener. `dial` opens a peer, which closes
/// when dropped; `drain` reads a served connection until its peer
/// closes; `rebind` binds the listener's port again.
fn contract<L: Accept, P>(
    listener: L,
    dial: impl Fn() -> P,
    drain: fn(L::Conn),
    rebind: impl FnOnce(),
) {
    let handled = Arc::new(AtomicUsize::new(0));
    let n = handled.clone();
    let server = serve("contract", listener, move |conn| {
        if n.fetch_add(1, Ordering::Relaxed) == 0 {
            panic!("the first session's handler panics");
        }
        drain(conn)
    })
    .unwrap();

    // The panicking session is counted, and leaves `live`.
    let first = dial();
    until("panicked session", &server, |s| {
        s.spawned() == 1 && s.live() == 0
    });
    drop(first);

    // ... and later connections are still served.
    let peers: Vec<P> = (0..3).map(|_| dial()).collect();
    until("sessions after the panic", &server, |s| {
        s.spawned() == 4 && s.live() == 3
    });
    drop(peers);
    until("peers closed", &server, |s| s.live() == 0);

    // One session at a time runs on a thread an earlier session left
    // idle: these three start none.
    for i in 1..=3 {
        drop(dial());
        until("sequential session", &server, |s| {
            handled.load(Ordering::Relaxed) == 4 + i && s.live() == 0
        });
    }

    // Nothing pending: the accept thread is parked in `accept`.
    let t0 = Instant::now();
    server.close();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "close took {took:?}");
    rebind();
    assert_eq!(server.spawned(), 4);
    assert_eq!(handled.load(Ordering::Relaxed), 7);
}

#[test]
fn serve_contract_over_every_accept_impl() {
    // The simulated fabric's listener.
    let net = Network::new();
    let (h, port) = (net.add_host(), 7100);
    let lis = net.listen(h, port).unwrap();
    let addr = lis.local_addr();
    contract(
        lis,
        || net.connect(h, addr).unwrap(),
        |mut c: Conn| while c.recv().is_ok() {},
        || drop(net.listen(h, port).unwrap()),
    );

    // A wire listener over loopback sockets.
    let t = EpollTransport::new().unwrap();
    let lis = t.listen(HostId(1), 0).unwrap();
    let ep = lis.local_endpoint();
    contract(
        lis,
        || t.connect(HostId(0), &ep).unwrap(),
        |mut c: WireConn| while c.recv_msg().is_ok() {},
        || drop(TcpListener::bind(ep.as_tcp().unwrap()).unwrap()),
    );

    // The relay proxy's raw `TcpListener`.
    let lis = TcpAccept::new(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
    let local = lis.local;
    contract(
        lis,
        || TcpStream::connect(local).unwrap(),
        |mut c: TcpStream| drop(std::io::copy(&mut c, &mut std::io::sink())),
        || drop(TcpListener::bind(local).unwrap()),
    );
}
