//! The netsim backend: adapts `tdp-netsim`'s in-memory connections to
//! the [`crate::Transport`] abstraction.

use crate::{
    Endpoint, ListenerApi, RxApi, Transport, TxApi, WireConn, WireListener, WireRx, WireTx,
};
use std::time::Instant;
use tdp_netsim::{Conn, ConnRx, ConnTx, Listener, Network};
use tdp_proto::{Addr, HostId, Message, TdpError, TdpResult};
use tdp_sync::atomic::{AtomicBool, Ordering};
use tdp_sync::Arc;

/// Transport over the simulated fabric.
#[derive(Clone)]
pub struct SimTransport {
    net: Network,
}

impl SimTransport {
    pub fn new(net: Network) -> SimTransport {
        SimTransport { net }
    }

    pub fn network(&self) -> &Network {
        &self.net
    }
}

impl Transport for SimTransport {
    fn listen(&self, host: HostId, port: u16) -> TdpResult<WireListener> {
        Ok(wrap_listener(
            self.net.clone(),
            self.net.listen(host, port)?,
        ))
    }

    fn connect(&self, from: HostId, to: &Endpoint) -> TdpResult<WireConn> {
        let addr = to
            .as_sim()
            .ok_or_else(|| TdpError::Substrate(format!("sim transport cannot dial {to}")))?;
        Ok(wrap_conn(self.net.connect(from, addr)?))
    }
}

/// Wrap an established netsim connection (e.g. one returned by the
/// relay proxy) as a [`WireConn`].
pub fn wrap_conn(conn: Conn) -> WireConn {
    let local = Endpoint::Sim(conn.local_addr());
    let peer = Endpoint::Sim(conn.peer_addr());
    let peer_host = Some(conn.peer_addr().host);
    let (tx, rx) = conn.split();
    WireConn::from_parts(
        WireTx::new(Arc::new(SimTx { tx })),
        WireRx::new(Box::new(SimRx { rx })),
        local,
        peer,
        peer_host,
    )
}

/// Wrap a bound netsim listener as a [`WireListener`]. The `Network`
/// handle is kept so `close` can release the port.
pub fn wrap_listener(net: Network, listener: Listener) -> WireListener {
    let addr = listener.local_addr();
    WireListener::new(Arc::new(SimListener {
        net,
        listener: tdp_sync::Mutex::new(listener),
        addr,
        closed: AtomicBool::new(false),
    }))
}

struct SimTx {
    tx: ConnTx,
}

impl TxApi for SimTx {
    fn send_msg(&self, msg: &Message) -> TdpResult<()> {
        self.tx.send_msg(msg)
    }

    fn close(&self) {
        self.tx.close();
    }
}

struct SimRx {
    rx: ConnRx,
}

impl RxApi for SimRx {
    fn recv_msg_deadline(&mut self, deadline: Option<Instant>) -> TdpResult<Message> {
        match deadline {
            None => self.rx.recv_msg(),
            // Saturating: an expired deadline still lets `pop` hand
            // over a frame that is already deliverable.
            Some(d) => self
                .rx
                .recv_msg_timeout(d.saturating_duration_since(Instant::now())),
        }
    }

    fn try_recv_msg(&mut self) -> TdpResult<Option<Message>> {
        self.rx.try_recv_msg()
    }
}

struct SimListener {
    net: Network,
    listener: tdp_sync::Mutex<Listener>,
    addr: Addr,
    /// Unbind once: by the time a closed listener is dropped, the port
    /// may belong to its successor.
    closed: AtomicBool,
}

impl ListenerApi for SimListener {
    fn accept(&self) -> TdpResult<WireConn> {
        // netsim's accept blocks on a channel; holding the lock for the
        // duration is fine because wire listeners have a single accept
        // loop (matching `std::net::TcpListener` usage).
        let conn = self.listener.lock().accept()?;
        Ok(wrap_conn(conn))
    }

    fn local_endpoint(&self) -> Endpoint {
        Endpoint::Sim(self.addr)
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            // Unbinding drops the fabric-side sender; the blocked accept
            // wakes with `Disconnected`.
            self.net.unbind(self.addr);
        }
    }
}

/// Same contract as the socket listener: dropping the last handle
/// releases the port.
impl Drop for SimListener {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_proto::ContextId;

    #[test]
    fn sim_roundtrip_over_wire_api() {
        let net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let t = SimTransport::new(net);
        let lis = t.listen(b, 7000).unwrap();
        let client = t.connect(a, &Endpoint::Sim(Addr::new(b, 7000))).unwrap();
        let mut server = lis.accept().unwrap();
        assert_eq!(server.peer_host(), Some(a));
        let msg = Message::Join { ctx: ContextId(9) };
        client.send_msg(&msg).unwrap();
        assert_eq!(server.recv_msg().unwrap(), msg);
    }

    #[test]
    fn close_unblocks_accept() {
        let net = Network::new();
        let h = net.add_host();
        let t = SimTransport::new(net);
        let lis = t.listen(h, 7001).unwrap();
        let l2 = lis.clone();
        // Synchronize on the acceptor running instead of sleeping; close
        // must win whether it lands before or after the accept call.
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
        let net = Network::new();
        let h = net.add_host();
        let t = SimTransport::new(net);
        drop(t.listen(h, 7002).unwrap());
        let successor = t.listen(h, 7002).unwrap();
        // A closed listener's drop must not unbind whoever holds the
        // port by then.
        let closed = t.listen(h, 7003).unwrap();
        closed.close();
        let heir = t.listen(h, 7003).unwrap();
        drop(closed);
        for lis in [successor, heir] {
            let _client = t.connect(h, &lis.local_endpoint()).unwrap();
            lis.accept().unwrap();
        }
    }

    #[test]
    fn try_recv_msg_nonblocking() {
        let (a, b) = Conn::pair();
        let mut wa = wrap_conn(a);
        let wb = wrap_conn(b);
        assert_eq!(wa.try_recv_msg().unwrap(), None);
        let msg = Message::Leave { ctx: ContextId(2) };
        wb.send_msg(&msg).unwrap();
        assert_eq!(wa.try_recv_msg().unwrap(), Some(msg));
    }
}
