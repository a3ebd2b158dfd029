//! The byte-relay proxy of §2.4.
//!
//! "Process managers, such as Condor and Globus, provide proxy mechanisms
//! to forward their connections in and out of a private network. TDP
//! provides a standard interface to these mechanisms. … If the private
//! networks block such connections, then the host/port number will be
//! that of the RM's proxy, which will be responsible for establishing the
//! connection and forwarding inbound and outbound messages."
//!
//! The wire protocol is a one-line CONNECT header (`CONNECT host:port\n`)
//! answered with `OK\n` or `ERR <reason>\n`, followed by transparent
//! bidirectional byte relaying. The proxy connects upstream *from its own
//! host*, so it crosses a firewall on whatever routes its host has been
//! authorized for — TDP adds no new permissions.

use crate::conn::Conn;
use crate::network::Network;
use std::thread;
use tdp_proto::{Addr, HostId, TdpError, TdpResult};
use tdp_sync::serve::{serve, Server};

/// Running proxy server. Dropping the handle (or calling
/// [`ProxyServer::shutdown`]) stops accepting new connections; in-flight
/// relays drain and finish.
pub struct ProxyServer {
    addr: Addr,
    _server: Server,
}

impl ProxyServer {
    /// Address clients should connect to.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Stop accepting new connections.
    pub fn shutdown(self) {}
}

/// Spawn a relay proxy on `(host, port)` (0 = ephemeral).
pub fn spawn(net: &Network, host: HostId, port: u16) -> TdpResult<ProxyServer> {
    let listener = net.listen(host, port)?;
    let addr = listener.local_addr();
    let net = net.clone();
    let server = serve("sim-proxy", listener, move |client| {
        relay_session(&net, host, client)
    })
    .map_err(|e| TdpError::Substrate(format!("spawn proxy: {e}")))?;
    Ok(ProxyServer {
        addr,
        _server: server,
    })
}

/// Handle one client: read the CONNECT header, dial upstream from the
/// proxy's host, then pump bytes both ways until either side closes.
fn relay_session(net: &Network, proxy_host: HostId, mut client: Conn) {
    let header = match read_line(&mut client) {
        Ok(h) => h,
        Err(_) => return,
    };
    let target = match parse_connect(&header) {
        Some(t) => t,
        None => {
            let _ = client.send(b"ERR bad connect header\n");
            return;
        }
    };
    let upstream = match net.connect(proxy_host, target) {
        Ok(c) => c,
        Err(e) => {
            let _ = client.send(format!("ERR {e}\n").as_bytes());
            return;
        }
    };
    if client.send(b"OK\n").is_err() {
        return;
    }
    let (ctx, crx) = client.split();
    let (utx, urx) = upstream.split();
    let pump_up = thread::Builder::new()
        .name("netsim-proxy-pump".into())
        .spawn(move || pump(crx, utx))
        .expect("spawn proxy pump");
    pump(urx, ctx);
    let _ = pump_up.join();
}

fn pump(mut from: crate::conn::ConnRx, to: crate::conn::ConnTx) {
    while let Ok(chunk) = from.recv() {
        if to.send_bytes(chunk).is_err() {
            break;
        }
    }
    to.close();
}

fn read_line(conn: &mut Conn) -> TdpResult<String> {
    let mut line = Vec::new();
    loop {
        let chunk = conn.recv()?;
        // Headers are short; any bytes past the newline belong to the
        // relayed stream and must not be lost.
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&chunk[..pos]);
            let rest = &chunk[pos + 1..];
            if !rest.is_empty() {
                conn.unread(rest);
            }
            return String::from_utf8(line)
                .map_err(|_| TdpError::Protocol("non-utf8 header".into()));
        }
        line.extend_from_slice(&chunk);
        if line.len() > 256 {
            return Err(TdpError::Protocol("connect header too long".into()));
        }
    }
}

fn parse_connect(line: &str) -> Option<Addr> {
    let rest = line.strip_prefix("CONNECT ")?;
    Addr::parse(rest.trim())
}

/// Client side: open a connection to `target` via the proxy at `proxy`.
/// Returns a [`Conn`] that behaves exactly like a direct connection.
pub fn connect_via(net: &Network, from: HostId, proxy: Addr, target: Addr) -> TdpResult<Conn> {
    let mut conn = net.connect(from, proxy)?;
    conn.send(format!("CONNECT {}\n", target.to_attr_value()).as_bytes())?;
    let reply = read_line(&mut conn)?;
    if reply == "OK" {
        Ok(conn)
    } else if let Some(e) = reply.strip_prefix("ERR ") {
        Err(TdpError::Substrate(format!("proxy: {e}")))
    } else {
        Err(TdpError::Protocol(format!("bad proxy reply: {reply:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::FirewallPolicy;
    use std::time::Duration;

    /// Front-end outside, execution host inside a strict firewall; only
    /// the proxy's host has an authorized route out — the Figure 1 shape.
    fn firewalled_world() -> (Network, HostId, HostId, HostId) {
        let net = Network::new();
        let fe = net.add_host(); // front-end (public)
        let zone = net.add_private_zone(FirewallPolicy::STRICT);
        let exec = net.add_host_in(zone); // execution host
        let gw = net.add_host_in(zone); // gateway host running the RM proxy
        (net, fe, exec, gw)
    }

    #[test]
    fn relay_end_to_end() {
        let (net, fe, exec, gw) = firewalled_world();
        // Front-end listener the tool daemon must reach.
        let fe_listener = net.listen(fe, 2090).unwrap();
        let fe_addr = Addr::new(fe, 2090);
        // Direct connection is blocked by the firewall...
        assert!(net.connect(exec, fe_addr).is_err());
        // ...but the gateway has a pre-existing authorized route.
        net.authorize_route(gw, fe_addr);
        let proxy = spawn(&net, gw, 9618).unwrap();
        let mut c = connect_via(&net, exec, proxy.addr(), fe_addr).unwrap();
        let mut s = fe_listener.accept().unwrap();
        c.send(b"paradynd->frontend").unwrap();
        assert_eq!(&s.recv().unwrap()[..], b"paradynd->frontend");
        s.send(b"frontend->paradynd").unwrap();
        assert_eq!(&c.recv().unwrap()[..], b"frontend->paradynd");
    }

    #[test]
    fn relay_is_bidirectional_and_ordered() {
        let (net, fe, exec, gw) = firewalled_world();
        let fe_listener = net.listen(fe, 2090).unwrap();
        let fe_addr = Addr::new(fe, 2090);
        net.authorize_route(gw, fe_addr);
        let proxy = spawn(&net, gw, 0).unwrap();
        let mut c = connect_via(&net, exec, proxy.addr(), fe_addr).unwrap();
        let mut s = fe_listener.accept().unwrap();
        for i in 0..50u8 {
            c.send(&[i]).unwrap();
            s.send(&[100 + i]).unwrap();
        }
        let mut from_c = Vec::new();
        while from_c.len() < 50 {
            from_c.extend_from_slice(&s.recv().unwrap());
        }
        assert_eq!(from_c, (0..50).collect::<Vec<u8>>());
        let mut from_s = Vec::new();
        while from_s.len() < 50 {
            from_s.extend_from_slice(&c.recv().unwrap());
        }
        assert_eq!(from_s, (100..150).collect::<Vec<u8>>());
    }

    #[test]
    fn proxy_reports_unreachable_target() {
        let (net, fe, exec, gw) = firewalled_world();
        let target = Addr::new(fe, 4444); // nothing listening
        net.authorize_route(gw, target);
        let proxy = spawn(&net, gw, 0).unwrap();
        let err = connect_via(&net, exec, proxy.addr(), target).unwrap_err();
        assert!(matches!(err, TdpError::Substrate(_)), "{err}");
    }

    #[test]
    fn proxy_without_route_cannot_cross() {
        let (net, fe, exec, gw) = firewalled_world();
        let _l = net.listen(fe, 2090).unwrap();
        let proxy = spawn(&net, gw, 0).unwrap();
        // No authorize_route for gw: the proxy itself is firewalled.
        let err = connect_via(&net, exec, proxy.addr(), Addr::new(fe, 2090)).unwrap_err();
        assert!(matches!(err, TdpError::Substrate(_)));
    }

    #[test]
    fn eof_propagates_through_relay() {
        let (net, fe, exec, gw) = firewalled_world();
        let fe_listener = net.listen(fe, 2090).unwrap();
        let fe_addr = Addr::new(fe, 2090);
        net.authorize_route(gw, fe_addr);
        let proxy = spawn(&net, gw, 0).unwrap();
        let c = connect_via(&net, exec, proxy.addr(), fe_addr).unwrap();
        let mut s = fe_listener.accept().unwrap();
        c.send(b"bye").unwrap();
        drop(c);
        assert_eq!(&s.recv().unwrap()[..], b"bye");
        assert_eq!(
            s.recv_timeout(Duration::from_secs(2)),
            Err(TdpError::Disconnected)
        );
    }

    #[test]
    fn data_sent_with_header_is_not_lost() {
        // A client may coalesce the CONNECT header and first payload
        // bytes into one chunk; the proxy must forward the payload.
        let (net, fe, exec, gw) = firewalled_world();
        let fe_listener = net.listen(fe, 2090).unwrap();
        let fe_addr = Addr::new(fe, 2090);
        net.authorize_route(gw, fe_addr);
        let proxy = spawn(&net, gw, 0).unwrap();
        let mut raw = net.connect(exec, proxy.addr()).unwrap();
        raw.send(format!("CONNECT {}\nEARLY", fe_addr.to_attr_value()).as_bytes())
            .unwrap();
        let ok = raw.recv().unwrap();
        assert!(ok.starts_with(b"OK\n"));
        let mut s = fe_listener.accept().unwrap();
        assert_eq!(
            &s.recv_timeout(Duration::from_secs(2)).unwrap()[..],
            b"EARLY"
        );
    }

    #[test]
    fn bad_header_rejected() {
        let (net, _fe, exec, gw) = firewalled_world();
        let proxy = spawn(&net, gw, 0).unwrap();
        let mut raw = net.connect(exec, proxy.addr()).unwrap();
        raw.send(b"HELLO?\n").unwrap();
        let reply = raw.recv().unwrap();
        assert!(reply.starts_with(b"ERR"));
    }

    #[test]
    fn shutdown_stops_accepting() {
        let (net, _fe, exec, gw) = firewalled_world();
        let proxy = spawn(&net, gw, 9618).unwrap();
        let addr = proxy.addr();
        proxy.shutdown();
        assert!(net.connect(exec, addr).is_err());
    }
}
