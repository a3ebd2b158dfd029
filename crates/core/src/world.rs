//! The [`World`]: simulated kernel + network + shared TDP state.
//!
//! A `World` is what a test, example or benchmark sets up once: it owns
//! the `tdp-simos` kernel, the `tdp-netsim` fabric, the per-host LASS
//! servers ("the LASS's are started by the RM", §2.1 — concretely,
//! [`World::ensure_lass`] is invoked from the RM's `tdp_init`), an
//! optional CASS, and the global call [`Trace`].
//!
//! # Transport modes
//!
//! A world runs its attribute-space traffic over one of two
//! transports (see `tdp-wire`):
//!
//! * [`TransportMode::Netsim`] (the default): connections ride the
//!   in-memory simulated fabric, with its firewall enforcement on
//!   the connect path.
//! * [`TransportMode::Epoll`] ([`World::new_epoll`]): connections are
//!   real loopback TCP sockets with no wire thread per connection or
//!   per world — each receiver reads and each sender writes its own
//!   socket, the kernel's socket buffer being the only queue — so
//!   sessions scale without threads ([`World::wire_conns`] counts
//!   them); a listener's accept thread is the only one spawned.
//!
//! In socket mode the netsim fabric is **kept** as the
//! topology/policy source of truth — every logical address stays a
//! `host:port` [`Addr`], and the world maintains a private map from
//! those virtual addresses to the ephemeral real sockets the servers
//! actually bound. Firewall rules are enforced by consulting
//! `Network::route_permitted` before dialling, so a blocked route
//! fails with the same `BlockedByFirewall` error — and the proxy
//! fallback engages identically. Traces are therefore byte-identical
//! across modes.

use crate::trace::Trace;
use crate::{CASS_PORT, LASS_PORT};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use tdp_attrspace::{AttrClient, AttrSpaceServer, ReconnectPolicy, ServerKind};
use tdp_netsim::{FaultEvent, FaultInjector, FaultSchedule, FirewallPolicy, Network, ZoneId};
use tdp_proto::{Addr, HostId, TdpError, TdpResult};
use tdp_simos::{Os, OsConfig};
use tdp_sync::Mutex;
use tdp_wire::socket::ProxyResolver;
use tdp_wire::{EpollTransport, Transport, WireConn};

/// Which transport carries attribute-space traffic in this world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// In-memory simulated fabric (default).
    Netsim,
    /// Real loopback TCP sockets, no wire thread however many
    /// connections; netsim keeps the topology/firewall bookkeeping.
    Epoll,
}

struct WorldInner {
    os: Os,
    net: Network,
    trace: Trace,
    /// The socket transport carrying attribute-space bytes; `None` in
    /// netsim mode, where the fabric itself carries them.
    socket: Option<EpollTransport>,
    /// Virtual (logical) address → real bound socket, socket mode only.
    tcp_addrs: Arc<Mutex<HashMap<Addr, SocketAddr>>>,
    lass: Mutex<HashMap<HostId, AttrSpaceServer>>,
    cass: Mutex<Option<AttrSpaceServer>>,
    /// Live relay proxies of either transport, held so they stop
    /// with the world.
    proxies: Mutex<Vec<Box<dyn Send>>>,
}

/// Shared simulation world. Cheap to clone.
#[derive(Clone)]
pub struct World {
    inner: Arc<WorldInner>,
}

impl Default for World {
    fn default() -> Self {
        Self::new()
    }
}

impl World {
    pub fn new() -> World {
        World::with_config(OsConfig::default())
    }

    /// A world whose attribute-space traffic rides real loopback TCP
    /// (no wire thread, however many sessions).
    pub fn new_epoll() -> World {
        World::with_mode(OsConfig::default(), TransportMode::Epoll)
    }

    pub fn with_config(cfg: OsConfig) -> World {
        World::with_mode(cfg, TransportMode::Netsim)
    }

    pub fn with_mode(cfg: OsConfig, mode: TransportMode) -> World {
        let socket = match mode {
            TransportMode::Netsim => None,
            // Nothing is left in there that can fail; the `Result` is
            // the signature `tdpbench` links.
            TransportMode::Epoll => Some(EpollTransport::new().expect("socket transport")),
        };
        World {
            inner: Arc::new(WorldInner {
                os: Os::with_config(cfg),
                net: Network::new(),
                trace: Trace::new(),
                socket,
                tcp_addrs: Arc::new(Mutex::new(HashMap::new())),
                lass: Mutex::new(HashMap::new()),
                cass: Mutex::new(None),
                proxies: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The simulated kernel.
    pub fn os(&self) -> &Os {
        &self.inner.os
    }

    /// The simulated network (in socket mode: the topology/firewall model).
    pub fn net(&self) -> &Network {
        &self.inner.net
    }

    /// The global TDP call trace.
    pub fn trace(&self) -> &Trace {
        &self.inner.trace
    }

    /// Which transport this world's attribute-space traffic uses.
    pub fn transport_mode(&self) -> TransportMode {
        match self.inner.socket {
            None => TransportMode::Netsim,
            Some(_) => TransportMode::Epoll,
        }
    }

    /// Open connections of *this* world's socket transport (a client
    /// and a server end per session); `None` on netsim.
    pub fn wire_conns(&self) -> Option<usize> {
        self.inner.socket.as_ref().map(|t| t.conns())
    }

    /// Add a host on the public network.
    pub fn add_host(&self) -> HostId {
        self.inner.net.add_host()
    }

    /// All currently-alive hosts, sorted by id. The inventory a layer
    /// fronting this world (the gateway's `world.info` endpoint) hands
    /// to external clients.
    pub fn hosts(&self) -> Vec<HostId> {
        self.inner.net.hosts()
    }

    /// Add a host inside a private zone.
    pub fn add_host_in(&self, zone: ZoneId) -> HostId {
        self.inner.net.add_host_in(zone)
    }

    /// Create a private zone.
    pub fn add_private_zone(&self, policy: FirewallPolicy) -> ZoneId {
        self.inner.net.add_private_zone(policy)
    }

    /// Spawn an attribute-space server at the *logical* `(host, port)`
    /// over this world's transport.
    fn spawn_attr_server(
        &self,
        host: HostId,
        port: u16,
        kind: ServerKind,
    ) -> TdpResult<AttrSpaceServer> {
        let Some(transport) = &self.inner.socket else {
            return AttrSpaceServer::spawn(&self.inner.net, host, port, kind);
        };
        // The host must exist on the topology even though the bytes
        // flow elsewhere.
        if !self.inner.net.host_alive(host) {
            return Err(TdpError::NoSuchHost(host));
        }
        let vaddr = Addr::new(host, port);
        let listener = transport.listen(host, port)?;
        let real = listener
            .local_endpoint()
            .as_tcp()
            .expect("socket transports bind tcp endpoints");
        let server = AttrSpaceServer::spawn_wire(listener, kind, vaddr)?;
        self.inner.tcp_addrs.lock().insert(vaddr, real);
        Ok(server)
    }

    /// Open an attribute-space client from logical host `from` to the
    /// logical `server` address, over this world's transport. Firewall
    /// rules apply in both modes.
    pub fn attr_connect(&self, from: HostId, server: Addr) -> TdpResult<AttrClient> {
        Ok(AttrClient::over_wire(self.attr_dial(from, server)?))
    }

    /// One transport-level dial of `server` from `from`, re-resolving
    /// the logical address — the primitive both [`World::attr_connect`]
    /// and the redial closure of [`World::attr_connect_reliable`] use.
    fn attr_dial(&self, from: HostId, server: Addr) -> TdpResult<WireConn> {
        let Some(transport) = &self.inner.socket else {
            let conn = self.inner.net.connect(from, server)?;
            return Ok(tdp_wire::sim::wrap_conn(conn));
        };
        self.inner.net.route_permitted(from, server)?;
        // Resolved per dial: a restarted server rebinds the same
        // logical address to a fresh real socket.
        let real = self.resolve_tcp(server)?;
        transport.connect(from, &real.into())
    }

    /// Like [`World::attr_connect`], but the session survives a server
    /// restart: dropped connections are re-dialled under `policy` with
    /// jittered exponential backoff and the session state (joins,
    /// subscriptions) replayed. The initial dial retries under the same
    /// policy, so a client racing a restarting server still comes up.
    pub fn attr_connect_reliable(
        &self,
        from: HostId,
        server: Addr,
        policy: ReconnectPolicy,
    ) -> TdpResult<AttrClient> {
        let conn = policy
            .backoff()
            .retry(policy.max_elapsed, || self.attr_dial(from, server))?;
        let mut client = AttrClient::over_wire(conn);
        let w = self.clone();
        client.set_redial(Box::new(move || w.attr_dial(from, server)), policy);
        Ok(client)
    }

    /// Open an attribute-space client to `server` through the relay
    /// proxy at the logical `proxy` address (§2.4).
    pub fn attr_connect_via_proxy(
        &self,
        from: HostId,
        proxy: Addr,
        server: Addr,
    ) -> TdpResult<AttrClient> {
        let Some(transport) = &self.inner.socket else {
            return AttrClient::connect_via_proxy(&self.inner.net, from, proxy, server);
        };
        self.inner.net.route_permitted(from, proxy)?;
        let real_proxy = self.resolve_tcp(proxy)?;
        let conn = transport.connect_via(real_proxy, server, from)?;
        Ok(AttrClient::over_wire(conn))
    }

    /// Start a relay proxy on `(host, port)` over this world's
    /// transport, returning its logical address. The proxy applies the
    /// topology's firewall rules from its own host's point of view, in
    /// both modes.
    pub fn spawn_proxy(&self, host: HostId, port: u16) -> TdpResult<Addr> {
        if self.inner.socket.is_none() {
            let p = tdp_netsim::proxy::spawn(&self.inner.net, host, port)?;
            let addr = p.addr();
            self.inner.proxies.lock().push(Box::new(p));
            return Ok(addr);
        }
        if !self.inner.net.host_alive(host) {
            return Err(TdpError::NoSuchHost(host));
        }
        let net = self.inner.net.clone();
        let map = self.inner.tcp_addrs.clone();
        let resolver: ProxyResolver = Arc::new(move |target: Addr| {
            // The relay dials outward from its own host, so its host's
            // routes — not the original client's — decide.
            net.route_permitted(host, target)?;
            map.lock()
                .get(&target)
                .copied()
                .ok_or(TdpError::ConnectionRefused(target))
        });
        let p = tdp_wire::socket::spawn_proxy(resolver)?;
        let vaddr = Addr::new(host, port);
        self.inner.tcp_addrs.lock().insert(vaddr, p.local_addr());
        self.inner.proxies.lock().push(Box::new(p));
        Ok(vaddr)
    }

    /// Resolve a virtual address to the real bound socket (socket
    /// mode).
    fn resolve_tcp(&self, addr: Addr) -> TdpResult<SocketAddr> {
        self.inner
            .tcp_addrs
            .lock()
            .get(&addr)
            .copied()
            .ok_or(TdpError::ConnectionRefused(addr))
    }

    /// Start (or find) the LASS on a host, returning its address. Called
    /// by the RM's `tdp_init`; idempotent.
    pub fn ensure_lass(&self, host: HostId) -> TdpResult<Addr> {
        let mut lass = self.inner.lass.lock();
        if let Some(s) = lass.get(&host) {
            return Ok(s.addr());
        }
        let s = self.spawn_attr_server(host, LASS_PORT, ServerKind::Local)?;
        let addr = s.addr();
        lass.insert(host, s);
        Ok(addr)
    }

    /// Address of an already-running LASS, if any.
    pub fn lass_addr(&self, host: HostId) -> Option<Addr> {
        self.inner.lass.lock().get(&host).map(|s| s.addr())
    }

    /// Start (or find) the CASS on the front-end host. Called by the RM
    /// front-end.
    pub fn ensure_cass(&self, host: HostId) -> TdpResult<Addr> {
        let mut cass = self.inner.cass.lock();
        if let Some(s) = cass.as_ref() {
            return Ok(s.addr());
        }
        let s = self.spawn_attr_server(host, CASS_PORT, ServerKind::Central)?;
        let addr = s.addr();
        *cass = Some(s);
        Ok(addr)
    }

    /// Address of the CASS, if started.
    pub fn cass_addr(&self) -> Option<Addr> {
        self.inner.cass.lock().as_ref().map(|s| s.addr())
    }

    /// Tear down the LASS on a host (simulates its crash — fault
    /// injection for tests).
    pub fn kill_lass(&self, host: HostId) {
        if let Some(s) = self.inner.lass.lock().remove(&host) {
            self.inner
                .tcp_addrs
                .lock()
                .remove(&Addr::new(host, LASS_PORT));
            s.shutdown();
        }
    }

    /// Tear down the CASS (crash injection).
    pub fn kill_cass(&self) {
        if let Some(s) = self.inner.cass.lock().take() {
            self.inner.tcp_addrs.lock().remove(&s.addr());
            s.shutdown();
        }
    }

    /// Hosts that currently run a LASS.
    pub fn lass_hosts(&self) -> Vec<HostId> {
        self.inner.lass.lock().keys().copied().collect()
    }

    /// Host the CASS runs on, if started.
    pub fn cass_host(&self) -> Option<HostId> {
        self.inner.cass.lock().as_ref().map(|s| s.addr().host)
    }

    /// Live attribute-space client sessions across every LASS plus the
    /// CASS (the ops KPI plane's session gauge).
    pub fn attr_session_count(&self) -> usize {
        let lass: usize = self
            .inner
            .lass
            .lock()
            .values()
            .map(|s| s.client_count())
            .sum();
        lass + self
            .inner
            .cass
            .lock()
            .as_ref()
            .map_or(0, |s| s.client_count())
    }

    /// Kill a whole machine: the fabric severs everything touching it
    /// (so condor/lsf/grid daemons there go dark), and any attribute-
    /// space server processes it hosted die with it. In socket mode the
    /// LASS/CASS listen on real sockets the fabric cannot sever, which
    /// is why this lives on the world and not on [`Network`].
    pub fn kill_host(&self, host: HostId) {
        self.inner.net.kill_host(host);
        self.kill_lass(host);
        if self.cass_host() == Some(host) {
            self.kill_cass();
        }
    }

    /// Apply one fault event at world level. Network events gain their
    /// process-level consequences ([`World::kill_host`]); the world also
    /// interprets the custom events `kill-lass:<host>` and `kill-cass`
    /// (a crash of just the server process, host still up).
    pub fn apply_fault(&self, event: &FaultEvent) {
        match event {
            FaultEvent::KillHost(h) => self.kill_host(*h),
            FaultEvent::Custom(s) => {
                if let Some(h) = s.strip_prefix("kill-lass:") {
                    if let Ok(n) = h.parse::<u32>() {
                        self.kill_lass(HostId(n));
                    }
                } else if s == "kill-cass" {
                    self.kill_cass();
                }
            }
            other => self.inner.net.apply_fault(other),
        }
    }

    /// Replay a fault schedule against this world on a background
    /// thread (the chaos soak's injector).
    pub fn inject_faults(&self, schedule: FaultSchedule) -> FaultInjector {
        let w = self.clone();
        FaultInjector::start(schedule, move |ev| w.apply_fault(ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_lass_is_idempotent() {
        let w = World::new();
        let h = w.add_host();
        let a1 = w.ensure_lass(h).unwrap();
        let a2 = w.ensure_lass(h).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(w.lass_addr(h), Some(a1));
    }

    #[test]
    fn lass_per_host() {
        let w = World::new();
        let h1 = w.add_host();
        let h2 = w.add_host();
        let a1 = w.ensure_lass(h1).unwrap();
        let a2 = w.ensure_lass(h2).unwrap();
        assert_ne!(a1.host, a2.host);
        assert_eq!(
            a1.port, a2.port,
            "LASS uses the well-known port on each host"
        );
    }

    #[test]
    fn single_cass() {
        let w = World::new();
        let fe = w.add_host();
        assert_eq!(w.cass_addr(), None);
        let a = w.ensure_cass(fe).unwrap();
        assert_eq!(w.ensure_cass(fe).unwrap(), a);
    }

    #[test]
    fn first_dial_backoff_is_jittered_by_the_policy_seed() {
        use std::time::{Duration, Instant};
        let w = World::new();
        let h = w.add_host();
        let dead = Addr::new(h, 4242); // nothing listens here
        let nominal = Duration::from_millis(200);
        let budget = nominal + Duration::from_millis(10);
        let policy = |seed| ReconnectPolicy {
            base: nominal,
            cap: nominal,
            max_elapsed: budget,
            seed,
        };
        let delays = |seed| {
            let mut b = policy(seed).backoff();
            [b.next_delay(), b.next_delay()]
        };
        // Policies differing only in seed pace differently, every
        // delay within [d/2, d]. Both picks fit one delay into the
        // budget and not a second.
        let short = (0..)
            .find(|&s| delays(s)[0] < nominal * 6 / 10 && delays(s)[0] + delays(s)[1] > budget)
            .unwrap();
        let long = (0..).find(|&s| delays(s)[0] > nominal * 8 / 10).unwrap();
        assert_ne!(delays(short), delays(long));
        for d in delays(short).into_iter().chain(delays(long)) {
            assert!(d >= nominal / 2 && d <= nominal, "{d:?}");
        }
        // The first dial sleeps that sequence, so the call lasts one
        // jittered delay — the bare doubling loop it replaces slept the
        // full nominal 200 ms whatever the seed.
        let timed = |seed| {
            let start = Instant::now();
            let err = w.attr_connect_reliable(h, dead, policy(seed)).err();
            assert_eq!(err, Some(TdpError::ConnectionRefused(dead)));
            start.elapsed()
        };
        assert!(timed(long) >= delays(long)[0]);
        let took = timed(short);
        assert!(took >= delays(short)[0], "{took:?}");
        assert!(
            took < nominal,
            "a jittered delay, within max_elapsed: {took:?}"
        );
    }

    #[test]
    fn kill_lass_releases_port() {
        let w = World::new();
        let h = w.add_host();
        let a1 = w.ensure_lass(h).unwrap();
        w.kill_lass(h);
        assert_eq!(w.lass_addr(h), None);
        let a2 = w.ensure_lass(h).unwrap();
        assert_eq!(a1, a2, "restarted LASS rebinds the well-known port");
    }

    #[test]
    fn epoll_world_uses_virtual_addrs() {
        let w = World::new_epoll();
        assert_eq!(w.transport_mode(), TransportMode::Epoll);
        let h = w.add_host();
        let a = w.ensure_lass(h).unwrap();
        assert_eq!(a, Addr::new(h, LASS_PORT), "logical address is stable");
        // The virtual address resolves to a real loopback socket.
        assert!(w.resolve_tcp(a).unwrap().ip().is_loopback());
        // Connecting through the logical address works end to end.
        let mut c = w.attr_connect(h, a).unwrap();
        c.join(tdp_proto::ContextId(7)).unwrap();
        c.put(tdp_proto::ContextId(7), "k", "v").unwrap();
        assert_eq!(c.get(tdp_proto::ContextId(7), "k").unwrap(), "v");
    }

    #[test]
    fn epoll_kill_lass_unregisters_virtual_addr() {
        let w = World::new_epoll();
        let h = w.add_host();
        let a = w.ensure_lass(h).unwrap();
        w.kill_lass(h);
        assert!(w.attr_connect(h, a).is_err(), "dead LASS must refuse");
    }
}
