//! The network fabric: hosts, zones, firewalls, routing and failure
//! injection.

use crate::conn::{Conn, Listener, Pipe};
use crossbeam::channel::Sender;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;
use tdp_proto::{Addr, HostId, Port, TdpError, TdpResult};
use tdp_sync::RwLock;

/// Per-listener accept backlog (the simulated SOMAXCONN). `connect`
/// returns `ConnectionRefused` once it fills.
const BACKLOG: usize = 128;

/// A network zone. Zone 0 is the public network; every
/// [`Network::add_private_zone`] call creates a firewalled private
/// network (Figure 1's "Remote Host" side of the firewall).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZoneId(pub u32);

impl ZoneId {
    /// The public network.
    pub const PUBLIC: ZoneId = ZoneId(0);
}

/// What a private zone's boundary permits, mirroring the two real-world
/// cases in §2.4 of the paper: NAT (outbound allowed, inbound blocked)
/// and strict firewall (both blocked — all traffic must use the resource
/// manager's authorized routes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirewallPolicy {
    /// May a host inside this zone open a connection to an outside
    /// address?
    pub allow_outbound: bool,
    /// May an outside host open a connection to an address inside?
    pub allow_inbound: bool,
}

impl FirewallPolicy {
    /// NAT-like: outbound permitted, inbound blocked.
    pub const NAT: FirewallPolicy = FirewallPolicy {
        allow_outbound: true,
        allow_inbound: false,
    };
    /// Strict firewall: nothing crosses without an authorized route.
    pub const STRICT: FirewallPolicy = FirewallPolicy {
        allow_outbound: false,
        allow_inbound: false,
    };
    /// No restrictions (useful in tests).
    pub const OPEN: FirewallPolicy = FirewallPolicy {
        allow_outbound: true,
        allow_inbound: true,
    };
}

/// Latency model applied to every connection at establishment time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Latency {
    /// Delay for traffic between hosts in the same zone.
    pub local: Duration,
    /// Delay for traffic crossing a zone boundary.
    pub cross_zone: Duration,
}

/// Counters for benchmark reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    pub connections_opened: u64,
    pub connections_blocked: u64,
}

struct HostEntry {
    zone: ZoneId,
    alive: bool,
    listeners: HashMap<Port, Sender<Conn>>,
    /// Pipes of live connections touching this host, so a host kill can
    /// sever them.
    pipes: Vec<Weak<Pipe>>,
    /// `pipes.len()` after the last prune of dead entries.
    pipes_pruned_len: usize,
    next_ephemeral: u16,
}

impl HostEntry {
    /// Remember a new connection's pipes. Entries of connections since
    /// dropped are pruned whenever the registry has doubled since the
    /// last prune (and holds at least 16), so it stays within a constant
    /// factor of the live connection count at amortised O(1) per dial.
    fn register_pipes(&mut self, pipes: [Weak<Pipe>; 2]) {
        if self.pipes.len() >= 2 * self.pipes_pruned_len.max(8) {
            self.pipes.retain(|p| p.strong_count() > 0);
            self.pipes_pruned_len = self.pipes.len();
        }
        self.pipes.extend(pipes);
    }
}

struct ZoneEntry {
    policy: FirewallPolicy,
    /// Zones currently partitioned away from this one.
    partitioned: HashSet<ZoneId>,
}

struct NetInner {
    hosts: RwLock<HashMap<HostId, HostEntry>>,
    zones: RwLock<HashMap<ZoneId, ZoneEntry>>,
    /// Routes the resource manager is already authorized to use across
    /// zone boundaries (§2.4: TDP "merely leverages existing" proxy
    /// permissions). `(from_host, to_addr)`.
    routes: RwLock<HashSet<(HostId, Addr)>>,
    latency: RwLock<Latency>,
    stats: RwLock<NetStats>,
    next_host: AtomicU32,
    next_zone: AtomicU32,
}

/// Handle to the simulated network. Cheap to clone; all clones view the
/// same fabric.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetInner>,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// Create a fabric containing only the empty public zone.
    pub fn new() -> Network {
        let zones = HashMap::from([(
            ZoneId::PUBLIC,
            ZoneEntry {
                policy: FirewallPolicy::OPEN,
                partitioned: HashSet::new(),
            },
        )]);
        Network {
            inner: Arc::new(NetInner {
                hosts: RwLock::new(HashMap::new()),
                zones: RwLock::new(zones),
                routes: RwLock::new(HashSet::new()),
                latency: RwLock::new(Latency::default()),
                stats: RwLock::new(NetStats::default()),
                next_host: AtomicU32::new(0),
                next_zone: AtomicU32::new(1),
            }),
        }
    }

    /// Add a host to the public zone.
    pub fn add_host(&self) -> HostId {
        self.add_host_in(ZoneId::PUBLIC)
    }

    /// Add a host inside the given zone.
    pub fn add_host_in(&self, zone: ZoneId) -> HostId {
        let id = HostId(self.inner.next_host.fetch_add(1, Ordering::Relaxed));
        self.inner.hosts.write().insert(
            id,
            HostEntry {
                zone,
                alive: true,
                listeners: HashMap::new(),
                pipes: Vec::new(),
                pipes_pruned_len: 0,
                next_ephemeral: 49152,
            },
        );
        id
    }

    /// Create a private zone with the given firewall policy.
    pub fn add_private_zone(&self, policy: FirewallPolicy) -> ZoneId {
        let id = ZoneId(self.inner.next_zone.fetch_add(1, Ordering::Relaxed));
        self.inner.zones.write().insert(
            id,
            ZoneEntry {
                policy,
                partitioned: HashSet::new(),
            },
        );
        id
    }

    /// Zone a host lives in.
    pub fn zone_of(&self, host: HostId) -> TdpResult<ZoneId> {
        self.inner
            .hosts
            .read()
            .get(&host)
            .map(|h| h.zone)
            .ok_or(TdpError::NoSuchHost(host))
    }

    /// Grant `from` permission to connect to `to` across any firewall —
    /// the pre-existing resource-manager route of §2.4.
    pub fn authorize_route(&self, from: HostId, to: Addr) {
        self.inner.routes.write().insert((from, to));
    }

    /// Revoke a previously authorized route.
    pub fn revoke_route(&self, from: HostId, to: Addr) {
        self.inner.routes.write().remove(&(from, to));
    }

    /// Set the latency model (applies to connections opened afterwards).
    pub fn set_latency(&self, latency: Latency) {
        *self.inner.latency.write() = latency;
    }

    /// Snapshot of the connection counters.
    pub fn stats(&self) -> NetStats {
        *self.inner.stats.read()
    }

    /// Bind a listener on `(host, port)`. Port 0 picks an ephemeral port.
    pub fn listen(&self, host: HostId, port: u16) -> TdpResult<Listener> {
        let mut hosts = self.inner.hosts.write();
        let entry = hosts.get_mut(&host).ok_or(TdpError::NoSuchHost(host))?;
        if !entry.alive {
            return Err(TdpError::NoSuchHost(host));
        }
        let port = if port == 0 {
            let p = entry.next_ephemeral;
            entry.next_ephemeral = entry.next_ephemeral.wrapping_add(1).max(49152);
            Port(p)
        } else {
            Port(port)
        };
        if entry.listeners.contains_key(&port) {
            return Err(TdpError::Substrate(format!(
                "port {port} already bound on {host}"
            )));
        }
        // Accept backlog is bounded like a real kernel's (SOMAXCONN):
        // `connect` refuses once it fills rather than queueing
        // connections an unresponsive accept loop will never take.
        let (tx, rx) = crossbeam::channel::bounded(BACKLOG);
        entry.listeners.insert(port, tx);
        Ok(Listener {
            addr: Addr { host, port },
            incoming: rx,
        })
    }

    /// Release a listener's port (listeners dropped without unbind keep
    /// the port reserved, like a leaked fd).
    pub fn unbind(&self, addr: Addr) {
        if let Some(h) = self.inner.hosts.write().get_mut(&addr.host) {
            h.listeners.remove(&addr.port);
        }
    }

    /// Would a connection from `from` to `to` be permitted right now?
    /// Checks existence, liveness, partitions and firewall policy —
    /// everything except whether something is actually listening.
    pub fn route_permitted(&self, from: HostId, to: Addr) -> TdpResult<()> {
        let hosts = self.inner.hosts.read();
        let src = hosts.get(&from).ok_or(TdpError::NoSuchHost(from))?;
        let dst = hosts.get(&to.host).ok_or(TdpError::NoSuchHost(to.host))?;
        if !src.alive {
            return Err(TdpError::NoSuchHost(from));
        }
        if !dst.alive {
            return Err(TdpError::ConnectionRefused(to));
        }
        let (sz, dz) = (src.zone, dst.zone);
        drop(hosts);
        if sz == dz {
            return Ok(());
        }
        let zones = self.inner.zones.read();
        // Partitions block even authorized routes (a cut cable beats a
        // firewall rule).
        let partitioned = zones.get(&sz).is_some_and(|z| z.partitioned.contains(&dz))
            || zones.get(&dz).is_some_and(|z| z.partitioned.contains(&sz));
        if partitioned {
            return Err(TdpError::BlockedByFirewall { from, to });
        }
        if self.inner.routes.read().contains(&(from, to)) {
            return Ok(());
        }
        // Leaving the source zone requires outbound permission (public is
        // OPEN); entering the destination zone requires inbound.
        let out_ok = zones.get(&sz).is_none_or(|z| z.policy.allow_outbound);
        let in_ok = zones.get(&dz).is_none_or(|z| z.policy.allow_inbound);
        if out_ok && in_ok {
            Ok(())
        } else {
            Err(TdpError::BlockedByFirewall { from, to })
        }
    }

    /// Open a connection from `from` to the listener at `to`.
    pub fn connect(&self, from: HostId, to: Addr) -> TdpResult<Conn> {
        if let Err(e) = self.route_permitted(from, to) {
            if matches!(e, TdpError::BlockedByFirewall { .. }) {
                self.inner.stats.write().connections_blocked += 1;
            }
            return Err(e);
        }
        let mut hosts = self.inner.hosts.write();
        // Allocate the client's ephemeral source port.
        let src_port = {
            let src = hosts.get_mut(&from).ok_or(TdpError::NoSuchHost(from))?;
            let p = src.next_ephemeral;
            src.next_ephemeral = src.next_ephemeral.wrapping_add(1).max(49152);
            Port(p)
        };
        let src_zone = hosts[&from].zone;
        let dst = hosts
            .get_mut(&to.host)
            .ok_or(TdpError::NoSuchHost(to.host))?;
        let dst_zone = dst.zone;
        let accept_tx = dst
            .listeners
            .get(&to.port)
            .cloned()
            .ok_or(TdpError::ConnectionRefused(to))?;
        let lat = *self.inner.latency.read();
        let latency = if src_zone == dst_zone {
            lat.local
        } else {
            lat.cross_zone
        };
        let local = Addr {
            host: from,
            port: src_port,
        };
        let (client, server) = Conn::pair_with(local, to, latency);
        // Register the pipes on both hosts for kill_host.
        dst.register_pipes(client.pipes());
        if let Some(src) = hosts.get_mut(&from) {
            src.register_pipes(client.pipes());
        }
        drop(hosts);
        // A full backlog refuses like a closed port — never blocks the
        // dialer on a listener that has stopped accepting.
        accept_tx
            .try_send(server)
            .map_err(|_| TdpError::ConnectionRefused(to))?;
        self.inner.stats.write().connections_opened += 1;
        Ok(client)
    }

    /// Kill a host: every connection touching it is severed (peers see
    /// EOF), its listeners are dropped, and future binds/connects fail.
    pub fn kill_host(&self, host: HostId) {
        let mut hosts = self.inner.hosts.write();
        if let Some(h) = hosts.get_mut(&host) {
            h.alive = false;
            h.listeners.clear();
            for pipe in h.pipes.drain(..) {
                if let Some(p) = pipe.upgrade() {
                    p.close();
                }
            }
        }
    }

    /// Bring a killed host back (listeners and connections stay gone;
    /// the "machine" rebooted).
    pub fn revive_host(&self, host: HostId) {
        if let Some(h) = self.inner.hosts.write().get_mut(&host) {
            h.alive = true;
        }
    }

    /// Is the host currently alive?
    pub fn host_alive(&self, host: HostId) -> bool {
        self.inner.hosts.read().get(&host).is_some_and(|h| h.alive)
    }

    /// All currently-alive hosts, sorted by id (stable output for
    /// inventory endpoints and tests).
    pub fn hosts(&self) -> Vec<HostId> {
        let mut v: Vec<HostId> = self
            .inner
            .hosts
            .read()
            .iter()
            .filter(|(_, h)| h.alive)
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    /// Partition two zones: no traffic between them, not even authorized
    /// routes, until [`Network::heal_partition`]. Existing connections
    /// are left untouched (half-open), as with a real route flap.
    pub fn partition(&self, a: ZoneId, b: ZoneId) {
        let mut zones = self.inner.zones.write();
        if let Some(z) = zones.get_mut(&a) {
            z.partitioned.insert(b);
        }
        if let Some(z) = zones.get_mut(&b) {
            z.partitioned.insert(a);
        }
    }

    /// Remove a partition.
    pub fn heal_partition(&self, a: ZoneId, b: ZoneId) {
        let mut zones = self.inner.zones.write();
        if let Some(z) = zones.get_mut(&a) {
            z.partitioned.remove(&b);
        }
        if let Some(z) = zones.get_mut(&b) {
            z.partitioned.remove(&a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registered_pipes(net: &Network, host: HostId) -> usize {
        net.inner.hosts.read()[&host].pipes.len()
    }

    #[test]
    fn pipe_registry_stays_bounded_across_connection_churn() {
        let net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let lis = net.listen(b, 5).unwrap();
        // One connection outlives the churn (and every prune it causes).
        let mut kept = net.connect(a, Addr::new(b, 5)).unwrap();
        let _kept_server = lis.accept().unwrap();
        for _ in 0..100_000 {
            let c = net.connect(a, Addr::new(b, 5)).unwrap();
            drop(lis.accept().unwrap());
            drop(c);
        }
        for h in [a, b] {
            let n = registered_pipes(&net, h);
            assert!(n <= 20, "{n} pipes registered on {h} for one live conn");
        }
        // ...and a connection made after a prune is still severed.
        let mut late = net.connect(a, Addr::new(b, 5)).unwrap();
        let _late_server = lis.accept().unwrap();
        net.kill_host(b);
        assert_eq!(kept.recv(), Err(TdpError::Disconnected));
        assert_eq!(late.recv(), Err(TdpError::Disconnected));
    }

    #[test]
    fn listen_connect_accept() {
        let net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let lis = net.listen(b, 2090).unwrap();
        let c = net.connect(a, Addr::new(b, 2090)).unwrap();
        let mut s = lis.accept().unwrap();
        c.send(b"ping").unwrap();
        assert_eq!(&s.recv().unwrap()[..], b"ping");
        assert_eq!(s.peer_addr().host, a);
    }

    #[test]
    fn ephemeral_port_allocation() {
        let net = Network::new();
        let a = net.add_host();
        let l1 = net.listen(a, 0).unwrap();
        let l2 = net.listen(a, 0).unwrap();
        assert_ne!(l1.local_addr().port, l2.local_addr().port);
        assert!(l1.local_addr().port.0 >= 49152);
    }

    #[test]
    fn connection_refused_when_nothing_listens() {
        let net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let err = net.connect(a, Addr::new(b, 1)).unwrap_err();
        assert_eq!(err, TdpError::ConnectionRefused(Addr::new(b, 1)));
    }

    #[test]
    fn double_bind_fails() {
        let net = Network::new();
        let a = net.add_host();
        let _l = net.listen(a, 7).unwrap();
        assert!(net.listen(a, 7).is_err());
    }

    #[test]
    fn unbind_releases_port() {
        let net = Network::new();
        let a = net.add_host();
        let l = net.listen(a, 7).unwrap();
        net.unbind(l.local_addr());
        assert!(net.listen(a, 7).is_ok());
    }

    #[test]
    fn nat_blocks_inbound_allows_outbound() {
        let net = Network::new();
        let pub_host = net.add_host();
        let zone = net.add_private_zone(FirewallPolicy::NAT);
        let priv_host = net.add_host_in(zone);
        // Inbound (public -> private) blocked.
        let _l = net.listen(priv_host, 80).unwrap();
        let err = net.connect(pub_host, Addr::new(priv_host, 80)).unwrap_err();
        assert!(matches!(err, TdpError::BlockedByFirewall { .. }));
        // Outbound (private -> public) allowed.
        let _l2 = net.listen(pub_host, 80).unwrap();
        assert!(net.connect(priv_host, Addr::new(pub_host, 80)).is_ok());
        assert_eq!(net.stats().connections_blocked, 1);
        assert_eq!(net.stats().connections_opened, 1);
    }

    #[test]
    fn strict_blocks_both_directions() {
        let net = Network::new();
        let pub_host = net.add_host();
        let zone = net.add_private_zone(FirewallPolicy::STRICT);
        let priv_host = net.add_host_in(zone);
        let _lp = net.listen(pub_host, 80).unwrap();
        let _lq = net.listen(priv_host, 80).unwrap();
        assert!(net.connect(priv_host, Addr::new(pub_host, 80)).is_err());
        assert!(net.connect(pub_host, Addr::new(priv_host, 80)).is_err());
    }

    #[test]
    fn authorized_route_crosses_strict_firewall() {
        let net = Network::new();
        let pub_host = net.add_host();
        let zone = net.add_private_zone(FirewallPolicy::STRICT);
        let priv_host = net.add_host_in(zone);
        let _l = net.listen(pub_host, 9618).unwrap();
        let to = Addr::new(pub_host, 9618);
        assert!(net.connect(priv_host, to).is_err());
        net.authorize_route(priv_host, to);
        assert!(net.connect(priv_host, to).is_ok());
        net.revoke_route(priv_host, to);
        assert!(net.connect(priv_host, to).is_err());
    }

    #[test]
    fn intra_private_zone_traffic_is_free() {
        let net = Network::new();
        let zone = net.add_private_zone(FirewallPolicy::STRICT);
        let a = net.add_host_in(zone);
        let b = net.add_host_in(zone);
        let _l = net.listen(b, 1).unwrap();
        assert!(net.connect(a, Addr::new(b, 1)).is_ok());
    }

    #[test]
    fn kill_host_severs_connections() {
        let net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let lis = net.listen(b, 5).unwrap();
        let mut c = net.connect(a, Addr::new(b, 5)).unwrap();
        let _s = lis.accept().unwrap();
        net.kill_host(b);
        assert_eq!(c.recv(), Err(TdpError::Disconnected));
        assert!(net.connect(a, Addr::new(b, 5)).is_err());
        assert!(!net.host_alive(b));
    }

    #[test]
    fn revive_host_allows_new_listeners() {
        let net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        net.kill_host(b);
        assert!(net.listen(b, 5).is_err());
        net.revive_host(b);
        let _l = net.listen(b, 5).unwrap();
        assert!(net.connect(a, Addr::new(b, 5)).is_ok());
    }

    #[test]
    fn partition_blocks_even_authorized_routes() {
        let net = Network::new();
        let pub_host = net.add_host();
        let zone = net.add_private_zone(FirewallPolicy::NAT);
        let priv_host = net.add_host_in(zone);
        let _l = net.listen(pub_host, 1).unwrap();
        let to = Addr::new(pub_host, 1);
        net.authorize_route(priv_host, to);
        net.partition(ZoneId::PUBLIC, zone);
        assert!(net.connect(priv_host, to).is_err());
        net.heal_partition(ZoneId::PUBLIC, zone);
        assert!(net.connect(priv_host, to).is_ok());
    }

    #[test]
    fn cross_zone_latency_applies() {
        let net = Network::new();
        net.set_latency(Latency {
            local: Duration::ZERO,
            cross_zone: Duration::from_millis(30),
        });
        let pub_host = net.add_host();
        let zone = net.add_private_zone(FirewallPolicy::NAT);
        let priv_host = net.add_host_in(zone);
        let lis = net.listen(pub_host, 1).unwrap();
        let c = net.connect(priv_host, Addr::new(pub_host, 1)).unwrap();
        let mut s = lis.accept().unwrap();
        let t0 = std::time::Instant::now();
        c.send(b"x").unwrap();
        s.recv().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn zone_of_unknown_host_errors() {
        let net = Network::new();
        assert!(net.zone_of(HostId(99)).is_err());
    }
}
