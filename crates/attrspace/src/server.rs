//! The networked attribute-space server: LASS (one per execution host)
//! and CASS (one on the front-end host).
//!
//! The server speaks to clients through `tdp-wire`'s transport
//! abstraction, so the same code serves simulated-fabric connections
//! and real TCP sockets.

use crate::space::Space;
use std::collections::HashMap;
use tdp_netsim::Network;
use tdp_proto::{Addr, HostId, Message, Reply, TdpError, TdpResult};
use tdp_sync::atomic::{AtomicU64, Ordering};
use tdp_sync::serve::{serve, Server};
use tdp_sync::Arc;
use tdp_sync::Mutex;
use tdp_wire::{WireConn, WireListener, WireTx};

/// Which flavour of attribute-space server this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// Local Attribute Space Server: serves only clients on its own
    /// host ("a process … cannot access the LASS's of other nodes",
    /// §2.1). Started by the RM on each execution host.
    Local,
    /// Central Attribute Space Server: reachable from anywhere (subject
    /// to firewalls). Started by the RM front-end.
    Central,
}

struct Shared {
    space: Mutex<Space>,
    clients: Mutex<HashMap<u64, WireTx>>,
    next_client: AtomicU64,
}

/// A running LASS or CASS.
pub struct AttrSpaceServer {
    addr: Addr,
    kind: ServerKind,
    endpoint: tdp_wire::Endpoint,
    shared: Arc<Shared>,
    server: Server,
}

impl AttrSpaceServer {
    /// Start a server on the simulated fabric at `(host, port)` (0 =
    /// ephemeral).
    pub fn spawn(net: &Network, host: HostId, port: u16, kind: ServerKind) -> TdpResult<Self> {
        let listener = net.listen(host, port)?;
        let addr = listener.local_addr();
        Self::spawn_wire(tdp_wire::sim::wrap_listener(listener), kind, addr)
    }

    /// Start a server on an already-bound transport listener. `addr` is
    /// the *logical* address the server identifies as — for the netsim
    /// transport it equals the bind address; for the socket transport the
    /// caller owns the logical→real mapping (see `tdp-core`).
    pub fn spawn_wire(listener: WireListener, kind: ServerKind, addr: Addr) -> TdpResult<Self> {
        let shared = Arc::new(Shared {
            space: Mutex::new(Space::new()),
            clients: Mutex::new(HashMap::new()),
            next_client: AtomicU64::new(1),
        });
        let endpoint = listener.local_endpoint();
        let sh = shared.clone();
        let name = match kind {
            ServerKind::Local => "lass",
            ServerKind::Central => "cass",
        };
        let server = serve(name, listener, move |conn: WireConn| {
            // LASS locality rule. Host identity comes from the
            // connection (netsim: the source address; TCP: the Hello
            // handshake).
            if kind == ServerKind::Local && conn.peer_host() != Some(addr.host) {
                let _ = conn.send_msg(&Message::Reply(Reply::Err(TdpError::Substrate(format!(
                    "LASS on {} rejects remote client {}",
                    addr.host,
                    conn.peer_endpoint()
                )))));
                conn.close();
                return; // drop: peer sees error then EOF
            }
            let client = sh.next_client.fetch_add(1, Ordering::Relaxed);
            serve_client(&sh, client, conn);
        })
        .map_err(|e| TdpError::Substrate(format!("spawn accept thread: {e}")))?;
        Ok(AttrSpaceServer {
            addr,
            kind,
            endpoint,
            shared,
            server,
        })
    }

    /// Logical address clients connect to.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Transport endpoint the server is actually bound on (differs from
    /// [`Self::addr`] for the socket transport).
    pub fn endpoint(&self) -> tdp_wire::Endpoint {
        self.endpoint
    }

    /// Server flavour.
    pub fn kind(&self) -> ServerKind {
        self.kind
    }

    /// Live contexts (diagnostics / tests).
    pub fn context_count(&self) -> usize {
        self.shared.space.lock().context_count()
    }

    /// Live client sessions (the ops KPI plane samples this).
    pub fn client_count(&self) -> usize {
        self.shared.clients.lock().len()
    }

    /// Stop accepting new clients; existing sessions drain.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.server.close();
        // Sever live sessions too: a crashed server leaves no half-open
        // clients behind (their next operation fails fast instead of
        // hanging). A session's own `WireTx` is a clone of the one in
        // the map, so closing this one severs it too.
        for tx in self.shared.clients.lock().values() {
            tx.close();
        }
    }
}

impl Drop for AttrSpaceServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Per-connection request loop.
fn serve_client(shared: &Shared, client: u64, conn: WireConn) {
    let (tx, mut rx) = conn.split();
    shared.clients.lock().insert(client, tx.clone());
    // Serve until disconnect or protocol failure.
    while let Ok(msg) = rx.recv_msg() {
        let outs = {
            let mut space = shared.space.lock();
            match msg {
                Message::Put { ctx, key, value } => space.put(client, ctx, &key, value),
                Message::Get { ctx, key, blocking } => space.get(client, ctx, &key, blocking),
                Message::Remove { ctx, key } => space.remove(client, ctx, &key),
                Message::Subscribe {
                    ctx,
                    key,
                    token,
                    only_future,
                } => space.subscribe(client, ctx, &key, token, only_future),
                Message::Unsubscribe { ctx, token } => space.unsubscribe(client, ctx, token),
                Message::ListKeys { ctx, prefix } => space.list_keys(client, ctx, &prefix),
                Message::Join { ctx } => space.join(client, ctx),
                Message::Leave { ctx } => space.leave(client, ctx),
                Message::Hello { .. } => {
                    // Transport-level frame; never legal mid-session.
                    vec![(
                        client,
                        Reply::Err(TdpError::Protocol("unexpected hello".into())),
                    )]
                }
                Message::Reply(_) => {
                    vec![(
                        client,
                        Reply::Err(TdpError::Protocol("unexpected reply".into())),
                    )]
                }
            }
        };
        route(shared, client, &tx, outs);
    }
    // Implicit leave of everything on disconnect.
    let outs = shared.space.lock().disconnect(client);
    route(shared, client, &tx, outs);
    shared.clients.lock().remove(&client);
}

/// Deliver a request's replies. Those to the requester go out first,
/// in the space's order, on its own connection `own`; only the others
/// are looked up in the session map.
fn route(shared: &Shared, client: u64, own: &WireTx, mut outs: Vec<(u64, Reply)>) {
    outs.retain_mut(|(dst, reply)| {
        if *dst != client {
            return true;
        }
        let _ = own.send_msg(&Message::Reply(std::mem::replace(reply, Reply::Ok)));
        false
    });
    if outs.is_empty() {
        return;
    }
    // Snapshot the send handles first: `send_msg` may block (TCP
    // backpressure), and holding the clients mutex across it would stall
    // every other session's delivery — and deadlock against a handler
    // trying to register/remove itself.
    let routed: Vec<(WireTx, Reply)> = {
        let clients = shared.clients.lock();
        outs.into_iter()
            .filter_map(|(dst, reply)| clients.get(&dst).map(|tx| (tx.clone(), reply)))
            .collect()
    };
    for (tx, reply) in routed {
        let _ = tx.send_msg(&Message::Reply(reply));
    }
}
