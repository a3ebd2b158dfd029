//! The attribute bridge: a fixed pool of TDP sessions multiplexing all
//! HTTP clients onto the world's attribute space.
//!
//! This is the m+n story of the paper applied at the gateway boundary:
//! hundreds of HTTP clients do not get hundreds of TDP sessions — they
//! share `pool_size` reliable connections (default 8), checked out per
//! request over a bounded channel. Each pooled session is built with
//! [`World::attr_connect_reliable`], so a LASS/CASS restart underneath
//! a pooled connection heals by redial-and-replay instead of surfacing
//! to the HTTP client.
//!
//! Joins are tracked per pooled session and performed lazily: the first
//! operation that touches a context joins it on whichever session it
//! checked out. Reliable sessions replay joins on reconnect, so the
//! tracking stays valid across server restarts.
//!
//! `attr.subscribe` (the long-poll endpoint) deliberately does NOT use
//! the pool: a subscription parks a session until a put fires it, which
//! would starve the pool under load. Each subscribe call dials a fresh
//! dedicated session and drops it when the notification (or timeout)
//! arrives.

use std::collections::HashSet;
use std::time::Duration;

use tdp_attrspace::{AttrClient, ReconnectPolicy};
use tdp_core::World;
use tdp_proto::{Addr, ContextId, TdpError, TdpResult};
use tdp_sync::channel::{bounded, Receiver, Sender};
use tdp_sync::Mutex;

/// How long a request waits for a pooled session before giving up
/// (every session busy in a long blocking get ⇒ backpressure, not
/// unbounded queueing).
const CHECKOUT_TIMEOUT: Duration = Duration::from_secs(10);

struct PoolSession {
    client: AttrClient,
    joined: HashSet<ContextId>,
}

/// Fixed-size pool of reliable attribute sessions.
pub struct AttrBridge {
    world: World,
    gw_host: tdp_proto::HostId,
    server: Addr,
    policy: ReconnectPolicy,
    slots: (Sender<PoolSession>, Receiver<PoolSession>),
    pool_size: usize,
    /// Monotonic token source for `attr.subscribe`.
    next_token: Mutex<u64>,
}

impl AttrBridge {
    /// Dial `pool_size` reliable sessions from `gw_host` to `server`.
    pub fn connect(
        world: &World,
        gw_host: tdp_proto::HostId,
        server: Addr,
        pool_size: usize,
        policy: ReconnectPolicy,
    ) -> TdpResult<AttrBridge> {
        let pool_size = pool_size.max(1);
        let (tx, rx) = bounded(pool_size);
        for _ in 0..pool_size {
            let client = world.attr_connect_reliable(gw_host, server, policy)?;
            let _ = tx.send(PoolSession {
                client,
                joined: HashSet::new(),
            });
        }
        Ok(AttrBridge {
            world: world.clone(),
            gw_host,
            server,
            policy,
            slots: (tx, rx),
            pool_size,
            next_token: Mutex::new(1),
        })
    }

    /// Number of TDP sessions this bridge holds (the `n` in m+n).
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Check out a session, make sure `ctx` is joined on it, run `f`,
    /// return the session to the pool. The pool is the concurrency
    /// limit: at most `pool_size` attribute operations are in flight
    /// regardless of how many HTTP clients are connected.
    pub fn with_client<R>(
        &self,
        ctx: ContextId,
        f: impl FnOnce(&mut AttrClient) -> TdpResult<R>,
    ) -> TdpResult<R> {
        let mut slot = self
            .slots
            .1
            .recv_timeout(CHECKOUT_TIMEOUT)
            .map_err(|_| TdpError::Timeout)?;
        let result = self.run_on(&mut slot, ctx, f);
        // A failed op does not poison the slot: reliable clients redial
        // on the next use, and join replay keeps `joined` truthful.
        let _ = self.slots.0.send(slot);
        result
    }

    fn run_on<R>(
        &self,
        slot: &mut PoolSession,
        ctx: ContextId,
        f: impl FnOnce(&mut AttrClient) -> TdpResult<R>,
    ) -> TdpResult<R> {
        if !slot.joined.contains(&ctx) {
            slot.client.join(ctx)?;
            slot.joined.insert(ctx);
        }
        f(&mut slot.client)
    }

    /// Long-poll one notification for `key` in `ctx` on a dedicated
    /// session (see module docs for why not the pool). Returns
    /// `(token, key, value)`.
    pub fn subscribe_once(
        &self,
        ctx: ContextId,
        key: &str,
        only_future: bool,
        timeout: Duration,
    ) -> TdpResult<(u64, String, String)> {
        let token = {
            let mut t = self.next_token.lock();
            *t += 1;
            *t
        };
        let mut client =
            self.world
                .attr_connect_reliable(self.gw_host, self.server, self.policy)?;
        client.join(ctx)?;
        client.subscribe(ctx, key, token, only_future)?;
        let n = client.wait_notify(timeout)?;
        Ok((n.token, n.key, n.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_multiplexes_and_bounds_sessions() {
        let world = World::new();
        let host = world.add_host();
        let lass = world.ensure_lass(host).unwrap();
        let before = world.attr_session_count();
        let bridge =
            AttrBridge::connect(&world, host, lass, 4, ReconnectPolicy::default()).unwrap();
        let ctx = ContextId(7);
        bridge.with_client(ctx, |c| c.put(ctx, "k", "v")).unwrap();
        // Many operations; the channel pool is FIFO so all four slots
        // get exercised.
        for i in 0..32 {
            let got = bridge.with_client(ctx, |c| c.get(ctx, "k")).unwrap();
            assert_eq!(got, "v", "op {i}");
        }
        // The server registers sessions on its accept thread; poll
        // briefly, then pin the count: exactly four sessions, however
        // many operations flowed.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while world.attr_session_count() != before + 4 {
            assert!(
                std::time::Instant::now() < deadline,
                "expected {} sessions, have {}",
                before + 4,
                world.attr_session_count()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        for _ in 0..16 {
            bridge.with_client(ctx, |c| c.get(ctx, "k")).unwrap();
        }
        assert_eq!(world.attr_session_count(), before + 4);
    }

    #[test]
    fn subscribe_once_sees_a_future_put() {
        let world = World::new();
        let host = world.add_host();
        let lass = world.ensure_lass(host).unwrap();
        let bridge =
            AttrBridge::connect(&world, host, lass, 1, ReconnectPolicy::default()).unwrap();
        let ctx = ContextId(1);
        let b2 = std::sync::Arc::new(bridge);
        let waiter = {
            let b = std::sync::Arc::clone(&b2);
            std::thread::spawn(move || {
                b.subscribe_once(ctx, "signal", true, Duration::from_secs(5))
            })
        };
        // The pooled session stays free while the long-poll parks.
        std::thread::sleep(Duration::from_millis(50));
        b2.with_client(ctx, |c| c.put(ctx, "signal", "go")).unwrap();
        let (_, key, value) = waiter.join().unwrap().unwrap();
        assert_eq!((key.as_str(), value.as_str()), ("signal", "go"));
    }
}
