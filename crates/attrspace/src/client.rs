//! The attribute-space client: one connection from a daemon to a LASS
//! or the CASS.
//!
//! The client is deliberately single-threaded (`&mut self` on every
//! operation), matching the paper's daemon model: a blocking `tdp_get`
//! blocks the daemon, and asynchronous work is done with subscriptions
//! whose notifications queue up until the daemon drains them from its
//! central polling loop (`tdp_service_event`, §3.3).
//!
//! # Reconnect
//!
//! A dropped server connection is terminal by default. A client given a
//! redial closure ([`AttrClient::set_redial`]) instead survives a
//! server restart: on `Disconnected` it re-dials with jittered capped
//! exponential backoff, replays its session state (joined contexts and
//! live subscriptions), and retries the interrupted operation. Puts are
//! last-writer-wins and gets are reads, so the retry is safe; replayed
//! subscriptions re-deliver at-least-once (a notification can arrive
//! twice across a reconnect — daemons key on the token, which stays
//! stable). The space itself is *not* replayed — a restarted LASS comes
//! back empty, exactly like the paper's model, and daemons re-put what
//! they own.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};
use tdp_netsim::{Conn, Network};
use tdp_proto::{Addr, Backoff, ContextId, HostId, Message, Reply, TdpError, TdpResult};
use tdp_wire::WireConn;

/// Re-dials the server. Called once per connection attempt, so it can
/// (and should) re-resolve the server's address each time — a restarted
/// server may listen on a different real socket behind the same logical
/// address.
pub type Dialer = Box<dyn FnMut() -> TdpResult<WireConn> + Send>;

/// Backoff policy for [`AttrClient::set_redial`].
#[derive(Debug, Clone, Copy)]
pub struct ReconnectPolicy {
    /// First retry delay; doubles per failed attempt.
    pub base: Duration,
    /// Ceiling on a single delay.
    pub cap: Duration,
    /// Total time to keep trying before giving up with the dial error.
    pub max_elapsed: Duration,
    /// Seed for the jitter PRNG (deterministic tests inject their own).
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> ReconnectPolicy {
        ReconnectPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            max_elapsed: Duration::from_secs(10),
            seed: 0x7d9_5eed,
        }
    }
}

impl ReconnectPolicy {
    /// The jittered delay sequence this policy paces dials with.
    pub fn backoff(&self) -> Backoff {
        Backoff::new(self.base, self.cap, self.seed)
    }
}

struct Redial {
    dial: Dialer,
    max_elapsed: Duration,
    backoff: Backoff,
    /// Contexts this session has joined (replayed on reconnect).
    joined: BTreeSet<ContextId>,
    /// Live one-shot subscriptions by token (pruned when the
    /// notification fires or the daemon unsubscribes).
    subs: BTreeMap<u64, (ContextId, String, bool)>,
    reconnects: u64,
}

/// A pending asynchronous notification, delivered by
/// [`AttrClient::poll_notify`] / [`AttrClient::wait_notify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    pub token: u64,
    pub key: String,
    pub value: String,
}

/// Client session with one attribute-space server.
pub struct AttrClient {
    conn: WireConn,
    /// Notifications received while waiting for a direct reply.
    pending: VecDeque<Notification>,
    /// Replies we abandoned (timed-out blocking gets): the next this
    /// many non-notify replies are discarded to stay in sync.
    orphans: usize,
    /// Reconnect machinery; `None` = dropped connection is terminal.
    redial: Option<Redial>,
}

impl AttrClient {
    /// Connect to a server directly over the simulated fabric.
    pub fn connect(net: &Network, from: HostId, server: Addr) -> TdpResult<AttrClient> {
        let conn = net.connect(from, server)?;
        Ok(AttrClient::over(conn))
    }

    /// Connect through an RM proxy on the simulated fabric (for a CASS
    /// on the far side of a firewall, §2.4).
    pub fn connect_via_proxy(
        net: &Network,
        from: HostId,
        proxy: Addr,
        server: Addr,
    ) -> TdpResult<AttrClient> {
        let conn = tdp_netsim::proxy::connect_via(net, from, proxy, server)?;
        Ok(AttrClient::over(conn))
    }

    /// Wrap an already-established netsim connection.
    pub fn over(conn: Conn) -> AttrClient {
        AttrClient::over_wire(tdp_wire::sim::wrap_conn(conn))
    }

    /// Wrap an already-established transport connection (either
    /// backend).
    pub fn over_wire(conn: WireConn) -> AttrClient {
        AttrClient {
            conn,
            pending: VecDeque::new(),
            orphans: 0,
            redial: None,
        }
    }

    /// Arm client-side reconnect: on a dropped connection, `dial` is
    /// retried under `policy` and the session (joins, subscriptions) is
    /// replayed — see the module docs for the exact semantics.
    pub fn set_redial(&mut self, dial: Dialer, policy: ReconnectPolicy) {
        self.redial = Some(Redial {
            dial,
            max_elapsed: policy.max_elapsed,
            backoff: policy.backoff(),
            joined: BTreeSet::new(),
            subs: BTreeMap::new(),
            reconnects: 0,
        });
    }

    /// How many times this session has successfully reconnected.
    pub fn reconnects(&self) -> u64 {
        self.redial.as_ref().map_or(0, |r| r.reconnects)
    }

    /// Join a context (`tdp_init`'s server half).
    pub fn join(&mut self, ctx: ContextId) -> TdpResult<()> {
        self.expect_ok(Message::Join { ctx })?;
        if let Some(r) = self.redial.as_mut() {
            r.joined.insert(ctx);
        }
        Ok(())
    }

    /// Leave a context (`tdp_exit`'s server half).
    pub fn leave(&mut self, ctx: ContextId) -> TdpResult<()> {
        self.expect_ok(Message::Leave { ctx })?;
        if let Some(r) = self.redial.as_mut() {
            r.joined.remove(&ctx);
        }
        Ok(())
    }

    /// Blocking `tdp_put`.
    pub fn put(&mut self, ctx: ContextId, key: &str, value: &str) -> TdpResult<()> {
        self.expect_ok(Message::Put {
            ctx,
            key: key.to_string(),
            value: value.to_string(),
        })
    }

    /// Blocking `tdp_get`: parks until the attribute exists.
    pub fn get(&mut self, ctx: ContextId, key: &str) -> TdpResult<String> {
        self.get_inner(ctx, key, true, None)
    }

    /// Blocking get with a deadline. On timeout the eventual reply is
    /// discarded internally; the session stays usable.
    pub fn get_timeout(
        &mut self,
        ctx: ContextId,
        key: &str,
        timeout: Duration,
    ) -> TdpResult<String> {
        self.get_inner(ctx, key, true, Some(timeout))
    }

    /// Non-blocking get: `AttributeNotFound` if absent (§3.2's error
    /// case).
    pub fn try_get(&mut self, ctx: ContextId, key: &str) -> TdpResult<String> {
        self.get_inner(ctx, key, false, None)
    }

    fn get_inner(
        &mut self,
        ctx: ContextId,
        key: &str,
        blocking: bool,
        timeout: Option<Duration>,
    ) -> TdpResult<String> {
        let msg = Message::Get {
            ctx,
            key: key.to_string(),
            blocking,
        };
        match self.request(&msg, timeout) {
            Ok(Reply::Value { value, .. }) => Ok(value),
            Ok(Reply::Err(e)) => Err(e),
            Ok(other) => Err(TdpError::Protocol(format!("unexpected reply: {other:?}"))),
            Err(TdpError::Timeout) => {
                self.orphans += 1;
                Err(TdpError::Timeout)
            }
            Err(e) => Err(e),
        }
    }

    /// Remove an attribute.
    pub fn remove(&mut self, ctx: ContextId, key: &str) -> TdpResult<()> {
        self.expect_ok(Message::Remove {
            ctx,
            key: key.to_string(),
        })
    }

    /// Register a one-shot subscription (`tdp_async_get`'s server half):
    /// the notification arrives via [`AttrClient::poll_notify`]. With
    /// `only_future`, an existing value does not fire — only the next
    /// put does.
    pub fn subscribe(
        &mut self,
        ctx: ContextId,
        key: &str,
        token: u64,
        only_future: bool,
    ) -> TdpResult<()> {
        self.expect_ok(Message::Subscribe {
            ctx,
            key: key.to_string(),
            token,
            only_future,
        })?;
        if let Some(r) = self.redial.as_mut() {
            r.subs.insert(token, (ctx, key.to_string(), only_future));
        }
        Ok(())
    }

    /// Cancel a subscription.
    pub fn unsubscribe(&mut self, ctx: ContextId, token: u64) -> TdpResult<()> {
        self.expect_ok(Message::Unsubscribe { ctx, token })?;
        if let Some(r) = self.redial.as_mut() {
            r.subs.remove(&token);
        }
        Ok(())
    }

    /// Keys with a prefix.
    pub fn list_keys(&mut self, ctx: ContextId, prefix: &str) -> TdpResult<Vec<String>> {
        let msg = Message::ListKeys {
            ctx,
            prefix: prefix.to_string(),
        };
        match self.request(&msg, None)? {
            Reply::Keys(keys) => Ok(keys),
            Reply::Err(e) => Err(e),
            other => Err(TdpError::Protocol(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Drain one queued notification without blocking.
    pub fn poll_notify(&mut self) -> Option<Notification> {
        if let Some(n) = self.pending.pop_front() {
            return Some(n);
        }
        // Pull in anything already on the wire.
        loop {
            match self.conn.try_recv_msg() {
                Ok(Some(Message::Reply(Reply::Notify { token, key, value }))) => {
                    self.sub_fired(token);
                    return Some(Notification { token, key, value });
                }
                Ok(Some(Message::Reply(r))) if self.orphans > 0 => {
                    self.orphans -= 1;
                    let _ = r;
                }
                _ => return None,
            }
        }
    }

    /// Block until a notification arrives (or timeout).
    pub fn wait_notify(&mut self, timeout: Duration) -> TdpResult<Notification> {
        if let Some(n) = self.pending.pop_front() {
            return Ok(n);
        }
        let deadline = Instant::now().checked_add(timeout);
        loop {
            match self.recv_until(deadline)? {
                Message::Reply(Reply::Notify { token, key, value }) => {
                    self.sub_fired(token);
                    return Ok(Notification { token, key, value });
                }
                Message::Reply(r) if self.orphans > 0 => {
                    self.orphans -= 1;
                    let _ = r;
                }
                other => return Err(TdpError::Protocol(format!("unexpected message: {other:?}"))),
            }
        }
    }

    /// True when a notification is queued (a "descriptor active" check
    /// for the daemon's poll loop).
    pub fn has_notify(&mut self) -> bool {
        if !self.pending.is_empty() {
            return true;
        }
        if let Some(n) = self.poll_notify() {
            self.pending.push_front(n);
            true
        } else {
            false
        }
    }

    fn expect_ok(&mut self, msg: Message) -> TdpResult<()> {
        match self.request(&msg, None)? {
            Reply::Ok => Ok(()),
            Reply::Err(e) => Err(e),
            other => Err(TdpError::Protocol(format!("unexpected reply: {other:?}"))),
        }
    }

    /// One request/reply round trip. On a dropped connection with
    /// redial armed: reconnect (replaying session state) and retry the
    /// request. Every request this client issues is safe to repeat —
    /// puts are last-writer-wins, joins and subscribes are idempotent
    /// on the server — so a reply lost in the crash costs a duplicate,
    /// not corruption.
    fn request(&mut self, msg: &Message, timeout: Option<Duration>) -> TdpResult<Reply> {
        loop {
            let res = self
                .conn
                .send_msg(msg)
                .and_then(|()| self.read_reply(timeout));
            match res {
                Err(TdpError::Disconnected) if self.redial.is_some() => self.reconnect()?,
                other => return other,
            }
        }
    }

    /// Dial until connected (or the policy's budget runs out), replay
    /// the session, and install the new connection.
    fn reconnect(&mut self) -> TdpResult<()> {
        let mut r = self.redial.take().expect("reconnect without redial");
        let out = match Self::dial_and_replay(&mut r) {
            Ok((conn, notes)) => {
                self.conn = conn;
                // The old stream died with any orphaned replies on it.
                self.orphans = 0;
                self.pending.extend(notes);
                r.reconnects += 1;
                Ok(())
            }
            Err(e) => Err(e),
        };
        self.redial = Some(r);
        out
    }

    fn dial_and_replay(r: &mut Redial) -> TdpResult<(WireConn, Vec<Notification>)> {
        r.backoff.reset();
        let (conn, notes) = r.backoff.retry(r.max_elapsed, || {
            (r.dial)().and_then(|conn| Self::replay_session(conn, &r.joined, &r.subs))
        })?;
        for n in &notes {
            r.subs.remove(&n.token);
        }
        Ok((conn, notes))
    }

    /// Replay joins and live subscriptions on a fresh connection.
    /// Subscriptions are replayed with `only_future = false`: a value
    /// put while we were away must still wake its subscriber. Notifies
    /// that fire during the replay are collected for the pending queue.
    fn replay_session(
        mut conn: WireConn,
        joined: &BTreeSet<ContextId>,
        subs: &BTreeMap<u64, (ContextId, String, bool)>,
    ) -> TdpResult<(WireConn, Vec<Notification>)> {
        const REPLAY_TIMEOUT: Duration = Duration::from_secs(5);
        let mut notes = Vec::new();
        let mut roundtrip = |conn: &mut WireConn, msg: &Message| -> TdpResult<()> {
            conn.send_msg(msg)?;
            loop {
                match conn.recv_msg_timeout(REPLAY_TIMEOUT)? {
                    Message::Reply(Reply::Notify { token, key, value }) => {
                        notes.push(Notification { token, key, value });
                    }
                    Message::Reply(Reply::Ok) => return Ok(()),
                    Message::Reply(Reply::Err(e)) => return Err(e),
                    other => {
                        return Err(TdpError::Protocol(format!("unexpected message: {other:?}")))
                    }
                }
            }
        };
        for ctx in joined {
            roundtrip(&mut conn, &Message::Join { ctx: *ctx })?;
        }
        for (token, (ctx, key, _only_future)) in subs {
            roundtrip(
                &mut conn,
                &Message::Subscribe {
                    ctx: *ctx,
                    key: key.clone(),
                    token: *token,
                    only_future: false,
                },
            )?;
        }
        Ok((conn, notes))
    }

    fn sub_fired(&mut self, token: u64) {
        if let Some(r) = self.redial.as_mut() {
            r.subs.remove(&token);
        }
    }

    /// The next message off the connection, waiting until `deadline` —
    /// `None`, which is also what a timeout too large for `Instant` to
    /// hold (`Duration::MAX`) comes to, waits for as long as it takes.
    fn recv_until(&mut self, deadline: Option<Instant>) -> TdpResult<Message> {
        match deadline {
            Some(d) => {
                let remaining = d
                    .checked_duration_since(Instant::now())
                    .ok_or(TdpError::Timeout)?;
                self.conn.recv_msg_timeout(remaining)
            }
            None => self.conn.recv_msg(),
        }
    }

    /// Read the next direct (non-notify) reply, queueing notifications
    /// and discarding orphaned replies from abandoned gets.
    fn read_reply(&mut self, timeout: Option<Duration>) -> TdpResult<Reply> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        loop {
            match self.recv_until(deadline)? {
                Message::Reply(Reply::Notify { token, key, value }) => {
                    self.sub_fired(token);
                    self.pending.push_back(Notification { token, key, value });
                }
                Message::Reply(r) => {
                    if self.orphans > 0 {
                        self.orphans -= 1;
                        continue;
                    }
                    return Ok(r);
                }
                other => return Err(TdpError::Protocol(format!("unexpected message: {other:?}"))),
            }
        }
    }
}
