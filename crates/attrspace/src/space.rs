//! The pure attribute-space state machine.
//!
//! Every operation takes the calling client's id and returns the list of
//! replies to emit, as `(ClientId, Reply)` pairs — a blocked `get` emits
//! nothing now and a `Value` later, when some `put` satisfies it. The
//! networked server is a thin shell over this type; all protocol
//! invariants (context refcounting, waiter wake-up, subscriptions,
//! leave and disconnect cleanup) live here where they can be unit-
//! and property-tested without threads.

use std::collections::HashMap;
use tdp_proto::attr::{validate_key, validate_value};
use tdp_proto::{ContextId, Reply, TdpError};

/// Server-local identity of a connected client.
pub type ClientId = u64;

/// A reply to route to a client.
pub type Out = (ClientId, Reply);

/// One context's state.
#[derive(Default)]
struct Ctx {
    attrs: HashMap<String, String>,
    /// Clients currently joined (refcount with identity, so a client
    /// crash can release exactly its own references).
    members: Vec<ClientId>,
    /// Parked blocking gets: key → waiters.
    waiters: HashMap<String, Vec<ClientId>>,
    /// Subscriptions: key → (client, token), in registration order.
    subs: HashMap<String, Vec<(ClientId, u64)>>,
}

/// The attribute space: a set of reference-counted contexts.
#[derive(Default)]
pub struct Space {
    contexts: HashMap<ContextId, Ctx>,
}

impl Space {
    pub fn new() -> Space {
        Space::default()
    }

    /// Number of live contexts (diagnostics).
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Is the client a member of the context?
    fn member(&self, client: ClientId, ctx: ContextId) -> Result<&Ctx, TdpError> {
        match self.contexts.get(&ctx) {
            Some(c) if c.members.contains(&client) => Ok(c),
            _ => Err(TdpError::NoSuchContext(ctx)),
        }
    }

    fn member_mut(&mut self, client: ClientId, ctx: ContextId) -> Result<&mut Ctx, TdpError> {
        match self.contexts.get_mut(&ctx) {
            Some(c) if c.members.contains(&client) => Ok(c),
            _ => Err(TdpError::NoSuchContext(ctx)),
        }
    }

    /// `tdp_init`: join (creating on first join) a context.
    pub fn join(&mut self, client: ClientId, ctx: ContextId) -> Vec<Out> {
        self.contexts.entry(ctx).or_default().members.push(client);
        vec![(client, Reply::Ok)]
    }

    /// `tdp_exit`: leave a context; the last leaver destroys it. Parked
    /// getters of a destroyed context receive an error (their daemon
    /// would otherwise hang forever on a dead space). A client whose
    /// last reference to the context this was loses its subscriptions
    /// there: it is no longer a member, so it may not hear its puts.
    pub fn leave(&mut self, client: ClientId, ctx: ContextId) -> Vec<Out> {
        let Some(c) = self.contexts.get_mut(&ctx) else {
            return vec![(client, Reply::Err(TdpError::NoSuchContext(ctx)))];
        };
        let Some(pos) = c.members.iter().position(|&m| m == client) else {
            return vec![(client, Reply::Err(TdpError::NoSuchContext(ctx)))];
        };
        c.members.remove(pos);
        if !c.members.contains(&client) {
            drop_subs(c, |cl, _| cl == client);
        }
        let mut out = vec![(client, Reply::Ok)];
        if c.members.is_empty() {
            let c = self.contexts.remove(&ctx).expect("present");
            for (_key, ws) in c.waiters {
                for w in ws {
                    out.push((w, Reply::Err(TdpError::NoSuchContext(ctx))));
                }
            }
        }
        out
    }

    /// `tdp_put`: validate and store, waking blocked getters and
    /// notifying every subscription on the key. The value is kept as
    /// handed in (the server passes the decoder's string): an overwrite
    /// allocates nothing, a new key is copied once, and waiters and
    /// subscribers get clones only when there are some.
    pub fn put(
        &mut self,
        client: ClientId,
        ctx: ContextId,
        key: &str,
        value: impl Into<String>,
    ) -> Vec<Out> {
        let value = value.into();
        if let Err(e) = validate_key(key) {
            return vec![(client, Reply::Err(e))];
        }
        if let Err(e) = validate_value(&value) {
            return vec![(client, Reply::Err(e))];
        }
        let c = match self.member_mut(client, ctx) {
            Ok(c) => c,
            Err(e) => return vec![(client, Reply::Err(e))],
        };
        let mut out = vec![(client, Reply::Ok)];
        if let Some(waiters) = c.waiters.remove(key) {
            for w in waiters {
                out.push((
                    w,
                    Reply::Value {
                        key: key.to_string(),
                        value: value.clone(),
                    },
                ));
            }
        }
        if let Some(subs) = c.subs.get(key) {
            for &(s, token) in subs {
                out.push((
                    s,
                    Reply::Notify {
                        token,
                        key: key.to_string(),
                        value: value.clone(),
                    },
                ));
            }
        }
        match c.attrs.get_mut(key) {
            Some(v) => *v = value,
            None => {
                c.attrs.insert(key.to_string(), value);
            }
        }
        out
    }

    /// `tdp_get`: return the value; when `blocking` and absent, park the
    /// caller (no reply now — a future put answers).
    pub fn get(&mut self, client: ClientId, ctx: ContextId, key: &str, blocking: bool) -> Vec<Out> {
        let c = match self.member_mut(client, ctx) {
            Ok(c) => c,
            Err(e) => return vec![(client, Reply::Err(e))],
        };
        if let Some(v) = c.attrs.get(key) {
            return vec![(
                client,
                Reply::Value {
                    key: key.to_string(),
                    value: v.clone(),
                },
            )];
        }
        if blocking {
            c.waiters.entry(key.to_string()).or_default().push(client);
            Vec::new()
        } else {
            vec![(
                client,
                Reply::Err(TdpError::AttributeNotFound(key.to_string())),
            )]
        }
    }

    /// Remove an attribute (succeeds even when absent).
    pub fn remove(&mut self, client: ClientId, ctx: ContextId, key: &str) -> Vec<Out> {
        match self.member_mut(client, ctx) {
            Ok(c) => {
                c.attrs.remove(key);
                vec![(client, Reply::Ok)]
            }
            Err(e) => vec![(client, Reply::Err(e))],
        }
    }

    /// Subscribe `client` to `key` under `token`. This is the one
    /// statement of what a subscription is; the message, the client and
    /// the handle point here.
    ///
    /// * It lasts until the client unsubscribes the token, leaves the
    ///   context for the last time, or disconnects. A put does not
    ///   consume it.
    /// * Every put of the key sends it one `Notify`, in the order the
    ///   space applies the puts. Nothing is coalesced or skipped. (The
    ///   server sends a session's replies before it reads that session's
    ///   next request, so one putter's puts also arrive in that order.)
    /// * With `only_future` false, a value the key already holds is sent
    ///   as a `Notify` *before* the `Ok`, so it is queued at the client
    ///   by the time its subscribe call returns. With `only_future` true
    ///   only later puts notify.
    /// * One-shot use (`tdp_async_get`) is the client's business: it
    ///   unsubscribes after the first notification.
    pub fn subscribe(
        &mut self,
        client: ClientId,
        ctx: ContextId,
        key: &str,
        token: u64,
        only_future: bool,
    ) -> Vec<Out> {
        let c = match self.member_mut(client, ctx) {
            Ok(c) => c,
            Err(e) => return vec![(client, Reply::Err(e))],
        };
        let mut out = Vec::with_capacity(2);
        if let Some(v) = c.attrs.get(key).filter(|_| !only_future) {
            out.push((
                client,
                Reply::Notify {
                    token,
                    key: key.to_string(),
                    value: v.clone(),
                },
            ));
        }
        c.subs
            .entry(key.to_string())
            .or_default()
            .push((client, token));
        out.push((client, Reply::Ok));
        out
    }

    /// Cancel one of the client's subscriptions by token.
    pub fn unsubscribe(&mut self, client: ClientId, ctx: ContextId, token: u64) -> Vec<Out> {
        match self.member_mut(client, ctx) {
            Ok(c) => {
                drop_subs(c, |cl, t| cl == client && t == token);
                vec![(client, Reply::Ok)]
            }
            Err(e) => vec![(client, Reply::Err(e))],
        }
    }

    /// Keys with the given prefix, sorted.
    pub fn list_keys(&mut self, client: ClientId, ctx: ContextId, prefix: &str) -> Vec<Out> {
        match self.member(client, ctx) {
            Ok(c) => {
                let mut keys: Vec<String> = c
                    .attrs
                    .keys()
                    .filter(|k| k.starts_with(prefix))
                    .cloned()
                    .collect();
                keys.sort();
                vec![(client, Reply::Keys(keys))]
            }
            Err(e) => vec![(client, Reply::Err(e))],
        }
    }

    /// A client's connection dropped: implicitly leave every joined
    /// context (a crashed daemon must not pin a context alive — §3.2's
    /// destroy-on-last-exit would otherwise never trigger), and discard
    /// its parked gets and subscriptions.
    pub fn disconnect(&mut self, client: ClientId) -> Vec<Out> {
        let mut out = Vec::new();
        let ctx_ids: Vec<ContextId> = self.contexts.keys().copied().collect();
        for id in ctx_ids {
            let c = self.contexts.get_mut(&id).expect("present");
            for ws in c.waiters.values_mut() {
                ws.retain(|&w| w != client);
            }
            c.waiters.retain(|_, v| !v.is_empty());
            drop_subs(c, |cl, _| cl == client);
            // Release every reference this client held (it may have
            // joined the same context more than once).
            while let Some(pos) = c.members.iter().position(|&m| m == client) {
                c.members.remove(pos);
            }
            if c.members.is_empty() {
                let c = self.contexts.remove(&id).expect("present");
                for (_key, ws) in c.waiters {
                    for w in ws {
                        out.push((w, Reply::Err(TdpError::NoSuchContext(id))));
                    }
                }
            }
        }
        out
    }
}

/// Remove the subscriptions `gone(client, token)` picks, and any key
/// left with none.
fn drop_subs(c: &mut Ctx, gone: impl Fn(ClientId, u64) -> bool) {
    c.subs.retain(|_, subs| {
        subs.retain(|&(cl, t)| !gone(cl, t));
        !subs.is_empty()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX: ContextId = ContextId(1);
    const RM: ClientId = 10;
    const RT: ClientId = 20;

    fn joined() -> Space {
        let mut s = Space::new();
        s.join(RM, CTX);
        s.join(RT, CTX);
        s
    }

    #[test]
    fn put_then_get() {
        let mut s = joined();
        assert_eq!(s.put(RM, CTX, "pid", "42"), vec![(RM, Reply::Ok)]);
        assert_eq!(
            s.get(RT, CTX, "pid", false),
            vec![(
                RT,
                Reply::Value {
                    key: "pid".into(),
                    value: "42".into()
                }
            )]
        );
    }

    #[test]
    fn nonblocking_get_of_absent_attr_errors() {
        let mut s = joined();
        assert_eq!(
            s.get(RT, CTX, "pid", false),
            vec![(RT, Reply::Err(TdpError::AttributeNotFound("pid".into())))]
        );
    }

    #[test]
    fn blocking_get_parks_until_put() {
        // The Figure 6 Step 3 interaction: paradynd blocks on "pid"
        // until the starter puts it.
        let mut s = joined();
        assert!(
            s.get(RT, CTX, "pid", true).is_empty(),
            "must park, not reply"
        );
        let out = s.put(RM, CTX, "pid", "42");
        assert!(out.contains(&(RM, Reply::Ok)));
        assert!(out.contains(&(
            RT,
            Reply::Value {
                key: "pid".into(),
                value: "42".into()
            }
        )));
    }

    #[test]
    fn multiple_waiters_all_wake() {
        let mut s = joined();
        s.join(30, CTX);
        assert!(s.get(RT, CTX, "k", true).is_empty());
        assert!(s.get(30, CTX, "k", true).is_empty());
        let out = s.put(RM, CTX, "k", "v");
        let woken: Vec<ClientId> = out
            .iter()
            .filter(|(_, r)| matches!(r, Reply::Value { .. }))
            .map(|&(c, _)| c)
            .collect();
        assert_eq!(woken.len(), 2);
        assert!(woken.contains(&RT) && woken.contains(&30));
    }

    #[test]
    fn overwrite_updates_value() {
        let mut s = joined();
        s.put(RM, CTX, "k", "v1");
        s.put(RM, CTX, "k", "v2");
        assert_eq!(
            s.get(RT, CTX, "k", false),
            vec![(
                RT,
                Reply::Value {
                    key: "k".into(),
                    value: "v2".into()
                }
            )]
        );
    }

    #[test]
    fn remove_then_get_errors() {
        let mut s = joined();
        s.put(RM, CTX, "k", "v");
        assert_eq!(s.remove(RM, CTX, "k"), vec![(RM, Reply::Ok)]);
        assert!(matches!(s.get(RT, CTX, "k", false)[0].1, Reply::Err(_)));
        // Removing again is still Ok.
        assert_eq!(s.remove(RM, CTX, "k"), vec![(RM, Reply::Ok)]);
    }

    #[test]
    fn operations_require_membership() {
        let mut s = Space::new();
        s.join(RM, CTX);
        // RT never joined.
        assert!(matches!(
            s.put(RT, CTX, "k", "v")[0].1,
            Reply::Err(TdpError::NoSuchContext(_))
        ));
        assert!(matches!(s.get(RT, CTX, "k", false)[0].1, Reply::Err(_)));
        assert!(matches!(
            s.subscribe(RT, CTX, "k", 1, false)[0].1,
            Reply::Err(_)
        ));
    }

    #[test]
    fn contexts_are_isolated() {
        let mut s = Space::new();
        let (c1, c2) = (ContextId(1), ContextId(2));
        s.join(RM, c1);
        s.join(RM, c2);
        s.put(RM, c1, "k", "in-c1");
        assert!(matches!(s.get(RM, c2, "k", false)[0].1, Reply::Err(_)));
    }

    #[test]
    fn last_leave_destroys_context() {
        let mut s = joined();
        s.put(RM, CTX, "k", "v");
        s.leave(RT, CTX);
        assert_eq!(s.context_count(), 1);
        s.leave(RM, CTX);
        assert_eq!(s.context_count(), 0);
        // A rejoin sees a fresh, empty space.
        s.join(RM, CTX);
        assert!(matches!(s.get(RM, CTX, "k", false)[0].1, Reply::Err(_)));
    }

    #[test]
    fn destroying_context_fails_parked_getters() {
        let mut s = joined();
        assert!(s.get(RT, CTX, "never", true).is_empty());
        s.leave(RT, CTX); // RT leaves while still parked (bad client, but legal)
        let out = s.leave(RM, CTX);
        assert!(out.contains(&(RT, Reply::Err(TdpError::NoSuchContext(CTX)))));
    }

    #[test]
    fn leave_without_join_errors() {
        let mut s = Space::new();
        assert!(matches!(s.leave(RM, CTX)[0].1, Reply::Err(_)));
    }

    #[test]
    fn double_join_needs_double_leave() {
        // An RM managing several RTs may tdp_init the same context
        // twice; the space must survive one tdp_exit.
        let mut s = Space::new();
        s.join(RM, CTX);
        s.join(RM, CTX);
        s.leave(RM, CTX);
        assert_eq!(s.context_count(), 1);
        s.leave(RM, CTX);
        assert_eq!(s.context_count(), 0);
    }

    #[test]
    fn subscribe_fires_on_every_put() {
        let mut s = joined();
        let out = s.subscribe(RT, CTX, "status", 7, false);
        assert_eq!(out, vec![(RT, Reply::Ok)]);
        let out = s.put(RM, CTX, "status", "running");
        assert!(out.contains(&(
            RT,
            Reply::Notify {
                token: 7,
                key: "status".into(),
                value: "running".into()
            }
        )));
        // Persistent: the second put notifies too.
        let out = s.put(RM, CTX, "status", "stopped");
        assert!(out.iter().any(|(_, r)| matches!(r, Reply::Notify { .. })));
    }

    #[test]
    fn subscribe_to_existing_value_fires_immediately() {
        let mut s = joined();
        s.put(RM, CTX, "pid", "42");
        let out = s.subscribe(RT, CTX, "pid", 9, false);
        assert_eq!(out[1], (RT, Reply::Ok));
        assert_eq!(
            out[0],
            (
                RT,
                Reply::Notify {
                    token: 9,
                    key: "pid".into(),
                    value: "42".into()
                }
            )
        );
    }

    #[test]
    fn unsubscribe_cancels() {
        let mut s = joined();
        s.subscribe(RT, CTX, "k", 3, false);
        s.unsubscribe(RT, CTX, 3);
        let out = s.put(RM, CTX, "k", "v");
        assert!(!out.iter().any(|(_, r)| matches!(r, Reply::Notify { .. })));
    }

    #[test]
    fn list_keys_prefix_sorted() {
        let mut s = joined();
        s.put(RM, CTX, "mpi_rank_pid.1", "11");
        s.put(RM, CTX, "mpi_rank_pid.0", "10");
        s.put(RM, CTX, "other", "x");
        assert_eq!(
            s.list_keys(RT, CTX, "mpi_rank_pid."),
            vec![(
                RT,
                Reply::Keys(vec!["mpi_rank_pid.0".into(), "mpi_rank_pid.1".into()])
            )]
        );
    }

    #[test]
    fn put_validates_key_and_value() {
        let mut s = joined();
        assert!(matches!(
            s.put(RM, CTX, "", "v")[0].1,
            Reply::Err(TdpError::InvalidAttribute(_))
        ));
        assert!(matches!(
            s.put(RM, CTX, "k\0", "v")[0].1,
            Reply::Err(TdpError::InvalidAttribute(_))
        ));
        assert!(matches!(
            s.put(RM, CTX, "k", "v\0")[0].1,
            Reply::Err(TdpError::InvalidValue(_))
        ));
        // Empty value is legal.
        assert_eq!(s.put(RM, CTX, "k", ""), vec![(RM, Reply::Ok)]);
    }

    #[test]
    fn disconnect_releases_membership_and_waiters() {
        let mut s = joined();
        assert!(s.get(RT, CTX, "k", true).is_empty());
        s.disconnect(RT);
        // RT gone: its waiter must not receive the value later.
        let out = s.put(RM, CTX, "k", "v");
        assert_eq!(out, vec![(RM, Reply::Ok)]);
        // RM disconnect destroys the context.
        s.disconnect(RM);
        assert_eq!(s.context_count(), 0);
    }

    #[test]
    fn disconnect_of_nonmember_is_noop() {
        let mut s = joined();
        s.disconnect(999);
        assert_eq!(s.context_count(), 1);
    }
}
