//! Property tests on the pure attribute-space state machine: random
//! operation sequences must preserve the protocol invariants.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tdp_attrspace::Out;
use tdp_attrspace::Space;
use tdp_proto::attr::{validate_key, validate_value};
use tdp_proto::TdpError;
use tdp_proto::{ContextId, Reply};

#[derive(Debug, Clone)]
enum Op {
    Join(u64, u64),
    Leave(u64, u64),
    Put(u64, u64, String, String),
    GetB(u64, u64, String),
    GetNb(u64, u64, String),
    Remove(u64, u64, String),
    Sub(u64, u64, String, u64),
    /// A subscribe with `only_future` set.
    SubFuture(u64, u64, String, u64),
    Unsub(u64, u64, u64),
    Disconnect(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let client = 0u64..4;
    let ctx = 0u64..3;
    let key = proptest::sample::select(vec!["pid", "args", "status", "x"]);
    let future_key = key.clone();
    let val = proptest::sample::select(vec!["1", "2", "running", ""]);
    prop_oneof![
        (client.clone(), ctx.clone()).prop_map(|(c, x)| Op::Join(c, x)),
        (client.clone(), ctx.clone()).prop_map(|(c, x)| Op::Leave(c, x)),
        (client.clone(), ctx.clone(), key.clone(), val).prop_map(|(c, x, k, v)| Op::Put(
            c,
            x,
            k.to_string(),
            v.to_string()
        )),
        (client.clone(), ctx.clone(), key.clone()).prop_map(|(c, x, k)| Op::GetB(
            c,
            x,
            k.to_string()
        )),
        (client.clone(), ctx.clone(), key.clone()).prop_map(|(c, x, k)| Op::GetNb(
            c,
            x,
            k.to_string()
        )),
        (client.clone(), ctx.clone(), key.clone()).prop_map(|(c, x, k)| Op::Remove(
            c,
            x,
            k.to_string()
        )),
        (client.clone(), ctx.clone(), key, 0u64..5).prop_map(|(c, x, k, t)| Op::Sub(
            c,
            x,
            k.to_string(),
            t
        )),
        (client.clone(), ctx.clone(), 0u64..5).prop_map(|(c, x, t)| Op::Unsub(c, x, t)),
        client.prop_map(Op::Disconnect),
        (0u64..4, 0u64..3, future_key, 0u64..5).prop_map(|(c, x, k, t)| Op::SubFuture(
            c,
            x,
            k.to_string(),
            t
        )),
    ]
}

/// The reference model of §3.2/§3.3, stated as plainly as it can be:
/// contexts with a membership refcount, blocking-get waiters,
/// subscriptions that last until unsubscribe, last leave or disconnect,
/// and destroy on the last exit, failing the waiters still parked.
#[derive(Default)]
struct Model {
    ctxs: BTreeMap<u64, MCtx>,
}

#[derive(Default)]
struct MCtx {
    attrs: BTreeMap<String, String>,
    /// One entry per join not yet undone.
    members: Vec<u64>,
    /// Parked blocking gets as (key, client), oldest first.
    waiters: Vec<(String, u64)>,
    /// Subscriptions as (key, client, token), oldest first.
    subs: Vec<(String, u64, u64)>,
}

fn gone(x: u64) -> Reply {
    Reply::Err(TdpError::NoSuchContext(ContextId(x)))
}

fn value(k: &str, v: &str) -> Reply {
    Reply::Value {
        key: k.into(),
        value: v.into(),
    }
}

fn notify(t: u64, k: &str, v: &str) -> Reply {
    Reply::Notify {
        token: t,
        key: k.into(),
        value: v.into(),
    }
}

impl Model {
    fn member(&mut self, c: u64, x: u64) -> Option<&mut MCtx> {
        self.ctxs.get_mut(&x).filter(|m| m.members.contains(&c))
    }

    /// Drop context `x`; every getter still parked in it hears so.
    fn destroy(&mut self, x: u64) -> Vec<Out> {
        let m = self.ctxs.remove(&x).expect("live context");
        m.waiters.into_iter().map(|(_, w)| (w, gone(x))).collect()
    }

    fn apply(&mut self, op: &Op) -> Vec<Out> {
        let (c, x) = match *op {
            Op::Disconnect(c) => (c, u64::MAX),
            Op::Join(c, x) | Op::Leave(c, x) | Op::Unsub(c, x, _) => (c, x),
            Op::Put(c, x, ..) | Op::GetB(c, x, _) | Op::GetNb(c, x, _) | Op::Remove(c, x, _) => {
                (c, x)
            }
            Op::Sub(c, x, ..) | Op::SubFuture(c, x, ..) => (c, x),
        };
        if let Op::Put(_, _, k, v) = op {
            if let Err(e) = validate_key(k).and(validate_value(v)) {
                return vec![(c, Reply::Err(e))];
            }
        }
        if let Op::Join(..) = op {
            self.ctxs.entry(x).or_default().members.push(c);
            return vec![(c, Reply::Ok)];
        }
        if let Op::Disconnect(_) = op {
            let mut out = Vec::new();
            for x in self.ctxs.keys().copied().collect::<Vec<_>>() {
                let m = self.ctxs.get_mut(&x).expect("listed");
                m.waiters.retain(|w| w.1 != c);
                m.subs.retain(|s| s.1 != c);
                m.members.retain(|&mc| mc != c);
                if m.members.is_empty() {
                    out.extend(self.destroy(x));
                }
            }
            return out;
        }
        let Some(m) = self.member(c, x) else {
            return vec![(c, gone(x))];
        };
        let mut out = vec![(c, Reply::Ok)];
        match op {
            Op::Leave(..) => {
                let at = m.members.iter().position(|&mc| mc == c).expect("member");
                m.members.remove(at);
                if !m.members.contains(&c) {
                    m.subs.retain(|s| s.1 != c);
                }
                if m.members.is_empty() {
                    out.extend(self.destroy(x));
                }
            }
            Op::Put(_, _, k, v) => {
                m.attrs.insert(k.clone(), v.clone());
                for (_, w) in m.waiters.iter().filter(|w| w.0 == *k) {
                    out.push((*w, value(k, v)));
                }
                m.waiters.retain(|w| w.0 != *k);
                for s in m.subs.iter().filter(|s| s.0 == *k) {
                    out.push((s.1, notify(s.2, k, v)));
                }
            }
            Op::GetB(_, _, k) | Op::GetNb(_, _, k) => match m.attrs.get(k) {
                Some(v) => out = vec![(c, value(k, v))],
                None if matches!(op, Op::GetB(..)) => {
                    m.waiters.push((k.clone(), c));
                    out.clear();
                }
                None => out = vec![(c, Reply::Err(TdpError::AttributeNotFound(k.clone())))],
            },
            Op::Remove(_, _, k) => {
                m.attrs.remove(k);
            }
            Op::Sub(_, _, k, t) | Op::SubFuture(_, _, k, t) => {
                if let (Some(v), Op::Sub(..)) = (m.attrs.get(k), op) {
                    out.insert(0, (c, notify(*t, k, v)));
                }
                m.subs.push((k.clone(), c, *t));
            }
            Op::Unsub(_, _, t) => m.subs.retain(|s| !(s.1 == c && s.2 == *t)),
            Op::Join(..) | Op::Disconnect(_) => unreachable!("handled above"),
        }
        out
    }
}

fn run(s: &mut Space, op: &Op) -> Vec<Out> {
    match op {
        Op::Join(c, x) => s.join(*c, ContextId(*x)),
        Op::Leave(c, x) => s.leave(*c, ContextId(*x)),
        Op::Put(c, x, k, v) => s.put(*c, ContextId(*x), k, v),
        Op::GetB(c, x, k) => s.get(*c, ContextId(*x), k, true),
        Op::GetNb(c, x, k) => s.get(*c, ContextId(*x), k, false),
        Op::Remove(c, x, k) => s.remove(*c, ContextId(*x), k),
        Op::Sub(c, x, k, t) => s.subscribe(*c, ContextId(*x), k, *t, false),
        Op::SubFuture(c, x, k, t) => s.subscribe(*c, ContextId(*x), k, *t, true),
        Op::Unsub(c, x, t) => s.unsubscribe(*c, ContextId(*x), *t),
        Op::Disconnect(c) => s.disconnect(*c),
    }
}

/// What a client can observe of one op's replies: its own, in order.
/// Across clients there is no order to compare, and a disconnect walks
/// the space's contexts in hash order, so its replies are sorted whole.
fn observed(op: &Op, mut outs: Vec<Out>) -> Vec<Out> {
    outs.sort_by_key(|o| o.0);
    if let Op::Disconnect(_) = op {
        outs.sort_by_key(|o| (o.0, format!("{:?}", o.1)));
    }
    outs
}

proptest! {
    /// Replies are only ever addressed to clients that initiated an
    /// operation or were parked/subscribed — never to strangers — and a
    /// caller's own operation always yields at most one direct reply to
    /// itself per call.
    #[test]
    fn replies_routed_sanely(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut s = Space::new();
        let mut ever_seen = std::collections::HashSet::new();
        for op in ops {
            let outs = match &op {
                Op::Join(c, x) => { ever_seen.insert(*c); s.join(*c, ContextId(*x)) }
                Op::Leave(c, x) => { ever_seen.insert(*c); s.leave(*c, ContextId(*x)) }
                Op::Put(c, x, k, v) => { ever_seen.insert(*c); s.put(*c, ContextId(*x), k, v) }
                Op::GetB(c, x, k) => { ever_seen.insert(*c); s.get(*c, ContextId(*x), k, true) }
                Op::GetNb(c, x, k) => { ever_seen.insert(*c); s.get(*c, ContextId(*x), k, false) }
                Op::Remove(c, x, k) => { ever_seen.insert(*c); s.remove(*c, ContextId(*x), k) }
                Op::Sub(c, x, k, t) => { ever_seen.insert(*c); s.subscribe(*c, ContextId(*x), k, *t, false) }
                Op::SubFuture(c, ..) => { ever_seen.insert(*c); run(&mut s, &op) }
                Op::Unsub(c, x, t) => { ever_seen.insert(*c); s.unsubscribe(*c, ContextId(*x), *t) }
                Op::Disconnect(c) => { ever_seen.insert(*c); s.disconnect(*c) }
            };
            for (dst, _) in &outs {
                prop_assert!(ever_seen.contains(dst), "reply to never-seen client {dst}");
            }
        }
    }

    /// After disconnecting every client, no contexts survive.
    #[test]
    fn full_disconnect_empties_space(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut s = Space::new();
        for op in ops {
            match op {
                Op::Join(c, x) => { s.join(c, ContextId(x)); }
                Op::Leave(c, x) => { s.leave(c, ContextId(x)); }
                Op::Put(c, x, k, v) => { s.put(c, ContextId(x), &k, &v); }
                Op::GetB(c, x, k) => { s.get(c, ContextId(x), &k, true); }
                Op::GetNb(c, x, k) => { s.get(c, ContextId(x), &k, false); }
                Op::Remove(c, x, k) => { s.remove(c, ContextId(x), &k); }
                Op::Sub(c, x, k, t) => { s.subscribe(c, ContextId(x), &k, t, false); }
                Op::SubFuture(..) => { run(&mut s, &op); }
                Op::Unsub(c, x, t) => { s.unsubscribe(c, ContextId(x), t); }
                Op::Disconnect(c) => { s.disconnect(c); }
            }
        }
        for c in 0..4 {
            s.disconnect(c);
        }
        prop_assert_eq!(s.context_count(), 0);
    }

    /// A non-blocking get immediately after a put by a co-member always
    /// sees the value, regardless of interleaved history on other keys.
    #[test]
    fn put_visible_to_comember(
        ops in proptest::collection::vec(arb_op(), 0..40),
        key in proptest::sample::select(vec!["pid", "args"]),
    ) {
        let mut s = Space::new();
        for op in ops {
            match op {
                Op::Join(c, x) => { s.join(c, ContextId(x)); }
                Op::Put(c, x, k, v) => { s.put(c, ContextId(x), &k, &v); }
                Op::Remove(c, x, k) => { s.remove(c, ContextId(x), &k); }
                Op::Disconnect(c) => { s.disconnect(c); }
                _ => {}
            }
        }
        // Use fresh client ids outside the 0..4 range so prior ops can't
        // have disconnected them.
        let (rm, rt) = (100, 101);
        let ctx = ContextId(9);
        s.join(rm, ctx);
        s.join(rt, ctx);
        s.put(rm, ctx, key, "fresh");
        let out = s.get(rt, ctx, key, false);
        prop_assert_eq!(out, vec![(rt, Reply::Value { key: key.to_string(), value: "fresh".to_string() })]);
    }

    /// `Space` replies to every op of a generated sequence exactly as the
    /// reference model does.
    #[test]
    fn space_agrees_with_reference_model(ops in proptest::collection::vec(arb_op(), 1..160)) {
        let (mut s, mut m) = (Space::new(), Model::default());
        for (i, op) in ops.iter().enumerate() {
            let got = observed(op, run(&mut s, op));
            let want = observed(op, m.apply(op));
            prop_assert_eq!(got, want, "op {} of {:?}", i, ops);
        }
    }
}
