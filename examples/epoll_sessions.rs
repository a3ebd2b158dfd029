//! `epoll_sessions` — the socket transport's scaling story: hold
//! hundreds of live attribute-space sessions in one process and watch
//! the world's wire-thread census stay flat.
//!
//! ```text
//! cargo run -q --release --example epoll_sessions
//! ```
//!
//! A thread-per-connection transport would spend ~1000 OS threads on
//! 500 sessions before the tool has done any work. Over
//! `World::new_epoll` the wire layer spends one: each receiver reads
//! its own socket, and a single `wire-reactor` thread finishes writes a
//! full socket buffer interrupted. (The attribute-space *server* above
//! it still runs one session thread per client, parked in its own
//! `recv` — those are not wire threads and are not counted here.)

use std::time::Instant;
use tdp::core::World;
use tdp::proto::ContextId;

const SESSIONS: u64 = 500;

fn census(world: &World, label: &str) {
    let c = world.wire_census().expect("socket world");
    println!(
        "  {label:<28} {} wire threads, {} registered connections",
        c.threads, c.conns
    );
}

fn main() {
    let world = World::new_epoll();
    let fe = world.add_host();
    let cass = world.ensure_cass(fe).unwrap();
    census(&world, "before any session");

    let t0 = Instant::now();
    let mut sessions = Vec::new();
    for i in 0..SESSIONS {
        let mut c = world.attr_connect(fe, cass).unwrap();
        let ctx = ContextId(i);
        c.join(ctx).unwrap();
        c.put(ctx, "tool", &format!("daemon-{i}")).unwrap();
        sessions.push((ctx, c));
    }
    println!(
        "  opened {SESSIONS} sessions (join+put each) in {:.1?}",
        t0.elapsed()
    );
    census(&world, &format!("with {SESSIONS} live sessions"));

    // Every session stays serviceable.
    let t1 = Instant::now();
    for (ctx, c) in sessions.iter_mut() {
        assert_eq!(c.get(*ctx, "tool").unwrap(), format!("daemon-{}", ctx.0));
    }
    println!(
        "  round-tripped all {SESSIONS} sessions in {:.1?}",
        t1.elapsed()
    );

    drop(sessions);
    println!("done: one wire thread throughout, not O(sessions)");
}
