//! `epoll_sessions` — the socket transport's scaling story: hold
//! hundreds of live attribute-space sessions in one process and watch
//! the wire-thread count stay flat.
//!
//! ```text
//! cargo run -q --release --example epoll_sessions
//! ```
//!
//! A thread-per-connection transport would spend ~1000 OS threads on
//! 500 sessions before the tool has done any work. Over
//! `World::new_epoll` the wire layer spends none beyond the listener's
//! accept thread: each receiver reads and each sender writes its own
//! socket, and the kernel's socket buffer is the only queue. (The
//! attribute-space *server* above it still runs one session thread per
//! client, parked in its own `recv` — those are not wire threads and
//! are not counted here.)

use std::time::Instant;
use tdp::core::World;
use tdp::proto::ContextId;

const SESSIONS: u64 = 500;

fn count(world: &World, label: &str) {
    println!(
        "  {label:<28} {} wire threads, {} open connections",
        tdp::wire::wire_thread_count(),
        world.wire_conns().expect("socket world")
    );
}

fn main() {
    let world = World::new_epoll();
    let fe = world.add_host();
    let cass = world.ensure_cass(fe).unwrap();
    count(&world, "before any session");

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
    count(&world, &format!("with {SESSIONS} live sessions"));

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
    println!("done: the accept thread throughout, not O(sessions)");
}
