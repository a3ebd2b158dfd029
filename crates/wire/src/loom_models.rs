//! Loom models of the connection outbox protocols. Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p tdp-wire --release loom_
//! ```
//!
//! Each test drives the *shipped* [`Flow`] state machine (the exact
//! code the epoll backend runs — see `reactor::SocketIo` for the
//! production binding) against a scripted in-memory [`FakeIo`], under
//! every interleaving of senders, a closer, and the reactor thread (the
//! models' `worker`) that the checker can produce. Blocking waits with
//! deadlines are explored both ways (notified and timed out); a lost
//! wakeup shows up as a reported deadlock, not a hung test.
//!
//! Protocols covered:
//! 1. outbox write-stall vs. kill-connection (`loom_outbox_stall_kill_vs_drain`)
//! 2. EPOLLOUT arm-on-EWOULDBLOCK vs. inline write (`loom_epollout_arm_vs_inline_write`)
//! 3. shutdown vs. an in-flight sender (`loom_close_races_send`)
//!
//! plus the regression model for the partial-drain lost-wakeup fix
//! (`loom_outbox_partial_drain_wakes_sender`) and the buffer-pool
//! accounting model (`loom_buffer_pool_stall_kill_vs_drain`).
//!
//! There is no receive-side model because there is no receive-side
//! protocol: a connection's reads are single-owner state behind
//! `&mut WireRx` (`epoll::EpollRx`), shared with nothing but the flow's
//! shut flag. What a closer or a stall-kill owes a parked receiver is
//! asserted on real sockets, in `epoll.rs`'s tests.

use crate::flow::{ConnTuning, Flow, FlowIo};
use crate::pool::{BufferPool, PooledBuf};
use std::collections::HashSet;
use std::io;
use std::sync::Mutex as StdMutex;
use std::time::Duration;
use tdp_proto::{encode_frame, ContextId, Message, TdpError};
use tdp_sync::Arc;

// ------------------------------------------------------------- fake IO

/// A scripted endpoint. Internal state uses plain `std` locks on
/// purpose: the shim serializes model threads, so these never contend
/// and — unlike loom-instrumented locks — add no scheduling points,
/// keeping the state space down to the decisions that matter.
struct FakeIo {
    /// Bytes the "socket buffer" accepts before `EWOULDBLOCK`.
    write_capacity: StdMutex<usize>,
    written: StdMutex<Vec<u8>>,
    /// `arm_write` calls seen.
    write_arms: StdMutex<usize>,
    shutdowns: StdMutex<Vec<&'static str>>,
}

impl FakeIo {
    fn new(write_capacity: usize) -> Arc<FakeIo> {
        Arc::new(FakeIo {
            write_capacity: StdMutex::new(write_capacity),
            written: StdMutex::new(Vec::new()),
            write_arms: StdMutex::new(0),
            shutdowns: StdMutex::new(Vec::new()),
        })
    }

    fn add_write_capacity(&self, n: usize) {
        *self.write_capacity.lock().unwrap() += n;
    }

    fn written(&self) -> Vec<u8> {
        self.written.lock().unwrap().clone()
    }

    fn rearmed_write(&self) -> bool {
        *self.write_arms.lock().unwrap() > 0
    }
}

impl FlowIo for Arc<FakeIo> {
    /// Takes the first non-empty slice only, so the models keep their
    /// one-write-per-step semantics.
    fn writev(&self, bufs: &[&[u8]]) -> io::Result<usize> {
        let Some(buf) = bufs.iter().find(|b| !b.is_empty()) else {
            return Ok(0);
        };
        let mut cap = self.write_capacity.lock().unwrap();
        if *cap == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(*cap);
        *cap -= n;
        self.written.lock().unwrap().extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn shutdown_read(&self) {
        self.shutdowns.lock().unwrap().push("read");
    }

    fn shutdown_write(&self) {
        self.shutdowns.lock().unwrap().push("write");
    }

    fn shutdown_both(&self) {
        self.shutdowns.lock().unwrap().push("both");
    }

    fn arm_write(&self) {
        *self.write_arms.lock().unwrap() += 1;
    }
}

// ------------------------------------------------------------- helpers

fn frame(n: u64) -> Vec<u8> {
    encode_frame(&Message::Join { ctx: ContextId(n) }).to_vec()
}

fn tuning(outbox_bytes: usize) -> ConnTuning {
    ConnTuning {
        outbox_bytes,
        // The numeric value is irrelevant under loom: the checker
        // explores the timeout as a nondeterministic event.
        write_stall: Duration::from_millis(1),
    }
}

fn new_flow(io: Arc<FakeIo>, t: ConnTuning) -> Arc<Flow<Arc<FakeIo>>> {
    Arc::new(Flow::new(io, t))
}

/// Wrap raw frame bytes as a [`PooledBuf`] the way the transports do
/// (under loom the pool's thread-local layer is compiled out, so every
/// acquire/release is a model-visible shared-lock interaction).
fn pooled(pool: &Arc<BufferPool>, bytes: &[u8]) -> PooledBuf {
    pool.pooled(bytes)
}

/// Leaked cross-execution outcome set, for asserting that a particular
/// outcome is *reachable* (e.g. the notify path, not just the timeout
/// path) once the checker has explored every schedule.
fn outcome_set() -> &'static StdMutex<HashSet<&'static str>> {
    Box::leak(Box::default())
}

// -------------------------------------------------------------- models

/// Protocol 1: a backpressured sender either gets woken by the
/// reactor's drain (Ok) or its write-stall timeout fires and kills the
/// connection (Disconnected + full shutdown). Both outcomes must be
/// reachable, and no schedule may deadlock or double-kill.
#[test]
fn loom_outbox_stall_kill_vs_drain() {
    let seen = outcome_set();
    loom::model(move || {
        let f1 = frame(1);
        let f2 = frame(2);
        let io = FakeIo::new(0);
        let pool = BufferPool::new();
        let flow = new_flow(Arc::clone(&io), tuning(f2.len() + 1));

        // First frame is admitted unconditionally (lone oversized
        // frame rule) and arms write interest on EWOULDBLOCK.
        flow.send(pooled(&pool, &f1)).unwrap();

        let w_flow = Arc::clone(&flow);
        let w_io = Arc::clone(&io);
        let f1_len = f1.len();
        let worker = loom::thread::spawn(move || {
            // The peer drained its receive buffer: the socket can take
            // the whole queued frame, and EPOLLOUT fires.
            w_io.add_write_capacity(f1_len);
            w_flow.on_ready();
        });

        match flow.send(pooled(&pool, &f2)) {
            Ok(()) => {
                seen.lock().unwrap().insert("ok");
                let (_, closed, _) = flow.snapshot();
                assert!(!closed, "successful send must not kill the connection");
            }
            Err(TdpError::Disconnected) => {
                seen.lock().unwrap().insert("killed");
                // The kill path must tear down both directions so the
                // peer and the local receiver both unblock.
                assert!(io.shutdowns.lock().unwrap().contains(&"both"));
                assert!(flow.is_shut(), "a stall-kill must fail local reads");
            }
            Err(e) => panic!("unexpected send error: {e:?}"),
        }
        worker.join().unwrap();
    });
    let seen = seen.lock().unwrap();
    assert!(
        seen.contains("ok"),
        "drain-wakes-sender path never explored"
    );
    assert!(
        seen.contains("killed"),
        "write-stall kill path never explored"
    );
}

/// Regression model for the partial-drain lost wakeup: a drain that
/// frees outbox space but ends in `EWOULDBLOCK` must still wake
/// backpressured senders. The waiter here blocks *untimed* on the
/// exact condvar + predicate `send` uses, so the stall timeout cannot
/// mask the bug: without the `freed` notify in `drain_write`, every
/// schedule where the waiter parks before the drain leaves it parked
/// forever — reported by the checker as a deadlock.
#[test]
fn loom_outbox_partial_drain_wakes_sender() {
    loom::model(|| {
        let f1 = frame(1);
        let f2_len = frame(2).len();
        let io = FakeIo::new(0);
        let pool = BufferPool::new();
        let flow = new_flow(Arc::clone(&io), tuning(f2_len + 1));

        flow.send(pooled(&pool, &f1)).unwrap(); // queued; write armed

        let w_flow = Arc::clone(&flow);
        let w_io = Arc::clone(&io);
        let partial = f1.len() - 1; // all but the last byte of f1
        let worker = loom::thread::spawn(move || {
            w_io.add_write_capacity(partial);
            w_flow.on_ready();
        });

        // Needs f2_len+1 free bytes; the partial drain leaves exactly
        // one byte queued, so (with the notify fix) space opens up.
        assert!(
            flow.await_outbox_space(f2_len),
            "connection must stay open through a partial drain"
        );
        worker.join().unwrap();
    });
}

/// Protocol 2: the inline-write fast path vs. arm-on-EWOULDBLOCK.
/// Whatever the interleaving, every queued byte is written exactly
/// once, in order, and write interest is never left armed after the
/// outbox empties.
#[test]
fn loom_epollout_arm_vs_inline_write() {
    loom::model(|| {
        let f1 = frame(1);
        let f2 = frame(2);
        let io = FakeIo::new(f1.len()); // room for exactly f1
        let pool = BufferPool::new();
        let flow = new_flow(Arc::clone(&io), tuning(1024));

        // Inline fast path: the socket takes the whole frame, no
        // reactor round trip, no write interest.
        flow.send(pooled(&pool, &f1)).unwrap();

        let w_flow = Arc::clone(&flow);
        let w_io = Arc::clone(&io);
        let f2_len = f2.len();
        let worker = loom::thread::spawn(move || {
            w_io.add_write_capacity(f2_len);
            w_flow.on_ready();
        });

        // Races the capacity top-up: either the inline write drains it
        // (worker's on_ready finds nothing) or it hits EWOULDBLOCK and
        // arms EPOLLOUT for the worker to finish.
        flow.send(pooled(&pool, &f2)).unwrap();
        worker.join().unwrap();

        let mut expect = f1.clone();
        expect.extend_from_slice(&f2);
        assert_eq!(io.written(), expect, "bytes lost, duplicated, or reordered");
        let (want_write, _, outbox_bytes) = flow.snapshot();
        assert_eq!(outbox_bytes, 0);
        assert!(!want_write, "write interest left armed on empty outbox");
        if io.rearmed_write() {
            // The EWOULDBLOCK branch was taken in this schedule; the
            // oneshot contract was honored.
        }
    });
}

/// Protocol 3: shutdown vs. an in-flight sender. `send` racing
/// `close` must fail fast or succeed-and-flush — and when it reports
/// Ok the frame's bytes must actually reach the wire (close flushes
/// queued frames before the half-close).
#[test]
fn loom_close_races_send() {
    loom::model(|| {
        let f1 = frame(1);
        let io = FakeIo::new(1024);
        let pool = BufferPool::new();
        let flow = new_flow(Arc::clone(&io), tuning(1024));

        let c_flow = Arc::clone(&flow);
        let closer = loom::thread::spawn(move || c_flow.close());

        let sent = flow.send(pooled(&pool, &f1));
        closer.join().unwrap();

        match sent {
            Ok(()) => assert_eq!(io.written(), f1, "Ok send must reach the wire"),
            Err(TdpError::Disconnected) => {
                assert!(io.written().is_empty(), "failed send must not leak bytes");
            }
            Err(e) => panic!("unexpected send error: {e:?}"),
        }
        let (_, closed, outbox_bytes) = flow.snapshot();
        assert!(closed);
        assert_eq!(outbox_bytes, 0);
        // Close must half-close the write side so the peer sees EOF.
        assert!(io.shutdowns.lock().unwrap().contains(&"write"));
    });
}

/// ISSUE 9 model: buffer-pool accounting when a stall-kill (close
/// clearing the outbox) races a worker's drain. Whichever side ends up
/// dropping the queued frame's `PooledBuf`, the release happens exactly
/// once: `live` returns to zero and a later acquire is served from the
/// recycled buffer, not the allocator.
#[test]
fn loom_buffer_pool_stall_kill_vs_drain() {
    loom::model(|| {
        let f1 = frame(1);
        let io = FakeIo::new(0); // no capacity: frame queues
        let pool = BufferPool::new();
        let flow = new_flow(Arc::clone(&io), tuning(1024));

        flow.send(pooled(&pool, &f1)).unwrap();
        assert_eq!(pool.live(), 1);

        let c_flow = Arc::clone(&flow);
        let closer = loom::thread::spawn(move || c_flow.close());

        let w_flow = Arc::clone(&flow);
        let w_io = Arc::clone(&io);
        let n = f1.len();
        let worker = loom::thread::spawn(move || {
            w_io.add_write_capacity(n);
            w_flow.on_ready();
        });

        closer.join().unwrap();
        worker.join().unwrap();

        // Exactly one release: a double release would leave `live` at
        // u64::MAX (wrapping), a leak at 1.
        assert_eq!(pool.live(), 0, "frame buffer leaked or double-released");
        let fresh_before = pool.fresh_count();
        drop(pool.acquire());
        assert_eq!(
            pool.fresh_count(),
            fresh_before,
            "released buffer must be reusable"
        );
    });
}
