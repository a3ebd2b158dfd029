//! Loom models of the reactor's per-connection protocols. Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p tdp-wire --release loom_
//! ```
//!
//! Each test drives the *shipped* [`Flow`] state machine (the exact
//! code the epoll backend runs — see `reactor::SocketIo` for the
//! production binding) against a scripted in-memory [`FakeIo`], under
//! every interleaving of senders, receivers, and the shard thread (the
//! models' `worker`) that the checker can produce. Blocking waits with
//! deadlines are explored both ways (notified and timed out); a lost
//! wakeup shows up as a reported deadlock, not a hung test.
//!
//! Protocols covered (ISSUE 5 acceptance list):
//! 1. inbox pause-at-cap / resume-at-half (`loom_inbox_pause_resume`)
//! 2. outbox write-stall vs. kill-connection (`loom_outbox_stall_kill_vs_drain`)
//! 3. EPOLLOUT arm-on-EWOULDBLOCK vs. inline write (`loom_epollout_arm_vs_inline_write`)
//! 4. shutdown vs. in-flight notify (`loom_shutdown_vs_inflight_notify`,
//!    `loom_close_races_send`)
//!
//! plus the regression model for the partial-drain lost-wakeup fix
//! (`loom_outbox_partial_drain_wakes_sender`), the shard-routing model
//! (`loom_shard_routing`) and the buffer-pool accounting model
//! (`loom_buffer_pool_stall_kill_vs_drain`) from ISSUE 9.

use crate::flow::{ConnTuning, Flow, FlowIo, Interest};
use crate::pool::{BufferPool, PooledBuf};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::sync::Mutex as StdMutex;
use std::time::Duration;
use tdp_proto::{encode_frame, ContextId, FrameDecoder, Message, TdpError};
use tdp_sync::atomic::{AtomicU64, Ordering};
use tdp_sync::{Arc, Condvar, Mutex};

// ------------------------------------------------------------- fake IO

enum ReadStep {
    Data(Vec<u8>),
    Eof,
}

/// A scripted endpoint. Internal state uses plain `std` locks on
/// purpose: the shim serializes model threads, so these never contend
/// and — unlike loom-instrumented locks — add no scheduling points,
/// keeping the state space down to the decisions that matter.
struct FakeIo {
    reads: StdMutex<VecDeque<ReadStep>>,
    /// Bytes the "socket buffer" accepts before `EWOULDBLOCK`.
    write_capacity: StdMutex<usize>,
    written: StdMutex<Vec<u8>>,
    rearms: StdMutex<Vec<Interest>>,
    shutdowns: StdMutex<Vec<&'static str>>,
}

impl FakeIo {
    fn new(reads: Vec<ReadStep>, write_capacity: usize) -> Arc<FakeIo> {
        Arc::new(FakeIo {
            reads: StdMutex::new(reads.into_iter().collect()),
            write_capacity: StdMutex::new(write_capacity),
            written: StdMutex::new(Vec::new()),
            rearms: StdMutex::new(Vec::new()),
            shutdowns: StdMutex::new(Vec::new()),
        })
    }

    fn add_write_capacity(&self, n: usize) {
        *self.write_capacity.lock().unwrap() += n;
    }

    fn written(&self) -> Vec<u8> {
        self.written.lock().unwrap().clone()
    }

    fn rearmed_read(&self) -> bool {
        self.rearms.lock().unwrap().iter().any(|i| i.read)
    }

    fn rearmed_write(&self) -> bool {
        self.rearms.lock().unwrap().iter().any(|i| i.write)
    }
}

impl FlowIo for Arc<FakeIo> {
    fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        match self.reads.lock().unwrap().pop_front() {
            Some(ReadStep::Data(chunk)) => {
                assert!(chunk.len() <= buf.len(), "script chunk exceeds read buf");
                buf[..chunk.len()].copy_from_slice(&chunk);
                Ok(chunk.len())
            }
            Some(ReadStep::Eof) => Ok(0),
            None => Err(io::ErrorKind::WouldBlock.into()),
        }
    }

    fn write(&self, buf: &[u8]) -> io::Result<usize> {
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

    fn rearm(&self, interest: Interest) {
        self.rearms.lock().unwrap().push(interest);
    }
}

// ------------------------------------------------------------- helpers

fn frame(n: u64) -> Vec<u8> {
    encode_frame(&Message::Join { ctx: ContextId(n) }).to_vec()
}

fn tuning(inbox_messages: usize, outbox_bytes: usize) -> ConnTuning {
    ConnTuning {
        inbox_messages,
        outbox_bytes,
        // The numeric value is irrelevant under loom: the checker
        // explores the timeout as a nondeterministic event.
        write_stall: Duration::from_millis(1),
    }
}

fn new_flow(io: Arc<FakeIo>, t: ConnTuning) -> Arc<Flow<Arc<FakeIo>>> {
    Arc::new(Flow::new(io, t, FrameDecoder::new()))
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

/// Protocol 1: the inbox pauses read interest at its bound and resumes
/// (with a rearm) once the consumer drains it to half. The consumer's
/// `recv` and the worker's readiness delivery interleave freely; the
/// second readiness report is gated on the resume-rearm, exactly as
/// the oneshot kernel registration would gate it.
#[test]
fn loom_inbox_pause_resume() {
    loom::model(|| {
        // Chunk A carries two frames: one readiness report fills the
        // inbox to its bound (2) and pauses. Chunk B is the third
        // frame, deliverable only after the resume-rearm.
        let mut chunk_a = frame(1);
        chunk_a.extend_from_slice(&frame(2));
        let io = FakeIo::new(vec![ReadStep::Data(chunk_a), ReadStep::Data(frame(3))], 0);
        let flow = new_flow(Arc::clone(&io), tuning(2, 1024));

        let rearmed = Arc::new((Mutex::new(false), Condvar::new()));

        let w_flow = Arc::clone(&flow);
        let w_io = Arc::clone(&io);
        let w_rearmed = Arc::clone(&rearmed);
        let worker = loom::thread::spawn(move || {
            w_flow.on_ready(true, false);
            // The kernel re-reports readiness only after the oneshot
            // registration is rearmed for reads (the resume).
            let (m, cv) = &*w_rearmed;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
            drop(g);
            assert!(w_io.rearmed_read(), "resume must rearm read interest");
            w_flow.on_ready(true, false);
        });

        let m1 = flow.recv(None).unwrap();
        assert_eq!(m1, Message::Join { ctx: ContextId(1) });
        // recv returned ⇒ chunk A was processed ⇒ the inbox hit its
        // bound and paused; popping below half resumed + rearmed.
        {
            let (m, cv) = &*rearmed;
            *m.lock() = true;
            cv.notify_all();
        }
        let m2 = flow.recv(None).unwrap();
        let m3 = flow.recv(None).unwrap();
        assert_eq!(m2, Message::Join { ctx: ContextId(2) });
        assert_eq!(m3, Message::Join { ctx: ContextId(3) });
        worker.join().unwrap();

        let (inbox_len, paused, _, _, _) = flow.snapshot();
        assert_eq!(inbox_len, 0);
        assert!(!paused, "fully drained inbox must not stay paused");
    });
}

/// Protocol 2: a backpressured sender either gets woken by the
/// reactor's drain (Ok) or its write-stall timeout fires and kills the
/// connection (Disconnected + full shutdown). Both outcomes must be
/// reachable, and no schedule may deadlock or double-kill.
#[test]
fn loom_outbox_stall_kill_vs_drain() {
    let seen = outcome_set();
    loom::model(move || {
        let f1 = frame(1);
        let f2 = frame(2);
        let io = FakeIo::new(vec![], 0);
        let pool = BufferPool::new();
        let flow = new_flow(Arc::clone(&io), tuning(8, f2.len() + 1));

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
            w_flow.on_ready(false, true);
        });

        match flow.send(pooled(&pool, &f2)) {
            Ok(()) => {
                seen.lock().unwrap().insert("ok");
                let (_, _, _, closed, _) = flow.snapshot();
                assert!(!closed, "successful send must not kill the connection");
            }
            Err(TdpError::Disconnected) => {
                seen.lock().unwrap().insert("killed");
                // The kill path must tear down both directions so the
                // peer and the local receiver both unblock.
                assert!(io.shutdowns.lock().unwrap().contains(&"both"));
                assert!(matches!(flow.recv(None), Err(TdpError::Disconnected)));
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
        let io = FakeIo::new(vec![], 0);
        let pool = BufferPool::new();
        let flow = new_flow(Arc::clone(&io), tuning(8, f2_len + 1));

        flow.send(pooled(&pool, &f1)).unwrap(); // queued; write armed

        let w_flow = Arc::clone(&flow);
        let w_io = Arc::clone(&io);
        let partial = f1.len() - 1; // all but the last byte of f1
        let worker = loom::thread::spawn(move || {
            w_io.add_write_capacity(partial);
            w_flow.on_ready(false, true);
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

/// Protocol 3: the inline-write fast path vs. arm-on-EWOULDBLOCK.
/// Whatever the interleaving, every queued byte is written exactly
/// once, in order, and write interest is never left armed after the
/// outbox empties.
#[test]
fn loom_epollout_arm_vs_inline_write() {
    loom::model(|| {
        let f1 = frame(1);
        let f2 = frame(2);
        let io = FakeIo::new(vec![], f1.len()); // room for exactly f1
        let pool = BufferPool::new();
        let flow = new_flow(Arc::clone(&io), tuning(8, 1024));

        // Inline fast path: the socket takes the whole frame, no
        // reactor round trip, no write interest.
        flow.send(pooled(&pool, &f1)).unwrap();

        let w_flow = Arc::clone(&flow);
        let w_io = Arc::clone(&io);
        let f2_len = f2.len();
        let worker = loom::thread::spawn(move || {
            w_io.add_write_capacity(f2_len);
            w_flow.on_ready(false, true);
        });

        // Races the capacity top-up: either the inline write drains it
        // (worker's on_ready finds nothing) or it hits EWOULDBLOCK and
        // arms EPOLLOUT for the worker to finish.
        flow.send(pooled(&pool, &f2)).unwrap();
        worker.join().unwrap();

        let mut expect = f1.clone();
        expect.extend_from_slice(&f2);
        assert_eq!(io.written(), expect, "bytes lost, duplicated, or reordered");
        let (_, _, want_write, _, outbox_bytes) = flow.snapshot();
        assert_eq!(outbox_bytes, 0);
        assert!(!want_write, "write interest left armed on empty outbox");
        if io.rearmed_write() {
            // The EWOULDBLOCK branch was taken in this schedule; the
            // oneshot contract was honored.
        }
    });
}

/// Protocol 4a: shutdown vs. an in-flight receiver. A `close` racing a
/// blocked untimed `recv` and a worker delivering EOF must always
/// unblock the receiver with `Disconnected` — a missing notify on
/// either path is a deadlock the checker reports.
#[test]
fn loom_shutdown_vs_inflight_notify() {
    loom::model(|| {
        let io = FakeIo::new(vec![ReadStep::Eof], 0);
        let flow = new_flow(Arc::clone(&io), tuning(8, 1024));

        let c_flow = Arc::clone(&flow);
        let closer = loom::thread::spawn(move || c_flow.close());

        let w_flow = Arc::clone(&flow);
        let worker = loom::thread::spawn(move || w_flow.on_ready(true, false));

        // Untimed: only a correctly-notified rx_cv can unblock this.
        match flow.recv(None) {
            Err(TdpError::Disconnected) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
        closer.join().unwrap();
        worker.join().unwrap();

        let (_, _, _, closed, _) = flow.snapshot();
        assert!(closed);
    });
}

/// Protocol 4b: shutdown vs. an in-flight sender. `send` racing
/// `close` must fail fast or succeed-and-flush — and when it reports
/// Ok the frame's bytes must actually reach the wire (close flushes
/// queued frames before the half-close).
#[test]
fn loom_close_races_send() {
    loom::model(|| {
        let f1 = frame(1);
        let io = FakeIo::new(vec![], 1024);
        let pool = BufferPool::new();
        let flow = new_flow(Arc::clone(&io), tuning(8, 1024));

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
        let (_, _, _, closed, outbox_bytes) = flow.snapshot();
        assert!(closed);
        assert_eq!(outbox_bytes, 0);
        // Close must half-close the write side so the peer sees EOF.
        assert!(io.shutdowns.lock().unwrap().contains(&"write"));
    });
}

/// ISSUE 9 model: connection registration across reactor shards, over
/// the exact primitives `ReactorSet::register` uses — a shared
/// `fetch_add` id counter and `shard_index` (pure modulo) into
/// per-shard connection maps. Two threads registering concurrently
/// must get distinct ids, land each connection in exactly the shard
/// its id computes to, and a concurrent deregister must find the entry
/// in that same shard — no entry is ever visible from two shards and
/// none is lost.
#[test]
fn loom_shard_routing() {
    loom::model(|| {
        use crate::reactor::shard_index;
        const SHARDS: usize = 2;
        let next = Arc::new(AtomicU64::new(0));
        let maps: Arc<Vec<Mutex<HashMap<u64, u64>>>> =
            Arc::new((0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect());

        let handles: Vec<_> = (0..2u64)
            .map(|tid| {
                let next = Arc::clone(&next);
                let maps = Arc::clone(&maps);
                loom::thread::spawn(move || {
                    let id = next.fetch_add(1, Ordering::Relaxed);
                    let shard = shard_index(id, SHARDS);
                    let prev = maps[shard].lock().insert(id, tid);
                    assert!(prev.is_none(), "two connections mapped to one slot");
                    id
                })
            })
            .collect();
        let ids: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        assert_ne!(ids[0], ids[1], "id allocation must be unique");
        for id in ids {
            let shard = shard_index(id, SHARDS);
            // Deregistration looks up the same pure function — the
            // entry is in that shard and no other.
            for (s, m) in maps.iter().enumerate() {
                let found = m.lock().remove(&id).is_some();
                assert_eq!(found, s == shard, "conn {id} visible from shard {s}");
            }
        }
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
        let io = FakeIo::new(vec![], 0); // no capacity: frame queues
        let pool = BufferPool::new();
        let flow = new_flow(Arc::clone(&io), tuning(8, 1024));

        flow.send(pooled(&pool, &f1)).unwrap();
        assert_eq!(pool.live(), 1);

        let c_flow = Arc::clone(&flow);
        let closer = loom::thread::spawn(move || c_flow.close());

        let w_flow = Arc::clone(&flow);
        let w_io = Arc::clone(&io);
        let n = f1.len();
        let worker = loom::thread::spawn(move || {
            w_io.add_write_capacity(n);
            w_flow.on_ready(false, true);
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
