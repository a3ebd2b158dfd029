//! Loom models of the connection send turn. Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p tdp-wire --release loom_
//! ```
//!
//! Each test drives the *shipped* [`Flow`] (the exact code the socket
//! transport runs — `impl FlowIo for TcpStream` is the production
//! binding) against a scripted in-memory [`FakeIo`], under every
//! interleaving of senders, a closer and a draining peer that the
//! checker can produce. A full socket yields once and then reports
//! room or `TimedOut`, so both ends of every stall are explored.
//!
//! Protocols covered — all three there are:
//! 1. senders contending for the turn (`loom_senders_take_turns`)
//! 2. shutdown vs. an in-flight sender (`loom_close_races_send`)
//! 3. the stall-kill vs. a local close (`loom_stall_kill_races_close`)
//!
//! The sender-vs-drainer models (outbox stall-kill vs. drain, the
//! partial-drain wake-up, `EPOLLOUT` arming, buffer-pool accounting)
//! went with their second party: no thread but a sender touches the
//! send side now. There is no receive-side model because there is no
//! receive-side protocol: a connection's reads are single-owner state
//! behind `&mut WireRx` (`epoll::EpollRx`), shared with nothing but the
//! flow's shut flag. What a closer or a stall-kill owes a parked
//! receiver or sender is asserted on real sockets, in `epoll.rs`'s
//! tests.

use crate::flow::{Flow, FlowIo};
use crate::stall_kill_count;
use std::collections::HashSet;
use std::io;
use std::sync::Mutex as StdMutex;
use std::time::Duration;
use tdp_proto::{encode_frame, ContextId, Message, TdpError};
use tdp_sync::Arc;

// ------------------------------------------------------------- fake IO

/// A scripted socket. Internal state uses plain `std` locks on
/// purpose: the shim serializes model threads, so these never contend
/// and — unlike loom-instrumented locks — add no scheduling points,
/// keeping the state space down to the decisions that matter.
struct FakeIo {
    /// Bytes the "socket buffer" still accepts.
    room: StdMutex<usize>,
    written: StdMutex<Vec<u8>>,
    shutdowns: StdMutex<usize>,
}

impl FakeIo {
    fn new(room: usize) -> Arc<FakeIo> {
        Arc::new(FakeIo {
            room: StdMutex::new(room),
            written: StdMutex::new(Vec::new()),
            shutdowns: StdMutex::new(0),
        })
    }

    /// The peer read `n` bytes.
    fn add_room(&self, n: usize) {
        *self.room.lock().unwrap() += n;
    }

    fn written(&self) -> Vec<u8> {
        self.written.lock().unwrap().clone()
    }

    fn shutdowns(&self) -> usize {
        *self.shutdowns.lock().unwrap()
    }
}

impl FlowIo for Arc<FakeIo> {
    /// Writes what fits. Short of room it yields once — the `poll(2)`
    /// of the real socket, during which the peer may drain or a closer
    /// shut down — and then finishes, or reports the stall.
    fn write_frame(&self, mut frame: &[u8], _stall: Duration) -> io::Result<()> {
        let mut polled = false;
        loop {
            if self.shutdowns() > 0 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            let n = {
                let mut room = self.room.lock().unwrap();
                let n = frame.len().min(*room);
                *room -= n;
                n
            };
            self.written.lock().unwrap().extend_from_slice(&frame[..n]);
            frame = &frame[n..];
            if frame.is_empty() {
                return Ok(());
            }
            if polled {
                return Err(io::ErrorKind::TimedOut.into());
            }
            polled = true;
            loom::thread::yield_now();
        }
    }

    fn shutdown(&self) {
        *self.shutdowns.lock().unwrap() += 1;
    }
}

// ------------------------------------------------------------- helpers

fn join(n: u64) -> Message {
    Message::Join { ctx: ContextId(n) }
}

fn frame(n: u64) -> Vec<u8> {
    encode_frame(&join(n)).to_vec()
}

fn new_flow(io: &Arc<FakeIo>) -> Arc<Flow<Arc<FakeIo>>> {
    // The numeric stall is irrelevant: `FakeIo` decides who times out.
    Arc::new(Flow::new(Arc::clone(io), Duration::from_millis(1)))
}

// -------------------------------------------------------------- models

/// Protocol 1: two senders and a socket with room for one frame and a
/// bit, against a peer that may or may not drain in time. Whatever the
/// interleaving, the bytes on the wire are whole frames in some order —
/// or, when the second sender's stall ran out, one whole frame, a torn
/// tail nobody wrote behind, and exactly one shutdown.
#[test]
fn loom_senders_take_turns() {
    loom::model(|| {
        let (f1, f2) = (frame(1), frame(2));
        const TORN: usize = 3;
        let io = FakeIo::new(f1.len() + TORN);
        let flow = new_flow(&io);

        let s_flow = Arc::clone(&flow);
        let sender = loom::thread::spawn(move || s_flow.send(&join(1)));
        let p_io = Arc::clone(&io);
        let need = f2.len();
        let peer = loom::thread::spawn(move || p_io.add_room(need));

        let r2 = flow.send(&join(2));
        let r1 = sender.join().unwrap();
        peer.join().unwrap();

        let cat = |a: &[u8], b: &[u8]| [a, b].concat();
        let wire = io.written();
        match (r1, r2) {
            (Ok(()), Ok(())) => {
                assert!(
                    wire == cat(&f1, &f2) || wire == cat(&f2, &f1),
                    "frames interleaved"
                );
                assert_eq!(io.shutdowns(), 0);
                assert!(!flow.is_shut());
            }
            (Ok(()), Err(TdpError::Disconnected)) => {
                assert_eq!(wire, cat(&f1, &f2[..TORN]));
                assert_eq!(io.shutdowns(), 1);
                assert!(flow.is_shut());
            }
            (Err(TdpError::Disconnected), Ok(())) => {
                assert_eq!(wire, cat(&f2, &f1[..TORN]));
                assert_eq!(io.shutdowns(), 1);
                assert!(flow.is_shut());
            }
            other => panic!("unexpected send results: {other:?}"),
        }
    });
}

/// Protocol 2: shutdown vs. an in-flight sender. `send` racing `close`
/// puts the whole frame on the wire (and then reports `Ok`) or no byte
/// of it; the socket is shut down exactly once and later sends fail.
#[test]
fn loom_close_races_send() {
    loom::model(|| {
        let f1 = frame(1);
        let io = FakeIo::new(1024);
        let flow = new_flow(&io);

        let c_flow = Arc::clone(&flow);
        let closer = loom::thread::spawn(move || c_flow.close());

        let sent = flow.send(&join(1));
        closer.join().unwrap();

        match sent {
            Ok(()) => assert_eq!(io.written(), f1, "Ok send must reach the wire"),
            Err(TdpError::Disconnected) => {
                assert!(io.written().is_empty(), "failed send must not leak bytes");
            }
            Err(e) => panic!("unexpected send error: {e:?}"),
        }
        assert_eq!(io.shutdowns(), 1);
        assert!(flow.is_shut());
        assert_eq!(flow.send(&join(2)), Err(TdpError::Disconnected));
        assert_eq!(io.written().len() % f1.len(), 0, "a send after close wrote");
    });
}

/// Protocol 3: a sender whose stall is running out vs. a local close.
/// Whoever raises `shut` first shuts the socket down — once — and only
/// a kill that won is counted; `shut` is up before either returns.
#[test]
fn loom_stall_kill_races_close() {
    // Outcomes seen across all executions: both winners must be
    // reachable, or the model is not exploring the race it names.
    let seen: &'static StdMutex<HashSet<&'static str>> = Box::leak(Box::default());
    loom::model(move || {
        let io = FakeIo::new(0); // a peer that never reads
        let flow = new_flow(&io);
        // Models run one at a time, so the process-wide counter's
        // delta is this execution's own.
        let kills = stall_kill_count();

        let c_flow = Arc::clone(&flow);
        let closer = loom::thread::spawn(move || {
            c_flow.close();
            assert!(c_flow.is_shut());
        });

        assert_eq!(flow.send(&join(1)), Err(TdpError::Disconnected));
        assert!(flow.is_shut(), "a failed stalled send leaves `shut` up");
        closer.join().unwrap();

        assert_eq!(io.shutdowns(), 1, "shut down twice, or never");
        assert!(io.written().is_empty());
        match stall_kill_count() - kills {
            0 => seen.lock().unwrap().insert("close won"),
            1 => seen.lock().unwrap().insert("kill won"),
            n => panic!("one stall recorded {n} kills"),
        };
    });
    assert_eq!(seen.lock().unwrap().len(), 2, "one winner never explored");
}
