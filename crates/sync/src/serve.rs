//! The one accept loop every daemon runs: accept a connection, hand it
//! to a handler on a session thread, repeat until the listener is
//! closed. Generic over [`Accept`], so the simulated fabric's listener,
//! the wire listener and a raw `TcpListener` all fit. Session threads
//! come from a [`ThreadCache`]: a thread per *concurrent* connection,
//! kept for [`crate::thread::IDLE`] after its session ends.
//!
//! [`Server::close`] does *not* join session threads: a session ends
//! when its peer closes, and waiting for a peer that is still alive
//! would make a daemon's `Drop` hang. A daemon that must sever live
//! sessions on stop does so itself.

use crate::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::thread::ThreadCache;
use crate::{Arc, Mutex};
use std::io;
use std::thread::{self, JoinHandle};

/// A listener [`serve`] can drive.
pub trait Accept: Send + Sync + 'static {
    type Conn: Send + 'static;
    /// Block for the next connection; `None` ends the accept loop.
    fn accept(&self) -> Option<Self::Conn>;
    /// Stop accepting. Must make a blocked [`Accept::accept`] return.
    fn close(&self);
}

#[derive(Default)]
struct Counts {
    live: AtomicUsize,
    spawned: AtomicU64,
}

/// Decrements `live` when its session ends — by return, by panic, or
/// because its thread could not be spawned.
struct Live(Arc<Counts>);

impl Drop for Live {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What [`Server::close`] takes down: a closure that closes, then
/// drops, the listener; and the accept thread.
type Running = (Box<dyn FnOnce() + Send>, JoinHandle<()>);

/// A running accept loop. Dropping it closes it.
pub struct Server {
    running: Mutex<Option<Running>>,
    counts: Arc<Counts>,
}

/// Serve `listener` on an accept thread named `name`, running `handler`
/// for each connection on a thread named `<name>-conn` — an idle one
/// left by an earlier session, or a new one. A session whose thread
/// cannot be spawned is dropped (its peer sees EOF) and the loop keeps
/// accepting. `name` is at most 10 bytes so that `<name>-conn` fits the
/// 15 bytes Linux keeps of a thread name. The session threads' cache
/// belongs to the accept thread, so it goes when the loop ends.
pub fn serve<L: Accept>(
    name: &'static str,
    listener: L,
    handler: impl Fn(L::Conn) + Send + Sync + 'static,
) -> io::Result<Server> {
    debug_assert!(
        name.len() <= 10,
        "serve name `{name}` is over 10 bytes; `{name}-conn` would be cut to 15 in /proc"
    );
    let listener = Arc::new(listener);
    let counts = Arc::new(Counts::default());
    let (l, c) = (listener.clone(), counts.clone());
    let accept_thread = thread::Builder::new().name(name.into()).spawn(move || {
        let handler = Arc::new(handler);
        let sessions = ThreadCache::new(format!("{name}-conn"));
        while let Some(conn) = l.accept() {
            c.live.fetch_add(1, Ordering::Relaxed);
            let (live, handler) = (Live(c.clone()), handler.clone());
            let _ = sessions.run(move || {
                let _live = live;
                handler(conn)
            });
            c.spawned.store(sessions.spawned(), Ordering::Relaxed);
        }
    });
    let accept_thread = accept_thread.inspect_err(|_| listener.close())?;
    let close: Box<dyn FnOnce() + Send> = Box::new(move || listener.close());
    Ok(Server {
        running: Mutex::new(Some((close, accept_thread))),
        counts,
    })
}

impl Server {
    /// Sessions whose handler is still running.
    pub fn live(&self) -> usize {
        self.counts.live.load(Ordering::Relaxed)
    }

    /// Session threads started since [`serve`]; a session that found an
    /// idle thread started none.
    pub fn spawned(&self) -> u64 {
        self.counts.spawned.load(Ordering::Relaxed)
    }

    /// Close the listener, join the accept thread, and drop the
    /// listener, so its port can be bound again. Idempotent; live
    /// sessions are left to end with their peers.
    pub fn close(&self) {
        let Some((close, accept_thread)) = self.running.lock().take() else {
            return;
        };
        close();
        // The last owner of a daemon can be its own accept thread (a
        // handler holding it); that thread is already on its way out.
        if accept_thread.thread().id() != thread::current().id() {
            let _ = accept_thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::channel::{bounded, Receiver, Sender};
    use std::time::Duration;

    /// A listener over a channel: a "connection" is a receiver its
    /// handler holds until the peer drops the sending half.
    struct ChanListener {
        incoming: Receiver<Receiver<()>>,
        feed: Mutex<Option<Sender<Receiver<()>>>>,
    }

    impl Accept for ChanListener {
        type Conn = Receiver<()>;
        fn accept(&self) -> Option<Receiver<()>> {
            self.incoming.recv().ok()
        }
        fn close(&self) {
            self.feed.lock().take();
        }
    }

    fn comms() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim_end().to_string())
            .collect()
    }

    #[test]
    fn serve_thread_names_survive_proc() {
        let (feed, incoming) = bounded(1);
        let dial = feed.clone();
        let (started_tx, started) = bounded(1);
        let server = serve(
            "census",
            ChanListener {
                incoming,
                feed: Mutex::new(Some(feed)),
            },
            move |conn: Receiver<()>| {
                let _ = started_tx.send(());
                while conn.recv().is_ok() {}
            },
        )
        .unwrap();
        let (peer, conn) = bounded(1);
        assert!(dial.send(conn).is_ok());
        drop(dial);
        // A thread carries its name before its closure runs.
        started.recv_timeout(Duration::from_secs(5)).unwrap();
        let names = comms();
        assert!(names.iter().any(|n| n == "census"), "{names:?}");
        assert!(names.iter().any(|n| n == "census-conn"), "{names:?}");
        drop(peer);
        server.close();
        server.close();
        assert_eq!(server.spawned(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "over 10 bytes")]
    fn serve_rejects_a_name_proc_would_cut() {
        let (feed, incoming) = bounded(1);
        let _ = serve(
            "eleven-byte",
            ChanListener {
                incoming,
                feed: Mutex::new(Some(feed)),
            },
            drop,
        );
    }
}
