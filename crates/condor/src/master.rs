//! `condor_master` — "its job is to keep track of the other Condor
//! daemons" (§4.1): a supervisor that probes a daemon's liveness and
//! restarts it from a factory when it dies. This implements the
//! fault-detection-and-recovery extension the paper lists as required
//! of the RM ("the RM must be able to detect these failures and
//! respond to them").

use std::sync::Arc;
use std::thread;
use std::time::Duration;
use tdp_core::World;
use tdp_proto::{Addr, HostId, TdpError, TdpResult};
use tdp_sync::channel::{bounded, RecvTimeoutError, Sender};
use tdp_sync::{Condvar, Mutex};

/// Supervises one daemon identified by its listening address.
pub struct Master {
    restarts: Arc<(Mutex<u64>, Condvar)>,
    stop_tx: Sender<()>,
    monitor: Option<thread::JoinHandle<()>>,
}

impl Master {
    /// Supervise the daemon listening at `probe()`'s address. The
    /// `restart` closure must bring a replacement up (rebinding the same
    /// well-known port) and return its address. Probing opens a
    /// connection from `host` every `interval`; a refused connection
    /// triggers a restart.
    pub fn supervise(
        world: &World,
        host: HostId,
        addr: Addr,
        interval: Duration,
        restart: impl FnMut() -> TdpResult<Addr> + Send + 'static,
    ) -> Master {
        let restarts: Arc<(Mutex<u64>, Condvar)> = Arc::new((Mutex::new(0), Condvar::new()));
        // The stop channel doubles as the tick timer: a recv timeout is
        // one probe interval, a received message (or a dropped sender)
        // is shutdown — so shutdown never waits out a sleep.
        let (stop_tx, stop_rx) = bounded::<()>(1);
        let r2 = restarts.clone();
        let world = world.clone();
        let current = Arc::new(Mutex::new(addr));
        let monitor = thread::Builder::new()
            .name(format!("condor-master-{host}"))
            .spawn(move || {
                let mut restart = restart;
                loop {
                    match stop_rx.recv_timeout(interval) {
                        Err(RecvTimeoutError::Timeout) => {}
                        _ => return,
                    }
                    let target = *current.lock();
                    match world.net().connect(host, target) {
                        Ok(conn) => drop(conn), // alive; close the probe
                        Err(_) => {
                            // Daemon gone: bring up a replacement.
                            if let Ok(new_addr) = restart() {
                                *current.lock() = new_addr;
                                let (count, cv) = &*r2;
                                *count.lock() += 1;
                                cv.notify_all();
                            }
                        }
                    }
                }
            })
            .expect("spawn master monitor");
        Master {
            restarts,
            stop_tx,
            monitor: Some(monitor),
        }
    }

    /// How many times the supervised daemon has been restarted.
    pub fn restart_count(&self) -> u64 {
        *self.restarts.0.lock()
    }

    /// Block until at least `n` restarts have happened; returns the
    /// count observed. Lets tests (and operators) wait on recovery
    /// without polling.
    pub fn wait_restarts(&self, n: u64, timeout: Duration) -> TdpResult<u64> {
        let (count, cv) = &*self.restarts;
        let mut c = count.lock();
        if cv.wait_while_for(&mut c, |c| *c < n, timeout).timed_out() {
            return Err(TdpError::Timeout);
        }
        Ok(*c)
    }

    /// Stop supervising.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let _ = self.stop_tx.try_send(());
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Master {
    fn drop(&mut self) {
        self.stop_inner();
    }
}
