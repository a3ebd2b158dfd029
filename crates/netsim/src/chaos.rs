//! Scriptable fault schedules — the chaos layer of the soak harness.
//!
//! A [`FaultSchedule`] is a timeline of [`FaultEvent`]s at offsets from
//! injection start. The [`FaultInjector`] replays it on a background
//! thread against an arbitrary `apply` callback, so layers above the
//! network (the `World`, which also owns LASS/CASS processes) can
//! interpret events the fabric alone cannot, via [`FaultEvent::Custom`].
//! Network-level events have a direct interpretation here in
//! [`Network::apply_fault`].
//!
//! The injector waits between events on a channel, not a sleep, so
//! [`FaultInjector::stop`] cancels the remainder of a schedule promptly.

use crate::network::{Network, ZoneId};
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tdp_proto::HostId;
use tdp_sync::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use tdp_sync::Mutex;

/// One injected fault (or repair). `Custom` strings are interpreted by
/// whatever `apply` callback the injector was started with; by
/// convention the `World` understands `kill-lass:<host>` and
/// `kill-cass`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    KillHost(HostId),
    ReviveHost(HostId),
    Partition(ZoneId, ZoneId),
    Heal(ZoneId, ZoneId),
    Custom(String),
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::KillHost(h) => write!(f, "kill-host {h}"),
            FaultEvent::ReviveHost(h) => write!(f, "revive-host {h}"),
            FaultEvent::Partition(a, b) => write!(f, "partition {}<->{}", a.0, b.0),
            FaultEvent::Heal(a, b) => write!(f, "heal {}<->{}", a.0, b.0),
            FaultEvent::Custom(s) => write!(f, "custom {s}"),
        }
    }
}

/// A timeline of faults at offsets from injection start. Events fire in
/// offset order regardless of insertion order.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<(Duration, FaultEvent)>,
}

impl FaultSchedule {
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Builder-style: add an event at `offset` from start.
    pub fn at(mut self, offset: Duration, event: FaultEvent) -> FaultSchedule {
        self.push(offset, event);
        self
    }

    pub fn push(&mut self, offset: Duration, event: FaultEvent) {
        let idx = self.events.partition_point(|(off, _)| *off <= offset);
        self.events.insert(idx, (offset, event));
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total span of the schedule (offset of the last event).
    pub fn span(&self) -> Duration {
        self.events.last().map(|(off, _)| *off).unwrap_or_default()
    }

    pub fn events(&self) -> &[(Duration, FaultEvent)] {
        &self.events
    }
}

/// A line in the injector's timeline log: when (offset from start) an
/// event actually fired, and its description.
pub type FaultLogEntry = (Duration, String);

/// Replays a [`FaultSchedule`] on a background thread.
pub struct FaultInjector {
    handle: Option<JoinHandle<()>>,
    stop_tx: Sender<()>,
    log: Arc<Mutex<Vec<FaultLogEntry>>>,
}

impl FaultInjector {
    /// Start replaying `schedule`, delivering each event to `apply`.
    pub fn start<F>(schedule: FaultSchedule, mut apply: F) -> FaultInjector
    where
        F: FnMut(&FaultEvent) + Send + 'static,
    {
        let (stop_tx, stop_rx): (Sender<()>, Receiver<()>) = bounded(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let handle = std::thread::Builder::new()
            .name("chaos-injector".into())
            .spawn(move || {
                let start = Instant::now();
                for (offset, event) in schedule.events {
                    let now = start.elapsed();
                    if offset > now {
                        // Waiting on the stop channel doubles as the
                        // inter-event delay; a stop message (or the
                        // injector handle dropping) cancels the rest
                        // of the schedule.
                        match stop_rx.recv_timeout(offset - now) {
                            Err(RecvTimeoutError::Timeout) => {}
                            _ => return,
                        }
                    }
                    apply(&event);
                    log2.lock().push((start.elapsed(), event.to_string()));
                }
            })
            .expect("spawn chaos-injector");
        FaultInjector {
            handle: Some(handle),
            stop_tx,
            log,
        }
    }

    /// Convenience: replay against a [`Network`], ignoring `Custom`
    /// events (use a closure over [`Network::apply_fault`] plus your own
    /// dispatch when customs matter).
    pub fn start_on_network(schedule: FaultSchedule, net: Network) -> FaultInjector {
        FaultInjector::start(schedule, move |ev| net.apply_fault(ev))
    }

    /// Wait for the whole schedule to finish; returns the timeline of
    /// events that fired.
    pub fn join(mut self) -> Vec<FaultLogEntry> {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        std::mem::take(&mut *self.log.lock())
    }

    /// Cancel any remaining events and return the timeline so far.
    pub fn stop(mut self) -> Vec<FaultLogEntry> {
        let _ = self.stop_tx.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        std::mem::take(&mut *self.log.lock())
    }

    /// Snapshot of the events fired so far, without waiting.
    pub fn log_so_far(&self) -> Vec<FaultLogEntry> {
        self.log.lock().clone()
    }
}

impl Drop for FaultInjector {
    fn drop(&mut self) {
        let _ = self.stop_tx.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Network {
    /// Apply the network-level interpretation of a fault event.
    /// `Custom` events are not the fabric's to interpret and are
    /// ignored.
    pub fn apply_fault(&self, event: &FaultEvent) {
        match event {
            FaultEvent::KillHost(h) => self.kill_host(*h),
            FaultEvent::ReviveHost(h) => self.revive_host(*h),
            FaultEvent::Partition(a, b) => self.partition(*a, *b),
            FaultEvent::Heal(a, b) => self.heal_partition(*a, *b),
            FaultEvent::Custom(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_proto::Addr;

    #[test]
    fn schedule_orders_by_offset() {
        let s = FaultSchedule::new()
            .at(Duration::from_millis(20), FaultEvent::KillHost(HostId(1)))
            .at(Duration::from_millis(5), FaultEvent::Custom("x".into()))
            .at(Duration::from_millis(20), FaultEvent::ReviveHost(HostId(1)));
        let offs: Vec<_> = s.events().iter().map(|(o, _)| o.as_millis()).collect();
        assert_eq!(offs, vec![5, 20, 20]);
        // Equal offsets keep insertion order.
        assert_eq!(s.events()[1].1, FaultEvent::KillHost(HostId(1)));
        assert_eq!(s.span(), Duration::from_millis(20));
    }

    #[test]
    fn injector_replays_against_network() {
        let net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let _l = net.listen(b, 7).unwrap();
        let sched = FaultSchedule::new()
            .at(Duration::ZERO, FaultEvent::KillHost(b))
            .at(Duration::from_millis(10), FaultEvent::ReviveHost(b));
        let log = FaultInjector::start_on_network(sched, net.clone()).join();
        assert_eq!(log.len(), 2);
        assert!(net.host_alive(b));
        // Listener died with the host; the port is free again.
        assert!(net.connect(a, Addr::new(b, 7)).is_err());
        assert!(net.listen(b, 7).is_ok());
    }

    #[test]
    fn stop_cancels_remaining_events() {
        let flag = Arc::new(Mutex::new(0u32));
        let f2 = Arc::clone(&flag);
        let sched = FaultSchedule::new()
            .at(Duration::ZERO, FaultEvent::Custom("now".into()))
            .at(Duration::from_secs(30), FaultEvent::Custom("never".into()));
        let inj = FaultInjector::start(sched, move |_| *f2.lock() += 1);
        // The first event fires immediately; wait for it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while inj.log_so_far().is_empty() {
            assert!(Instant::now() < deadline, "first event never fired");
            std::thread::park_timeout(Duration::from_millis(1));
        }
        let log = inj.stop();
        assert_eq!(log.len(), 1, "{log:?}");
        assert_eq!(*flag.lock(), 1);
    }
}
