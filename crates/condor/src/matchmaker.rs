//! The matchmaker (Condor's collector + negotiator): machines advertise
//! themselves; the schedd asks for a compatible machine per job; rank
//! breaks ties (Figure 4's `match_maker`).

use crate::classad::ClassAd;
use crate::messages::{recv_json, recv_json_timeout, send_json, MmMsg};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tdp_core::Supervisable;
use tdp_netsim::Network;
use tdp_proto::{Addr, HostId, TdpError, TdpResult};
use tdp_sync::{Condvar, Mutex};

/// The matchmaker's well-known port on the central-manager host.
pub const MATCHMAKER_PORT: u16 = 9618;

/// Longest a `Negotiate` is held waiting for a machine, whatever budget
/// it asks for. Requesters set their reply timeout above this, so a
/// matchmaker that died holding a request is still found out by a timer.
pub const MAX_PARK: Duration = Duration::from_secs(4);

#[derive(Clone)]
struct MachineEntry {
    host: HostId,
    startd: Addr,
    ad: ClassAd,
    available: bool,
}

#[derive(Default)]
struct Table {
    machines: BTreeMap<String, MachineEntry>,
    /// Set by [`Matchmaker::stop`]: parked negotiators answer `NoMatch`
    /// now instead of at their deadline.
    stopped: bool,
}

impl Table {
    fn snapshot(&self) -> Vec<(String, bool)> {
        self.machines
            .iter()
            .map(|(n, e)| (n.clone(), e.available))
            .collect()
    }
}

/// Machine table plus a condvar notified on every change: a `Negotiate`
/// nothing matches parks on it until a machine registers or frees up,
/// and `wait_machines` callers (tests, the ops supervisor) block on it
/// instead of polling.
type Machines = Arc<(Mutex<Table>, Condvar)>;

/// The running matchmaker.
pub struct Matchmaker {
    addr: Addr,
    net: Network,
    machines: Machines,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Matchmaker {
    /// Start on the central-manager host.
    pub fn start(net: &Network, host: HostId) -> TdpResult<Matchmaker> {
        let listener = net.listen(host, MATCHMAKER_PORT)?;
        let addr = listener.local_addr();
        let machines: Machines = Arc::new(Default::default());
        let m2 = machines.clone();
        let accept_thread = thread::Builder::new()
            .name("condor-matchmaker".into())
            .spawn(move || {
                while let Ok(mut conn) = listener.accept() {
                    let machines = m2.clone();
                    thread::Builder::new()
                        .name("matchmaker-session".into())
                        .spawn(move || {
                            while let Ok(msg) = recv_json::<MmMsg>(&mut conn) {
                                let reply = handle(&machines, msg);
                                if send_json(&conn, &reply).is_err() {
                                    break;
                                }
                            }
                        })
                        .expect("spawn matchmaker session");
                }
            })
            .map_err(|e| TdpError::Substrate(format!("spawn matchmaker: {e}")))?;
        Ok(Matchmaker {
            addr,
            net: net.clone(),
            machines,
            accept_thread: Some(accept_thread),
        })
    }

    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Registered machine names with availability (tests/diagnostics).
    pub fn machines(&self) -> Vec<(String, bool)> {
        self.machines.0.lock().snapshot()
    }

    /// Block until the machine table satisfies `pred` (checked on every
    /// register/update/unregister); returns the satisfying snapshot.
    pub fn wait_machines(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(&[(String, bool)]) -> bool,
    ) -> TdpResult<Vec<(String, bool)>> {
        let deadline = Instant::now() + timeout;
        let (lock, cv) = &*self.machines;
        let mut m = lock.lock();
        loop {
            let snap = m.snapshot();
            if pred(&snap) {
                return Ok(snap);
            }
            if cv.wait_until(&mut m, deadline).timed_out() {
                return Err(TdpError::Timeout);
            }
        }
    }

    /// Stop accepting connections and release every parked negotiator.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.net.unbind(self.addr);
        self.machines.0.lock().stopped = true;
        self.machines.1.notify_all();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Matchmaker {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Supervisable for Matchmaker {
    fn ops_name(&self) -> String {
        format!("condor.matchmaker.{}", self.addr.host.0)
    }

    fn ops_probe(&self) -> TdpResult<()> {
        // Prove it still answers its protocol, not just accepts.
        let mut conn = self.net.connect(self.addr.host, self.addr)?;
        send_json(&conn, &MmMsg::QueryMachines)?;
        recv_json_timeout::<MmMsg>(&mut conn, Duration::from_secs(5))?;
        Ok(())
    }
}

/// The matchmaking algorithm: among available, mutually-matching
/// machines, pick the one the job ranks highest (ties: name order, for
/// determinism). A `Negotiate` nothing matches parks for up to its
/// `budget_us` ([`MAX_PARK`] at most) and is re-run on every table change, so a freed slot
/// reaches the waiting schedd as an event; `NoMatch` means the budget
/// ran out. Check and wait happen under the lock the updates take, so
/// no wake-up is lost, and the lock is released before the reply is
/// sent.
fn handle(machines: &(Mutex<Table>, Condvar), msg: MmMsg) -> MmMsg {
    match msg {
        MmMsg::RegisterMachine {
            name,
            host,
            startd,
            ad,
        } => {
            machines.0.lock().machines.insert(
                name,
                MachineEntry {
                    host,
                    startd,
                    ad,
                    available: true,
                },
            );
            machines.1.notify_all();
            MmMsg::Ack
        }
        MmMsg::UpdateMachine { name, available } => {
            if let Some(e) = machines.0.lock().machines.get_mut(&name) {
                e.available = available;
            }
            machines.1.notify_all();
            MmMsg::Ack
        }
        MmMsg::UnregisterMachine { name } => {
            machines.0.lock().machines.remove(&name);
            machines.1.notify_all();
            MmMsg::Ack
        }
        MmMsg::Negotiate {
            job_ad,
            exclude,
            budget_us,
        } => {
            let deadline = Instant::now() + Duration::from_micros(budget_us).min(MAX_PARK);
            let (lock, cv) = machines;
            let mut table = lock.lock();
            loop {
                let best = table
                    .machines
                    .iter()
                    .filter(|(name, e)| {
                        e.available && !exclude.contains(name) && job_ad.matches(&e.ad)
                    })
                    .max_by_key(|(name, e)| {
                        (job_ad.rank_of(&e.ad), std::cmp::Reverse((*name).clone()))
                    });
                if let Some((name, e)) = best {
                    return MmMsg::MatchFound {
                        name: name.clone(),
                        host: e.host,
                        startd: e.startd,
                        ad: e.ad.clone(),
                    };
                }
                if table.stopped || cv.wait_until(&mut table, deadline).timed_out() {
                    return MmMsg::NoMatch;
                }
            }
        }
        MmMsg::QueryMachines => MmMsg::Machines(machines.0.lock().snapshot()),
        other => {
            // Replies arriving as requests: protocol misuse; answer Ack
            // so the session stays alive for diagnostics.
            let _ = other;
            MmMsg::Ack
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::recv_json_timeout;
    use std::time::Duration;

    fn ask(net: &Network, from: HostId, mm: Addr, msg: MmMsg) -> MmMsg {
        let mut conn = net.connect(from, mm).unwrap();
        send_json(&conn, &msg).unwrap();
        recv_json_timeout(&mut conn, Duration::from_secs(5)).unwrap()
    }

    fn reg(name: &str, mem: i64) -> MmMsg {
        MmMsg::RegisterMachine {
            name: name.into(),
            host: HostId(1),
            startd: Addr::new(HostId(1), 9620),
            ad: ClassAd::new()
                .with_int("Memory", mem)
                .with_bool("HasTdp", true),
        }
    }

    #[test]
    fn register_and_negotiate() {
        let net = Network::new();
        let cm = net.add_host();
        let client = net.add_host();
        let mm = Matchmaker::start(&net, cm).unwrap();
        assert!(matches!(
            ask(&net, client, mm.addr(), reg("m1", 256)),
            MmMsg::Ack
        ));
        assert!(matches!(
            ask(&net, client, mm.addr(), reg("m2", 2048)),
            MmMsg::Ack
        ));
        // Job needing lots of memory matches only m2.
        let job = ClassAd::new().require("Memory >= 1024");
        match ask(
            &net,
            client,
            mm.addr(),
            MmMsg::Negotiate {
                job_ad: job,
                exclude: vec![],
                budget_us: 0,
            },
        ) {
            MmMsg::MatchFound { name, .. } => assert_eq!(name, "m2"),
            other => panic!("expected match, got {other:?}"),
        }
        // Impossible job: no match.
        let job = ClassAd::new().require("Memory >= 99999");
        assert!(matches!(
            ask(
                &net,
                client,
                mm.addr(),
                MmMsg::Negotiate {
                    job_ad: job,
                    exclude: vec![],
                    budget_us: 0,
                }
            ),
            MmMsg::NoMatch
        ));
    }

    #[test]
    fn rank_prefers_best_machine() {
        let net = Network::new();
        let cm = net.add_host();
        let client = net.add_host();
        let mm = Matchmaker::start(&net, cm).unwrap();
        ask(&net, client, mm.addr(), reg("small", 128));
        ask(&net, client, mm.addr(), reg("big", 4096));
        let job = ClassAd::new().rank_by("Memory");
        match ask(
            &net,
            client,
            mm.addr(),
            MmMsg::Negotiate {
                job_ad: job,
                exclude: vec![],
                budget_us: 0,
            },
        ) {
            MmMsg::MatchFound { name, .. } => assert_eq!(name, "big"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exclusion_and_availability() {
        let net = Network::new();
        let cm = net.add_host();
        let client = net.add_host();
        let mm = Matchmaker::start(&net, cm).unwrap();
        ask(&net, client, mm.addr(), reg("m1", 512));
        ask(&net, client, mm.addr(), reg("m2", 512));
        let job = ClassAd::new();
        // Exclude m1 -> must pick m2.
        match ask(
            &net,
            client,
            mm.addr(),
            MmMsg::Negotiate {
                job_ad: job.clone(),
                exclude: vec!["m1".into()],
                budget_us: 0,
            },
        ) {
            MmMsg::MatchFound { name, .. } => assert_eq!(name, "m2"),
            other => panic!("{other:?}"),
        }
        // Mark both busy -> no match.
        ask(
            &net,
            client,
            mm.addr(),
            MmMsg::UpdateMachine {
                name: "m1".into(),
                available: false,
            },
        );
        ask(
            &net,
            client,
            mm.addr(),
            MmMsg::UpdateMachine {
                name: "m2".into(),
                available: false,
            },
        );
        assert!(matches!(
            ask(
                &net,
                client,
                mm.addr(),
                MmMsg::Negotiate {
                    job_ad: job,
                    exclude: vec![],
                    budget_us: 0,
                }
            ),
            MmMsg::NoMatch
        ));
    }

    #[test]
    fn unregister_removes() {
        let net = Network::new();
        let cm = net.add_host();
        let client = net.add_host();
        let mm = Matchmaker::start(&net, cm).unwrap();
        ask(&net, client, mm.addr(), reg("m1", 512));
        assert_eq!(mm.machines().len(), 1);
        ask(
            &net,
            client,
            mm.addr(),
            MmMsg::UnregisterMachine { name: "m1".into() },
        );
        assert_eq!(mm.machines().len(), 0);
    }

    #[test]
    fn deterministic_tie_break() {
        let net = Network::new();
        let cm = net.add_host();
        let client = net.add_host();
        let mm = Matchmaker::start(&net, cm).unwrap();
        ask(&net, client, mm.addr(), reg("zeta", 512));
        ask(&net, client, mm.addr(), reg("alpha", 512));
        match ask(
            &net,
            client,
            mm.addr(),
            MmMsg::Negotiate {
                job_ad: ClassAd::new(),
                exclude: vec![],
                budget_us: 0,
            },
        ) {
            MmMsg::MatchFound { name, .. } => assert_eq!(name, "alpha"),
            other => panic!("{other:?}"),
        }
    }

    // ---- Parked negotiates ------------------------------------------

    /// Long enough that only an event, never the budget, can answer.
    const PARK: Duration = Duration::from_secs(5);
    /// How long a parked request is watched staying silent.
    const QUIET: Duration = Duration::from_millis(50);

    struct Rig {
        net: Network,
        client: HostId,
        mm: Matchmaker,
    }

    /// A matchmaker whose machines `m1`, `m2`, … are all busy.
    fn rig(busy: &[&str]) -> Rig {
        let net = Network::new();
        let cm = net.add_host();
        let client = net.add_host();
        let mm = Matchmaker::start(&net, cm).unwrap();
        let r = Rig { net, client, mm };
        for name in busy {
            r.ask(reg(name, 512));
            r.ask(update(name, false));
        }
        r
    }

    fn update(name: &str, available: bool) -> MmMsg {
        MmMsg::UpdateMachine {
            name: name.into(),
            available,
        }
    }

    impl Rig {
        fn ask(&self, msg: MmMsg) -> MmMsg {
            ask(&self.net, self.client, self.mm.addr(), msg)
        }

        /// Send a `Negotiate` and hand back the connection its answer
        /// will arrive on.
        fn negotiate(&self, exclude: &[&str], budget: Duration) -> tdp_netsim::Conn {
            let conn = self.net.connect(self.client, self.mm.addr()).unwrap();
            send_json(
                &conn,
                &MmMsg::Negotiate {
                    job_ad: ClassAd::new(),
                    exclude: exclude.iter().map(|s| s.to_string()).collect(),
                    budget_us: budget.as_micros() as u64,
                },
            )
            .unwrap();
            conn
        }
    }

    fn assert_parked(conn: &mut tdp_netsim::Conn) {
        match recv_json_timeout::<MmMsg>(conn, QUIET) {
            Err(TdpError::Timeout) => {}
            other => panic!("negotiate answered while nothing matched: {other:?}"),
        }
    }

    fn answer(conn: &mut tdp_netsim::Conn) -> MmMsg {
        recv_json_timeout(conn, PARK - Duration::from_secs(1)).unwrap()
    }

    #[test]
    fn parked_negotiate_is_answered_by_a_freed_machine() {
        let r = rig(&["m1"]);
        let mut conn = r.negotiate(&[], PARK);
        assert_parked(&mut conn);
        r.ask(update("m1", true));
        match answer(&mut conn) {
            MmMsg::MatchFound { name, .. } => assert_eq!(name, "m1"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_budget_is_held_no_longer_than_max_park() {
        // The budget is a peer's number: whatever it says, the request
        // comes back inside the requester's 5 s reply timeout.
        let r = rig(&["m1"]);
        let t0 = Instant::now();
        let mut conn = r.negotiate(&[], Duration::from_secs(3600));
        let reply = recv_json_timeout::<MmMsg>(&mut conn, MAX_PARK + Duration::from_millis(900));
        assert!(matches!(reply, Ok(MmMsg::NoMatch)), "{reply:?}");
        assert!(t0.elapsed() >= MAX_PARK, "{:?}", t0.elapsed());
    }

    #[test]
    fn parked_negotiate_is_answered_by_a_new_machine() {
        let r = rig(&["m1"]);
        let mut conn = r.negotiate(&[], PARK);
        assert_parked(&mut conn);
        r.ask(reg("m2", 512));
        match answer(&mut conn) {
            MmMsg::MatchFound { name, .. } => assert_eq!(name, "m2"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_match_comes_at_the_deadline_not_before() {
        let r = rig(&["m1"]);
        let budget = Duration::from_millis(120);
        let t0 = Instant::now();
        let mut conn = r.negotiate(&[], budget);
        assert!(matches!(answer(&mut conn), MmMsg::NoMatch));
        assert!(t0.elapsed() >= budget, "{:?}", t0.elapsed());
        // Budget 0 is the immediate answer it always was: it comes back
        // inside the time the request above had to sit out.
        let t0 = Instant::now();
        let mut conn = r.negotiate(&[], Duration::ZERO);
        assert!(matches!(answer(&mut conn), MmMsg::NoMatch));
        assert!(t0.elapsed() < budget, "{:?}", t0.elapsed());
    }

    #[test]
    fn excluded_machine_freeing_does_not_answer() {
        let r = rig(&["m1", "m2"]);
        let budget = Duration::from_millis(150);
        let t0 = Instant::now();
        let mut conn = r.negotiate(&["m1"], budget);
        r.ask(update("m1", true));
        assert!(matches!(answer(&mut conn), MmMsg::NoMatch));
        assert!(t0.elapsed() >= budget, "{:?}", t0.elapsed());
        // The same event does answer a request that leaves m1 in.
        let mut conn = r.negotiate(&["m2"], PARK);
        match answer(&mut conn) {
            MmMsg::MatchFound { name, .. } => assert_eq!(name, "m1"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn one_freed_slot_wakes_every_parked_negotiator() {
        let r = rig(&["m1"]);
        let mut a = r.negotiate(&[], PARK);
        let mut b = r.negotiate(&[], PARK);
        assert_parked(&mut a);
        assert_parked(&mut b);
        r.ask(update("m1", true));
        // Both are told (the claim at the startd settles who runs
        // first); neither sleeps on to its deadline.
        for conn in [&mut a, &mut b] {
            assert!(matches!(answer(conn), MmMsg::MatchFound { .. }));
        }
    }

    #[test]
    fn update_racing_the_park_is_never_lost() {
        // The negotiate and the update that satisfies it are sent back
        // to back from two connections, so across the rounds the update
        // lands before, during and after the check-then-wait. A lost
        // wake-up would leave the request parked to its 5 s budget and
        // `answer` would time out first.
        let r = rig(&["m1"]);
        for round in 0..200 {
            let mut conn = r.negotiate(&[], PARK);
            r.ask(update("m1", true));
            assert!(
                matches!(answer(&mut conn), MmMsg::MatchFound { .. }),
                "round {round}"
            );
            r.ask(update("m1", false));
        }
    }

    #[test]
    fn shutdown_releases_parked_negotiators() {
        let r = rig(&["m1"]);
        let mut conn = r.negotiate(&[], PARK);
        assert_parked(&mut conn);
        let t0 = Instant::now();
        r.mm.shutdown();
        assert!(matches!(answer(&mut conn), MmMsg::NoMatch));
        assert!(t0.elapsed() < PARK / 2, "{:?}", t0.elapsed());
    }
}
