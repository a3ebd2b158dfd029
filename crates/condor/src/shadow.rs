//! `condor_shadow` — the submit-side per-job agent.
//!
//! "Any system call performed on the remote execute machine is sent
//! over the network to the condor_shadow which actually performs the
//! system call (such as file I/O) on the submit machine, and the result
//! is sent back over the network to the remote job." (§4.1)
//!
//! Our shadow serves file fetch/store against the submit host's
//! filesystem (used both by the standard universe's remote I/O and by
//! the starter's input/output staging) and records per-rank status
//! reports.

use crate::messages::{recv_json, send_json, ShadowMsg};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use tdp_core::World;
use tdp_proto::{Addr, HostId, JobId, ProcStatus, TdpError, TdpResult};
use tdp_sync::{Condvar, Mutex};

#[derive(Default)]
struct ShadowState {
    /// Latest status per rank.
    status: HashMap<u32, ProcStatus>,
    /// Terminal status per rank.
    done: HashMap<u32, ProcStatus>,
    /// Starter-level failures pending requeue, per rank.
    failures: Vec<(u32, String)>,
}

/// A running shadow.
pub struct Shadow {
    job: JobId,
    addr: Addr,
    world: World,
    state: Arc<(Mutex<ShadowState>, Condvar)>,
}

impl Shadow {
    /// Start a shadow for `job` on the submit host.
    pub fn start(world: &World, submit_host: HostId, job: JobId) -> TdpResult<Shadow> {
        let listener = world.net().listen(submit_host, 0)?;
        let addr = listener.local_addr();
        let state: Arc<(Mutex<ShadowState>, Condvar)> = Arc::new(Default::default());
        let st = state.clone();
        let w = world.clone();
        thread::Builder::new()
            .name(format!("condor-shadow-{job}"))
            .spawn(move || {
                while let Ok(mut conn) = listener.accept() {
                    let st = st.clone();
                    let w = w.clone();
                    thread::Builder::new()
                        .name(format!("shadow-session-{job}"))
                        .spawn(move || {
                            // Replies are best-effort: a starter that has
                            // already disconnected still deserves to have
                            // its queued requests (the final JobDone!)
                            // processed, so only a recv EOF ends the
                            // session — never a failed reply.
                            while let Ok(msg) = recv_json::<ShadowMsg>(&mut conn) {
                                let reply = serve(&w, submit_host, &st, msg);
                                let _ = send_json(&conn, &reply);
                            }
                        })
                        .expect("spawn shadow session");
                }
            })
            .map_err(|e| TdpError::Substrate(format!("spawn shadow: {e}")))?;
        Ok(Shadow {
            job,
            addr,
            world: world.clone(),
            state,
        })
    }

    pub fn job(&self) -> JobId {
        self.job
    }

    /// Where starters contact this shadow.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Latest status of a rank, if any was reported.
    pub fn status_of(&self, rank: u32) -> Option<ProcStatus> {
        self.state.0.lock().status.get(&rank).copied()
    }

    /// Terminal status of a rank, if it has one — the schedd's
    /// host-death sweep uses this to tell "still running on a dead
    /// host" from "finished before the host died".
    pub fn done_of(&self, rank: u32) -> Option<ProcStatus> {
        self.state.0.lock().done.get(&rank).copied()
    }

    /// Block until `ranks` ranks have reported terminal status; returns
    /// rank → status.
    pub fn wait_done(&self, ranks: u32, timeout: Duration) -> TdpResult<HashMap<u32, ProcStatus>> {
        let (lock, cv) = &*self.state;
        let mut s = lock.lock();
        let waited = cv.wait_while_for(&mut s, |s| (s.done.len() as u32) < ranks, timeout);
        if waited.timed_out() {
            return Err(TdpError::Timeout);
        }
        Ok(s.done.clone())
    }

    /// Block until `rank` reports `Running` — or a terminal status: it
    /// may crash before it ever runs. The MPI staged start-up waits here
    /// for rank 0 (§4.3).
    pub fn wait_started(&self, rank: u32, timeout: Duration) -> TdpResult<ProcStatus> {
        let started = |s: &ShadowState| {
            s.status
                .get(&rank)
                .copied()
                .filter(|st| *st == ProcStatus::Running || st.is_terminal())
        };
        let (lock, cv) = &*self.state;
        let mut s = lock.lock();
        cv.wait_while_for(&mut s, |s| started(s).is_none(), timeout);
        started(&s).ok_or(TdpError::Timeout)
    }

    /// Forget a rank's terminal status so it can be re-run (checkpoint
    /// requeue after a vacate).
    pub fn clear_rank(&self, rank: u32) {
        let (lock, _) = &*self.state;
        let mut s = lock.lock();
        s.done.remove(&rank);
        s.status.remove(&rank);
    }

    /// Stop accepting new starter connections.
    pub fn shutdown(&self) {
        self.world.net().unbind(self.addr);
    }

    /// Block until either every rank is done (`Ok(map)`) or some rank's
    /// starter reports failure (`Err` with rank + reason) — the schedd's
    /// requeue hook.
    pub fn wait_outcome(
        &self,
        ranks: u32,
        timeout: Duration,
    ) -> TdpResult<Result<HashMap<u32, ProcStatus>, (u32, String)>> {
        let (lock, cv) = &*self.state;
        let mut s = lock.lock();
        cv.wait_while_for(
            &mut s,
            |s| s.failures.is_empty() && (s.done.len() as u32) < ranks,
            timeout,
        );
        if let Some(failure) = s.failures.pop() {
            return Ok(Err(failure));
        }
        if (s.done.len() as u32) >= ranks {
            return Ok(Ok(s.done.clone()));
        }
        Err(TdpError::Timeout)
    }
}

fn serve(
    world: &World,
    submit_host: HostId,
    state: &Arc<(Mutex<ShadowState>, Condvar)>,
    msg: ShadowMsg,
) -> ShadowMsg {
    match msg {
        ShadowMsg::FetchFile { path } => match world.os().fs().read_file(submit_host, &path) {
            Ok(data) => ShadowMsg::FileData { path, data },
            Err(e) => ShadowMsg::FileError {
                path,
                error: e.to_string(),
            },
        },
        ShadowMsg::StoreFile { path, data } => {
            world.os().fs().write_file(submit_host, &path, &data);
            ShadowMsg::StoreOk
        }
        ShadowMsg::StatusUpdate { rank, status, .. } => {
            if let Some(st) = ProcStatus::parse(&status) {
                let (lock, cv) = &**state;
                lock.lock().status.insert(rank, st);
                cv.notify_all();
            }
            ShadowMsg::Ack
        }
        ShadowMsg::JobDone { rank, status, .. } => {
            if let Some(st) = ProcStatus::parse(&status) {
                let (lock, cv) = &**state;
                let mut s = lock.lock();
                s.status.insert(rank, st);
                s.done.insert(rank, st);
                drop(s);
                cv.notify_all();
            }
            ShadowMsg::Ack
        }
        ShadowMsg::RankFailed { rank, error, .. } => {
            let (lock, cv) = &**state;
            lock.lock().failures.push((rank, error));
            cv.notify_all();
            ShadowMsg::Ack
        }
        other => {
            let _ = other;
            ShadowMsg::Ack
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::recv_json_timeout;

    const T: Duration = Duration::from_secs(5);

    fn ask(world: &World, from: HostId, shadow: Addr, msg: ShadowMsg) -> ShadowMsg {
        let mut conn = world.net().connect(from, shadow).unwrap();
        send_json(&conn, &msg).unwrap();
        recv_json_timeout(&mut conn, T).unwrap()
    }

    #[test]
    fn fetch_and_store_remote_syscalls() {
        let world = World::new();
        let submit = world.add_host();
        let exec = world.add_host();
        world.os().fs().write_file(submit, "infile", b"input data");
        let shadow = Shadow::start(&world, submit, JobId(1)).unwrap();
        // Fetch.
        match ask(
            &world,
            exec,
            shadow.addr(),
            ShadowMsg::FetchFile {
                path: "infile".into(),
            },
        ) {
            ShadowMsg::FileData { data, .. } => assert_eq!(data, b"input data"),
            other => panic!("{other:?}"),
        }
        // Missing file.
        match ask(
            &world,
            exec,
            shadow.addr(),
            ShadowMsg::FetchFile {
                path: "ghost".into(),
            },
        ) {
            ShadowMsg::FileError { .. } => {}
            other => panic!("{other:?}"),
        }
        // Store lands on the submit host.
        ask(
            &world,
            exec,
            shadow.addr(),
            ShadowMsg::StoreFile {
                path: "outfile".into(),
                data: b"results".to_vec(),
            },
        );
        assert_eq!(
            world.os().fs().read_file(submit, "outfile").unwrap(),
            b"results"
        );
    }

    #[test]
    fn status_reports_and_wait_done() {
        let world = World::new();
        let submit = world.add_host();
        let exec = world.add_host();
        let shadow = Shadow::start(&world, submit, JobId(2)).unwrap();
        ask(
            &world,
            exec,
            shadow.addr(),
            ShadowMsg::StatusUpdate {
                job: JobId(2),
                rank: 0,
                status: "running".into(),
            },
        );
        assert_eq!(shadow.status_of(0), Some(ProcStatus::Running));
        assert_eq!(shadow.status_of(1), None);
        assert!(shadow.wait_done(1, Duration::from_millis(50)).is_err());
        ask(
            &world,
            exec,
            shadow.addr(),
            ShadowMsg::JobDone {
                job: JobId(2),
                rank: 0,
                status: "exited:0".into(),
            },
        );
        let done = shadow.wait_done(1, T).unwrap();
        assert_eq!(done[&0], ProcStatus::Exited(0));
    }

    #[test]
    fn wait_started_is_completed_by_the_status_report() {
        let world = World::new();
        let submit = world.add_host();
        let exec = world.add_host();
        let shadow = Arc::new(Shadow::start(&world, submit, JobId(3)).unwrap());
        let status = |rank, status: &str| {
            ask(
                &world,
                exec,
                shadow.addr(),
                ShadowMsg::StatusUpdate {
                    job: JobId(3),
                    rank,
                    status: status.into(),
                },
            )
        };
        // Neither "created" nor another rank's "running" is a start.
        status(0, "created");
        status(1, "running");
        assert_eq!(
            shadow.wait_started(0, Duration::from_millis(50)),
            Err(TdpError::Timeout)
        );
        // A waiter already parked is released by the report itself.
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let shadow = shadow.clone();
            thread::spawn(move || {
                tx.send(()).unwrap();
                shadow.wait_started(0, T)
            })
        };
        rx.recv().unwrap();
        status(0, "running");
        assert_eq!(waiter.join().unwrap(), Ok(ProcStatus::Running));
        // A rank that died before it ever ran also ends the wait.
        status(2, "killed:11");
        assert_eq!(shadow.wait_started(2, T), Ok(ProcStatus::Killed(11)));
    }
}
