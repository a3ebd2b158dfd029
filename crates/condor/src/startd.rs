//! `condor_startd` — represents one execution machine: advertises it to
//! the matchmaker, accepts claims from the schedd, and spawns a
//! `condor_starter` per activation (Figure 4).

use crate::classad::ClassAd;
use crate::messages::{recv_json, recv_json_timeout, send_json, ClaimMsg, MmMsg};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use tdp_core::World;
use tdp_netsim::Conn;
use tdp_proto::{Addr, HostId, TdpError, TdpResult};
use tdp_sync::serve::{serve, Server};
use tdp_sync::Mutex;

/// The startd's well-known port on every execution host.
pub const STARTD_PORT: u16 = 9620;

struct StartdInner {
    world: World,
    host: HostId,
    name: String,
    mm: Addr,
    busy: AtomicBool,
    next_claim: AtomicU64,
    /// Claim currently held (id), if any.
    claim: Mutex<Option<u64>>,
    /// Pid of the application currently supervised by a starter on this
    /// machine, for vacate.
    running_app: Arc<Mutex<Option<tdp_proto::Pid>>>,
    alive: AtomicBool,
}

/// A running startd.
pub struct Startd {
    inner: Arc<StartdInner>,
    addr: Addr,
    server: Server,
}

impl Startd {
    /// Start on `host`, advertising `ad` to the matchmaker at `mm`.
    pub fn start(world: &World, host: HostId, ad: ClassAd, mm: Addr) -> TdpResult<Startd> {
        let listener = world.net().listen(host, STARTD_PORT)?;
        let addr = listener.local_addr();
        let name = format!("slot1@host{}", host.0);
        let inner = Arc::new(StartdInner {
            world: world.clone(),
            host,
            name: name.clone(),
            mm,
            busy: AtomicBool::new(false),
            next_claim: AtomicU64::new(1),
            claim: Mutex::new(None),
            running_app: Arc::new(Mutex::new(None)),
            alive: AtomicBool::new(true),
        });

        // Register with the matchmaker.
        let mut conn = world.net().connect(host, mm)?;
        send_json(
            &conn,
            &MmMsg::RegisterMachine {
                name,
                host,
                startd: addr,
                ad,
            },
        )?;
        let _: MmMsg = recv_json_timeout(&mut conn, Duration::from_secs(5))?;

        let inner2 = inner.clone();
        let server = serve("startd", listener, move |mut conn: Conn| {
            while let Ok(msg) = recv_json::<ClaimMsg>(&mut conn) {
                let reply = inner2.handle(msg);
                if send_json(&conn, &reply).is_err() {
                    break;
                }
            }
        })
        .map_err(|e| TdpError::Substrate(format!("spawn startd: {e}")))?;
        Ok(Startd {
            inner,
            addr,
            server,
        })
    }

    pub fn addr(&self) -> Addr {
        self.addr
    }

    pub fn name(&self) -> &str {
        &self.inner.name
    }

    pub fn host(&self) -> HostId {
        self.inner.host
    }

    pub fn is_busy(&self) -> bool {
        self.inner.busy.load(Ordering::SeqCst)
    }

    /// Simulate a daemon crash: stop listening and mark dead (the
    /// supervisor's restart trigger in the fault-recovery extension).
    pub fn simulate_crash(&self) {
        self.inner.alive.store(false, Ordering::SeqCst);
        self.server.close();
        // Tell the matchmaker the machine is gone, as its ad would time
        // out in real Condor.
        if let Ok(conn) = self
            .inner
            .world
            .net()
            .connect(self.inner.host, self.inner.mm)
        {
            let _ = send_json(
                &conn,
                &MmMsg::UnregisterMachine {
                    name: self.inner.name.clone(),
                },
            );
        }
    }

    /// Is the daemon (believed) alive?
    pub fn alive(&self) -> bool {
        self.inner.alive.load(Ordering::SeqCst)
    }

    /// Vacate the machine: politely evict the running job with signal
    /// 15 (Condor's preemption). The starter stages the checkpoint back
    /// and reports `killed:15`; a checkpointing job is then requeued by
    /// the schedd.
    pub fn vacate(&self) -> TdpResult<()> {
        let pid = self.inner.running_app.lock().ok_or_else(|| {
            TdpError::Substrate(format!("{}: nothing to vacate", self.inner.name))
        })?;
        self.inner.world.os().kill(pid, 15)
    }
}

impl tdp_core::Supervisable for Startd {
    fn ops_name(&self) -> String {
        format!("condor.startd.{}", self.inner.host.0)
    }

    fn ops_probe(&self) -> TdpResult<()> {
        // A connection to the well-known port (refused once
        // `simulate_crash` closes the listener).
        let conn = self.inner.world.net().connect(self.inner.host, self.addr)?;
        drop(conn);
        Ok(())
    }
}

/// `run_starter` plus bookkeeping of the supervised app pid so the
/// startd can vacate it.
fn run_starter_tracked(
    world: &World,
    host: HostId,
    details: &crate::messages::JobDetails,
    slot: &Mutex<Option<tdp_proto::Pid>>,
) -> TdpResult<tdp_proto::ProcStatus> {
    let r = run_starter_with_pid_slot(world, host, details, slot);
    *slot.lock() = None;
    r
}

fn run_starter_with_pid_slot(
    world: &World,
    host: HostId,
    details: &crate::messages::JobDetails,
    slot: &Mutex<Option<tdp_proto::Pid>>,
) -> TdpResult<tdp_proto::ProcStatus> {
    crate::starter::run_starter_observed(world, host, details, |pid| {
        *slot.lock() = Some(pid);
    })
}

impl StartdInner {
    fn handle(self: &Arc<Self>, msg: ClaimMsg) -> ClaimMsg {
        match msg {
            ClaimMsg::RequestClaim { .. } => {
                if self.busy.swap(true, Ordering::SeqCst) {
                    ClaimMsg::ClaimRejected {
                        reason: "machine busy".into(),
                    }
                } else {
                    let id = self.next_claim.fetch_add(1, Ordering::SeqCst);
                    *self.claim.lock() = Some(id);
                    self.advertise(false);
                    ClaimMsg::ClaimAccepted { claim_id: id }
                }
            }
            ClaimMsg::ActivateClaim { claim_id, details } => {
                let details = *details;
                if *self.claim.lock() != Some(claim_id) {
                    return ClaimMsg::ClaimRejected {
                        reason: "unknown claim".into(),
                    };
                }
                // Spawn the starter; when it finishes, free the machine.
                let me = self.clone();
                thread::Builder::new()
                    .name(format!("condor-starter-{}", details.job))
                    .spawn(move || {
                        let r = run_starter_tracked(&me.world, me.host, &details, &me.running_app);
                        if let Err(e) = r {
                            // Report upstream so the schedd can requeue
                            // the rank elsewhere (fault recovery).
                            if let Ok(conn) = me.world.net().connect(me.host, details.shadow) {
                                let _ = send_json(
                                    &conn,
                                    &crate::messages::ShadowMsg::RankFailed {
                                        job: details.job,
                                        rank: details.rank,
                                        error: format!("{} on {}: {e}", me.name, me.host),
                                    },
                                );
                            }
                        }
                        *me.claim.lock() = None;
                        me.busy.store(false, Ordering::SeqCst);
                        me.advertise(true);
                    })
                    .expect("spawn starter");
                ClaimMsg::Activated
            }
            ClaimMsg::ReleaseClaim { claim_id } => {
                let mut claim = self.claim.lock();
                if *claim == Some(claim_id) {
                    *claim = None;
                    self.busy.store(false, Ordering::SeqCst);
                    self.advertise(true);
                }
                ClaimMsg::Released
            }
            other => {
                let _ = other;
                ClaimMsg::ClaimRejected {
                    reason: "unexpected message".into(),
                }
            }
        }
    }

    fn advertise(&self, available: bool) {
        if let Ok(mut conn) = self.world.net().connect(self.host, self.mm) {
            let _ = send_json(
                &conn,
                &MmMsg::UpdateMachine {
                    name: self.name.clone(),
                    available,
                },
            );
            let _ = recv_json_timeout::<MmMsg>(&mut conn, Duration::from_secs(2));
        }
    }
}
