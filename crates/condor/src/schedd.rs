//! `condor_schedd` — the submit-side queue and claim orchestrator.
//!
//! "Any submit machine needs to have a condor_schedd running …
//! condor_schedd takes care of the job until a suitable and available
//! resource is found for the job. The condor_schedd spawns a
//! condor_shadow daemon to serve that particular request." (§4.1)
//!
//! For the MPI universe the schedd also implements the staged startup
//! of §4.3: claim all machines first, activate rank 0 (whose tool waits
//! for the user's run command), and only once rank 0 is running
//! activate the remaining ranks with auto-running tool daemons.

use crate::matchmaker::MAX_PARK;
use crate::messages::{recv_json_timeout, send_json, ClaimMsg, JobDetails, MmMsg};
use crate::shadow::Shadow;
use crate::submit::{SubmitDescription, Universe};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tdp_core::World;
use tdp_proto::{Addr, Backoff, HostId, JobId, ProcStatus, TdpError, TdpResult};
use tdp_sync::{Condvar, Mutex};

/// Queue state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting for resources.
    Idle,
    /// All claims held; starters activated.
    Running,
    /// Every rank reported terminal status (rank → status).
    Completed(HashMap<u32, ProcStatus>),
    /// Could not be scheduled or run.
    Failed(String),
}

struct JobRecord {
    state: JobState,
    shadow: Option<Arc<Shadow>>,
}

struct ScheddInner {
    world: World,
    submit_host: HostId,
    mm: Addr,
    jobs: Mutex<HashMap<JobId, JobRecord>>,
    cv: Condvar,
    next_job: AtomicU64,
    /// How long to keep renegotiating before failing a job.
    negotiation_timeout: Mutex<Duration>,
}

impl ScheddInner {
    fn negotiation_timeout(&self) -> Duration {
        *self.negotiation_timeout.lock()
    }
}

/// The running schedd. One per submit machine.
#[derive(Clone)]
pub struct Schedd {
    inner: Arc<ScheddInner>,
}

impl Schedd {
    pub fn start(world: &World, submit_host: HostId, mm: Addr) -> Schedd {
        Schedd {
            inner: Arc::new(ScheddInner {
                world: world.clone(),
                submit_host,
                mm,
                jobs: Mutex::new(HashMap::new()),
                cv: Condvar::new(),
                next_job: AtomicU64::new(1),
                negotiation_timeout: Mutex::new(Duration::from_secs(10)),
            }),
        }
    }

    /// Submit host (diagnostics).
    pub fn submit_host(&self) -> HostId {
        self.inner.submit_host
    }

    /// How long a job keeps renegotiating before failing. Raise this
    /// when machines may be transiently unreachable (network faults)
    /// rather than permanently unmatchable.
    pub fn set_negotiation_timeout(&self, timeout: Duration) {
        *self.inner.negotiation_timeout.lock() = timeout;
    }

    /// Jobs not yet in a terminal state (a queue-depth gauge for the
    /// ops KPI loop).
    pub fn queue_depth(&self) -> usize {
        self.inner
            .jobs
            .lock()
            .values()
            .filter(|r| matches!(r.state, JobState::Idle | JobState::Running))
            .count()
    }

    /// Submit a parsed description; returns the job id immediately. A
    /// per-job scheduling thread negotiates, claims and activates.
    pub fn submit(&self, submit: SubmitDescription) -> JobId {
        let job = JobId(self.inner.next_job.fetch_add(1, Ordering::SeqCst));
        self.inner.jobs.lock().insert(
            job,
            JobRecord {
                state: JobState::Idle,
                shadow: None,
            },
        );
        let inner = self.inner.clone();
        thread::Builder::new()
            .name(format!("condor-schedd-{job}"))
            .spawn(move || {
                if let Err(e) = schedule_job(&inner, job, submit) {
                    let mut jobs = inner.jobs.lock();
                    if let Some(rec) = jobs.get_mut(&job) {
                        if !matches!(rec.state, JobState::Completed(_)) {
                            rec.state = JobState::Failed(e.to_string());
                        }
                    }
                    drop(jobs);
                    inner.cv.notify_all();
                }
            })
            .expect("spawn schedd job thread");
        job
    }

    /// Parse and submit a submit-file text.
    pub fn submit_str(&self, text: &str) -> TdpResult<JobId> {
        Ok(self.submit(SubmitDescription::parse(text)?))
    }

    /// Current state of a job.
    pub fn job_state(&self, job: JobId) -> Option<JobState> {
        self.inner.jobs.lock().get(&job).map(|r| r.state.clone())
    }

    /// `condor_q`: every job in the queue with its state, ordered by id.
    pub fn condor_q(&self) -> Vec<(JobId, JobState)> {
        let mut v: Vec<(JobId, JobState)> = self
            .inner
            .jobs
            .lock()
            .iter()
            .map(|(j, r)| (*j, r.state.clone()))
            .collect();
        v.sort_by_key(|(j, _)| *j);
        v
    }

    /// The job's shadow (present once scheduling started).
    pub fn shadow_of(&self, job: JobId) -> Option<Arc<Shadow>> {
        self.inner
            .jobs
            .lock()
            .get(&job)
            .and_then(|r| r.shadow.clone())
    }

    /// Block until the job completes or fails.
    pub fn wait_job(&self, job: JobId, timeout: Duration) -> TdpResult<JobState> {
        let deadline = Instant::now() + timeout;
        let mut jobs = self.inner.jobs.lock();
        loop {
            match jobs.get(&job) {
                None => return Err(TdpError::Substrate(format!("unknown job {job}"))),
                Some(rec) => match &rec.state {
                    JobState::Completed(_) | JobState::Failed(_) => return Ok(rec.state.clone()),
                    _ => {}
                },
            }
            if self.inner.cv.wait_until(&mut jobs, deadline).timed_out() {
                return Err(TdpError::Timeout);
            }
        }
    }
}

struct Claim {
    machine: String,
    host: HostId,
    conn: tdp_netsim::Conn,
    claim_id: u64,
}

/// How long the schedd waits for the answer to one `Negotiate`: above
/// [`MAX_PARK`], so a matchmaker that died holding the request is still
/// found out by a timer.
const NEGOTIATE_REPLY: Duration = Duration::from_secs(5);

/// Pacing of the claim-failure path (see [`claim_one`]).
const CLAIM_RETRY_BASE: Duration = Duration::from_millis(1);
const CLAIM_RETRY_CAP: Duration = Duration::from_millis(250);

/// Negotiate-and-claim one machine; `Ok(None)` means `deadline` passed.
///
/// The wait for a free slot happens *inside* `Negotiate`: the matchmaker
/// parks the request and answers the moment a machine registers or
/// frees up, so nothing on the success path sleeps. A match whose claim
/// then fails is the failure path — the stale ad of a dead host, or a
/// race lost to a sibling job — and it is paced by [`Backoff`], spent
/// as the budget of one negotiate that leaves the failed machine out:
/// another machine that is or becomes free in that time is taken at
/// once, and otherwise the failed one is back in the running. A stale
/// ad therefore costs two `Negotiate`s per (growing, capped) delay, not
/// a spin.
fn claim_one(
    inner: &ScheddInner,
    job: JobId,
    submit: &SubmitDescription,
    exclude: &[String],
    deadline: Instant,
) -> TdpResult<Option<Claim>> {
    let mut pace = Backoff::new(CLAIM_RETRY_BASE, CLAIM_RETRY_CAP, job.0);
    // The machine whose claim just failed, and for how long to look
    // elsewhere before asking for it again.
    let mut failed: Option<(String, Duration)> = None;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(None);
        }
        let mut exclude = exclude.to_vec();
        let budget = match failed.take() {
            Some((machine, pause)) => {
                exclude.push(machine);
                pause
            }
            None => MAX_PARK,
        };
        // `None` here means the budget ran out; the loop top ends the
        // search once that was the last of the deadline.
        if let Some((name, host, startd)) = negotiate(inner, submit, exclude, budget.min(left))? {
            match try_claim(inner, job, startd) {
                Ok((conn, claim_id)) => {
                    return Ok(Some(Claim {
                        machine: name,
                        host,
                        conn,
                        claim_id,
                    }))
                }
                Err(_) => failed = Some((name, pace.next_delay())),
            }
        }
    }
}

/// Re-run one rank on a fresh machine after `error` (a starter-reported
/// failure or a dead execution host): spend one unit of the requeue
/// budget, avoid the machine it failed on, claim a replacement and
/// activate there with an auto-running tool (re-runs never wait for
/// another front-end run command).
struct Requeue<'a> {
    claims: &'a mut Vec<Claim>,
    active: &'a mut HashMap<u32, (String, HostId)>,
    avoid: &'a mut Vec<String>,
    retries: &'a mut u32,
}

impl Requeue<'_> {
    fn requeue(
        &mut self,
        inner: &ScheddInner,
        job: JobId,
        submit: &SubmitDescription,
        rank: u32,
        error: &str,
        mut details: JobDetails,
    ) -> TdpResult<()> {
        *self.retries += 1;
        if *self.retries > MAX_REQUEUES {
            return Err(TdpError::Substrate(format!(
                "{job} rank {rank} failed after {MAX_REQUEUES} requeues: {error}"
            )));
        }
        // Avoid the machine the rank just failed on.
        if let Some(name) = error.split(' ').next() {
            self.avoid.push(name.to_string());
        }
        let deadline = Instant::now() + inner.negotiation_timeout();
        let claim = claim_one(inner, job, submit, self.avoid, deadline)?.ok_or_else(|| {
            TdpError::Substrate(format!(
                "{job} rank {rank}: no replacement machine ({error})"
            ))
        })?;
        self.active
            .insert(rank, (claim.machine.clone(), claim.host));
        self.claims.push(claim);
        let idx = self.claims.len() - 1;
        details.tool_auto_run = true;
        activate(&mut self.claims[idx], details)
    }
}

/// Granularity of the schedd's wait on the shadow: between slices it
/// sweeps its active ranks for dead execution hosts, the one failure a
/// starter cannot report (§4.1's "the RM must be able to detect these
/// failures").
const WAIT_SLICE: Duration = Duration::from_millis(250);

/// Overall wall-clock budget for a job once activated.
const JOB_DEADLINE: Duration = Duration::from_secs(600);

/// The per-job scheduling flow.
fn schedule_job(inner: &Arc<ScheddInner>, job: JobId, submit: SubmitDescription) -> TdpResult<()> {
    let n_ranks = match submit.universe {
        Universe::Mpi => submit.machine_count.max(1),
        _ => 1,
    };

    // Negotiate + claim until we hold machine_count machines. "The
    // application does not start until a suitable number of machines
    // are allocated by Condor." (§4.3)
    let mut claims: Vec<Claim> = Vec::new();
    let deadline = Instant::now() + inner.negotiation_timeout();
    while (claims.len() as u32) < n_ranks {
        let exclude: Vec<String> = claims.iter().map(|c| c.machine.clone()).collect();
        // Claiming protocol: "either party may decide not to complete
        // the allocation" — the startd may reject; keep negotiating.
        match claim_one(inner, job, &submit, &exclude, deadline)? {
            Some(claim) => claims.push(claim),
            None => {
                let held = claims.len();
                release_claims(&mut claims);
                return Err(TdpError::Substrate(format!(
                    "no match for {job}: got {held}/{n_ranks} machines"
                )));
            }
        }
    }

    // All machines held: create the shadow and activate.
    let shadow = Arc::new(Shadow::start(&inner.world, inner.submit_host, job)?);
    {
        let mut jobs = inner.jobs.lock();
        if let Some(rec) = jobs.get_mut(&job) {
            rec.shadow = Some(shadow.clone());
            rec.state = JobState::Running;
        }
    }
    inner.cv.notify_all();

    let details = |rank: u32, auto: bool| JobDetails {
        job,
        submit: submit.clone(),
        shadow: shadow.addr(),
        submit_host: inner.submit_host,
        rank,
        tool_auto_run: auto,
    };

    // Which machine each not-yet-done rank is running on, for the
    // host-death sweep below.
    let mut active: HashMap<u32, (String, HostId)> = HashMap::new();
    // One budget covers activation retries and requeues alike.
    let mut retries = 0u32;
    let mut avoid: Vec<String> = Vec::new();

    match submit.universe {
        Universe::Mpi if n_ranks > 1 => {
            // Rank 0 (the "master process") first.
            activate(&mut claims[0], details(0, false))?;
            active.insert(0, (claims[0].machine.clone(), claims[0].host));
            // Wait until rank 0 actually runs (the user issued the run
            // command through the tool front-end, or no tool is
            // involved and it started straight away).
            // The shadow completes this wait on the status report
            // itself; 30 s bounds a front-end that never says run.
            if shadow.wait_started(0, Duration::from_secs(30)).is_err() {
                release_claims(&mut claims);
                return Err(TdpError::Substrate(format!("{job}: rank 0 never started")));
            }
            // Remaining ranks: tools auto-run (§4.3: "they immediately
            // issue a run command").
            for rank in 1..n_ranks {
                let d = details(rank, true);
                activate(&mut claims[rank as usize], d)?;
                let c = &claims[rank as usize];
                active.insert(rank, (c.machine.clone(), c.host));
            }
        }
        _ => loop {
            // A startd can die between claim and activation; claim a
            // fresh machine and try again rather than failing the job.
            let idx = claims.len() - 1;
            match activate(&mut claims[idx], details(0, false)) {
                Ok(()) => {
                    let c = &claims[idx];
                    active.insert(0, (c.machine.clone(), c.host));
                    break;
                }
                Err(_) if retries < MAX_REQUEUES => {
                    retries += 1;
                    avoid.push(claims[idx].machine.clone());
                    let deadline = Instant::now() + inner.negotiation_timeout();
                    match claim_one(inner, job, &submit, &avoid, deadline)? {
                        Some(c) => claims.push(c),
                        None => {
                            return Err(TdpError::Substrate(format!(
                                "{job}: no machine after failed activation"
                            )))
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        },
    }

    // Wait for every rank to finish, requeueing ranks whose starter
    // failed outright (fault recovery: "the RM must be able to detect
    // these failures [and] respond to them"). The wait is sliced so the
    // schedd also notices *silent* failures — an execution host that
    // dies takes its starter, and any failure report, with it.
    let job_deadline = Instant::now() + JOB_DEADLINE;
    let done = loop {
        let outcome = match shadow.wait_outcome(n_ranks, WAIT_SLICE) {
            Ok(o) => o,
            Err(TdpError::Timeout) => {
                if Instant::now() > job_deadline {
                    return Err(TdpError::Timeout);
                }
                // Host-death sweep: an active rank on a dead host will
                // never report; requeue it like a starter failure.
                let mut lost: Vec<(u32, String)> = Vec::new();
                for (rank, (machine, host)) in &active {
                    if shadow.done_of(*rank).is_none() && !inner.world.net().host_alive(*host) {
                        lost.push((*rank, format!("{machine} on {host}: host failed")));
                    }
                }
                for (rank, error) in lost {
                    shadow.clear_rank(rank);
                    Requeue {
                        claims: &mut claims,
                        active: &mut active,
                        avoid: &mut avoid,
                        retries: &mut retries,
                    }
                    .requeue(
                        inner,
                        job,
                        &submit,
                        rank,
                        &error,
                        details(rank, true),
                    )?;
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        match outcome {
            Ok(done) => {
                // Checkpointing jobs: a vacate (killed:15) is not a
                // terminal outcome — requeue the rank; it resumes from
                // the checkpoint the starter staged back.
                if submit.checkpointing {
                    let vacated: Vec<u32> = done
                        .iter()
                        .filter(|(_, st)| **st == ProcStatus::Killed(15))
                        .map(|(r, _)| *r)
                        .collect();
                    if !vacated.is_empty() {
                        retries += vacated.len() as u32;
                        if retries > MAX_REQUEUES {
                            return Err(TdpError::Substrate(format!(
                                "{job}: vacated more than {MAX_REQUEUES} times"
                            )));
                        }
                        for rank in vacated {
                            shadow.clear_rank(rank);
                            let deadline = Instant::now() + inner.negotiation_timeout();
                            let claim = claim_one(inner, job, &submit, &avoid, deadline)?
                                .ok_or_else(|| {
                                    TdpError::Substrate(format!(
                                        "{job} rank {rank}: no machine after vacate"
                                    ))
                                })?;
                            active.insert(rank, (claim.machine.clone(), claim.host));
                            claims.push(claim);
                            let idx = claims.len() - 1;
                            let mut d = details(rank, true);
                            d.tool_auto_run = true;
                            activate(&mut claims[idx], d)?;
                        }
                        continue;
                    }
                }
                break done;
            }
            Err((rank, error)) => {
                Requeue {
                    claims: &mut claims,
                    active: &mut active,
                    avoid: &mut avoid,
                    retries: &mut retries,
                }
                .requeue(inner, job, &submit, rank, &error, details(rank, true))?;
            }
        }
    };
    {
        let mut jobs = inner.jobs.lock();
        if let Some(rec) = jobs.get_mut(&job) {
            rec.state = JobState::Completed(done);
        }
    }
    inner.cv.notify_all();
    shadow.shutdown();
    Ok(())
}

/// How many starter-level failures a job may absorb before giving up.
const MAX_REQUEUES: u32 = 3;

/// One `Negotiate` round trip; the matchmaker may hold it for `budget`
/// (at most [`MAX_PARK`]) waiting for a machine to match.
fn negotiate(
    inner: &ScheddInner,
    submit: &SubmitDescription,
    exclude: Vec<String>,
    budget: Duration,
) -> TdpResult<Option<(String, HostId, Addr)>> {
    let mut conn = inner.world.net().connect(inner.submit_host, inner.mm)?;
    send_json(
        &conn,
        &MmMsg::Negotiate {
            job_ad: submit.job_ad(),
            exclude,
            budget_us: budget.as_micros() as u64,
        },
    )?;
    match recv_json_timeout::<MmMsg>(&mut conn, NEGOTIATE_REPLY)? {
        MmMsg::MatchFound {
            name, host, startd, ..
        } => Ok(Some((name, host, startd))),
        MmMsg::NoMatch => Ok(None),
        other => Err(TdpError::Protocol(format!(
            "bad negotiation reply {other:?}"
        ))),
    }
}

fn try_claim(inner: &ScheddInner, job: JobId, startd: Addr) -> TdpResult<(tdp_netsim::Conn, u64)> {
    let mut conn = inner.world.net().connect(inner.submit_host, startd)?;
    send_json(&conn, &ClaimMsg::RequestClaim { job })?;
    match recv_json_timeout::<ClaimMsg>(&mut conn, Duration::from_secs(5))? {
        ClaimMsg::ClaimAccepted { claim_id } => Ok((conn, claim_id)),
        ClaimMsg::ClaimRejected { reason } => Err(TdpError::Substrate(reason)),
        other => Err(TdpError::Protocol(format!("bad claim reply {other:?}"))),
    }
}

fn activate(claim: &mut Claim, details: JobDetails) -> TdpResult<()> {
    send_json(
        &claim.conn,
        &ClaimMsg::ActivateClaim {
            claim_id: claim.claim_id,
            details: Box::new(details),
        },
    )?;
    match recv_json_timeout::<ClaimMsg>(&mut claim.conn, Duration::from_secs(5))? {
        ClaimMsg::Activated => Ok(()),
        ClaimMsg::ClaimRejected { reason } => Err(TdpError::Substrate(reason)),
        other => Err(TdpError::Protocol(format!("bad activate reply {other:?}"))),
    }
}

fn release_claims(claims: &mut Vec<Claim>) {
    for c in claims.drain(..) {
        let _ = send_json(
            &c.conn,
            &ClaimMsg::ReleaseClaim {
                claim_id: c.claim_id,
            },
        );
    }
}
