//! `mbatchd` — the master batch daemon: queue, FIFO dispatcher, result
//! collection — plus the user-facing [`LsfCluster`] API (`bsub`,
//! `bjobs`, `wait_job`).

use crate::messages::{Dispatch, MbdMsg, SbdMsg, ToolSpecWire};
use crate::sbatchd::{self, Sbatchd};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tdp_core::World;
use tdp_netsim::ConnTx;
use tdp_proto::{json, Addr, HostId, JobId, ProcStatus, TdpError, TdpResult};
use tdp_sync::{Condvar, Mutex};

/// mbatchd's well-known port on the master host.
pub const MBD_PORT: u16 = 6878;

/// A tool daemon to run alongside every task of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsfToolSpec {
    pub cmd: String,
    pub args: Vec<String>,
}

/// A `bsub` request.
#[derive(Debug, Clone)]
pub struct LsfRequest {
    pub executable: String,
    pub args: Vec<String>,
    /// Number of tasks (slots) the job needs. Task index is prepended
    /// to argv, like our MPI rank convention.
    pub ntasks: u32,
    /// Input file on the master host, staged inline as stdin.
    pub input: Option<String>,
    /// Output file stem on the master host: task 0 writes `<stem>`,
    /// task i writes `<stem>.<i>`.
    pub output: Option<String>,
    /// Create tasks stopped at exec (so a tool can instrument first).
    pub suspend_at_exec: bool,
    pub tool: Option<LsfToolSpec>,
    /// Dispatch priority: higher goes first; FIFO within a priority.
    pub priority: i32,
}

impl LsfRequest {
    pub fn new(executable: impl Into<String>) -> LsfRequest {
        LsfRequest {
            executable: executable.into(),
            args: Vec::new(),
            ntasks: 1,
            input: None,
            output: None,
            suspend_at_exec: false,
            tool: None,
            priority: 0,
        }
    }

    pub fn args<S: Into<String>>(mut self, args: impl IntoIterator<Item = S>) -> Self {
        self.args = args.into_iter().map(Into::into).collect();
        self
    }

    pub fn ntasks(mut self, n: u32) -> Self {
        self.ntasks = n.max(1);
        self
    }

    pub fn input(mut self, f: impl Into<String>) -> Self {
        self.input = Some(f.into());
        self
    }

    pub fn output(mut self, f: impl Into<String>) -> Self {
        self.output = Some(f.into());
        self
    }

    pub fn suspended(mut self) -> Self {
        self.suspend_at_exec = true;
        self
    }

    pub fn tool(mut self, cmd: impl Into<String>, args: Vec<String>) -> Self {
        self.tool = Some(LsfToolSpec {
            cmd: cmd.into(),
            args,
        });
        self
    }

    pub fn priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }
}

/// Queue state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum LsfJobState {
    Pending,
    Running,
    /// task → exit status.
    Done(HashMap<u32, ProcStatus>),
    Failed(String),
}

struct HostEntry {
    name: String,
    slots: u32,
    in_use: u32,
    tx: Arc<ConnTx>,
    /// Tasks dispatched to this host and not yet reported, so a dead
    /// sbatchd's work can be requeued instead of hanging its jobs.
    running: Vec<(JobId, u32)>,
}

struct JobRec {
    req: LsfRequest,
    done: HashMap<u32, ProcStatus>,
    dispatched: u32,
    state: LsfJobState,
}

struct PendingTask {
    job: JobId,
    task: u32,
    priority: i32,
    /// Submission order, for FIFO within a priority.
    seq: u64,
}

struct Mbd {
    world: World,
    master: HostId,
    hosts: Mutex<Vec<HostEntry>>,
    queue: Mutex<VecDeque<PendingTask>>,
    jobs: Mutex<HashMap<JobId, JobRec>>,
    cv: Condvar,
    next_job: AtomicU64,
}

/// A running LSF-style cluster.
#[derive(Clone)]
pub struct LsfCluster {
    inner: Arc<Mbd>,
    addr: Addr,
}

impl LsfCluster {
    /// Start mbatchd on the master host.
    pub fn start(world: &World, master: HostId) -> TdpResult<LsfCluster> {
        let listener = world.net().listen(master, MBD_PORT)?;
        let addr = listener.local_addr();
        let inner = Arc::new(Mbd {
            world: world.clone(),
            master,
            hosts: Mutex::new(Vec::new()),
            queue: Mutex::new(VecDeque::new()),
            jobs: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            next_job: AtomicU64::new(1),
        });
        let inner2 = inner.clone();
        thread::Builder::new()
            .name("lsf-mbatchd".into())
            .spawn(move || {
                while let Ok(conn) = listener.accept() {
                    let inner = inner2.clone();
                    thread::Builder::new()
                        .name("lsf-mbd-session".into())
                        .spawn(move || inner.serve_sbatchd(conn))
                        .expect("spawn mbd session");
                }
            })
            .map_err(|e| TdpError::Substrate(format!("spawn mbatchd: {e}")))?;
        Ok(LsfCluster { inner, addr })
    }

    /// mbatchd's address (for manual sbatchd registration).
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Start an sbatchd on `host` with `slots` slots (LSF's `bhosts`
    /// view grows by one).
    pub fn add_host(&self, host: HostId, slots: u32) -> TdpResult<Sbatchd> {
        sbatchd::start(&self.inner.world, host, slots, self.addr)
    }

    /// The registered hosts: (name, slots, in_use).
    pub fn bhosts(&self) -> Vec<(String, u32, u32)> {
        self.inner
            .hosts
            .lock()
            .iter()
            .map(|h| (h.name.clone(), h.slots, h.in_use))
            .collect()
    }

    /// Submit a job; returns its id immediately.
    pub fn bsub(&self, req: LsfRequest) -> TdpResult<JobId> {
        let job = JobId(self.inner.next_job.fetch_add(1, Ordering::SeqCst));
        let ntasks = req.ntasks;
        let priority = req.priority;
        self.inner.jobs.lock().insert(
            job,
            JobRec {
                req,
                done: HashMap::new(),
                dispatched: 0,
                state: LsfJobState::Pending,
            },
        );
        {
            let mut q = self.inner.queue.lock();
            for task in 0..ntasks {
                let seq = job.0 * 10_000 + u64::from(task);
                q.push_back(PendingTask {
                    job,
                    task,
                    priority,
                    seq,
                });
            }
            // Highest priority first; FIFO (submission order) inside a
            // priority level.
            let mut v: Vec<PendingTask> = q.drain(..).collect();
            v.sort_by_key(|t| (std::cmp::Reverse(t.priority), t.seq));
            q.extend(v);
        }
        self.inner.pump();
        Ok(job)
    }

    /// Current state of a job (LSF's `bjobs`).
    pub fn bjobs(&self, job: JobId) -> Option<LsfJobState> {
        self.inner.jobs.lock().get(&job).map(|r| r.state.clone())
    }

    /// Tasks queued but not yet dispatched (a queue-depth gauge for
    /// the ops KPI loop).
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// `bkill`: terminate a job. Pending tasks are dequeued; running
    /// tasks are killed on their hosts (they report `killed:9`).
    pub fn bkill(&self, job: JobId) -> TdpResult<()> {
        // Remove anything still queued.
        self.inner.queue.lock().retain(|t| t.job != job);
        // Tell every host to kill its running tasks of this job.
        let data = json::to_vec(&MbdMsg::Kill { job })?;
        for h in self.inner.hosts.lock().iter() {
            let _ = h.tx.send(&data);
        }
        // Mark any never-dispatched remainder as failed so waiters wake.
        let mut jobs = self.inner.jobs.lock();
        if let Some(r) = jobs.get_mut(&job) {
            if r.dispatched < r.req.ntasks {
                r.state = LsfJobState::Failed("killed by bkill before dispatch".into());
            }
        }
        drop(jobs);
        self.inner.cv.notify_all();
        Ok(())
    }

    /// Block until a job completes or fails.
    pub fn wait_job(&self, job: JobId, timeout: Duration) -> TdpResult<LsfJobState> {
        let deadline = Instant::now() + timeout;
        let mut jobs = self.inner.jobs.lock();
        loop {
            match jobs.get(&job) {
                None => return Err(TdpError::Substrate(format!("unknown job {job}"))),
                Some(r) => match &r.state {
                    LsfJobState::Done(_) | LsfJobState::Failed(_) => return Ok(r.state.clone()),
                    _ => {}
                },
            }
            if self.inner.cv.wait_until(&mut jobs, deadline).timed_out() {
                return Err(TdpError::Timeout);
            }
        }
    }
}

impl tdp_core::Supervisable for LsfCluster {
    fn ops_name(&self) -> String {
        format!("lsf.mbatchd.{}", self.inner.master.0)
    }

    fn ops_probe(&self) -> TdpResult<()> {
        // Prove the listener is bound and accepting on the well-known
        // port (gone if the master host died or the daemon was killed).
        let conn = self
            .inner
            .world
            .net()
            .connect(self.inner.master, self.addr)?;
        drop(conn);
        Ok(())
    }
}

impl Mbd {
    /// One sbatchd session: register, then stream task results.
    fn serve_sbatchd(self: Arc<Self>, conn: tdp_netsim::Conn) {
        let (tx, mut rx) = conn.split();
        let tx = Arc::new(tx);
        let mut my_index: Option<usize> = None;
        while let Ok(chunk) = rx.recv() {
            let msg: SbdMsg = match json::from_slice(&chunk) {
                Ok(m) => m,
                Err(_) => continue,
            };
            match msg {
                SbdMsg::Register { name, slots } => {
                    let mut hosts = self.hosts.lock();
                    my_index = Some(hosts.len());
                    hosts.push(HostEntry {
                        name,
                        slots,
                        in_use: 0,
                        tx: tx.clone(),
                        running: Vec::new(),
                    });
                    drop(hosts);
                    self.pump();
                }
                SbdMsg::TaskDone {
                    job,
                    task,
                    status,
                    stdout,
                    stderr,
                    tool_files,
                } => {
                    self.finish_task(my_index, job, task, &status, stdout, stderr, tool_files);
                }
                SbdMsg::TaskStarted { .. } => {}
                SbdMsg::TaskFailed { job, task, error } => {
                    if let Some(i) = my_index {
                        let mut hosts = self.hosts.lock();
                        if let Some(h) = hosts.get_mut(i) {
                            h.in_use = h.in_use.saturating_sub(1);
                            h.running.retain(|t| *t != (job, task));
                        }
                    }
                    let mut jobs = self.jobs.lock();
                    if let Some(r) = jobs.get_mut(&job) {
                        r.state = LsfJobState::Failed(format!("task {task}: {error}"));
                    }
                    drop(jobs);
                    self.cv.notify_all();
                    self.pump();
                }
            }
        }
        // sbatchd gone: drop its slots so the dispatcher stops using
        // it, and requeue whatever it was running — a dead host must
        // not take queued work with it.
        if let Some(i) = my_index {
            let orphans = {
                let mut hosts = self.hosts.lock();
                match hosts.get_mut(i) {
                    Some(h) => {
                        h.slots = 0;
                        h.in_use = 0;
                        std::mem::take(&mut h.running)
                    }
                    None => Vec::new(),
                }
            };
            self.requeue(orphans);
        }
    }

    /// Put orphaned (job, task) pairs of still-live jobs back on the
    /// queue, preserving priority order, and redispatch.
    fn requeue(&self, orphans: Vec<(JobId, u32)>) {
        if orphans.is_empty() {
            return;
        }
        let revived: Vec<PendingTask> = {
            let jobs = self.jobs.lock();
            orphans
                .into_iter()
                .filter_map(|(job, task)| {
                    let r = jobs.get(&job)?;
                    match r.state {
                        LsfJobState::Pending | LsfJobState::Running => Some(PendingTask {
                            job,
                            task,
                            priority: r.req.priority,
                            seq: job.0 * 10_000 + u64::from(task),
                        }),
                        _ => None,
                    }
                })
                .collect()
        };
        if revived.is_empty() {
            return;
        }
        {
            let mut q = self.queue.lock();
            q.extend(revived);
            let mut v: Vec<PendingTask> = q.drain(..).collect();
            v.sort_by_key(|t| (std::cmp::Reverse(t.priority), t.seq));
            q.extend(v);
        }
        self.pump();
    }

    #[allow(clippy::too_many_arguments)] // one call site, mirrors the wire message
    fn finish_task(
        &self,
        host_index: Option<usize>,
        job: JobId,
        task: u32,
        status: &str,
        stdout: Vec<u8>,
        stderr: Vec<u8>,
        tool_files: Vec<(String, Vec<u8>)>,
    ) {
        if let Some(i) = host_index {
            let mut hosts = self.hosts.lock();
            if let Some(h) = hosts.get_mut(i) {
                h.in_use = h.in_use.saturating_sub(1);
                h.running.retain(|t| *t != (job, task));
            }
        }
        let st = ProcStatus::parse(status).unwrap_or(ProcStatus::Killed(-1));
        let mut jobs = self.jobs.lock();
        if let Some(r) = jobs.get_mut(&job) {
            r.done.insert(task, st);
            // Inline output staging onto the master host.
            if let Some(stem) = &r.req.output {
                let name = if task == 0 {
                    stem.clone()
                } else {
                    format!("{stem}.{task}")
                };
                self.world.os().fs().write_file(self.master, &name, &stdout);
                if !stderr.is_empty() {
                    self.world
                        .os()
                        .fs()
                        .write_file(self.master, &format!("{name}.err"), &stderr);
                }
            }
            for (name, data) in tool_files {
                self.world.os().fs().write_file(self.master, &name, &data);
            }
            if r.done.len() as u32 == r.req.ntasks {
                r.state = LsfJobState::Done(r.done.clone());
            }
        }
        drop(jobs);
        self.cv.notify_all();
        self.pump();
    }

    /// FIFO dispatcher: while the head of the queue fits on some host,
    /// push it out.
    fn pump(&self) {
        loop {
            let next = {
                let mut q = self.queue.lock();
                match q.pop_front() {
                    Some(t) => t,
                    None => return,
                }
            };
            let dispatch = {
                let jobs = self.jobs.lock();
                let Some(r) = jobs.get(&next.job) else {
                    continue;
                };
                let mut args: Vec<String> = Vec::new();
                if r.req.ntasks > 1 {
                    args.push(next.task.to_string());
                }
                args.extend(r.req.args.iter().cloned());
                let stdin = r
                    .req
                    .input
                    .as_ref()
                    .and_then(|f| self.world.os().fs().read_file(self.master, f).ok())
                    .unwrap_or_default();
                Dispatch {
                    job: next.job,
                    task: next.task,
                    executable: r.req.executable.clone(),
                    args,
                    stdin,
                    suspend_at_exec: r.req.suspend_at_exec,
                    tool: r.req.tool.as_ref().map(|t| ToolSpecWire {
                        cmd: t.cmd.clone(),
                        args: t.args.clone(),
                    }),
                }
            };
            // Find a free slot, FIFO host order. Reserve it under the
            // lock but send outside it: a slow sbatchd link must not
            // stall registrations and completion reports on `hosts`.
            let reserved = {
                let mut hosts = self.hosts.lock();
                hosts.iter_mut().position(|h| h.in_use < h.slots).map(|i| {
                    hosts[i].in_use += 1;
                    (i, hosts[i].tx.clone())
                })
            };
            let sent = match reserved {
                // Hosts are append-only (dead ones keep their entry with
                // slots=0), so the index stays valid across the unlock.
                Some((i, tx)) => {
                    let data = json::to_vec(&MbdMsg::Dispatch(dispatch)).expect("encode dispatch");
                    let ok = tx.send(&data).is_ok();
                    let mut hosts = self.hosts.lock();
                    let h = &mut hosts[i];
                    if ok {
                        h.running.push((next.job, next.task));
                    } else {
                        h.in_use -= 1;
                        h.slots = 0; // dead sbatchd
                    }
                    ok
                }
                None => false,
            };
            if sent {
                let mut jobs = self.jobs.lock();
                if let Some(r) = jobs.get_mut(&next.job) {
                    r.dispatched += 1;
                    if r.state == LsfJobState::Pending {
                        r.state = LsfJobState::Running;
                    }
                }
            } else {
                // No capacity: requeue at the front and stop pumping —
                // a completion or registration will pump again.
                self.queue.lock().push_front(next);
                return;
            }
        }
    }
}
