//! The kernel: process table, lifecycle control, tracing and status
//! event routing.

use crate::fs::HostFs;
use crate::process::{self, KillUnwind, Pcb, ProbeSnapshot, ProcCtx, ProcState, Sink, StartMode};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tdp_proto::{HostId, Pid, ProcStatus, TdpError, TdpResult};
use tdp_sync::channel::{bounded, Receiver, Sender};
use tdp_sync::thread::ThreadCache;
use tdp_sync::{Mutex, RwLock};

/// Capacity of each watcher / breakpoint-subscriber queue. Delivery
/// uses `try_send` (see [`Kernel::emit`]): a subscriber this many
/// events behind is dropped rather than allowed to wedge the kernel.
const EVENT_QUEUE_CAP: usize = 1024;

/// Who receives a process's *termination* status. Models the OS-variant
/// behaviour §2.3 cites as the reason to centralize process control:
/// "under Linux, the parent (RM) process may or may not be the recipient
/// of the child process' termination code. The choice … can depend on
/// whether some third process (the RT) is attached … In one unusual
/// case, the return code might go to both."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Linux-like default: the tracer steals the wait-status while
    /// attached; otherwise the parent gets it.
    #[default]
    TracerElseParent,
    /// Only the parent ever sees it (tracer misses terminations).
    ParentOnly,
    /// The "unusual case": both parent and tracer receive it.
    Both,
}

/// Which relationship a status watcher has to the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Parent,
    Tracer,
    /// Out-of-band observer (tests, monitors): always receives
    /// everything regardless of routing.
    Observer,
}

/// A process status-change notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcEvent {
    pub pid: Pid,
    pub status: ProcStatus,
}

/// Kernel configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsConfig {
    /// Real nanoseconds burned per `ProcCtx::compute` unit. 0 (default)
    /// keeps CPU time purely virtual — fast deterministic tests.
    pub time_scale_ns: u64,
    /// Termination-status routing policy.
    pub routing: Routing,
}

struct Watcher {
    role: Role,
    tx: Sender<ProcEvent>,
}

struct OsInner {
    cfg: OsConfig,
    fs: Arc<HostFs>,
    procs: RwLock<HashMap<Pid, Arc<Pcb>>>,
    watchers: Mutex<HashMap<Pid, Vec<Watcher>>>,
    next_pid: AtomicU64,
    next_token: AtomicU64,
    /// The threads simulated processes run on. `run_process` catches
    /// every unwind, a kill's included, so a thread outlives its process.
    threads: ThreadCache,
}

/// Handle to the simulated kernel. Cheap to clone.
#[derive(Clone)]
pub struct Os {
    inner: Arc<OsInner>,
}

/// Specification for [`Os::spawn`].
#[derive(Clone)]
pub struct ProcSpec {
    pub host: HostId,
    /// Path of the executable on `host`'s filesystem.
    pub executable: String,
    pub args: Vec<String>,
    pub env: HashMap<String, String>,
    pub parent: Option<Pid>,
    pub start: StartMode,
    pub stdin: Vec<u8>,
    pub stdout: Sink,
    pub stderr: Sink,
}

impl ProcSpec {
    pub fn new(host: HostId, executable: impl Into<String>) -> ProcSpec {
        ProcSpec {
            host,
            executable: executable.into(),
            args: Vec::new(),
            env: HashMap::new(),
            parent: None,
            start: StartMode::Run,
            stdin: Vec::new(),
            stdout: Sink::Capture,
            stderr: Sink::Capture,
        }
    }

    pub fn args<S: Into<String>>(mut self, args: impl IntoIterator<Item = S>) -> ProcSpec {
        self.args = args.into_iter().map(Into::into).collect();
        self
    }

    pub fn env_var(mut self, k: impl Into<String>, v: impl Into<String>) -> ProcSpec {
        self.env.insert(k.into(), v.into());
        self
    }

    pub fn parent(mut self, pid: Pid) -> ProcSpec {
        self.parent = Some(pid);
        self
    }

    pub fn paused(mut self) -> ProcSpec {
        self.start = StartMode::Paused;
        self
    }

    pub fn stdin_bytes(mut self, data: impl Into<Vec<u8>>) -> ProcSpec {
        self.stdin = data.into();
        self
    }

    pub fn stdout(mut self, sink: Sink) -> ProcSpec {
        self.stdout = sink;
        self
    }

    pub fn stderr(mut self, sink: Sink) -> ProcSpec {
        self.stderr = sink;
        self
    }
}

impl Default for Os {
    fn default() -> Self {
        Self::new()
    }
}

impl Os {
    pub fn new() -> Os {
        Os::with_config(OsConfig::default())
    }

    pub fn with_config(cfg: OsConfig) -> Os {
        install_kill_unwind_hook();
        Os {
            inner: Arc::new(OsInner {
                cfg,
                fs: Arc::new(HostFs::new()),
                procs: RwLock::new(HashMap::new()),
                watchers: Mutex::new(HashMap::new()),
                next_pid: AtomicU64::new(1),
                next_token: AtomicU64::new(1),
                threads: ThreadCache::new("sim-proc"),
            }),
        }
    }

    /// The cluster-wide (per-host) filesystem.
    pub fn fs(&self) -> &HostFs {
        &self.inner.fs
    }

    /// Kernel configuration in force.
    pub fn config(&self) -> OsConfig {
        self.inner.cfg
    }

    /// Create a process: fork + exec. With [`StartMode::Paused`] the
    /// process exists but is *stopped at exec* — `tdp_create_process`'s
    /// paused option — until [`Os::continue_process`].
    pub fn spawn(&self, spec: ProcSpec) -> TdpResult<Pid> {
        let image = self.inner.fs.lookup_exec(spec.host, &spec.executable)?;
        let pid = Pid(self.inner.next_pid.fetch_add(1, Ordering::Relaxed));
        let pcb = Pcb::new(
            pid,
            spec.host,
            spec.executable.clone(),
            spec.args.clone(),
            spec.env,
            spec.parent,
            image.symbols.clone(),
            spec.start,
            spec.stdin,
            &spec.stdout,
            &spec.stderr,
        );
        self.inner.procs.write().insert(pid, pcb.clone());
        self.emit(
            pid,
            match spec.start {
                StartMode::Run => ProcStatus::Running,
                StartMode::Paused => ProcStatus::Created,
            },
        );
        let program = (image.factory)(&spec.args);
        let os = self.clone();
        self.inner
            .threads
            .run(move || os.run_process(pcb, program))
            .map_err(|e| TdpError::Substrate(format!("thread spawn: {e}")))?;
        Ok(pid)
    }

    /// The body of a simulated process's thread.
    fn run_process(&self, pcb: Arc<Pcb>, program: Box<dyn crate::program::Program>) {
        // The initial gate: a paused process parks here, "stopped just
        // after the exec call" with no program code run yet.
        let mut ctx = ProcCtx::new(
            pcb.clone(),
            self.inner.fs.clone(),
            self.inner.cfg.time_scale_ns,
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.checkpoint();
            program.run(&mut ctx)
        }));
        let status = match result {
            Ok(code) => ProcStatus::Exited(code),
            Err(payload) => match payload.downcast::<KillUnwind>() {
                Ok(k) => ProcStatus::Killed(k.0),
                Err(other) => {
                    // A program panic is a crash: report it like a
                    // SIGSEGV (signal 11) and leave a note on stderr.
                    let msg = panic_text(&other);
                    process::push_stderr_note(&pcb, &self.inner.fs, &msg);
                    ProcStatus::Killed(11)
                }
            },
        };
        // Deliver to watcher channels BEFORE flipping the state: a
        // `wait_terminal` caller that wakes on the notify below must be
        // able to drain the terminal event immediately.
        self.emit_terminal(&pcb, status);
        {
            let mut ctl = pcb.ctl.lock();
            ctl.state = status;
        }
        pcb.cv.notify_all();
    }

    /// Current status of a process (zombies included until reaped).
    pub fn status(&self, pid: Pid) -> TdpResult<ProcStatus> {
        Ok(self.pcb(pid)?.state())
    }

    /// Attach a tracer. Errors with [`TdpError::AlreadyTraced`] if a
    /// tracer is present — one tracer per process, like ptrace.
    /// Attaching does *not* stop the process (§2.2's attach steps make
    /// pausing a separate action).
    pub fn attach(&self, pid: Pid) -> TdpResult<TraceHandle> {
        let pcb = self.pcb(pid)?;
        let token = self.inner.next_token.fetch_add(1, Ordering::Relaxed);
        {
            let mut ctl = pcb.ctl.lock();
            if ctl.state.is_terminal() {
                return Err(TdpError::WrongProcessState {
                    pid,
                    state: format!("{:?}", ctl.state),
                    wanted: "alive".to_string(),
                });
            }
            if ctl.tracer.is_some() {
                return Err(TdpError::AlreadyTraced(pid));
            }
            ctl.tracer = Some(token);
        }
        Ok(TraceHandle {
            os: self.clone(),
            pcb,
            token,
        })
    }

    /// Stop (pause) a process — kernel-side SIGSTOP, usable by the RM
    /// without being the tracer.
    pub fn stop_process(&self, pid: Pid) -> TdpResult<()> {
        let pcb = self.pcb(pid)?;
        {
            let mut ctl = pcb.ctl.lock();
            match ctl.state {
                ProcStatus::Running => ctl.state = ProcStatus::Stopped,
                ProcStatus::Stopped | ProcStatus::Created => return Ok(()), // idempotent
                s => {
                    return Err(TdpError::WrongProcessState {
                        pid,
                        state: format!("{s:?}"),
                        wanted: "Running".to_string(),
                    })
                }
            }
        }
        pcb.cv.notify_all();
        self.emit(pid, ProcStatus::Stopped);
        Ok(())
    }

    /// Continue a process: starts a `Created` (paused-at-exec) process
    /// or resumes a `Stopped` one — `tdp_continue_process`.
    pub fn continue_process(&self, pid: Pid) -> TdpResult<()> {
        let pcb = self.pcb(pid)?;
        {
            let mut ctl = pcb.ctl.lock();
            match ctl.state {
                ProcStatus::Created | ProcStatus::Stopped => ctl.state = ProcStatus::Running,
                ProcStatus::Running => return Ok(()), // idempotent
                s => {
                    return Err(TdpError::WrongProcessState {
                        pid,
                        state: format!("{s:?}"),
                        wanted: "Created or Stopped".to_string(),
                    })
                }
            }
        }
        pcb.cv.notify_all();
        self.emit(pid, ProcStatus::Running);
        Ok(())
    }

    /// Deliver a fatal signal. Takes effect at the target's next pause
    /// gate (cooperative kernel); stopped and created processes die
    /// immediately on wake.
    pub fn kill(&self, pid: Pid, sig: i32) -> TdpResult<()> {
        let pcb = self.pcb(pid)?;
        {
            let mut ctl = pcb.ctl.lock();
            if ctl.state.is_terminal() {
                return Ok(()); // already dead; kill is idempotent
            }
            ctl.kill = Some(sig);
            // Wake a parked (Stopped/Created) thread so the kill lands.
            if ctl.state == ProcStatus::Stopped || ctl.state == ProcStatus::Created {
                ctl.state = ProcStatus::Running;
            }
        }
        pcb.cv.notify_all();
        // Raised under `io` (never nested with `ctl`), so a reader that
        // passed its gate before the kill still sees it before waiting.
        pcb.io.lock().kill_pending = true;
        pcb.io_cv.notify_all();
        Ok(())
    }

    /// Register a status watcher with the given role. All non-terminal
    /// transitions go to every watcher; terminal status follows the
    /// [`Routing`] policy.
    pub fn watch(&self, pid: Pid, role: Role) -> TdpResult<Receiver<ProcEvent>> {
        self.pcb(pid)?; // validate existence
        let (tx, rx) = bounded(EVENT_QUEUE_CAP);
        self.inner
            .watchers
            .lock()
            .entry(pid)
            .or_default()
            .push(Watcher { role, tx });
        Ok(rx)
    }

    /// Block until the process reaches a terminal state.
    pub fn wait_terminal(&self, pid: Pid, timeout: Duration) -> TdpResult<ProcStatus> {
        let pcb = self.pcb(pid)?;
        let mut ctl = pcb.ctl.lock();
        let waited = pcb
            .cv
            .wait_while_for(&mut ctl, |c| !c.state.is_terminal(), timeout);
        if waited.timed_out() {
            return Err(TdpError::Timeout);
        }
        Ok(ctl.state)
    }

    /// Push bytes into a process's stdin.
    pub fn write_stdin(&self, pid: Pid, data: &[u8]) -> TdpResult<()> {
        let pcb = self.pcb(pid)?;
        process::push_stdin(&pcb, data)
    }

    /// Close a process's stdin (EOF).
    pub fn close_stdin(&self, pid: Pid) -> TdpResult<()> {
        let pcb = self.pcb(pid)?;
        process::close_stdin(&pcb);
        Ok(())
    }

    /// Read everything a `Sink::Capture` stdout has accumulated.
    pub fn read_stdout(&self, pid: Pid) -> TdpResult<Vec<u8>> {
        let pcb = self.pcb(pid)?;
        Ok(process::read_captured(&pcb, false))
    }

    /// Read everything a `Sink::Capture` stderr has accumulated.
    pub fn read_stderr(&self, pid: Pid) -> TdpResult<Vec<u8>> {
        let pcb = self.pcb(pid)?;
        Ok(process::read_captured(&pcb, true))
    }

    /// Remove a terminated process from the process table.
    pub fn reap(&self, pid: Pid) -> TdpResult<ProcStatus> {
        let status = self.status(pid)?;
        if !status.is_terminal() {
            return Err(TdpError::WrongProcessState {
                pid,
                state: format!("{status:?}"),
                wanted: "terminal".to_string(),
            });
        }
        self.inner.procs.write().remove(&pid);
        self.inner.watchers.lock().remove(&pid);
        Ok(status)
    }

    /// Pids of live (non-terminal) processes on a host, sorted.
    pub fn processes_on(&self, host: HostId) -> Vec<Pid> {
        let mut v: Vec<Pid> = self
            .inner
            .procs
            .read()
            .values()
            .filter(|p| p.host == host && !p.state().is_terminal())
            .map(|p| p.pid)
            .collect();
        v.sort();
        v
    }

    /// Metadata of a process: (host, executable, args, parent).
    pub fn proc_info(&self, pid: Pid) -> TdpResult<(HostId, String, Vec<String>, Option<Pid>)> {
        let p = self.pcb(pid)?;
        Ok((p.host, p.executable.clone(), p.args.clone(), p.parent))
    }

    /// Total virtual CPU consumed by a process so far.
    pub fn cpu_of(&self, pid: Pid) -> TdpResult<u64> {
        Ok(self.pcb(pid)?.instr.lock().total_cpu)
    }

    /// Wall-clock time since the process was created (tools divide CPU
    /// by this for utilization metrics).
    pub fn uptime_of(&self, pid: Pid) -> TdpResult<Duration> {
        Ok(self.pcb(pid)?.started_at.elapsed())
    }

    fn pcb(&self, pid: Pid) -> TdpResult<Arc<Pcb>> {
        self.inner
            .procs
            .read()
            .get(&pid)
            .cloned()
            .ok_or(TdpError::NoSuchProcess(pid))
    }

    /// Deliver a non-terminal transition to every watcher.
    ///
    /// `try_send` on a bounded queue keeps delivery non-blocking while
    /// the `watchers` lock is held: a watcher that has fallen
    /// [`EVENT_QUEUE_CAP`] events behind is treated exactly like a
    /// disconnected one and dropped, instead of stalling every status
    /// transition in the kernel behind its full queue.
    fn emit(&self, pid: Pid, status: ProcStatus) {
        let mut watchers = self.inner.watchers.lock();
        if let Some(list) = watchers.get_mut(&pid) {
            list.retain(|w| w.tx.try_send(ProcEvent { pid, status }).is_ok());
        }
    }

    /// Deliver a terminal status under the routing policy.
    fn emit_terminal(&self, pcb: &Pcb, status: ProcStatus) {
        let tracer_attached = pcb.ctl.lock().tracer.is_some();
        let routing = self.inner.cfg.routing;
        let mut watchers = self.inner.watchers.lock();
        if let Some(list) = watchers.get_mut(&pcb.pid) {
            list.retain(|w| {
                let deliver = match w.role {
                    Role::Observer => true,
                    Role::Parent => match routing {
                        Routing::ParentOnly | Routing::Both => true,
                        Routing::TracerElseParent => !tracer_attached,
                    },
                    Role::Tracer => match routing {
                        Routing::ParentOnly => false,
                        Routing::Both => true,
                        Routing::TracerElseParent => tracer_attached,
                    },
                };
                !deliver
                    || w.tx
                        .try_send(ProcEvent {
                            pid: pcb.pid,
                            status,
                        })
                        .is_ok()
            });
        }
    }
}

/// Capability held by the (single) tracer of a process — what
/// `tdp_attach` returns under the hood. Dropping the handle detaches
/// (and, like `PTRACE_DETACH`, resumes a stopped tracee).
pub struct TraceHandle {
    os: Os,
    pcb: Arc<Pcb>,
    token: u64,
}

impl TraceHandle {
    /// Pid of the traced process.
    pub fn target(&self) -> Pid {
        self.pcb.pid
    }

    /// Symbol table of the traced executable ("paradynd parses the
    /// executable to discover symbols", §4.2).
    pub fn symbols(&self) -> Vec<String> {
        self.pcb.symbols.as_ref().clone()
    }

    /// Pause the tracee.
    pub fn stop(&self) -> TdpResult<()> {
        self.check()?;
        self.os.stop_process(self.pcb.pid)
    }

    /// Continue the tracee (from Created or Stopped).
    pub fn cont(&self) -> TdpResult<()> {
        self.check()?;
        self.os.continue_process(self.pcb.pid)
    }

    /// Insert instrumentation at a symbol. Errors if the symbol is not
    /// in the executable's table.
    pub fn arm_probe(&self, sym: &str) -> TdpResult<()> {
        self.check()?;
        if !self.pcb.symbols.iter().any(|s| s == sym) {
            return Err(TdpError::Substrate(format!(
                "no symbol {sym:?} in {}",
                self.pcb.executable
            )));
        }
        self.pcb.instr.lock().armed.insert(sym.to_string());
        Ok(())
    }

    /// Remove instrumentation from a symbol.
    pub fn disarm_probe(&self, sym: &str) -> TdpResult<()> {
        self.check()?;
        self.pcb.instr.lock().armed.remove(sym);
        Ok(())
    }

    /// Read the accumulated probe data.
    pub fn read_probes(&self) -> TdpResult<ProbeSnapshot> {
        self.check()?;
        Ok(self.pcb.snapshot_probes())
    }

    /// Arm a breakpoint: entering `sym` stops the tracee *before* the
    /// body runs and notifies [`TraceHandle::breakpoint_events`]
    /// subscribers — the dynamic-instrumentation substrate a debugger
    /// needs.
    pub fn arm_breakpoint(&self, sym: &str) -> TdpResult<()> {
        self.check()?;
        if !self.pcb.symbols.iter().any(|s| s == sym) {
            return Err(TdpError::Substrate(format!(
                "no symbol {sym:?} in {}",
                self.pcb.executable
            )));
        }
        self.pcb.instr.lock().breakpoints.insert(sym.to_string());
        Ok(())
    }

    /// Remove a breakpoint.
    pub fn disarm_breakpoint(&self, sym: &str) -> TdpResult<()> {
        self.check()?;
        self.pcb.instr.lock().breakpoints.remove(sym);
        Ok(())
    }

    /// The most recently hit breakpoint, if any.
    pub fn last_breakpoint(&self) -> TdpResult<Option<String>> {
        self.check()?;
        Ok(self.pcb.instr.lock().last_break.clone())
    }

    /// Subscribe to breakpoint hits: one message (the symbol) per stop.
    pub fn breakpoint_events(&self) -> TdpResult<Receiver<String>> {
        self.check()?;
        let (tx, rx) = bounded(EVENT_QUEUE_CAP);
        self.pcb.bp_subs.lock().push(tx);
        Ok(rx)
    }

    /// Enable or disable live call-stack tracking (off by default: it
    /// costs an allocation per named call while on).
    pub fn set_stack_tracking(&self, on: bool) -> TdpResult<()> {
        self.check()?;
        let mut i = self.pcb.instr.lock();
        i.track_stack = on;
        if !on {
            i.live_stack.clear();
        }
        Ok(())
    }

    /// Snapshot of the tracee's named-call stack, outermost first.
    /// Meaningful while the tracee is stopped (e.g. at a breakpoint).
    pub fn read_stack(&self) -> TdpResult<Vec<String>> {
        self.check()?;
        Ok(self.pcb.instr.lock().live_stack.clone())
    }

    /// Explicit detach (also happens on drop). Resumes a stopped tracee.
    pub fn detach(self) {
        // Drop impl does the work.
    }

    fn check(&self) -> TdpResult<()> {
        let ctl = self.pcb.ctl.lock();
        if ctl.tracer == Some(self.token) {
            Ok(())
        } else {
            Err(TdpError::NotTracer(self.pcb.pid))
        }
    }
}

impl Drop for TraceHandle {
    fn drop(&mut self) {
        let mut ctl = self.pcb.ctl.lock();
        if ctl.tracer == Some(self.token) {
            ctl.tracer = None;
            if ctl.state == ProcState::Stopped {
                ctl.state = ProcState::Running;
                drop(ctl);
                self.pcb.cv.notify_all();
                self.os.emit(self.pcb.pid, ProcStatus::Running);
            }
        }
    }
}

/// The kill mechanism unwinds program threads with a `KillUnwind`
/// panic; that is kernel bookkeeping, not a bug, so the default panic
/// hook must stay quiet about it. Installed once, delegating everything
/// else to the pre-existing hook.
fn install_kill_unwind_hook() {
    static ONCE: tdp_sync::Once = tdp_sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<KillUnwind>().is_none() {
                previous(info);
            }
        }));
    });
}

fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}\n")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}\n")
    } else {
        "panic: <non-string payload>\n".to_string()
    }
}
