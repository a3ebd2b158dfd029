//! Process control blocks, the pause gate, instrumentation probes and
//! the per-process syscall interface [`ProcCtx`].

use crate::fs::HostFs;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdp_proto::{HostId, Pid, TdpError, TdpResult};
use tdp_sync::{Condvar, Mutex};

/// Re-export: process states are exactly the wire-level statuses the RM
/// publishes in the attribute space.
pub use tdp_proto::ProcStatus as ProcState;

/// How a process is started (§2.2):
/// * `Run` — case 1: create and start immediately;
/// * `Paused` — case 2: fork+exec complete but the process is stopped
///   before its first instruction, waiting for a `continue`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartMode {
    #[default]
    Run,
    Paused,
}

/// Where a process's stdout/stderr goes. §2's "standard input and output
/// management" is layered above this: the RM wires a process's stdio to
/// files or forwards it over a (possibly proxied) connection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Sink {
    /// Discard.
    Null,
    /// Keep in memory, readable via `Os::read_stdout` / `read_stderr`.
    #[default]
    Capture,
    /// Append to a file on the process's host filesystem.
    File(String),
}

/// Panic payload used to unwind a program when its process is killed.
pub(crate) struct KillUnwind(pub i32);

/// Pending control-plane state, guarded by `Pcb::ctl`.
pub(crate) struct Ctl {
    pub state: ProcState,
    /// Pending kill signal; takes effect at the next gate.
    pub kill: Option<i32>,
    /// Trace token of the attached tracer, if any.
    pub tracer: Option<u64>,
}

/// Per-symbol instrumentation state — the Dyninst-shaped substrate
/// ("dynamically inserting and removing instrumentation in the
/// application program at run time", §4.2).
#[derive(Default)]
pub(crate) struct Instr {
    pub armed: HashSet<String>,
    /// Symbols with an armed breakpoint: entering one stops the
    /// process before the body runs (the debugger capability).
    pub breakpoints: HashSet<String>,
    /// The most recently hit breakpoint.
    pub last_break: Option<String>,
    /// Maintain `live_stack` (off by default — zero overhead unless a
    /// debugger asks).
    pub track_stack: bool,
    /// The named-call stack, innermost last (only when `track_stack`).
    pub live_stack: Vec<String>,
    pub counts: HashMap<String, u64>,
    /// Inclusive virtual CPU units attributed to each armed symbol.
    pub time: HashMap<String, u64>,
    /// Exclusive (self) virtual CPU units: work done while the symbol
    /// was the innermost armed frame.
    pub self_time: HashMap<String, u64>,
    /// Total virtual CPU units consumed by the process.
    pub total_cpu: u64,
}

/// Snapshot of a process's probe data, as read by an attached tool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeSnapshot {
    /// Completed calls per instrumented symbol.
    pub counts: HashMap<String, u64>,
    /// Inclusive virtual CPU units per instrumented symbol.
    pub time: HashMap<String, u64>,
    /// Exclusive (self) virtual CPU units per instrumented symbol.
    pub self_time: HashMap<String, u64>,
    /// Total virtual CPU units consumed by the process so far.
    pub total_cpu: u64,
}

pub(crate) struct Io {
    pub stdin: VecDeque<u8>,
    pub stdin_closed: bool,
    /// `Ctl::kill` as a reader blocked on stdin sees it: set by
    /// `Os::kill` under this lock, so the read's wait needs no timer.
    pub kill_pending: bool,
    pub stdout: SinkState,
    pub stderr: SinkState,
}

pub(crate) enum SinkState {
    Null,
    Capture(Vec<u8>),
    File(String),
}

impl SinkState {
    fn from_sink(s: &Sink) -> SinkState {
        match s {
            Sink::Null => SinkState::Null,
            Sink::Capture => SinkState::Capture(Vec::new()),
            Sink::File(p) => SinkState::File(p.clone()),
        }
    }
}

/// The process control block. One per simulated process; shared between
/// the kernel, the process's own thread (via [`ProcCtx`]) and any
/// attached tracer.
pub(crate) struct Pcb {
    pub pid: Pid,
    pub host: HostId,
    pub executable: String,
    pub args: Vec<String>,
    pub env: HashMap<String, String>,
    pub parent: Option<Pid>,
    pub symbols: Arc<Vec<String>>,
    pub ctl: Mutex<Ctl>,
    pub cv: Condvar,
    pub instr: Mutex<Instr>,
    pub io: Mutex<Io>,
    pub io_cv: Condvar,
    /// Debugger notification channels: one message (the symbol name)
    /// per breakpoint hit.
    pub bp_subs: Mutex<Vec<tdp_sync::channel::Sender<String>>>,
    /// Wall-clock start, reported to tools for rate computations.
    pub started_at: Instant,
}

impl Pcb {
    #[allow(clippy::too_many_arguments)] // internal constructor mirroring the spec fields
    pub fn new(
        pid: Pid,
        host: HostId,
        executable: String,
        args: Vec<String>,
        env: HashMap<String, String>,
        parent: Option<Pid>,
        symbols: Arc<Vec<String>>,
        start: StartMode,
        stdin: Vec<u8>,
        stdout: &Sink,
        stderr: &Sink,
    ) -> Arc<Pcb> {
        let state = match start {
            StartMode::Run => ProcState::Running,
            StartMode::Paused => ProcState::Created,
        };
        Arc::new(Pcb {
            pid,
            host,
            executable,
            args,
            env,
            parent,
            symbols,
            ctl: Mutex::new(Ctl {
                state,
                kill: None,
                tracer: None,
            }),
            cv: Condvar::new(),
            instr: Mutex::new(Instr::default()),
            io: Mutex::new(Io {
                stdin: stdin.into(),
                stdin_closed: false,
                kill_pending: false,
                stdout: SinkState::from_sink(stdout),
                stderr: SinkState::from_sink(stderr),
            }),
            io_cv: Condvar::new(),
            bp_subs: Mutex::new(Vec::new()),
            started_at: Instant::now(),
        })
    }

    /// The pause gate: every ProcCtx operation passes through here. A
    /// pending stop parks the thread; a pending kill unwinds it.
    pub fn gate(&self) {
        let mut ctl = self.ctl.lock();
        loop {
            if let Some(sig) = ctl.kill {
                drop(ctl);
                std::panic::panic_any(KillUnwind(sig));
            }
            match ctl.state {
                ProcState::Stopped | ProcState::Created => self.cv.wait(&mut ctl),
                _ => return,
            }
        }
    }

    /// Current externally visible state.
    pub fn state(&self) -> ProcState {
        self.ctl.lock().state
    }

    pub fn snapshot_probes(&self) -> ProbeSnapshot {
        let i = self.instr.lock();
        ProbeSnapshot {
            counts: i.counts.clone(),
            time: i.time.clone(),
            self_time: i.self_time.clone(),
            total_cpu: i.total_cpu,
        }
    }
}

/// The syscall interface handed to a running [`crate::Program`].
///
/// Every method passes the pause gate first, so an attached tool (or the
/// resource manager) observes stop/continue/kill taking effect at
/// operation boundaries.
pub struct ProcCtx {
    pub(crate) pcb: Arc<Pcb>,
    pub(crate) fs: Arc<HostFs>,
    /// Nanoseconds of real time burned per `compute` unit (0 = purely
    /// virtual time).
    pub(crate) time_scale_ns: u64,
    /// Stack of symbols currently on the simulated call stack, with
    /// the `total_cpu` value at entry (for attribution).
    call_stack: Vec<(String, u64)>,
}

impl ProcCtx {
    pub(crate) fn new(pcb: Arc<Pcb>, fs: Arc<HostFs>, time_scale_ns: u64) -> ProcCtx {
        ProcCtx {
            pcb,
            fs,
            time_scale_ns,
            call_stack: Vec::new(),
        }
    }

    /// This process's pid.
    pub fn pid(&self) -> Pid {
        self.pcb.pid
    }

    /// The host this process runs on.
    pub fn host(&self) -> HostId {
        self.pcb.host
    }

    /// Command-line arguments (argv[1..]).
    pub fn args(&self) -> &[String] {
        &self.pcb.args
    }

    /// Environment lookup.
    pub fn env(&self, key: &str) -> Option<&str> {
        self.pcb.env.get(key).map(String::as_str)
    }

    /// Explicit pause-gate crossing; long computations that never call
    /// another ctx method should sprinkle these so stops and kills can
    /// take effect.
    pub fn checkpoint(&mut self) {
        self.pcb.gate();
    }

    /// Consume `units` of virtual CPU, attributed to the innermost
    /// instrumented frame on the simulated call stack.
    pub fn compute(&mut self, units: u64) {
        self.pcb.gate();
        {
            let mut i = self.pcb.instr.lock();
            i.total_cpu += units;
            // Exclusive attribution: the innermost armed frame owns this
            // work (the call stack only holds armed frames).
            if let Some((sym, _)) = self.call_stack.last() {
                *i.self_time.entry(sym.clone()).or_insert(0) += units;
            }
        }
        if self.time_scale_ns > 0 {
            std::thread::sleep(Duration::from_nanos(
                self.time_scale_ns.saturating_mul(units),
            ));
        }
    }

    /// Enter the named function, run `body`, exit. If a tracer has armed
    /// a probe on `sym`, the call is counted and the virtual CPU consumed
    /// inside is attributed to `sym` — dynamic instrumentation with true
    /// zero-count when disarmed.
    pub fn call<R>(&mut self, sym: &str, body: impl FnOnce(&mut ProcCtx) -> R) -> R {
        self.pcb.gate();
        let (armed, breakpoint, track) = {
            let i = self.pcb.instr.lock();
            (
                i.armed.contains(sym),
                i.breakpoints.contains(sym),
                i.track_stack,
            )
        };
        if breakpoint {
            // Stop *before* the body runs, record the hit, notify the
            // debugger, and park at the gate until continued.
            {
                let mut i = self.pcb.instr.lock();
                i.last_break = Some(sym.to_string());
            }
            {
                let mut ctl = self.pcb.ctl.lock();
                if ctl.state == ProcState::Running {
                    ctl.state = ProcState::Stopped;
                }
            }
            // Non-blocking delivery under the subscriber lock: a
            // subscriber whose bounded queue is full has stopped
            // draining breakpoint stops and is dropped like a
            // disconnected one (see `Kernel::emit`).
            self.pcb
                .bp_subs
                .lock()
                .retain(|tx| tx.try_send(sym.to_string()).is_ok());
            self.pcb.gate();
        }
        if track {
            self.pcb.instr.lock().live_stack.push(sym.to_string());
        }
        let r = self.call_inner(sym, armed, body);
        if track {
            self.pcb.instr.lock().live_stack.pop();
        }
        r
    }

    fn call_inner<R>(&mut self, sym: &str, armed: bool, body: impl FnOnce(&mut ProcCtx) -> R) -> R {
        if armed {
            let cpu_in = self.pcb.instr.lock().total_cpu;
            self.call_stack.push((sym.to_string(), cpu_in));
            let r = body(self);
            let (sym, cpu_at_entry) = self.call_stack.pop().expect("balanced call stack");
            let mut i = self.pcb.instr.lock();
            let delta = i.total_cpu.saturating_sub(cpu_at_entry);
            *i.counts.entry(sym.clone()).or_insert(0) += 1;
            *i.time.entry(sym).or_insert(0) += delta;
            r
        } else {
            body(self)
        }
    }

    /// Sleep for `dur`, interruptible by stop (time keeps passing) and
    /// kill (unwinds).
    pub fn sleep(&mut self, dur: Duration) {
        let start = Instant::now();
        loop {
            self.pcb.gate();
            let mut ctl = self.pcb.ctl.lock();
            let Some(left) = dur.checked_sub(start.elapsed()) else {
                return;
            };
            if ctl.kill.is_some() || ctl.state == ProcState::Stopped {
                continue; // re-gate
            }
            if self.pcb.cv.wait_for(&mut ctl, left).timed_out() {
                drop(ctl);
                self.pcb.gate(); // one final kill/stop check
                return;
            }
        }
    }

    /// Write to standard output.
    pub fn write_stdout(&mut self, data: &[u8]) {
        self.pcb.gate();
        write_sink(&self.pcb, &self.fs, data, false);
    }

    /// Write to standard error.
    pub fn write_stderr(&mut self, data: &[u8]) {
        self.pcb.gate();
        write_sink(&self.pcb, &self.fs, data, true);
    }

    /// Blocking read of some stdin bytes. `Ok(None)` means EOF.
    pub fn read_stdin(&mut self) -> TdpResult<Option<Vec<u8>>> {
        loop {
            self.pcb.gate();
            let mut io = self.pcb.io.lock();
            if !io.stdin.is_empty() {
                let out: Vec<u8> = io.stdin.drain(..).collect();
                return Ok(Some(out));
            }
            if io.stdin_closed {
                return Ok(None);
            }
            // Woken by data, EOF or a kill; the gate above unwinds a kill.
            if !io.kill_pending {
                self.pcb.io_cv.wait(&mut io);
            }
        }
    }

    /// The filesystem of this process's host.
    pub fn fs(&self) -> HostFsView<'_> {
        HostFsView {
            fs: &self.fs,
            host: self.pcb.host,
        }
    }
}

/// A view of [`HostFs`] restricted to one host — what a process sees.
pub struct HostFsView<'a> {
    fs: &'a HostFs,
    host: HostId,
}

impl HostFsView<'_> {
    pub fn read(&self, path: &str) -> TdpResult<Vec<u8>> {
        self.fs.read_file(self.host, path)
    }

    pub fn write(&self, path: &str, data: &[u8]) {
        self.fs.write_file(self.host, path, data);
    }

    pub fn append(&self, path: &str, data: &[u8]) {
        self.fs.append_file(self.host, path, data);
    }

    pub fn exists(&self, path: &str) -> bool {
        self.fs.exists(self.host, path)
    }
}

fn write_sink(pcb: &Pcb, fs: &HostFs, data: &[u8], to_stderr: bool) {
    let mut io = pcb.io.lock();
    let sink = if to_stderr {
        &mut io.stderr
    } else {
        &mut io.stdout
    };
    match sink {
        SinkState::Null => {}
        SinkState::Capture(buf) => buf.extend_from_slice(data),
        SinkState::File(path) => {
            let path = path.clone();
            drop(io);
            fs.append_file(pcb.host, &path, data);
        }
    }
}

/// Internal: deliver stdin bytes (used by `Os::write_stdin`).
pub(crate) fn push_stdin(pcb: &Pcb, data: &[u8]) -> TdpResult<()> {
    let mut io = pcb.io.lock();
    if io.stdin_closed {
        return Err(TdpError::Disconnected);
    }
    io.stdin.extend(data);
    drop(io);
    pcb.io_cv.notify_all();
    Ok(())
}

pub(crate) fn close_stdin(pcb: &Pcb) {
    pcb.io.lock().stdin_closed = true;
    pcb.io_cv.notify_all();
}

/// Internal: the kernel writes a crash note to a process's stderr sink
/// (used when a program panics — our "core dump" message).
pub(crate) fn push_stderr_note(pcb: &Pcb, fs: &HostFs, msg: &str) {
    write_sink(pcb, fs, msg.as_bytes(), true);
}

pub(crate) fn read_captured(pcb: &Pcb, stderr: bool) -> Vec<u8> {
    let io = pcb.io.lock();
    match if stderr { &io.stderr } else { &io.stdout } {
        SinkState::Capture(buf) => buf.clone(),
        _ => Vec::new(),
    }
}
