//! `tdb` — a symbolic debugger over TDP.
//!
//! The gdb of §2.2's taxonomy ("create the application, initialize it,
//! and then start it running … tools such as gdb, Totalview, and
//! Paradyn use this technique"): it can launch a program stopped before
//! `main`, or pick up a pid from the TDP attribute space, and then set
//! breakpoints, inspect the call stack, step between symbol entries and
//! read instrumentation counters.

use std::time::{Duration, Instant};
use tdp_core::{Role, TdpCreate, TdpHandle, World};
use tdp_proto::{names, ContextId, HostId, Pid, ProcStatus, TdpError, TdpResult};
use tdp_sync::channel::Receiver;

/// What `wait_stop` observed.
#[derive(Debug, Clone, PartialEq)]
pub enum TdbEvent {
    /// Stopped at a breakpoint on this symbol.
    Breakpoint(String),
    /// The debuggee terminated.
    Terminated(ProcStatus),
}

/// An interactive debugger session bound to one process.
pub struct Tdb {
    tdp: TdpHandle,
    pid: Pid,
    hits: Receiver<String>,
}

impl Tdb {
    /// Launch `exe` under the debugger: created **paused at exec**, so
    /// breakpoints set now fire from the very first instruction on.
    /// The debugger acts as its own resource manager (desktop use).
    pub fn launch(
        world: &World,
        host: HostId,
        ctx: ContextId,
        exe: &str,
        args: &[&str],
    ) -> TdpResult<Tdb> {
        let mut tdp = TdpHandle::init(world, host, ctx, "tdb", Role::ResourceManager)?;
        let pid = tdp.create_process(
            TdpCreate::new(exe)
                .args(args.iter().map(|s| s.to_string()))
                .paused(),
        )?;
        Self::finish_setup(tdp, pid)
    }

    /// Join a TDP framework: the RM has created the application paused
    /// and will put its pid into the context's space.
    pub fn from_tdp(world: &World, host: HostId, ctx: ContextId) -> TdpResult<Tdb> {
        let mut tdp = TdpHandle::init(world, host, ctx, "tdb", Role::Tool)?;
        let pid = Pid::parse(&tdp.get(names::PID)?)
            .ok_or_else(|| TdpError::Protocol("bad pid attribute".into()))?;
        Self::finish_setup(tdp, pid)
    }

    fn finish_setup(mut tdp: TdpHandle, pid: Pid) -> TdpResult<Tdb> {
        tdp.attach(pid)?;
        tdp.set_stack_tracking(pid, true)?;
        let hits = tdp.breakpoint_events(pid)?;
        let _ = tdp.put(names::TOOL_READY, "1");
        Ok(Tdb { tdp, pid, hits })
    }

    /// The debuggee's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The debuggee's symbol table.
    pub fn symbols(&self) -> TdpResult<Vec<String>> {
        self.tdp.symbols(self.pid)
    }

    /// Set a breakpoint (gdb `break sym`).
    pub fn breakpoint(&mut self, sym: &str) -> TdpResult<()> {
        self.tdp.arm_breakpoint(self.pid, sym)
    }

    /// Clear a breakpoint (gdb `delete`).
    pub fn clear(&mut self, sym: &str) -> TdpResult<()> {
        self.tdp.disarm_breakpoint(self.pid, sym)
    }

    /// Continue execution (gdb `run` / `continue`).
    pub fn run(&mut self) -> TdpResult<()> {
        self.tdp.continue_process(self.pid)
    }

    /// Wait for the next stop: a breakpoint hit or termination.
    pub fn wait_stop(&mut self, timeout: Duration) -> TdpResult<TdbEvent> {
        let start = Instant::now();
        loop {
            // Hits arrive on the channel; termination only shows in the
            // status, hence the 10 ms slice.
            let left = timeout.saturating_sub(start.elapsed());
            if let Ok(sym) = self.hits.recv_timeout(left.min(Duration::from_millis(10))) {
                return Ok(TdbEvent::Breakpoint(sym));
            }
            let st = self.tdp.process_status(self.pid)?;
            if st.is_terminal() {
                return Ok(TdbEvent::Terminated(st));
            }
            if left.is_zero() {
                return Err(TdpError::Timeout);
            }
        }
    }

    /// Step to the next *symbol entry* (gdb `step`, at our symbol
    /// granularity): breakpoints are temporarily armed on every symbol.
    pub fn step(&mut self, timeout: Duration) -> TdpResult<TdbEvent> {
        let symbols = self.symbols()?;
        for sym in &symbols {
            self.tdp.arm_breakpoint(self.pid, sym)?;
        }
        self.run()?;
        let ev = self.wait_stop(timeout);
        for sym in &symbols {
            let _ = self.tdp.disarm_breakpoint(self.pid, sym);
        }
        ev
    }

    /// The call stack at the current stop (gdb `backtrace`), outermost
    /// first.
    pub fn backtrace(&self) -> TdpResult<Vec<String>> {
        self.tdp.read_stack(self.pid)
    }

    /// The symbol of the most recent breakpoint stop.
    pub fn where_stopped(&self) -> TdpResult<Option<String>> {
        self.tdp.last_breakpoint(self.pid)
    }

    /// Instrument a symbol with a counting probe (gdb has no analog —
    /// this is the Dyninst-flavoured part).
    pub fn watch_calls(&mut self, sym: &str) -> TdpResult<()> {
        self.tdp.arm_probe(self.pid, sym)
    }

    /// Read probe counters (`info` for watched symbols).
    pub fn info(&self) -> TdpResult<tdp_simos::ProbeSnapshot> {
        self.tdp.read_probes(self.pid)
    }

    /// Kill the debuggee (gdb `kill`).
    pub fn kill(&mut self) -> TdpResult<()> {
        self.tdp.kill_process(self.pid, 9)
    }

    /// Wait for natural termination.
    pub fn wait_exit(&mut self, timeout: Duration) -> TdpResult<ProcStatus> {
        self.tdp.wait_terminal(self.pid, timeout)
    }

    /// Detach and end the session, leaving the debuggee as-is (resumed
    /// if it was stopped, like gdb `detach`).
    pub fn detach(mut self) -> TdpResult<()> {
        self.tdp.detach(self.pid)?;
        self.tdp.exit()
    }
}
