//! [`TdpHandle`] — the per-daemon TDP library instance.

use crate::trace::Call;
use crate::world::World;
use std::collections::HashMap;
use std::time::Duration;
use tdp_attrspace::AttrClient;
use tdp_netsim::Conn;
use tdp_proto::{
    names, Addr, ContextId, HostId, Pid, ProcRequest, ProcStatus, TdpError, TdpResult,
};
use tdp_simos::kernel::ProcSpec;
use tdp_simos::{ProbeSnapshot, Sink, StartMode, TraceHandle};

/// Token identifying a registered asynchronous callback, returned by
/// [`TdpHandle::async_get`] / [`TdpHandle::watch`].
pub type Token = u64;

/// Which side of the protocol this daemon is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The resource manager (or one of its daemons, e.g. the starter):
    /// starts the LASS, owns process control.
    ResourceManager,
    /// A run-time tool daemon: connects to the RM-provided LASS.
    Tool,
}

/// Specification for `tdp_create_process` — the paper's create call with
/// its `run` / `paused` option.
#[derive(Clone)]
pub struct TdpCreate {
    pub executable: String,
    pub args: Vec<String>,
    pub env: Vec<(String, String)>,
    /// `true` = stop the process right after exec, before any program
    /// code runs (§3.1); the RM continues it once the tool is ready.
    pub paused: bool,
    pub stdin: Vec<u8>,
    pub stdout: Sink,
    pub stderr: Sink,
    /// Host to create on; defaults to the creating daemon's host.
    pub host: Option<HostId>,
}

impl TdpCreate {
    pub fn new(executable: impl Into<String>) -> TdpCreate {
        TdpCreate {
            executable: executable.into(),
            args: Vec::new(),
            env: Vec::new(),
            paused: false,
            stdin: Vec::new(),
            stdout: Sink::Capture,
            stderr: Sink::Capture,
            host: None,
        }
    }

    pub fn args<S: Into<String>>(mut self, args: impl IntoIterator<Item = S>) -> Self {
        self.args = args.into_iter().map(Into::into).collect();
        self
    }

    pub fn env_var(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.env.push((k.into(), v.into()));
        self
    }

    pub fn paused(mut self) -> Self {
        self.paused = true;
        self
    }

    pub fn stdout(mut self, sink: Sink) -> Self {
        self.stdout = sink;
        self
    }

    pub fn stderr(mut self, sink: Sink) -> Self {
        self.stderr = sink;
        self
    }

    pub fn stdin_bytes(mut self, data: impl Into<Vec<u8>>) -> Self {
        self.stdin = data.into();
        self
    }

    pub fn on_host(mut self, host: HostId) -> Self {
        self.host = Some(host);
        self
    }
}

/// Boxed user callback for asynchronous operations.
type AttrCallback = Box<dyn FnMut(&str, &str) + Send>;

struct CallbackEntry {
    f: AttrCallback,
    persistent: bool,
    key: String,
}

/// Completion queued by `async_put` so its callback runs at the next
/// `service_events` (a safe point), never inline (§3.3).
struct PendingCompletion {
    token: Token,
    key: String,
    value: String,
}

/// The TDP library handle — what `tdp_init` returns.
///
/// One handle per daemon (RM-side starter, or RT daemon). All methods
/// take `&mut self`: the handle is single-threaded by design, matching
/// the paper's poll-loop daemon model.
pub struct TdpHandle {
    world: World,
    host: HostId,
    ctx: ContextId,
    actor: String,
    role: Role,
    lass: AttrClient,
    cass: Option<AttrClient>,
    callbacks: HashMap<Token, CallbackEntry>,
    completions: Vec<PendingCompletion>,
    next_token: u64,
    traces: HashMap<Pid, TraceHandle>,
    closed: bool,
}

impl TdpHandle {
    /// `tdp_init`: establish the TDP framework on this daemon.
    ///
    /// An RM-side daemon starts the host's LASS if it is not already
    /// running ("the LASS's are started by the RM", §2.1); a tool
    /// connects to the existing one. Both join `ctx` — the per-(RM,RT)
    /// space of §3.2.
    pub fn init(
        world: &World,
        host: HostId,
        ctx: ContextId,
        actor: &str,
        role: Role,
    ) -> TdpResult<TdpHandle> {
        let lass_addr = match role {
            Role::ResourceManager => world.ensure_lass(host)?,
            Role::Tool => world.lass_addr(host).ok_or_else(|| {
                TdpError::Substrate(format!(
                    "no LASS on {host}: the resource manager must tdp_init first"
                ))
            })?,
        };
        let mut lass = world.attr_connect(host, lass_addr)?;
        lass.join(ctx)?;
        world.trace().record(actor, Call::Init(ctx));
        Ok(TdpHandle {
            world: world.clone(),
            host,
            ctx,
            actor: actor.to_string(),
            role,
            lass,
            cass: None,
            callbacks: HashMap::new(),
            completions: Vec::new(),
            next_token: 1,
            traces: HashMap::new(),
            closed: false,
        })
    }

    /// The world this handle lives in.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Host this daemon runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Context joined at init.
    pub fn context(&self) -> ContextId {
        self.ctx
    }

    /// Daemon name used in the call trace.
    pub fn actor(&self) -> &str {
        &self.actor
    }

    /// Role declared at init.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Log one of this daemon's calls to the world's [`crate::Trace`].
    fn trace(&self, call: Call<'_>) {
        self.world.trace().record(&self.actor, call);
    }

    fn check_open(&self) -> TdpResult<()> {
        if self.closed {
            Err(TdpError::HandleClosed)
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // Attribute space (§3.2)
    // ------------------------------------------------------------------

    /// Blocking `tdp_put`.
    pub fn put(&mut self, key: &str, value: &str) -> TdpResult<()> {
        self.check_open()?;
        self.trace(Call::Put(key));
        self.lass.put(self.ctx, key, value)
    }

    /// Blocking `tdp_get`: parks this daemon until the attribute exists.
    pub fn get(&mut self, key: &str) -> TdpResult<String> {
        self.check_open()?;
        self.trace(Call::Get(key));
        self.lass.get(self.ctx, key)
    }

    /// Blocking get with a deadline.
    pub fn get_timeout(&mut self, key: &str, timeout: Duration) -> TdpResult<String> {
        self.check_open()?;
        self.trace(Call::Get(key));
        self.lass.get_timeout(self.ctx, key, timeout)
    }

    /// Non-blocking get: error if absent (§3.2's error case).
    pub fn try_get(&mut self, key: &str) -> TdpResult<String> {
        self.check_open()?;
        self.lass.try_get(self.ctx, key)
    }

    /// Remove an attribute.
    pub fn remove(&mut self, key: &str) -> TdpResult<()> {
        self.check_open()?;
        self.lass.remove(self.ctx, key)
    }

    /// Keys with a prefix (extension used by the MPI universe).
    pub fn list_keys(&mut self, prefix: &str) -> TdpResult<Vec<String>> {
        self.check_open()?;
        self.lass.list_keys(self.ctx, prefix)
    }

    /// `tdp_async_get`: returns immediately; `callback(key, value)` runs
    /// from a later [`TdpHandle::service_events`] once the attribute is
    /// (or becomes) available.
    pub fn async_get(
        &mut self,
        key: &str,
        callback: impl FnMut(&str, &str) + Send + 'static,
    ) -> TdpResult<Token> {
        self.check_open()?;
        let token = self.next_token;
        self.next_token += 1;
        self.trace(Call::AsyncGet(key));
        self.lass.subscribe(self.ctx, key, token, false)?;
        self.callbacks.insert(
            token,
            CallbackEntry {
                f: Box::new(callback),
                persistent: false,
                key: key.to_string(),
            },
        );
        Ok(token)
    }

    /// `tdp_async_put`: performs the put and defers the completion
    /// callback to the next `service_events` — callbacks only ever run
    /// at the daemon's safe point (§3.3).
    pub fn async_put(
        &mut self,
        key: &str,
        value: &str,
        callback: impl FnMut(&str, &str) + Send + 'static,
    ) -> TdpResult<Token> {
        self.check_open()?;
        let token = self.next_token;
        self.next_token += 1;
        self.trace(Call::AsyncPut(key));
        self.lass.put(self.ctx, key, value)?;
        self.callbacks.insert(
            token,
            CallbackEntry {
                f: Box::new(callback),
                persistent: false,
                key: key.to_string(),
            },
        );
        self.completions.push(PendingCompletion {
            token,
            key: key.to_string(),
            value: value.to_string(),
        });
        Ok(token)
    }

    /// Persistent subscription: `callback` runs on *every* put of `key`
    /// (auto re-subscribes). TDP extension used for status monitoring.
    pub fn watch(
        &mut self,
        key: &str,
        callback: impl FnMut(&str, &str) + Send + 'static,
    ) -> TdpResult<Token> {
        self.check_open()?;
        let token = self.next_token;
        self.next_token += 1;
        self.lass.subscribe(self.ctx, key, token, false)?;
        self.callbacks.insert(
            token,
            CallbackEntry {
                f: Box::new(callback),
                persistent: true,
                key: key.to_string(),
            },
        );
        Ok(token)
    }

    /// Cancel an async registration.
    pub fn cancel(&mut self, token: Token) -> TdpResult<()> {
        self.check_open()?;
        if self.callbacks.remove(&token).is_some() {
            self.lass.unsubscribe(self.ctx, token)?;
        }
        self.completions.retain(|c| c.token != token);
        Ok(())
    }

    /// `tdp_service_event`: run every pending callback at this safe
    /// point. Returns how many callbacks ran.
    pub fn service_events(&mut self) -> TdpResult<usize> {
        self.check_open()?;
        let mut ran = 0;
        // async_put completions first (they were requested earliest).
        for c in std::mem::take(&mut self.completions) {
            if let Some(mut entry) = self.callbacks.remove(&c.token) {
                (entry.f)(&c.key, &c.value);
                ran += 1;
            }
        }
        // Then notifications from the space.
        while let Some(n) = self.lass.poll_notify() {
            if let Some(mut entry) = self.callbacks.remove(&n.token) {
                (entry.f)(&n.key, &n.value);
                ran += 1;
                if entry.persistent {
                    // Re-arm for the *next* put only; re-seeing the value
                    // just delivered would loop forever.
                    self.lass.subscribe(self.ctx, &entry.key, n.token, true)?;
                    self.callbacks.insert(n.token, entry);
                }
            }
        }
        if ran > 0 {
            self.trace(Call::ServiceEvent(ran));
        }
        Ok(ran)
    }

    /// Is there activity pending? (The "descriptor is active" check in
    /// the daemon's poll loop, §3.3.)
    pub fn has_events(&mut self) -> bool {
        !self.completions.is_empty() || self.lass.has_notify()
    }

    /// Block until at least one event is deliverable or the timeout
    /// expires, then service everything pending.
    pub fn wait_and_service(&mut self, timeout: Duration) -> TdpResult<usize> {
        self.check_open()?;
        if self.completions.is_empty() && !self.lass.has_notify() {
            match self.lass.wait_notify(timeout) {
                Ok(n) => {
                    // Re-queue so service_events dispatches uniformly.
                    if let Some(mut entry) = self.callbacks.remove(&n.token) {
                        (entry.f)(&n.key, &n.value);
                        if entry.persistent {
                            self.lass.subscribe(self.ctx, &entry.key, n.token, true)?;
                            self.callbacks.insert(n.token, entry);
                        }
                        return Ok(1 + self.service_events()?);
                    }
                }
                Err(TdpError::Timeout) => return Ok(0),
                Err(e) => return Err(e),
            }
        }
        self.service_events()
    }

    /// `tdp_exit`: leave the context (destroying it if this daemon was
    /// the last member), detach from any traced processes, close the
    /// handle. Also runs on drop.
    pub fn exit(&mut self) -> TdpResult<()> {
        if self.closed {
            return Ok(());
        }
        self.trace(Call::Exit);
        self.traces.clear(); // detach (resumes stopped tracees)
        if let Some(cass) = self.cass.as_mut() {
            let _ = cass.leave(self.ctx);
            let _ = cass.leave(ContextId::DEFAULT);
        }
        let r = self.lass.leave(self.ctx);
        self.closed = true;
        r
    }

    // ------------------------------------------------------------------
    // Central attribute space (CASS)
    // ------------------------------------------------------------------

    /// Connect this daemon to the CASS (global attribute space on the
    /// front-end host). Direct connection is attempted first; when a
    /// firewall blocks it, the RM's advertised proxy is used.
    pub fn connect_cass(&mut self, cass: Addr) -> TdpResult<()> {
        self.check_open()?;
        let mut client = match self.world.attr_connect(self.host, cass) {
            Ok(c) => c,
            Err(TdpError::BlockedByFirewall { .. }) => {
                let proxy = Addr::parse(&self.get(names::PROXY_ADDR)?)
                    .ok_or_else(|| TdpError::Protocol("bad proxy_addr".into()))?;
                self.world.attr_connect_via_proxy(self.host, proxy, cass)?
            }
            Err(e) => return Err(e),
        };
        client.join(self.ctx)?;
        // Also join the framework-global context: cross-job data such
        // as tool front-end addresses lives there.
        client.join(ContextId::DEFAULT)?;
        self.trace(Call::ConnectCass(cass));
        self.cass = Some(client);
        Ok(())
    }

    fn cass_client(&mut self) -> TdpResult<&mut AttrClient> {
        self.cass.as_mut().ok_or_else(|| {
            TdpError::Substrate("not connected to the CASS (call connect_cass)".into())
        })
    }

    /// Put into the *central* space (visible to daemons on all hosts).
    pub fn put_central(&mut self, key: &str, value: &str) -> TdpResult<()> {
        self.check_open()?;
        self.trace(Call::PutCentral(key));
        let ctx = self.ctx;
        self.cass_client()?.put(ctx, key, value)
    }

    /// Blocking get from the central space.
    pub fn get_central(&mut self, key: &str) -> TdpResult<String> {
        self.check_open()?;
        self.trace(Call::GetCentral(key));
        let ctx = self.ctx;
        self.cass_client()?.get(ctx, key)
    }

    /// Non-blocking get from the central space.
    pub fn try_get_central(&mut self, key: &str) -> TdpResult<String> {
        self.check_open()?;
        let ctx = self.ctx;
        self.cass_client()?.try_get(ctx, key)
    }

    /// Put into the central space's *framework-global* context
    /// (`ContextId::DEFAULT`) — for data shared across jobs, like a
    /// tool front-end's listener addresses.
    pub fn put_global(&mut self, key: &str, value: &str) -> TdpResult<()> {
        self.check_open()?;
        self.trace(Call::PutGlobal(key));
        self.cass_client()?.put(ContextId::DEFAULT, key, value)
    }

    /// Blocking get from the framework-global context of the CASS.
    pub fn get_global(&mut self, key: &str) -> TdpResult<String> {
        self.check_open()?;
        self.trace(Call::GetGlobal(key));
        self.cass_client()?.get(ContextId::DEFAULT, key)
    }

    // ------------------------------------------------------------------
    // Process management (§3.1)
    // ------------------------------------------------------------------

    /// `tdp_create_process`: create a process, optionally paused at exec.
    pub fn create_process(&mut self, spec: TdpCreate) -> TdpResult<Pid> {
        self.check_open()?;
        let host = spec.host.unwrap_or(self.host);
        self.trace(Call::CreateProcess {
            exe: &spec.executable,
            paused: spec.paused,
        });
        let mut ps = ProcSpec::new(host, spec.executable)
            .args(spec.args)
            .stdin_bytes(spec.stdin)
            .stdout(spec.stdout)
            .stderr(spec.stderr);
        for (k, v) in spec.env {
            ps = ps.env_var(k, v);
        }
        ps.start = if spec.paused {
            StartMode::Paused
        } else {
            StartMode::Run
        };
        self.world.os().spawn(ps)
    }

    /// `tdp_attach`: attach to a process for monitoring/instrumentation.
    pub fn attach(&mut self, pid: Pid) -> TdpResult<()> {
        self.check_open()?;
        self.trace(Call::Attach(pid));
        let h = self.world.os().attach(pid)?;
        self.traces.insert(pid, h);
        Ok(())
    }

    /// Detach from a previously attached process.
    pub fn detach(&mut self, pid: Pid) -> TdpResult<()> {
        self.check_open()?;
        self.traces.remove(&pid).ok_or(TdpError::NotTracer(pid))?;
        self.trace(Call::Detach(pid));
        Ok(())
    }

    /// `tdp_continue_process`: start a paused-at-exec process or resume
    /// a stopped one.
    pub fn continue_process(&mut self, pid: Pid) -> TdpResult<()> {
        self.check_open()?;
        self.trace(Call::Continue(pid));
        match self.traces.get(&pid) {
            Some(h) => h.cont(),
            None => self.world.os().continue_process(pid),
        }
    }

    /// Pause a running process.
    pub fn pause_process(&mut self, pid: Pid) -> TdpResult<()> {
        self.check_open()?;
        self.trace(Call::Pause(pid));
        match self.traces.get(&pid) {
            Some(h) => h.stop(),
            None => self.world.os().stop_process(pid),
        }
    }

    /// Kill a process.
    pub fn kill_process(&mut self, pid: Pid, sig: i32) -> TdpResult<()> {
        self.check_open()?;
        self.trace(Call::Kill(pid, sig));
        self.world.os().kill(pid, sig)
    }

    /// Current status.
    pub fn process_status(&self, pid: Pid) -> TdpResult<ProcStatus> {
        self.world.os().status(pid)
    }

    /// Block until the process terminates.
    pub fn wait_terminal(&self, pid: Pid, timeout: Duration) -> TdpResult<ProcStatus> {
        self.world.os().wait_terminal(pid, timeout)
    }

    // ------------------------------------------------------------------
    // Instrumentation passthrough (tool side; requires tdp_attach)
    // ------------------------------------------------------------------

    fn trace_of(&self, pid: Pid) -> TdpResult<&TraceHandle> {
        self.traces.get(&pid).ok_or(TdpError::NotTracer(pid))
    }

    /// Symbol table of an attached process's executable.
    pub fn symbols(&self, pid: Pid) -> TdpResult<Vec<String>> {
        Ok(self.trace_of(pid)?.symbols())
    }

    /// Insert instrumentation at a symbol.
    pub fn arm_probe(&self, pid: Pid, sym: &str) -> TdpResult<()> {
        self.trace_of(pid)?.arm_probe(sym)
    }

    /// Remove instrumentation from a symbol.
    pub fn disarm_probe(&self, pid: Pid, sym: &str) -> TdpResult<()> {
        self.trace_of(pid)?.disarm_probe(sym)
    }

    /// Read accumulated probe data.
    pub fn read_probes(&self, pid: Pid) -> TdpResult<ProbeSnapshot> {
        self.trace_of(pid)?.read_probes()
    }

    /// Arm a breakpoint on a symbol of an attached process: entering it
    /// stops the process before the body runs (debugger capability).
    pub fn arm_breakpoint(&self, pid: Pid, sym: &str) -> TdpResult<()> {
        self.trace_of(pid)?.arm_breakpoint(sym)
    }

    /// Remove a breakpoint.
    pub fn disarm_breakpoint(&self, pid: Pid, sym: &str) -> TdpResult<()> {
        self.trace_of(pid)?.disarm_breakpoint(sym)
    }

    /// Subscribe to breakpoint hits (one symbol name per stop).
    pub fn breakpoint_events(&self, pid: Pid) -> TdpResult<tdp_sync::channel::Receiver<String>> {
        self.trace_of(pid)?.breakpoint_events()
    }

    /// The most recently hit breakpoint.
    pub fn last_breakpoint(&self, pid: Pid) -> TdpResult<Option<String>> {
        self.trace_of(pid)?.last_breakpoint()
    }

    /// Enable or disable live call-stack tracking on an attached
    /// process.
    pub fn set_stack_tracking(&self, pid: Pid, on: bool) -> TdpResult<()> {
        self.trace_of(pid)?.set_stack_tracking(on)
    }

    /// Snapshot the named-call stack (meaningful while stopped).
    pub fn read_stack(&self, pid: Pid) -> TdpResult<Vec<String>> {
        self.trace_of(pid)?.read_stack()
    }

    // ------------------------------------------------------------------
    // Single-point process control (§2.3)
    // ------------------------------------------------------------------

    /// RT side: ask the RM to perform a process-management operation by
    /// writing the `proc_request` attribute. "When the RT needs to
    /// perform a process management operation, it contacts the RM."
    pub fn request_proc_op(&mut self, op: ProcRequest) -> TdpResult<()> {
        self.check_open()?;
        let op = op.to_attr_value();
        self.trace(Call::Request(&op));
        self.lass.put(self.ctx, names::PROC_REQUEST, &op)
    }

    /// RM side: take (and clear) a pending RT request, if any.
    pub fn take_proc_request(&mut self) -> TdpResult<Option<ProcRequest>> {
        self.check_open()?;
        match self.lass.try_get(self.ctx, names::PROC_REQUEST) {
            Ok(v) => {
                self.lass.remove(self.ctx, names::PROC_REQUEST)?;
                Ok(ProcRequest::parse(&v))
            }
            Err(TdpError::AttributeNotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// RM side: service one pending RT request against `pid`, publishing
    /// the resulting status. Returns the request serviced, if any.
    pub fn service_proc_requests(&mut self, pid: Pid) -> TdpResult<Option<ProcRequest>> {
        let Some(op) = self.take_proc_request()? else {
            return Ok(None);
        };
        match op {
            ProcRequest::Continue => self.continue_process(pid)?,
            ProcRequest::Pause => self.pause_process(pid)?,
            ProcRequest::Kill(sig) => self.kill_process(pid, sig)?,
        }
        let status = self.process_status(pid)?;
        self.publish_status(status)?;
        Ok(Some(op))
    }

    /// RM side: publish the application's status to the space (§2.3's
    /// "places a value in the Attribute Space").
    pub fn publish_status(&mut self, status: ProcStatus) -> TdpResult<()> {
        self.check_open()?;
        self.lass
            .put(self.ctx, names::AP_STATUS, &status.to_attr_value())
    }

    /// Last published application status, if any.
    pub fn published_status(&mut self) -> TdpResult<Option<ProcStatus>> {
        match self.try_get(names::AP_STATUS) {
            Ok(v) => Ok(ProcStatus::parse(&v)),
            Err(TdpError::AttributeNotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    // ------------------------------------------------------------------
    // Heartbeats (fault-detection extension)
    // ------------------------------------------------------------------

    /// Bump this daemon's heartbeat counter in the space. Returns the
    /// new value. A peer that sees the counter stop advancing declares
    /// the daemon dead (see [`TdpHandle::last_heartbeat`]).
    pub fn heartbeat(&mut self) -> TdpResult<u64> {
        self.check_open()?;
        let next = match self.lass.try_get(self.ctx, names::HEARTBEAT) {
            Ok(v) => v.parse::<u64>().unwrap_or(0) + 1,
            Err(TdpError::AttributeNotFound(_)) => 1,
            Err(e) => return Err(e),
        };
        self.lass
            .put(self.ctx, names::HEARTBEAT, &next.to_string())?;
        Ok(next)
    }

    /// Read the peer's heartbeat counter (None if it never beat).
    pub fn last_heartbeat(&mut self) -> TdpResult<Option<u64>> {
        self.check_open()?;
        match self.lass.try_get(self.ctx, names::HEARTBEAT) {
            Ok(v) => Ok(v.parse().ok()),
            Err(TdpError::AttributeNotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    // ------------------------------------------------------------------
    // Tool communication (§2.4)
    // ------------------------------------------------------------------

    /// Front-end side (via RM): publish where the tool front-end
    /// listens.
    pub fn advertise_frontend(&mut self, addr: Addr) -> TdpResult<()> {
        self.put(names::TOOL_FRONTEND_ADDR, &addr.to_attr_value())
    }

    /// RM side: publish the proxy usable to cross the firewall.
    pub fn advertise_proxy(&mut self, addr: Addr) -> TdpResult<()> {
        self.put(names::PROXY_ADDR, &addr.to_attr_value())
    }

    /// Tool-daemon side: connect to the tool front-end. Reads the
    /// advertised address, attempts a direct connection, and on firewall
    /// rejection transparently retries through the RM's advertised
    /// proxy — "TDP will provide a host/port number pair to the RT to
    /// contact its front-end … if the private networks block such
    /// connections, then the host/port number will be that of the RM's
    /// proxy" (§2.4).
    pub fn open_tool_channel(&mut self) -> TdpResult<Conn> {
        self.check_open()?;
        let fe = Addr::parse(&self.get(names::TOOL_FRONTEND_ADDR)?)
            .ok_or_else(|| TdpError::Protocol("bad tool_frontend_addr".into()))?;
        self.trace(Call::OpenChannel(fe));
        match self.world.net().connect(self.host, fe) {
            Ok(c) => Ok(c),
            Err(TdpError::BlockedByFirewall { .. }) => {
                let proxy = Addr::parse(&self.get(names::PROXY_ADDR)?)
                    .ok_or_else(|| TdpError::Protocol("bad proxy_addr".into()))?;
                tdp_netsim::proxy::connect_via(self.world.net(), self.host, proxy, fe)
            }
            Err(e) => Err(e),
        }
    }

    // ------------------------------------------------------------------
    // File staging (§2)
    // ------------------------------------------------------------------

    /// Copy a file between hosts (tool configuration out to execution
    /// nodes; trace/summary files back after completion).
    pub fn stage_file(&mut self, from: HostId, src: &str, to: HostId, dst: &str) -> TdpResult<()> {
        self.check_open()?;
        self.trace(Call::Stage { from, src, to, dst });
        self.world.os().fs().stage(from, src, to, dst)
    }
}

impl Drop for TdpHandle {
    fn drop(&mut self) {
        let _ = self.exit();
    }
}
