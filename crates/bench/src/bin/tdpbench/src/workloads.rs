//! The five workloads, child side: set a world up, run one op at a
//! time with its check inside the loop, and (traced pass) run the
//! layer probes that belong to the workload.
//!
//! Only public functions the ROADMAP keeps are called here:
//! `World::new`/`new_epoll`, `TdpHandle`, `Gateway::start` plus a raw
//! `TcpStream`, `CondorPool`, `ParadynFrontend` — never `new_tcp`,
//! `HttpRpcClient`, `serde_json` or `tdp_bench`.

use crate::clock::Clock;
use crate::gen::{
    attr_stream, gw_stream, handoff_stream, parador_stream, AttrOp, AttrStream, GwKind, GwOp,
    GwStream, HandoffStream, ParadorStream,
};
use crate::hist::Tail;
use crate::probes::{self, get_exchange, per_call_ns, put_exchange, Exchange, Layers, CTX};
use crate::trace::{Name, Tracer};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdp_condor::{CondorPool, JobState};
use tdp_core::{Role, TdpCreate, TdpHandle, World};
use tdp_gateway::{Gateway, GatewayConfig, Json};
use tdp_paradyn::{paradynd_image, ParadynFrontend};
use tdp_proto::{HostId, JobId, ProcStatus};
use tdp_simos::{fn_program, ExecImage};
use tdp_sync::Mutex;

/// An op that has not answered by now has failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    AttrEpoll,
    AttrNetsim,
    HandoffEpoll,
    GatewayHttp,
    ParadorJob,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::AttrEpoll,
        Workload::AttrNetsim,
        Workload::HandoffEpoll,
        Workload::GatewayHttp,
        Workload::ParadorJob,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AttrEpoll => "attr_epoll",
            Workload::AttrNetsim => "attr_netsim",
            Workload::HandoffEpoll => "handoff_epoll",
            Workload::GatewayHttp => "gateway_http",
            Workload::ParadorJob => "parador_job",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The percentile this workload reports as `lat_tail_us` (see
    /// [`Tail`]). p99 and p99.9 have the samples on four of the five
    /// workloads but only `handoff_epoll`'s p99 repeats (the others move
    /// 15–20 % between repetitions of an unchanged tree, with the host's
    /// interrupts), so they are per-layer `lat.p99_us`/`lat.p999_us`.
    pub fn tail(self) -> Tail {
        match self {
            Workload::HandoffEpoll => Tail::P99,
            _ => Tail::P90,
        }
    }

    /// The clock this workload's times are reported on (see `clock`):
    /// nominal for the four whose ops are CPU-bound, wall for the one
    /// that waits on timers.
    pub fn clock(self) -> std::io::Result<Clock> {
        match self {
            Workload::ParadorJob => Ok(Clock::Wall),
            _ => Clock::nominal(),
        }
    }

    /// `rss_peak_mb` is read when the repetition's op count (warm-up
    /// included) reaches this, not at the end of the window: memory
    /// that grows per op would otherwise read *worse* for a change that
    /// makes ops faster. About two fifths of what a 0.5 s + 3 s
    /// repetition completes on the baseline, so a 2× slowdown still
    /// gets there; a repetition that does not reports its final peak.
    pub fn rss_checkpoint_ops(self) -> u64 {
        match self {
            Workload::AttrEpoll => 150_000,
            Workload::AttrNetsim => 400_000,
            Workload::HandoffEpoll => 30_000,
            Workload::GatewayHttp => 60_000,
            Workload::ParadorJob => 60,
        }
    }

    /// Self time per op of each layer on this workload's blocking
    /// path, in µs, from the per-layer metrics `m` of a traced pass.
    /// One closed-loop client on one CPU overlaps nothing, so these add
    /// up; what they leave of `lat_p50_us` is `trace.unaccounted_us`.
    pub fn shares(self, m: &dyn Fn(&str) -> f64) -> Vec<(&'static str, f64)> {
        let codec = 2.0 * (m("proto.encode_ns") + m("proto.decode_ns")) / 1e3;
        let space = (m("attrspace.space_put_ns") + m("attrspace.space_get_ns")) / 2e3;
        match self {
            Workload::AttrEpoll => vec![
                ("core", m("core.self_us")),
                ("attrspace", space),
                ("proto", codec),
                ("wire", m("wire.self_us")),
            ],
            Workload::AttrNetsim => vec![
                ("core", m("core.self_us")),
                ("attrspace", space),
                ("proto", codec),
                ("wire", m("wire.self_us")),
                ("netsim", m("netsim.conn_rtt_us")),
            ],
            // Two round trips block a hand-off: the RM's put waking
            // the tool, and the tool's put waking the RM.
            Workload::HandoffEpoll => vec![
                ("core", 2.0 * m("core.self_us")),
                ("attrspace", 2.0 * m("attrspace.space_wake_ns") / 1e3),
                ("proto", 2.0 * codec),
                ("wire", 2.0 * m("wire.self_us")),
            ],
            // The op mix over in-process dispatch, plus what HTTP adds.
            Workload::GatewayHttp => vec![(
                "gateway",
                m("gateway.http_self_us")
                    + 0.45 * m("gateway.rpc_echo_us")
                    + 0.55 * m("gateway.rpc_attr_put_us"),
            )],
            Workload::ParadorJob => vec![
                ("condor", m("condor.submit_to_running_us")),
                (
                    "paradyn",
                    m("condor.running_to_completed_us") - m("core.create_attach_continue_us"),
                ),
                (
                    "core",
                    m("core.create_attach_continue_us") - m("simos.create_exit_us"),
                ),
                ("simos", m("simos.create_exit_us")),
            ],
        }
    }
}

/// When an op began and ended, or why it failed.
pub type OpResult = Result<(Instant, Instant), String>;

/// What the repetition loop needs from a workload.
pub trait Driver {
    fn input_hash(&self) -> &str;
    /// Run op number `i` (counted from the first warm-up op), checking
    /// its output.
    fn op(&mut self, i: u64, t: &mut Tracer) -> OpResult;
    /// Checks that can only be made once a window is over; `Err` is
    /// (ops found wrong, why).
    fn verify(&mut self) -> Result<(), (u64, String)> {
        Ok(())
    }
    /// Traced pass: per-layer metrics from this thread's spans and
    /// from `probe`-long layer probes on the workload's own inputs.
    fn layers(
        &mut self,
        t: &Tracer,
        clock: &Clock,
        probe: Duration,
        out: &mut Layers,
    ) -> Result<(), String>;
    /// Stop every thread the workload started; a second tracer if one
    /// of them recorded spans.
    fn shutdown(&mut self) -> Option<Tracer> {
        None
    }
}

pub fn build(
    w: Workload,
    seed: u64,
    traced: bool,
    epoch: Instant,
) -> Result<Box<dyn Driver>, String> {
    Ok(match w {
        Workload::AttrEpoll => Box::new(Attr::new(World::new_epoll(), true, seed)?),
        Workload::AttrNetsim => Box::new(Attr::new(World::new(), false, seed)?),
        Workload::HandoffEpoll => Box::new(Handoff::new(seed, traced, epoch)?),
        Workload::GatewayHttp => Box::new(GatewayHttp::new(seed)?),
        Workload::ParadorJob => Box::new(Parador::new(seed, traced, epoch)?),
    })
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

fn push_span(t: &Tracer, name: Name, metric: &'static str, out: &mut Layers) -> f64 {
    let (us, n) = t.median_us(name);
    if n > 0 {
        out.push((metric, us));
    }
    us
}

// ------------------------------------------------------------ attr_*

/// `attr_epoll` / `attr_netsim`: one `Role::Tool` session beside an RM
/// on one host; 50/50 put / get-hit over 64 preloaded keys.
struct Attr {
    world: World,
    host: HostId,
    epoll: bool,
    _rm: TdpHandle,
    tool: TdpHandle,
    stream: AttrStream,
    /// Per key: index of the table op that last put it, or `None`
    /// while the preloaded value stands.
    model: Vec<Option<usize>>,
}

impl Attr {
    fn new(world: World, epoll: bool, seed: u64) -> Result<Attr, String> {
        let stream = attr_stream(seed);
        let host = world.add_host();
        let mut rm = TdpHandle::init(&world, host, CTX, "rm", Role::ResourceManager)
            .map_err(|e| err("rm init", e))?;
        let tool = TdpHandle::init(&world, host, CTX, "tool", Role::Tool)
            .map_err(|e| err("tool init", e))?;
        for (k, v) in stream.keys.iter().zip(&stream.preload) {
            rm.put(k, v).map_err(|e| err("preload", e))?;
        }
        Ok(Attr {
            world,
            host,
            epoll,
            _rm: rm,
            tool,
            model: vec![None; stream.keys.len()],
            stream,
        })
    }

    fn expected(&self, key: usize) -> &str {
        match self.model[key] {
            None => &self.stream.preload[key],
            Some(i) => match &self.stream.ops[i] {
                AttrOp::Put { value, .. } => value,
                AttrOp::Get { .. } => unreachable!("model only points at puts"),
            },
        }
    }

    fn exchanges(&self) -> Vec<Exchange> {
        self.stream
            .ops
            .iter()
            .take(512)
            .map(|op| match op {
                AttrOp::Put { key, value } => put_exchange(&self.stream.keys[*key], value),
                AttrOp::Get { key } => {
                    get_exchange(&self.stream.keys[*key], &self.stream.preload[*key])
                }
            })
            .collect()
    }
}

impl Driver for Attr {
    fn input_hash(&self) -> &str {
        &self.stream.input_hash
    }

    fn op(&mut self, i: u64, t: &mut Tracer) -> OpResult {
        let at = i as usize % self.stream.ops.len();
        match &self.stream.ops[at] {
            AttrOp::Put { key, value } => {
                let k = &self.stream.keys[*key];
                let t0 = Instant::now();
                let r = self.tool.put(k, value);
                let t1 = Instant::now();
                t.record(Name::CorePut, t0, t1);
                r.map_err(|e| format!("put {k}: {e}"))?;
                self.model[*key] = Some(at);
                Ok((t0, t1))
            }
            AttrOp::Get { key } => {
                let k = &self.stream.keys[*key];
                let t0 = Instant::now();
                let r = self.tool.get_timeout(k, OP_TIMEOUT);
                let t1 = Instant::now();
                t.record(Name::CoreGetHit, t0, t1);
                let got = r.map_err(|e| format!("get {k}: {e}"))?;
                if got != self.expected(*key) {
                    return Err(format!(
                        "get {k}: got {got:?}, last put {:?}",
                        self.expected(*key)
                    ));
                }
                Ok((t0, t1))
            }
        }
    }

    fn layers(
        &mut self,
        t: &Tracer,
        clock: &Clock,
        probe: Duration,
        out: &mut Layers,
    ) -> Result<(), String> {
        let put = push_span(t, Name::CorePut, "core.put_us", out);
        let get = push_span(t, Name::CoreGetHit, "core.get_hit_us", out);
        // The same op stream one layer down: an `AttrClient` session of
        // this world, without `TdpHandle` (and so without `Trace`).
        let lass = self.world.lass_addr(self.host).ok_or("no LASS")?;
        let mut client = self
            .world
            .attr_connect(self.host, lass)
            .map_err(|e| err("attr_connect", e))?;
        client.join(CTX).map_err(|e| err("join", e))?;
        let (keys, ops) = (&self.stream.keys, &self.stream.ops);
        let mut failed = None;
        let rtt_ns = per_call_ns(clock, probe, 1, |i| {
            let r = match &ops[i % ops.len()] {
                AttrOp::Put { key, value } => client.put(CTX, &keys[*key], value),
                AttrOp::Get { key } => client
                    .get_timeout(CTX, &keys[*key], OP_TIMEOUT)
                    .map(|v| drop(black_box(v))),
            };
            if let (Err(e), None) = (r, &failed) {
                failed = Some(err("attr client probe", e));
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        out.push(("attrspace.client_rtt_us", rtt_ns / 1e3));
        out.push(("core.self_us", (put + get) / 2.0 - rtt_ns / 1e3));
        let exchanges = self.exchanges();
        probes::space(clock, &exchanges, probe, out);
        probes::proto(clock, &exchanges, probe, out);
        if self.epoll {
            probes::wire_epoll(clock, &exchanges, probe, out)
        } else {
            probes::wire_sim(clock, &exchanges, probe, out)
        }
    }
}

// ----------------------------------------------------- handoff_epoll

/// `handoff_epoll`: the Figure 6 hand-off. The tool thread sits in a
/// blocking `get("req.<i>")`; the RM puts it, the tool answers with
/// `ack.<i>`, the RM's blocking get returns; both remove their key.
struct Handoff {
    rm: TdpHandle,
    stream: Arc<HandoffStream>,
    tool: Option<std::thread::JoinHandle<Tracer>>,
    tool_failures: Arc<AtomicU64>,
    tool_error: Arc<Mutex<Option<String>>>,
    next: u64,
}

const STOP: &str = "stop";

impl Handoff {
    fn new(seed: u64, traced: bool, epoch: Instant) -> Result<Handoff, String> {
        let stream = Arc::new(handoff_stream(seed));
        let world = World::new_epoll();
        let host = world.add_host();
        let rm = TdpHandle::init(&world, host, CTX, "rm", Role::ResourceManager)
            .map_err(|e| err("rm init", e))?;
        let mut tool = TdpHandle::init(&world, host, CTX, "tool", Role::Tool)
            .map_err(|e| err("tool init", e))?;
        let tool_failures = Arc::new(AtomicU64::new(0));
        let tool_error = Arc::new(Mutex::new(None));
        let (rounds, failures, first_error) =
            (stream.clone(), tool_failures.clone(), tool_error.clone());
        let thread = std::thread::Builder::new()
            .name("bench-handoff-tool".into())
            .spawn(move || {
                let mut t = Tracer::new(traced, 1, epoch);
                let fail = |why: String| {
                    failures.fetch_add(1, Ordering::Relaxed);
                    first_error.lock().get_or_insert(why);
                };
                for i in 0u64.. {
                    t.begin_op(i);
                    let round = &rounds.rounds[i as usize % rounds.rounds.len()];
                    let req = format!("req.{i}");
                    let t0 = Instant::now();
                    // No deadline here: between windows the RM is
                    // legitimately silent, and `shutdown` always ends
                    // the conversation with STOP.
                    let got = tool.get(&req);
                    let t1 = Instant::now();
                    t.record(Name::CoreGetBlocked, t0, t1);
                    match got {
                        Ok(v) if v == STOP => break,
                        Ok(v) if v == round.token => {}
                        Ok(v) => fail(format!("tool: {req} = {v:?}, want {:?}", round.token)),
                        Err(e) => {
                            fail(format!("tool: get {req}: {e}"));
                            break;
                        }
                    }
                    let put = tool.put(&format!("ack.{i}"), &round.payload);
                    let t2 = Instant::now();
                    t.record(Name::CorePut, t1, t2);
                    let removed = tool.remove(&req);
                    let t3 = Instant::now();
                    t.record(Name::CoreRemove, t2, t3);
                    // The tool's op: woken to done.
                    t.end_op(t1, t3);
                    if let Err(e) = put.and(removed) {
                        fail(format!("tool: round {i}: {e}"));
                        break;
                    }
                }
                t
            })
            .map_err(|e| err("spawn tool thread", e))?;
        Ok(Handoff {
            rm,
            stream,
            tool: Some(thread),
            tool_failures,
            tool_error,
            next: 0,
        })
    }
}

impl Driver for Handoff {
    fn input_hash(&self) -> &str {
        &self.stream.input_hash
    }

    fn op(&mut self, i: u64, t: &mut Tracer) -> OpResult {
        self.next = i + 1;
        let round = &self.stream.rounds[i as usize % self.stream.rounds.len()];
        let (req, ack) = (format!("req.{i}"), format!("ack.{i}"));
        let t0 = Instant::now();
        let put = self.rm.put(&req, &round.token);
        let t_put = Instant::now();
        let got = self.rm.get_timeout(&ack, OP_TIMEOUT);
        let t1 = Instant::now();
        t.record(Name::CorePut, t0, t_put);
        t.record(Name::CoreGetBlocked, t_put, t1);
        put.map_err(|e| format!("put {req}: {e}"))?;
        let got = got.map_err(|e| format!("get {ack}: {e}"))?;
        if got != round.payload {
            return Err(format!(
                "{ack}: {} B back, {} B sent, or content differs",
                got.len(),
                round.payload.len()
            ));
        }
        let removed = self.rm.remove(&ack);
        t.record(Name::CoreRemove, t1, Instant::now());
        removed.map_err(|e| format!("remove {ack}: {e}"))?;
        Ok((t0, t1))
    }

    fn verify(&mut self) -> Result<(), (u64, String)> {
        match self.tool_failures.swap(0, Ordering::Relaxed) {
            0 => Ok(()),
            n => Err((n, self.tool_error.lock().take().unwrap_or_default())),
        }
    }

    fn layers(
        &mut self,
        t: &Tracer,
        clock: &Clock,
        probe: Duration,
        out: &mut Layers,
    ) -> Result<(), String> {
        let put = push_span(t, Name::CorePut, "core.put_us", out);
        push_span(t, Name::CoreGetBlocked, "core.get_blocked_us", out);
        push_span(t, Name::CoreRemove, "core.remove_us", out);
        let exchanges: Vec<Exchange> = self
            .stream
            .rounds
            .iter()
            .take(64)
            .enumerate()
            .flat_map(|(i, r)| {
                [
                    put_exchange(&format!("req.{i}"), &r.token),
                    put_exchange(&format!("ack.{i}"), &r.payload),
                    get_exchange(&format!("ack.{i}"), &r.payload),
                ]
            })
            .collect();
        probes::space(clock, &exchanges, probe, out);
        probes::proto(clock, &exchanges, probe, out);
        probes::wire_epoll(clock, &exchanges, probe, out)?;
        // A put is one wire round trip plus whatever `TdpHandle` adds.
        let rtt = probes::layer(out, "wire.epoll_rtt_us");
        out.push(("core.self_us", put - rtt));
        Ok(())
    }

    fn shutdown(&mut self) -> Option<Tracer> {
        let thread = self.tool.take()?;
        // The tool is parked on the next request key; tell it to go.
        // If even that put fails the thread cannot be woken, and is
        // left for process exit rather than joined forever.
        self.rm.put(&format!("req.{}", self.next), STOP).ok()?;
        thread.join().ok()
    }
}

// ------------------------------------------------------ gateway_http

/// `gateway_http`: one keep-alive loopback HTTP connection to a
/// gateway fronting a netsim world.
struct GatewayHttp {
    gw: Gateway,
    conn: TcpStream,
    /// Bytes read off the socket and not yet consumed.
    buf: Vec<u8>,
    stream: GwStream,
    model: Vec<Option<usize>>,
}

/// Read exactly one HTTP response off the keep-alive stream; the body.
fn read_response(conn: &mut TcpStream, buf: &mut Vec<u8>) -> Result<String, String> {
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head =
                std::str::from_utf8(&buf[..head_end]).map_err(|e| err("response head", e))?;
            if !head.starts_with("HTTP/1.1 200") {
                return Err(format!("status: {}", head.lines().next().unwrap_or("")));
            }
            let len: usize = head
                .lines()
                .filter_map(|l| l.split_once(':'))
                .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
                .and_then(|(_, v)| v.trim().parse().ok())
                .ok_or("response without content-length")?;
            let total = head_end + 4 + len;
            if buf.len() >= total {
                let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
                buf.drain(..total);
                return Ok(body);
            }
        }
        let mut chunk = [0u8; 4096];
        match conn.read(&mut chunk) {
            Ok(0) => return Err("gateway closed the connection".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(err("read", e)),
        }
    }
}

/// A JSON-RPC success that carries `value` somewhere in its result.
/// Values are unique random strings, so finding one quoted in a body
/// with a `result` and no `error` is the check; it does not depend on
/// the renderer's spacing or member order.
fn check_body(body: &str, value: Option<&str>) -> Result<(), String> {
    if !body.contains("\"result\"") || body.contains("\"error\"") {
        return Err(format!("not a result: {body}"));
    }
    match value {
        Some(v) if !body.contains(&format!("\"{v}\"")) => Err(format!("{v:?} not in {body}")),
        _ => Ok(()),
    }
}

impl GatewayHttp {
    fn new(seed: u64) -> Result<GatewayHttp, String> {
        let stream = gw_stream(seed);
        let world = World::new();
        let host = world.add_host();
        let gw = Gateway::start(&world, host, GatewayConfig::default())
            .map_err(|e| err("gateway start", e))?;
        let conn = TcpStream::connect(gw.addr()).map_err(|e| err("connect", e))?;
        conn.set_nodelay(true).map_err(|e| err("nodelay", e))?;
        conn.set_read_timeout(Some(OP_TIMEOUT))
            .and_then(|()| conn.set_write_timeout(Some(OP_TIMEOUT)))
            .map_err(|e| err("socket timeout", e))?;
        let mut me = GatewayHttp {
            gw,
            conn,
            buf: Vec::with_capacity(16 * 1024),
            model: vec![None; stream.keys.len()],
            stream,
        };
        for i in 0..me.stream.preload.len() {
            let body = Self::roundtrip(&mut me.conn, &mut me.buf, &me.stream.preload[i])?;
            check_body(&body, None)?;
        }
        Ok(me)
    }

    fn roundtrip(conn: &mut TcpStream, buf: &mut Vec<u8>, op: &GwOp) -> Result<String, String> {
        conn.write_all(&op.http).map_err(|e| err("write", e))?;
        read_response(conn, buf)
    }

    fn expected(&self, key: usize) -> &str {
        match self.model[key] {
            None => &self.stream.preload[key].value,
            Some(i) => &self.stream.ops[i].value,
        }
    }
}

impl Driver for GatewayHttp {
    fn input_hash(&self) -> &str {
        &self.stream.input_hash
    }

    fn op(&mut self, i: u64, t: &mut Tracer) -> OpResult {
        let at = i as usize % self.stream.ops.len();
        let op = &self.stream.ops[at];
        let name = match op.kind {
            GwKind::Echo => Name::GatewayEcho,
            GwKind::AttrPut => Name::GatewayAttrPut,
            GwKind::AttrGet => Name::GatewayAttrGet,
        };
        let t0 = Instant::now();
        let r = Self::roundtrip(&mut self.conn, &mut self.buf, op);
        let t1 = Instant::now();
        t.record(name, t0, t1);
        let body = r.map_err(|e| format!("{:?}: {e}", op.kind))?;
        match op.kind {
            GwKind::Echo => check_body(&body, Some(&op.value))?,
            GwKind::AttrPut => {
                check_body(&body, None)?;
                self.model[op.key] = Some(at);
            }
            GwKind::AttrGet => check_body(&body, Some(self.expected(op.key)))?,
        }
        Ok((t0, t1))
    }

    fn layers(
        &mut self,
        t: &Tracer,
        clock: &Clock,
        probe: Duration,
        out: &mut Layers,
    ) -> Result<(), String> {
        let echo = push_span(t, Name::GatewayEcho, "gateway.echo_us", out);
        push_span(t, Name::GatewayAttrPut, "gateway.attr_put_us", out);
        push_span(t, Name::GatewayAttrGet, "gateway.attr_get_us", out);
        // The same request bodies, handed to the dispatch core in
        // process: no socket, no HTTP parse, no worker hop.
        let core = self.gw.core().clone();
        let bodies = |kind: GwKind| -> Vec<&str> {
            self.stream
                .ops
                .iter()
                .filter(|o| o.kind == kind)
                .map(|o| o.body.as_str())
                .collect()
        };
        let rpc = |kind: GwKind| -> Result<f64, String> {
            let bodies = bodies(kind);
            let mut failed = None;
            let ns = per_call_ns(clock, probe, 1, |i| {
                let reply = core.handle_rpc(bodies[i % bodies.len()], None);
                if failed.is_none() && reply.get("result").is_none() {
                    failed = Some(format!("rpc probe {kind:?}: {}", reply.render()));
                }
            });
            failed.map_or(Ok(ns / 1e3), Err)
        };
        let rpc_echo = rpc(GwKind::Echo)?;
        out.push(("gateway.rpc_echo_us", rpc_echo));
        out.push(("gateway.rpc_attr_put_us", rpc(GwKind::AttrPut)?));
        out.push(("gateway.http_self_us", echo - rpc_echo));
        let all: Vec<&str> = self.stream.ops.iter().map(|o| o.body.as_str()).collect();
        let parsed: Vec<Json> = all
            .iter()
            .map(|b| Json::parse(b).map_err(|e| err("json probe", e)))
            .collect::<Result<_, _>>()?;
        let parse = per_call_ns(clock, probe, 16, |i| {
            black_box(Json::parse(all[i % all.len()]).is_ok());
        });
        out.push(("gateway.json_parse_ns", parse));
        let render = per_call_ns(clock, probe, 16, |i| {
            black_box(parsed[i % parsed.len()].render());
        });
        out.push(("gateway.json_render_ns", render));
        Ok(())
    }

    fn shutdown(&mut self) -> Option<Tracer> {
        self.gw.shutdown();
        None
    }
}

// ------------------------------------------------------- parador_job

/// `parador_job`: back-to-back vanilla Condor jobs monitored by
/// `paradynd` through TDP — the Figure 5B submit file.
struct Parador {
    world: World,
    pool: Arc<CondorPool>,
    fe: Arc<ParadynFrontend>,
    stream: ParadorStream,
    /// Submit file per table entry.
    submits: Vec<String>,
    /// Traced pass only: a second thread watching each job's
    /// transitions, so the op itself blocks in `wait_job` exactly as it
    /// does untraced.
    observer: Option<Observer>,
    /// The observer's spans once it has been stopped.
    observed: Option<Tracer>,
    /// `work` call counts of every job completed so far.
    completed: Vec<u64>,
    /// How many of `completed` the last `verify` has checked.
    verified: usize,
}

/// The job the op thread has in flight.
#[derive(Clone, Copy, PartialEq)]
struct Submitted {
    job: JobId,
    at: Instant,
    op: u64,
}

struct Observer {
    current: Arc<Mutex<Option<Submitted>>>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Tracer>,
}

impl Observer {
    /// Poll `job_state` and `samples` for the job in flight. The 100 µs
    /// naps bound what these spans can resolve; a job takes ms.
    fn spawn(
        pool: Arc<CondorPool>,
        fe: Arc<ParadynFrontend>,
        epoch: Instant,
    ) -> Result<Observer, String> {
        let current = Arc::new(Mutex::new(None::<Submitted>));
        let stop = Arc::new(AtomicBool::new(false));
        let (cur, halt) = (current.clone(), stop.clone());
        let thread = std::thread::Builder::new()
            .name("bench-parador-observer".into())
            .spawn(move || {
                let mut t = Tracer::new(true, 1, epoch);
                let mut watching: Option<Submitted> = None;
                let (mut open, mut running_at, mut samples_before) = (false, None, 0);
                let mut sampled = false;
                while !halt.load(Ordering::Relaxed) {
                    let now_flying = *cur.lock();
                    if now_flying != watching {
                        watching = now_flying;
                        if let Some(s) = watching {
                            t.begin_op(s.op);
                            (open, running_at, sampled) = (true, None, false);
                            samples_before = fe.samples().len();
                        }
                    }
                    if let (true, Some(s)) = (open, watching) {
                        let now = Instant::now();
                        if !sampled && fe.samples().len() > samples_before {
                            t.record(Name::ParadynFirstSample, s.at, now);
                            sampled = true;
                        }
                        match pool.schedd().job_state(s.job) {
                            Some(JobState::Running) if running_at.is_none() => {
                                t.record(Name::CondorSubmitToRunning, s.at, now);
                                running_at = Some(now);
                            }
                            Some(JobState::Completed(_) | JobState::Failed(_)) | None => {
                                if let Some(r) = running_at {
                                    t.record(Name::CondorRunningToCompleted, r, now);
                                }
                                t.end_op(s.at, now);
                                open = false;
                            }
                            _ => {}
                        }
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                t
            })
            .map_err(|e| err("spawn observer", e))?;
        Ok(Observer {
            current,
            stop,
            thread,
        })
    }

    fn finish(self) -> Option<Tracer> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().ok()
    }
}

const APP: &str = "/bin/app";

/// `main` calls `work` argv[0] times; both are instrumentable symbols.
fn app_image() -> ExecImage {
    ExecImage::new(
        ["main", "work"],
        Arc::new(|args: &[String]| {
            let calls: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(1);
            fn_program(move |ctx| {
                ctx.call("main", |ctx| {
                    for _ in 0..calls {
                        ctx.call("work", |ctx| ctx.compute(10));
                    }
                });
                0
            })
        }),
    )
}

fn exited_cleanly(state: &JobState) -> Result<(), String> {
    match state {
        JobState::Completed(ranks)
            if !ranks.is_empty() && ranks.values().all(|s| *s == ProcStatus::Exited(0)) =>
        {
            Ok(())
        }
        other => Err(format!("job ended {other:?}")),
    }
}

impl Parador {
    fn new(seed: u64, traced: bool, epoch: Instant) -> Result<Parador, String> {
        let stream = parador_stream(seed);
        let world = World::new();
        let pool = CondorPool::build(&world, 1).map_err(|e| err("pool", e))?;
        pool.install_everywhere(APP, app_image());
        for h in pool.exec_hosts() {
            world
                .os()
                .fs()
                .install_exec(*h, "paradynd", paradynd_image(world.clone()));
        }
        let fe = ParadynFrontend::start(world.net(), pool.submit_host(), 2090, 2091)
            .map_err(|e| err("front-end", e))?;
        let submits = stream
            .work_calls
            .iter()
            .map(|n| {
                format!(
                    "executable = {APP}\narguments = {n}\n+SuspendJobAtExec = True\n\
                     +ToolDaemonCmd = \"paradynd\"\n\
                     +ToolDaemonArgs = \"-m{} -p{} -P{} -a%pid -A\"\nqueue\n",
                    fe.host().0,
                    fe.control_addr().port.0,
                    fe.data_addr().port.0
                )
            })
            .collect();
        let (pool, fe) = (Arc::new(pool), Arc::new(fe));
        let observer = match traced {
            true => Some(Observer::spawn(pool.clone(), fe.clone(), epoch)?),
            false => None,
        };
        Ok(Parador {
            world,
            pool,
            fe,
            stream,
            submits,
            observer,
            observed: None,
            completed: Vec::new(),
            verified: 0,
        })
    }

    fn plain_job(&self) -> Result<(), String> {
        let job = self
            .pool
            .submit_str(&format!("executable = {APP}\narguments = 8\nqueue\n"))
            .map_err(|e| err("submit plain", e))?;
        exited_cleanly(
            &self
                .pool
                .wait_job(job, OP_TIMEOUT)
                .map_err(|e| err("plain job", e))?,
        )
    }
}

impl Driver for Parador {
    fn input_hash(&self) -> &str {
        &self.stream.input_hash
    }

    fn op(&mut self, i: u64, _: &mut Tracer) -> OpResult {
        let at = i as usize % self.submits.len();
        let t0 = Instant::now();
        let job = self
            .pool
            .submit_str(&self.submits[at])
            .map_err(|e| err("submit", e))?;
        if let Some(o) = &self.observer {
            *o.current.lock() = Some(Submitted { job, at: t0, op: i });
        }
        let state = self
            .pool
            .wait_job(job, OP_TIMEOUT)
            .map_err(|e| format!("job {job}: {e}"))?;
        let t1 = Instant::now();
        exited_cleanly(&state)?;
        self.completed.push(self.stream.work_calls[at]);
        Ok((t0, t1))
    }

    /// Every completed job left its final `work` sample at the
    /// front-end, counting exactly the calls its submit file asked for.
    fn verify(&mut self) -> Result<(), (u64, String)> {
        let new = (self.completed.len() - self.verified) as u64;
        self.verified = self.completed.len();
        self.fe
            .wait_done(self.completed.len(), OP_TIMEOUT)
            .map_err(|e| (new, format!("front-end saw fewer DONEs than jobs: {e}")))?;
        let mut seen: Vec<u64> = self
            .fe
            .samples()
            .iter()
            .filter(|s| s.symbol == "work")
            .map(|s| s.count)
            .collect();
        let mut want = self.completed.clone();
        seen.sort_unstable();
        want.sort_unstable();
        if seen == want {
            return Ok(());
        }
        let wrong = want.len().abs_diff(seen.len())
            + want.iter().zip(&seen).filter(|(a, b)| a != b).count();
        Err((
            (wrong as u64).min(new).max(1),
            format!(
                "{} jobs but {} `work` samples, or counts differ",
                want.len(),
                seen.len()
            ),
        ))
    }

    fn layers(
        &mut self,
        _: &Tracer,
        clock: &Clock,
        probe: Duration,
        out: &mut Layers,
    ) -> Result<(), String> {
        self.observed = self.observer.take().and_then(Observer::finish);
        let seen = self.observed.as_ref().ok_or("observer thread lost")?;
        push_span(
            seen,
            Name::CondorSubmitToRunning,
            "condor.submit_to_running_us",
            out,
        );
        push_span(
            seen,
            Name::CondorRunningToCompleted,
            "condor.running_to_completed_us",
            out,
        );
        push_span(
            seen,
            Name::ParadynFirstSample,
            "paradyn.first_sample_us",
            out,
        );
        let mut failed = None;
        let plain = per_call_ns(clock, probe, 1, |_| {
            if let (Err(e), None) = (self.plain_job(), &failed) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        out.push(("condor.job_plain_us", plain / 1e3));
        // Process control without a scheduler round it, on a fresh
        // host of the same world.
        let host = self.world.add_host();
        self.world.os().fs().install_exec(host, APP, app_image());
        let mut rm = TdpHandle::init(&self.world, host, CTX, "probe-rm", Role::ResourceManager)
            .map_err(|e| err("probe rm", e))?;
        let mut step = |paused: bool| -> Result<(), String> {
            let spec = TdpCreate::new(APP).args(["8"]);
            let pid = rm
                .create_process(if paused { spec.paused() } else { spec })
                .map_err(|e| err("create", e))?;
            if paused {
                rm.attach(pid).map_err(|e| err("attach", e))?;
                rm.continue_process(pid).map_err(|e| err("continue", e))?;
            }
            let status = rm
                .wait_terminal(pid, OP_TIMEOUT)
                .map_err(|e| err("wait", e))?;
            if paused {
                let _ = rm.detach(pid);
            }
            (status == ProcStatus::Exited(0))
                .then_some(())
                .ok_or(format!("process ended {status:?}"))
        };
        for (metric, paused) in [
            ("simos.create_exit_us", false),
            ("core.create_attach_continue_us", true),
        ] {
            let mut failed = None;
            let ns = per_call_ns(clock, probe, 1, |_| {
                if let (Err(e), None) = (step(paused), &failed) {
                    failed = Some(e);
                }
            });
            if let Some(e) = failed {
                return Err(format!("{metric}: {e}"));
            }
            out.push((metric, ns / 1e3));
        }
        probes::netsim_rtt(clock, probe, out).map(|_| ())
    }

    fn shutdown(&mut self) -> Option<Tracer> {
        let unfinished = self.observer.take().and_then(Observer::finish);
        self.observed.take().or(unfinished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_match_the_contract_grammar() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w
                .name()
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_'));
        }
        assert_eq!(Workload::parse("attr_tcp"), None);
    }

    #[test]
    fn body_check_wants_a_result_carrying_the_value() {
        let ok = r#"{"jsonrpc":"2.0","id":3,"result":{"tool":"echo","params":{"v":"abc123"}}}"#;
        assert!(check_body(ok, Some("abc123")).is_ok());
        assert!(check_body(ok, None).is_ok());
        assert!(
            check_body(ok, Some("abc12")).is_err(),
            "whole quoted value only"
        );
        let spaced = r#"{ "result": { "value": "abc123" }, "id": 3 }"#;
        assert!(
            check_body(spaced, Some("abc123")).is_ok(),
            "spacing-agnostic"
        );
        let error = r#"{"jsonrpc":"2.0","id":3,"error":{"code":-32000,"message":"abc123"}}"#;
        assert!(check_body(error, Some("abc123")).is_err());
    }

    #[test]
    fn attr_model_follows_the_last_put() {
        let mut a = Attr::new(World::new(), false, 5).unwrap();
        let mut t = Tracer::new(false, 0, Instant::now());
        for i in 0..500 {
            a.op(i, &mut t).unwrap();
        }
        let key = a
            .model
            .iter()
            .position(Option::is_some)
            .expect("some put ran");
        assert_ne!(a.expected(key), a.stream.preload[key]);
        // Forget every put: the space now disagrees with the model on
        // nearly every key, and the next gets must be caught.
        a.model.iter_mut().for_each(|m| *m = None);
        let caught = (500..520).any(|i| a.op(i, &mut t).is_err());
        assert!(caught, "a get that disagrees with the model is a failed op");
    }
}
