//! The supervision daemon: three loops on configurable intervals.
//!
//! * **heartbeat** — probe every registered component and publish a
//!   `tdp.ops.live.<name>` beat counter plus `tdp.ops.health.<name>`
//!   into the attribute space: liveness is *stated in the protocol the
//!   components exist to serve*, so any TDP client can watch it.
//! * **patrol** — restart suspect components through their owner's
//!   restart closure, paced by capped exponential [`Backoff`] and
//!   guarded by the [`RestartBudget`] circuit breaker: a component that
//!   keeps dying is escalated (`tdp.ops.escalation`), not restart-looped.
//! * **kpi** — publish operational gauges (`tdp.ops.kpi.*`): session
//!   counts, wire stall kills, restart totals, recovery latencies, plus
//!   any scheduler-provided gauges (queue depths).
//!
//! Every loop ticks on a channel `recv_timeout`, so shutdown is prompt
//! rather than waiting out a sleep.

use crate::backoff::{Backoff, RestartBudget};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tdp_attrspace::{AttrClient, ReconnectPolicy};
use tdp_core::{Supervisable, World};
use tdp_proto::{names, HostId, TdpError, TdpResult, OPS_CONTEXT};
use tdp_sync::channel::{bounded, RecvTimeoutError, Sender};
use tdp_sync::{Condvar, Mutex};

/// How often each daemon loop runs.
#[derive(Debug, Clone, Copy)]
pub struct DaemonIntervals {
    pub heartbeat: Duration,
    pub patrol: Duration,
    pub kpi: Duration,
}

impl Default for DaemonIntervals {
    fn default() -> DaemonIntervals {
        DaemonIntervals {
            heartbeat: Duration::from_millis(40),
            patrol: Duration::from_millis(25),
            kpi: Duration::from_millis(100),
        }
    }
}

/// Supervisor tuning.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    pub intervals: DaemonIntervals,
    /// First restart delay after a failure.
    pub backoff_base: Duration,
    /// Restart delay ceiling.
    pub backoff_cap: Duration,
    /// Maximum restarts per component inside `restart_window` before
    /// the breaker opens and the component is escalated.
    pub restart_budget: u32,
    pub restart_window: Duration,
    /// Seed for backoff jitter (deterministic runs).
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            intervals: DaemonIntervals::default(),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            restart_budget: 10,
            restart_window: Duration::from_secs(10),
            seed: 0x0b5_0b5,
        }
    }
}

/// Component health as the supervisor sees it — the value of the
/// `tdp.ops.health.<name>` attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    Healthy,
    /// Probe failed; awaiting a restart attempt.
    Suspect,
    /// Restart in progress.
    Restarting,
    /// Restart budget exhausted; operator attention required. Sticky
    /// until [`Supervisor::reset_component`].
    Escalated,
}

impl Health {
    pub fn as_attr(&self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Suspect => "suspect",
            Health::Restarting => "restarting",
            Health::Escalated => "escalated",
        }
    }
}

type RestartFn = Box<dyn FnMut() -> TdpResult<()> + Send>;
type GaugeFn = Box<dyn Fn() -> u64 + Send>;

struct Component {
    target: Arc<dyn Supervisable>,
    name: String,
    restart: RestartFn,
    backoff: Backoff,
    budget: RestartBudget,
    health: Health,
    beats: u64,
    restarts: u64,
    down_since: Option<Instant>,
    next_attempt: Instant,
    recoveries: Vec<Duration>,
}

struct Inner {
    world: World,
    config: SupervisorConfig,
    components: (Mutex<Vec<Component>>, Condvar),
    gauges: Mutex<Vec<(String, GaugeFn)>>,
    /// Last published KPI rows.
    kpis: Mutex<BTreeMap<String, String>>,
    /// Reconnecting client publishing ops attributes (survives restarts
    /// of the very server it publishes to).
    publisher: Mutex<AttrClient>,
}

/// The running supervision daemon.
pub struct Supervisor {
    inner: Arc<Inner>,
    stop_txs: Vec<Sender<()>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Start the three loops. Ops attributes are published into the
    /// CASS on `fe_host` (started if absent), under [`OPS_CONTEXT`] so
    /// the ops plane stays out of tool sessions' contexts.
    pub fn start(
        world: &World,
        fe_host: HostId,
        config: SupervisorConfig,
    ) -> TdpResult<Supervisor> {
        let cass = world.ensure_cass(fe_host)?;
        // Publishing is best-effort and MUST stay prompt: if the CASS
        // itself is the dead component, a long redial here would hold
        // the publisher lock and starve the very patrol loop that
        // restarts it. Give up fast; the next tick republishes anyway.
        let policy = ReconnectPolicy {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(20),
            max_elapsed: Duration::from_millis(50),
            ..ReconnectPolicy::default()
        };
        let mut publisher = world.attr_connect_reliable(fe_host, cass, policy)?;
        publisher.join(OPS_CONTEXT)?;
        let inner = Arc::new(Inner {
            world: world.clone(),
            config,
            components: (Mutex::new(Vec::new()), Condvar::new()),
            gauges: Mutex::new(Vec::new()),
            kpis: Mutex::new(BTreeMap::new()),
            publisher: Mutex::new(publisher),
        });

        let mut stop_txs = Vec::new();
        let mut threads = Vec::new();
        type Tick = fn(&Inner);
        let loops: [(&str, Duration, Tick); 3] = [
            ("heartbeat", config.intervals.heartbeat, heartbeat_tick),
            ("patrol", config.intervals.patrol, patrol_tick),
            ("kpi", config.intervals.kpi, kpi_tick),
        ];
        for (name, interval, tick) in loops {
            let (tx, rx) = bounded::<()>(1);
            let inner2 = inner.clone();
            let handle = thread::Builder::new()
                .name(format!("tdp-ops-{name}"))
                .spawn(move || loop {
                    match rx.recv_timeout(interval) {
                        Err(RecvTimeoutError::Timeout) => tick(&inner2),
                        _ => return,
                    }
                })
                .map_err(|e| TdpError::Substrate(format!("spawn ops loop: {e}")))?;
            stop_txs.push(tx);
            threads.push(handle);
        }
        Ok(Supervisor {
            inner,
            stop_txs,
            threads,
        })
    }

    /// Watch `target`; `restart` is the owner's knowledge of how to
    /// bring a replacement up (called from the patrol loop).
    pub fn register(
        &self,
        target: Arc<dyn Supervisable>,
        restart: impl FnMut() -> TdpResult<()> + Send + 'static,
    ) {
        let cfg = &self.inner.config;
        let name = target.ops_name();
        let seed = cfg.seed
            ^ name
                .bytes()
                .fold(0u64, |h, b| h.wrapping_mul(31) + u64::from(b));
        self.inner.components.0.lock().push(Component {
            target,
            name,
            restart: Box::new(restart),
            backoff: Backoff::new(cfg.backoff_base, cfg.backoff_cap, seed),
            budget: RestartBudget::new(cfg.restart_budget, cfg.restart_window),
            health: Health::Healthy,
            beats: 0,
            restarts: 0,
            down_since: None,
            next_attempt: Instant::now(),
            recoveries: Vec::new(),
        });
    }

    /// Stop watching the component named `name`; returns whether it was
    /// registered. The hand-off hook for owners that *intentionally*
    /// tear a component down (the gateway's `proc.kill` endpoint): an
    /// operator-requested kill must not look like a crash, or the patrol
    /// loop would immediately resurrect what the operator just removed.
    pub fn unregister(&self, name: &str) -> bool {
        let (lock, cv) = &self.inner.components;
        let mut comps = lock.lock();
        let before = comps.len();
        comps.retain(|c| c.name != name);
        let removed = comps.len() != before;
        drop(comps);
        cv.notify_all();
        removed
    }

    /// Publish an extra numeric gauge as `tdp.ops.kpi.<name>` on every
    /// KPI tick (queue depths, in-flight counts, …).
    pub fn register_gauge(&self, name: impl Into<String>, f: impl Fn() -> u64 + Send + 'static) {
        self.inner.gauges.lock().push((name.into(), Box::new(f)));
    }

    pub fn health_of(&self, name: &str) -> Option<Health> {
        self.inner
            .components
            .0
            .lock()
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.health)
    }

    pub fn restarts_of(&self, name: &str) -> Option<u64> {
        self.inner
            .components
            .0
            .lock()
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.restarts)
    }

    /// Total restarts across all components.
    pub fn restart_total(&self) -> u64 {
        self.inner
            .components
            .0
            .lock()
            .iter()
            .map(|c| c.restarts)
            .sum()
    }

    /// Names of escalated components (breaker open).
    pub fn escalated(&self) -> Vec<String> {
        self.inner
            .components
            .0
            .lock()
            .iter()
            .filter(|c| c.health == Health::Escalated)
            .map(|c| c.name.clone())
            .collect()
    }

    /// Recovery latencies (failure detected → probe healthy again) per
    /// component.
    pub fn recovery_latencies(&self) -> Vec<(String, Vec<Duration>)> {
        self.inner
            .components
            .0
            .lock()
            .iter()
            .map(|c| (c.name.clone(), c.recoveries.clone()))
            .collect()
    }

    /// Block until `name` reaches `health` (event-driven; no polling).
    pub fn wait_health(&self, name: &str, health: Health, timeout: Duration) -> TdpResult<()> {
        self.wait_component(name, timeout, |c| (c.health == health).then_some(()))
    }

    /// Block until `name` has at least `n` successful heartbeats.
    pub fn wait_beats(&self, name: &str, n: u64, timeout: Duration) -> TdpResult<u64> {
        self.wait_component(name, timeout, |c| (c.beats >= n).then_some(c.beats))
    }

    /// Block until `name` has been restarted at least `n` times.
    pub fn wait_restarts(&self, name: &str, n: u64, timeout: Duration) -> TdpResult<u64> {
        self.wait_component(name, timeout, |c| (c.restarts >= n).then_some(c.restarts))
    }

    /// Block until `f` reads a value off component `name` (or it is
    /// unregistered).
    fn wait_component<R>(
        &self,
        name: &str,
        timeout: Duration,
        f: impl Fn(&Component) -> Option<R>,
    ) -> TdpResult<R> {
        let (lock, cv) = &self.inner.components;
        let mut comps = lock.lock();
        cv.wait_while_for(
            &mut comps,
            |comps| {
                let c = comps.iter().find(|c| c.name == name);
                c.is_some_and(|c| f(c).is_none())
            },
            timeout,
        );
        let c = comps
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| TdpError::Substrate(format!("unknown component {name}")))?;
        f(c).ok_or(TdpError::Timeout)
    }

    /// Operator reset after an escalation: close the breaker and mark
    /// the component suspect so the patrol tries again.
    pub fn reset_component(&self, name: &str) {
        let (lock, cv) = &self.inner.components;
        let mut comps = lock.lock();
        if let Some(c) = comps.iter_mut().find(|c| c.name == name) {
            c.budget.reset();
            c.backoff.reset();
            c.health = Health::Suspect;
            c.next_attempt = Instant::now();
        }
        drop(comps);
        cv.notify_all();
    }

    /// The last KPI rows published (key → value), sorted by key.
    pub fn kpi_snapshot(&self) -> Vec<(String, String)> {
        self.inner
            .kpis
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Compute, publish, and return a fresh KPI snapshot right now
    /// (the `tdp-ops --kpi-dump` one-shot path).
    pub fn kpi_snapshot_now(&self) -> Vec<(String, String)> {
        kpi_tick(&self.inner);
        self.kpi_snapshot()
    }

    /// Stop all three loops (prompt: ticks are channel waits).
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        for tx in &self.stop_txs {
            let _ = tx.try_send(());
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Probe every component; note failures for the patrol, publish beats.
fn heartbeat_tick(inner: &Inner) {
    let mut rows: Vec<(String, u64, Health)> = Vec::new();
    {
        let mut comps = inner.components.0.lock();
        for c in comps.iter_mut() {
            if c.health == Health::Escalated {
                continue; // operator's problem now; stop poking it
            }
            match c.target.ops_probe() {
                Ok(()) => {
                    c.beats += 1;
                    // A component may come back without our help (e.g.
                    // another actor rebound the port) — credit recovery
                    // wherever it is observed.
                    if c.health != Health::Healthy {
                        c.health = Health::Healthy;
                        if let Some(t) = c.down_since.take() {
                            c.recoveries.push(t.elapsed());
                        }
                        c.backoff.reset();
                    }
                }
                Err(_) => {
                    if c.health == Health::Healthy {
                        c.health = Health::Suspect;
                        c.down_since = Some(Instant::now());
                        c.next_attempt = Instant::now();
                    }
                }
            }
            rows.push((c.name.clone(), c.beats, c.health));
        }
    }
    inner.components.1.notify_all();
    let mut publisher = inner.publisher.lock();
    for (name, beats, health) in rows {
        // One failure means the space is unreachable right now — drop
        // the rest of this tick's rows rather than stacking redials.
        if publisher
            .put(OPS_CONTEXT, &names::ops_live(&name), &beats.to_string())
            .is_err()
        {
            return;
        }
        let _ = publisher.put(OPS_CONTEXT, &names::ops_health(&name), health.as_attr());
    }
}

/// Restart suspect components (backoff-paced, budget-guarded).
fn patrol_tick(inner: &Inner) {
    let mut rows: Vec<(String, Health)> = Vec::new();
    let mut escalations: Vec<String> = Vec::new();
    {
        let mut comps = inner.components.0.lock();
        for c in comps.iter_mut() {
            match c.health {
                Health::Escalated => {
                    escalations.push(c.name.clone());
                    continue;
                }
                Health::Healthy => continue,
                Health::Suspect | Health::Restarting => {}
            }
            // It may have recovered between heartbeats.
            if c.target.ops_probe().is_ok() {
                c.health = Health::Healthy;
                if let Some(t) = c.down_since.take() {
                    c.recoveries.push(t.elapsed());
                }
                c.backoff.reset();
                rows.push((c.name.clone(), c.health));
                continue;
            }
            if Instant::now() < c.next_attempt {
                continue;
            }
            if !c.budget.try_spend() {
                c.health = Health::Escalated;
                escalations.push(c.name.clone());
                rows.push((c.name.clone(), c.health));
                continue;
            }
            c.health = Health::Restarting;
            let restarted = (c.restart)().is_ok();
            if restarted {
                c.restarts += 1;
            }
            if restarted && c.target.ops_probe().is_ok() {
                c.health = Health::Healthy;
                if let Some(t) = c.down_since.take() {
                    c.recoveries.push(t.elapsed());
                }
                c.backoff.reset();
                c.next_attempt = Instant::now();
            } else {
                c.health = Health::Suspect;
                c.next_attempt = Instant::now() + c.backoff.next_delay();
            }
            rows.push((c.name.clone(), c.health));
        }
    }
    inner.components.1.notify_all();
    let mut publisher = inner.publisher.lock();
    for (name, health) in rows {
        if publisher
            .put(OPS_CONTEXT, &names::ops_health(&name), health.as_attr())
            .is_err()
        {
            return;
        }
    }
    if !escalations.is_empty() {
        let _ = publisher.put(OPS_CONTEXT, names::OPS_ESCALATION, &escalations.join(","));
    }
}

/// Gather and publish the KPI rows.
fn kpi_tick(inner: &Inner) {
    let mut rows: BTreeMap<String, String> = BTreeMap::new();
    rows.insert(
        "sessions".into(),
        inner.world.attr_session_count().to_string(),
    );
    rows.insert(
        "stall_kills".into(),
        tdp_wire::stall_kill_count().to_string(),
    );
    {
        let comps = inner.components.0.lock();
        let total: u64 = comps.iter().map(|c| c.restarts).sum();
        rows.insert("restarts".into(), total.to_string());
        let escalated = comps
            .iter()
            .filter(|c| c.health == Health::Escalated)
            .count();
        rows.insert("escalations".into(), escalated.to_string());
        for c in comps.iter() {
            rows.insert(format!("restarts.{}", c.name), c.restarts.to_string());
        }
        let all: Vec<Duration> = comps.iter().flat_map(|c| c.recoveries.clone()).collect();
        if !all.is_empty() {
            let max = all.iter().max().copied().unwrap_or_default();
            let mean = all.iter().sum::<Duration>() / all.len() as u32;
            rows.insert("recovery_ms_max".into(), max.as_millis().to_string());
            rows.insert("recovery_ms_mean".into(), mean.as_millis().to_string());
        }
    }
    for (name, f) in inner.gauges.lock().iter() {
        rows.insert(name.clone(), f().to_string());
    }
    {
        let mut publisher = inner.publisher.lock();
        for (k, v) in &rows {
            if publisher.put(OPS_CONTEXT, &names::ops_kpi(k), v).is_err() {
                break;
            }
        }
    }
    *inner.kpis.lock() = rows;
}
