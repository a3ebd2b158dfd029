//! `paradyn` — the tool front-end on the user's machine.
//!
//! Listens on two ports (control and data — the `-p2090 -P2091` pair of
//! Figure 5B), registers daemons as they report READY, lets the user
//! steer the application (run / pause / kill), aggregates metric
//! samples, and feeds the Performance Consultant.

use crate::msg::{parse_line, render_line, LineBuf, ToolMsg};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tdp_attrspace::AttrClient;
use tdp_netsim::{Conn, ConnTx, Network};
use tdp_proto::{names, ContextId};
use tdp_proto::{Addr, HostId, Pid, ProcStatus, TdpError, TdpResult};
use tdp_sync::serve::{serve, Server};
use tdp_sync::{Condvar, Mutex};

/// A daemon registered with the front-end.
#[derive(Debug, Clone)]
pub struct DaemonInfo {
    pub daemon: String,
    pub pid: Pid,
    pub symbols: Vec<String>,
}

/// One metric sample received on the data channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    pub daemon: String,
    pub pid: Pid,
    pub symbol: String,
    pub count: u64,
    /// Inclusive CPU units.
    pub time: u64,
    /// Exclusive (self) CPU units.
    pub self_time: u64,
    pub total_cpu: u64,
}

#[derive(Default)]
struct FeState {
    daemons: Vec<DaemonInfo>,
    controls: HashMap<String, Arc<ConnTx>>,
    /// Latest sample per (daemon, symbol).
    samples: HashMap<(String, String), Sample>,
    done: HashMap<String, ProcStatus>,
}

/// The running front-end. Background threads accept daemon connections
/// and ingest samples; the struct's methods are the "user interface".
pub struct ParadynFrontend {
    host: HostId,
    control_addr: Addr,
    data_addr: Addr,
    state: Arc<(Mutex<FeState>, Condvar)>,
    /// Held open so the CASS context (and our published ports) survive.
    cass_session: Mutex<Option<AttrClient>>,
    /// The control and data accept loops; dropping them frees both ports.
    _servers: [Server; 2],
}

impl ParadynFrontend {
    /// Start the front-end on `host`, listening on `control_port` and
    /// `data_port` (0 = ephemeral).
    pub fn start(
        net: &Network,
        host: HostId,
        control_port: u16,
        data_port: u16,
    ) -> TdpResult<ParadynFrontend> {
        let control_listener = net.listen(host, control_port)?;
        let data_listener = net.listen(host, data_port)?;
        let control_addr = control_listener.local_addr();
        let data_addr = data_listener.local_addr();
        let state: Arc<(Mutex<FeState>, Condvar)> = Arc::new(Default::default());

        let st = state.clone();
        let control = serve("fe-control", control_listener, move |conn: Conn| {
            let (tx, mut rx) = conn.split();
            let tx = Arc::new(tx);
            let mut lines = LineBuf::default();
            while let Ok(chunk) = rx.recv() {
                lines.push(&chunk);
                while let Some(line) = lines.next_line() {
                    if let Some(ToolMsg::Ready {
                        daemon,
                        pid,
                        symbols,
                    }) = parse_line(&line)
                    {
                        let (lock, cv) = &*st;
                        let mut s = lock.lock();
                        s.controls.insert(daemon.clone(), tx.clone());
                        s.daemons.push(DaemonInfo {
                            daemon,
                            pid,
                            symbols,
                        });
                        drop(s);
                        cv.notify_all();
                    }
                }
            }
        })
        .map_err(|e| TdpError::Substrate(format!("spawn fe control: {e}")))?;

        let st = state.clone();
        let data = serve("fe-data", data_listener, move |conn: Conn| {
            let (_tx, mut rx) = conn.split();
            let mut lines = LineBuf::default();
            while let Ok(chunk) = rx.recv() {
                lines.push(&chunk);
                while let Some(line) = lines.next_line() {
                    match parse_line(&line) {
                        Some(ToolMsg::Sample {
                            daemon,
                            pid,
                            symbol,
                            count,
                            time,
                            self_time,
                            total_cpu,
                        }) => {
                            let (lock, cv) = &*st;
                            lock.lock().samples.insert(
                                (daemon.clone(), symbol.clone()),
                                Sample {
                                    daemon,
                                    pid,
                                    symbol,
                                    count,
                                    time,
                                    self_time,
                                    total_cpu,
                                },
                            );
                            cv.notify_all();
                        }
                        Some(ToolMsg::Done { daemon, status, .. }) => {
                            let (lock, cv) = &*st;
                            lock.lock().done.insert(daemon, status);
                            cv.notify_all();
                        }
                        _ => {}
                    }
                }
            }
        })
        .map_err(|e| TdpError::Substrate(format!("spawn fe data: {e}")))?;

        Ok(ParadynFrontend {
            host,
            control_addr,
            data_addr,
            state,
            cass_session: Mutex::new(None),
            _servers: [control, data],
        })
    }

    /// Host the front-end runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Control-channel address (the `-p` port).
    pub fn control_addr(&self) -> Addr {
        self.control_addr
    }

    /// Data-channel address (the `-P` port).
    pub fn data_addr(&self) -> Addr {
        self.data_addr
    }

    /// Publish the two listener ports into the **Central Attribute
    /// Space** — the "complete TDP framework" of §4.3: "port arguments
    /// should be published by Paradyn front-end and disseminated to
    /// remote sites as attribute values". Daemons whose argv carries no
    /// `-m/-p/-P` resolve the front-end through the CASS instead.
    ///
    /// The CASS is started on this front-end's host if not yet running.
    pub fn advertise_via_cass(&self, world: &tdp_core::World) -> TdpResult<()> {
        let cass = world.ensure_cass(self.host)?;
        let mut client = world.attr_connect(self.host, cass)?;
        client.join(ContextId::DEFAULT)?;
        client.put(
            ContextId::DEFAULT,
            names::TOOL_FRONTEND_ADDR,
            &self.control_addr.to_attr_value(),
        )?;
        client.put(
            ContextId::DEFAULT,
            names::TOOL_FRONTEND_ADDR2,
            &self.data_addr.to_attr_value(),
        )?;
        *self.cass_session.lock() = Some(client);
        Ok(())
    }

    /// Block until `n` daemons have reported READY.
    pub fn wait_for_daemons(&self, n: usize, timeout: Duration) -> TdpResult<Vec<DaemonInfo>> {
        let (lock, cv) = &*self.state;
        let mut s = lock.lock();
        let waited = cv.wait_while_for(&mut s, |s| s.daemons.len() < n, timeout);
        if waited.timed_out() {
            return Err(TdpError::Timeout);
        }
        Ok(s.daemons.clone())
    }

    /// Daemons currently registered.
    pub fn daemons(&self) -> Vec<DaemonInfo> {
        self.state.0.lock().daemons.clone()
    }

    fn send_all(&self, msg: &ToolMsg) -> TdpResult<usize> {
        let line = format!("{}\n", render_line(msg));
        // Snapshot the control channels and release the state lock
        // before writing: a daemon exercising netsim latency must not
        // block sample ingestion or `wait_done` wakeups.
        let txs: Vec<_> = {
            let s = self.state.0.lock();
            s.controls.values().cloned().collect()
        };
        let mut sent = 0;
        for tx in &txs {
            if tx.send(line.as_bytes()).is_ok() {
                sent += 1;
            }
        }
        Ok(sent)
    }

    /// The user's *run* command: start every registered application.
    pub fn run_all(&self) -> TdpResult<usize> {
        self.send_all(&ToolMsg::Run)
    }

    /// Pause every application.
    pub fn pause_all(&self) -> TdpResult<usize> {
        self.send_all(&ToolMsg::Pause)
    }

    /// Kill every application.
    pub fn kill_all(&self) -> TdpResult<usize> {
        self.send_all(&ToolMsg::Kill)
    }

    /// Latest samples, one per (daemon, symbol).
    pub fn samples(&self) -> Vec<Sample> {
        let mut v: Vec<Sample> = self.state.0.lock().samples.values().cloned().collect();
        v.sort_by(|a, b| (&a.daemon, &a.symbol).cmp(&(&b.daemon, &b.symbol)));
        v
    }

    /// Wait until `n` daemons reported DONE; returns daemon → status.
    pub fn wait_done(&self, n: usize, timeout: Duration) -> TdpResult<HashMap<String, ProcStatus>> {
        let (lock, cv) = &*self.state;
        let mut s = lock.lock();
        let waited = cv.wait_while_for(&mut s, |s| s.done.len() < n, timeout);
        if waited.timed_out() {
            return Err(TdpError::Timeout);
        }
        Ok(s.done.clone())
    }
}
