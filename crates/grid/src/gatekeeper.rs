//! The gatekeeper: authentication + RSL translation + job management —
//! the GRAM of our Globus-shaped layer.

use crate::rsl::Rsl;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use tdp_condor::{CondorPool, JobState, SubmitDescription, ToolDaemonSpec, Universe};
use tdp_core::World;
use tdp_lsf::{LsfCluster, LsfJobState, LsfRequest};
use tdp_netsim::Conn;
use tdp_proto::{
    attr::split_multi_value, json, Addr, HostId, JobId, ProcStatus, TdpError, TdpResult,
};
use tdp_sync::Mutex;

/// The gatekeeper's well-known port (Globus's 2119).
pub const GATEKEEPER_PORT: u16 = 2119;

/// A grid job request, translated out of RSL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridJobRequest {
    pub executable: String,
    pub arguments: Vec<String>,
    /// Parallel width (`count`): tasks under LSF, MPI ranks under
    /// Condor when > 1.
    pub count: u32,
    pub output: Option<String>,
    pub suspend_at_exec: bool,
    pub tool: Option<(String, Vec<String>)>,
}

impl GridJobRequest {
    /// Translate RSL → request. Required: `executable`.
    pub fn from_rsl(rsl: &Rsl) -> TdpResult<GridJobRequest> {
        let executable = rsl
            .get("executable")
            .ok_or_else(|| TdpError::Protocol("RSL: missing (executable=…)".into()))?
            .to_string();
        let arguments = rsl
            .get("arguments")
            .map(split_multi_value)
            .unwrap_or_default();
        let count = rsl.get_int("count").unwrap_or(1).max(1) as u32;
        let tool = rsl.get("tool").map(|cmd| {
            (
                cmd.to_string(),
                rsl.get("tool_args")
                    .map(split_multi_value)
                    .unwrap_or_default(),
            )
        });
        Ok(GridJobRequest {
            executable,
            arguments,
            count,
            output: rsl.get("output").map(str::to_string),
            suspend_at_exec: rsl
                .get("suspend_at_exec")
                .is_some_and(|v| v.eq_ignore_ascii_case("true"))
                || tool.is_some(),
            tool,
        })
    }
}

/// The local resource manager behind the gatekeeper — how GRAM's job
/// manager adapts to "fork", Condor, LSF, … backends.
pub trait LocalRm: Send + Sync + 'static {
    fn name(&self) -> &'static str;
    fn submit(&self, req: &GridJobRequest) -> TdpResult<JobId>;
    /// Wait for the job; `Ok(per-task statuses)` or `Err(reason)`.
    fn wait(
        &self,
        job: JobId,
        timeout: Duration,
    ) -> TdpResult<Result<HashMap<u32, ProcStatus>, String>>;
}

impl LocalRm for CondorPool {
    fn name(&self) -> &'static str {
        "condor"
    }

    fn submit(&self, req: &GridJobRequest) -> TdpResult<JobId> {
        let mut d = SubmitDescription {
            executable: req.executable.clone(),
            arguments: req.arguments.clone(),
            output: req.output.clone(),
            suspend_job_at_exec: req.suspend_at_exec,
            ..SubmitDescription::default()
        };
        if req.count > 1 {
            d.universe = Universe::Mpi;
            d.machine_count = req.count;
        }
        if let Some((cmd, args)) = &req.tool {
            d.tool_daemon = Some(ToolDaemonSpec {
                cmd: cmd.clone(),
                args: args.clone(),
                output: None,
                error: None,
            });
        }
        Ok(CondorPool::submit(self, d))
    }

    fn wait(
        &self,
        job: JobId,
        timeout: Duration,
    ) -> TdpResult<Result<HashMap<u32, ProcStatus>, String>> {
        match self.wait_job(job, timeout)? {
            JobState::Completed(done) => Ok(Ok(done)),
            JobState::Failed(e) => Ok(Err(e)),
            other => Ok(Err(format!("unexpected state {other:?}"))),
        }
    }
}

impl LocalRm for LsfCluster {
    fn name(&self) -> &'static str {
        "lsf"
    }

    fn submit(&self, req: &GridJobRequest) -> TdpResult<JobId> {
        let mut r = LsfRequest::new(req.executable.clone())
            .args(req.arguments.clone())
            .ntasks(req.count);
        if let Some(out) = &req.output {
            r = r.output(out.clone());
        }
        if req.suspend_at_exec {
            r = r.suspended();
        }
        if let Some((cmd, args)) = &req.tool {
            r = r.tool(cmd.clone(), args.clone());
        }
        self.bsub(r)
    }

    fn wait(
        &self,
        job: JobId,
        timeout: Duration,
    ) -> TdpResult<Result<HashMap<u32, ProcStatus>, String>> {
        match self.wait_job(job, timeout)? {
            LsfJobState::Done(done) => Ok(Ok(done)),
            LsfJobState::Failed(e) => Ok(Err(e)),
            other => Ok(Err(format!("unexpected state {other:?}"))),
        }
    }
}

/// Wire messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum GramMsg {
    Submit {
        subject: String,
        token: String,
        rsl: String,
    },
    Accepted {
        job: JobId,
        backend: String,
    },
    Denied {
        reason: String,
    },
    Status {
        state: String,
        detail: String,
    },
}

/// Job state as observed by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GramState {
    Pending,
    Active,
    Done(HashMap<u32, ProcStatus>),
    Failed(String),
}

/// The authenticating front door of a grid site.
pub struct Gatekeeper {
    world: World,
    addr: Addr,
    grid_map: Arc<Mutex<HashMap<String, String>>>,
}

impl Gatekeeper {
    /// Start on the site's head node, forwarding to `backend`.
    pub fn start(world: &World, head: HostId, backend: Arc<dyn LocalRm>) -> TdpResult<Gatekeeper> {
        let listener = world.net().listen(head, GATEKEEPER_PORT)?;
        let addr = listener.local_addr();
        let grid_map: Arc<Mutex<HashMap<String, String>>> = Arc::new(Mutex::new(HashMap::new()));
        let gm = grid_map.clone();
        thread::Builder::new()
            .name("grid-gatekeeper".into())
            .spawn(move || {
                while let Ok(mut conn) = listener.accept() {
                    let backend = backend.clone();
                    let gm = gm.clone();
                    thread::Builder::new()
                        .name("gram-jobmanager".into())
                        .spawn(move || serve(&mut conn, &backend, &gm))
                        .expect("spawn job manager");
                }
            })
            .map_err(|e| TdpError::Substrate(format!("spawn gatekeeper: {e}")))?;
        Ok(Gatekeeper {
            world: world.clone(),
            addr,
            grid_map,
        })
    }

    /// Address clients submit to.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Add a subject to the grid-map (Globus's grid-mapfile): only
    /// authorized subjects with the matching proxy token may submit.
    pub fn authorize(&self, subject: impl Into<String>, token: impl Into<String>) {
        self.grid_map.lock().insert(subject.into(), token.into());
    }

    /// Remove a subject.
    pub fn revoke(&self, subject: &str) {
        self.grid_map.lock().remove(subject);
    }
}

impl tdp_core::Supervisable for Gatekeeper {
    fn ops_name(&self) -> String {
        format!("grid.gatekeeper.{}", self.addr.host.0)
    }

    fn ops_probe(&self) -> TdpResult<()> {
        // Connect-only probe: a full Submit would spawn a job manager
        // session, so just prove the listener is bound and accepting.
        let conn = self.world.net().connect(self.addr.host, self.addr)?;
        drop(conn);
        Ok(())
    }
}

fn serve(conn: &mut Conn, backend: &Arc<dyn LocalRm>, grid_map: &Mutex<HashMap<String, String>>) {
    let Ok(chunk) = conn.recv() else { return };
    let Ok(GramMsg::Submit {
        subject,
        token,
        rsl,
    }) = json::from_slice(&chunk)
    else {
        let _ = send(
            conn,
            &GramMsg::Denied {
                reason: "malformed submission".into(),
            },
        );
        return;
    };
    // Authentication: subject must be in the grid-map with this token.
    if grid_map.lock().get(&subject) != Some(&token) {
        let _ = send(
            conn,
            &GramMsg::Denied {
                reason: format!("subject {subject:?} not authorized"),
            },
        );
        return;
    }
    // Parse + translate + submit.
    let req = match Rsl::parse(&rsl).and_then(|r| GridJobRequest::from_rsl(&r)) {
        Ok(r) => r,
        Err(e) => {
            let _ = send(
                conn,
                &GramMsg::Denied {
                    reason: e.to_string(),
                },
            );
            return;
        }
    };
    let job = match backend.submit(&req) {
        Ok(j) => j,
        Err(e) => {
            let _ = send(
                conn,
                &GramMsg::Denied {
                    reason: e.to_string(),
                },
            );
            return;
        }
    };
    if send(
        conn,
        &GramMsg::Accepted {
            job,
            backend: backend.name().into(),
        },
    )
    .is_err()
    {
        return;
    }
    let _ = send(
        conn,
        &GramMsg::Status {
            state: "ACTIVE".into(),
            detail: String::new(),
        },
    );
    match backend.wait(job, Duration::from_secs(600)) {
        Ok(Ok(done)) => {
            let detail = json::to_string(
                &done
                    .iter()
                    .map(|(k, v)| (*k, v.to_attr_value()))
                    .collect::<HashMap<_, _>>(),
            )
            .unwrap_or_default();
            let _ = send(
                conn,
                &GramMsg::Status {
                    state: "DONE".into(),
                    detail,
                },
            );
        }
        Ok(Err(e)) => {
            let _ = send(
                conn,
                &GramMsg::Status {
                    state: "FAILED".into(),
                    detail: e,
                },
            );
        }
        Err(e) => {
            let _ = send(
                conn,
                &GramMsg::Status {
                    state: "FAILED".into(),
                    detail: e.to_string(),
                },
            );
        }
    }
}

fn send(conn: &Conn, msg: &GramMsg) -> TdpResult<()> {
    conn.send(&json::to_vec(msg)?)
}

/// Client-side handle for one grid job.
pub struct GramClient {
    conn: Conn,
    pub job: JobId,
    pub backend: String,
}

impl GramClient {
    /// Submit an RSL request to a gatekeeper. Errors on denial.
    pub fn submit(
        world: &World,
        from: HostId,
        gatekeeper: Addr,
        subject: &str,
        token: &str,
        rsl: &str,
    ) -> TdpResult<GramClient> {
        let mut conn = world.net().connect(from, gatekeeper)?;
        send(
            &conn,
            &GramMsg::Submit {
                subject: subject.to_string(),
                token: token.to_string(),
                rsl: rsl.to_string(),
            },
        )?;
        let chunk = conn.recv_timeout(Duration::from_secs(10))?;
        match json::from_slice(&chunk)? {
            GramMsg::Accepted { job, backend } => Ok(GramClient { conn, job, backend }),
            GramMsg::Denied { reason } => Err(TdpError::Substrate(format!("denied: {reason}"))),
            other => Err(TdpError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Read the next state transition.
    pub fn next_state(&mut self, timeout: Duration) -> TdpResult<GramState> {
        let chunk = self.conn.recv_timeout(timeout)?;
        match json::from_slice(&chunk)? {
            GramMsg::Status { state, detail } => Ok(match state.as_str() {
                "ACTIVE" => GramState::Active,
                "DONE" => {
                    let raw: HashMap<u32, String> = json::from_str(&detail).unwrap_or_default();
                    GramState::Done(
                        raw.into_iter()
                            .filter_map(|(k, v)| ProcStatus::parse(&v).map(|s| (k, s)))
                            .collect(),
                    )
                }
                "FAILED" => GramState::Failed(detail),
                _ => GramState::Pending,
            }),
            other => Err(TdpError::Protocol(format!("unexpected message {other:?}"))),
        }
    }

    /// Wait for the terminal state.
    pub fn wait(&mut self, timeout: Duration) -> TdpResult<GramState> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline
                .checked_duration_since(std::time::Instant::now())
                .ok_or(TdpError::Timeout)?;
            match self.next_state(remaining)? {
                GramState::Done(d) => return Ok(GramState::Done(d)),
                GramState::Failed(e) => return Ok(GramState::Failed(e)),
                _ => continue,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gram_messages_roundtrip_typed() {
        for msg in [
            GramMsg::Submit {
                subject: "/O=Grid/CN=alice".into(),
                token: "proxy-abc".into(),
                rsl: r#"&(executable=/bin/app)(arguments="a b")"#.into(),
            },
            GramMsg::Accepted {
                job: JobId(3),
                backend: "condor".into(),
            },
            GramMsg::Denied {
                reason: "subject \"/CN=eve\" not authorized".into(),
            },
            GramMsg::Status {
                state: "DONE".into(),
                detail: json::to_string(&HashMap::from([(0u32, "exited:0".to_string())])).unwrap(),
            },
        ] {
            let text = json::to_string(&msg).unwrap();
            let back: GramMsg = json::from_str(&text).unwrap();
            assert_eq!(format!("{back:?}"), format!("{msg:?}"), "{text}");
        }
    }
}
