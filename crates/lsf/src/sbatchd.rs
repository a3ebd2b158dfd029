//! `sbatchd` — the per-host slave batch daemon and its task runner
//! (LSF's `res`), with this scheduler's own TDP integration.

use crate::messages::{Dispatch, MbdMsg, SbdMsg};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use tdp_core::{Role, TdpCreate, TdpHandle, World};
use tdp_netsim::ConnTx;
use tdp_proto::{json, names, Addr, ContextId, HostId, TdpError, TdpResult};
use tdp_proto::{JobId, Pid};
use tdp_simos::Sink;
use tdp_sync::Mutex;

/// A running sbatchd. Dropping it does not stop in-flight tasks (they
/// finish and report); it only stops accepting dispatches (the conn
/// closes).
pub struct Sbatchd {
    pub host: HostId,
    pub name: String,
    _reader: thread::JoinHandle<()>,
}

/// Start an sbatchd on `host` advertising `slots` slots, registering
/// with the mbatchd at `mbd`.
pub fn start(world: &World, host: HostId, slots: u32, mbd: Addr) -> TdpResult<Sbatchd> {
    let conn = world.net().connect(host, mbd)?;
    let name = format!("sbatchd@host{}", host.0);
    let (tx, mut rx) = conn.split();
    let tx = Arc::new(tx);
    send(
        &tx,
        &SbdMsg::Register {
            name: name.clone(),
            slots,
        },
    )?;
    let world2 = world.clone();
    let running: Arc<Mutex<HashMap<JobId, Vec<Pid>>>> = Arc::new(Mutex::new(HashMap::new()));
    let reader = thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            let mut buf = Vec::new();
            loop {
                let chunk = match rx.recv() {
                    Ok(c) => c,
                    Err(_) => return,
                };
                buf.extend_from_slice(&chunk);
                // One JSON message per chunk (netsim preserves chunk
                // boundaries); parse and reset.
                let msg: MbdMsg = match json::from_slice(&buf) {
                    Ok(m) => {
                        buf.clear();
                        m
                    }
                    Err(_) => continue, // partial (not expected) — wait
                };
                match msg {
                    MbdMsg::Dispatch(d) => {
                        let world = world2.clone();
                        let tx = tx.clone();
                        let running = running.clone();
                        thread::Builder::new()
                            .name(format!("lsf-res-{}.{}", d.job, d.task))
                            .spawn(move || {
                                let (job, task) = (d.job, d.task);
                                if let Err(e) = run_task(&world, host, d, &tx, &running) {
                                    let _ = send(
                                        &tx,
                                        &SbdMsg::TaskFailed {
                                            job,
                                            task,
                                            error: e.to_string(),
                                        },
                                    );
                                }
                            })
                            .expect("spawn res");
                    }
                    MbdMsg::Kill { job } => {
                        // `bkill`: terminate every local task of the job.
                        let pids = running.lock().get(&job).cloned().unwrap_or_default();
                        for pid in pids {
                            let _ = world2.os().kill(pid, 9);
                        }
                    }
                    MbdMsg::Ack => {}
                }
            }
        })
        .map_err(|e| TdpError::Substrate(format!("spawn sbatchd reader: {e}")))?;
    Ok(Sbatchd {
        host,
        name,
        _reader: reader,
    })
}

fn send(tx: &ConnTx, msg: &SbdMsg) -> TdpResult<()> {
    tx.send(&json::to_vec(msg)?)
}

/// The task runner — LSF's `res`, speaking TDP. This is this
/// scheduler's *entire* integration with run-time tools: create the
/// application paused, start the tool, put the pid. No tool is named
/// anywhere in this crate.
fn run_task(
    world: &World,
    host: HostId,
    d: Dispatch,
    tx: &ConnTx,
    running: &Mutex<HashMap<JobId, Vec<Pid>>>,
) -> TdpResult<()> {
    // Context disjoint per (job, task).
    let ctx = ContextId(500_000 + d.job.0 * 1_000 + u64::from(d.task));
    let mut tdp = TdpHandle::init(world, host, ctx, "res", Role::ResourceManager)?;

    // Snapshot the filesystem so tool-produced files can be staged back.
    let before: HashSet<String> = world.os().fs().list(host, "").into_iter().collect();

    let mut app = TdpCreate::new(d.executable.clone())
        .args(d.args.clone())
        .stdin_bytes(d.stdin.clone())
        .stdout(Sink::Capture)
        .stderr(Sink::Capture);
    if d.suspend_at_exec {
        app = app.paused();
    }
    let app_pid = tdp.create_process(app)?;
    world.os().close_stdin(app_pid)?;
    running.lock().entry(d.job).or_default().push(app_pid);
    let _ = send(
        tx,
        &SbdMsg::TaskStarted {
            job: d.job,
            task: d.task,
            pid: app_pid.0,
        },
    );

    let tool_pid = match &d.tool {
        Some(tool) => {
            let mut args = tool.args.clone();
            args.push(format!("-c{}", ctx.0));
            let pid = tdp.create_process(
                TdpCreate::new(tool.cmd.clone())
                    .args(args)
                    .stdout(Sink::Capture)
                    .stderr(Sink::Capture),
            )?;
            tdp.put(names::PID, &app_pid.to_string())?;
            tdp.put(names::EXECUTABLE_NAME, &d.executable)?;
            if let Some(cass) = world.cass_addr() {
                tdp.put(names::CASS_ADDR, &cass.to_attr_value())?;
            }
            Some(pid)
        }
        None => {
            if d.suspend_at_exec {
                // No tool will ever continue it; the scheduler does.
                tdp.continue_process(app_pid)?;
            }
            None
        }
    };

    let status = tdp.wait_terminal(app_pid, Duration::from_secs(600))?;
    tdp.publish_status(status)?;
    if let Some(tp) = tool_pid {
        let _ = world.os().wait_terminal(tp, Duration::from_secs(30));
    }

    // Inline staging back: stdio plus whatever new data files appeared
    // (tool reports, traces).
    let stdout = world.os().read_stdout(app_pid)?;
    let stderr = world.os().read_stderr(app_pid)?;
    let mut tool_files = Vec::new();
    for f in world.os().fs().list(host, "") {
        if !before.contains(&f) {
            if let Ok(data) = world.os().fs().read_file(host, &f) {
                tool_files.push((f, data));
            }
        }
    }
    running
        .lock()
        .entry(d.job)
        .or_default()
        .retain(|p| *p != app_pid);
    tdp.exit()?;
    send(
        tx,
        &SbdMsg::TaskDone {
            job: d.job,
            task: d.task,
            status: status.to_attr_value(),
            stdout,
            stderr,
            tool_files,
        },
    )
}
