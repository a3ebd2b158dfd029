//! `condor_starter` — spawns and supervises one (rank of a) job on an
//! execution machine, speaking TDP when the submit file asks for a tool
//! dæmon (§4.3, Figure 6).

use crate::messages::{recv_json_timeout, send_json, JobDetails, ShadowMsg};
use crate::submit::Universe;
use std::time::Duration;
use tdp_core::{Role, TdpCreate, TdpHandle, World};
use tdp_netsim::Conn;
use tdp_proto::{names, ContextId, HostId, ProcStatus, TdpError, TdpResult};
use tdp_simos::kernel::Role as WatchRole;
use tdp_simos::Sink;

/// TDP context used for one (job, rank) pairing: each RT gets its own
/// space (§3.2).
pub fn job_context(job: tdp_proto::JobId, rank: u32) -> ContextId {
    ContextId(job.0 * 1_000 + u64::from(rank))
}

/// The starter body: runs on its own thread, returns the job's terminal
/// status. `host` is the execution machine.
pub fn run_starter(world: &World, host: HostId, details: &JobDetails) -> TdpResult<ProcStatus> {
    run_starter_observed(world, host, details, |_| {})
}

/// Like [`run_starter`], also reporting the application pid to
/// `on_app_pid` as soon as it exists (the startd's vacate hook).
pub fn run_starter_observed(
    world: &World,
    host: HostId,
    details: &JobDetails,
    on_app_pid: impl FnOnce(tdp_proto::Pid),
) -> TdpResult<ProcStatus> {
    let mut shadow = world.net().connect(host, details.shadow)?;
    let submit = &details.submit;

    // ---- File staging -------------------------------------------------
    // The executable and extra input files. Executable images cannot
    // cross the byte-oriented shadow channel (they are program
    // factories, not bits — see DESIGN.md), so they stage via the
    // filesystem layer; plain data files take the faithful
    // remote-syscall path through the shadow.
    if submit.transfer_files && !world.os().fs().exists(host, &submit.executable) {
        world.os().fs().stage(
            details.submit_host,
            &submit.executable,
            host,
            &submit.executable,
        )?;
    }
    for f in &submit.transfer_input_files {
        if world.os().fs().exists(host, f) {
            continue;
        }
        // Prefer the executable-capable path; fall back to shadow I/O.
        if world
            .os()
            .fs()
            .stage(details.submit_host, f, host, f)
            .is_err()
        {
            let data = fetch_file(&mut shadow, f)?;
            world.os().fs().write_file(host, f, &data);
        }
    }
    let stdin_bytes = match &submit.input {
        Some(path) => fetch_file(&mut shadow, path)?,
        None => Vec::new(),
    };
    // Checkpoint restart: bring the latest checkpoint (if any) to the
    // execution host before the application is created, so a vacated
    // job resumes where it left off.
    if let Some(ck) = &submit.checkpoint_file {
        if let Ok(data) = fetch_file(&mut shadow, ck) {
            world.os().fs().write_file(host, ck, &data);
        }
    }

    // ---- TDP framework ------------------------------------------------
    let ctx = job_context(details.job, details.rank);
    // Step 1 (Fig 6): tdp_init creates the LASS through which starter
    // and tool daemon communicate.
    let mut tdp = TdpHandle::init(world, host, ctx, "starter", Role::ResourceManager)?;

    // Application argv: MPI ranks get their rank as argv[0] (the ch_p4
    // procgroup convention in our simulated runtime).
    let mut app_args: Vec<String> = Vec::new();
    if submit.universe == Universe::Mpi {
        app_args.push(details.rank.to_string());
    }
    app_args.extend(submit.arguments.iter().cloned());

    // Step 1 (cont.): create the application, paused at exec when
    // +SuspendJobAtExec was given.
    let mut app = TdpCreate::new(submit.executable.clone())
        .args(app_args)
        .stdin_bytes(stdin_bytes)
        .stdout(Sink::Capture)
        .stderr(Sink::Capture);
    if submit.universe == Universe::Standard {
        // Standard universe: the job links condor_syscall_lib and finds
        // its shadow through the environment (§4.1 remote syscalls).
        app = app.env_var(
            crate::syscall_lib::SHADOW_ENV,
            details.shadow.to_attr_value(),
        );
    }
    if submit.suspend_job_at_exec {
        app = app.paused();
    }
    let app_pid = tdp.create_process(app)?;
    on_app_pid(app_pid);
    // The staged input is the whole of stdin: deliver EOF after it, as
    // the real starter does at end of the input file.
    world.os().close_stdin(app_pid)?;
    // Register, then check: an unpaused application may already have
    // exited, and a terminal event emitted before `watch` returned
    // reached no watcher — the status read after it is what catches
    // that, so such a job goes straight to output staging.
    let watch = world.os().watch(app_pid, WatchRole::Observer)?;
    let initial = world.os().status(app_pid)?;
    report_status(&shadow, details, initial)?;

    // Step 2 (Fig 6): launch the tool daemon (not paused).
    let tool_pid = if let Some(tool) = &submit.tool_daemon {
        let mut args = tool.args.clone();
        args.push(format!("-c{}", ctx.0));
        if details.tool_auto_run {
            args.push("-A".to_string());
        }
        let pid = tdp.create_process(
            TdpCreate::new(tool.cmd.clone())
                .args(args)
                .stdout(Sink::Capture)
                .stderr(Sink::Capture),
        )?;
        // Step 3 (Fig 6): put the application pid into the LASS; the
        // daemon is blocked in tdp_get("pid") until this lands.
        tdp.put(names::PID, &app_pid.to_string())?;
        tdp.put(names::EXECUTABLE_NAME, &submit.executable)?;
        // Complete-TDP-framework dissemination (§4.3): tell the tool
        // where the global space lives so it can resolve its front-end
        // without hand-written port arguments.
        if let Some(cass) = world.cass_addr() {
            tdp.put(names::CASS_ADDR, &cass.to_attr_value())?;
        }
        Some(pid)
    } else {
        None
    };

    // ---- Supervision ---------------------------------------------------
    // Forward every status change to the shadow; stop at terminal.
    // Status arrives as an event. The 50 ms tick is not a status poll:
    // it paces the service of strict-mode `proc_request`s (§2.3), which
    // reach the starter through the attribute space rather than through
    // this channel — unifying the two wake sources is a later issue.
    // Its status read is the missed-event fallback only: the kernel
    // emits a terminal event just before it flips the state, so an exit
    // can slip between `watch` and the status read above.
    let terminal = if initial.is_terminal() {
        initial
    } else {
        loop {
            // §2.3: service any process-management request the tool
            // filed through the attribute space — the starter is the
            // single point of process control.
            tdp.service_proc_requests(app_pid)?;
            match watch.recv_timeout(Duration::from_millis(50)) {
                Ok(ev) => {
                    report_status(&shadow, details, ev.status)?;
                    tdp.publish_status(ev.status)?;
                    if ev.status.is_terminal() {
                        break ev.status;
                    }
                }
                Err(_) => {
                    let st = world.os().status(app_pid)?;
                    if st.is_terminal() {
                        report_status(&shadow, details, st)?;
                        break st;
                    }
                }
            }
        }
    };

    // ---- Output staging -------------------------------------------------
    // The checkpoint goes back first — whatever happened (normal exit,
    // vacate, crash), the latest saved state must survive the machine.
    if let Some(ck) = &submit.checkpoint_file {
        if let Ok(data) = world.os().fs().read_file(host, ck) {
            store_file(&mut shadow, ck, &data)?;
        }
    }
    if let Some(out) = &submit.output {
        let data = world.os().read_stdout(app_pid)?;
        store_file(&mut shadow, out, &data)?;
    }
    if let Some(err) = &submit.error {
        let data = world.os().read_stderr(app_pid)?;
        store_file(&mut shadow, err, &data)?;
    }
    if let (Some(tool), Some(tpid)) = (&submit.tool_daemon, tool_pid) {
        // Let the daemon finish its final flush, then stage its stdio
        // and trace files back (§2: trace files "must be transferred
        // from the execution nodes after the application completes").
        let _ = world.os().wait_terminal(tpid, Duration::from_secs(10));
        if let Some(out) = &tool.output {
            store_file(&mut shadow, out, &world.os().read_stdout(tpid)?)?;
        }
        if let Some(err) = &tool.error {
            store_file(&mut shadow, err, &world.os().read_stderr(tpid)?)?;
        }
        let trace_name = format!("paradynd{tpid}.trace");
        if let Ok(data) = world.os().fs().read_file(host, &trace_name) {
            store_file(&mut shadow, &trace_name, &data)?;
        }
    }

    send_json(
        &shadow,
        &ShadowMsg::JobDone {
            job: details.job,
            rank: details.rank,
            status: terminal.to_attr_value(),
        },
    )?;
    let _ = recv_json_timeout::<ShadowMsg>(&mut shadow, Duration::from_secs(5));
    tdp.exit()?;
    Ok(terminal)
}

fn report_status(conn: &Conn, details: &JobDetails, status: ProcStatus) -> TdpResult<()> {
    send_json(
        conn,
        &ShadowMsg::StatusUpdate {
            job: details.job,
            rank: details.rank,
            status: status.to_attr_value(),
        },
    )
}

fn fetch_file(shadow: &mut Conn, path: &str) -> TdpResult<Vec<u8>> {
    send_json(
        shadow,
        &ShadowMsg::FetchFile {
            path: path.to_string(),
        },
    )?;
    loop {
        match recv_json_timeout::<ShadowMsg>(shadow, Duration::from_secs(10))? {
            ShadowMsg::FileData { data, .. } => return Ok(data),
            ShadowMsg::FileError { path, error } => {
                return Err(TdpError::Substrate(format!("fetch {path}: {error}")))
            }
            ShadowMsg::Ack => continue, // stale status ack
            other => {
                return Err(TdpError::Protocol(format!(
                    "unexpected shadow reply {other:?}"
                )))
            }
        }
    }
}

fn store_file(shadow: &mut Conn, path: &str, data: &[u8]) -> TdpResult<()> {
    send_json(
        shadow,
        &ShadowMsg::StoreFile {
            path: path.to_string(),
            data: data.to_vec(),
        },
    )?;
    loop {
        match recv_json_timeout::<ShadowMsg>(shadow, Duration::from_secs(10))? {
            ShadowMsg::StoreOk => return Ok(()),
            ShadowMsg::Ack => continue,
            other => {
                return Err(TdpError::Protocol(format!(
                    "unexpected shadow reply {other:?}"
                )))
            }
        }
    }
}
