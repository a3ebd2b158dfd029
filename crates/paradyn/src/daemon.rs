//! `paradynd` — the tool daemon, as an executable image the resource
//! manager launches with `tdp_create_process`.

use crate::msg::{parse_line, render_line, LineBuf, ToolMsg};
use std::time::Duration;
use tdp_core::{Role, TdpCreate, TdpHandle, World};
use tdp_netsim::Conn;
use tdp_proto::{names, Addr, ContextId, HostId, Pid, TdpError, TdpResult};
use tdp_simos::{fn_program, ExecImage, ProcCtx};

/// Conventional path the RM installs the daemon binary at after staging
/// (`transfer_input_files = paradynd`, Figure 5B).
pub const PARADYND_EXE: &str = "paradynd";

/// How often the daemon samples its probes while the application runs.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(5);

/// How the daemon finds its application process (§4.2's two modes plus
/// the TDP framework mode of §4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaemonMode {
    /// `-a<pid>`: attach to an already-running process.
    Attach(Pid),
    /// `-r<exe>`: create mode — paradynd launches the application
    /// itself (standalone use, no batch system).
    Create { exe: String, app_args: Vec<String> },
    /// `-a%pid` left unsubstituted (or no process reference at all):
    /// "paradynd assumes then that it is working under a TDP framework"
    /// and gets the pid from the Local Attribute Space.
    Tdp,
}

/// Parsed paradynd argv (Figure 5B syntax).
#[derive(Debug, Clone)]
struct DaemonArgs {
    mode: DaemonMode,
    /// Front-end host from `-m`, ports from `-p` (control) / `-P`
    /// (data). When absent the daemon resolves the front-end through
    /// the attribute space instead ("in a complete TDP framework, port
    /// arguments should be published … as attribute values", §4.3).
    fe_host: Option<u32>,
    fe_control: Option<u16>,
    fe_data: Option<u16>,
    /// `-c<ctx>`: TDP context (defaults to 0).
    ctx: ContextId,
    /// `-A`: auto-run — continue the application without waiting for
    /// the front-end's run command (non-master MPI ranks, §4.3).
    auto_run: bool,
    /// `-S`: strict single-point process control (§2.3) — the daemon
    /// never touches the process itself; every pause/continue/kill is
    /// filed as a `proc_request` attribute for the RM to service.
    strict_control: bool,
    log_level: u32,
}

fn parse_args(args: &[String]) -> DaemonArgs {
    let mut out = DaemonArgs {
        mode: DaemonMode::Tdp,
        fe_host: None,
        fe_control: None,
        fe_data: None,
        ctx: ContextId::DEFAULT,
        auto_run: false,
        strict_control: false,
        log_level: 0,
    };
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        if let Some(v) = a.strip_prefix("-a") {
            if let Some(pid) = Pid::parse(v) {
                out.mode = DaemonMode::Attach(pid);
            }
            // `-a%pid` (or garbage) leaves Tdp mode — the Parador hack.
        } else if let Some(v) = a.strip_prefix("-r") {
            let exe = v.to_string();
            let app_args: Vec<String> = iter.by_ref().cloned().collect();
            out.mode = DaemonMode::Create { exe, app_args };
        } else if let Some(v) = a.strip_prefix("-m") {
            out.fe_host = v.parse().ok();
        } else if let Some(v) = a.strip_prefix("-P") {
            out.fe_data = v.parse().ok();
        } else if let Some(v) = a.strip_prefix("-p") {
            out.fe_control = v.parse().ok();
        } else if let Some(v) = a.strip_prefix("-c") {
            out.ctx = ContextId(v.parse().unwrap_or(0));
        } else if let Some(v) = a.strip_prefix("-l") {
            out.log_level = v.parse().unwrap_or(0);
        } else if a == "-A" {
            out.auto_run = true;
        } else if a == "-S" {
            out.strict_control = true;
        }
        // -z<flavor> and unknown flags are accepted and ignored, like
        // the real daemon's platform flags.
    }
    out
}

/// Resolve the front-end's control and data addresses, in order of
/// preference: argv (Figure 5B's manual ports), the local attribute
/// space, and finally the **CASS** — the complete-TDP-framework path of
/// §4.3 where "port arguments should be published by Paradyn front-end
/// and disseminated to remote sites as attribute values".
fn resolve_frontend(tdp: &mut TdpHandle, args: &DaemonArgs) -> TdpResult<(Addr, Addr)> {
    if let (Some(h), Some(p), Some(dp)) = (args.fe_host, args.fe_control, args.fe_data) {
        return Ok((Addr::new(HostId(h), p), Addr::new(HostId(h), dp)));
    }
    // Local space (put there by the RM, if it chose to).
    if let (Ok(c), Ok(d)) = (
        tdp.try_get(names::TOOL_FRONTEND_ADDR),
        tdp.try_get(names::TOOL_FRONTEND_ADDR2),
    ) {
        if let (Some(control), Some(data)) = (Addr::parse(&c), Addr::parse(&d)) {
            return Ok((control, data));
        }
    }
    // Global space: the RM published where the CASS lives; the
    // front-end published its ports there.
    let cass = Addr::parse(&tdp.get(names::CASS_ADDR)?)
        .ok_or_else(|| TdpError::Protocol("bad cass_addr".into()))?;
    tdp.connect_cass(cass)?;
    let control = Addr::parse(&tdp.get_global(names::TOOL_FRONTEND_ADDR)?)
        .ok_or_else(|| TdpError::Protocol("bad central tool_frontend_addr".into()))?;
    let data = Addr::parse(&tdp.get_global(names::TOOL_FRONTEND_ADDR2)?)
        .ok_or_else(|| TdpError::Protocol("bad central tool_frontend_addr2".into()))?;
    Ok((control, data))
}

/// Connect to a front-end address, falling back to the RM proxy when a
/// firewall blocks the direct path (§2.4).
fn connect_fe(tdp: &mut TdpHandle, world: &World, from: HostId, addr: Addr) -> TdpResult<Conn> {
    match world.net().connect(from, addr) {
        Ok(c) => Ok(c),
        Err(TdpError::BlockedByFirewall { .. }) => {
            let proxy = Addr::parse(&tdp.get(names::PROXY_ADDR)?)
                .ok_or_else(|| TdpError::Protocol("bad proxy_addr".into()))?;
            tdp_netsim::proxy::connect_via(world.net(), from, proxy, addr)
        }
        Err(e) => Err(e),
    }
}

/// Issue a process-management operation, honouring §2.3's single-point
/// control when `-S` was given: "When the RT needs to perform a process
/// management operation, it contacts the RM."
fn proc_op(
    tdp: &mut TdpHandle,
    strict: bool,
    pid: tdp_proto::Pid,
    op: tdp_proto::ProcRequest,
) -> TdpResult<()> {
    if strict {
        tdp.request_proc_op(op)
    } else {
        match op {
            tdp_proto::ProcRequest::Continue => tdp.continue_process(pid),
            tdp_proto::ProcRequest::Pause => tdp.pause_process(pid),
            tdp_proto::ProcRequest::Kill(sig) => tdp.kill_process(pid, sig),
        }
    }
}

/// Which symbols to instrument: the staged configuration file if
/// present (one symbol per line, `#` comments), else every symbol.
fn select_probes(world: &World, host: HostId, symbols: &[String]) -> Vec<String> {
    match world.os().fs().read_file(host, "paradyn.conf") {
        Ok(data) => {
            let wanted: Vec<String> = String::from_utf8_lossy(&data)
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect();
            symbols
                .iter()
                .filter(|s| wanted.iter().any(|w| w == *s))
                .cloned()
                .collect()
        }
        Err(_) => symbols.to_vec(),
    }
}

/// Build the paradynd executable image. Install it in a host's
/// filesystem (or stage it there) and launch it with Figure 5B-style
/// argv.
pub fn paradynd_image(world: World) -> ExecImage {
    ExecImage::from_fn(move |argv| {
        let world = world.clone();
        let args = parse_args(argv);
        fn_program(move |ctx| match daemon_main(&world, ctx, &args) {
            Ok(()) => 0,
            Err(e) => {
                ctx.write_stderr(format!("paradynd: {e}\n").as_bytes());
                1
            }
        })
    })
}

fn daemon_main(world: &World, ctx: &mut ProcCtx, args: &DaemonArgs) -> TdpResult<()> {
    let host = ctx.host();
    let name = format!("paradynd{}", ctx.pid());
    // In create mode the daemon is its own resource manager (it must
    // own the LASS); under a batch system the RM has already started it.
    let role = match args.mode {
        DaemonMode::Create { .. } => Role::ResourceManager,
        _ => Role::Tool,
    };
    let mut tdp = TdpHandle::init(world, host, args.ctx, &name, role)?;

    // Step 3 of Figure 6 / the three §2.2 schemes.
    let pid = match &args.mode {
        DaemonMode::Attach(pid) => *pid,
        DaemonMode::Create { exe, app_args } => {
            tdp.create_process(TdpCreate::new(exe.clone()).args(app_args.clone()).paused())?
        }
        DaemonMode::Tdp => {
            // Blocks until the starter puts the pid into the LASS.
            Pid::parse(&tdp.get(names::PID)?)
                .ok_or_else(|| TdpError::Protocol("bad pid attribute".into()))?
        }
    };
    tdp.attach(pid)?;

    // Initialization: parse the executable, choose and insert probes.
    let symbols = tdp.symbols(pid)?;
    for sym in select_probes(world, host, &symbols) {
        tdp.arm_probe(pid, &sym)?;
    }

    // Contact the front-end (control + data channels).
    let (control_addr, data_addr) = resolve_frontend(&mut tdp, args)?;
    let mut control = connect_fe(&mut tdp, world, host, control_addr)?;
    let data = connect_fe(&mut tdp, world, host, data_addr)?;
    control.send(
        format!(
            "{}\n",
            render_line(&ToolMsg::Ready {
                daemon: name.clone(),
                pid,
                symbols
            })
        )
        .as_bytes(),
    )?;

    // Tell the RM the tool is ready (create-mode handshake, §2.2).
    tdp.put(names::TOOL_READY, "1")?;

    // Wait for the front-end's run command — unless auto-running (the
    // non-master MPI ranks "immediately issue a run command", §4.3).
    let mut run_lines = LineBuf::default();
    if args.auto_run {
        proc_op(
            &mut tdp,
            args.strict_control,
            pid,
            tdp_proto::ProcRequest::Continue,
        )?;
    } else {
        'wait_run: loop {
            // The run command arrives as an event on the control
            // channel; the 20 ms timeout is only the cadence at which
            // the daemon crosses its own pause/kill gate while waiting.
            ctx.checkpoint();
            match control.recv_timeout(Duration::from_millis(20)) {
                Ok(chunk) => {
                    run_lines.push(&chunk);
                    while let Some(line) = run_lines.next_line() {
                        if parse_line(&line) == Some(ToolMsg::Run) {
                            proc_op(
                                &mut tdp,
                                args.strict_control,
                                pid,
                                tdp_proto::ProcRequest::Continue,
                            )?;
                            break 'wait_run;
                        }
                    }
                }
                Err(TdpError::Timeout) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    // Monitoring loop: sample probes, relay control commands, watch for
    // termination. Termination is an event — the wait below is on the
    // application's own condvar and returns the moment it exits — while
    // sampling stays periodic: a timeout means "take a sample". The
    // checkpoint keeps the daemon itself stoppable and killable once
    // per interval.
    let mut control_lines = LineBuf::default();
    let mut last_sent: std::collections::HashMap<String, (u64, u64, u64)> = Default::default();
    loop {
        ctx.checkpoint();
        let exited = match tdp.wait_terminal(pid, SAMPLE_INTERVAL) {
            Err(TdpError::Timeout) => None,
            status => Some(status?),
        };
        // Forward any front-end steering commands.
        while let Some(Ok(chunk)) = control.try_recv() {
            control_lines.push(&chunk);
        }
        while let Some(line) = control_lines.next_line() {
            match parse_line(&line) {
                Some(ToolMsg::Pause) => proc_op(
                    &mut tdp,
                    args.strict_control,
                    pid,
                    tdp_proto::ProcRequest::Pause,
                )?,
                Some(ToolMsg::Run) => proc_op(
                    &mut tdp,
                    args.strict_control,
                    pid,
                    tdp_proto::ProcRequest::Continue,
                )?,
                Some(ToolMsg::Kill) => proc_op(
                    &mut tdp,
                    args.strict_control,
                    pid,
                    tdp_proto::ProcRequest::Kill(9),
                )?,
                _ => {}
            }
        }
        // Stream changed samples.
        let snap = tdp.read_probes(pid)?;
        for (sym, &count) in &snap.counts {
            let time = snap.time.get(sym).copied().unwrap_or(0);
            let self_time = snap.self_time.get(sym).copied().unwrap_or(0);
            if last_sent.get(sym) != Some(&(count, time, self_time)) {
                last_sent.insert(sym.clone(), (count, time, self_time));
                let msg = ToolMsg::Sample {
                    daemon: name.clone(),
                    pid,
                    symbol: sym.clone(),
                    count,
                    time,
                    self_time,
                    total_cpu: snap.total_cpu,
                };
                data.send(format!("{}\n", render_line(&msg)).as_bytes())?;
            }
        }
        if let Some(status) = exited {
            // Final flush: one last sample per instrumented symbol, the
            // summary trace file for off-line staging (§2), then DONE.
            let snap = tdp.read_probes(pid)?;
            let mut trace = String::new();
            for (sym, &count) in &snap.counts {
                let time = snap.time.get(sym).copied().unwrap_or(0);
                let self_time = snap.self_time.get(sym).copied().unwrap_or(0);
                trace.push_str(&format!(
                    "{sym} count={count} time={time} self={self_time}\n"
                ));
                let msg = ToolMsg::Sample {
                    daemon: name.clone(),
                    pid,
                    symbol: sym.clone(),
                    count,
                    time,
                    self_time,
                    total_cpu: snap.total_cpu,
                };
                data.send(format!("{}\n", render_line(&msg)).as_bytes())?;
            }
            world
                .os()
                .fs()
                .write_file(host, &format!("{name}.trace"), trace.as_bytes());
            tdp.publish_status(status)?;
            data.send(
                format!(
                    "{}\n",
                    render_line(&ToolMsg::Done {
                        daemon: name.clone(),
                        pid,
                        status
                    })
                )
                .as_bytes(),
            )?;
            tdp.exit()?;
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_figure_5b_argv() {
        // "-zunix -l3 -mpinguino.cs.wisc.edu -p2090 -P2091 -a%pid" with
        // the hostname in our simulated form.
        let a = parse_args(&sv(&["-zunix", "-l3", "-m0", "-p2090", "-P2091", "-a%pid"]));
        assert_eq!(
            a.mode,
            DaemonMode::Tdp,
            "%pid unsubstituted means TDP framework mode"
        );
        assert_eq!(a.fe_host, Some(0));
        assert_eq!(a.fe_control, Some(2090));
        assert_eq!(a.fe_data, Some(2091));
        assert_eq!(a.log_level, 3);
    }

    #[test]
    fn parses_attach_mode() {
        let a = parse_args(&sv(&["-a412"]));
        assert_eq!(a.mode, DaemonMode::Attach(Pid(412)));
    }

    #[test]
    fn parses_create_mode_with_app_args() {
        let a = parse_args(&sv(&["-r/bin/app", "x", "y"]));
        assert_eq!(
            a.mode,
            DaemonMode::Create {
                exe: "/bin/app".into(),
                app_args: sv(&["x", "y"])
            }
        );
    }

    #[test]
    fn parses_context_and_autorun() {
        let a = parse_args(&sv(&["-c7", "-A"]));
        assert_eq!(a.ctx, ContextId(7));
        assert!(a.auto_run);
    }

    #[test]
    fn no_args_means_tdp_mode() {
        assert_eq!(parse_args(&[]).mode, DaemonMode::Tdp);
    }
}
