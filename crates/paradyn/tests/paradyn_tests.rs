//! End-to-end tests of the Paradyn-like tool: create mode, attach mode,
//! TDP framework mode, steering, config files and the Consultant.

use std::sync::Arc;
use std::time::Duration;
use tdp_core::{Role, TdpCreate, TdpHandle, World};
use tdp_paradyn::{paradynd_image, Hypothesis, ParadynFrontend, PerformanceConsultant};
use tdp_proto::{names, ContextId, HostId, ProcStatus};
use tdp_simos::{fn_program, ExecImage, Sink};

const T: Duration = Duration::from_secs(10);
const CTX: ContextId = ContextId::DEFAULT;

/// A CPU-skewed application: `hot_loop` burns 90% of the cycles.
fn app_image() -> ExecImage {
    ExecImage::new(
        ["main", "hot_loop", "io_wait"],
        Arc::new(|_| {
            fn_program(|ctx| {
                ctx.call("main", |ctx| {
                    for _ in 0..20 {
                        ctx.call("hot_loop", |ctx| ctx.compute(90));
                        ctx.call("io_wait", |ctx| ctx.compute(10));
                    }
                });
                0
            })
        }),
    )
}

struct Setup {
    world: World,
    exec_host: HostId,
    fe: ParadynFrontend,
}

/// World with a front-end host and one execution host; paradynd and the
/// app installed on the execution host.
fn setup() -> Setup {
    let world = World::new();
    let fe_host = world.add_host();
    let exec_host = world.add_host();
    world
        .os()
        .fs()
        .install_exec(exec_host, "paradynd", paradynd_image(world.clone()));
    world
        .os()
        .fs()
        .install_exec(exec_host, "/bin/app", app_image());
    let fe = ParadynFrontend::start(world.net(), fe_host, 2090, 2091).unwrap();
    Setup {
        world,
        exec_host,
        fe,
    }
}

/// argv addressing the front-end the Figure-5B way.
fn fe_args(fe: &ParadynFrontend, extra: &[&str]) -> Vec<String> {
    let mut v = vec![
        "-zunix".to_string(),
        "-l3".to_string(),
        format!("-m{}", fe.host().0),
        format!("-p{}", fe.control_addr().port.0),
        format!("-P{}", fe.data_addr().port.0),
    ];
    v.extend(extra.iter().map(|s| s.to_string()));
    v
}

#[test]
fn create_mode_end_to_end() {
    // Standalone Paradyn: paradynd launches the app itself, FE steers.
    let s = setup();
    let mut launcher = TdpHandle::init(
        &s.world,
        s.exec_host,
        CTX,
        "launcher",
        Role::ResourceManager,
    )
    .unwrap();
    let args = fe_args(&s.fe, &["-r/bin/app"]);
    let dpid = launcher
        .create_process(TdpCreate::new("paradynd").args(args).stderr(Sink::Capture))
        .unwrap();

    let daemons = s.fe.wait_for_daemons(1, T).unwrap();
    assert_eq!(daemons.len(), 1);
    assert_eq!(daemons[0].symbols, vec!["main", "hot_loop", "io_wait"]);
    // App is paused until the user hits run.
    let app_pid = daemons[0].pid;
    assert_eq!(s.world.os().status(app_pid).unwrap(), ProcStatus::Created);
    s.fe.run_all().unwrap();
    let done = s.fe.wait_done(1, T).unwrap();
    assert_eq!(done.values().next().unwrap(), &ProcStatus::Exited(0));
    // Daemon exits cleanly too.
    assert_eq!(
        s.world.os().wait_terminal(dpid, T).unwrap(),
        ProcStatus::Exited(0)
    );

    // Metrics arrived and identify the bottleneck.
    let samples = s.fe.samples();
    assert!(samples
        .iter()
        .any(|x| x.symbol == "hot_loop" && x.count == 20));
    let b = PerformanceConsultant::default().search(&samples).unwrap();
    assert_eq!(b.symbol, "hot_loop");
    assert_eq!(b.hypothesis, Hypothesis::CpuBound);
}

#[test]
fn attach_mode_on_running_process() {
    let s = setup();
    let mut rm = TdpHandle::init(&s.world, s.exec_host, CTX, "rm", Role::ResourceManager).unwrap();
    // A long-running app, already started.
    s.world.os().fs().install_exec(
        s.exec_host,
        "/bin/server",
        ExecImage::new(
            ["main", "serve"],
            Arc::new(|_| {
                fn_program(|ctx| {
                    ctx.call("main", |ctx| {
                        for _ in 0..2000 {
                            ctx.call("serve", |ctx| {
                                ctx.compute(1);
                                ctx.sleep(Duration::from_millis(1));
                            });
                        }
                    });
                    0
                })
            }),
        ),
    );
    let app_pid = rm.create_process(TdpCreate::new("/bin/server")).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    // Launch paradynd in attach mode (-a<pid>).
    let args = fe_args(&s.fe, &[&format!("-a{app_pid}")]);
    rm.create_process(TdpCreate::new("paradynd").args(args))
        .unwrap();
    let daemons = s.fe.wait_for_daemons(1, T).unwrap();
    assert_eq!(daemons[0].pid, app_pid);
    s.fe.run_all().unwrap();
    // Wait for some samples to flow.
    let deadline = std::time::Instant::now() + T;
    loop {
        let samples = s.fe.samples();
        if samples.iter().any(|x| x.symbol == "serve" && x.count > 0) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no serve samples arrived"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Cleanup: kill the app through the tool.
    s.fe.kill_all().unwrap();
    let done = s.fe.wait_done(1, T).unwrap();
    assert_eq!(done.values().next().unwrap(), &ProcStatus::Killed(9));
}

#[test]
fn tdp_mode_gets_pid_from_attribute_space() {
    // The Figure 6 flow with a hand-rolled starter: create app paused,
    // create paradynd with -a%pid, put pid, watch it attach + continue.
    let s = setup();
    let mut starter =
        TdpHandle::init(&s.world, s.exec_host, CTX, "starter", Role::ResourceManager).unwrap();
    let app_pid = starter
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    let args = fe_args(&s.fe, &["-a%pid"]);
    starter
        .create_process(TdpCreate::new("paradynd").args(args))
        .unwrap();
    // paradynd is now blocked in tdp_get("pid").
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        s.fe.daemons().len(),
        0,
        "daemon cannot be ready before the pid is put"
    );
    starter.put(names::PID, &app_pid.to_string()).unwrap();
    let daemons = s.fe.wait_for_daemons(1, T).unwrap();
    assert_eq!(daemons[0].pid, app_pid);
    // TOOL_READY handshake happened.
    assert_eq!(starter.get(names::TOOL_READY).unwrap(), "1");
    s.fe.run_all().unwrap();
    let done = s.fe.wait_done(1, T).unwrap();
    assert_eq!(done.values().next().unwrap(), &ProcStatus::Exited(0));

    // The trace reproduces the Figure 6 ordering.
    let trace = s.world.trace();
    trace.assert_order(
        (Some("starter"), "tdp_init"),
        (Some("starter"), "tdp_create_process(/bin/app, paused)"),
    );
    trace.assert_order(
        (Some("starter"), "tdp_create_process(/bin/app, paused)"),
        (Some("starter"), "tdp_put(pid)"),
    );
    trace.assert_order((None, "tdp_get(pid)"), (None, "tdp_attach"));
    trace.assert_order((None, "tdp_attach"), (None, "tdp_continue_process"));
}

#[test]
fn pause_and_resume_via_frontend() {
    let s = setup();
    let mut launcher = TdpHandle::init(
        &s.world,
        s.exec_host,
        CTX,
        "launcher",
        Role::ResourceManager,
    )
    .unwrap();
    s.world.os().fs().install_exec(
        s.exec_host,
        "/bin/slow",
        ExecImage::new(
            ["main", "tick"],
            Arc::new(|_| {
                fn_program(|ctx| {
                    ctx.call("main", |ctx| {
                        for _ in 0..300 {
                            ctx.call("tick", |ctx| ctx.sleep(Duration::from_millis(2)));
                        }
                    });
                    0
                })
            }),
        ),
    );
    let args = fe_args(&s.fe, &["-r/bin/slow"]);
    launcher
        .create_process(TdpCreate::new("paradynd").args(args))
        .unwrap();
    let daemons = s.fe.wait_for_daemons(1, T).unwrap();
    let app_pid = daemons[0].pid;
    s.fe.run_all().unwrap();
    std::thread::sleep(Duration::from_millis(40));
    s.fe.pause_all().unwrap();
    // Wait for the pause to land (daemon polls its control channel).
    let deadline = std::time::Instant::now() + T;
    while s.world.os().status(app_pid).unwrap() != ProcStatus::Stopped {
        assert!(std::time::Instant::now() < deadline, "pause never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    s.fe.run_all().unwrap();
    let done = s.fe.wait_done(1, T).unwrap();
    assert_eq!(done.values().next().unwrap(), &ProcStatus::Exited(0));
}

#[test]
fn config_file_restricts_instrumentation() {
    let s = setup();
    // Stage a config that only instruments io_wait.
    s.world
        .os()
        .fs()
        .write_file(s.exec_host, "paradyn.conf", b"# probes\nio_wait\n");
    let mut launcher = TdpHandle::init(
        &s.world,
        s.exec_host,
        CTX,
        "launcher",
        Role::ResourceManager,
    )
    .unwrap();
    let args = fe_args(&s.fe, &["-r/bin/app"]);
    launcher
        .create_process(TdpCreate::new("paradynd").args(args))
        .unwrap();
    s.fe.wait_for_daemons(1, T).unwrap();
    s.fe.run_all().unwrap();
    s.fe.wait_done(1, T).unwrap();
    let samples = s.fe.samples();
    assert!(samples.iter().any(|x| x.symbol == "io_wait"));
    assert!(
        !samples.iter().any(|x| x.symbol == "hot_loop"),
        "hot_loop must not be instrumented: {samples:?}"
    );
}

#[test]
fn daemon_writes_trace_file_for_staging() {
    let s = setup();
    let mut launcher = TdpHandle::init(
        &s.world,
        s.exec_host,
        CTX,
        "launcher",
        Role::ResourceManager,
    )
    .unwrap();
    let args = fe_args(&s.fe, &["-r/bin/app"]);
    let dpid = launcher
        .create_process(TdpCreate::new("paradynd").args(args))
        .unwrap();
    s.fe.wait_for_daemons(1, T).unwrap();
    s.fe.run_all().unwrap();
    s.fe.wait_done(1, T).unwrap();
    s.world.os().wait_terminal(dpid, T).unwrap();
    let trace_path = format!("paradynd{dpid}.trace");
    let data = s
        .world
        .os()
        .fs()
        .read_file(s.exec_host, &trace_path)
        .unwrap();
    let text = String::from_utf8(data).unwrap();
    assert!(
        text.contains("hot_loop count=20"),
        "trace file content: {text}"
    );
    // And it can be staged back to the submit host (§2).
    launcher
        .stage_file(s.exec_host, &trace_path, s.fe.host(), "results/trace")
        .unwrap();
    assert!(s.world.os().fs().exists(s.fe.host(), "results/trace"));
}

#[test]
fn two_daemons_two_apps_isolated_contexts() {
    let s = setup();
    let mut rm1 = TdpHandle::init(
        &s.world,
        s.exec_host,
        ContextId(1),
        "rm1",
        Role::ResourceManager,
    )
    .unwrap();
    let mut rm2 = TdpHandle::init(
        &s.world,
        s.exec_host,
        ContextId(2),
        "rm2",
        Role::ResourceManager,
    )
    .unwrap();
    let app1 = rm1
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    let app2 = rm2
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    rm1.create_process(TdpCreate::new("paradynd").args(fe_args(&s.fe, &["-c1", "-a%pid"])))
        .unwrap();
    rm2.create_process(TdpCreate::new("paradynd").args(fe_args(&s.fe, &["-c2", "-a%pid"])))
        .unwrap();
    rm1.put(names::PID, &app1.to_string()).unwrap();
    rm2.put(names::PID, &app2.to_string()).unwrap();
    let daemons = s.fe.wait_for_daemons(2, T).unwrap();
    let pids: Vec<_> = daemons.iter().map(|d| d.pid).collect();
    assert!(pids.contains(&app1) && pids.contains(&app2));
    s.fe.run_all().unwrap();
    let done = s.fe.wait_done(2, T).unwrap();
    assert!(done.values().all(|st| *st == ProcStatus::Exited(0)));
}

// ---- Termination is an event, sampling is periodic --------------------

/// paradynd's sampling period (`daemon.rs::SAMPLE_INTERVAL`).
const SAMPLE_INTERVAL: Duration = Duration::from_millis(5);

/// An application that calls `warm` once and then runs until the test
/// closes its stdin.
fn gated_app() -> ExecImage {
    ExecImage::new(
        ["main", "warm"],
        Arc::new(|_| {
            fn_program(|ctx| {
                ctx.call("main", |ctx| {
                    ctx.call("warm", |ctx| ctx.compute(1));
                    while let Ok(Some(_)) = ctx.read_stdin() {}
                });
                0
            })
        }),
    )
}

/// An application that calls `tick` once a millisecond, `n` times.
fn ticking_app(n: u32) -> ExecImage {
    ExecImage::new(
        ["main", "tick"],
        Arc::new(move |_| {
            fn_program(move |ctx| {
                ctx.call("main", |ctx| {
                    for _ in 0..n {
                        ctx.call("tick", |ctx| ctx.sleep(Duration::from_millis(1)));
                    }
                });
                0
            })
        }),
    )
}

fn tick_count(fe: &ParadynFrontend) -> u64 {
    fe.samples()
        .iter()
        .find(|x| x.symbol == "tick")
        .map_or(0, |x| x.count)
}

#[test]
fn application_exit_reaches_the_frontend_without_waiting_for_a_sample_tick() {
    // The daemon used to learn of the exit at its next 5 ms wake-up, so
    // exit → DONE was spread over the whole interval. Now it is woken
    // by the exit itself.
    const ROUNDS: usize = 40;
    let s = setup();
    s.world
        .os()
        .fs()
        .install_exec(s.exec_host, "/bin/gated", gated_app());
    let mut rm = TdpHandle::init(&s.world, s.exec_host, CTX, "rm", Role::ResourceManager).unwrap();
    let mut lag: Vec<Duration> = (1..=ROUNDS)
        .map(|round| {
            let app = rm
                .create_process(TdpCreate::new("/bin/gated").paused())
                .unwrap();
            let args = fe_args(&s.fe, &[&format!("-a{app}"), "-A"]);
            rm.create_process(TdpCreate::new("paradynd").args(args))
                .unwrap();
            // Its `warm` sample at the front-end: the daemon is in its
            // monitoring loop, between samples.
            let deadline = std::time::Instant::now() + T;
            while !s.fe.samples().iter().any(|x| x.pid == app) {
                assert!(std::time::Instant::now() < deadline, "no sample");
                std::thread::sleep(Duration::from_millis(1));
            }
            let t0 = std::time::Instant::now();
            s.world.os().close_stdin(app).unwrap();
            let done = s.fe.wait_done(round, T).unwrap();
            let lag = t0.elapsed();
            assert!(done.values().all(|st| *st == ProcStatus::Exited(0)));
            lag
        })
        .collect();
    lag.sort();
    eprintln!(
        "exit → DONE: p50 {:?}, max {:?}",
        lag[ROUNDS / 2],
        lag[ROUNDS - 1]
    );
    assert!(
        lag[ROUNDS / 2] < SAMPLE_INTERVAL / 3,
        "median exit → DONE {:?}",
        lag[ROUNDS / 2]
    );
}

#[test]
fn long_running_application_is_still_sampled_periodically() {
    let s = setup();
    s.world
        .os()
        .fs()
        .install_exec(s.exec_host, "/bin/ticker", ticking_app(150));
    let mut rm = TdpHandle::init(&s.world, s.exec_host, CTX, "rm", Role::ResourceManager).unwrap();
    let args = fe_args(&s.fe, &["-r/bin/ticker"]);
    rm.create_process(TdpCreate::new("paradynd").args(args))
        .unwrap();
    s.fe.wait_for_daemons(1, T).unwrap();
    s.fe.run_all().unwrap();
    // Distinct intermediate counts seen while the application runs: a
    // time series, not one final flush.
    let mut seen = std::collections::BTreeSet::new();
    while s.fe.wait_done(1, Duration::from_millis(2)).is_err() {
        seen.insert(tick_count(&s.fe));
    }
    seen.remove(&0);
    seen.remove(&150);
    assert!(seen.len() >= 5, "intermediate tick counts: {seen:?}");
    assert_eq!(tick_count(&s.fe), 150);
}

#[test]
fn daemon_itself_stays_pausable_and_killable_while_it_waits() {
    // The daemon now blocks on the *application's* condvar between
    // samples, so a stop or kill aimed at the daemon lands at its next
    // checkpoint — one sampling interval away at most, not at the
    // application's exit (minutes away here).
    let s = setup();
    s.world
        .os()
        .fs()
        .install_exec(s.exec_host, "/bin/ticker", ticking_app(120_000));
    let mut rm = TdpHandle::init(&s.world, s.exec_host, CTX, "rm", Role::ResourceManager).unwrap();
    let args = fe_args(&s.fe, &["-r/bin/ticker"]);
    let daemon = rm
        .create_process(TdpCreate::new("paradynd").args(args))
        .unwrap();
    let app = s.fe.wait_for_daemons(1, T).unwrap()[0].pid;
    s.fe.run_all().unwrap();
    let advances_past = |count: u64| {
        let deadline = std::time::Instant::now() + T;
        while tick_count(&s.fe) <= count {
            assert!(std::time::Instant::now() < deadline, "samples stopped");
            std::thread::sleep(SAMPLE_INTERVAL);
        }
    };
    advances_past(0);

    // Paused: after the interval it may take to reach the checkpoint,
    // no sample leaves the daemon although the application ticks on.
    s.world.os().stop_process(daemon).unwrap();
    std::thread::sleep(10 * SAMPLE_INTERVAL);
    let frozen = tick_count(&s.fe);
    std::thread::sleep(10 * SAMPLE_INTERVAL);
    assert_eq!(tick_count(&s.fe), frozen, "a paused daemon kept sampling");
    assert_eq!(s.world.os().status(app).unwrap(), ProcStatus::Running);
    s.world.os().continue_process(daemon).unwrap();
    advances_past(frozen);

    // Killed: it dies of the signal while the application lives on.
    s.world.os().kill(daemon, 9).unwrap();
    assert_eq!(
        s.world.os().wait_terminal(daemon, T).unwrap(),
        ProcStatus::Killed(9)
    );
    assert_eq!(s.world.os().status(app).unwrap(), ProcStatus::Running);
    s.world.os().kill(app, 9).unwrap();
}
