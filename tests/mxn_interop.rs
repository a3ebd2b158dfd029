//! **E10 — §1's m × n claim**: "each run-time tool must be individually
//! ported to run under a particular job management system; for m tools
//! and n environments, the problem becomes an m × n effort, rather than
//! the hoped-for m + n effort."
//!
//! The demonstration: two *different* tools and two *different* resource
//! managers, all speaking only TDP. Every (tool, RM) pair works with
//! **zero pairwise code** — the tool images are byte-identical across
//! RMs, and neither RM names any tool.

use std::sync::Arc;
use std::time::Duration;
use tdp::condor::{CondorPool, JobState};
use tdp::core::{Role, TdpCreate, TdpHandle, World};
use tdp::paradyn::{paradynd_image, ParadynFrontend};
use tdp::proto::{names, ContextId, HostId, Pid, ProcStatus};
use tdp::simos::{fn_program, ExecImage};

const T: Duration = Duration::from_secs(30);

fn app_image() -> ExecImage {
    ExecImage::new(
        ["main", "work"],
        Arc::new(|_| {
            fn_program(|ctx| {
                ctx.call("main", |ctx| {
                    for _ in 0..8 {
                        ctx.call("work", |ctx| ctx.compute(10));
                    }
                });
                0
            })
        }),
    )
}

/// Tool #2: "tracey", a minimal coverage tool — counts calls of every
/// symbol and writes a coverage report file. Implemented purely against
/// the TDP API: it knows nothing about any scheduler.
fn tracey_image(world: World) -> ExecImage {
    ExecImage::from_fn(move |args| {
        let world = world.clone();
        let ctx_id = args
            .iter()
            .find_map(|a| a.strip_prefix("-c").and_then(|v| v.parse().ok()))
            .map(ContextId)
            .unwrap_or(ContextId::DEFAULT);
        fn_program(move |pctx| {
            let name = format!("tracey{}", pctx.pid());
            let mut tdp = TdpHandle::init(&world, pctx.host(), ctx_id, &name, Role::Tool)
                .expect("tracey init");
            let pid = Pid::parse(&tdp.get(names::PID).expect("pid")).expect("pid parse");
            tdp.attach(pid).expect("attach");
            for sym in tdp.symbols(pid).expect("symbols") {
                tdp.arm_probe(pid, &sym).expect("arm");
            }
            tdp.put(names::TOOL_READY, "1").expect("ready");
            tdp.continue_process(pid).expect("continue");
            tdp.wait_terminal(pid, T).expect("app done");
            let snap = tdp.read_probes(pid).expect("probes");
            let mut lines: Vec<String> = snap
                .counts
                .iter()
                .map(|(s, c)| format!("{s} {c}"))
                .collect();
            lines.sort();
            world.os().fs().write_file(
                pctx.host(),
                &format!("{name}.coverage"),
                lines.join("\n").as_bytes(),
            );
            tdp.exit().expect("exit");
            0
        })
    })
}

/// RM #2: "minirm", a bare-bones local resource manager — no queue, no
/// matchmaking, just the TDP create-paused / launch-tool / put-pid
/// protocol. It names no tool: the tool executable is its *input*.
fn minirm_run_with_tool(
    world: &World,
    host: HostId,
    ctx: ContextId,
    tool_exe: &str,
    tool_args: Vec<String>,
) -> (Pid, Pid) {
    let mut rm = TdpHandle::init(world, host, ctx, "minirm", Role::ResourceManager).unwrap();
    let app = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    let tool = rm
        .create_process(TdpCreate::new(tool_exe.to_string()).args(tool_args))
        .unwrap();
    rm.put(names::PID, &app.to_string()).unwrap();
    // minirm waits for the tool's ready handshake, then leaves the tool
    // in control (it continues the app itself).
    rm.get(names::TOOL_READY).unwrap();
    (app, tool)
}

#[test]
fn matrix_minirm_runs_tracey() {
    let world = World::new();
    let host = world.add_host();
    world.os().fs().install_exec(host, "/bin/app", app_image());
    world
        .os()
        .fs()
        .install_exec(host, "tracey", tracey_image(world.clone()));
    let ctx = ContextId(7);
    let (app, tool) = minirm_run_with_tool(&world, host, ctx, "tracey", vec!["-c7".into()]);
    assert_eq!(
        world.os().wait_terminal(app, T).unwrap(),
        ProcStatus::Exited(0)
    );
    assert_eq!(
        world.os().wait_terminal(tool, T).unwrap(),
        ProcStatus::Exited(0)
    );
    let cov: Vec<String> = world
        .os()
        .fs()
        .list(host, "tracey")
        .into_iter()
        .filter(|f| f.ends_with(".coverage"))
        .collect();
    assert_eq!(cov.len(), 1);
    let report = String::from_utf8(world.os().fs().read_file(host, &cov[0]).unwrap()).unwrap();
    assert!(report.contains("work 8"), "{report}");
}

#[test]
fn matrix_minirm_runs_paradynd() {
    let world = World::new();
    let host = world.add_host();
    let fe_host = world.add_host();
    world.os().fs().install_exec(host, "/bin/app", app_image());
    world
        .os()
        .fs()
        .install_exec(host, "paradynd", paradynd_image(world.clone()));
    let fe = ParadynFrontend::start(world.net(), fe_host, 2090, 2091).unwrap();
    let ctx = ContextId(9);
    let args = vec![
        format!("-m{}", fe_host.0),
        format!("-p{}", fe.control_addr().port.0),
        format!("-P{}", fe.data_addr().port.0),
        "-a%pid".to_string(),
        "-c9".to_string(),
    ];
    let (app, tool) = minirm_run_with_tool(&world, host, ctx, "paradynd", args);
    fe.wait_for_daemons(1, T).unwrap();
    fe.run_all().unwrap();
    assert_eq!(
        world.os().wait_terminal(app, T).unwrap(),
        ProcStatus::Exited(0)
    );
    assert_eq!(
        world.os().wait_terminal(tool, T).unwrap(),
        ProcStatus::Exited(0)
    );
    // The daemon's DONE line follows its last samples on the same data
    // connection, so once the front-end has taken it, it holds them too.
    fe.wait_done(1, T).unwrap();
    assert!(fe
        .samples()
        .iter()
        .any(|s| s.symbol == "work" && s.count == 8));
}

#[test]
fn matrix_condor_runs_paradynd() {
    let world = World::new();
    let pool = CondorPool::build(&world, 1).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    for h in pool.exec_hosts() {
        world
            .os()
            .fs()
            .install_exec(*h, "paradynd", paradynd_image(world.clone()));
    }
    let fe = ParadynFrontend::start(world.net(), pool.submit_host(), 2090, 2091).unwrap();
    let submit = format!(
        "executable = /bin/app\n+SuspendJobAtExec = True\n+ToolDaemonCmd = \"paradynd\"\n+ToolDaemonArgs = \"-m{} -p{} -P{} -a%pid\"\nqueue\n",
        fe.host().0, fe.control_addr().port.0, fe.data_addr().port.0
    );
    let job = pool.submit_str(&submit).unwrap();
    fe.wait_for_daemons(1, T).unwrap();
    fe.run_all().unwrap();
    assert!(matches!(
        pool.wait_job(job, T).unwrap(),
        JobState::Completed(_)
    ));
}

#[test]
fn matrix_condor_runs_tracey() {
    // The exact same Condor pool code and the exact same tracey image:
    // only the submit file's ToolDaemonCmd changes. tracey auto-runs
    // the app (it has no front-end issuing run commands).
    let world = World::new();
    let pool = CondorPool::build(&world, 1).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    for h in pool.exec_hosts() {
        world
            .os()
            .fs()
            .install_exec(*h, "tracey", tracey_image(world.clone()));
    }
    let job = pool
        .submit_str(
            "executable = /bin/app\n+SuspendJobAtExec = True\n+ToolDaemonCmd = \"tracey\"\nqueue\n",
        )
        .unwrap();
    match pool.wait_job(job, T).unwrap() {
        JobState::Completed(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
        other => panic!("{other:?}"),
    }
    // The coverage report exists on the execution host.
    let cov: Vec<String> = world
        .os()
        .fs()
        .list(pool.exec_hosts()[0], "tracey")
        .into_iter()
        .filter(|f| f.ends_with(".coverage"))
        .collect();
    assert_eq!(cov.len(), 1, "{cov:?}");
}

#[test]
fn full_matrix_two_schedulers_two_tool_images() {
    // The m + n payoff, mechanically: iterate over {condor, lsf} ×
    // {tracey, vamp}. The tool images come from one constructor each;
    // the scheduler code paths never branch on which tool runs.
    use tdp::lsf::{LsfCluster, LsfJobState, LsfRequest};
    use tdp::tools::{tracey_image, vamp_image};

    type ToolCtor = fn(World) -> tdp::simos::ExecImage;
    let tools: Vec<(&str, ToolCtor, &str)> = vec![
        ("tracey", tracey_image as ToolCtor, ".coverage"),
        ("vamp", vamp_image as ToolCtor, ".vamp"),
    ];

    for (tool_name, ctor, artifact_suffix) in &tools {
        // --- Scheduler 1: Condor ---
        {
            let world = World::new();
            let pool = CondorPool::build(&world, 1).unwrap();
            pool.install_everywhere("/bin/app", app_image());
            for h in pool.exec_hosts() {
                world
                    .os()
                    .fs()
                    .install_exec(*h, tool_name, ctor(world.clone()));
            }
            let submit = format!(
                "executable = /bin/app\n+SuspendJobAtExec = True\n+ToolDaemonCmd = \"{tool_name}\"\n+ToolDaemonArgs = \"-i2\"\nqueue\n"
            );
            let job = pool.submit_str(&submit).unwrap();
            match pool.wait_job(job, T).unwrap() {
                JobState::Completed(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
                other => panic!("condor × {tool_name}: {other:?}"),
            }
            let artifacts: Vec<String> = world
                .os()
                .fs()
                .list(pool.exec_hosts()[0], tool_name)
                .into_iter()
                .filter(|f| f.ends_with(artifact_suffix))
                .collect();
            assert_eq!(artifacts.len(), 1, "condor × {tool_name}: {artifacts:?}");
        }
        // --- Scheduler 2: LSF ---
        {
            let world = World::new();
            let master = world.add_host();
            let exec = world.add_host();
            world.os().fs().install_exec(exec, "/bin/app", app_image());
            world
                .os()
                .fs()
                .install_exec(exec, tool_name, ctor(world.clone()));
            let cluster = LsfCluster::start(&world, master).unwrap();
            let _sbd = cluster.add_host(exec, 1).unwrap();
            let job = cluster
                .bsub(
                    LsfRequest::new("/bin/app")
                        .suspended()
                        .tool(*tool_name, vec!["-i2".into()]),
                )
                .unwrap();
            match cluster.wait_job(job, T).unwrap() {
                LsfJobState::Done(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
                other => panic!("lsf × {tool_name}: {other:?}"),
            }
            // LSF stages tool artifacts back to the master inline.
            let artifacts: Vec<String> = world
                .os()
                .fs()
                .list(master, tool_name)
                .into_iter()
                .filter(|f| f.ends_with(artifact_suffix))
                .collect();
            assert_eq!(artifacts.len(), 1, "lsf × {tool_name}: {artifacts:?}");
        }
    }
}

#[test]
fn legacy_point_solution_tool_conflicts_with_the_rm() {
    // The problem statement of §2, demonstrated: a pre-TDP tool that
    // insists on creating the application itself ("while most
    // sophisticated run-time tools have the ability to attach … this
    // does not handle the case where the tool wants to attach before it
    // starts execution") conflicts with an RM that also creates the
    // process. The result: *two* application processes — the RM's copy
    // runs unmonitored, the tool monitors its private copy, and the
    // RM's accounting is silently wrong. TDP's division of labour
    // (create-paused by the RM, attach by the tool) is exactly the fix.
    use tdp::core::{Role, TdpCreate, TdpHandle};
    use tdp::proto::ContextId;

    let world = World::new();
    let host = world.add_host();
    world.os().fs().install_exec(host, "/bin/app", app_image());

    // The legacy tool: forks the application itself, pre-TDP style.
    world.os().fs().install_exec(
        host,
        "legacy_tool",
        tdp::simos::ExecImage::from_fn({
            let world = world.clone();
            move |_| {
                let world = world.clone();
                tdp::simos::fn_program(move |pctx| {
                    let mut tdp =
                        TdpHandle::init(&world, pctx.host(), ContextId(42), "legacy", Role::Tool)
                            .unwrap();
                    // Creates ITS OWN application process instead of
                    // attaching to the RM's.
                    let own = tdp
                        .create_process(TdpCreate::new("/bin/app").paused())
                        .unwrap();
                    tdp.attach(own).unwrap();
                    tdp.arm_probe(own, "work").unwrap();
                    tdp.continue_process(own).unwrap();
                    tdp.wait_terminal(own, T).unwrap();
                    0
                })
            }
        }),
    );

    // The RM also creates the application (it has to: that's its job).
    let mut rm = TdpHandle::init(&world, host, ContextId(42), "rm", Role::ResourceManager).unwrap();
    let rm_app = rm.create_process(TdpCreate::new("/bin/app")).unwrap();
    let tool = rm.create_process(TdpCreate::new("legacy_tool")).unwrap();
    assert_eq!(
        world.os().wait_terminal(rm_app, T).unwrap(),
        ProcStatus::Exited(0)
    );
    assert_eq!(
        world.os().wait_terminal(tool, T).unwrap(),
        ProcStatus::Exited(0)
    );

    // The conflict, observed: two copies of the application ran, and
    // the one the RM submitted was never attached by any tool — it ran
    // unmonitored while the tool profiled its private copy.
    let trace = world.trace();
    let creates = trace
        .events()
        .iter()
        .filter(|e| e.call.contains("tdp_create_process(/bin/app"))
        .count();
    assert_eq!(
        creates, 2,
        "the application was created twice — the §2 conflict"
    );
    assert!(
        trace
            .seq_of(None, &format!("tdp_attach({rm_app})"))
            .is_none(),
        "nobody ever attached to the RM's application — it ran unmonitored:\n{}",
        trace.render()
    );
    let attaches = trace
        .events()
        .iter()
        .filter(|e| e.call.starts_with("tdp_attach"))
        .count();
    assert_eq!(
        attaches, 1,
        "the tool attached only to its own private copy"
    );
}
