//! Integration tests of the Condor substrate and the Parador
//! combination (§4.3): vanilla and MPI universes, with and without the
//! tool daemon, claiming, staging and supervised recovery.

use std::sync::Arc;
use std::time::Duration;
use tdp_condor::classad::ClassAd;
use tdp_condor::startd::{Startd, STARTD_PORT};
use tdp_condor::{CondorPool, JobState};
use tdp_core::{Supervisable, World};
use tdp_mpi::{apps, MpiComm};
use tdp_ops::{Supervisor, SupervisorConfig};
use tdp_paradyn::{paradynd_image, ParadynFrontend, PerformanceConsultant};
use tdp_proto::ProcStatus;
use tdp_simos::{fn_program, ExecImage};
use tdp_sync::Mutex;

const T: Duration = Duration::from_secs(30);

fn app_image() -> ExecImage {
    ExecImage::new(
        ["main", "hot_loop", "io_wait"],
        Arc::new(|args| {
            let reps: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(10);
            fn_program(move |ctx| {
                ctx.call("main", |ctx| {
                    let mut echoed = Vec::new();
                    if let Ok(Some(data)) = ctx.read_stdin() {
                        echoed = data;
                    }
                    for _ in 0..reps {
                        ctx.call("hot_loop", |ctx| ctx.compute(90));
                        ctx.call("io_wait", |ctx| ctx.compute(10));
                    }
                    ctx.write_stdout(b"processed: ");
                    ctx.write_stdout(&echoed);
                });
                0
            })
        }),
    )
}

#[test]
fn vanilla_job_without_tool() {
    let world = World::new();
    let pool = CondorPool::build(&world, 2).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    world
        .os()
        .fs()
        .write_file(pool.submit_host(), "infile", b"hello condor");
    let job = pool
        .submit_str(
            "universe = Vanilla\nexecutable = /bin/app\narguments = 3\ninput = infile\noutput = outfile\nqueue\n",
        )
        .unwrap();
    let state = pool.wait_job(job, T).unwrap();
    match state {
        JobState::Completed(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
        other => panic!("job not completed: {other:?}"),
    }
    // Output staged back to the submit machine by the shadow.
    let out = world
        .os()
        .fs()
        .read_file(pool.submit_host(), "outfile")
        .unwrap();
    assert_eq!(out, b"processed: hello condor");
}

#[test]
fn executable_staged_from_submit_host() {
    // transfer_files = always: the binary lives only on the submit
    // machine before the run.
    let world = World::new();
    let pool = CondorPool::build(&world, 1).unwrap();
    world
        .os()
        .fs()
        .install_exec(pool.submit_host(), "foo", app_image());
    assert!(!world.os().fs().exists(pool.exec_hosts()[0], "foo"));
    let job = pool
        .submit_str("executable = foo\narguments = 1\ntransfer_files = always\nqueue\n")
        .unwrap();
    assert!(matches!(
        pool.wait_job(job, T).unwrap(),
        JobState::Completed(_)
    ));
    assert!(world.os().fs().exists(pool.exec_hosts()[0], "foo"));
}

#[test]
fn impossible_requirements_fail_job() {
    let world = World::new();
    let pool = CondorPool::build(&world, 1).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    let job = pool
        .submit_str("executable = /bin/app\nrequirements = Memory >= 999999\nqueue\n")
        .unwrap();
    // Shorten the wait by using the schedd's negotiation timeout.
    match pool.wait_job(job, T).unwrap() {
        JobState::Failed(e) => assert!(e.contains("no match"), "{e}"),
        other => panic!("expected failure, got {other:?}"),
    }
}

#[test]
fn two_jobs_one_machine_run_sequentially() {
    let world = World::new();
    let pool = CondorPool::build(&world, 1).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    let j1 = pool
        .submit_str("executable = /bin/app\narguments = 5\nqueue\n")
        .unwrap();
    let j2 = pool
        .submit_str("executable = /bin/app\narguments = 5\nqueue\n")
        .unwrap();
    assert!(matches!(
        pool.wait_job(j1, T).unwrap(),
        JobState::Completed(_)
    ));
    assert!(matches!(
        pool.wait_job(j2, T).unwrap(),
        JobState::Completed(_)
    ));
}

#[test]
fn jobs_spread_over_machines_by_rank() {
    // rank = MachineId prefers the highest machine id.
    let world = World::new();
    let pool = CondorPool::build(&world, 3).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    let job = pool
        .submit_str("executable = /bin/app\nrank = MachineId\nqueue\n")
        .unwrap();
    assert!(matches!(
        pool.wait_job(job, T).unwrap(),
        JobState::Completed(_)
    ));
    // All machines available again afterwards.
    std::thread::sleep(Duration::from_millis(100));
    let machines = pool.matchmaker().machines();
    assert_eq!(machines.len(), 3);
    assert!(machines.iter().all(|(_, avail)| *avail));
}

/// Full Parador, vanilla universe: the Figure 5B submit file, the
/// Figure 6 call sequence, outputs and tool files staged back.
#[test]
fn parador_vanilla_universe() {
    let world = World::new();
    let pool = CondorPool::build(&world, 2).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    for h in pool.exec_hosts() {
        world
            .os()
            .fs()
            .install_exec(*h, "paradynd", paradynd_image(world.clone()));
    }
    world
        .os()
        .fs()
        .write_file(pool.submit_host(), "infile", b"tool run");
    // The Paradyn front-end is started first and its ports are written
    // into the submit file, exactly as in §4.3.
    let fe = ParadynFrontend::start(world.net(), pool.submit_host(), 2090, 2091).unwrap();
    let submit = format!(
        r#"
universe = Vanilla
executable = /bin/app
input = infile
output = outfile
arguments = 20
transfer_files = never
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-zunix -l3 -m{fe_host} -p{p} -P{pp} -a%pid"
+ToolDaemonOutput = "daemon.out"
+ToolDaemonError = "daemon.err"
queue
"#,
        fe_host = fe.host().0,
        p = fe.control_addr().port.0,
        pp = fe.data_addr().port.0,
    );
    let job = pool.submit_str(&submit).unwrap();

    // The daemon reports READY once the starter has put the pid.
    let daemons = fe.wait_for_daemons(1, T).unwrap();
    assert_eq!(daemons[0].symbols, vec!["main", "hot_loop", "io_wait"]);
    // The application is still suspended until the user hits run.
    assert_eq!(
        world.os().status(daemons[0].pid).unwrap(),
        ProcStatus::Created
    );
    fe.run_all().unwrap();

    match pool.wait_job(job, T).unwrap() {
        JobState::Completed(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
        other => panic!("{other:?}"),
    }

    // Profiling data reached the front-end; the Consultant finds the
    // hotspot.
    // paradynd sends `Done` after its last sample on the same data
    // connection, so once it is in, every sample is.
    fe.wait_done(1, T).unwrap();
    let b = PerformanceConsultant::default()
        .search(&fe.samples())
        .unwrap();
    assert_eq!(b.symbol, "hot_loop");

    // Figure 6 ordering, captured by the TDP trace.
    let tr = world.trace();
    tr.assert_order(
        (Some("starter"), "tdp_init"),
        (Some("starter"), "tdp_create_process(/bin/app, paused)"),
    );
    tr.assert_order(
        (Some("starter"), "tdp_create_process(/bin/app, paused)"),
        (Some("starter"), "tdp_create_process(paradynd, run)"),
    );
    tr.assert_order(
        (Some("starter"), "tdp_create_process(paradynd, run)"),
        (Some("starter"), "tdp_put(pid)"),
    );
    tr.assert_order((None, "tdp_get(pid)"), (None, "tdp_attach"));
    tr.assert_order((None, "tdp_attach"), (None, "tdp_continue_process"));

    // Staged artifacts on the submit machine: job output, daemon output
    // files and the daemon's trace file.
    assert_eq!(
        world
            .os()
            .fs()
            .read_file(pool.submit_host(), "outfile")
            .unwrap(),
        b"processed: tool run"
    );
    assert!(world.os().fs().exists(pool.submit_host(), "daemon.out"));
    assert!(world.os().fs().exists(pool.submit_host(), "daemon.err"));
    let traces = world.os().fs().list(pool.submit_host(), "paradynd");
    assert_eq!(traces.len(), 1, "daemon trace staged back: {traces:?}");
    let trace_data = world
        .os()
        .fs()
        .read_file(pool.submit_host(), &traces[0])
        .unwrap();
    assert!(String::from_utf8(trace_data)
        .unwrap()
        .contains("hot_loop count=20"));
}

/// Parador, MPI universe: rank 0 first, paradynd per rank, staged
/// startup (§4.3).
#[test]
fn parador_mpi_universe() {
    let world = World::new();
    let pool = CondorPool::build(&world, 3).unwrap();
    let comm = MpiComm::new(3);
    pool.install_everywhere("ring", apps::ring(comm, 2, 25));
    for h in pool.exec_hosts() {
        world
            .os()
            .fs()
            .install_exec(*h, "paradynd", paradynd_image(world.clone()));
    }
    let fe = ParadynFrontend::start(world.net(), pool.submit_host(), 2090, 2091).unwrap();
    let submit = format!(
        r#"
universe = MPI
executable = ring
machine_count = 3
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-m{fe_host} -p{p} -P{pp} -a%pid"
queue
"#,
        fe_host = fe.host().0,
        p = fe.control_addr().port.0,
        pp = fe.data_addr().port.0,
    );
    let job = pool.submit_str(&submit).unwrap();

    // Only the master process (rank 0) and its daemon exist initially.
    let daemons = fe.wait_for_daemons(1, T).unwrap();
    assert_eq!(daemons.len(), 1);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        fe.daemons().len(),
        1,
        "other ranks must wait for the run command"
    );

    // The user issues run: remaining ranks are created, each with its
    // own auto-running paradynd.
    fe.run_all().unwrap();
    let daemons = fe.wait_for_daemons(3, T).unwrap();
    assert_eq!(daemons.len(), 3);

    match pool.wait_job(job, T).unwrap() {
        JobState::Completed(done) => {
            assert_eq!(done.len(), 3);
            assert!(
                done.values().all(|st| *st == ProcStatus::Exited(0)),
                "{done:?}"
            );
        }
        other => panic!("{other:?}"),
    }
    // Each rank produced samples (wait for every daemon's final flush —
    // the shadow path can complete before the FE data path drains).
    fe.wait_done(3, T).unwrap();
    let samples = fe.samples();
    let daemons_with_compute: std::collections::HashSet<&str> = samples
        .iter()
        .filter(|s| s.symbol == "compute")
        .map(|s| s.daemon.as_str())
        .collect();
    assert_eq!(daemons_with_compute.len(), 3, "{samples:?}");
}

/// MPI universe without a tool: plain gang scheduling still works.
#[test]
fn mpi_universe_without_tool() {
    let world = World::new();
    let pool = CondorPool::build(&world, 2).unwrap();
    let comm = MpiComm::new(2);
    pool.install_everywhere("ring", apps::ring(comm, 1, 5));
    let job = pool
        .submit_str("universe = MPI\nexecutable = ring\nmachine_count = 2\nqueue\n")
        .unwrap();
    match pool.wait_job(job, T).unwrap() {
        JobState::Completed(done) => {
            assert_eq!(done.len(), 2);
            assert!(done.values().all(|st| *st == ProcStatus::Exited(0)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn mpi_job_needing_more_machines_than_pool_fails() {
    let world = World::new();
    let pool = CondorPool::build(&world, 1).unwrap();
    let comm = MpiComm::new(4);
    pool.install_everywhere("ring", apps::ring(comm, 1, 5));
    let job = pool
        .submit_str("universe = MPI\nexecutable = ring\nmachine_count = 4\nqueue\n")
        .unwrap();
    match pool.wait_job(job, T).unwrap() {
        JobState::Failed(e) => assert!(e.contains("1/4"), "{e}"),
        other => panic!("{other:?}"),
    }
}

/// E12: the `condor_master` role is `tdp_ops::Supervisor` over the
/// startd's own `Supervisable` probe.
#[test]
fn supervisor_restarts_crashed_startd() {
    let world = World::new();
    let cm = world.add_host();
    let exec = world.add_host();
    let mm = tdp_condor::Matchmaker::start(world.net(), cm).unwrap();
    let ad = ClassAd::new().with_int("Memory", 512);
    let startd = Arc::new(Startd::start(&world, exec, ad.clone(), mm.addr()).unwrap());
    let addr = startd.addr();
    assert_eq!(addr.port.0, STARTD_PORT);
    let name = startd.ops_name();

    let sup = Supervisor::start(&world, cm, SupervisorConfig::default()).unwrap();
    let w2 = world.clone();
    let mm_addr = mm.addr();
    let replacement = Arc::new(Mutex::new(None));
    let slot = replacement.clone();
    // The probe dials the well-known port, so the original handle
    // reports the replacement's health once it has rebound it.
    sup.register(startd.clone(), move || {
        *slot.lock() = Some(Startd::start(&w2, exec, ad.clone(), mm_addr)?);
        Ok(())
    });

    assert_eq!(sup.restarts_of(&name), Some(0));
    startd.simulate_crash();
    sup.wait_restarts(&name, 1, T)
        .expect("supervisor never restarted the startd");
    assert!(replacement.lock().is_some());
    // The replacement re-registered with the matchmaker.
    mm.wait_machines(T, |machines| {
        machines
            .iter()
            .any(|(name, _)| name.contains(&format!("host{}", exec.0)))
    })
    .expect("machine never re-registered");
    sup.shutdown();
}

#[test]
fn condor_q_lists_queue_states() {
    let world = World::new();
    let pool = CondorPool::build(&world, 1).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    let j1 = pool
        .submit_str("executable = /bin/app\narguments = 1\nqueue\n")
        .unwrap();
    let j2 = pool
        .submit_str("executable = /bin/app\nrequirements = Memory >= 999999\nqueue\n")
        .unwrap();
    pool.wait_job(j1, T).unwrap();
    pool.wait_job(j2, T).unwrap();
    let q = pool.schedd().condor_q();
    assert_eq!(q.len(), 2);
    assert_eq!(q[0].0, j1);
    assert!(matches!(q[0].1, JobState::Completed(_)));
    assert!(matches!(q[1].1, JobState::Failed(_)));
}
