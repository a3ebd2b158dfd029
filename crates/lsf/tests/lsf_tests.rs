//! Tests of the LSF-style scheduler, including every workspace tool
//! running under it — the other half of the m + n matrix.

use std::sync::Arc;
use std::time::Duration;
use tdp_core::World;
use tdp_lsf::messages::SbdMsg;
use tdp_lsf::{LsfCluster, LsfJobState, LsfRequest};
use tdp_paradyn::{paradynd_image, ParadynFrontend};
use tdp_proto::{json, HostId, ProcStatus};
use tdp_simos::{fn_program, ExecImage};
use tdp_tools::{tracey_image, vamp_image};

const T: Duration = Duration::from_secs(30);

fn app_image() -> ExecImage {
    ExecImage::new(
        ["main", "crunch"],
        Arc::new(|args| {
            let reps: u64 = args.last().and_then(|a| a.parse().ok()).unwrap_or(5);
            fn_program(move |ctx| {
                let mut stdin = Vec::new();
                while let Ok(Some(chunk)) = ctx.read_stdin() {
                    stdin.extend_from_slice(&chunk);
                }
                ctx.call("main", |ctx| {
                    for _ in 0..reps {
                        ctx.call("crunch", |ctx| ctx.compute(10));
                    }
                });
                ctx.write_stdout(b"crunched ");
                ctx.write_stdout(&stdin);
                0
            })
        }),
    )
}

struct Rig {
    world: World,
    master: HostId,
    exec: Vec<HostId>,
    cluster: LsfCluster,
    _sbds: Vec<tdp_lsf::sbatchd::Sbatchd>,
}

fn rig(n_hosts: usize, slots: u32) -> Rig {
    let world = World::new();
    let master = world.add_host();
    let exec: Vec<HostId> = (0..n_hosts).map(|_| world.add_host()).collect();
    let cluster = LsfCluster::start(&world, master).unwrap();
    let mut sbds = Vec::new();
    for h in &exec {
        world.os().fs().install_exec(*h, "/bin/app", app_image());
        sbds.push(cluster.add_host(*h, slots).unwrap());
    }
    // Wait for registrations.
    let deadline = std::time::Instant::now() + T;
    while cluster.bhosts().len() < n_hosts {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }
    Rig {
        world,
        master,
        exec,
        cluster,
        _sbds: sbds,
    }
}

#[test]
fn single_task_job_with_io() {
    let r = rig(1, 1);
    r.world.os().fs().write_file(r.master, "in.txt", b"numbers");
    let job = r
        .cluster
        .bsub(
            LsfRequest::new("/bin/app")
                .args(["3"])
                .input("in.txt")
                .output("out.txt"),
        )
        .unwrap();
    match r.cluster.wait_job(job, T).unwrap() {
        LsfJobState::Done(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
        other => panic!("{other:?}"),
    }
    assert_eq!(
        r.world.os().fs().read_file(r.master, "out.txt").unwrap(),
        b"crunched numbers"
    );
}

#[test]
fn fifo_queueing_over_limited_slots() {
    let r = rig(1, 2);
    let jobs: Vec<_> = (0..5)
        .map(|_| {
            r.cluster
                .bsub(LsfRequest::new("/bin/app").args(["2"]))
                .unwrap()
        })
        .collect();
    for j in jobs {
        assert!(matches!(
            r.cluster.wait_job(j, T).unwrap(),
            LsfJobState::Done(_)
        ));
    }
    // All slots freed at the end.
    let deadline = std::time::Instant::now() + T;
    loop {
        let hosts = r.cluster.bhosts();
        if hosts.iter().all(|(_, _, used)| *used == 0) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{hosts:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn multi_task_job_spreads_over_hosts() {
    let r = rig(3, 1);
    let job = r
        .cluster
        .bsub(LsfRequest::new("/bin/app").ntasks(3).output("res"))
        .unwrap();
    match r.cluster.wait_job(job, T).unwrap() {
        LsfJobState::Done(done) => {
            assert_eq!(done.len(), 3);
            assert!(done.values().all(|s| *s == ProcStatus::Exited(0)));
        }
        other => panic!("{other:?}"),
    }
    // Per-task outputs staged to the master: res, res.1, res.2.
    assert!(r.world.os().fs().exists(r.master, "res"));
    assert!(r.world.os().fs().exists(r.master, "res.1"));
    assert!(r.world.os().fs().exists(r.master, "res.2"));
}

#[test]
fn job_pends_until_host_registers() {
    let world = World::new();
    let master = world.add_host();
    let cluster = LsfCluster::start(&world, master).unwrap();
    let job = cluster.bsub(LsfRequest::new("/bin/app")).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(cluster.bjobs(job), Some(LsfJobState::Pending));
    // A host arrives; the queue drains.
    let exec = world.add_host();
    world.os().fs().install_exec(exec, "/bin/app", app_image());
    let _sbd = cluster.add_host(exec, 1).unwrap();
    assert!(matches!(
        cluster.wait_job(job, T).unwrap(),
        LsfJobState::Done(_)
    ));
}

#[test]
fn missing_executable_fails_job() {
    let r = rig(1, 1);
    let job = r.cluster.bsub(LsfRequest::new("/bin/ghost")).unwrap();
    match r.cluster.wait_job(job, T).unwrap() {
        LsfJobState::Failed(e) => assert!(e.contains("no such file"), "{e}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn lsf_runs_tracey() {
    let r = rig(1, 1);
    for h in &r.exec {
        r.world
            .os()
            .fs()
            .install_exec(*h, "tracey", tracey_image(r.world.clone()));
    }
    let job = r
        .cluster
        .bsub(
            LsfRequest::new("/bin/app")
                .args(["4"])
                .suspended()
                .tool("tracey", vec![]),
        )
        .unwrap();
    match r.cluster.wait_job(job, T).unwrap() {
        LsfJobState::Done(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
        other => panic!("{other:?}"),
    }
    // The coverage report was staged back to the master host inline.
    let reports: Vec<String> = r
        .world
        .os()
        .fs()
        .list(r.master, "tracey")
        .into_iter()
        .filter(|f| f.ends_with(".coverage"))
        .collect();
    assert_eq!(reports.len(), 1, "{reports:?}");
    let text =
        String::from_utf8(r.world.os().fs().read_file(r.master, &reports[0]).unwrap()).unwrap();
    assert!(text.contains("crunch 4"), "{text}");
}

#[test]
fn lsf_runs_vamp() {
    let r = rig(1, 1);
    for h in &r.exec {
        r.world
            .os()
            .fs()
            .install_exec(*h, "vamp", vamp_image(r.world.clone()));
    }
    let job = r
        .cluster
        .bsub(
            LsfRequest::new("/bin/app")
                .args(["6"])
                .suspended()
                .tool("vamp", vec!["-i2".into()]),
        )
        .unwrap();
    assert!(matches!(
        r.cluster.wait_job(job, T).unwrap(),
        LsfJobState::Done(_)
    ));
    let traces: Vec<String> = r
        .world
        .os()
        .fs()
        .list(r.master, "vamp")
        .into_iter()
        .filter(|f| f.ends_with(".vamp"))
        .collect();
    assert_eq!(traces.len(), 1, "{traces:?}");
}

#[test]
fn lsf_runs_paradynd() {
    // The headline pairing of the paper, under a scheduler the paper's
    // prototype never touched — pure m + n.
    let r = rig(1, 1);
    for h in &r.exec {
        r.world
            .os()
            .fs()
            .install_exec(*h, "paradynd", paradynd_image(r.world.clone()));
    }
    let fe = ParadynFrontend::start(r.world.net(), r.master, 2090, 2091).unwrap();
    let args = vec![
        format!("-m{}", r.master.0),
        format!("-p{}", fe.control_addr().port.0),
        format!("-P{}", fe.data_addr().port.0),
        "-a%pid".to_string(),
        "-A".to_string(), // no interactive run command in batch LSF use
    ];
    let job = r
        .cluster
        .bsub(
            LsfRequest::new("/bin/app")
                .args(["8"])
                .suspended()
                .tool("paradynd", args),
        )
        .unwrap();
    assert!(matches!(
        r.cluster.wait_job(job, T).unwrap(),
        LsfJobState::Done(_)
    ));
    fe.wait_done(1, T).unwrap();
    assert!(fe
        .samples()
        .iter()
        .any(|s| s.symbol == "crunch" && s.count == 8));
}

#[test]
fn lsf_multi_task_with_tools_per_task() {
    let r = rig(2, 1);
    for h in &r.exec {
        r.world
            .os()
            .fs()
            .install_exec(*h, "tracey", tracey_image(r.world.clone()));
    }
    let job = r
        .cluster
        .bsub(
            LsfRequest::new("/bin/app")
                .ntasks(2)
                .suspended()
                .tool("tracey", vec![]),
        )
        .unwrap();
    match r.cluster.wait_job(job, T).unwrap() {
        LsfJobState::Done(done) => assert_eq!(done.len(), 2),
        other => panic!("{other:?}"),
    }
    let reports: Vec<String> = r
        .world
        .os()
        .fs()
        .list(r.master, "tracey")
        .into_iter()
        .filter(|f| f.ends_with(".coverage"))
        .collect();
    assert_eq!(
        reports.len(),
        2,
        "one coverage report per task: {reports:?}"
    );
}

#[test]
fn bkill_terminates_running_job() {
    let r = rig(1, 1);
    // A long-running job (many crunch reps of sleepy work).
    r.world.os().fs().install_exec(
        r.exec[0],
        "/bin/slow",
        ExecImage::from_fn(|_| {
            fn_program(|ctx| {
                ctx.sleep(Duration::from_secs(60));
                0
            })
        }),
    );
    let job = r.cluster.bsub(LsfRequest::new("/bin/slow")).unwrap();
    // Wait until it is actually running.
    let deadline = std::time::Instant::now() + T;
    while r.cluster.bhosts().iter().all(|(_, _, used)| *used == 0) {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(30));
    r.cluster.bkill(job).unwrap();
    match r.cluster.wait_job(job, T).unwrap() {
        LsfJobState::Done(done) => assert_eq!(done[&0], ProcStatus::Killed(9)),
        other => panic!("{other:?}"),
    }
}

#[test]
fn bkill_of_pending_job_cancels_it() {
    // No hosts: everything pends; bkill cancels before dispatch.
    let world = World::new();
    let master = world.add_host();
    let cluster = LsfCluster::start(&world, master).unwrap();
    let job = cluster.bsub(LsfRequest::new("/bin/app")).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    cluster.bkill(job).unwrap();
    match cluster.wait_job(job, T).unwrap() {
        LsfJobState::Failed(e) => assert!(e.contains("bkill"), "{e}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn priorities_jump_the_queue() {
    // One slot; fill it, then queue a low- and a high-priority job.
    // Each job appends its tag to a start-order file the moment it
    // begins executing — the high-priority one must start first.
    let r = rig(1, 1);
    r.world.os().fs().install_exec(
        r.exec[0],
        "/bin/tagger",
        ExecImage::from_fn(|args| {
            let tag = args.first().cloned().unwrap_or_default();
            fn_program(move |ctx| {
                ctx.fs()
                    .append("/start_order", format!("{tag}\n").as_bytes());
                ctx.sleep(Duration::from_millis(30));
                0
            })
        }),
    );
    let blocker = r
        .cluster
        .bsub(LsfRequest::new("/bin/tagger").args(["blocker"]))
        .unwrap();
    // Give the blocker the slot before queueing the contenders.
    let deadline = std::time::Instant::now() + T;
    while !r.world.os().fs().exists(r.exec[0], "/start_order") {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(2));
    }
    let low = r
        .cluster
        .bsub(LsfRequest::new("/bin/tagger").args(["low"]).priority(0))
        .unwrap();
    let high = r
        .cluster
        .bsub(LsfRequest::new("/bin/tagger").args(["high"]).priority(10))
        .unwrap();
    for j in [blocker, low, high] {
        assert!(matches!(
            r.cluster.wait_job(j, T).unwrap(),
            LsfJobState::Done(_)
        ));
    }
    let order = String::from_utf8(
        r.world
            .os()
            .fs()
            .read_file(r.exec[0], "/start_order")
            .unwrap(),
    )
    .unwrap();
    assert_eq!(
        order.lines().collect::<Vec<_>>(),
        vec!["blocker", "high", "low"],
        "high priority must dispatch before low"
    );
}

#[test]
fn dead_sbatchd_host_does_not_wedge_the_cluster() {
    // Kill an execution host: its sbatchd connection drops and mbatchd
    // zeroes its slots; a surviving host still serves new jobs.
    let r = rig(2, 1);
    r.world.net().kill_host(r.exec[0]);
    std::thread::sleep(Duration::from_millis(50));
    // Submit a couple of jobs; they must all land on the survivor.
    for _ in 0..2 {
        let job = r
            .cluster
            .bsub(LsfRequest::new("/bin/app").args(["2"]))
            .unwrap();
        match r.cluster.wait_job(job, T).unwrap() {
            LsfJobState::Done(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
            other => panic!("{other:?}"),
        }
    }
    // The dead host advertises zero capacity.
    let hosts = r.cluster.bhosts();
    let dead = hosts
        .iter()
        .find(|(n, _, _)| n.contains(&format!("host{}", r.exec[0].0)));
    assert_eq!(dead.map(|(_, slots, _)| *slots), Some(0), "{hosts:?}");
}

#[test]
fn mbatchd_skips_an_over_nested_chunk_and_still_registers() {
    // A peer's chunk of 200 000 `[` used to overflow the JSON parser's
    // stack (SIGABRT); now it is refused at the nesting cap, skipped
    // like any malformed chunk, and the session keeps being served.
    let r = rig(0, 0);
    let host = r.world.add_host();
    let conn = r.world.net().connect(host, r.cluster.addr()).unwrap();
    conn.send("[".repeat(200_000).as_bytes()).unwrap();
    let register = SbdMsg::Register {
        name: "late@host".into(),
        slots: 3,
    };
    conn.send(&json::to_vec(&register).unwrap()).unwrap();
    let deadline = std::time::Instant::now() + T;
    while r.cluster.bhosts() != [("late@host".to_string(), 3, 0)] {
        assert!(std::time::Instant::now() < deadline, "never registered");
        std::thread::sleep(Duration::from_millis(5));
    }
}
