//! Fault detection and recovery — the paper lists this as a required RM
//! capability ("Any of the three entities launched by the RM (AP, RT,
//! AS) can fail during execution. The RM must be able to detect these
//! failures, respond to them, and perhaps communicate their occurrence
//! to the other entities") while deferring the full model to future
//! work. These tests exercise our implementation of that extension.

use std::sync::Arc;
use std::time::Duration;
use tdp::core::{Role, TdpCreate, TdpHandle, World};
use tdp::proto::{names, ContextId, HostId, ProcStatus, TdpError};
use tdp::simos::{fn_program, ExecImage};

const CTX: ContextId = ContextId(1);
const T: Duration = Duration::from_secs(10);

/// Every transport: the recovery behaviour under test is
/// transport-independent, so each scenario runs over netsim and over
/// sockets (the same parameterization as the wire-transport suite).
fn worlds() -> Vec<(&'static str, World)> {
    vec![("netsim", World::new()), ("epoll", World::new_epoll())]
}

fn add_app_host(w: &World) -> HostId {
    let h = w.add_host();
    w.os().fs().install_exec(
        h,
        "/bin/app",
        ExecImage::new(
            ["main"],
            Arc::new(|_| {
                fn_program(|ctx| {
                    ctx.call("main", |ctx| {
                        for _ in 0..100 {
                            ctx.sleep(Duration::from_millis(5));
                        }
                    });
                    0
                })
            }),
        ),
    );
    h
}

#[test]
fn ap_crash_is_observed_and_communicated() {
    for (_backend, w) in worlds() {
        let h = add_app_host(&w);
        ap_crash_scenario(&w, h);
    }
}

/// The AP dies; the RM detects it via status monitoring and
/// communicates it to the RT through the attribute space (§2.3).
fn ap_crash_scenario(w: &World, h: HostId) {
    w.os().fs().install_exec(
        h,
        "/bin/crasher",
        ExecImage::from_fn(|_| fn_program(|_ctx| panic!("simulated fault"))),
    );
    let mut rm = TdpHandle::init(w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(w, h, CTX, "rt", Role::Tool).unwrap();
    let pid = rm.create_process(TdpCreate::new("/bin/crasher")).unwrap();
    let st = rm.wait_terminal(pid, T).unwrap();
    assert_eq!(st, ProcStatus::Killed(11));
    rm.publish_status(st).unwrap();
    assert_eq!(rt.published_status().unwrap(), Some(ProcStatus::Killed(11)));
}

#[test]
fn rt_crash_does_not_take_down_the_application() {
    for (_backend, w) in worlds() {
        let h = add_app_host(&w);
        rt_crash_scenario(&w, h);
    }
}

/// The tool daemon dies mid-run: the AP keeps running and the RM can
/// attach a replacement tool (the tracer slot is freed when the dead
/// daemon's handle drops).
fn rt_crash_scenario(w: &World, h: HostId) {
    let mut rm = TdpHandle::init(w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let app = rm.create_process(TdpCreate::new("/bin/app")).unwrap();

    // An RT that attaches then crashes.
    w.os().fs().install_exec(
        h,
        "/bin/fragile_rt",
        ExecImage::from_fn({
            let w = w.clone();
            move |_| {
                let w = w.clone();
                fn_program(move |pctx| {
                    let mut tdp =
                        TdpHandle::init(&w, pctx.host(), CTX, "fragile", Role::Tool).unwrap();
                    let pid = tdp::proto::Pid::parse(&tdp.get(names::PID).unwrap()).unwrap();
                    tdp.attach(pid).unwrap();
                    panic!("tool daemon fault");
                })
            }
        }),
    );
    let rt = rm
        .create_process(TdpCreate::new("/bin/fragile_rt"))
        .unwrap();
    rm.put(names::PID, &app.to_string()).unwrap();
    assert_eq!(rm.wait_terminal(rt, T).unwrap(), ProcStatus::Killed(11));
    // The AP survived its tool.
    assert_eq!(w.os().status(app).unwrap(), ProcStatus::Running);
    // A replacement tool can attach (the crashed daemon's TraceHandle
    // was dropped during unwind).
    let mut rt2 = TdpHandle::init(w, h, CTX, "rt2", Role::Tool).unwrap();
    rt2.attach(app).unwrap();
    rt2.kill_process(app, 9).unwrap();
}

#[test]
fn lass_crash_fails_operations_cleanly() {
    // The attribute-space server dies: daemons get errors, not hangs.
    for (_backend, w) in worlds() {
        let h = add_app_host(&w);
        let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
        rm.put("k", "v").unwrap();
        w.kill_lass(h);
        let err = rm.put("k2", "v2");
        assert!(err.is_err(), "operations against a dead LASS must fail");
        // A fresh RM init restarts the LASS on the well-known port
        // (empty: the space died with the server).
        let mut rm2 = TdpHandle::init(&w, h, CTX, "rm2", Role::ResourceManager).unwrap();
        assert!(matches!(
            rm2.try_get("k"),
            Err(TdpError::AttributeNotFound(_))
        ));
        rm2.put("k", "v3").unwrap();
    }
}

#[test]
fn host_failure_severs_everything_on_it() {
    let w = World::new();
    let submit = w.add_host();
    let exec = w.add_host();
    w.os().fs().install_exec(
        exec,
        "/bin/app",
        ExecImage::from_fn(|_| {
            fn_program(|ctx| {
                ctx.sleep(Duration::from_secs(60));
                0
            })
        }),
    );
    let mut rm = TdpHandle::init(&w, exec, CTX, "rm", Role::ResourceManager).unwrap();
    let _app = rm.create_process(TdpCreate::new("/bin/app")).unwrap();
    // A monitoring connection from the submit machine, to a port on the
    // execution host that admits remote peers and never closes on its
    // own, so only the host's death can end it. Not the LASS: it
    // answers a remote client with a rejection frame and a close of its
    // own (§2.1), which would race the kill for the first read.
    let lass = w.lass_addr(exec).unwrap();
    let monitor = w.net().listen(exec, 7070).unwrap();
    let mut probe = w.net().connect(submit, monitor.local_addr()).unwrap();
    let _held = monitor.accept().unwrap();
    w.net().kill_host(exec);
    // The connection is severed…
    assert_eq!(
        probe.recv_timeout(Duration::from_secs(2)),
        Err(TdpError::Disconnected)
    );
    // …so is the RM's own session with the LASS on that host…
    assert!(rm.put("k", "v").is_err());
    // …and nothing new can reach the dead host.
    assert!(w.net().connect(submit, lass).is_err());
}

#[test]
fn heartbeat_attribute_detects_silent_tool() {
    // The fault-model extension: the RT heartbeats through the space;
    // the RM notices staleness. (A crashed RT stops heartbeating even
    // though its process table entry may linger.)
    for (_backend, w) in worlds() {
        let h = add_app_host(&w);
        let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
        let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
        rt.put(names::HEARTBEAT, "1").unwrap();
        assert_eq!(rm.get(names::HEARTBEAT).unwrap(), "1");
        rt.put(names::HEARTBEAT, "2").unwrap();
        assert_eq!(rm.get(names::HEARTBEAT).unwrap(), "2");
        // RT "crashes" (drops without exit): beats are synchronous
        // round trips, so once the handle is gone no further beat can
        // be in flight — the counter is deterministically stale.
        drop(rt);
        assert_eq!(rm.get(names::HEARTBEAT).unwrap(), "2", "no further beats");
    }
}

#[test]
fn schedd_requeues_rank_after_starter_failure() {
    // Two machines; the executable exists only on the second. The
    // matchmaker (ranked) prefers the broken one first; the starter
    // fails there (NoSuchFile), the schedd requeues, and the job
    // completes on the good machine.
    use tdp::condor::classad::ClassAd;
    use tdp::condor::startd::Startd;
    use tdp::condor::{JobState, Matchmaker, Schedd, SubmitDescription};

    let w = World::new();
    let cm = w.add_host();
    let submit_host = w.add_host();
    let broken = w.add_host();
    let good = w.add_host();
    let mm = Matchmaker::start(w.net(), cm).unwrap();
    // The broken machine ranks higher.
    let _s1 = Startd::start(&w, broken, ClassAd::new().with_int("Prio", 100), mm.addr()).unwrap();
    let _s2 = Startd::start(&w, good, ClassAd::new().with_int("Prio", 1), mm.addr()).unwrap();
    w.os().fs().install_exec(
        good,
        "/bin/app",
        ExecImage::from_fn(|_| {
            fn_program(|ctx| {
                ctx.call("main", |ctx| ctx.compute(5));
                0
            })
        }),
    );
    let schedd = Schedd::start(&w, submit_host, mm.addr());
    let mut d = SubmitDescription::parse("executable = /bin/app\nrank = Prio\nqueue\n").unwrap();
    d.transfer_files = false;
    let job = schedd.submit(d);
    match schedd.wait_job(job, Duration::from_secs(30)).unwrap() {
        JobState::Completed(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
        other => panic!("{other:?}"),
    }
}

#[test]
fn job_fails_when_no_machine_can_run_it() {
    // The executable exists nowhere: every requeue fails until the
    // budget is exhausted and the job reports failure (not a hang).
    use tdp::condor::CondorPool;
    use tdp::condor::JobState;
    let w = World::new();
    let pool = CondorPool::build(&w, 2).unwrap();
    let job = pool.submit_str("executable = /bin/ghost\nqueue\n").unwrap();
    match pool.wait_job(job, Duration::from_secs(60)).unwrap() {
        JobState::Failed(e) => {
            assert!(e.contains("requeues") || e.contains("replacement"), "{e}")
        }
        other => panic!("{other:?}"),
    }
}
