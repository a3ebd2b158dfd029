//! Integration tests of the simulated kernel: process lifecycle,
//! create-paused semantics, tracing, probes, stdio, status routing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tdp_proto::{HostId, ProcStatus, TdpError};
use tdp_simos::kernel::{ProcSpec, Role};
use tdp_simos::{fn_program, ExecImage, Os, OsConfig, Routing, Sink};

const H: HostId = HostId(1);
const TIMEOUT: Duration = Duration::from_secs(5);

fn os_with(exes: Vec<(&str, ExecImage)>) -> Os {
    let os = Os::new();
    for (path, img) in exes {
        os.fs().install_exec(H, path, img);
    }
    os
}

fn trivial_exit(code: i32) -> ExecImage {
    ExecImage::from_fn(move |_| fn_program(move |_ctx| code))
}

#[test]
fn run_to_completion_exit_code() {
    let os = os_with(vec![("/bin/seven", trivial_exit(7))]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/seven")).unwrap();
    assert_eq!(
        os.wait_terminal(pid, TIMEOUT).unwrap(),
        ProcStatus::Exited(7)
    );
}

#[test]
fn spawn_missing_executable_fails() {
    let os = os_with(vec![]);
    assert!(matches!(
        os.spawn(ProcSpec::new(H, "/bin/ghost")),
        Err(TdpError::NoSuchFile(_))
    ));
}

#[test]
fn args_and_env_reach_program() {
    let os = os_with(vec![(
        "/bin/echoargs",
        ExecImage::from_fn(|_| {
            fn_program(|ctx| {
                let joined = ctx.args().join(",");
                let tag = ctx.env("TAG").unwrap_or("none").to_string();
                ctx.write_stdout(format!("{joined}|{tag}").as_bytes());
                0
            })
        }),
    )]);
    let pid = os
        .spawn(
            ProcSpec::new(H, "/bin/echoargs")
                .args(["a", "b"])
                .env_var("TAG", "t1"),
        )
        .unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    assert_eq!(os.read_stdout(pid).unwrap(), b"a,b|t1");
}

#[test]
fn paused_process_runs_nothing_until_continue() {
    let touched = Arc::new(AtomicBool::new(false));
    let t2 = touched.clone();
    let os = Os::new();
    os.fs().install_exec(
        H,
        "/bin/toucher",
        ExecImage::from_fn(move |_| {
            let t = t2.clone();
            fn_program(move |_ctx| {
                t.store(true, Ordering::SeqCst);
                0
            })
        }),
    );
    let pid = os.spawn(ProcSpec::new(H, "/bin/toucher").paused()).unwrap();
    assert_eq!(os.status(pid).unwrap(), ProcStatus::Created);
    std::thread::sleep(Duration::from_millis(50));
    // Stopped at exec: not one instruction of the body has run.
    assert!(!touched.load(Ordering::SeqCst));
    os.continue_process(pid).unwrap();
    assert_eq!(
        os.wait_terminal(pid, TIMEOUT).unwrap(),
        ProcStatus::Exited(0)
    );
    assert!(touched.load(Ordering::SeqCst));
}

#[test]
fn stop_and_continue_running_process() {
    let os = os_with(vec![(
        "/bin/spin",
        ExecImage::from_fn(|_| {
            fn_program(|ctx| {
                for _ in 0..1000 {
                    ctx.sleep(Duration::from_millis(1));
                }
                0
            })
        }),
    )]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/spin")).unwrap();
    os.stop_process(pid).unwrap();
    assert_eq!(os.status(pid).unwrap(), ProcStatus::Stopped);
    // Stop is idempotent.
    os.stop_process(pid).unwrap();
    os.continue_process(pid).unwrap();
    assert_eq!(os.status(pid).unwrap(), ProcStatus::Running);
    os.kill(pid, 9).unwrap();
    assert_eq!(
        os.wait_terminal(pid, TIMEOUT).unwrap(),
        ProcStatus::Killed(9)
    );
}

#[test]
fn kill_paused_process() {
    let os = os_with(vec![("/bin/x", trivial_exit(0))]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/x").paused()).unwrap();
    os.kill(pid, 15).unwrap();
    assert_eq!(
        os.wait_terminal(pid, TIMEOUT).unwrap(),
        ProcStatus::Killed(15)
    );
}

#[test]
fn kill_terminated_is_idempotent() {
    let os = os_with(vec![("/bin/x", trivial_exit(0))]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/x")).unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    os.kill(pid, 9).unwrap();
    assert_eq!(os.status(pid).unwrap(), ProcStatus::Exited(0));
}

#[test]
fn panicking_program_reports_crash() {
    let os = os_with(vec![(
        "/bin/crash",
        ExecImage::from_fn(|_| fn_program(|_ctx| panic!("segfault simulation"))),
    )]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/crash")).unwrap();
    assert_eq!(
        os.wait_terminal(pid, TIMEOUT).unwrap(),
        ProcStatus::Killed(11)
    );
    let err = String::from_utf8(os.read_stderr(pid).unwrap()).unwrap();
    assert!(err.contains("segfault simulation"));
}

#[test]
fn attach_is_exclusive() {
    let os = os_with(vec![("/bin/x", trivial_exit(0))]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/x").paused()).unwrap();
    let h1 = os.attach(pid).unwrap();
    assert!(matches!(os.attach(pid), Err(TdpError::AlreadyTraced(_))));
    drop(h1);
    // After detach a new tracer may attach.
    let _h2 = os.attach(pid).unwrap();
}

#[test]
fn attach_to_dead_process_fails() {
    let os = os_with(vec![("/bin/x", trivial_exit(0))]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/x")).unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    assert!(matches!(
        os.attach(pid),
        Err(TdpError::WrongProcessState { .. })
    ));
}

#[test]
fn detach_resumes_stopped_tracee() {
    let os = os_with(vec![(
        "/bin/slow",
        ExecImage::from_fn(|_| {
            fn_program(|ctx| {
                ctx.sleep(Duration::from_millis(10));
                0
            })
        }),
    )]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/slow")).unwrap();
    let h = os.attach(pid).unwrap();
    h.stop().unwrap();
    assert_eq!(os.status(pid).unwrap(), ProcStatus::Stopped);
    drop(h); // PTRACE_DETACH semantics: resume
    assert_eq!(
        os.wait_terminal(pid, TIMEOUT).unwrap(),
        ProcStatus::Exited(0)
    );
}

fn worker_image() -> ExecImage {
    ExecImage::new(
        ["main", "compute_phase", "io_phase"],
        Arc::new(|_args| {
            fn_program(|ctx| {
                ctx.call("main", |ctx| {
                    for _ in 0..10 {
                        ctx.call("compute_phase", |ctx| ctx.compute(100));
                        ctx.call("io_phase", |ctx| ctx.compute(10));
                    }
                });
                0
            })
        }),
    )
}

#[test]
fn probes_count_and_attribute_cpu() {
    let os = os_with(vec![("/bin/worker", worker_image())]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/worker").paused()).unwrap();
    let h = os.attach(pid).unwrap();
    assert_eq!(h.symbols(), vec!["main", "compute_phase", "io_phase"]);
    h.arm_probe("compute_phase").unwrap();
    h.arm_probe("io_phase").unwrap();
    h.cont().unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    let snap = h.read_probes().unwrap();
    assert_eq!(snap.counts["compute_phase"], 10);
    assert_eq!(snap.counts["io_phase"], 10);
    assert_eq!(snap.time["compute_phase"], 1000);
    assert_eq!(snap.time["io_phase"], 100);
    assert_eq!(snap.total_cpu, 1100);
}

#[test]
fn disarmed_probes_cost_nothing_and_count_nothing() {
    let os = os_with(vec![("/bin/worker", worker_image())]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/worker").paused()).unwrap();
    let h = os.attach(pid).unwrap();
    h.arm_probe("compute_phase").unwrap();
    h.disarm_probe("compute_phase").unwrap();
    h.cont().unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    let snap = h.read_probes().unwrap();
    assert!(snap.counts.is_empty());
    // total CPU still accumulates regardless of instrumentation.
    assert_eq!(snap.total_cpu, 1100);
}

#[test]
fn arming_unknown_symbol_fails() {
    let os = os_with(vec![("/bin/worker", worker_image())]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/worker").paused()).unwrap();
    let h = os.attach(pid).unwrap();
    assert!(h.arm_probe("no_such_fn").is_err());
}

#[test]
fn nested_call_attribution() {
    // outer calls inner; inner burns 50, outer an extra 5. Armed on
    // both: outer's time includes inner's (inclusive attribution).
    let os = os_with(vec![(
        "/bin/nest",
        ExecImage::new(
            ["outer", "inner"],
            Arc::new(|_| {
                fn_program(|ctx| {
                    ctx.call("outer", |ctx| {
                        ctx.call("inner", |ctx| ctx.compute(50));
                        ctx.compute(5);
                    });
                    0
                })
            }),
        ),
    )]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/nest").paused()).unwrap();
    let h = os.attach(pid).unwrap();
    h.arm_probe("outer").unwrap();
    h.arm_probe("inner").unwrap();
    h.cont().unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    let snap = h.read_probes().unwrap();
    assert_eq!(snap.time["inner"], 50);
    assert_eq!(snap.time["outer"], 55);
}

#[test]
fn stdin_stdout_pipeline() {
    let os = os_with(vec![(
        "/bin/upcase",
        ExecImage::from_fn(|_| {
            fn_program(|ctx| {
                while let Ok(Some(chunk)) = ctx.read_stdin() {
                    let up: Vec<u8> = chunk.iter().map(|b| b.to_ascii_uppercase()).collect();
                    ctx.write_stdout(&up);
                }
                0
            })
        }),
    )]);
    let pid = os
        .spawn(ProcSpec::new(H, "/bin/upcase").stdin_bytes(&b"hello "[..]))
        .unwrap();
    os.write_stdin(pid, b"world").unwrap();
    os.close_stdin(pid).unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    assert_eq!(os.read_stdout(pid).unwrap(), b"HELLO WORLD");
}

#[test]
fn kill_interrupts_blocked_stdin_read() {
    let os = os_with(vec![(
        "/bin/reader",
        ExecImage::from_fn(|_| {
            fn_program(|ctx| {
                let _ = ctx.read_stdin(); // blocks forever: no writer
                0
            })
        }),
    )]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/reader")).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    os.kill(pid, 9).unwrap();
    assert_eq!(
        os.wait_terminal(pid, TIMEOUT).unwrap(),
        ProcStatus::Killed(9)
    );
}

/// The read parks with no timer, so every kill must reach it — the ones
/// that land between the reader's gate and its `io` lock included.
#[test]
fn every_kill_ends_a_blocked_stdin_read() {
    let os = os_with(vec![(
        "/bin/reader",
        ExecImage::from_fn(|_| {
            fn_program(|ctx| {
                let _ = ctx.read_stdin();
                0
            })
        }),
    )]);
    for i in 0..200u64 {
        let pid = os.spawn(ProcSpec::new(H, "/bin/reader")).unwrap();
        // Kill at varying distances from the reader's first gate.
        std::thread::sleep(Duration::from_micros(i % 4 * 50));
        os.kill(pid, 9).unwrap();
        assert_eq!(
            os.wait_terminal(pid, Duration::from_secs(1)),
            Ok(ProcStatus::Killed(9)),
            "kill {i}"
        );
        assert_eq!(os.reap(pid).unwrap(), ProcStatus::Killed(9));
    }
}

#[test]
fn stdout_to_host_file() {
    let os = os_with(vec![(
        "/bin/logger",
        ExecImage::from_fn(|_| {
            fn_program(|ctx| {
                ctx.write_stdout(b"line1\n");
                ctx.write_stdout(b"line2\n");
                0
            })
        }),
    )]);
    let pid = os
        .spawn(ProcSpec::new(H, "/bin/logger").stdout(Sink::File("/out/job.out".into())))
        .unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    assert_eq!(
        os.fs().read_file(H, "/out/job.out").unwrap(),
        b"line1\nline2\n"
    );
}

#[test]
fn watchers_see_lifecycle_events() {
    let os = os_with(vec![("/bin/x", trivial_exit(3))]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/x").paused()).unwrap();
    let rx = os.watch(pid, Role::Observer).unwrap();
    os.continue_process(pid).unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    let mut seen = Vec::new();
    while let Ok(ev) = rx.recv_timeout(Duration::from_millis(200)) {
        seen.push(ev.status);
        if ev.status.is_terminal() {
            break;
        }
    }
    assert_eq!(seen, vec![ProcStatus::Running, ProcStatus::Exited(3)]);
}

#[test]
fn routing_tracer_steals_wait_status_from_parent() {
    // Default TracerElseParent: with a tracer attached, the parent does
    // NOT see the termination code — the §2.3 Linux behaviour.
    let os = os_with(vec![("/bin/x", trivial_exit(0))]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/x").paused()).unwrap();
    let parent_rx = os.watch(pid, Role::Parent).unwrap();
    let tracer_rx = os.watch(pid, Role::Tracer).unwrap();
    let _h = os.attach(pid).unwrap();
    os.continue_process(pid).unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    let tracer_events: Vec<_> = tracer_rx.try_iter().collect();
    assert!(tracer_events.iter().any(|e| e.status.is_terminal()));
    let parent_events: Vec<_> = parent_rx.try_iter().collect();
    assert!(
        !parent_events.iter().any(|e| e.status.is_terminal()),
        "parent must not receive termination while a tracer is attached"
    );
}

#[test]
fn routing_parent_receives_without_tracer() {
    let os = os_with(vec![("/bin/x", trivial_exit(0))]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/x").paused()).unwrap();
    let parent_rx = os.watch(pid, Role::Parent).unwrap();
    os.continue_process(pid).unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    let parent_events: Vec<_> = parent_rx.try_iter().collect();
    assert!(parent_events.iter().any(|e| e.status.is_terminal()));
}

#[test]
fn routing_both_delivers_twice() {
    // The "unusual case" where the return code goes to both.
    let os = Os::with_config(OsConfig {
        time_scale_ns: 0,
        routing: Routing::Both,
    });
    os.fs().install_exec(H, "/bin/x", trivial_exit(0));
    let pid = os.spawn(ProcSpec::new(H, "/bin/x").paused()).unwrap();
    let parent_rx = os.watch(pid, Role::Parent).unwrap();
    let tracer_rx = os.watch(pid, Role::Tracer).unwrap();
    let _h = os.attach(pid).unwrap();
    os.continue_process(pid).unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    assert!(parent_rx.try_iter().any(|e| e.status.is_terminal()));
    assert!(tracer_rx.try_iter().any(|e| e.status.is_terminal()));
}

#[test]
fn routing_parent_only_starves_tracer() {
    let os = Os::with_config(OsConfig {
        time_scale_ns: 0,
        routing: Routing::ParentOnly,
    });
    os.fs().install_exec(H, "/bin/x", trivial_exit(0));
    let pid = os.spawn(ProcSpec::new(H, "/bin/x").paused()).unwrap();
    let tracer_rx = os.watch(pid, Role::Tracer).unwrap();
    let _h = os.attach(pid).unwrap();
    os.continue_process(pid).unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    assert!(!tracer_rx.try_iter().any(|e| e.status.is_terminal()));
}

#[test]
fn reap_removes_zombie() {
    let os = os_with(vec![("/bin/x", trivial_exit(0))]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/x")).unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    assert_eq!(os.reap(pid).unwrap(), ProcStatus::Exited(0));
    assert!(matches!(os.status(pid), Err(TdpError::NoSuchProcess(_))));
}

#[test]
fn reap_of_live_process_fails() {
    let os = os_with(vec![("/bin/x", trivial_exit(0))]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/x").paused()).unwrap();
    assert!(os.reap(pid).is_err());
    os.kill(pid, 9).unwrap();
    os.wait_terminal(pid, TIMEOUT).unwrap();
    assert!(os.reap(pid).is_ok());
}

#[test]
fn processes_on_lists_live_only() {
    let os = os_with(vec![("/bin/x", trivial_exit(0))]);
    let p1 = os.spawn(ProcSpec::new(H, "/bin/x").paused()).unwrap();
    let p2 = os.spawn(ProcSpec::new(H, "/bin/x").paused()).unwrap();
    let other = os.spawn(ProcSpec::new(HostId(2), "/bin/x"));
    assert!(other.is_err(), "no executable on host 2");
    assert_eq!(os.processes_on(H), vec![p1, p2]);
    os.kill(p1, 9).unwrap();
    os.wait_terminal(p1, TIMEOUT).unwrap();
    assert_eq!(os.processes_on(H), vec![p2]);
}

#[test]
fn proc_info_reports_metadata() {
    let os = os_with(vec![("/bin/x", trivial_exit(0))]);
    let parent = os.spawn(ProcSpec::new(H, "/bin/x").paused()).unwrap();
    let child = os
        .spawn(
            ProcSpec::new(H, "/bin/x")
                .args(["-v"])
                .parent(parent)
                .paused(),
        )
        .unwrap();
    let (host, exe, args, par) = os.proc_info(child).unwrap();
    assert_eq!(host, H);
    assert_eq!(exe, "/bin/x");
    assert_eq!(args, vec!["-v"]);
    assert_eq!(par, Some(parent));
}

#[test]
fn wait_terminal_times_out_on_running_process() {
    let os = os_with(vec![("/bin/x", trivial_exit(0))]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/x").paused()).unwrap();
    assert_eq!(
        os.wait_terminal(pid, Duration::from_millis(50)),
        Err(TdpError::Timeout)
    );
    os.kill(pid, 9).unwrap();
}

#[test]
fn factory_builds_fresh_program_per_exec() {
    let os = os_with(vec![(
        "/bin/counter",
        ExecImage::from_fn(|args| {
            let n: i32 = args.first().and_then(|s| s.parse().ok()).unwrap_or(0);
            fn_program(move |_| n)
        }),
    )]);
    let mut env = HashMap::new();
    env.insert("unused".to_string(), "x".to_string());
    let p1 = os
        .spawn(ProcSpec::new(H, "/bin/counter").args(["11"]))
        .unwrap();
    let p2 = os
        .spawn(ProcSpec::new(H, "/bin/counter").args(["22"]))
        .unwrap();
    assert_eq!(
        os.wait_terminal(p1, TIMEOUT).unwrap(),
        ProcStatus::Exited(11)
    );
    assert_eq!(
        os.wait_terminal(p2, TIMEOUT).unwrap(),
        ProcStatus::Exited(22)
    );
    drop(env);
}

#[test]
fn stop_during_compute_parks_at_gate() {
    let os = os_with(vec![(
        "/bin/churn",
        ExecImage::from_fn(|_| {
            fn_program(|ctx| {
                for _ in 0..100_000 {
                    ctx.compute(1);
                }
                0
            })
        }),
    )]);
    let pid = os.spawn(ProcSpec::new(H, "/bin/churn")).unwrap();
    os.stop_process(pid).unwrap();
    let cpu_a = os.cpu_of(pid).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let cpu_b = os.cpu_of(pid).unwrap();
    // Allow one in-flight unit that passed the gate before the stop.
    assert!(
        cpu_b - cpu_a <= 1,
        "stopped process kept computing: {cpu_a} -> {cpu_b}"
    );
    os.continue_process(pid).unwrap();
    assert_eq!(
        os.wait_terminal(pid, TIMEOUT).unwrap(),
        ProcStatus::Exited(0)
    );
}
