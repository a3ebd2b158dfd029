//! Tests of the TDP library handle: init/exit, attribute operations,
//! asynchronous events, process management, single-point control, tool
//! channels and staging.

use std::time::Duration;
use tdp_core::{Role, TdpCreate, TdpHandle, World};
use tdp_netsim::FirewallPolicy;
use tdp_proto::{names, Addr, ContextId, ProcRequest, ProcStatus, TdpError};
use tdp_simos::{fn_program, ExecImage};
use tdp_sync::atomic::{AtomicUsize, Ordering};
use tdp_sync::{Arc, Mutex};

const CTX: ContextId = ContextId(1);
const T: Duration = Duration::from_secs(5);

fn world_with_app() -> (World, tdp_proto::HostId) {
    let w = World::new();
    let h = w.add_host();
    w.os().fs().install_exec(
        h,
        "/bin/app",
        ExecImage::new(
            ["main", "work"],
            Arc::new(|_| {
                fn_program(|ctx| {
                    ctx.call("main", |ctx| {
                        for _ in 0..5 {
                            ctx.call("work", |ctx| ctx.compute(10));
                        }
                    });
                    0
                })
            }),
        ),
    );
    (w, h)
}

#[test]
fn rm_init_starts_lass_tool_init_requires_it() {
    let w = World::new();
    let h = w.add_host();
    assert!(matches!(
        TdpHandle::init(&w, h, CTX, "tool", Role::Tool),
        Err(TdpError::Substrate(_))
    ));
    let _rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let _rt = TdpHandle::init(&w, h, CTX, "tool", Role::Tool).unwrap();
    assert!(w.lass_addr(h).is_some());
}

#[test]
fn put_get_between_daemons() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    rm.put(names::PID, "1234").unwrap();
    assert_eq!(rt.get(names::PID).unwrap(), "1234");
    assert!(matches!(
        rt.try_get("absent"),
        Err(TdpError::AttributeNotFound(_))
    ));
}

#[test]
fn blocking_get_crosses_daemons() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let th = std::thread::spawn(move || rt.get(names::PID).unwrap());
    std::thread::sleep(Duration::from_millis(40));
    rm.put(names::PID, "77").unwrap();
    assert_eq!(th.join().unwrap(), "77");
}

#[test]
fn handle_closed_after_exit() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    rm.exit().unwrap();
    assert!(matches!(rm.put("k", "v"), Err(TdpError::HandleClosed)));
    assert!(rm.exit().is_ok(), "exit is idempotent");
}

#[test]
fn async_get_callback_runs_at_service_point() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let got: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let g2 = got.clone();
    rt.async_get(names::PID, move |k, v| g2.lock().push((k.into(), v.into())))
        .unwrap();
    // Nothing yet: callback must not run before the put.
    assert_eq!(rt.service_events().unwrap(), 0);
    rm.put(names::PID, "55").unwrap();
    std::thread::sleep(Duration::from_millis(40));
    assert!(rt.has_events());
    assert_eq!(rt.service_events().unwrap(), 1);
    assert_eq!(
        got.lock().as_slice(),
        &[("pid".to_string(), "55".to_string())]
    );
    // One-shot: a second put does not re-fire.
    rm.put(names::PID, "56").unwrap();
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(rt.service_events().unwrap(), 0);
}

#[test]
fn async_get_on_existing_value_fires_immediately() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    rm.put("ready", "yes").unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c2 = count.clone();
    rt.async_get("ready", move |_, _| {
        c2.fetch_add(1, Ordering::SeqCst);
    })
    .unwrap();
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(rt.service_events().unwrap(), 1);
    assert_eq!(count.load(Ordering::SeqCst), 1);
}

#[test]
fn async_put_completion_deferred_to_service() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let f2 = fired.clone();
    rm.async_put("k", "v", move |_, _| {
        f2.fetch_add(1, Ordering::SeqCst);
    })
    .unwrap();
    // The put itself has happened, but the callback must wait for the
    // safe point.
    assert_eq!(fired.load(Ordering::SeqCst), 0);
    assert_eq!(rm.try_get("k").unwrap(), "v");
    assert_eq!(rm.service_events().unwrap(), 1);
    assert_eq!(fired.load(Ordering::SeqCst), 1);
}

#[test]
fn watch_is_persistent_across_puts() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = seen.clone();
    rt.watch(names::AP_STATUS, move |_, v| s2.lock().push(v.to_string()))
        .unwrap();
    for st in ["running", "stopped", "exited:0"] {
        rm.put(names::AP_STATUS, st).unwrap();
        // Drain between puts to exercise wait_and_service; back-to-back
        // puts are delivered too (`every_put_to_a_watched_key_…`).
        rt.wait_and_service(T).unwrap();
    }
    assert_eq!(seen.lock().as_slice(), &["running", "stopped", "exited:0"]);
}

#[test]
fn cancel_prevents_callback() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c2 = count.clone();
    let tok = rt
        .async_get("k", move |_, _| {
            c2.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    rt.cancel(tok).unwrap();
    rm.put("k", "v").unwrap();
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(rt.service_events().unwrap(), 0);
    assert_eq!(count.load(Ordering::SeqCst), 0);
}

#[test]
fn create_paused_attach_continue_lifecycle() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let pid = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    assert_eq!(rm.process_status(pid).unwrap(), ProcStatus::Created);
    rt.attach(pid).unwrap();
    assert_eq!(rt.symbols(pid).unwrap(), vec!["main", "work"]);
    rt.arm_probe(pid, "work").unwrap();
    rt.continue_process(pid).unwrap();
    assert_eq!(rt.wait_terminal(pid, T).unwrap(), ProcStatus::Exited(0));
    let probes = rt.read_probes(pid).unwrap();
    assert_eq!(probes.counts["work"], 5);
    assert_eq!(probes.time["work"], 50);
}

#[test]
fn instrumentation_requires_attach() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let pid = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    assert!(matches!(rm.symbols(pid), Err(TdpError::NotTracer(_))));
    assert!(matches!(
        rm.arm_probe(pid, "work"),
        Err(TdpError::NotTracer(_))
    ));
}

#[test]
fn detach_releases_tracer_slot() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let pid = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    rt.attach(pid).unwrap();
    rt.detach(pid).unwrap();
    rm.attach(pid).unwrap(); // now free for another tracer
    rm.kill_process(pid, 9).unwrap();
}

#[test]
fn single_point_control_rt_requests_rm_services() {
    // §2.3: the RT never touches the process directly; it files a
    // request and the RM performs it and publishes the status.
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let pid = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    rm.publish_status(ProcStatus::Created).unwrap();

    rt.request_proc_op(ProcRequest::Continue).unwrap();
    assert_eq!(
        rm.service_proc_requests(pid).unwrap(),
        Some(ProcRequest::Continue)
    );
    rm.wait_terminal(pid, T).unwrap();
    // No pending request now.
    assert_eq!(rm.service_proc_requests(pid).unwrap(), None);
    // RT reads the status the RM published after servicing.
    let st = rt.published_status().unwrap().unwrap();
    assert!(matches!(st, ProcStatus::Running | ProcStatus::Exited(_)));
}

#[test]
fn kill_request_via_attribute_space() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let pid = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    rt.request_proc_op(ProcRequest::Kill(9)).unwrap();
    assert_eq!(
        rm.service_proc_requests(pid).unwrap(),
        Some(ProcRequest::Kill(9))
    );
    assert_eq!(rm.wait_terminal(pid, T).unwrap(), ProcStatus::Killed(9));
}

#[test]
fn tool_channel_direct_when_unrestricted() {
    let (w, h) = world_with_app();
    let fe_host = w.add_host();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let listener = w.net().listen(fe_host, 2090).unwrap();
    rm.advertise_frontend(Addr::new(fe_host, 2090)).unwrap();
    let c = rt.open_tool_channel().unwrap();
    c.send(b"hello fe").unwrap();
    let mut s = listener.accept().unwrap();
    assert_eq!(&s.recv().unwrap()[..], b"hello fe");
}

#[test]
fn tool_channel_falls_back_to_proxy_behind_firewall() {
    // Figure 1: execution host in a strict private zone; only the RM's
    // gateway may cross. open_tool_channel must transparently use it.
    let w = World::new();
    let fe_host = w.add_host();
    let zone = w.add_private_zone(FirewallPolicy::STRICT);
    let exec = w.add_host_in(zone);
    let gw = w.add_host_in(zone);
    let listener = w.net().listen(fe_host, 2090).unwrap();
    let fe_addr = Addr::new(fe_host, 2090);
    w.net().authorize_route(gw, fe_addr);
    let proxy = tdp_netsim::proxy::spawn(w.net(), gw, 9618).unwrap();

    let mut rm = TdpHandle::init(&w, exec, CTX, "rm", Role::ResourceManager).unwrap();
    rm.advertise_frontend(fe_addr).unwrap();
    rm.advertise_proxy(proxy.addr()).unwrap();
    let mut rt = TdpHandle::init(&w, exec, CTX, "rt", Role::Tool).unwrap();
    let c = rt.open_tool_channel().unwrap();
    c.send(b"via proxy").unwrap();
    let mut s = listener.accept().unwrap();
    assert_eq!(&s.recv().unwrap()[..], b"via proxy");
}

#[test]
fn cass_shared_across_hosts() {
    let w = World::new();
    let fe = w.add_host();
    let e1 = w.add_host();
    let e2 = w.add_host();
    let cass = w.ensure_cass(fe).unwrap();
    let mut a = TdpHandle::init(&w, e1, CTX, "d1", Role::ResourceManager).unwrap();
    let mut b = TdpHandle::init(&w, e2, CTX, "d2", Role::ResourceManager).unwrap();
    a.connect_cass(cass).unwrap();
    b.connect_cass(cass).unwrap();
    a.put_central("global", "42").unwrap();
    assert_eq!(b.get_central("global").unwrap(), "42");
    // Local spaces remain isolated.
    a.put("local", "x").unwrap();
    assert!(matches!(
        b.try_get("local"),
        Err(TdpError::AttributeNotFound(_))
    ));
}

#[test]
fn stage_tool_config_and_trace_files() {
    let (w, h) = world_with_app();
    let submit = w.add_host();
    w.os()
        .fs()
        .write_file(submit, "paradyn.conf", b"metric cpu\n");
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    // Config out to the execution node…
    rm.stage_file(submit, "paradyn.conf", h, "/work/paradyn.conf")
        .unwrap();
    assert_eq!(
        w.os().fs().read_file(h, "/work/paradyn.conf").unwrap(),
        b"metric cpu\n"
    );
    // …trace data back after the run.
    w.os().fs().write_file(h, "/work/trace.out", b"samples");
    rm.stage_file(h, "/work/trace.out", submit, "results/trace.out")
        .unwrap();
    assert_eq!(
        w.os().fs().read_file(submit, "results/trace.out").unwrap(),
        b"samples"
    );
}

#[test]
fn trace_records_call_sequence() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let pid = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    rm.put(names::PID, &pid.to_string()).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let got = rt.get(names::PID).unwrap();
    rt.attach(tdp_proto::Pid::parse(&got).unwrap()).unwrap();
    rt.continue_process(pid).unwrap();
    rt.wait_terminal(pid, T).unwrap();

    let trace = w.trace();
    trace.assert_order((Some("rm"), "tdp_init"), (Some("rm"), "tdp_create_process"));
    trace.assert_order(
        (Some("rm"), "tdp_create_process"),
        (Some("rt"), "tdp_attach"),
    );
    trace.assert_order((Some("rm"), "tdp_put(pid)"), (Some("rt"), "tdp_attach"));
    trace.assert_order(
        (Some("rt"), "tdp_attach"),
        (Some("rt"), "tdp_continue_process"),
    );
}

#[test]
fn separate_contexts_per_tool() {
    // An RM managing two RTs uses two contexts; their attributes are
    // isolated (§3.2).
    let (w, h) = world_with_app();
    let mut rm1 = TdpHandle::init(&w, h, ContextId(1), "rm", Role::ResourceManager).unwrap();
    let mut rm2 = TdpHandle::init(&w, h, ContextId(2), "rm", Role::ResourceManager).unwrap();
    rm1.put(names::PID, "1").unwrap();
    rm2.put(names::PID, "2").unwrap();
    let mut rt1 = TdpHandle::init(&w, h, ContextId(1), "rt1", Role::Tool).unwrap();
    let mut rt2 = TdpHandle::init(&w, h, ContextId(2), "rt2", Role::Tool).unwrap();
    assert_eq!(rt1.get(names::PID).unwrap(), "1");
    assert_eq!(rt2.get(names::PID).unwrap(), "2");
}

#[test]
fn heartbeat_counter_advances_and_is_peer_visible() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    assert_eq!(rm.last_heartbeat().unwrap(), None);
    assert_eq!(rt.heartbeat().unwrap(), 1);
    assert_eq!(rt.heartbeat().unwrap(), 2);
    assert_eq!(rm.last_heartbeat().unwrap(), Some(2));
    // Either side can beat: it is a shared counter in the context.
    assert_eq!(rm.heartbeat().unwrap(), 3);
}

/// A seeded xorshift: the points at which a test's consumer services
/// its events, reproducible from the seed in the test.
fn rng(mut s: u64) -> impl FnMut(u64) -> u64 {
    move |n| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s % n
    }
}

/// What a consumer does between two looks at its events: nothing, a
/// yield, a short sleep or a synchronous round trip (which queues
/// whatever notifications arrive while it waits for its reply).
fn busy(h: &mut TdpHandle, roll: u64) {
    match roll {
        0 => {}
        1 => std::thread::yield_now(),
        2 => std::thread::sleep(Duration::from_micros(200)),
        _ => {
            let _ = h.try_get("unrelated");
        }
    }
}

#[test]
fn every_put_to_a_watched_key_is_delivered_in_order() {
    const N: usize = 10_000;
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = seen.clone();
    rt.watch("counter", move |_, v| s2.lock().push(v.to_string()))
        .unwrap();
    let putter = std::thread::Builder::new()
        .name("test-putter".into())
        .spawn(move || {
            for i in 0..N {
                rm.put("counter", &i.to_string()).unwrap();
            }
            rm
        })
        .unwrap();
    let mut roll = rng(0x5eed_0034);
    let mut quiet_since = std::time::Instant::now();
    // Done when all are in, or once the putter is done and 2 s pass
    // with nothing delivered.
    while seen.lock().len() < N
        && (!putter.is_finished() || quiet_since.elapsed() < Duration::from_secs(2))
    {
        busy(&mut rt, roll(6));
        let ran = match roll(2) {
            0 => rt.service_events().unwrap(),
            _ => rt.wait_and_service(Duration::from_millis(1)).unwrap(),
        };
        if ran > 0 {
            quiet_since = std::time::Instant::now();
        }
    }
    let _rm = putter.join().unwrap();
    let seen = seen.lock();
    let expected: Vec<String> = (0..N).map(|i| i.to_string()).collect();
    assert_eq!(seen.len(), N, "lost {} of {N} puts", N - seen.len());
    assert!(*seen == expected, "delivered out of order");
}

#[test]
fn every_proc_request_is_served_in_order() {
    const N: usize = 1_000;
    let (w, h) = world_with_app();
    w.os().fs().install_exec(
        h,
        "/bin/forever",
        ExecImage::new(
            ["main", "tick"],
            Arc::new(|_| {
                fn_program(|ctx| loop {
                    ctx.call("tick", |ctx| ctx.sleep(Duration::from_millis(1)));
                })
            }),
        ),
    );
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let pid = rm.create_process(TdpCreate::new("/bin/forever")).unwrap();
    // The RM subscribes before the RT can file anything, as the starter
    // does before it creates the tool daemon: a subscription brings only
    // the current value of what was put before it.
    assert_eq!(rm.service_proc_requests(pid).unwrap(), None);
    let requester = std::thread::Builder::new()
        .name("test-requester".into())
        .spawn(move || {
            for i in 0..N {
                let op = [ProcRequest::Pause, ProcRequest::Continue][i % 2];
                rt.request_proc_op(op).unwrap();
            }
            rt
        })
        .unwrap();
    let served = || {
        w.trace()
            .by_actor("rm")
            .into_iter()
            .filter(|e| e.call.starts_with("tdp_pause") || e.call.starts_with("tdp_continue"))
            .map(|e| e.call)
            .collect::<Vec<_>>()
    };
    let mut roll = rng(0x5eed_2003);
    let mut quiet_since = std::time::Instant::now();
    let mut count = 0;
    while count < N && (!requester.is_finished() || quiet_since.elapsed() < Duration::from_secs(2))
    {
        busy(&mut rm, roll(6));
        if rm.service_proc_requests(pid).unwrap().is_some() {
            quiet_since = std::time::Instant::now();
            count = served().len();
        }
    }
    let _rt = requester.join().unwrap();
    let served = served();
    let expected: Vec<String> = (0..N)
        .map(|i| ["tdp_pause_process", "tdp_continue_process"][i % 2])
        .map(|c| format!("{c}({pid})"))
        .collect();
    assert_eq!(served.len(), N, "lost {} of {N} requests", N - served.len());
    assert!(served == expected, "served out of order");
    rm.kill_process(pid, 9).unwrap();
    assert_eq!(rm.wait_terminal(pid, T).unwrap(), ProcStatus::Killed(9));
}
