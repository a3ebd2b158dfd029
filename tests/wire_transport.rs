//! The transport-equivalence suite: the Figure 2 (E2) and complete-
//! framework (E11) scenarios run over both transports `tdp-wire` ships —
//! the simulated fabric and real loopback sockets (`World::new_epoll`) —
//! and produce the *same observable behaviour*, up to identical call
//! traces. The socket transport additionally has to do it without a
//! wire thread of its own: the 500-session soak at the bottom counts
//! the world's connections and looks for the thread that used to be.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tdp::condor::{CondorPool, JobState};
use tdp::core::{Role, TdpHandle, TransportMode, World};
use tdp::netsim::{FirewallPolicy, Network};
use tdp::paradyn::{paradynd_image, ParadynFrontend, PerformanceConsultant};
use tdp::proto::{names, Addr, ContextId, Message, ProcStatus, TdpError};
use tdp::simos::{fn_program, ExecImage};
use tdp::wire::{EpollTransport, SimTransport, Transport};

const CTX: ContextId = ContextId(1);
const T: Duration = Duration::from_secs(30);

/// The E2 Figure-2 scenario body, transport-agnostic. Returns the
/// rendered call trace.
fn fig2_scenario(world: &World) -> String {
    let fe_host = world.add_host();
    let remote_a = world.add_host();
    let remote_b = world.add_host();

    let cass = world.ensure_cass(fe_host).unwrap();
    let mut rm_a = TdpHandle::init(world, remote_a, CTX, "rm_a", Role::ResourceManager).unwrap();
    let mut rm_b = TdpHandle::init(world, remote_b, CTX, "rm_b", Role::ResourceManager).unwrap();

    rm_a.put(names::PID, "111").unwrap();
    rm_b.put(names::PID, "222").unwrap();
    let mut rt_a = TdpHandle::init(world, remote_a, CTX, "rt_a", Role::Tool).unwrap();
    let mut rt_b = TdpHandle::init(world, remote_b, CTX, "rt_b", Role::Tool).unwrap();
    assert_eq!(rt_a.get(names::PID).unwrap(), "111");
    assert_eq!(rt_b.get(names::PID).unwrap(), "222");

    // Cross-host LASS access is rejected by the server itself — over
    // real sockets the client's host identity travels in the Hello
    // handshake.
    let lass_a = world.lass_addr(remote_a).unwrap();
    let mut intruder = world.attr_connect(remote_b, lass_a).unwrap();
    assert!(
        intruder.join(CTX).is_err(),
        "a process cannot access the LASS of another node (§2.1)"
    );

    rm_a.connect_cass(cass).unwrap();
    rm_b.connect_cass(cass).unwrap();
    rm_a.put_central(
        names::TOOL_FRONTEND_ADDR,
        &Addr::new(fe_host, 2090).to_attr_value(),
    )
    .unwrap();
    assert_eq!(
        rm_b.get_central(names::TOOL_FRONTEND_ADDR).unwrap(),
        Addr::new(fe_host, 2090).to_attr_value()
    );
    world.trace().render()
}

#[test]
fn fig2_runs_over_socket_backends() {
    let world = World::new_epoll();
    assert_eq!(world.transport_mode(), TransportMode::Epoll);
    fig2_scenario(&world);
}

#[test]
fn fig2_trace_identical_across_transports() {
    // Logical addresses are the same strings in every mode, so the call
    // traces must match byte for byte.
    let sim_trace = fig2_scenario(&World::new());
    assert!(!sim_trace.is_empty());
    let trace = fig2_scenario(&World::new_epoll());
    assert_eq!(sim_trace, trace, "trace diverged on the epoll backend");
}

/// The §2.4 firewall crossing, with a real byte-relay proxy: the
/// direct dial is refused by the topology's firewall rules, the
/// handle falls back to the RM's advertised proxy, and the relayed
/// connection behaves like a direct one.
fn proxy_crossing_scenario(world: &World) {
    let fe_host = world.add_host();
    let zone = world.add_private_zone(FirewallPolicy::STRICT);
    let remote = world.add_host_in(zone);
    let cass = world.ensure_cass(fe_host).unwrap();

    world.net().authorize_route(remote, cass);
    let proxy = world.spawn_proxy(remote, 9618).unwrap();
    assert_eq!(
        proxy,
        Addr::new(remote, 9618),
        "proxy keeps its logical address"
    );

    let mut rm = TdpHandle::init(world, remote, CTX, "rm", Role::ResourceManager).unwrap();
    rm.advertise_proxy(proxy).unwrap();
    let mut rt = TdpHandle::init(world, remote, CTX, "rt", Role::Tool).unwrap();
    rt.connect_cass(cass).unwrap();
    rt.put_central("announce", "rt alive").unwrap();
    rm.connect_cass(cass).unwrap();
    assert_eq!(rm.get_central("announce").unwrap(), "rt alive");
}

#[test]
fn fig2_proxy_crossing_over_socket_backends() {
    proxy_crossing_scenario(&World::new_epoll());
}

#[test]
fn socket_worlds_enforce_firewalls_without_a_proxy() {
    // No proxy advertised: the firewalled connect must fail fast with
    // the same error family as the simulated fabric, not hang on a
    // socket that was never reachable.
    let world = World::new_epoll();
    let fe_host = world.add_host();
    let zone = world.add_private_zone(FirewallPolicy::STRICT);
    let remote = world.add_host_in(zone);
    let cass = world.ensure_cass(fe_host).unwrap();
    let err = match world.attr_connect(remote, cass) {
        Err(e) => e,
        Ok(_) => panic!("firewalled connect must fail"),
    };
    assert!(matches!(err, TdpError::BlockedByFirewall { .. }), "{err}");
}

fn app_image() -> ExecImage {
    ExecImage::new(
        ["main", "kernel"],
        Arc::new(|_| {
            fn_program(|ctx| {
                let _ = ctx.read_stdin();
                ctx.call("main", |ctx| {
                    for _ in 0..12 {
                        ctx.call("kernel", |ctx| ctx.compute(10));
                    }
                });
                0
            })
        }),
    )
}

/// E11's "no port arguments anywhere" scenario with every
/// attribute-space byte crossing real sockets. Returns the call trace
/// projected per actor: the scenario runs several daemons concurrently
/// and the *global* interleaving of their trace lines is scheduler
/// noise on any transport (two netsim runs already differ — cf. the
/// Figure 3 caption: creation order across processes is explicitly
/// free), but each actor's own call sequence is deterministic and must
/// be byte-identical across backends.
fn complete_framework_scenario(world: &World) -> std::collections::BTreeMap<String, Vec<String>> {
    let pool = CondorPool::build(world, 1).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    for h in pool.exec_hosts() {
        world
            .os()
            .fs()
            .install_exec(*h, "paradynd", paradynd_image(world.clone()));
    }
    let fe = ParadynFrontend::start(world.net(), pool.submit_host(), 0, 0).unwrap();
    fe.advertise_via_cass(world).unwrap();
    let job = pool
        .submit_str(
            "executable = /bin/app\n+SuspendJobAtExec = True\n+ToolDaemonCmd = \"paradynd\"\n+ToolDaemonArgs = \"-zunix -a%pid\"\nqueue\n",
        )
        .unwrap();
    fe.wait_for_daemons(1, T).unwrap();
    fe.run_all().unwrap();
    assert!(matches!(
        pool.wait_job(job, T).unwrap(),
        JobState::Completed(_)
    ));
    fe.wait_done(1, T).unwrap();
    // `wait_job` returns on the shadow's JobDone, but the starter only
    // records its `tdp_exit()` *after* that exchange — wait for the
    // known tail event, then for the trace to quiesce, so the snapshot
    // doesn't race the scenario's own shutdown.
    let deadline = std::time::Instant::now() + T;
    while world
        .trace()
        .seq_of(Some("starter"), "tdp_exit()")
        .is_none()
    {
        assert!(std::time::Instant::now() < deadline, "starter never exited");
        std::thread::park_timeout(Duration::from_millis(1));
    }
    let mut len = world.trace().events().len();
    loop {
        std::thread::park_timeout(Duration::from_millis(20));
        let now = world.trace().events().len();
        if now == len || std::time::Instant::now() >= deadline {
            break;
        }
        len = now;
    }
    let mut by_actor = std::collections::BTreeMap::<String, Vec<String>>::new();
    for ev in world.trace().events() {
        by_actor.entry(ev.actor).or_default().push(ev.call);
    }
    by_actor
}

#[test]
fn complete_framework_condor_over_socket_backends() {
    let world = World::new_epoll();
    let pool = CondorPool::build(&world, 2).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    for h in pool.exec_hosts() {
        world
            .os()
            .fs()
            .install_exec(*h, "paradynd", paradynd_image(world.clone()));
    }
    let fe = ParadynFrontend::start(world.net(), pool.submit_host(), 0, 0).unwrap();
    fe.advertise_via_cass(&world).unwrap();

    let job = pool
        .submit_str(
            "executable = /bin/app\n+SuspendJobAtExec = True\n+ToolDaemonCmd = \"paradynd\"\n+ToolDaemonArgs = \"-zunix -a%pid\"\nqueue\n",
        )
        .unwrap();
    let daemons = fe.wait_for_daemons(1, T).unwrap();
    assert_eq!(daemons.len(), 1);
    fe.run_all().unwrap();
    match pool.wait_job(job, T).unwrap() {
        JobState::Completed(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
        other => panic!("{other:?}"),
    }
    fe.wait_done(1, T).unwrap();
    let b = PerformanceConsultant::default()
        .search(&fe.samples())
        .unwrap();
    assert_eq!(b.symbol, "kernel");
}

#[test]
fn complete_framework_trace_identical_across_transports() {
    let sim = complete_framework_scenario(&World::new());
    let trace = complete_framework_scenario(&World::new_epoll());
    assert_eq!(sim, trace, "E11 trace diverged on the epoll backend");
}

/// An expired deadline means the same thing on both backends: what has
/// already arrived is still delivered, and only then `Timeout`.
#[test]
fn zero_timeout_delivers_a_queued_frame_on_both_backends() {
    let net = Network::new();
    let (a, b) = (net.add_host(), net.add_host());
    let backends: [(&str, Box<dyn Transport>); 2] = [
        ("netsim", Box::new(SimTransport::new(net))),
        ("epoll", Box::new(EpollTransport::new().unwrap())),
    ];
    for (name, t) in backends {
        let lis = t.listen(b, 7000).unwrap();
        let client = t.connect(a, &lis.local_endpoint()).unwrap();
        let mut server = lis.accept().unwrap();
        assert_eq!(
            server.recv_msg_timeout(Duration::ZERO),
            Err(TdpError::Timeout),
            "{name}: nothing queued"
        );
        let msg = Message::Join { ctx: CTX };
        client.send_msg(&msg).unwrap();
        // Let the loopback segment land in the receiver's socket buffer.
        std::thread::park_timeout(Duration::from_millis(50));
        assert_eq!(
            server.recv_msg_timeout(Duration::ZERO),
            Ok(msg),
            "{name}: a queued frame beats an expired deadline"
        );
    }
}

/// `Duration::MAX` is the natural spelling of "wait forever", and
/// `Instant` cannot hold now + that: it means no deadline, not a panic.
#[test]
fn a_timeout_too_large_for_instant_waits_forever_on_both_backends() {
    const LATER: Duration = Duration::from_millis(50);
    let net = Network::new();
    let (a, b) = (net.add_host(), net.add_host());
    let backends: [(&str, Box<dyn Transport>); 2] = [
        ("netsim", Box::new(SimTransport::new(net))),
        ("epoll", Box::new(EpollTransport::new().unwrap())),
    ];
    for (name, t) in backends {
        let lis = t.listen(b, 7000).unwrap();
        let client = t.connect(a, &lis.local_endpoint()).unwrap();
        let mut server = lis.accept().unwrap();
        let msg = Message::Join { ctx: CTX };
        let late = msg.clone();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(LATER);
            client.send_msg(&late).unwrap();
            client
        });
        assert_eq!(server.recv_msg_timeout(Duration::MAX), Ok(msg), "{name}");
        sender.join().unwrap();
    }
    for world in [World::new(), World::new_epoll()] {
        let mode = world.transport_mode();
        let fe = world.add_host();
        let cass = world.ensure_cass(fe).unwrap();
        let mut getter = world.attr_connect(fe, cass).unwrap();
        let mut putter = world.attr_connect(fe, cass).unwrap();
        getter.join(CTX).unwrap();
        putter.join(CTX).unwrap();
        getter.subscribe(CTX, "later", 9, true).unwrap();
        let put = std::thread::spawn(move || {
            for key in ["late", "later"] {
                std::thread::sleep(LATER);
                putter.put(CTX, key, "v").unwrap();
            }
        });
        assert_eq!(
            getter.get_timeout(CTX, "late", Duration::MAX),
            Ok("v".to_string()),
            "{mode:?}"
        );
        let note = getter.wait_notify(Duration::MAX).unwrap();
        assert_eq!((note.token, note.key.as_str()), (9, "later"), "{mode:?}");
        put.join().unwrap();
    }
}

/// A message over `MAX_FRAME` is refused by the sender, before a byte
/// is written: shipped whole it is answered by the server's decoder
/// ending the session (`TooLarge`), which a redial-armed client reads as
/// a server crash — reconnect, resend, forever.
#[test]
fn oversize_message_is_refused_by_the_sender_on_both_backends() {
    let huge = "x".repeat(tdp::proto::MAX_FRAME + 1);
    for world in [World::new(), World::new_epoll()] {
        let mode = world.transport_mode();
        let fe = world.add_host();
        let cass = world.ensure_cass(fe).unwrap();
        let policy = tdp::attrspace::ReconnectPolicy::default();
        let plain = world.attr_connect(fe, cass).unwrap();
        let armed = world.attr_connect_reliable(fe, cass, policy).unwrap();
        for mut c in [plain, armed] {
            c.join(CTX).unwrap();
            let err = c.put(CTX, "k", &huge).unwrap_err();
            assert!(matches!(err, TdpError::Protocol(_)), "{mode:?}: {err:?}");
            // Refused, not sent: the session is where it was.
            c.put(CTX, "k", "v").unwrap();
            assert_eq!(c.get(CTX, "k").unwrap(), "v", "{mode:?}");
            assert_eq!(c.reconnects(), 0, "{mode:?}");
        }
    }
}

#[test]
fn epoll_soak_500_sessions_bounded_threads() {
    // The scaling claim: a CASS front-end holding 500 live
    // attribute-space sessions must not cost 2×500 wire threads — or
    // any. All 1000 sockets (a client and a server end per session) are
    // read and written by whoever is receiving or sending on them, and
    // the count is this world's own, so sibling tests' worlds cannot
    // leak into it.
    let world = World::new_epoll();
    let fe = world.add_host();
    let cass = world.ensure_cass(fe).unwrap();
    let mut sessions = Vec::with_capacity(500);
    for i in 0..500u64 {
        let mut c = world.attr_connect(fe, cass).unwrap();
        let ctx = ContextId(i);
        c.join(ctx).unwrap();
        c.put(ctx, "session", &format!("s{i}")).unwrap();
        sessions.push((ctx, c));
    }
    assert_eq!(world.wire_conns(), Some(1000));
    // Every session is still live after the count — spot-check
    // them all, not just the survivors of an LRU.
    for (ctx, c) in sessions.iter_mut() {
        let i = ctx.0;
        assert_eq!(c.get(*ctx, "session").unwrap(), format!("s{i}"));
    }
    // No transport in this process, this world's or a sibling test's,
    // runs a reactor thread.
    let threads: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .collect();
    assert!(
        !threads.iter().any(|n| n.starts_with("wire-reactor")),
        "{threads:?}"
    );
    // A connection is counted for as long as either half is held: the
    // client ends go with the sessions, the server ends once the CASS
    // has seen every EOF (or been stopped).
    drop(sessions);
    world.kill_cass();
    let deadline = Instant::now() + Duration::from_secs(10);
    while world.wire_conns() != Some(0) {
        assert!(
            Instant::now() < deadline,
            "connections never released: {:?}",
            world.wire_conns()
        );
        std::thread::park_timeout(Duration::from_millis(5));
    }
}
