//! `report` — regenerate every quantitative row of `EXPERIMENTS.md` in
//! one run (medians of quick in-process measurements; the criterion
//! harnesses in `benches/` are the careful versions).
//!
//! ```text
//! cargo run -q --release -p tdp-bench --bin report
//! ```

use std::sync::Arc;
use std::time::Duration;
use tdp_bench::{fmt_dur, median_time};
use tdp_condor::{CondorPool, JobState};
use tdp_core::{Role, TdpCreate, TdpHandle, World};
use tdp_lsf::{LsfCluster, LsfJobState, LsfRequest};
use tdp_mpi::{apps, MpiComm};
use tdp_mrnet::{BackEnd, FrontEnd, ReduceOp, TreeSpec};
use tdp_netsim::{proxy, FirewallPolicy, Network};
use tdp_paradyn::{paradynd_image, ParadynFrontend};
use tdp_proto::{Addr, ContextId, HostId};
use tdp_simos::{fn_program, ExecImage};
use tdp_tools::{tracey_image, vamp_image};

const T: Duration = Duration::from_secs(60);

fn header(title: &str) {
    println!("\n## {title}\n");
}

fn row(label: &str, value: impl std::fmt::Display) {
    println!("  {label:<46} {value}");
}

fn app_image() -> ExecImage {
    ExecImage::new(
        ["main", "work"],
        Arc::new(|_| {
            fn_program(|ctx| {
                ctx.call("main", |ctx| {
                    for _ in 0..10 {
                        ctx.call("work", |ctx| ctx.compute(10));
                    }
                });
                0
            })
        }),
    )
}

fn b1_attrspace() {
    header("B1 — Attribute space (§2.1/§3.2)");
    let world = World::new();
    let host = world.add_host();
    let mut rm = TdpHandle::init(&world, host, ContextId(1), "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&world, host, ContextId(1), "rt", Role::Tool).unwrap();
    rm.put("warm", "1").unwrap();
    let mut i = 0u64;
    row(
        "tdp_put (median)",
        fmt_dur(median_time(2000, || {
            i += 1;
            rm.put("k", &i.to_string()).unwrap();
        })),
    );
    row(
        "tdp_get hit (median)",
        fmt_dur(median_time(2000, || {
            rt.get("k").unwrap();
        })),
    );
    row(
        "tdp_get miss, non-blocking (median)",
        fmt_dur(median_time(2000, || {
            let _ = rt.try_get("never");
        })),
    );
    // Blocking wake-up round trip.
    let mut n = 0u64;
    let wake = median_time(50, || {
        n += 1;
        let key = format!("wake{n}");
        let world2 = world.clone();
        let key2 = key.clone();
        let waiter = std::thread::Builder::new()
            .name("bench-wake-waiter".into())
            .spawn(move || {
                let mut w = TdpHandle::init(&world2, host, ContextId(1), "w", Role::Tool).unwrap();
                w.get(&key2).unwrap()
            })
            .expect("spawn waiter");
        std::thread::sleep(Duration::from_micros(200));
        rm.put(&key, "v").unwrap();
        waiter.join().unwrap();
    });
    row("blocking get wake-up (incl. thread join)", fmt_dur(wake));
}

fn b7_wire() {
    header("B7 — Transports: netsim vs epoll");
    for (name, world) in [("netsim", World::new()), ("epoll", World::new_epoll())] {
        let host = world.add_host();
        let mut rm =
            TdpHandle::init(&world, host, ContextId(1), "rm", Role::ResourceManager).unwrap();
        let mut rt = TdpHandle::init(&world, host, ContextId(1), "rt", Role::Tool).unwrap();
        rm.put("warm", "1").unwrap();
        let mut i = 0u64;
        row(
            &format!("tdp_put over {name} (median)"),
            fmt_dur(median_time(2000, || {
                i += 1;
                rm.put("k", &i.to_string()).unwrap();
            })),
        );
        row(
            &format!("tdp_get hit over {name} (median)"),
            fmt_dur(median_time(2000, || {
                rt.get("k").unwrap();
            })),
        );
    }
}

fn b8_connection_scaling() {
    header("B8 — Connection scaling: aggregate put rate × wire threads");
    println!("  backend × sessions                             agg rate   latency    wire threads");
    const TOTAL_OPS: usize = 2000;
    for n in [1usize, 8, 100] {
        for (name, world) in [("netsim", World::new()), ("epoll", World::new_epoll())] {
            let host = world.add_host();
            // The RM's init starts the LASS; sessions are Tool handles.
            let _rm =
                TdpHandle::init(&world, host, ContextId(1), "rm", Role::ResourceManager).unwrap();
            let mut sessions: Vec<TdpHandle> = (0..n)
                .map(|i| {
                    TdpHandle::init(&world, host, ContextId(1), &format!("s{i}"), Role::Tool)
                        .unwrap()
                })
                .collect();
            let per_conn = TOTAL_OPS / n;
            let t0 = std::time::Instant::now();
            std::thread::scope(|s| {
                for h in sessions.iter_mut() {
                    s.spawn(move || {
                        for i in 0..per_conn {
                            h.put("k", &i.to_string()).unwrap();
                        }
                    });
                }
            });
            let wall = t0.elapsed();
            let rate = (per_conn * n) as f64 / wall.as_secs_f64();
            let latency = fmt_dur(Duration::from_secs_f64(
                wall.as_secs_f64() / per_conn.max(1) as f64,
            ));
            let threads = tdp_wire::wire_thread_count();
            row(
                &format!("{name} × {n} sessions"),
                format!("{rate:>9.0}/s   {latency:>7}    {threads}"),
            );
        }
    }
    println!(
        "  (latency = wall / per-session ops; epoll thread count stays flat as sessions grow)"
    );

    // Session sweep: the epoll backend's aggregate put rate as session
    // count climbs into the hundreds. A fixed pool of driver threads
    // multiplexes the sessions (the way scalability harnesses like
    // memtier drive many connections), so the curve measures the
    // transport's capacity rather than client-side scheduler thrash
    // from one OS thread per session.
    // Each session performs the same number of puts regardless of n,
    // and gets one warm-up put before the barrier so per-connection
    // pools and decoder buffers are at steady state inside the window.
    println!();
    println!("  epoll session sweep                            agg rate   latency    wire threads");
    const SWEEP_DRIVERS: usize = 8;
    const OPS_PER_SESSION: usize = 20;
    for n in [100usize, 250, 500, 1000] {
        let world = World::new_epoll();
        let host = world.add_host();
        let _rm = TdpHandle::init(&world, host, ContextId(1), "rm", Role::ResourceManager).unwrap();
        let mut sessions: Vec<TdpHandle> = (0..n)
            .map(|i| {
                TdpHandle::init(&world, host, ContextId(1), &format!("s{i}"), Role::Tool).unwrap()
            })
            .collect();
        let drivers = SWEEP_DRIVERS.min(n);
        let barrier = &tdp_sync::Barrier::new(drivers + 1);
        let mut t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for chunk in sessions.chunks_mut(n.div_ceil(drivers)) {
                s.spawn(move || {
                    for h in chunk.iter_mut() {
                        h.put("warm", "1").unwrap();
                    }
                    barrier.wait();
                    for i in 0..OPS_PER_SESSION {
                        let v = i.to_string();
                        for h in chunk.iter_mut() {
                            h.put("k", &v).unwrap();
                        }
                    }
                });
            }
            barrier.wait();
            t0 = std::time::Instant::now();
        });
        let wall = t0.elapsed();
        let total = OPS_PER_SESSION * n;
        let rate = total as f64 / wall.as_secs_f64();
        let latency = fmt_dur(Duration::from_secs_f64(
            wall.as_secs_f64() * drivers as f64 / total as f64,
        ));
        let threads = tdp_wire::wire_thread_count();
        row(
            &format!("{n} sessions, 8 drivers"),
            format!("{rate:>9.0}/s   {latency:>7}    {threads}"),
        );
    }
    println!(
        "  (8 driver threads multiplex the sessions; rate = total puts / timed wall, \
         latency = per-put time seen by one driver)"
    );
}

fn b2_process() {
    header("B2 — Process management (§3.1)");
    let world = World::new();
    let host = world.add_host();
    world.os().fs().install_exec(host, "/bin/noop", app_image());
    let mut rm = TdpHandle::init(&world, host, ContextId(1), "rm", Role::ResourceManager).unwrap();
    row(
        "create(run) → exit (median)",
        fmt_dur(median_time(200, || {
            let pid = rm.create_process(TdpCreate::new("/bin/noop")).unwrap();
            rm.wait_terminal(pid, T).unwrap();
        })),
    );
    row(
        "create(paused)+attach+probe+continue → exit",
        fmt_dur(median_time(200, || {
            let pid = rm
                .create_process(TdpCreate::new("/bin/noop").paused())
                .unwrap();
            rm.attach(pid).unwrap();
            rm.arm_probe(pid, "work").unwrap();
            rm.continue_process(pid).unwrap();
            rm.wait_terminal(pid, T).unwrap();
            let _ = rm.detach(pid);
        })),
    );
}

fn b3_proxy() {
    header("B3 — Tool channel: direct vs proxied (§2.4)");
    let net = Network::new();
    let fe = net.add_host();
    let zone = net.add_private_zone(FirewallPolicy::NAT);
    let exec = net.add_host_in(zone);
    let gw = net.add_host_in(zone);
    let listener = net.listen(fe, 2090).unwrap();
    let fe_addr = Addr::new(fe, 2090);
    net.authorize_route(gw, fe_addr);
    let p = proxy::spawn(&net, gw, 9618).unwrap();
    std::thread::Builder::new()
        .name("bench-echo-accept".into())
        .spawn(move || {
            while let Ok(conn) = listener.accept() {
                std::thread::Builder::new()
                    .name("bench-echo-conn".into())
                    .spawn(move || {
                        let (tx, mut rx) = conn.split();
                        while let Ok(chunk) = rx.recv() {
                            if tx.send_bytes(chunk).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn echo conn");
            }
        })
        .expect("spawn echo accept");
    let payload = vec![0u8; 256];
    let mut direct = net.connect(exec, fe_addr).unwrap();
    let d = median_time(2000, || {
        direct.send(&payload).unwrap();
        direct.recv().unwrap();
    });
    let mut proxied = proxy::connect_via(&net, exec, p.addr(), fe_addr).unwrap();
    let pr = median_time(2000, || {
        proxied.send(&payload).unwrap();
        proxied.recv().unwrap();
    });
    row("round trip 256 B, direct", fmt_dur(d));
    row("round trip 256 B, via RM proxy", fmt_dur(pr));
    row(
        "proxy cost factor",
        format!("{:.1}x", pr.as_nanos() as f64 / d.as_nanos().max(1) as f64),
    );
}

fn b4_parador() {
    header("B4 — Parador end-to-end (§4.3)");
    // Without tool.
    let world = World::new();
    let pool = CondorPool::build(&world, 1).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    let plain = median_time(7, || {
        let job = pool.submit_str("executable = /bin/app\nqueue\n").unwrap();
        assert!(matches!(
            pool.wait_job(job, T).unwrap(),
            JobState::Completed(_)
        ));
    });
    // With paradynd (auto-run).
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
        "executable = /bin/app\n+SuspendJobAtExec = True\n+ToolDaemonCmd = \"paradynd\"\n+ToolDaemonArgs = \"-m{} -p{} -P{} -a%pid -A\"\nqueue\n",
        fe.host().0, fe.control_addr().port.0, fe.data_addr().port.0
    );
    let with_tool = median_time(7, || {
        let job = pool.submit_str(&submit).unwrap();
        assert!(matches!(
            pool.wait_job(job, T).unwrap(),
            JobState::Completed(_)
        ));
    });
    // The other scheduler, same job: FIFO dispatch vs matchmaking.
    let world = World::new();
    let master = world.add_host();
    let exec = world.add_host();
    world.os().fs().install_exec(exec, "/bin/app", app_image());
    let cluster = LsfCluster::start(&world, master).unwrap();
    let _sbd = cluster.add_host(exec, 1).unwrap();
    while cluster.bhosts().is_empty() {
        std::thread::sleep(Duration::from_millis(2));
    }
    let lsf_plain = median_time(7, || {
        let job = cluster.bsub(LsfRequest::new("/bin/app")).unwrap();
        assert!(matches!(
            cluster.wait_job(job, T).unwrap(),
            LsfJobState::Done(_)
        ));
    });
    row("condor job, no tool (median)", fmt_dur(plain));
    row("lsf job, no tool (median)", fmt_dur(lsf_plain));
    row("condor job + paradynd via TDP (median)", fmt_dur(with_tool));
    row(
        "monitoring overhead factor",
        format!(
            "{:.1}x",
            with_tool.as_nanos() as f64 / plain.as_nanos().max(1) as f64
        ),
    );

    // MPI startup scaling.
    for n in [2u32, 4, 8] {
        let t = median_time(3, || {
            let world = World::new();
            let pool = CondorPool::build(&world, n as usize).unwrap();
            let comm = MpiComm::new(n);
            pool.install_everywhere("ring", apps::ring(comm, 1, 1));
            let job = pool
                .submit_str(&format!(
                    "universe = MPI\nexecutable = ring\nmachine_count = {n}\nqueue\n"
                ))
                .unwrap();
            assert!(matches!(
                pool.wait_job(job, T).unwrap(),
                JobState::Completed(_)
            ));
        });
        row(&format!("MPI universe startup+run, {n} ranks"), fmt_dur(t));
    }
}

fn b5_mrnet() {
    header("AS — MRNet-style reduction tree (§2)");
    for n in [4usize, 16, 64] {
        let net = Network::new();
        let root = net.add_host();
        let hosts: Vec<HostId> = (0..8).map(|_| net.add_host()).collect();
        let (fe, attach) = FrontEnd::build(
            &net,
            root,
            &hosts,
            n,
            TreeSpec {
                fanout: 4,
                op: ReduceOp::Sum,
            },
        )
        .unwrap();
        let backends: Vec<BackEnd> = attach
            .iter()
            .enumerate()
            .map(|(i, a)| BackEnd::connect(&net, hosts[i % hosts.len()], *a).unwrap())
            .collect();
        let mut wave = 0u64;
        let t = median_time(300, || {
            wave += 1;
            for be in &backends {
                be.contribute(wave, 1).unwrap();
            }
            assert_eq!(fe.recv_reduce(wave, T).unwrap(), n as u64);
        });
        row(
            &format!("reduction wave, {n} leaves (fanout 4)"),
            fmt_dur(t),
        );
    }
}

fn e10_matrix() {
    header("E10 — m + n matrix (§1)");
    println!("  scheduler × tool                               result");
    type ToolCtor = fn(World) -> ExecImage;
    let tools: Vec<(&str, ToolCtor)> = vec![("tracey", tracey_image), ("vamp", vamp_image)];
    for (tool, ctor) in &tools {
        // Condor.
        {
            let world = World::new();
            let pool = CondorPool::build(&world, 1).unwrap();
            pool.install_everywhere("/bin/app", app_image());
            for h in pool.exec_hosts() {
                world.os().fs().install_exec(*h, tool, ctor(world.clone()));
            }
            let job = pool
                .submit_str(&format!(
                    "executable = /bin/app\n+SuspendJobAtExec = True\n+ToolDaemonCmd = \"{tool}\"\nqueue\n"
                ))
                .unwrap();
            let ok = matches!(pool.wait_job(job, T).unwrap(), JobState::Completed(_));
            row(&format!("condor × {tool}"), if ok { "OK" } else { "FAIL" });
        }
        // LSF.
        {
            let world = World::new();
            let master = world.add_host();
            let exec = world.add_host();
            world.os().fs().install_exec(exec, "/bin/app", app_image());
            world
                .os()
                .fs()
                .install_exec(exec, tool, ctor(world.clone()));
            let cluster = LsfCluster::start(&world, master).unwrap();
            let _sbd = cluster.add_host(exec, 1).unwrap();
            let job = cluster
                .bsub(LsfRequest::new("/bin/app").suspended().tool(*tool, vec![]))
                .unwrap();
            let ok = matches!(cluster.wait_job(job, T).unwrap(), LsfJobState::Done(_));
            row(&format!("lsf × {tool}"), if ok { "OK" } else { "FAIL" });
        }
    }
    println!("  (paradynd × both schedulers and tdb × minirm are covered in the test suite)");
}

fn b9_gateway() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tdp_gateway::{install_daemon_image, Gateway, GatewayConfig, HttpRpcClient, Json};
    use tdp_sync::Barrier;

    header("B9 — Gateway load: HTTP fan-in over a fixed TDP bridge");
    const CLIENTS: usize = 200;
    const PER_CLIENT: usize = 20;

    let world = World::new();
    let gw_host = world.add_host();
    install_daemon_image(&world, gw_host, "/bin/rtd");
    let gw = Gateway::start(
        &world,
        gw_host,
        GatewayConfig {
            workers: 8,
            pool_size: 8,
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let addr = gw.addr();

    // A supervised RT daemon that will be murdered mid-load.
    let mut admin = HttpRpcClient::connect(addr).unwrap();
    admin
        .call(
            "proc.spawn",
            Json::obj([
                ("name", Json::from("rt-bench")),
                ("host", Json::from(gw_host.0)),
                ("executable", Json::from("/bin/rtd")),
            ]),
        )
        .unwrap();

    let start = Arc::new(Barrier::new(CLIENTS + 1));
    let invoke_errors = Arc::new(AtomicUsize::new(0));
    let list_failures = Arc::new(AtomicUsize::new(0));
    let stop_lister = Arc::new(AtomicUsize::new(0));

    // Background `proc.list` poller: must never fail, even while the
    // daemon is down and the supervisor is mid-restart.
    let lister = {
        let (failures, stop) = (Arc::clone(&list_failures), Arc::clone(&stop_lister));
        std::thread::Builder::new()
            .name("bench-gw-lister".into())
            .spawn(move || {
                let mut c = HttpRpcClient::connect(addr).unwrap();
                let mut calls = 0usize;
                while stop.load(Ordering::SeqCst) == 0 {
                    if c.call("proc.list", Json::Obj(Vec::new())).is_err() {
                        failures.fetch_add(1, Ordering::SeqCst);
                    }
                    calls += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                calls
            })
            .expect("spawn lister")
    };

    // 200 concurrent HTTP clients: each alternates a timed `tool.invoke
    // echo` with an attribute write through the bridge pool.
    let mut handles = Vec::new();
    for i in 0..CLIENTS {
        let start = Arc::clone(&start);
        let errors = Arc::clone(&invoke_errors);
        let worker = std::thread::Builder::new()
            .name(format!("bench-gw-client-{i}"))
            .spawn(move || {
                let mut c = HttpRpcClient::connect(addr).unwrap();
                let mut lat = Vec::with_capacity(PER_CLIENT);
                start.wait();
                for j in 0..PER_CLIENT {
                    let t = std::time::Instant::now();
                    if c.invoke("echo", Json::obj([("n", Json::from(j as u64))]))
                        .is_err()
                    {
                        errors.fetch_add(1, Ordering::SeqCst);
                    }
                    lat.push(t.elapsed());
                    if c.call(
                        "attr.put",
                        Json::obj([
                            ("ctx", Json::Int(9)),
                            ("key", Json::from(format!("client.{i}"))),
                            ("value", Json::from(j.to_string())),
                        ]),
                    )
                    .is_err()
                    {
                        errors.fetch_add(1, Ordering::SeqCst);
                    }
                }
                lat
            })
            .expect("spawn client");
        handles.push(worker);
    }

    let t0 = std::time::Instant::now();
    start.wait();
    // Mid-load chaos: kill the RT daemon's process and let the ops
    // patrol loop respawn it while requests keep flowing.
    std::thread::sleep(Duration::from_millis(50));
    admin
        .call("proc.crash", Json::obj([("name", Json::from("rt-bench"))]))
        .unwrap();
    let restart = gw
        .core()
        .supervisor()
        .expect("bench gateway runs supervised")
        .wait_restarts("gw.rt-bench", 1, Duration::from_secs(30));

    let mut lat: Vec<Duration> = Vec::new();
    for h in handles {
        lat.extend(h.join().unwrap());
    }
    let wall = t0.elapsed();
    stop_lister.store(1, Ordering::SeqCst);
    let list_calls = lister.join().unwrap();

    lat.sort();
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
    let total = CLIENTS * PER_CLIENT;
    row(
        &format!("{CLIENTS} clients × {PER_CLIENT} invokes"),
        format!("{:.0}/s aggregate", (total * 2) as f64 / wall.as_secs_f64()),
    );
    row("invoke latency p50 / p99 / max", {
        format!(
            "{} / {} / {}",
            fmt_dur(pct(0.50)),
            fmt_dur(pct(0.99)),
            fmt_dur(lat[lat.len() - 1])
        )
    });
    row(
        "TDP sessions under the fan-in",
        format!(
            "{} total = {} bridge pool + 1 ops publisher",
            world.attr_session_count(),
            gw.core().bridge().pool_size()
        ),
    );
    row(
        "daemon kill mid-load",
        match restart {
            Ok(_) => "restarted by supervisor".to_string(),
            Err(e) => format!("FAIL: {e}"),
        },
    );
    row(
        "proc.list during restart",
        format!(
            "{list_calls} calls, {} failed",
            list_failures.load(Ordering::SeqCst)
        ),
    );
    row(
        "invoke errors under chaos",
        invoke_errors.load(Ordering::SeqCst),
    );
}

fn e18_ops() {
    header("E18 — Supervision daemon (tdp-ops)");
    // The same scripted scenario `tdp-ops --kpi-dump` runs: a
    // supervised deployment, one LASS killed, recovery measured.
    match tdp_ops::demo::kpi_dump() {
        Ok(kpis) => {
            for (k, v) in &kpis {
                row(k, v);
            }
        }
        Err(e) => row("ops demo", format!("FAIL: {e}")),
    }
}

fn main() {
    println!("# TDP experiment report (regenerates EXPERIMENTS.md quantitative rows)");
    println!(
        "# build: {} | medians of quick in-process runs",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    b1_attrspace();
    b7_wire();
    b8_connection_scaling();
    b2_process();
    b3_proxy();
    b4_parador();
    b5_mrnet();
    e10_matrix();
    b9_gateway();
    e18_ops();
    println!("\ndone.");
}
