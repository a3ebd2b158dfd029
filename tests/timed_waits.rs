//! Every public timed wait has a stated outcome at both ends of its
//! timeout (ISSUE 25): `Duration::MAX` — "wait forever" — with the
//! condition already met returns `Ok` at once, and `Duration::ZERO`
//! with it unmet returns `Err(Timeout)` without blocking. Each wait
//! below used to add its timeout to `Instant::now()` and panicked on
//! `MAX` ("overflow when adding duration to instant"); a panic is
//! caught and reported by name, so one run lists every offender.

use std::net::{TcpListener, TcpStream};
use std::panic;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tdp::condor::shadow::Shadow;
use tdp::condor::{CondorPool, Matchmaker};
use tdp::core::{Supervisable, World};
use tdp::grid::{Gatekeeper, GramClient};
use tdp::lsf::{LsfCluster, LsfRequest};
use tdp::mrnet::{BackEnd, FrontEnd, TreeSpec};
use tdp::ops::{Health, Supervisor, SupervisorConfig};
use tdp::paradyn::ParadynFrontend;
use tdp::proto::{ContextId, JobId, ProcStatus, TdpError, TdpResult};
use tdp::simos::{fn_program, ExecImage, Os, ProcSpec};
use tdp::tools::Tdb;
use tdp_sync::channel::{bounded, RecvTimeoutError};

/// Patience for setting a fixture up — never the timeout under test.
const T: Duration = Duration::from_secs(30);

/// What one wait returned, and how long the wait alone took.
type Outcome = (TdpResult<()>, Duration);

fn timed<R>(wait: impl FnOnce() -> TdpResult<R>) -> Outcome {
    let t0 = Instant::now();
    let res = wait().map(drop);
    (res, t0.elapsed())
}

/// Every public timed wait: `run(met, timeout)` builds a fixture whose
/// condition is `met` (or not) and times the wait on it.
type Case = (&'static str, fn(bool, Duration) -> Outcome);

const CASES: &[Case] = &[
    ("Schedd::wait_job", schedd_wait_job),
    ("Matchmaker::wait_machines", matchmaker_wait_machines),
    ("Shadow::wait_done", shadow_wait_done),
    ("Shadow::wait_started", shadow_wait_started),
    ("Shadow::wait_outcome", shadow_wait_outcome),
    ("Supervisor::wait_health", supervisor_wait_health),
    ("Supervisor::wait_beats", supervisor_wait_beats),
    ("Supervisor::wait_restarts", supervisor_wait_restarts),
    ("Os::wait_terminal", os_wait_terminal),
    ("ParadynFrontend::wait_for_daemons", fe_wait_for_daemons),
    ("ParadynFrontend::wait_done", fe_wait_done),
    ("mrnet FrontEnd::recv_reduce", mrnet_recv_reduce),
    ("mrnet BackEnd::recv_multicast", mrnet_recv_multicast),
    ("LsfCluster::wait_job", lsf_wait_job),
    ("GramClient::wait", gram_wait),
    ("Tdb::wait_stop", tdb_wait_stop),
    ("channel::Receiver::recv_timeout", channel_recv_timeout),
];

#[test]
fn max_waits_forever_and_zero_does_not_wait() {
    let mut wrong = Vec::new();
    for &(name, run) in CASES {
        // (condition met?, label, timeout, bound on the wait alone in ms)
        for (met, label, timeout, bound_ms) in [
            (true, "MAX", Duration::MAX, 2_000),
            (false, "ZERO", Duration::ZERO, 100),
        ] {
            let label = format!("{name}({label})");
            match panic::catch_unwind(|| run(met, timeout)) {
                Err(_) => wrong.push(format!("{label}: panicked")),
                Ok((res, took)) => {
                    match res {
                        Ok(()) if met => {}
                        Err(TdpError::Timeout) if !met => {}
                        other => wrong.push(format!("{label}: returned {other:?}")),
                    }
                    if took > Duration::from_millis(bound_ms) {
                        wrong.push(format!("{label}: took {took:?}"));
                    }
                }
            }
        }
    }
    assert!(wrong.is_empty(), "\n  {}", wrong.join("\n  "));
}

/// `ProcCtx::sleep(Duration::MAX)` is a sleep until killed, and the
/// sleeper is reaped as killed, not crashed.
#[test]
fn proc_sleep_forever_ends_with_a_kill() {
    let os = Os::new();
    let h = tdp::proto::HostId(1);
    let image = ExecImage::from_fn(|_| {
        fn_program(|ctx| {
            ctx.sleep(Duration::MAX);
            0
        })
    });
    os.fs().install_exec(h, "/bin/forever", image);
    let pid = os.spawn(ProcSpec::new(h, "/bin/forever")).unwrap();
    thread::sleep(Duration::from_millis(20));
    assert_eq!(os.status(pid).unwrap(), ProcStatus::Running);
    os.kill(pid, 9).unwrap();
    assert_eq!(os.wait_terminal(pid, T).unwrap(), ProcStatus::Killed(9));
    assert_eq!(os.reap(pid).unwrap(), ProcStatus::Killed(9));
}

/// `write_all_stall(.., Duration::MAX)` on a full socket parks until
/// something changes; the peer's close is such a change.
#[test]
fn write_all_stall_forever_ends_with_the_peer_close() {
    let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
    let (b, _) = l.accept().unwrap();
    let writer = thread::spawn(move || {
        // Far more than both socket buffers hold: the write must park.
        let data = vec![0u8; 64 << 20];
        tdp::wire::socket::write_all_stall(&a, &data, Duration::MAX)
    });
    thread::sleep(Duration::from_millis(100));
    drop(b);
    let err = writer.join().unwrap().unwrap_err();
    assert_ne!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
}

/// `recv_msg_deadline` on both backends: `None` and a deadline already
/// past both deliver a frame that has arrived; with nothing queued the
/// past deadline is `Timeout` at once.
#[test]
fn recv_msg_deadline_none_and_past_on_both_backends() {
    use tdp::wire::{EpollTransport, SimTransport, Transport};
    let net = tdp::netsim::Network::new();
    let (a, b) = (net.add_host(), net.add_host());
    let backends: [(&str, Box<dyn Transport>); 2] = [
        ("netsim", Box::new(SimTransport::new(net))),
        ("epoll", Box::new(EpollTransport::new().unwrap())),
    ];
    let msg = tdp::proto::Message::Join { ctx: ContextId(7) };
    for (name, t) in backends {
        let lis = t.listen(b, 7000).unwrap();
        let client = t.connect(a, &lis.local_endpoint()).unwrap();
        let mut server = lis.accept().unwrap();
        let past = Instant::now();
        assert_eq!(
            server.recv_msg_deadline(Some(past)),
            Err(TdpError::Timeout),
            "{name}: nothing queued"
        );
        client.send_msg(&msg).unwrap();
        assert_eq!(
            server.recv_msg_deadline(None),
            Ok(msg.clone()),
            "{name}: None"
        );
        client.send_msg(&msg).unwrap();
        // A loopback segment may take a moment to land; until it has, a
        // past deadline is rightly `Timeout`, and it consumes nothing.
        let start = Instant::now();
        let got = loop {
            match server.recv_msg_deadline(Some(past)) {
                Err(TdpError::Timeout) if start.elapsed() < T => thread::yield_now(),
                other => break other,
            }
        };
        assert_eq!(
            got,
            Ok(msg.clone()),
            "{name}: a queued frame beats a past deadline"
        );
    }
}

// ------------------------------------------------------------ fixtures

fn exit0() -> ExecImage {
    ExecImage::from_fn(|_| fn_program(|_| 0))
}

/// A pool with `n_exec` machines and one submitted job, finished when
/// `met` (with no machine it never even starts).
fn condor_job(met: bool) -> (World, CondorPool, JobId) {
    let world = World::new();
    let pool = CondorPool::build(&world, usize::from(met)).unwrap();
    pool.install_everywhere("/bin/app", exit0());
    let job = pool.submit_str("executable = /bin/app\nqueue\n").unwrap();
    if met {
        pool.wait_job(job, T).unwrap();
    }
    (world, pool, job)
}

fn schedd_wait_job(met: bool, t: Duration) -> Outcome {
    let (_w, pool, job) = condor_job(met);
    timed(|| pool.schedd().wait_job(job, t))
}

fn matchmaker_wait_machines(met: bool, t: Duration) -> Outcome {
    let world = World::new();
    let mm = Matchmaker::start(world.net(), world.add_host()).unwrap();
    timed(|| mm.wait_machines(t, |_| met))
}

/// The job's shadow once it finished, or a fresh one nobody reports to.
fn shadow(met: bool) -> (World, CondorPool, Arc<Shadow>) {
    let (world, pool, job) = condor_job(met);
    let shadow = match pool.schedd().shadow_of(job) {
        Some(s) if met => s,
        _ => Arc::new(Shadow::start(&world, pool.submit_host(), job).unwrap()),
    };
    (world, pool, shadow)
}

fn shadow_wait_done(met: bool, t: Duration) -> Outcome {
    let (_w, _p, s) = shadow(met);
    timed(|| s.wait_done(1, t))
}

fn shadow_wait_started(met: bool, t: Duration) -> Outcome {
    let (_w, _p, s) = shadow(met);
    timed(|| s.wait_started(0, t))
}

fn shadow_wait_outcome(met: bool, t: Duration) -> Outcome {
    let (_w, _p, s) = shadow(met);
    timed(|| s.wait_outcome(1, t))
}

struct Alive;

impl Supervisable for Alive {
    fn ops_name(&self) -> String {
        "alive".into()
    }

    fn ops_probe(&self) -> TdpResult<()> {
        Ok(())
    }
}

fn supervisor() -> (World, Supervisor) {
    let world = World::new();
    let sup = Supervisor::start(&world, world.add_host(), SupervisorConfig::default()).unwrap();
    sup.register(Arc::new(Alive), || Ok(()));
    (world, sup)
}

fn supervisor_wait_health(met: bool, t: Duration) -> Outcome {
    let (_w, sup) = supervisor();
    let want = if met {
        Health::Healthy
    } else {
        Health::Escalated
    };
    timed(|| sup.wait_health("alive", want, t))
}

fn supervisor_wait_beats(met: bool, t: Duration) -> Outcome {
    let (_w, sup) = supervisor();
    timed(|| sup.wait_beats("alive", if met { 0 } else { u64::MAX }, t))
}

fn supervisor_wait_restarts(met: bool, t: Duration) -> Outcome {
    let (_w, sup) = supervisor();
    timed(|| sup.wait_restarts("alive", u64::from(!met), t))
}

fn os_wait_terminal(met: bool, t: Duration) -> Outcome {
    let os = Os::new();
    let h = tdp::proto::HostId(1);
    os.fs().install_exec(h, "/bin/x", exit0());
    let spec = ProcSpec::new(h, "/bin/x");
    let pid = os.spawn(if met { spec } else { spec.paused() }).unwrap();
    if met {
        os.wait_terminal(pid, T).unwrap();
    }
    let out = timed(|| os.wait_terminal(pid, t));
    let _ = os.kill(pid, 9);
    out
}

fn paradyn_fe() -> (World, ParadynFrontend) {
    let world = World::new();
    let fe = ParadynFrontend::start(world.net(), world.add_host(), 0, 0).unwrap();
    (world, fe)
}

fn fe_wait_for_daemons(met: bool, t: Duration) -> Outcome {
    let (_w, fe) = paradyn_fe();
    timed(|| fe.wait_for_daemons(usize::from(!met), t))
}

fn fe_wait_done(met: bool, t: Duration) -> Outcome {
    let (_w, fe) = paradyn_fe();
    timed(|| fe.wait_done(usize::from(!met), t))
}

fn mrnet_tree() -> (World, FrontEnd, BackEnd) {
    let world = World::new();
    let root = world.add_host();
    let (fe, attach) = FrontEnd::build(world.net(), root, &[], 1, TreeSpec::default()).unwrap();
    let be = BackEnd::connect(world.net(), world.add_host(), attach[0]).unwrap();
    (world, fe, be)
}

fn mrnet_recv_reduce(met: bool, t: Duration) -> Outcome {
    let (_w, fe, be) = mrnet_tree();
    if met {
        be.contribute(0, 5).unwrap();
    }
    timed(|| fe.recv_reduce(0, t))
}

fn mrnet_recv_multicast(met: bool, t: Duration) -> Outcome {
    let (_w, fe, mut be) = mrnet_tree();
    if met {
        fe.multicast(b"go").unwrap();
    }
    timed(|| be.recv_multicast(t))
}

fn lsf_wait_job(met: bool, t: Duration) -> Outcome {
    let world = World::new();
    let cluster = LsfCluster::start(&world, world.add_host()).unwrap();
    let exec = world.add_host();
    world.os().fs().install_exec(exec, "/bin/app", exit0());
    let _sbd = met.then(|| cluster.add_host(exec, 1).unwrap());
    let job = cluster.bsub(LsfRequest::new("/bin/app")).unwrap();
    if met {
        cluster.wait_job(job, T).unwrap();
    }
    timed(|| cluster.wait_job(job, t))
}

fn gram_wait(met: bool, t: Duration) -> Outcome {
    let world = World::new();
    let pool = Arc::new(CondorPool::build(&world, usize::from(met)).unwrap());
    pool.install_everywhere("/bin/app", exit0());
    let gk = Gatekeeper::start(&world, world.add_host(), pool.clone()).unwrap();
    gk.authorize("alice", "tok");
    let user = world.add_host();
    let mut c = GramClient::submit(
        &world,
        user,
        gk.addr(),
        "alice",
        "tok",
        "&(executable=/bin/app)",
    )
    .unwrap();
    if met {
        pool.wait_job(c.job, T).unwrap();
    }
    timed(|| c.wait(t))
}

fn tdb_wait_stop(met: bool, t: Duration) -> Outcome {
    let world = World::new();
    let host = world.add_host();
    world.os().fs().install_exec(host, "/bin/app", exit0());
    let mut dbg = Tdb::launch(&world, host, ContextId(1), "/bin/app", &[]).unwrap();
    if met {
        dbg.run().unwrap();
        dbg.wait_exit(T).unwrap();
    }
    timed(|| dbg.wait_stop(t))
}

fn channel_recv_timeout(met: bool, t: Duration) -> Outcome {
    let (tx, rx) = bounded(1);
    if met {
        tx.send(()).unwrap();
    }
    timed(|| {
        rx.recv_timeout(t).map_err(|e| match e {
            RecvTimeoutError::Timeout => TdpError::Timeout,
            RecvTimeoutError::Disconnected => TdpError::Disconnected,
        })
    })
}
