//! The Parador control plane is event-driven: nothing on the success
//! path of a job sleeps. These tests are the guard — a pause
//! reintroduced between submit and `Completed` shows up here as a job
//! that took a timer quantum, by name, in the CI step "Parador
//! back-to-back".
//!
//! They are a test binary of their own, and run one at a time, because
//! they assert on latencies and on the process's thread count.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tdp_condor::messages::JobDetails;
use tdp_condor::shadow::Shadow;
use tdp_condor::starter::run_starter_observed;
use tdp_condor::{CondorPool, JobState, SubmitDescription};
use tdp_core::World;
use tdp_mpi::{apps, MpiComm};
use tdp_paradyn::{paradynd_image, ParadynFrontend};
use tdp_proto::{JobId, ProcStatus};
use tdp_simos::{fn_program, ExecImage};

const T: Duration = Duration::from_secs(30);

/// The smallest timer this suite would catch coming back: the old
/// schedd retry nap was 15 ms, paradynd's poll 5 ms + 5 ms, the
/// starter's tick is 50 ms. An event-driven job takes well under 1 ms
/// in a release build and a few ms in a debug one.
const QUANTUM: Duration = Duration::from_millis(10);

/// The starter's strict-mode service tick, and the nap the schedd used
/// to take between looks at rank 0's status.
const STARTER_TICK: Duration = Duration::from_millis(50);
const MPI_POLL: Duration = Duration::from_millis(5);

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A failed test must not fail its siblings through a poisoned lock.
fn serial() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// `main` calls `work` argv[0] times and prints the host it ran on.
fn app_image() -> ExecImage {
    ExecImage::new(
        ["main", "work"],
        Arc::new(|args: &[String]| {
            let calls: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(1);
            fn_program(move |ctx| {
                ctx.call("main", |ctx| {
                    for _ in 0..calls {
                        ctx.call("work", |ctx| ctx.compute(10));
                    }
                });
                let host = ctx.host().0.to_string();
                ctx.write_stdout(host.as_bytes());
                0
            })
        }),
    )
}

fn exited_cleanly(state: &JobState) -> bool {
    matches!(state, JobState::Completed(ranks)
        if !ranks.is_empty() && ranks.values().all(|s| *s == ProcStatus::Exited(0)))
}

/// Submit, wait, and return how long submit → `Completed` took.
fn run_job(pool: &CondorPool, submit: &str) -> Duration {
    let t0 = Instant::now();
    let job = pool.submit_str(submit).unwrap();
    let state = pool.wait_job(job, T).unwrap();
    let took = t0.elapsed();
    assert!(exited_cleanly(&state), "{job}: {state:?}");
    took
}

fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

fn sorted(mut v: Vec<Duration>) -> Vec<Duration> {
    v.sort();
    v
}

/// Every slot advertised free again: the pool is quiescent.
fn wait_all_free(pool: &CondorPool, n: usize) {
    pool.matchmaker()
        .wait_machines(T, |m| m.iter().filter(|(_, free)| *free).count() >= n)
        .expect("a slot was never advertised free again");
}

#[test]
fn three_hundred_monitored_jobs_back_to_back_never_wait_on_a_timer() {
    let _serial = serial();
    const JOBS: usize = 300;
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
    // Figure 5B; job i asks for 1 + i % 7 calls of `work`.
    let submit = |i: usize| {
        format!(
            "executable = /bin/app\narguments = {}\n+SuspendJobAtExec = True\n\
             +ToolDaemonCmd = \"paradynd\"\n\
             +ToolDaemonArgs = \"-m{} -p{} -P{} -a%pid -A\"\nqueue\n",
            1 + i % 7,
            fe.host().0,
            fe.control_addr().port.0,
            fe.data_addr().port.0
        )
    };
    // One job first, so the exec host's LASS and every other
    // once-per-world thread exists before the census.
    run_job(&pool, &submit(0));
    wait_all_free(&pool, 1);
    fe.wait_done(1, T).unwrap();
    let threads_before = process_threads();

    let took: Vec<Duration> = (1..=JOBS).map(|i| run_job(&pool, &submit(i))).collect();

    // The front-end holds one DONE per job and the right call counts.
    let done = fe.wait_done(JOBS + 1, T).unwrap();
    assert_eq!(done.len(), JOBS + 1);
    assert!(done.values().all(|s| *s == ProcStatus::Exited(0)));
    let mut seen: Vec<u64> = fe
        .samples()
        .iter()
        .filter(|s| s.symbol == "work")
        .map(|s| s.count)
        .collect();
    let mut want: Vec<u64> = (0..=JOBS).map(|i| 1 + i as u64 % 7).collect();
    seen.sort_unstable();
    want.sort_unstable();
    assert_eq!(seen, want);

    // No job sat out a timer: each was submitted right behind the last
    // one, which is exactly when the old retry nap hit every time. A
    // pause on the success path is paid by every job, so the median is
    // the detector; the stragglers allowed for are the shared host's
    // (a debug build next to two other test binaries reads 0 to 3).
    let took = sorted(took);
    let slow = took.iter().filter(|t| **t >= QUANTUM).count();
    eprintln!(
        "{JOBS} monitored jobs: p50 {:?}, p99 {:?}, max {:?}, {slow} of them ≥ {QUANTUM:?}",
        took[JOBS / 2],
        took[JOBS * 99 / 100],
        took[JOBS - 1]
    );
    assert!(took[JOBS / 2] < QUANTUM / 2, "median {:?}", took[JOBS / 2]);
    assert!(slow <= JOBS / 50, "{slow} jobs took {QUANTUM:?} or more");

    // Per-job threads (schedd, shadow, starter, sessions, the two
    // simulated processes) are gone once the pool is quiet.
    wait_all_free(&pool, 1);
    let deadline = Instant::now() + T;
    while process_threads() > threads_before {
        assert!(
            Instant::now() < deadline,
            "{} threads, {threads_before} before the run",
            process_threads()
        );
        std::thread::yield_now();
    }
}

#[test]
fn starter_notices_an_application_that_exited_before_its_watch() {
    // The race, forced: the starter's `on_app_pid` hook runs between
    // `create_process` and `watch`, and here it does not return until
    // the application is gone. Its terminal event reached no watcher;
    // the starter must find out from the status it reads once the
    // watch is registered, not when its 50 ms tick next comes round.
    let _serial = serial();
    let world = World::new();
    let (submit_host, exec) = (world.add_host(), world.add_host());
    world
        .os()
        .fs()
        .install_exec(exec, "/bin/true", ExecImage::from_fn(|_| fn_program(|_| 0)));
    let job = JobId(1);
    let shadow = Shadow::start(&world, submit_host, job).unwrap();
    let details = JobDetails {
        job,
        submit: SubmitDescription::parse("executable = /bin/true\nqueue\n").unwrap(),
        shadow: shadow.addr(),
        submit_host,
        rank: 0,
        tool_auto_run: false,
    };
    let mut exited_at = None;
    let status = run_starter_observed(&world, exec, &details, |pid| {
        world.os().wait_terminal(pid, T).unwrap();
        exited_at = Some(Instant::now());
    })
    .unwrap();
    let lag = exited_at.unwrap().elapsed();
    assert_eq!(status, ProcStatus::Exited(0));
    assert_eq!(shadow.wait_done(1, T).unwrap()[&0], ProcStatus::Exited(0));
    assert!(lag < STARTER_TICK / 2, "starter took {lag:?} to notice");
}

#[test]
fn plain_jobs_that_exit_at_once_run_back_to_back_under_a_quantum() {
    // No `+SuspendJobAtExec`, a program that returns at once — the job
    // most likely to be gone before the starter looks.
    let _serial = serial();
    const JOBS: usize = 200;
    let world = World::new();
    let pool = CondorPool::build(&world, 1).unwrap();
    pool.install_everywhere("/bin/true", ExecImage::from_fn(|_| fn_program(|_| 0)));
    let took = sorted(
        (0..JOBS)
            .map(|_| run_job(&pool, "executable = /bin/true\nqueue\n"))
            .collect(),
    );
    eprintln!(
        "{JOBS} plain jobs: p50 {:?}, p90 {:?}, max {:?}",
        took[JOBS / 2],
        took[JOBS * 9 / 10],
        took[JOBS - 1]
    );
    assert!(took[JOBS / 2] < QUANTUM, "median {:?}", took[JOBS / 2]);
    assert!(
        took[JOBS * 9 / 10] < QUANTUM,
        "p90 {:?}",
        took[JOBS * 9 / 10]
    );
}

#[test]
fn a_herd_of_jobs_against_one_slot_all_complete() {
    // Sixteen negotiators are told about the same freed slot; one claim
    // wins, the rest are `ClaimRejected` and take the paced failure
    // path back into a parked negotiate. Nobody is starved or lost.
    let _serial = serial();
    let world = World::new();
    let pool = CondorPool::build(&world, 1).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    let jobs: Vec<JobId> = (0..16)
        .map(|_| {
            pool.submit_str("executable = /bin/app\narguments = 3\nqueue\n")
                .unwrap()
        })
        .collect();
    for job in jobs {
        let state = pool.wait_job(job, T).unwrap();
        assert!(exited_cleanly(&state), "{job}: {state:?}");
    }
}

#[test]
fn stale_ad_of_a_dead_host_neither_starves_nor_spins() {
    let _serial = serial();
    let world = World::new();
    let pool = CondorPool::build(&world, 2).unwrap();
    pool.install_everywhere("/bin/app", app_image());
    pool.install_everywhere(
        "/bin/hold",
        ExecImage::from_fn(|_| {
            fn_program(|ctx| {
                ctx.sleep(Duration::from_millis(600));
                0
            })
        }),
    );
    let (dead, live) = (pool.exec_hosts()[0], pool.exec_hosts()[1]);
    // Every Negotiate is one dial to the matchmaker, so dials counted
    // against a healthy run of the same job are Negotiates.
    let dials = || world.net().stats().connections_opened;
    let submit = "executable = /bin/app\noutput = where\nqueue\n";
    let ran_on = || {
        let out = world
            .os()
            .fs()
            .read_file(pool.submit_host(), "where")
            .unwrap();
        String::from_utf8(out).unwrap()
    };

    let d0 = dials();
    run_job(&pool, submit);
    wait_all_free(&pool, 2);
    let healthy = dials() - d0;
    assert_eq!(ran_on(), dead.0.to_string(), "name order ranks it first");

    // The host dies; nobody withdraws its ad, which still says "free"
    // and still ranks first.
    world.kill_host(dead);
    assert!(pool.matchmaker().machines().iter().all(|(_, free)| *free));

    // A live machine is free: the job runs there, for the price of one
    // more Negotiate (the one that leaves the dead machine out).
    let d0 = dials();
    run_job(&pool, submit);
    wait_all_free(&pool, 2);
    assert_eq!(ran_on(), live.0.to_string());
    let extra = (dials() - d0).saturating_sub(healthy);
    assert!(extra <= 2, "{extra} extra dials with a live machine free");

    // The live machine is busy: the job waits for it. All that time the
    // stale ad keeps answering its negotiates at once and the claim
    // keeps failing, and the Backoff — not the matchmaker — is what
    // holds the rate down: two Negotiates per delay, delays doubling
    // from 1 ms to a 250 ms cap (at least half of each is slept).
    let d0 = dials();
    let t0 = Instant::now();
    let hold = pool.submit_str("executable = /bin/hold\nqueue\n").unwrap();
    pool.matchmaker()
        .wait_machines(T, |m| m.iter().any(|(_, free)| !*free))
        .unwrap();
    let took = run_job(&pool, submit);
    assert!(exited_cleanly(&pool.wait_job(hold, T).unwrap()));
    wait_all_free(&pool, 2);
    assert_eq!(ran_on(), live.0.to_string());
    let rounds_to_cap = 9; // 1, 2, 4 … 256 ms
    let rounds = rounds_to_cap + t0.elapsed().as_millis() as u64 / 125;
    let extra = (dials() - d0).saturating_sub(2 * healthy);
    assert!(
        extra <= 2 * rounds + 2,
        "{extra} extra dials in {:?} (job waited {took:?})",
        t0.elapsed()
    );
}

#[test]
fn mpi_staged_startup_holds_its_order_without_a_poll_quantum() {
    // Untooled MPI job: rank 0 is activated first and rank 1 only once
    // rank 0 reports `Running`; the ring cannot complete unless both
    // ran. That wait is on the shadow's condvar now, so a whole job
    // fits inside what used to be its poll nap. (The four-rank ordering
    // with tools is `tests/mpi_universe.rs`.)
    let _serial = serial();
    const JOBS: usize = 30;
    let world = World::new();
    let pool = CondorPool::build(&world, 2).unwrap();
    let took = sorted(
        (0..JOBS)
            .map(|i| {
                let exe = format!("ring{i}");
                pool.install_everywhere(&exe, apps::ring(MpiComm::new(2), 1, 1));
                let took = run_job(
                    &pool,
                    &format!("universe = MPI\nexecutable = {exe}\nmachine_count = 2\nqueue\n"),
                );
                wait_all_free(&pool, 2);
                took
            })
            .collect(),
    );
    eprintln!(
        "{JOBS} 2-rank MPI jobs: min {:?}, p50 {:?}, max {:?}",
        took[0],
        took[JOBS / 2],
        took[JOBS - 1]
    );
    // Every job used to contain the full nap, so none could beat it;
    // the fastest one is also the reading a busy host disturbs least.
    assert!(took[0] < MPI_POLL, "fastest job took {:?}", took[0]);
}
