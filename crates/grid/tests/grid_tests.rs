//! Grid-layer tests: authentication, RSL translation, and the full
//! stack — remote user → gatekeeper → batch system → TDP → tool.

use std::sync::Arc;
use std::time::Duration;
use tdp_condor::CondorPool;
use tdp_core::World;
use tdp_grid::{Gatekeeper, GramClient, GramState, GridJobRequest, Rsl};
use tdp_lsf::LsfCluster;
use tdp_paradyn::{paradynd_image, ParadynFrontend};
use tdp_proto::{Json, ProcStatus, TdpError};
use tdp_simos::{fn_program, ExecImage};
use tdp_tools::tracey_image;

const T: Duration = Duration::from_secs(60);

fn app_image() -> ExecImage {
    ExecImage::new(
        ["main", "work"],
        Arc::new(|_| {
            fn_program(|ctx| {
                ctx.call("main", |ctx| {
                    for _ in 0..6 {
                        ctx.call("work", |ctx| ctx.compute(10));
                    }
                });
                ctx.write_stdout(b"grid job output");
                0
            })
        }),
    )
}

#[test]
fn rsl_to_request_translation() {
    let rsl = Rsl::parse(
        r#"&(executable=/bin/app)(arguments="a b")(count=3)(tool=paradynd)(tool_args="-a%pid -A")(output=out)"#,
    )
    .unwrap();
    let req = GridJobRequest::from_rsl(&rsl).unwrap();
    assert_eq!(req.executable, "/bin/app");
    assert_eq!(req.arguments, vec!["a", "b"]);
    assert_eq!(req.count, 3);
    assert_eq!(req.output.as_deref(), Some("out"));
    assert!(req.suspend_at_exec, "a tool implies suspend-at-exec");
    let (cmd, args) = req.tool.unwrap();
    assert_eq!(cmd, "paradynd");
    assert_eq!(args, vec!["-a%pid", "-A"]);
    // Missing executable is an error.
    assert!(GridJobRequest::from_rsl(&Rsl::parse("&(count=2)").unwrap()).is_err());
}

#[test]
fn malformed_submission_is_denied_not_fatal() {
    let world = World::new();
    let pool = Arc::new(CondorPool::build(&world, 1).unwrap());
    let head = world.add_host();
    let user_host = world.add_host();
    let gk = Gatekeeper::start(&world, head, pool).unwrap();
    // A chunk of 200 000 `[` used to overflow the JSON parser's stack
    // (SIGABRT); the nesting cap turns it into the stated denial.
    for bad in ["[".repeat(200_000), "{not json".to_string()] {
        let mut conn = world.net().connect(user_host, gk.addr()).unwrap();
        conn.send(bad.as_bytes()).unwrap();
        let reply = conn.recv_timeout(T).unwrap();
        let reply = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
        let denied = reply.get("Denied").expect("a Denied reply");
        assert_eq!(denied.str_field("reason"), Some("malformed submission"));
    }
}

#[test]
fn gatekeeper_authenticates_subjects() {
    let world = World::new();
    let pool = Arc::new(CondorPool::build(&world, 1).unwrap());
    pool.install_everywhere("/bin/app", app_image());
    let head = world.add_host();
    let user_host = world.add_host();
    let gk = Gatekeeper::start(&world, head, pool).unwrap();
    gk.authorize("/O=Grid/CN=alice", "proxy-abc");

    // Wrong token.
    let err = match GramClient::submit(
        &world,
        user_host,
        gk.addr(),
        "/O=Grid/CN=alice",
        "wrong",
        "&(executable=/bin/app)",
    ) {
        Err(e) => e,
        Ok(_) => panic!("wrong token must be denied"),
    };
    assert!(matches!(err, TdpError::Substrate(_)), "{err}");
    // Unknown subject.
    assert!(GramClient::submit(
        &world,
        user_host,
        gk.addr(),
        "/O=Grid/CN=mallory",
        "proxy-abc",
        "&(executable=/bin/app)"
    )
    .is_err());
    // Correct credentials work.
    let mut c = GramClient::submit(
        &world,
        user_host,
        gk.addr(),
        "/O=Grid/CN=alice",
        "proxy-abc",
        "&(executable=/bin/app)",
    )
    .unwrap();
    assert_eq!(c.backend, "condor");
    match c.wait(T).unwrap() {
        GramState::Done(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
        other => panic!("{other:?}"),
    }
    // Revocation takes effect.
    gk.revoke("/O=Grid/CN=alice");
    assert!(GramClient::submit(
        &world,
        user_host,
        gk.addr(),
        "/O=Grid/CN=alice",
        "proxy-abc",
        "&(executable=/bin/app)"
    )
    .is_err());
}

#[test]
fn bad_rsl_is_denied_not_crashed() {
    let world = World::new();
    let pool = Arc::new(CondorPool::build(&world, 1).unwrap());
    let head = world.add_host();
    let user = world.add_host();
    let gk = Gatekeeper::start(&world, head, pool).unwrap();
    gk.authorize("u", "t");
    let err = match GramClient::submit(&world, user, gk.addr(), "u", "t", "(((") {
        Err(e) => e,
        Ok(_) => panic!("malformed RSL must be denied"),
    };
    assert!(err.to_string().contains("denied"), "{err}");
    // The gatekeeper survives and still accepts valid submissions.
    assert!(GramClient::submit(&world, user, gk.addr(), "u", "t", "&(count=1)").is_err());
}

/// The paper's full nightmare stack, working: a remote user submits
/// through the grid layer to a Condor pool; the starter speaks TDP; the
/// Paradyn daemon attaches and profiles — three layers of middleware,
/// zero tool changes.
#[test]
fn grid_to_condor_with_paradyn() {
    let world = World::new();
    let pool = Arc::new(CondorPool::build(&world, 1).unwrap());
    pool.install_everywhere("/bin/app", app_image());
    for h in pool.exec_hosts() {
        world
            .os()
            .fs()
            .install_exec(*h, "paradynd", paradynd_image(world.clone()));
    }
    let fe = ParadynFrontend::start(world.net(), pool.submit_host(), 2090, 2091).unwrap();
    let head = world.add_host();
    let user = world.add_host();
    let gk = Gatekeeper::start(&world, head, pool.clone()).unwrap();
    gk.authorize("alice", "tok");

    let rsl = format!(
        r#"&(executable=/bin/app)(tool=paradynd)(tool_args="-m{} -p{} -P{} -a%pid -A")"#,
        fe.host().0,
        fe.control_addr().port.0,
        fe.data_addr().port.0,
    );
    let mut c = GramClient::submit(&world, user, gk.addr(), "alice", "tok", &rsl).unwrap();
    match c.wait(T).unwrap() {
        GramState::Done(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
        other => panic!("{other:?}"),
    }
    fe.wait_done(1, T).unwrap();
    assert!(fe
        .samples()
        .iter()
        .any(|s| s.symbol == "work" && s.count == 6));
}

#[test]
fn grid_to_lsf_with_tracey() {
    // Same gatekeeper code, different backend, different tool.
    let world = World::new();
    let master = world.add_host();
    let exec = world.add_host();
    world.os().fs().install_exec(exec, "/bin/app", app_image());
    world
        .os()
        .fs()
        .install_exec(exec, "tracey", tracey_image(world.clone()));
    let cluster = Arc::new(LsfCluster::start(&world, master).unwrap());
    let _sbd = cluster.add_host(exec, 1).unwrap();
    let head = world.add_host();
    let user = world.add_host();
    let gk = Gatekeeper::start(&world, head, cluster).unwrap();
    gk.authorize("bob", "tok2");

    let mut c = GramClient::submit(
        &world,
        user,
        gk.addr(),
        "bob",
        "tok2",
        "&(executable=/bin/app)(tool=tracey)(output=result)",
    )
    .unwrap();
    assert_eq!(c.backend, "lsf");
    match c.wait(T).unwrap() {
        GramState::Done(done) => assert_eq!(done[&0], ProcStatus::Exited(0)),
        other => panic!("{other:?}"),
    }
    // Output + coverage report staged to the LSF master.
    assert_eq!(
        world.os().fs().read_file(master, "result").unwrap(),
        b"grid job output"
    );
    assert!(world
        .os()
        .fs()
        .list(master, "tracey")
        .iter()
        .any(|f| f.ends_with(".coverage")));
}

#[test]
fn grid_parallel_count_maps_to_mpi_universe() {
    use tdp_mpi::{apps, MpiComm};
    let world = World::new();
    let pool = Arc::new(CondorPool::build(&world, 3).unwrap());
    let comm = MpiComm::new(3);
    pool.install_everywhere("ring", apps::ring(comm, 1, 2));
    let head = world.add_host();
    let user = world.add_host();
    let gk = Gatekeeper::start(&world, head, pool).unwrap();
    gk.authorize("alice", "tok");
    let mut c = GramClient::submit(
        &world,
        user,
        gk.addr(),
        "alice",
        "tok",
        "&(executable=ring)(count=3)",
    )
    .unwrap();
    match c.wait(T).unwrap() {
        GramState::Done(done) => {
            assert_eq!(done.len(), 3);
            assert!(done.values().all(|s| *s == ProcStatus::Exited(0)));
        }
        other => panic!("{other:?}"),
    }
}
