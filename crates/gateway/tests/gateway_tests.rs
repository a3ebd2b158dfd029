//! End-to-end gateway tests over real HTTP: auth/allowlist edge cases,
//! tool registration, attribute bridging, and supervised daemon
//! restarts driven entirely from the client side.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdp_core::World;
use tdp_gateway::rpc::codes;
use tdp_gateway::{install_daemon_image, Gateway, GatewayConfig, HttpRpcClient, Json};

fn start_gateway(supervise: bool) -> (World, Gateway) {
    let world = World::new();
    let gw_host = world.add_host();
    install_daemon_image(&world, gw_host, "/bin/rtd");
    let cfg = GatewayConfig {
        supervise,
        pool_size: 4,
        ..GatewayConfig::default()
    };
    let gw = Gateway::start(&world, gw_host, cfg).unwrap();
    (world, gw)
}

// ------------------------------------------------------ allowlist edges

#[test]
fn empty_allowlist_denies_everything() {
    let (_world, gw) = start_gateway(false);
    // A registered key with no capabilities: valid identity, zero
    // authority.
    gw.core().keys().grant("observer", &[]);
    let mut c = HttpRpcClient::connect(gw.addr())
        .unwrap()
        .with_api_key("observer");
    for method in ["tool.list", "gw.info", "proc.list"] {
        let err = c.call(method, Json::Obj(Vec::new())).unwrap_err();
        assert_eq!(err.code, codes::UNAUTHORIZED, "{method}");
    }
    let err = c.invoke("echo", Json::Obj(Vec::new())).unwrap_err();
    assert_eq!(err.code, codes::UNAUTHORIZED);
}

#[test]
fn glob_vs_exact_tool_names() {
    let (_world, gw) = start_gateway(false);
    gw.core().keys().grant("exact", &["echo", "tool.list"]);
    gw.core().keys().grant("globby", &["attr.*", "tool.list"]);

    let mut exact = HttpRpcClient::connect(gw.addr())
        .unwrap()
        .with_api_key("exact");
    assert!(exact.invoke("echo", Json::Obj(Vec::new())).is_ok());
    assert!(exact.call("tool.list", Json::Obj(Vec::new())).is_ok());
    // "echo" is not a prefix grant: "echo2" style names stay out, and
    // so do other tools.
    let err = exact
        .invoke("attr.keys", Json::obj([("ctx", Json::Int(0))]))
        .unwrap_err();
    assert_eq!(err.code, codes::UNAUTHORIZED);

    let mut globby = HttpRpcClient::connect(gw.addr())
        .unwrap()
        .with_api_key("globby");
    // attr.* covers the attr.keys tool via tool.invoke...
    assert!(globby
        .invoke("attr.keys", Json::obj([("ctx", Json::Int(0))]))
        .is_ok());
    // ...and the attr.put / attr.get endpoints (method-name caps).
    assert!(globby
        .call(
            "attr.put",
            Json::obj([
                ("ctx", Json::Int(1)),
                ("key", Json::from("k")),
                ("value", Json::from("v")),
            ]),
        )
        .is_ok());
    // But not echo.
    let err = globby.invoke("echo", Json::Obj(Vec::new())).unwrap_err();
    assert_eq!(err.code, codes::UNAUTHORIZED);
}

#[test]
fn unknown_api_key_rejected_even_on_open_methods() {
    let (_world, gw) = start_gateway(false);
    gw.core().keys().grant("real", &["*"]);
    let mut anon = HttpRpcClient::connect(gw.addr()).unwrap();
    let mut wrong = HttpRpcClient::connect(gw.addr())
        .unwrap()
        .with_api_key("nope");
    for c in [&mut anon, &mut wrong] {
        let err = c.call("tool.list", Json::Obj(Vec::new())).unwrap_err();
        assert_eq!(err.code, codes::UNAUTHORIZED);
    }
    // The in-body api_key extension works too.
    let mut body_key = HttpRpcClient::connect(gw.addr()).unwrap();
    let err = body_key
        .call("tool.list", Json::Obj(Vec::new()))
        .unwrap_err();
    assert_eq!(err.code, codes::UNAUTHORIZED);
    let ok = HttpRpcClient::connect(gw.addr())
        .unwrap()
        .with_api_key("real")
        .call("tool.list", Json::Obj(Vec::new()));
    assert!(ok.is_ok());
}

#[test]
fn allowlist_mutation_while_request_in_flight() {
    let (_world, gw) = start_gateway(false);
    gw.core().keys().grant("k", &["attr.get", "attr.put"]);
    let addr = gw.addr();

    // Park a blocking attr.get on a key nobody has put yet: the request
    // is authorised at dispatch time, then waits inside the bridge.
    let waiter = std::thread::spawn(move || {
        let mut c = HttpRpcClient::connect(addr).unwrap().with_api_key("k");
        c.call(
            "attr.get",
            Json::obj([
                ("ctx", Json::Int(5)),
                ("key", Json::from("late")),
                ("blocking", Json::from(true)),
                ("timeout_ms", Json::from(10_000u64)),
            ]),
        )
    });
    std::thread::sleep(Duration::from_millis(150));

    // Revoke mid-flight: the parked request keeps its already-granted
    // authority; only the *next* request sees the new ring.
    gw.core().keys().revoke("k");
    gw.core().keys().grant("writer", &["attr.put"]);
    let mut w = HttpRpcClient::connect(addr).unwrap().with_api_key("writer");
    w.call(
        "attr.put",
        Json::obj([
            ("ctx", Json::Int(5)),
            ("key", Json::from("late")),
            ("value", Json::from("arrived")),
        ]),
    )
    .unwrap();

    let got = waiter.join().unwrap().unwrap();
    assert_eq!(got.str_field("value"), Some("arrived"));

    // The revoked key is dead for new calls.
    let mut revoked = HttpRpcClient::connect(addr).unwrap().with_api_key("k");
    let err = revoked
        .call(
            "attr.get",
            Json::obj([("ctx", Json::Int(5)), ("key", Json::from("late"))]),
        )
        .unwrap_err();
    assert_eq!(err.code, codes::UNAUTHORIZED);
}

// ------------------------------------------------------- tool registry

#[test]
fn register_and_invoke_alias_over_http() {
    let (_world, gw) = start_gateway(false);
    let mut c = HttpRpcClient::connect(gw.addr()).unwrap();
    c.call(
        "tool.register",
        Json::obj([
            ("name", Json::from("mark")),
            ("description", Json::from("stamp a progress attribute")),
            ("method", Json::from("attr.put")),
            (
                "params",
                Json::obj([("ctx", Json::Int(2)), ("key", Json::from("progress"))]),
            ),
        ]),
    )
    .unwrap();
    // Shows up in the listing.
    let tools = c.call("tool.list", Json::Obj(Vec::new())).unwrap();
    let names: Vec<&str> = tools
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(|t| t.str_field("name"))
        .collect();
    assert!(names.contains(&"mark"), "{names:?}");
    // Invoking it writes through to the attribute space.
    c.invoke("mark", Json::obj([("value", Json::from("50%"))]))
        .unwrap();
    let got = c
        .call(
            "attr.get",
            Json::obj([("ctx", Json::Int(2)), ("key", Json::from("progress"))]),
        )
        .unwrap();
    assert_eq!(got.str_field("value"), Some("50%"));
    // Duplicate registration refuses.
    let err = c
        .call(
            "tool.register",
            Json::obj([
                ("name", Json::from("mark")),
                ("method", Json::from("gw.info")),
            ]),
        )
        .unwrap_err();
    assert_eq!(err.code, codes::ALREADY_EXISTS);
}

#[test]
fn subscribe_long_poll_sees_put_from_other_client() {
    let (_world, gw) = start_gateway(false);
    let addr = gw.addr();
    let waiter = std::thread::spawn(move || {
        let mut c = HttpRpcClient::connect(addr).unwrap();
        c.call(
            "attr.subscribe",
            Json::obj([
                ("ctx", Json::Int(3)),
                ("key", Json::from("phase")),
                ("timeout_ms", Json::from(10_000u64)),
            ]),
        )
    });
    std::thread::sleep(Duration::from_millis(100));
    let mut putter = HttpRpcClient::connect(addr).unwrap();
    putter
        .call(
            "attr.put",
            Json::obj([
                ("ctx", Json::Int(3)),
                ("key", Json::from("phase")),
                ("value", Json::from("checkpoint")),
            ]),
        )
        .unwrap();
    let n = waiter.join().unwrap().unwrap();
    assert_eq!(n.str_field("key"), Some("phase"));
    assert_eq!(n.str_field("value"), Some("checkpoint"));
}

// ----------------------------------------------- m+n session multiplex

#[test]
fn many_http_clients_share_the_session_pool() {
    let (world, gw) = start_gateway(false);
    let addr = gw.addr();
    let clients = 24;
    let per_client = 8;
    let mut handles = Vec::new();
    for i in 0..clients {
        handles.push(std::thread::spawn(move || {
            let mut c = HttpRpcClient::connect(addr).unwrap();
            for j in 0..per_client {
                let r = c
                    .invoke("echo", Json::obj([("n", Json::Int(i * 100 + j))]))
                    .unwrap();
                assert_eq!(
                    r.get("params").unwrap().get("n").unwrap().as_i64(),
                    Some(i * 100 + j)
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // TDP-side sessions stay bounded by the pool regardless of HTTP
    // fan-in (the reliable clients may redial but never multiply).
    assert!(
        world.attr_session_count() <= gw.core().bridge().pool_size(),
        "sessions {} > pool {}",
        world.attr_session_count(),
        gw.core().bridge().pool_size()
    );
}

// --------------------------------------------- supervised RT daemons

#[test]
fn crashed_daemon_restarts_with_clean_lists() {
    let (_world, gw) = start_gateway(true);
    let addr = gw.addr();
    let mut c = HttpRpcClient::connect(addr).unwrap();
    let gw_host = gw.core().gw_host();
    let spawned = c
        .call(
            "proc.spawn",
            Json::obj([
                ("name", Json::from("rt1")),
                ("host", Json::from(gw_host.0)),
                ("executable", Json::from("/bin/rtd")),
            ]),
        )
        .unwrap();
    assert_eq!(spawned.get("supervised").unwrap().as_bool(), Some(true));
    let pid0 = spawned.get("pid").unwrap().as_u64().unwrap();

    // Hammer proc.list from a side thread while the daemon dies and
    // comes back: every list call must succeed (acceptance criterion).
    let failed = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicUsize::new(0));
    let lister = {
        let failed = Arc::clone(&failed);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = HttpRpcClient::connect(addr).unwrap();
            let mut calls = 0usize;
            while stop.load(Ordering::SeqCst) == 0 {
                if c.call("proc.list", Json::Obj(Vec::new())).is_err() {
                    failed.fetch_add(1, Ordering::SeqCst);
                }
                calls += 1;
            }
            calls
        })
    };

    c.call("proc.crash", Json::obj([("name", Json::from("rt1"))]))
        .unwrap();
    gw.core()
        .supervisor()
        .expect("gateway started with supervision")
        .wait_restarts("gw.rt1", 1, Duration::from_secs(10))
        .unwrap();

    // The daemon is back under the same name with a fresh pid.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let rows = c.call("proc.list", Json::Obj(Vec::new())).unwrap();
        let row = rows
            .as_arr()
            .unwrap()
            .iter()
            .find(|r| r.str_field("name") == Some("rt1"))
            .cloned()
            .expect("rt1 stays listed through the restart");
        if row.str_field("status") == Some("running") {
            assert_ne!(row.get("pid").unwrap().as_u64().unwrap(), pid0);
            break;
        }
        assert!(Instant::now() < deadline, "rt1 never came back: {rows}");
        std::thread::sleep(Duration::from_millis(20));
    }

    stop.store(1, Ordering::SeqCst);
    let calls = lister.join().unwrap();
    assert!(calls > 0);
    assert_eq!(
        failed.load(Ordering::SeqCst),
        0,
        "proc.list failed during restart"
    );

    // Operator kill: daemon leaves the table and stays dead.
    c.call("proc.kill", Json::obj([("name", Json::from("rt1"))]))
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let rows = c.call("proc.list", Json::Obj(Vec::new())).unwrap();
    assert!(
        rows.as_arr().unwrap().is_empty(),
        "killed daemon resurrected: {rows}"
    );
}
