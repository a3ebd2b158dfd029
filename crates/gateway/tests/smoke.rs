//! The CI `gateway_smoke` gate: serve + invoke + kill, bounded at five
//! seconds wall clock. Mirrors `tdp-gateway smoke` (the binary form CI
//! also runs) so a hang in either the HTTP server or the supervisor
//! hand-off fails fast instead of wedging the workflow.

use std::time::{Duration, Instant};

use tdp_core::World;
use tdp_gateway::{install_daemon_image, Gateway, GatewayConfig, HttpRpcClient, Json};

#[test]
fn serve_invoke_kill_under_five_seconds() {
    let t0 = Instant::now();

    let world = World::new();
    let host = world.add_host();
    install_daemon_image(&world, host, "/bin/rtd");
    let mut gw = Gateway::start(&world, host, GatewayConfig::default()).unwrap();

    let mut c = HttpRpcClient::connect(gw.addr()).unwrap();
    let r = c
        .invoke("echo", Json::obj([("ping", Json::from(true))]))
        .unwrap();
    assert_eq!(
        r.get("params").unwrap().get("ping").unwrap().as_bool(),
        Some(true)
    );
    c.call(
        "proc.spawn",
        Json::obj([
            ("name", Json::from("rt-smoke")),
            ("host", Json::from(host.0)),
            ("executable", Json::from("/bin/rtd")),
        ]),
    )
    .unwrap();
    let rows = c.call("proc.list", Json::Obj(Vec::new())).unwrap();
    assert_eq!(rows.as_arr().unwrap().len(), 1);
    c.call("proc.kill", Json::obj([("name", Json::from("rt-smoke"))]))
        .unwrap();
    gw.shutdown();

    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "smoke took {:?}",
        t0.elapsed()
    );
}
