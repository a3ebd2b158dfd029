//! `wire_echo` — the transport abstraction in isolation: one echo
//! server, one client, run back to back over **both** transports with
//! the same code.
//!
//! ```text
//! cargo run -q --example wire_echo
//! ```

use tdp::netsim::Network;
use tdp::proto::{Addr, ContextId, HostId, Message, TdpResult};
use tdp::wire::{Endpoint, EpollTransport, SimTransport, Transport, WireListener};

/// Serve one connection: echo every message back, then exit.
fn echo_once(listener: WireListener) -> TdpResult<()> {
    let mut conn = listener.accept()?;
    println!(
        "  server: accepted {:?} (peer host {:?})",
        conn,
        conn.peer_host()
    );
    while let Ok(msg) = conn.recv_msg() {
        conn.send_msg(&msg)?;
    }
    Ok(())
}

fn run(
    name: &str,
    transport: &dyn Transport,
    server_host: HostId,
    client_host: HostId,
) -> TdpResult<()> {
    println!("{name}:");
    let listener = transport.listen(server_host, 7000)?;
    let endpoint = listener.local_endpoint();
    println!("  server: listening on {endpoint}");
    let server = std::thread::spawn(move || echo_once(listener));

    let mut conn = transport.connect(client_host, &endpoint)?;
    for i in 0..3u64 {
        let msg = Message::Put {
            ctx: ContextId(1),
            key: format!("key{i}"),
            value: format!("value{i}"),
        };
        conn.send_msg(&msg)?;
        let back = conn.recv_msg()?;
        assert_eq!(back, msg);
        println!("  client: echoed {back:?}");
    }
    conn.close();
    server.join().expect("server thread")?;
    Ok(())
}

fn main() -> TdpResult<()> {
    // Transport 1: the simulated fabric.
    let net = Network::new();
    let a = net.add_host();
    let b = net.add_host();
    run("netsim", &SimTransport::new(net), b, a)?;

    // Transport 2: real loopback TCP, no thread per connection — each
    // receiver reads its own socket. Identical driver code — the
    // logical hosts ride the Hello handshake instead of the address.
    run("epoll", &EpollTransport::new()?, HostId(1), HostId(0))?;

    // The endpoint types tell the two apart when it matters.
    let sim_ep = Endpoint::Sim(Addr::new(HostId(9), 7777));
    println!("endpoints render as {sim_ep} / tcp://127.0.0.1:<ephemeral>");
    Ok(())
}
