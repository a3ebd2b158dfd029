//! GOOD: the listener is handed to `serve`, which owns the one accept
//! loop; a single accept outside any loop is a hand-off, not a daemon.

use tdp_sync::serve::{serve, Server};

fn start(listener: Listener, state: Arc<State>) -> io::Result<Server> {
    serve("daemon", listener, move |conn| session(&state, conn))
}

fn one_peer(listener: &Listener) -> TdpResult<Conn> {
    listener.accept() // once, not in a loop
}

impl Accept for ProxyListener {
    type Conn = TcpStream;
    fn accept(&self) -> Option<TcpStream> {
        let (client, _) = self.listener.accept().ok()?; // `impl … for …` is not a loop
        Some(client)
    }
}

fn drain(conns: &[Conn]) {
    for conn in conns {
        conn.accept_offer(); // not `.accept()`
    }
}
