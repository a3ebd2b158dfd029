//! BAD: accept loops written by hand — each one decides again what a
//! failed spawn does, how it stops, and what its threads are called.

use std::thread;

fn start(listener: Listener, state: Arc<State>) {
    thread::Builder::new()
        .name("daemon".into())
        .spawn(move || {
            while let Ok(conn) = listener.accept() { // flagged: accept in a `while let` header
                let state = state.clone();
                thread::Builder::new()
                    .name("daemon-session".into())
                    .spawn(move || session(&state, conn))
                    .expect("spawn session");
            }
        })
        .unwrap();
}

fn accept_loop(listener: TcpListener, out: Sender<TcpStream>) {
    loop {
        let (stream, _) = match listener.accept() { // flagged: accept in a `loop` body
            Ok(pair) => pair,
            Err(_) => break,
        };
        let _ = out.send(stream);
    }
}

fn attach(listener: &Listener, n: usize) -> Vec<Conn> {
    let mut children = Vec::new();
    for _ in 0..n {
        children.push(listener.accept().unwrap()); // flagged: accept in a `for` body
    }
    children
}
