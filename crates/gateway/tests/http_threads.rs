//! The HTTP server's thread census. A test binary of its own, with one
//! test, so no other server's threads are in the process.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdp_gateway::http::{HttpRequest, HttpResponse};
use tdp_gateway::HttpServer;

/// `comm` of every thread of this process (the kernel keeps 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

/// Poll the census until `done` holds for it or 5 s pass; the last one.
fn census(done: impl Fn(&[String]) -> bool) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let names = thread_names();
        if done(&names) || Instant::now() > deadline {
            return names;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn count(names: &[String], name: &str) -> usize {
    names.iter().filter(|n| *n == name).count()
}

#[test]
fn an_accept_thread_and_one_session_thread_per_connection() {
    const CONNS: usize = 3;
    let threads_before = thread_names().len();
    let mut srv = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(|_: &HttpRequest| HttpResponse::text(200, "ok\n")),
    )
    .unwrap();
    let mut conns: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let mut s = TcpStream::connect(srv.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            let mut got = Vec::new();
            while !got.ends_with(b"\r\n\r\nok\n") {
                let mut buf = [0u8; 512];
                let n = s.read(&mut buf).unwrap();
                assert!(n > 0, "server closed mid-response");
                got.extend_from_slice(&buf[..n]);
            }
            s
        })
        .collect();

    // Answered and kept alive: each connection holds its own thread.
    let names = census(|n| count(n, "gw-http-conn") == CONNS);
    assert_eq!(count(&names, "gw-http"), 1, "{names:?}");
    assert_eq!(count(&names, "gw-http-conn"), CONNS, "{names:?}");
    assert_eq!(names.len(), threads_before + 1 + CONNS, "{names:?}");

    // Shutdown does not wait for the idle clients: it closes them.
    srv.shutdown();
    assert_eq!(srv.open_connections(), 0);
    for s in &mut conns {
        assert_eq!(s.read(&mut [0u8; 64]).unwrap(), 0, "no EOF after shutdown");
    }
    let names = census(|n| !n.iter().any(|n| n.starts_with("gw-http")));
    assert!(
        !names.iter().any(|n| n.starts_with("gw-http")),
        "threads outlived shutdown: {names:?}"
    );
}
