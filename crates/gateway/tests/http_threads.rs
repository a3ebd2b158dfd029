//! The HTTP server's thread census. A test binary of its own, with one
//! test, so no other server's threads are in the process.

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

#[test]
fn workers_are_the_only_http_threads() {
    let workers = 3;
    let threads_before = thread_names().len();
    let mut srv = HttpServer::bind(
        "127.0.0.1:0",
        workers,
        Arc::new(|_: &HttpRequest| HttpResponse::text(200, "ok\n")),
    )
    .unwrap();
    // A thread names itself as it starts, so give the last one a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    let names = loop {
        let names = thread_names();
        let named = names.iter().filter(|n| n.starts_with("gw-http")).count();
        if named == workers || Instant::now() > deadline {
            break names;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let http: Vec<&String> = names.iter().filter(|n| n.starts_with("gw-http")).collect();
    assert_eq!(http.len(), workers, "{names:?}");
    assert!(
        http.iter().all(|n| n.starts_with("gw-http-worker")),
        "{names:?}"
    );
    // The three of them are every thread `bind` started.
    assert_eq!(names.len(), threads_before + workers, "{names:?}");
    srv.shutdown();
    assert!(
        !thread_names().iter().any(|n| n.starts_with("gw-http")),
        "threads outlived shutdown"
    );
}
