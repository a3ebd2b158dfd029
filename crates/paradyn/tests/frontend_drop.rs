//! Dropping a front-end frees its two ports and ends its accept
//! threads. A test binary of its own, with one test, so no other
//! front-end's threads are in the process.

use std::time::{Duration, Instant};
use tdp_netsim::Network;
use tdp_paradyn::ParadynFrontend;

/// Live accept threads of any front-end in this process (`comm` of
/// every thread; the kernel keeps 15 bytes).
fn accept_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| matches!(comm.trim_end(), "fe-control" | "fe-data"))
        .count()
}

/// Wait for the census to read `n`: a thread names itself as it
/// starts, and a joined one can linger in /proc while it is reaped.
fn wait_for_accept_threads(n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while accept_threads() != n {
        assert!(
            Instant::now() < deadline,
            "{} accept threads, want {n}",
            accept_threads()
        );
        std::thread::yield_now();
    }
}

#[test]
fn a_dropped_frontend_frees_its_ports_and_accept_threads() {
    let net = Network::new();
    let host = net.add_host();
    let fe = ParadynFrontend::start(&net, host, 2090, 2091).unwrap();
    // A daemon still connected to each port does not hold the drop up.
    let control = net.connect(host, fe.control_addr()).unwrap();
    let data = net.connect(host, fe.data_addr()).unwrap();
    wait_for_accept_threads(2);

    drop(fe);
    for port in [2090, 2091] {
        net.listen(host, port)
            .unwrap_or_else(|e| panic!("port {port} still bound: {e}"));
    }
    wait_for_accept_threads(0);
    drop((control, data));
}
