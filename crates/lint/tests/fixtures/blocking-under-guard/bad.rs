//! BAD: blocking calls while a facade guard is live in the same block.

use tdp_sync::Mutex;

fn send_under_lock(m: &Mutex<Vec<u32>>, tx: &tdp_sync::channel::Sender<u32>) {
    let g = m.lock();
    tx.send(g[0]).unwrap(); // flagged: channel send under `g`
}

fn sleep_under_read(l: &tdp_sync::RwLock<u32>) {
    let snapshot = l.read();
    std::thread::sleep(std::time::Duration::from_millis(*snapshot as u64)); // flagged
}

fn recv_after_manual_scope(m: &Mutex<u32>, rx: &tdp_sync::channel::Receiver<u32>) {
    let held = m.lock();
    let _v = rx.recv().unwrap(); // flagged: `held` not dropped yet
    drop(held);
}

fn socket_write_under_lock(m: &Mutex<Vec<u8>>, s: &std::net::TcpStream) {
    let buf = m.lock();
    let _ = write_all_stall(s, &buf, std::time::Duration::from_secs(5)); // flagged: parks in poll(2)
}

fn trait_write_under_lock(m: &Mutex<Vec<u8>>, io: &impl FlowIo) {
    let buf = m.lock();
    let _ = io.write_frame(&buf, std::time::Duration::from_secs(5)); // flagged: same, behind a trait
}

fn parked_recv_under_lock(m: &Mutex<Vec<u8>>, fd: std::os::unix::io::RawFd) {
    let mut buf = m.lock();
    let _ = recv_blocking(fd, &mut buf); // flagged: parks in recv(2) until the peer speaks
}
