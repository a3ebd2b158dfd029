//! GOOD: the data is copied out and the guard dropped (or never taken)
//! before anything blocks.

use tdp_sync::Mutex;

fn copy_out_then_send(m: &Mutex<Vec<u32>>, tx: &crossbeam::channel::Sender<u32>) {
    let first = {
        let g = m.lock();
        g[0]
    };
    tx.send(first).unwrap();
}

fn drop_ends_liveness(m: &Mutex<u32>, rx: &crossbeam::channel::Receiver<u32>) {
    let g = m.lock();
    let _snapshot = *g;
    drop(g);
    let _v = rx.recv().unwrap(); // fine: guard explicitly dropped
}

fn deref_copy_is_not_a_guard(m: &Mutex<u32>, tx: &crossbeam::channel::Sender<u32>) {
    let v = *m.lock(); // temporary dies at the `;`
    tx.send(v).unwrap();
}

fn spawned_closure_runs_elsewhere(m: &Mutex<u32>, rx: crossbeam::channel::Receiver<u32>) {
    let g = m.lock();
    std::thread::Builder::new()
        .name("worker".into())
        .spawn(move || {
            let _v = rx.recv().unwrap(); // other thread: not under `g`
        })
        .unwrap();
    drop(g);
}

fn try_send_never_blocks(m: &Mutex<u32>, tx: &crossbeam::channel::Sender<u32>) {
    let g = m.lock();
    let _ = tx.try_send(*g);
}

fn socket_write_after_copy_out(m: &Mutex<Vec<u8>>, s: &std::net::TcpStream, io: &impl FlowIo) {
    let frame = m.lock().clone(); // temporary guard dies at the `;`
    let _ = write_all_stall(s, &frame, std::time::Duration::from_secs(5));
    let _ = io.write_frame(&frame, std::time::Duration::from_secs(5));
}
