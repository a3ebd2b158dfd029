//! BAD: anonymous threads. A panic backtrace, TSan report or
//! thread-leak assert from one of these says `<unnamed>`.

fn pump(rx: tdp_sync::channel::Receiver<Vec<u8>>) {
    std::thread::spawn(move || { // flagged: bare std spawn
        while rx.recv().is_ok() {}
    });
}

fn shorthand(job: impl FnOnce() + Send + 'static) {
    use std::thread;
    thread::spawn(job); // flagged: bare spawn via import
}
