//! BAD: a caller's `Duration` added to `now()` — each panics when the
//! caller asks to wait forever (`Duration::MAX`).

use std::time::{Duration, Instant};

fn wait_job(timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout; // flagged
    Instant::now() < deadline
}

fn sleep(dur: Duration) {
    let _until = std::time::Instant::now() + dur; // flagged
}

fn lazily(stall: Duration) {
    let mut deadline = None;
    let _ = *deadline.get_or_insert_with(|| Instant::now() + stall); // flagged
}
