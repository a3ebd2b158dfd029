//! GOOD: the waiter blocks on the party that knows, with the timer as
//! the wait's timeout; a one-off sleep outside any loop is not polling;
//! `impl … for …` and `for<'a>` are not loops.

use std::time::{Duration, Instant};

fn claim(table: &(Mutex<Table>, Condvar), deadline: Instant) -> Option<Slot> {
    let (lock, cv) = table;
    let mut t = lock.lock();
    loop {
        if let Some(slot) = t.free_slot() {
            return Some(slot);
        }
        if cv.wait_until(&mut t, deadline).timed_out() {
            return None;
        }
    }
}

fn monitor(tdp: &TdpHandle, pid: Pid) -> Status {
    loop {
        match tdp.wait_terminal(pid, SAMPLE_INTERVAL) {
            Ok(status) => return status,
            Err(_) => take_sample(tdp, pid),
        }
    }
}

fn settle() {
    std::thread::sleep(Duration::from_millis(1)); // once, not in a loop
}

impl Sleeper for Nap {
    fn nap(&mut self) {
        self.ctx.sleep(self.period); // `impl … for …` is not a loop
    }
}

fn each<F>(f: F)
where
    F: for<'a> Fn(&'a str),
{
    std::thread::sleep(Duration::ZERO); // `for<'a>` is not a loop
    f("x");
}
