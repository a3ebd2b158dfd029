//! BAD: waiting by sleeping and looking again. Every waiter finds out
//! up to one nap late, and every caller pays the nap.

use std::thread;
use std::time::Duration;

fn claim(table: &Table) -> Slot {
    loop {
        if let Some(slot) = table.free_slot() {
            return slot;
        }
        thread::sleep(Duration::from_millis(15)); // flagged: retry nap in `loop`
    }
}

fn wait_running(shadow: &Shadow) {
    while shadow.status_of(0) != Some(Status::Running) {
        std::thread::sleep(Duration::from_millis(5)); // flagged: status poll in `while`
    }
}

fn monitor(ctx: &mut ProcCtx, pids: &[Pid]) {
    for pid in pids {
        while let Status { alive: true } = probe(*pid) {
            ctx.sleep(Duration::from_millis(5)); // flagged: `.sleep(` in `while let` with a struct pattern
        }
    }
}
