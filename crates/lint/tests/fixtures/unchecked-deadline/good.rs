//! GOOD: the wait only subtracts, the deadline is checked, or the
//! number added is one the code chose — a constant, a field, a call.

use std::time::{Duration, Instant};

const JOB_DEADLINE: Duration = Duration::from_secs(30);

struct Tx {
    latency: Duration,
}

fn wait_job(timeout: Duration) -> Option<Instant> {
    // `None`: too far away for an `Instant` — never.
    Instant::now().checked_add(timeout)
}

fn constants_fields_and_calls(tx: &Tx, budget_us: u64) -> [Instant; 4] {
    [
        Instant::now() + JOB_DEADLINE,
        Instant::now() + tx.latency,
        Instant::now() + Duration::from_secs(2),
        Instant::now() + negotiation_timeout(budget_us),
    ]
}

fn negotiation_timeout(us: u64) -> Duration {
    Duration::from_micros(us)
}

fn remaining(start: Instant, timeout: Duration) -> Option<Duration> {
    timeout.checked_sub(start.elapsed())
}
