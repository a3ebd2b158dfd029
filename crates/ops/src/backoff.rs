//! Restart pacing: the restart-budget circuit breaker that turns
//! "restart forever" into "restart a bounded number of times per
//! window, then escalate". The capped exponential [`Backoff`] that paces
//! the restarts is `tdp-proto`'s — the same one the attribute-space
//! client re-dials with — re-exported here.

use std::collections::VecDeque;
use std::time::{Duration, Instant};
pub use tdp_proto::Backoff;

/// A sliding-window circuit breaker: at most `max` restarts per
/// `window`. When the budget is exhausted the supervisor stops
/// restarting and escalates — a component that crashes on every start
/// must reach an operator, not burn CPU in a restart loop.
pub struct RestartBudget {
    window: Duration,
    max: u32,
    spent: VecDeque<Instant>,
}

impl RestartBudget {
    pub fn new(max: u32, window: Duration) -> RestartBudget {
        RestartBudget {
            window,
            max,
            spent: VecDeque::new(),
        }
    }

    /// Try to spend one restart from the budget. `false` means the
    /// breaker is open: `max` restarts already happened inside the
    /// window.
    pub fn try_spend(&mut self) -> bool {
        let now = Instant::now();
        while let Some(&t) = self.spent.front() {
            if now.duration_since(t) > self.window {
                self.spent.pop_front();
            } else {
                break;
            }
        }
        if self.spent.len() as u32 >= self.max {
            return false;
        }
        self.spent.push_back(now);
        true
    }

    /// Restarts currently inside the window.
    pub fn spent(&self) -> u32 {
        self.spent.len() as u32
    }

    /// Forget history (operator reset after an escalation).
    pub fn reset(&mut self) {
        self.spent.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_opens_after_max_and_refills_after_window() {
        let mut budget = RestartBudget::new(3, Duration::from_millis(50));
        assert!(budget.try_spend());
        assert!(budget.try_spend());
        assert!(budget.try_spend());
        assert!(!budget.try_spend(), "breaker must open at the limit");
        assert_eq!(budget.spent(), 3);
        // After the window passes, the budget refills.
        std::thread::sleep(Duration::from_millis(60));
        assert!(budget.try_spend(), "window expiry must refill the budget");
    }
}
