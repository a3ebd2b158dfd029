//! Retry pacing: capped exponential backoff with seeded jitter — the
//! one copy the attribute-space client's re-dial, the world's first
//! dial and the ops supervisor's restarts all share.

use crate::error::TdpResult;
use std::time::{Duration, Instant};

/// Capped exponential backoff with uniform jitter in `[delay/2, delay]`,
/// so retry storms from many clients (or supervisors) racing one
/// restarting server de-synchronize instead of re-dialling in lockstep.
pub struct Backoff {
    base: Duration,
    cap: Duration,
    next: Duration,
    /// xorshift64* state; never zero.
    rng: u64,
}

impl Backoff {
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        // splitmix64 the seed so neighbouring seeds diverge at once and
        // 0 does not get stuck.
        let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        Backoff {
            base,
            cap,
            next: base,
            rng: (z ^ (z >> 31)) | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// The delay to wait before the next attempt; doubles the nominal
    /// delay (up to the cap) each call.
    pub fn next_delay(&mut self) -> Duration {
        let d = self.next;
        self.next = (self.next * 2).min(self.cap);
        let half = d / 2;
        half + Duration::from_nanos(self.next_u64() % (half.as_nanos() as u64 + 1))
    }

    /// Back to the base delay (call on recovery). The jitter stream
    /// carries on, so successive outages do not replay one sequence.
    pub fn reset(&mut self) {
        self.next = self.base;
    }

    /// Run `op` until it succeeds, fails with an error that is not
    /// [transient](crate::TdpError::is_transient), or the next delay
    /// would end more than `max_elapsed` after this call began — then
    /// the last transient error is returned.
    pub fn retry<T>(
        &mut self,
        max_elapsed: Duration,
        mut op: impl FnMut() -> TdpResult<T>,
    ) -> TdpResult<T> {
        let start = Instant::now();
        loop {
            match op() {
                Err(e) if e.is_transient() => {
                    let delay = self.next_delay();
                    if start.elapsed() + delay > max_elapsed {
                        return Err(e);
                    }
                    std::thread::sleep(delay);
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TdpError;

    fn delays(seed: u64) -> Vec<Duration> {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(80), seed);
        (0..8).map(|_| b.next_delay()).collect()
    }

    #[test]
    fn backoff_doubles_to_cap_with_bounded_jitter() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(80);
        let mut b = Backoff::new(base, cap, 42);
        let mut nominal = base;
        for _ in 0..6 {
            let d = b.next_delay();
            assert!(d >= nominal / 2 && d <= nominal, "{d:?} vs {nominal:?}");
            nominal = (nominal * 2).min(cap);
        }
        // Capped: stays within [cap/2, cap] forever after.
        for _ in 0..4 {
            let d = b.next_delay();
            assert!(d >= cap / 2 && d <= cap, "{d:?}");
        }
        b.reset();
        assert!(b.next_delay() <= base);
    }

    #[test]
    fn same_seed_same_sequence_and_seeds_differ() {
        assert_eq!(delays(7), delays(7));
        assert_ne!(delays(7), delays(8));
        // Seed 0 must not wedge the generator at one value.
        let zero = delays(0);
        assert!(zero.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn retry_stops_on_success_permanent_error_or_budget() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(2), 1);
        let mut calls = 0;
        let got = b.retry(Duration::from_secs(5), || {
            calls += 1;
            if calls < 3 {
                Err(TdpError::Timeout)
            } else {
                Ok(calls)
            }
        });
        assert_eq!(got, Ok(3));

        calls = 0;
        let got: TdpResult<()> = b.retry(Duration::from_secs(5), || {
            calls += 1;
            Err(TdpError::HandleClosed)
        });
        assert_eq!((got, calls), (Err(TdpError::HandleClosed), 1));

        // A budget shorter than the smallest possible delay: one
        // attempt, no sleep, the transient error comes back.
        let mut b = Backoff::new(Duration::from_secs(60), Duration::from_secs(60), 1);
        calls = 0;
        let start = Instant::now();
        let got: TdpResult<()> = b.retry(Duration::from_secs(1), || {
            calls += 1;
            Err(TdpError::Disconnected)
        });
        assert_eq!((got, calls), (Err(TdpError::Disconnected), 1));
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
