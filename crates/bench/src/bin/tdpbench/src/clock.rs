//! The nominal clock: CPU-bound workloads report time relative to a
//! reference op measured beside them.
//!
//! The hosts this runs on are shared, and what a core does per wall
//! nanosecond moves under the benchmark in two ways: core frequency
//! flips between two states 27 % apart and stays in one for seconds to
//! minutes, and something off-VM (a sibling hyperthread, a neighbour in
//! the cache) slows syscalls, thread hand-offs and memory traffic by up
//! to 1.7× for stretches of a minute, while plain ALU work does not
//! notice. On the builder's 2-vCPU VM, fourteen 2-s repetitions of
//! `attr_netsim` on an unchanged tree read a wall p50 from 2.14 to
//! 3.13 µs; no bound worth setting survives that, and five repetitions
//! do not average away a state that outlasts the run.
//!
//! So every 25 ms the measured loop stops (outside the window) and
//! times a fixed **reference op** made of what a TDP op is made of and
//! none of TDP's code: a dependent multiply-add chain, a round trip to
//! an echo thread over two bounded `std` channels (futex wake, context
//! switch on the pinned CPU), and one `statx`. The wall time of the ops
//! around it is scaled by `NOMINAL_NS / measured`. The same fourteen
//! repetitions then read 2.53–2.60 µs; `gateway_http` goes from
//! 14.0–17.9 to 15.4–16.0.
//!
//! The factor is a property of the host, not of TDP: it multiplies the
//! parent's and the change's numbers alike, a change that removes a
//! syscall or a hand-off from an op still gains all of it, and
//! `host.clock_scale` (per-layer) reports the factor, so wall time is
//! value ÷ clock_scale. `parador_job` waits on timers, which a faster
//! core does not shorten, and stays on the wall clock.

use std::hint::black_box;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a window on the nominal clock recalibrates.
pub const EVERY: Duration = Duration::from_millis(25);

/// What one reference measurement takes on the builder's host in a
/// quiet moment, so nominal numbers read as real µs there.
const NOMINAL_NS: f64 = 180_000.0;

const ROUNDS: u64 = 40;
const CHAIN: u64 = 500;

/// The echo thread and the channels to it.
pub struct Reference {
    to_echo: Option<SyncSender<u64>>,
    from_echo: Receiver<u64>,
    echo: Option<JoinHandle<()>>,
}

impl Reference {
    fn start() -> std::io::Result<Reference> {
        let (to_echo, echo_in) = sync_channel::<u64>(1);
        let (echo_out, from_echo) = sync_channel::<u64>(1);
        let echo = std::thread::Builder::new()
            .name("bench-clock-echo".into())
            .spawn(move || {
                while let Ok(v) = echo_in.recv() {
                    if echo_out.send(v).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Reference {
            to_echo: Some(to_echo),
            from_echo,
            echo: Some(echo),
        })
    }

    /// One reference measurement, in wall ns.
    fn measure(&self) -> f64 {
        let to_echo = self.to_echo.as_ref().expect("present until drop");
        let t0 = Instant::now();
        let mut x = 1u64;
        for round in 0..ROUNDS {
            for i in 0..CHAIN {
                // Each step needs the last: a cycle count, not a
                // throughput the core can hide.
                x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
            }
            // The echo thread only dies with this struct.
            to_echo.send(x).expect("echo thread alive");
            x = self.from_echo.recv().expect("echo thread alive") ^ round;
            black_box(std::fs::metadata(".").is_ok());
        }
        black_box(x);
        t0.elapsed().as_nanos() as f64
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // Hanging up ends the echo loop; then it can be joined.
        self.to_echo.take();
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Which clock a workload's times are reported on.
pub enum Clock {
    /// CPU-bound: wall time scaled by the reference op.
    Nominal(Reference),
    /// Timer-bound: wall time as it is.
    Wall,
}

impl Clock {
    pub fn nominal() -> std::io::Result<Clock> {
        Reference::start().map(Clock::Nominal)
    }

    pub fn is_nominal(&self) -> bool {
        matches!(self, Clock::Nominal(_))
    }

    /// Factor that turns wall time measured now into time on this
    /// clock. On the nominal clock this costs ~0.4 ms: the faster of
    /// two measurements, since a stray interrupt only lengthens one.
    pub fn scale(&self) -> f64 {
        match self {
            Clock::Nominal(r) => NOMINAL_NS / r.measure().min(r.measure()),
            Clock::Wall => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_positive_and_repeats_and_the_echo_thread_is_joined() {
        let clock = Clock::nominal().unwrap();
        let (a, b) = (clock.scale(), clock.scale());
        assert!(a > 0.0 && a.is_finite());
        assert!((a / b - 1.0).abs() < 0.5, "{a} vs {b}");
        drop(clock);
        assert_eq!(Clock::Wall.scale(), 1.0);
        assert!(!Clock::Wall.is_nominal());
    }
}
