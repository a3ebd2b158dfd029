//! Fixed log-bucketed latency histogram.
//!
//! Latencies are recorded in nanoseconds into 64 sub-buckets per power
//! of two (bucket width ≤ 1.6 % of its value), allocated once: however
//! long a repetition runs, the harness's own memory stays flat and
//! `rss_peak_mb` measures the program, not the sample buffer. A
//! percentile is interpolated inside its bucket, so two runs do not
//! read back the same bucket edge.

const SUB: u64 = 64;
const SUB_BITS: u32 = 6;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let octave = (e - SUB_BITS + 1) as usize;
    octave * SUB as usize + ((v >> (e - SUB_BITS)) - SUB) as usize
}

/// Lower edge and width of bucket `i`.
fn edge(i: usize) -> (f64, f64) {
    let (octave, m) = (i / SUB as usize, (i % SUB as usize) as u64);
    if octave == 0 {
        return (m as f64, 1.0);
    }
    let shift = (octave - 1) as u32;
    (
        ((SUB + m) as f64) * (1u64 << shift) as f64,
        (1u64 << shift) as f64,
    )
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The value below which a share `p` of the samples lies, in ns.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = p * self.n as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= target {
                let (lo, width) = edge(i);
                return lo + width * ((target - before as f64) / c as f64).clamp(0.0, 1.0);
            }
            before += c;
        }
        unreachable!("counts sum to n")
    }

    /// Median in µs.
    pub fn p50_us(&self) -> f64 {
        self.percentile(0.5) / 1e3
    }
}

/// The percentile a workload reports as `lat_tail_us`, fixed per
/// workload: the highest that both keeps at least ten samples beyond it
/// in every repetition — a percentile is only as good as the samples
/// past it — and repeats within its bound on an unchanged tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tail {
    P90,
    P99,
}

impl Tail {
    fn beyond_per_100(self) -> u64 {
        match self {
            Tail::P90 => 10,
            Tail::P99 => 1,
        }
    }

    pub fn share(self) -> f64 {
        1.0 - self.beyond_per_100() as f64 / 100.0
    }

    pub fn name(self) -> &'static str {
        match self {
            Tail::P90 => "p90",
            Tail::P99 => "p99",
        }
    }

    /// Do `n` samples leave ten beyond this percentile?
    pub fn supported(self, n: u64) -> bool {
        n * self.beyond_per_100() / 100 >= 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_edge_agree_over_the_whole_range() {
        for v in (0..5000u64).chain([1 << 20, (1 << 20) + 12345, 5_000_000_000, 1 << 52]) {
            let (lo, width) = edge(index(v));
            let v = v as f64;
            assert!(lo <= v && v < lo + width, "{v} not in [{lo}, +{width})");
            assert!(width <= (lo / 64.0).max(1.0));
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_of_a_uniform_ramp() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.len(), 100_000);
        for (p, want) in [
            (0.5, 50_000.0),
            (0.9, 90_000.0),
            (0.99, 99_000.0),
            (0.999, 99_900.0),
        ] {
            let got = h.percentile(p);
            assert!((got - want).abs() / want < 0.02, "p{p}: {got} vs {want}");
        }
    }

    #[test]
    fn interpolation_moves_inside_one_bucket() {
        // 1000 and 1001 ns share a bucket (width 8 at ~1 µs); the
        // median must still move when the mix inside it does not, and
        // must move with the rank when neighbours differ.
        let mut a = Hist::new();
        let mut b = Hist::new();
        for _ in 0..100 {
            a.record(1000);
            b.record(1000);
        }
        b.record(5000);
        b.record(5000);
        assert!(b.percentile(0.5) > a.percentile(0.5));
    }

    #[test]
    fn a_failed_op_recorded_at_the_timeout_lands_in_the_tail() {
        let mut h = Hist::new();
        for _ in 0..999 {
            h.record(2_000);
        }
        h.record(5_000_000_000);
        assert!(h.percentile(0.5) < 2_100.0);
        assert!(h.percentile(0.9995) > 4.9e9);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples, p90 100.
        assert!(Tail::P99.supported(1_000));
        assert!(!Tail::P99.supported(999));
        assert!(Tail::P90.supported(100));
        assert!(!Tail::P90.supported(99));
        assert!((Tail::P99.share() - 0.99).abs() < 1e-12);
    }
}
