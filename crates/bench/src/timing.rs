//! The measured-iterations timer behind `experiments bench` — the
//! offline, zero-dependency replacement for criterion.
//!
//! A closure is warmed up, calibrated to a fixed wall-clock budget, then
//! timed over several samples of many iterations; [`crate::perf`] turns
//! the samples into the `BENCH.json` kernel statistics.

use std::time::{Duration, Instant};

/// Number of timed samples per benchmark.
const SAMPLES: usize = 5;

pub(crate) fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// One benchmark's raw timings: per-iteration nanoseconds for each
/// measured sample (ascending), plus the calibrated batch size — what
/// the `experiments bench` perf-snapshot suite serialises into
/// `BENCH.json` (see [`crate::perf`]).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Per-iteration time of each sample, nanoseconds, sorted ascending.
    pub per_iter_ns: Vec<f64>,
    /// Iterations per sample (calibrated to the measurement budget).
    pub iters: u64,
}

impl Measurement {
    /// Mean per-iteration time over the samples.
    pub fn mean_ns(&self) -> f64 {
        self.per_iter_ns.iter().sum::<f64>() / self.per_iter_ns.len().max(1) as f64
    }

    /// Population standard deviation of the per-sample times.
    pub fn std_ns(&self) -> f64 {
        let mean = self.mean_ns();
        let var = self.per_iter_ns.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>()
            / self.per_iter_ns.len().max(1) as f64;
        var.sqrt()
    }

    /// Fastest sample (the noise floor).
    pub fn min_ns(&self) -> f64 {
        self.per_iter_ns.first().copied().unwrap_or(f64::NAN)
    }
}

/// Warms up, calibrates, and times `f` over a fixed number of samples
/// inside `budget` of wall clock, returning the raw per-sample timings.
pub fn measure_with_budget<R>(budget: Duration, mut f: impl FnMut() -> R) -> Measurement {
    // Warm-up (fills caches, triggers lazy initialization).
    for _ in 0..2 {
        std::hint::black_box(f());
    }
    // Calibrate: double the batch size until one batch is long enough to
    // time reliably, then size batches to fit the per-sample budget.
    let mut iters: u64 = 1;
    let per_iter_ns = loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(10) || iters >= 1 << 24 {
            break (elapsed.as_nanos().max(1) as f64 / iters as f64).max(1.0);
        }
        iters *= 2;
    };
    let sample_budget_ns = budget.as_nanos() as f64 / SAMPLES as f64;
    let iters = ((sample_budget_ns / per_iter_ns) as u64).max(1);

    let mut times: Vec<f64> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        times.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    Measurement { per_iter_ns: times, iters }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(12_300.0), "12.30 µs");
        assert_eq!(fmt_ns(12_300_000.0), "12.30 ms");
        assert_eq!(fmt_ns(2_000_000_000.0), "2.000 s");
    }

    #[test]
    fn measurement_statistics_are_consistent() {
        let m = Measurement { per_iter_ns: vec![1.0, 2.0, 3.0, 4.0, 10.0], iters: 7 };
        assert!((m.mean_ns() - 4.0).abs() < 1e-12);
        assert_eq!(m.min_ns(), 1.0);
        // population std of [1,2,3,4,10] around 4: sqrt((9+4+1+0+36)/5)
        assert!((m.std_ns() - (50.0f64 / 5.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn measure_returns_sorted_positive_samples() {
        let m = measure_with_budget(Duration::from_millis(20), || {
            std::hint::black_box(3u64.wrapping_mul(17))
        });
        assert_eq!(m.per_iter_ns.len(), SAMPLES);
        assert!(m.iters >= 1);
        assert!(m.per_iter_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(m.per_iter_ns.iter().all(|&t| t > 0.0));
    }
}
