//! Online per-epoch data arrival.
//!
//! The paper transforms all client data "into online data followed by
//! Poisson distribution" (§6.1): at each epoch a client works on a
//! freshly arrived batch whose size is Poisson-distributed, which is what
//! makes the data volumes `D_{t,k}` — and hence the computation latencies
//! — time-varying and unpredictable for the selector.

use fedl_linalg::rng::{rng_for, Distribution, Poisson, Rng, XoshiroLanes, LANES};

use crate::Dataset;

/// The largest batch a stream with rate `lambda` hands out in one epoch:
/// arrivals are clamped to `[1, max_batch(λ)]` so a selected client is
/// never idle and memory stays bounded.
pub fn max_batch(lambda: f64) -> usize {
    (lambda * 4.0).ceil() as usize + 8
}

/// Clamped Poisson arrival count for epoch `epoch` of a client stream
/// with rate `lambda` and root seed `seed`.
///
/// This is exactly `OnlineStream::arrivals(epoch).len()` — the count is
/// the *first* draw of the per-epoch RNG stream, before any sample
/// indices — but it can be computed without a pool in hand, which is
/// what lets the columnar population store (`fedl-sim`'s
/// `ClientColumns`) realize million-client data volumes without
/// materializing per-client index pools (docs/SCALE.md).
pub fn arrival_count(seed: u64, lambda: f64, epoch: usize) -> usize {
    let mut rng = rng_for(seed, 0x57EA ^ (epoch as u64));
    (Poisson::new(lambda).sample(&mut rng) as usize).clamp(1, max_batch(lambda))
}

/// [`arrival_count`] for [`LANES`] streams at once: lane `i` is
/// `arrival_count(seeds[i], lambdas[i], epoch)`, drawn by
/// [`Poisson::sample_lanes`] in lockstep.
pub fn arrival_count_lanes(
    seeds: &[u64; LANES],
    lambdas: &[f64; LANES],
    epoch: usize,
) -> [usize; LANES] {
    let mut rng = XoshiroLanes::new(seeds, 0x57EA ^ (epoch as u64));
    let counts = Poisson::sample_lanes(lambdas, &mut rng);
    std::array::from_fn(|i| (counts[i] as usize).clamp(1, max_batch(lambdas[i])))
}

/// Per-client online data source: each epoch yields a Poisson-sized
/// multiset of sample indices drawn from the client's partition pool.
#[derive(Debug, Clone)]
pub struct OnlineStream {
    /// The client's index pool within the global training set.
    pool: Vec<usize>,
    /// Mean per-epoch arrival count λ.
    lambda: f64,
    /// Root seed (per-client).
    seed: u64,
}

impl OnlineStream {
    /// Creates the stream.
    ///
    /// # Panics
    /// Panics on an empty pool or non-positive λ.
    pub fn new(pool: Vec<usize>, lambda: f64, seed: u64) -> Self {
        assert!(!pool.is_empty(), "online stream needs a non-empty pool");
        assert!(lambda > 0.0, "Poisson rate must be positive, got {lambda}");
        Self { pool, lambda, seed }
    }

    /// Mean arrival rate.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Number of distinct samples the client can ever draw.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// The sample indices available to this client at `epoch`.
    ///
    /// Deterministic in `(seed, epoch)`: re-querying the same epoch gives
    /// the same arrivals, so selection policies can be compared on
    /// identical inputs.
    pub fn arrivals(&self, epoch: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.arrivals_into(epoch, &mut out);
        out
    }

    /// [`Self::arrivals`] written into a caller-owned vector (cleared
    /// first); steady-state reuse performs no allocation.
    pub fn arrivals_into(&self, epoch: usize, out: &mut Vec<usize>) {
        let mut rng = rng_for(self.seed, 0x57EA ^ (epoch as u64));
        let poisson = Poisson::new(self.lambda);
        let count = (poisson.sample(&mut rng) as usize).clamp(1, max_batch(self.lambda));
        out.clear();
        out.extend((0..count).map(|_| self.pool[rng.gen_range(0..self.pool.len())]));
    }

    /// The number of arrivals at `epoch`, without materializing them.
    /// Always equal to `self.arrivals(epoch).len()`.
    pub fn arrival_count(&self, epoch: usize) -> usize {
        arrival_count(self.seed, self.lambda, epoch)
    }

    /// Materializes the epoch-`epoch` working set as a dataset.
    pub fn epoch_dataset(&self, source: &Dataset, epoch: usize) -> Dataset {
        source.subset(&self.arrivals(epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::small_fmnist;
    use fedl_linalg::Matrix;

    fn stream() -> OnlineStream {
        OnlineStream::new((0..50).collect(), 12.0, 99)
    }

    #[test]
    fn deterministic_per_epoch() {
        let s = stream();
        assert_eq!(s.arrivals(3), s.arrivals(3));
        assert_ne!(s.arrivals(3), s.arrivals(4));
    }

    #[test]
    fn arrivals_within_pool_and_bounds() {
        let s = stream();
        for epoch in 0..50 {
            let a = s.arrivals(epoch);
            assert!(!a.is_empty());
            assert!(a.len() <= max_batch(s.lambda));
            assert!(a.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn mean_volume_tracks_lambda() {
        let s = stream();
        let n = 400;
        let mean: f64 = (0..n).map(|e| s.arrivals(e).len() as f64).sum::<f64>() / n as f64;
        assert!((mean - 12.0).abs() < 1.5, "empirical mean {mean} far from λ=12");
    }

    #[test]
    fn volumes_actually_vary() {
        let s = stream();
        let sizes: Vec<usize> = (0..50).map(|e| s.arrivals(e).len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max > min, "Poisson volumes should fluctuate: {sizes:?}");
    }

    #[test]
    fn arrival_count_equals_materialized_len() {
        let s = stream();
        for epoch in 0..200 {
            assert_eq!(s.arrival_count(epoch), s.arrivals(epoch).len(), "epoch {epoch}");
            assert_eq!(arrival_count(99, 12.0, epoch), s.arrivals(epoch).len());
        }
    }

    #[test]
    fn epoch_dataset_matches_arrivals() {
        let (train, _) = small_fmnist(50, 5, 7);
        let s = OnlineStream::new((0..train.len()).collect(), 6.0, 1);
        let ds = s.epoch_dataset(&train, 2);
        let arr = s.arrivals(2);
        assert_eq!(ds.len(), arr.len());
        for (r, &i) in arr.iter().enumerate() {
            assert_eq!(ds.features.row(r), train.features.row(i));
            assert_eq!(ds.labels[r], train.labels[i]);
        }
        // The buffer-reusing forms agree with the owned ones, whatever
        // the buffers held before.
        let mut idx = vec![99; 40];
        s.arrivals_into(2, &mut idx);
        assert_eq!(idx, arr);
        let (mut x, mut y) = (Matrix::full(3, 2, 7.0), Matrix::full(1, 1, 7.0));
        train.gather_into(&idx, &mut x, &mut y);
        assert_eq!(x, ds.features);
        assert_eq!(y, ds.one_hot_labels());
    }

    #[test]
    #[should_panic(expected = "non-empty pool")]
    fn empty_pool_rejected() {
        let _ = OnlineStream::new(vec![], 3.0, 0);
    }

    #[test]
    #[should_panic(expected = "Poisson rate")]
    fn bad_lambda_rejected() {
        let _ = OnlineStream::new(vec![0], 0.0, 0);
    }
}
