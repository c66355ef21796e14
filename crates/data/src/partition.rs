//! Splitting a dataset across federated clients, IID or non-IID.

use fedl_linalg::rng::{rng_for, Rng, SliceRandom};

use crate::Dataset;

/// How training data is distributed across the `M` clients.
///
/// # Examples
///
/// ```
/// use fedl_data::synth::small_fmnist;
/// use fedl_data::Partition;
///
/// let (train, _) = small_fmnist(200, 20, 1);
/// let pools = Partition::Iid.split(&train, 10, 42);
/// assert_eq!(pools.len(), 10);
/// let total: usize = pools.iter().map(Vec::len).sum();
/// assert_eq!(total, train.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Partition {
    /// Uniformly random split — every client sees the global distribution.
    Iid,
    /// The paper's non-IID scheme (§6.1): each client draws a fraction
    /// `principal_frac` of its data from one "principal" class and the
    /// remainder uniformly from the rest of the dataset.
    PrincipalMix {
        /// Fraction of each client's samples from its principal class,
        /// in `(0, 1]`.
        principal_frac: f64,
    },
}

impl Partition {
    /// Splits `dataset` into `num_clients` index pools.
    ///
    /// Every sample index appears in exactly one pool for
    /// [`Partition::Iid`]; `PrincipalMix` samples with replacement
    /// (clients may share samples), matching "randomly select the
    /// remaining data from another \[dataset\]".
    ///
    /// # Panics
    /// Panics if `num_clients == 0` or the dataset is empty.
    pub fn split(&self, dataset: &Dataset, num_clients: usize, seed: u64) -> Vec<Vec<usize>> {
        assert!(num_clients > 0, "need at least one client");
        assert!(!dataset.is_empty(), "cannot partition an empty dataset");
        let mut rng = rng_for(seed, 0x9A47);
        match *self {
            Partition::Iid => {
                let mut idx: Vec<usize> = (0..dataset.len()).collect();
                idx.shuffle(&mut rng);
                let mut pools = vec![Vec::new(); num_clients];
                for (i, s) in idx.into_iter().enumerate() {
                    pools[i % num_clients].push(s);
                }
                pools
            }
            Partition::PrincipalMix { principal_frac } => {
                assert!(
                    principal_frac > 0.0 && principal_frac <= 1.0,
                    "principal_frac must be in (0,1], got {principal_frac}"
                );
                // Index samples by class for principal draws.
                let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); dataset.num_classes];
                for (i, &l) in dataset.labels.iter().enumerate() {
                    by_class[l].push(i);
                }
                let per_client = (dataset.len() / num_clients).max(1);
                (0..num_clients)
                    .map(|k| {
                        // Principal class cycles over clients so all
                        // classes stay represented in the federation.
                        let mut principal = k % dataset.num_classes;
                        if by_class[principal].is_empty() {
                            principal = (0..dataset.num_classes)
                                .find(|&c| !by_class[c].is_empty())
                                .expect("non-empty dataset has a non-empty class");
                        }
                        let n_principal = ((per_client as f64) * principal_frac).round() as usize;
                        let mut pool = Vec::with_capacity(per_client);
                        for _ in 0..n_principal {
                            let src = &by_class[principal];
                            pool.push(src[rng.gen_range(0..src.len())]);
                        }
                        for _ in n_principal..per_client {
                            pool.push(rng.gen_range(0..dataset.len()));
                        }
                        pool
                    })
                    .collect()
            }
        }
    }
}

/// Measures how non-IID a split is: mean total-variation distance between
/// each client's label distribution and the global one (0 = perfectly
/// IID, approaches 1 - 1/classes for single-class clients).
pub fn label_skew(dataset: &Dataset, pools: &[Vec<usize>]) -> f64 {
    let global = dataset.class_counts();
    let total = dataset.len() as f64;
    let global_p: Vec<f64> = global.iter().map(|&c| c as f64 / total).collect();
    let mut acc = 0.0;
    let mut used = 0;
    for pool in pools {
        if pool.is_empty() {
            continue;
        }
        let mut counts = vec![0usize; dataset.num_classes];
        for &i in pool {
            counts[dataset.labels[i]] += 1;
        }
        let n = pool.len() as f64;
        let tv: f64 =
            counts.iter().zip(&global_p).map(|(&c, &gp)| (c as f64 / n - gp).abs()).sum::<f64>()
                / 2.0;
        acc += tv;
        used += 1;
    }
    if used == 0 {
        0.0
    } else {
        acc / used as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::small_fmnist;

    #[test]
    fn iid_split_covers_everything_once() {
        let (train, _) = small_fmnist(100, 10, 1);
        let pools = Partition::Iid.split(&train, 7, 42);
        assert_eq!(pools.len(), 7);
        let mut seen = vec![false; train.len()];
        for pool in &pools {
            for &i in pool {
                assert!(!seen[i], "sample {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Balanced within one sample.
        let sizes: Vec<usize> = pools.iter().map(Vec::len).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn principal_mix_is_skewed() {
        let (train, _) = small_fmnist(1000, 10, 3);
        let iid = Partition::Iid.split(&train, 10, 5);
        let mix = Partition::PrincipalMix { principal_frac: 0.8 }.split(&train, 10, 5);
        let skew_iid = label_skew(&train, &iid);
        let skew_mix = label_skew(&train, &mix);
        assert!(
            skew_mix > skew_iid + 0.3,
            "principal mix should be much more skewed: {skew_mix} vs {skew_iid}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let (train, _) = small_fmnist(100, 10, 5);
        let mix = Partition::PrincipalMix { principal_frac: 0.8 };
        let a = mix.split(&train, 5, 9);
        let b = mix.split(&train, 5, 9);
        assert_eq!(a, b);
        let c = mix.split(&train, 5, 10);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let (train, _) = small_fmnist(10, 5, 1);
        let _ = Partition::Iid.split(&train, 0, 0);
    }

    #[test]
    #[should_panic(expected = "principal_frac")]
    fn bad_principal_frac_rejected() {
        let (train, _) = small_fmnist(10, 5, 1);
        let _ = Partition::PrincipalMix { principal_frac: 1.5 }.split(&train, 2, 0);
    }
}
