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
    /// Classic shard-based split (McMahan et al.): sort by label, cut into
    /// `2M` shards, give each client two — every client sees ~2 classes.
    Shards,
    /// Dirichlet label skew (Hsu et al.): each client's label
    /// distribution is drawn from `Dir(α·1)`; small `α` is extremely
    /// non-IID, large `α` approaches IID. The de-facto standard non-IID
    /// benchmark knob in the FL literature, provided as an extension
    /// beyond the paper's principal-mix scheme.
    Dirichlet {
        /// Concentration parameter α > 0.
        alpha: f64,
    },
}

impl Partition {
    /// Splits `dataset` into `num_clients` index pools.
    ///
    /// Every sample index appears in exactly one pool for [`Partition::Iid`]
    /// and [`Partition::Shards`]; `PrincipalMix` samples with replacement
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
            Partition::Shards => {
                let mut idx: Vec<usize> = (0..dataset.len()).collect();
                idx.sort_by_key(|&i| dataset.labels[i]);
                let num_shards = 2 * num_clients;
                let shard_len = (dataset.len() / num_shards).max(1);
                let mut shards: Vec<Vec<usize>> =
                    idx.chunks(shard_len).map(|c| c.to_vec()).collect();
                shards.shuffle(&mut rng);
                let mut pools = vec![Vec::new(); num_clients];
                for (i, shard) in shards.into_iter().enumerate() {
                    pools[i % num_clients].extend(shard);
                }
                pools
            }
            Partition::Dirichlet { alpha } => {
                assert!(alpha > 0.0, "Dirichlet alpha must be positive, got {alpha}");
                // For each class, split its samples across clients with
                // proportions ~ Dir(alpha): draw Gamma(alpha, 1) per
                // client and normalize.
                use fedl_linalg::rng::{Distribution, Gamma};
                let gamma = Gamma::new(alpha, 1.0);
                let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); dataset.num_classes];
                for (i, &l) in dataset.labels.iter().enumerate() {
                    by_class[l].push(i);
                }
                let mut pools = vec![Vec::new(); num_clients];
                for mut class_idx in by_class {
                    class_idx.shuffle(&mut rng);
                    let mut weights: Vec<f64> =
                        (0..num_clients).map(|_| gamma.sample(&mut rng).max(1e-12)).collect();
                    let total: f64 = weights.iter().sum();
                    for w in &mut weights {
                        *w /= total;
                    }
                    // Convert proportions to cumulative cut points.
                    let n = class_idx.len();
                    let mut start = 0usize;
                    let mut acc = 0.0;
                    for (client, &w) in weights.iter().enumerate() {
                        acc += w;
                        let end = if client + 1 == num_clients {
                            n
                        } else {
                            ((acc * n as f64).round() as usize).clamp(start, n)
                        };
                        pools[client].extend_from_slice(&class_idx[start..end]);
                        start = end;
                    }
                }
                // Guarantee no client is left empty (the simulator
                // requires every client to own data): give empty pools
                // one sample from the largest pool.
                for k in 0..num_clients {
                    if pools[k].is_empty() {
                        let donor = (0..num_clients)
                            .max_by_key(|&j| pools[j].len())
                            .expect("at least one pool");
                        let sample = pools[donor].pop().expect("donor non-empty");
                        pools[k].push(sample);
                    }
                }
                pools
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
    fn shards_split_covers_everything() {
        let (train, _) = small_fmnist(200, 10, 2);
        let pools = Partition::Shards.split(&train, 10, 7);
        let total: usize = pools.iter().map(Vec::len).sum();
        assert_eq!(total, train.len());
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
    fn shards_more_skewed_than_iid() {
        let (train, _) = small_fmnist(1000, 10, 4);
        let iid = Partition::Iid.split(&train, 20, 6);
        let shards = Partition::Shards.split(&train, 20, 6);
        assert!(label_skew(&train, &shards) > label_skew(&train, &iid));
    }

    #[test]
    fn deterministic_in_seed() {
        let (train, _) = small_fmnist(100, 10, 5);
        let a = Partition::Shards.split(&train, 5, 9);
        let b = Partition::Shards.split(&train, 5, 9);
        assert_eq!(a, b);
        let c = Partition::Shards.split(&train, 5, 10);
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

    #[test]
    fn dirichlet_covers_everything_once() {
        let (train, _) = small_fmnist(600, 10, 7);
        let pools = Partition::Dirichlet { alpha: 0.5 }.split(&train, 12, 9);
        let mut seen = vec![false; train.len()];
        for pool in &pools {
            assert!(!pool.is_empty(), "no client may be empty");
            for &i in pool {
                assert!(!seen[i], "sample {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dirichlet_alpha_controls_skew() {
        let (train, _) = small_fmnist(2000, 10, 8);
        let skew_at = |alpha: f64| {
            let pools = Partition::Dirichlet { alpha }.split(&train, 15, 11);
            label_skew(&train, &pools)
        };
        let very_skewed = skew_at(0.05);
        let mild = skew_at(100.0);
        assert!(very_skewed > mild + 0.2, "alpha must control skew: {very_skewed} vs {mild}");
        assert!(mild < 0.25, "alpha=100 should be near IID, skew {mild}");
    }

    #[test]
    #[should_panic(expected = "Dirichlet alpha")]
    fn dirichlet_rejects_bad_alpha() {
        let (train, _) = small_fmnist(20, 5, 1);
        let _ = Partition::Dirichlet { alpha: 0.0 }.split(&train, 2, 0);
    }
}
