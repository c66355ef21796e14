//! Seeded synthetic classification datasets with the tensor shapes of the
//! paper's benchmarks.
//!
//! Each class `c` gets several random sub-template ("mode") vectors
//! `μ_{c,v}` — classes are multi-modal, like the pose/style variation in
//! real image classes, so a classifier cannot nail a class from a single
//! mean and accuracy climbs gradually over training. A sample of class
//! `c` is `clamp((1−ρ)·μ_{c,v} + ρ·μ_{c',v'} + σ·ε, 0, 1)` where `ε` is
//! white noise and the cross-class leak `ρ·μ_{c',v'}` (a mode of a
//! random *other* class) controls class overlap. FMNIST-like uses few
//! modes and a small leak — it trains to high accuracy, mirroring how
//! easily FMNIST trains. CIFAR-like uses more modes, a larger leak, and
//! more noise, capping achievable accuracy well below the FMNIST-like
//! task, mirroring CIFAR-10's difficulty in the paper (Figs. 3/5
//! plateau lower than Figs. 2/4).

use fedl_linalg::rng::{rng_for, Normal, Rng};
use fedl_linalg::Matrix;

use crate::Dataset;

/// Which benchmark the synthetic data imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// 784-dimensional, 10 classes, well-separated (easy, like FMNIST).
    FmnistLike,
    /// 3072-dimensional, 10 classes, heavy overlap (hard, like CIFAR-10).
    CifarLike,
}

impl TaskKind {
    /// Feature dimensionality of the imitated dataset.
    pub fn dim(self) -> usize {
        match self {
            TaskKind::FmnistLike => 784,
            TaskKind::CifarLike => 3072,
        }
    }

    /// Number of classes (both benchmarks have ten).
    pub fn num_classes(self) -> usize {
        10
    }

    fn noise_std(self) -> f32 {
        match self {
            TaskKind::FmnistLike => 0.30,
            TaskKind::CifarLike => 0.35,
        }
    }

    fn leak(self) -> f32 {
        match self {
            TaskKind::FmnistLike => 0.30,
            TaskKind::CifarLike => 0.40,
        }
    }

    /// Sub-templates per class (within-class modes).
    fn modes(self) -> usize {
        match self {
            TaskKind::FmnistLike => 4,
            TaskKind::CifarLike => 6,
        }
    }
}

/// Full specification of a synthetic dataset draw.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Benchmark shape/difficulty.
    pub task: TaskKind,
    /// Number of training samples.
    pub train_size: usize,
    /// Number of held-out test samples.
    pub test_size: usize,
    /// Root seed; templates and samples derive from it deterministically.
    pub seed: u64,
    /// Optional dimensionality override (smaller dims make unit tests and
    /// CI-scale experiments fast while keeping the same generator).
    pub dim_override: Option<usize>,
}

impl SyntheticSpec {
    /// Spec with the benchmark's native dimensionality.
    pub fn new(task: TaskKind, train_size: usize, test_size: usize, seed: u64) -> Self {
        Self { task, train_size, test_size, seed, dim_override: None }
    }

    /// Overrides the feature dimension (generator behaviour otherwise
    /// unchanged).
    pub fn with_dim(mut self, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        self.dim_override = Some(dim);
        self
    }

    /// Effective feature dimension.
    pub fn dim(&self) -> usize {
        self.dim_override.unwrap_or_else(|| self.task.dim())
    }

    /// Generates `(train, test)` datasets.
    ///
    /// Both splits share the class templates (they describe the same
    /// "world") but use independent sample noise.
    pub fn generate(&self) -> (Dataset, Dataset) {
        let dim = self.dim();
        let classes = self.task.num_classes();
        let modes = self.task.modes();
        let mut template_rng = rng_for(self.seed, 0xDA7A);
        // One template per (class, mode), in [0,1]^dim.
        let templates: Vec<Vec<Vec<f32>>> = (0..classes)
            .map(|_| {
                (0..modes)
                    .map(|_| (0..dim).map(|_| template_rng.gen_range(0.0..1.0)).collect())
                    .collect()
            })
            .collect();

        let train = self.sample_split(&templates, self.train_size, 1);
        let test = self.sample_split(&templates, self.test_size, 2);
        (train, test)
    }

    fn sample_split(&self, templates: &[Vec<Vec<f32>>], n: usize, label: u64) -> Dataset {
        let dim = self.dim();
        let classes = templates.len();
        let modes = self.task.modes();
        let mut rng = rng_for(self.seed, 0xDA7A ^ (label << 8));
        let noise = Normal::new(0.0, self.task.noise_std() as f64);
        let leak = self.task.leak();

        let mut features = Matrix::zeros(n, dim);
        let mut labels = Vec::with_capacity(n);
        // One row's noise at a time (a whole split's would be 8 bytes a
        // feature): `fill` draws it sixteen pairs at a time, and an odd
        // `dim` leaves the Box–Muller spare in `noise` for the next row,
        // as sampling value by value does.
        let mut row_noise = vec![0.0; dim];
        for r in 0..n {
            let c = rng.gen_range(0..classes);
            let v = rng.gen_range(0..modes);
            // Pick a distinct "leak" class (any of its modes) to blend in.
            let other = if classes > 1 {
                let mut o = rng.gen_range(0..classes - 1);
                if o >= c {
                    o += 1;
                }
                o
            } else {
                c
            };
            let ov = rng.gen_range(0..modes);
            noise.fill(&mut rng, &mut row_noise);
            let blend = templates[c][v].iter().zip(&templates[other][ov]).zip(&row_noise);
            for (val, ((&own, &leaked), &z)) in features.row_mut(r).iter_mut().zip(blend) {
                let raw = (1.0 - leak) * own + leak * leaked + z as f32;
                *val = raw.clamp(0.0, 1.0);
            }
            labels.push(c);
        }
        Dataset::new(features, labels, classes)
    }
}

/// Convenience constructor used throughout the examples and benches: a
/// reduced-dimension FMNIST-like task that trains in milliseconds.
pub fn small_fmnist(train: usize, test: usize, seed: u64) -> (Dataset, Dataset) {
    SyntheticSpec::new(TaskKind::FmnistLike, train, test, seed).with_dim(64).generate()
}

/// Reduced-dimension CIFAR-like task for fast tests.
pub fn small_cifar(train: usize, test: usize, seed: u64) -> (Dataset, Dataset) {
    SyntheticSpec::new(TaskKind::CifarLike, train, test, seed).with_dim(128).generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_spec() {
        let spec = SyntheticSpec::new(TaskKind::FmnistLike, 50, 20, 1).with_dim(16);
        let (train, test) = spec.generate();
        assert_eq!(train.len(), 50);
        assert_eq!(test.len(), 20);
        assert_eq!(train.dim(), 16);
        assert_eq!(train.num_classes, 10);
    }

    #[test]
    fn native_dims_match_benchmarks() {
        assert_eq!(TaskKind::FmnistLike.dim(), 784);
        assert_eq!(TaskKind::CifarLike.dim(), 3072);
        let spec = SyntheticSpec::new(TaskKind::FmnistLike, 1, 1, 0);
        assert_eq!(spec.dim(), 784);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticSpec::new(TaskKind::CifarLike, 10, 5, 9).with_dim(8).generate();
        let b = SyntheticSpec::new(TaskKind::CifarLike, 10, 5, 9).with_dim(8).generate();
        assert_eq!(a.0.labels, b.0.labels);
        assert_eq!(a.0.features.as_slice(), b.0.features.as_slice());
        let c = SyntheticSpec::new(TaskKind::CifarLike, 10, 5, 10).with_dim(8).generate();
        assert_ne!(a.0.features.as_slice(), c.0.features.as_slice());
    }

    #[test]
    fn values_stay_in_unit_interval() {
        let (train, _) = small_cifar(200, 10, 3);
        assert!(train.features.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn train_and_test_are_different_draws() {
        let (train, test) = small_fmnist(30, 30, 4);
        assert_ne!(train.features.as_slice(), test.features.as_slice());
    }

    #[test]
    fn classes_are_roughly_balanced() {
        let (train, _) = small_fmnist(2000, 10, 5);
        let counts = train.class_counts();
        for &c in &counts {
            // Each of 10 classes expects ~200; Binomial spread is tight.
            assert!(c > 120 && c < 300, "unbalanced class counts {counts:?}");
        }
    }

    /// The nearest-template classifier must beat chance comfortably on the
    /// easy task and still beat chance on the hard one — this is the
    /// learnability property the FL evaluation relies on.
    #[test]
    fn nearest_template_separability() {
        // Class means are weak classifiers by design (multi-modal
        // classes); the floors check "clearly above the 10% chance
        // level", not separability by a single prototype.
        for (task, floor) in [(TaskKind::FmnistLike, 0.35), (TaskKind::CifarLike, 0.15)] {
            let spec = SyntheticSpec::new(task, 300, 300, 11).with_dim(32);
            let (train, test) = spec.generate();
            // Estimate class means from train.
            let dim = train.dim();
            let mut means = vec![vec![0.0f32; dim]; 10];
            let counts = train.class_counts();
            for (r, &l) in train.labels.iter().enumerate() {
                for (m, &v) in means[l].iter_mut().zip(train.features.row(r)) {
                    *m += v;
                }
            }
            for (mean, &cnt) in means.iter_mut().zip(&counts) {
                let denom = cnt.max(1) as f32;
                for m in mean.iter_mut() {
                    *m /= denom;
                }
            }
            let mut correct = 0;
            for (r, &l) in test.labels.iter().enumerate() {
                let row = test.features.row(r);
                let pred = (0..10)
                    .min_by(|&a, &b| {
                        let da: f32 =
                            row.iter().zip(&means[a]).map(|(x, m)| (x - m) * (x - m)).sum();
                        let db: f32 =
                            row.iter().zip(&means[b]).map(|(x, m)| (x - m) * (x - m)).sum();
                        da.partial_cmp(&db).unwrap()
                    })
                    .unwrap();
                if pred == l {
                    correct += 1;
                }
            }
            let acc = correct as f32 / test.len() as f32;
            assert!(acc > floor, "{task:?}: nearest-template accuracy {acc} <= {floor}");
        }
    }

    /// The CIFAR-like task must actually be harder than the FMNIST-like
    /// task at matched sizes — the relative difficulty drives the paper's
    /// Fig. 2 vs Fig. 3 contrast.
    #[test]
    fn cifar_like_is_harder() {
        let acc = |task: TaskKind| {
            let spec = SyntheticSpec::new(task, 400, 400, 21).with_dim(32);
            let (train, test) = spec.generate();
            let dim = train.dim();
            let mut means = vec![vec![0.0f32; dim]; 10];
            let counts = train.class_counts();
            for (r, &l) in train.labels.iter().enumerate() {
                for (m, &v) in means[l].iter_mut().zip(train.features.row(r)) {
                    *m += v;
                }
            }
            for (mean, &cnt) in means.iter_mut().zip(&counts) {
                for m in mean.iter_mut() {
                    *m /= cnt.max(1) as f32;
                }
            }
            let correct = test
                .labels
                .iter()
                .enumerate()
                .filter(|(r, &l)| {
                    let row = test.features.row(*r);
                    let pred = (0..10)
                        .min_by(|&a, &b| {
                            let da: f32 =
                                row.iter().zip(&means[a]).map(|(x, m)| (x - m) * (x - m)).sum();
                            let db: f32 =
                                row.iter().zip(&means[b]).map(|(x, m)| (x - m) * (x - m)).sum();
                            da.partial_cmp(&db).unwrap()
                        })
                        .unwrap();
                    pred == l
                })
                .count();
            correct as f32 / test.len() as f32
        };
        assert!(acc(TaskKind::FmnistLike) > acc(TaskKind::CifarLike) + 0.1);
    }
}
