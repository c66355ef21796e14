//! Datasets for the FedL reproduction.
//!
//! The paper evaluates on Fashion-MNIST and CIFAR-10, split across 100
//! mobile clients both IID and non-IID, with each client's working set
//! arriving *online* as a Poisson process (§6.1). This crate provides all
//! of that:
//!
//! * [`synth`] — seeded synthetic 10-class datasets with the exact tensor
//!   shapes of FMNIST (784-dim) and CIFAR-10 (3072-dim). The repository
//!   cannot ship the real image files, so these generators stand in; the
//!   CIFAR-like task is constructed to be harder (heavier class overlap),
//!   matching the papers' relative difficulty. See DESIGN.md §2 for the
//!   substitution argument.
//! * [`partition`] — IID and non-IID partitioners. The paper's non-IID
//!   scheme ("choose a number of data from a principal dataset and
//!   randomly select the remaining from another") is
//!   [`Partition::PrincipalMix`]; a shard-based scheme is also provided.
//! * [`stream`] — per-epoch Poisson resampling of each client's working
//!   set, producing the time-varying data volumes `D_{t,k}`.
//! * [`idx`] / [`cifar`] — parsers and writers for the real on-disk
//!   formats (IDX for FMNIST, CIFAR-10 binary batches), so the harness
//!   runs on the genuine datasets when the files are present.
//!
//! System-inventory row **S3** in DESIGN.md §1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cifar;
pub mod idx;
pub mod partition;
pub mod stats;
pub mod stream;
pub mod synth;

pub use partition::Partition;

use fedl_linalg::Matrix;

/// A supervised classification dataset: one feature row per sample plus an
/// integer class label per row.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// `n_samples x n_features`, values normalized into `[0, 1]`.
    pub features: Matrix,
    /// Class label per sample, each `< num_classes`.
    pub labels: Vec<usize>,
    /// Number of distinct classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Builds a dataset, validating shape and label range.
    ///
    /// # Panics
    /// Panics if row count and label count disagree or a label is out of
    /// range — both indicate loader bugs, not recoverable states.
    pub fn new(features: Matrix, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(features.rows(), labels.len(), "feature/label count mismatch");
        assert!(num_classes >= 2, "need at least two classes");
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            panic!("label {bad} out of range for {num_classes} classes");
        }
        Self { features, labels, num_classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Extracts the sub-dataset given by `indices` (duplicates allowed —
    /// the Poisson stream resamples with replacement).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let features = self.features.select_rows(indices);
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset { features, labels, num_classes: self.num_classes }
    }

    /// The feature rows and one-hot labels of [`Self::subset`]`(indices)`
    /// written into caller-owned matrices (reshaped); steady-state reuse
    /// performs no allocation.
    pub fn gather_into(&self, indices: &[usize], x: &mut Matrix, y: &mut Matrix) {
        x.resize_to(indices.len(), self.dim());
        y.resize_to(indices.len(), self.num_classes);
        for (r, &i) in indices.iter().enumerate() {
            x.row_mut(r).copy_from_slice(self.features.row(i));
            y.set(r, self.labels[i], 1.0);
        }
    }

    /// One-hot label matrix (`n_samples x num_classes`), the target format
    /// for the cross-entropy loss.
    pub fn one_hot_labels(&self) -> Matrix {
        let mut m = Matrix::default();
        self.one_hot_labels_into(&mut m);
        m
    }

    /// [`Dataset::one_hot_labels`] written into a caller-owned matrix
    /// (reshaped and zeroed); steady-state reuse performs no allocation.
    pub fn one_hot_labels_into(&self, out: &mut Matrix) {
        out.resize_to(self.len(), self.num_classes);
        for (r, &l) in self.labels.iter().enumerate() {
            out.set(r, l, 1.0);
        }
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let features = Matrix::from_vec(4, 2, vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]);
        Dataset::new(features, vec![0, 1, 1, 2], 3)
    }

    #[test]
    fn construction_and_accessors() {
        let d = tiny();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.class_counts(), vec![1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "feature/label count mismatch")]
    fn rejects_count_mismatch() {
        let _ = Dataset::new(Matrix::zeros(3, 2), vec![0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_label() {
        let _ = Dataset::new(Matrix::zeros(2, 2), vec![0, 5], 3);
    }

    #[test]
    fn subset_with_duplicates() {
        let d = tiny();
        let s = d.subset(&[2, 2, 0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.labels, vec![1, 1, 0]);
        assert_eq!(s.features.row(0), d.features.row(2));
        assert_eq!(s.features.row(2), d.features.row(0));
    }

    #[test]
    fn one_hot_has_single_one_per_row() {
        let d = tiny();
        let oh = d.one_hot_labels();
        assert_eq!(oh.shape(), (4, 3));
        for (r, row) in oh.row_iter().enumerate() {
            assert_eq!(row.iter().sum::<f32>(), 1.0);
            assert_eq!(row[d.labels[r]], 1.0);
        }
    }
}
