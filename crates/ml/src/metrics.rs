//! Evaluation metrics: accuracy and loss on held-out data.

use fedl_data::Dataset;
use fedl_linalg::Matrix;

use crate::loss::cross_entropy_scratch;
use crate::model::Model;

/// Share of rows whose largest logit is the row's label.
fn correct_share(logits: &Matrix, labels: &[usize]) -> f64 {
    let correct = logits.row_argmax().iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / labels.len() as f64
}

/// Cross-entropy of `logits` against one-hot `targets` plus the model's
/// penalty: the regularized loss, given the forward pass.
fn regularized_loss(model: &dyn Model, logits: &Matrix, targets: &Matrix) -> f64 {
    (cross_entropy_scratch(logits, targets, &mut Vec::new(), &mut Matrix::default())
        + model.penalty()) as f64
}

/// Classification accuracy of `model` on `data` in `[0, 1]`.
pub fn accuracy(model: &dyn Model, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    correct_share(&model.forward(&data.features), &data.labels)
}

/// Regularized loss of `model` on `data` against prebuilt targets:
/// `targets` is `data.one_hot_labels()`, built once by a caller that
/// evaluates the same set every epoch.
pub fn loss_against(model: &dyn Model, data: &Dataset, targets: &Matrix) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    regularized_loss(model, &model.forward(&data.features), targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SoftmaxRegression;
    use crate::sgd::{run, SgdConfig};
    use fedl_data::synth::small_fmnist;
    use fedl_linalg::rng::rng_for;

    #[test]
    fn untrained_model_near_chance() {
        let (_, test) = small_fmnist(10, 500, 1);
        let model = SoftmaxRegression::new(test.dim(), test.num_classes, 0.0);
        let acc = accuracy(&model, &test);
        // Zero weights -> uniform logits -> argmax is class 0 everywhere;
        // with balanced classes that's ~10%.
        assert!(acc < 0.2, "{acc}");
    }

    #[test]
    fn trained_model_beats_chance_substantially() {
        let (train, test) = small_fmnist(1500, 400, 2);
        let mut model = SoftmaxRegression::new(train.dim(), train.num_classes, 0.001);
        let cfg = SgdConfig { lr: 0.5, batch: 32, steps: 600, clip: Some(10.0) };
        run(&mut model, &train, &cfg, &mut rng_for(1, 0));
        let acc = accuracy(&model, &test);
        assert!(acc > 0.6, "trained accuracy only {acc}");
        assert!(loss_against(&model, &test, &test.one_hot_labels()) < (10.0f64).ln());
    }

    #[test]
    fn empty_dataset_conventions() {
        let (train, _) = small_fmnist(10, 5, 4);
        let model = SoftmaxRegression::new(train.dim(), train.num_classes, 0.0);
        let empty = train.subset(&[]);
        assert_eq!(accuracy(&model, &empty), 0.0);
        assert_eq!(loss_against(&model, &empty, &empty.one_hot_labels()), 0.0);
    }
}
