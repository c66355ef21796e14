//! Numerically stable cross-entropy on logits.

use fedl_linalg::{ops, Matrix};

/// Mean cross-entropy of `logits` against one-hot `targets`, with a
/// caller-owned log-sum-exp buffer; steady-state reuse performs no
/// allocation.
///
/// Computed as `mean(logsumexp(row) − logit_true)`, which never
/// exponentiates un-shifted logits.
///
/// # Panics
/// Panics on shape mismatch or empty batch.
pub fn cross_entropy_scratch(logits: &Matrix, targets: &Matrix, lse: &mut Vec<f32>) -> f32 {
    assert_eq!(logits.shape(), targets.shape(), "loss shape mismatch");
    assert!(logits.rows() > 0, "cross entropy of an empty batch");
    ops::log_sum_exp_rows_into(logits, lse);
    let mut total = 0.0f32;
    for (r, (logit_row, target_row)) in logits.row_iter().zip(targets.row_iter()).enumerate() {
        let true_logit: f32 = logit_row.iter().zip(target_row).map(|(l, t)| l * t).sum();
        total += lse[r] - true_logit;
    }
    total / logits.rows() as f32
}

/// Cross-entropy and its gradient with respect to the logits,
/// `(softmax(logits) − targets) / batch`, written into a caller-owned
/// matrix (reshaped to match `logits`) with a reusable log-sum-exp
/// buffer; steady-state reuse performs no allocation.
pub fn cross_entropy_with_grad_into(
    logits: &Matrix,
    targets: &Matrix,
    lse: &mut Vec<f32>,
    grad: &mut Matrix,
) -> f32 {
    let loss = cross_entropy_scratch(logits, targets, lse);
    ops::softmax_rows_into(logits, grad);
    grad.axpy(-1.0, targets);
    grad.scale(1.0 / logits.rows() as f32);
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_linalg::approx_eq;

    fn ce(logits: &Matrix, targets: &Matrix) -> f32 {
        cross_entropy_scratch(logits, targets, &mut Vec::new())
    }

    fn ce_and_grad(logits: &Matrix, targets: &Matrix) -> (f32, Matrix) {
        let mut grad = Matrix::default();
        let loss = cross_entropy_with_grad_into(logits, targets, &mut Vec::new(), &mut grad);
        (loss, grad)
    }

    fn one_hot(labels: &[usize], classes: usize) -> Matrix {
        let mut m = Matrix::zeros(labels.len(), classes);
        for (r, &l) in labels.iter().enumerate() {
            m.set(r, l, 1.0);
        }
        m
    }

    #[test]
    fn uniform_logits_give_log_classes() {
        let logits = Matrix::zeros(4, 10);
        let targets = one_hot(&[0, 3, 5, 9], 10);
        let loss = ce(&logits, &targets);
        assert!(approx_eq(loss, (10.0f32).ln(), 1e-5), "{loss}");
    }

    #[test]
    fn confident_correct_prediction_has_tiny_loss() {
        let mut logits = Matrix::zeros(1, 3);
        logits.set(0, 1, 30.0);
        let loss = ce(&logits, &one_hot(&[1], 3));
        assert!(loss < 1e-5, "{loss}");
    }

    #[test]
    fn confident_wrong_prediction_has_large_loss() {
        let mut logits = Matrix::zeros(1, 3);
        logits.set(0, 0, 30.0);
        let loss = ce(&logits, &one_hot(&[1], 3));
        assert!(loss > 20.0, "{loss}");
    }

    #[test]
    fn stable_for_extreme_logits() {
        let logits = Matrix::from_vec(1, 3, vec![1e4, -1e4, 0.0]);
        let loss = ce(&logits, &one_hot(&[0], 3));
        assert!(loss.is_finite());
        assert!(loss < 1e-3);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let targets = one_hot(&[2, 0], 3);
        let (_, grad) = ce_and_grad(&logits, &targets);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = logits.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                let fd = (ce(&plus, &targets) - ce(&minus, &targets)) / (2.0 * eps);
                assert!(
                    approx_eq(grad.get(r, c), fd, 1e-2),
                    "grad {} vs fd {} at ({r},{c})",
                    grad.get(r, c),
                    fd
                );
            }
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // softmax minus one-hot always sums to zero per row.
        let logits = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.0, 1.0, 2.0]);
        let targets = one_hot(&[0, 3], 4);
        let (_, grad) = ce_and_grad(&logits, &targets);
        for row in grad.row_iter() {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-6, "{s}");
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        let _ = ce(&Matrix::zeros(0, 3), &Matrix::zeros(0, 3));
    }
}
