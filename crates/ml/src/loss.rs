//! Numerically stable cross-entropy on logits: one fused kernel.
//!
//! Every caller — the training passes, the loss-only forward, the
//! chunked evaluation walk — runs [`cross_entropy_fold`]'s body: each
//! row is shifted by its maximum, the whole shifted block is
//! exponentiated by **one** [`fastexp::exp_inplace`] call, and a last
//! pass sums each row in order and writes its log-sum-exp (and, for
//! training, the gradient). A 10-class row never fills the exp batch
//! ([`fastexp::EXP_LANES`] = 16) on its own; the contiguous block does.
//! Each `exp` is the same bitwise function on either path, and every sum
//! keeps its order, so the outputs are those of the three-pass
//! softmax / log-sum-exp / axpy form (`tests/oracle/loss.rs`) bit for bit.

use fedl_linalg::{fastexp, ops, Matrix};

/// The fused kernel over the `rows × cols` row-major `logits` against
/// one-hot `targets`: leaves each row's
/// `log(Σ exp)` in `lse` and `exp(x − max)` in `block`, and returns
/// `total + Σ_rows (lse − logit_true)`, folded in row order. With
/// `grad = Some(s)`, `block` becomes the gradient `(softmax − t)·s`.
#[allow(clippy::too_many_arguments)] // two operands, their shape, two buffers, the mode
fn fused(
    total: f32,
    logits: &[f32],
    targets: &[f32],
    (rows, cols): (usize, usize),
    lse: &mut Vec<f32>,
    block: &mut [f32],
    grad: Option<f32>,
) -> f32 {
    debug_assert!(logits.len() == rows * cols && block.len() == logits.len());
    // Shift: the block holds x − max; `lse` holds each row's max.
    lse.clear();
    for r in 0..rows {
        let row = &logits[r * cols..][..cols];
        let max = ops::row_max(row);
        for (e, &x) in block[r * cols..][..cols].iter_mut().zip(row) {
            *e = x - max;
        }
        lse.push(max);
    }
    fastexp::exp_inplace(block);
    let mut total = total;
    for (r, lse) in lse.iter_mut().enumerate() {
        let e = &mut block[r * cols..][..cols];
        let (row, t) = (&logits[r * cols..][..cols], &targets[r * cols..][..cols]);
        let mut sum = 0.0f32;
        for &v in e.iter() {
            sum += v;
        }
        let max = *lse;
        if max.is_finite() {
            *lse = max + sum.ln();
        }
        let true_logit: f32 = row.iter().zip(t).map(|(l, t)| l * t).sum();
        total += *lse - true_logit;
        if let Some(scale) = grad {
            let normalize = sum > 0.0;
            for (v, &t) in e.iter_mut().zip(t) {
                let p = if normalize { *v / sum } else { *v };
                // `p − t` is `p + (−1)·t`, the `axpy` it replaces, exactly.
                *v = (p - t) * scale;
            }
        }
    }
    total
}

/// Adds `Σ (log(Σ exp(row)) − logit_true)` over the rows of `logits`
/// (row-major, `cols` wide) to `total`, in row order, with caller-owned
/// log-sum-exp and exp buffers; steady-state reuse performs no
/// allocation. A batch scored in several pieces, each folded onto the
/// previous total, sums to the bits of one pass over the whole batch —
/// [`cross_entropy_scratch`] is this fold from zero over the row count.
///
/// # Panics
/// Panics on a shape mismatch.
pub fn cross_entropy_fold(
    total: f32,
    logits: &[f32],
    targets: &[f32],
    cols: usize,
    lse: &mut Vec<f32>,
    block: &mut Matrix,
) -> f32 {
    assert_eq!(logits.len(), targets.len(), "loss shape mismatch");
    assert!(cols > 0, "loss rows of width zero");
    assert_eq!(logits.len() % cols, 0, "loss rows cut mid-row");
    let rows = logits.len() / cols;
    block.resize_for_overwrite(rows, cols);
    fused(total, logits, targets, (rows, cols), lse, block.as_mut_slice(), None)
}

/// Mean cross-entropy of `logits` against one-hot `targets`, with
/// caller-owned log-sum-exp and exp buffers; steady-state reuse performs
/// no allocation.
///
/// Computed as `mean(logsumexp(row) − logit_true)`, which never
/// exponentiates un-shifted logits.
///
/// # Panics
/// Panics on shape mismatch or empty batch.
pub fn cross_entropy_scratch(
    logits: &Matrix,
    targets: &Matrix,
    lse: &mut Vec<f32>,
    block: &mut Matrix,
) -> f32 {
    assert_eq!(logits.shape(), targets.shape(), "loss shape mismatch");
    assert!(logits.rows() > 0, "cross entropy of an empty batch");
    let (x, t) = (logits.as_slice(), targets.as_slice());
    cross_entropy_fold(0.0, x, t, logits.cols(), lse, block) / logits.rows() as f32
}

/// Cross-entropy and its gradient with respect to the logits,
/// `(softmax(logits) − targets) / batch`, written into a caller-owned
/// matrix (reshaped to match `logits`) with a reusable log-sum-exp
/// buffer; steady-state reuse performs no allocation.
///
/// # Panics
/// Panics on shape mismatch or empty batch.
pub fn cross_entropy_with_grad_into(
    logits: &Matrix,
    targets: &Matrix,
    lse: &mut Vec<f32>,
    grad: &mut Matrix,
) -> f32 {
    assert_eq!(logits.shape(), targets.shape(), "loss shape mismatch");
    assert!(logits.rows() > 0, "cross entropy of an empty batch");
    let shape = logits.shape();
    grad.resize_for_overwrite(shape.0, shape.1);
    let scale = Some(1.0 / shape.0 as f32);
    let total =
        fused(0.0, logits.as_slice(), targets.as_slice(), shape, lse, grad.as_mut_slice(), scale);
    total / shape.0 as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_linalg::approx_eq;

    fn ce(logits: &Matrix, targets: &Matrix) -> f32 {
        cross_entropy_scratch(logits, targets, &mut Vec::new(), &mut Matrix::default())
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
