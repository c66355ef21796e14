//! Cross-entropy as it ran before the fused kernel: three passes over
//! the logits — `log_sum_exp_rows_into` and `softmax_rows_into` (each
//! shifting by the row maximum and exponentiating one row at a time),
//! then the gradient as an `axpy` of the targets and a `scale`. It lives
//! on only as the reference `fedl_ml::loss` is compared against, bit for
//! bit; nothing under `src/` uses it.
//!
//! Used by `crates/ml/tests/cross_entropy_bits.rs`.

use fedl_linalg::{fastexp, Matrix};

/// The row maximum as the sequential left fold.
fn row_max(row: &[f32]) -> f32 {
    row.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Row-wise softmax with the max-subtraction trick into `out`.
pub fn softmax_rows_into(logits: &Matrix, out: &mut Matrix) {
    out.copy_from(logits);
    for row in out.as_mut_slice().chunks_exact_mut(logits.cols().max(1)) {
        let max = row_max(row);
        for v in row.iter_mut() {
            *v -= max;
        }
        fastexp::exp_inplace(row);
        let mut sum = 0.0;
        for &v in row.iter() {
            sum += v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// Row-wise `log(sum(exp(row)))`, stabilized by max subtraction, into
/// `out` (cleared and refilled).
pub fn log_sum_exp_rows_into(logits: &Matrix, out: &mut Vec<f32>) {
    out.clear();
    out.extend(logits.row_iter().map(|row| {
        let max = row_max(row);
        if !max.is_finite() {
            return max;
        }
        let mut sum = 0.0f32;
        let mut tile = [0.0f32; 64];
        for chunk in row.chunks(tile.len()) {
            let t = &mut tile[..chunk.len()];
            for (d, &v) in t.iter_mut().zip(chunk) {
                *d = v - max;
            }
            fastexp::exp_inplace(t);
            for &v in t.iter() {
                sum += v;
            }
        }
        max + sum.ln()
    }));
}

/// Mean cross-entropy, `mean(logsumexp(row) − logit_true)`.
pub fn cross_entropy(logits: &Matrix, targets: &Matrix, lse: &mut Vec<f32>) -> f32 {
    log_sum_exp_rows_into(logits, lse);
    let mut total = 0.0f32;
    for (r, (logit_row, target_row)) in logits.row_iter().zip(targets.row_iter()).enumerate() {
        let true_logit: f32 = logit_row.iter().zip(target_row).map(|(l, t)| l * t).sum();
        total += lse[r] - true_logit;
    }
    total / logits.rows() as f32
}

/// Cross-entropy and its gradient `(softmax − targets) / batch`.
pub fn cross_entropy_with_grad(
    logits: &Matrix,
    targets: &Matrix,
    lse: &mut Vec<f32>,
    grad: &mut Matrix,
) -> f32 {
    let loss = cross_entropy(logits, targets, lse);
    softmax_rows_into(logits, grad);
    grad.axpy(-1.0, targets);
    grad.scale(1.0 / logits.rows() as f32);
    loss
}
