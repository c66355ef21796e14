//! The per-call L2 penalty the three models computed before the penalty
//! cell (`fedl_ml::model::Model::penalty`): one serial fold over the
//! weight tensors on every `loss*` call, each model in its own order.
//! It lives on only as the reference the cell is compared against, bit
//! for bit; nothing under `src/` uses it.
//!
//! Shared by `crates/ml/tests/penalty_cell.rs` and, through `#[path]`,
//! by `crates/sim/tests/epoch_parity.rs`.

use fedl_linalg::Matrix;
use fedl_ml::model::{Model, ModelScratch};
use fedl_ml::params::ParamSet;

/// Which model's fold order to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `[W, b]`: the one weight matrix.
    Softmax,
    /// `[W₁, b₁, W₂, b₂, …]`: the layers in order.
    Mlp,
    /// `[convW, convB]* , fcW, fcB`: the head first, then the blocks.
    Cnn,
}

/// `½·l2·Σ‖W‖²` as `SoftmaxRegression::l2_term`, `Mlp::l2_term` and
/// `Cnn::l2_term` spelled it.
pub fn l2_term(family: Family, params: &ParamSet, l2: f32) -> f32 {
    let t = params.tensors();
    match family {
        Family::Softmax => 0.5 * l2 * t[0].norm_sq(),
        Family::Mlp => {
            let w_norm: f32 = (0..t.len() / 2).map(|l| t[2 * l].norm_sq()).sum();
            0.5 * l2 * w_norm
        }
        Family::Cnn => {
            let blocks = t.len() / 2 - 1;
            let mut acc = t[2 * blocks].norm_sq();
            for b in 0..blocks {
                acc += t[2 * b].norm_sq();
            }
            0.5 * l2 * acc
        }
    }
}

/// The regularized loss with the penalty folded afresh: the model's
/// cross-entropy pass plus [`l2_term`].
pub fn loss(model: &dyn Model, family: Family, l2: f32, x: &Matrix, y: &Matrix) -> f32 {
    model.ce_scratch(x, y, &mut ModelScratch::new()) + l2_term(family, model.params(), l2)
}
