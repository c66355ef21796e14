//! Models with hand-derived backprop.

mod cnn;
mod linear;
mod mlp;
mod penalized;

pub use cnn::{Cnn, ConvBlockSpec, MapShape};
pub use linear::SoftmaxRegression;
pub use mlp::Mlp;

use fedl_linalg::Matrix;

use crate::loss::cross_entropy_scratch;
use crate::params::ParamSet;

/// Reusable forward/backward workspace for the `_scratch` model methods.
///
/// Holds every intermediate a model's loss/gradient computation needs
/// (logits, per-layer activations and pre-activations, the backprop
/// delta, the log-sum-exp buffer, the CNN's patch matrices and pool
/// argmaxes). All buffers grow to the workload's high-water mark and are
/// then reused, so a steady-state training step performs zero heap
/// allocation. One scratch serves any model and any
/// batch size; buffers reshape on use.
#[derive(Debug, Default)]
pub struct ModelScratch {
    /// Log-sum-exp per row (cross-entropy).
    pub(crate) lse: Vec<f32>,
    /// Loss gradient w.r.t. the current layer's output during backprop;
    /// the cross-entropy kernel's exp block in a loss-only pass.
    pub(crate) delta: Matrix,
    /// Ping-pong buffer for the next backprop delta.
    pub(crate) upstream: Matrix,
    /// `acts[l]`: activation after layer `l` (`acts[depth-1]` = logits).
    pub(crate) acts: Vec<Matrix>,
    /// `pres[l]`: layer `l`'s linear output before the nonlinearity.
    pub(crate) pres: Vec<Matrix>,
    /// `patches[b]`: the im2col patch matrix of CNN block `b`'s input.
    pub(crate) patches: Vec<Matrix>,
    /// `argmax[b]`: CNN block `b`'s max-pool argmax indices.
    pub(crate) argmax: Vec<Vec<usize>>,
}

impl ModelScratch {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The logits of the last [`Model::forward_scratch`].
    ///
    /// # Panics
    /// Panics before the first forward pass.
    pub fn logits(&self) -> &Matrix {
        self.acts.last().expect("a forward pass leaves the logits last")
    }
}

/// An object-safe trainable classifier.
///
/// The federated machinery only ever needs four things from a model:
/// score a batch, read/replace its parameters as a [`ParamSet`], and
/// compute loss+gradient on a batch. The gradient includes the model's
/// own L2 regularization term, which is what gives the per-client loss
/// the γ-strong convexity the paper assumes for its convergence bounds
/// (exactly true for [`SoftmaxRegression`], a standard idealization for
/// the MLP).
///
/// A regularized loss is `data term + penalty`, and the two have
/// different lifetimes: the cross-entropy data term depends on the
/// batch, the penalty `½·l2·Σ‖W‖²` only on the parameters. A model
/// therefore implements the two **primitives** — the forward pass
/// [`Model::forward_scratch`] and the training pass
/// [`Model::ce_and_grad_scratch`] — plus
/// [`Model::penalty`], which is reduced at most once per parameter
/// version (a cell emptied by [`Model::set_params`] and
/// [`Model::params_mut`], the only ways to change the parameters).
/// Every `loss*` method is provided here as their sum, so a caller that
/// wants only the gradient (the inner DANE steps) calls the primitive and
/// never reduces the weights of a parameter vector nobody reads a loss
/// from.
pub trait Model: Send + Sync {
    /// Class logits for a batch (`batch x classes`).
    fn forward(&self, x: &Matrix) -> Matrix;

    /// **Primitive.** The forward pass into a reusable workspace, keeping
    /// what backprop needs; the logits are [`ModelScratch::logits`], with
    /// the values of [`Model::forward`], bit for bit.
    fn forward_scratch(&self, x: &Matrix, ws: &mut ModelScratch);

    /// Current parameters.
    fn params(&self) -> &ParamSet;

    /// Replaces the parameters (and empties the penalty cell).
    ///
    /// # Panics
    /// Implementations panic if the shapes don't match the architecture.
    fn set_params(&mut self, params: ParamSet);

    /// The parameters, to write in place (empties the penalty cell). The
    /// caller keeps every tensor's shape; the DANE solve writes each
    /// step's `w + d` here directly.
    fn params_mut(&mut self) -> &mut ParamSet;

    /// Replaces the parameters by copying from a borrowed set, reusing
    /// the model's tensor storage (the allocation-free twin of
    /// [`Model::set_params`]; empties the penalty cell likewise).
    ///
    /// # Panics
    /// Panics if the shapes don't match the architecture.
    fn set_params_from(&mut self, params: &ParamSet) {
        check_shapes(self.params(), params);
        self.params_mut().copy_from(params);
    }

    /// The L2 term `½·l2·Σ‖W‖²` of the loss at the current parameters.
    /// Computed on first use after the parameters last changed and then
    /// served from the cell; safe to first-touch from several threads.
    fn penalty(&self) -> f32;

    /// Mean cross-entropy of the batch — the loss without
    /// [`Model::penalty`] — using a reusable workspace.
    fn ce_scratch(&self, x: &Matrix, y: &Matrix, ws: &mut ModelScratch) -> f32 {
        self.forward_scratch(x, ws);
        let logits = ws.acts.last().expect("a forward pass leaves the logits last");
        cross_entropy_scratch(logits, y, &mut ws.lse, &mut ws.delta)
    }

    /// **Primitive.** Forward, cross-entropy, backward: writes the
    /// gradient of the *regularized* loss (the `l2·W` term included) into
    /// a caller-owned [`ParamSet`] and returns the cross-entropy data
    /// term only, with zero steady-state allocation.
    fn ce_and_grad_scratch(
        &self,
        x: &Matrix,
        y: &Matrix,
        grad: &mut ParamSet,
        ws: &mut ModelScratch,
    ) -> f32;

    /// Regularized loss and gradient on a batch of features `x` and
    /// one-hot targets `y`, written into a caller-owned [`ParamSet`].
    fn loss_and_grad_scratch(
        &self,
        x: &Matrix,
        y: &Matrix,
        grad: &mut ParamSet,
        ws: &mut ModelScratch,
    ) -> f32 {
        self.ce_and_grad_scratch(x, y, grad, ws) + self.penalty()
    }

    /// Regularized loss only (cheaper: skips the backward pass).
    fn loss_scratch(&self, x: &Matrix, y: &Matrix, ws: &mut ModelScratch) -> f32 {
        self.ce_scratch(x, y, ws) + self.penalty()
    }

    /// [`Model::loss_and_grad_scratch`] with a fresh workspace and a
    /// fresh gradient — the same numerics, bit for bit.
    fn loss_and_grad(&self, x: &Matrix, y: &Matrix) -> (f32, ParamSet) {
        let mut grad = ParamSet::new(Vec::new());
        let loss = self.loss_and_grad_scratch(x, y, &mut grad, &mut ModelScratch::new());
        (loss, grad)
    }

    /// [`Model::loss_scratch`] with a fresh workspace.
    fn loss(&self, x: &Matrix, y: &Matrix) -> f32 {
        self.loss_scratch(x, y, &mut ModelScratch::new())
    }

    /// Deep copy behind the trait object.
    fn clone_model(&self) -> Box<dyn Model>;

    /// Input dimensionality.
    fn input_dim(&self) -> usize;

    /// Number of classes.
    fn num_classes(&self) -> usize;
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// Validates that a replacement [`ParamSet`] matches the architecture's
/// tensor shapes; shared by `set_params` implementations.
pub(crate) fn check_shapes(current: &ParamSet, incoming: &ParamSet) {
    assert_eq!(current.len(), incoming.len(), "param arity mismatch");
    for (i, (a, b)) in current.tensors().iter().zip(incoming.tensors()).enumerate() {
        assert_eq!(a.shape(), b.shape(), "param tensor {i} shape mismatch");
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use fedl_linalg::approx_eq;

    /// Central finite-difference check of `loss_and_grad` for any model —
    /// the single most load-bearing correctness test in the ML substrate.
    pub fn gradient_check(model: &mut dyn Model, x: &Matrix, y: &Matrix) {
        let (_, grad) = model.loss_and_grad(x, y);
        let base = model.params().clone();
        let eps = 2e-3f32;
        for t in 0..base.len() {
            // Probe a handful of coordinates per tensor to keep it fast.
            let len = base.tensors()[t].len();
            let probes = [0, len / 2, len.saturating_sub(1)];
            for &i in &probes {
                let mut plus = base.clone();
                let v = plus.tensors()[t].as_slice()[i];
                plus.tensors_mut()[t].as_mut_slice()[i] = v + eps;
                model.set_params(plus);
                let f_plus = model.loss(x, y);

                let mut minus = base.clone();
                minus.tensors_mut()[t].as_mut_slice()[i] = v - eps;
                model.set_params(minus);
                let f_minus = model.loss(x, y);

                let fd = (f_plus - f_minus) / (2.0 * eps);
                let an = grad.tensors()[t].as_slice()[i];
                assert!(
                    approx_eq(an, fd, 0.05) || (an - fd).abs() < 5e-3,
                    "tensor {t} coord {i}: analytic {an} vs finite-diff {fd}"
                );
            }
        }
        model.set_params(base);
    }
}
