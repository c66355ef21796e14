//! Multinomial softmax regression.

use fedl_linalg::rng::Rng;
use fedl_linalg::{ops, Matrix};

use crate::loss::cross_entropy_with_grad_into;
use crate::params::ParamSet;

use super::penalized::PenalizedParams;
use super::{Model, ModelScratch};

/// Linear classifier `logits = x·W + b` with cross-entropy loss and L2
/// regularization on `W`.
///
/// With `l2 > 0` the loss is γ-strongly convex (γ = `l2`), so this model
/// satisfies the paper's convergence assumptions *exactly* — it is the
/// reference model for the theory-validation experiments, while [`super::Mlp`]
/// plays the role of the paper's CNNs in the headline figures.
#[derive(Debug, Clone)]
pub struct SoftmaxRegression {
    params: PenalizedParams, // [W (dim x classes), b (1 x classes)]
    input_dim: usize,
    classes: usize,
}

impl SoftmaxRegression {
    /// Creates a zero-initialized model (the symmetric start is fine for
    /// a convex loss).
    pub fn new(input_dim: usize, classes: usize, l2: f32) -> Self {
        assert!(input_dim > 0 && classes >= 2, "bad architecture");
        let params =
            ParamSet::new(vec![Matrix::zeros(input_dim, classes), Matrix::zeros(1, classes)]);
        Self { params: PenalizedParams::new(params, l2), input_dim, classes }
    }

    /// Creates a randomly initialized model (useful when several clients
    /// should start from distinct points).
    pub fn new_random(input_dim: usize, classes: usize, l2: f32, rng: &mut impl Rng) -> Self {
        let mut model = Self::new(input_dim, classes, l2);
        model.params.replace(ParamSet::new(vec![
            Matrix::glorot(input_dim, classes, rng),
            Matrix::zeros(1, classes),
        ]));
        model
    }

    /// L2 coefficient.
    pub fn l2(&self) -> f32 {
        self.params.l2()
    }

    fn weights(&self) -> &Matrix {
        &self.params.get().tensors()[0]
    }

    fn bias(&self) -> &Matrix {
        &self.params.get().tensors()[1]
    }
}

impl Model for SoftmaxRegression {
    /// Logits into `ws.acts[0]` without allocating.
    fn forward_scratch(&self, x: &Matrix, ws: &mut ModelScratch) {
        assert_eq!(x.cols(), self.input_dim, "input dimension mismatch");
        ws.acts.resize_with(1, Matrix::default);
        let logits = &mut ws.acts[0];
        x.matmul_into(self.weights(), logits);
        ops::add_row_broadcast(logits, self.bias());
    }

    fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim, "input dimension mismatch");
        let mut logits = Matrix::default();
        x.matmul_into(self.weights(), &mut logits);
        ops::add_row_broadcast(&mut logits, self.bias());
        logits
    }

    fn params(&self) -> &ParamSet {
        self.params.get()
    }

    fn set_params(&mut self, params: ParamSet) {
        self.params.replace(params);
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        self.params.get_mut()
    }

    fn penalty(&self) -> f32 {
        self.params.penalty([0])
    }

    fn ce_and_grad_scratch(
        &self,
        x: &Matrix,
        y: &Matrix,
        grad: &mut ParamSet,
        ws: &mut ModelScratch,
    ) -> f32 {
        self.forward_scratch(x, ws);
        let ce = cross_entropy_with_grad_into(&ws.acts[0], y, &mut ws.lse, &mut ws.delta);
        // dW = xᵀ·dlogits + l2·W ; db = column sums of dlogits.
        // Both tensors are reshaped and overwritten below.
        grad.set_arity(2);
        let tensors = grad.tensors_mut();
        x.t_matmul_into(&ws.delta, &mut tensors[0]);
        tensors[0].axpy(self.params.l2(), self.weights());
        ws.delta.col_sums_into(&mut tensors[1]);
        ce
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn num_classes(&self) -> usize {
        self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_util::gradient_check;
    use fedl_linalg::rng::rng_for;

    fn batch() -> (Matrix, Matrix) {
        let mut rng = rng_for(3, 0);
        let x = Matrix::uniform(6, 4, 1.0, &mut rng);
        let mut y = Matrix::zeros(6, 3);
        for r in 0..6 {
            y.set(r, r % 3, 1.0);
        }
        (x, y)
    }

    #[test]
    fn gradient_check_zero_init() {
        let (x, y) = batch();
        let mut m = SoftmaxRegression::new(4, 3, 0.01);
        gradient_check(&mut m, &x, &y);
    }

    #[test]
    fn gradient_check_random_init() {
        let (x, y) = batch();
        let mut rng = rng_for(5, 0);
        let mut m = SoftmaxRegression::new_random(4, 3, 0.1, &mut rng);
        gradient_check(&mut m, &x, &y);
    }

    #[test]
    fn descent_reduces_loss() {
        let (x, y) = batch();
        let mut m = SoftmaxRegression::new(4, 3, 0.01);
        let before = m.loss(&x, &y);
        for _ in 0..50 {
            let (_, g) = m.loss_and_grad(&x, &y);
            let p = m.params().added(-0.5, &g);
            m.set_params(p);
        }
        let after = m.loss(&x, &y);
        assert!(after < before * 0.8, "loss {before} -> {after}");
    }

    #[test]
    fn l2_pulls_weights_toward_zero() {
        let (x, y) = batch();
        let train = |l2: f32| {
            let mut m = SoftmaxRegression::new(4, 3, l2);
            for _ in 0..200 {
                let (_, g) = m.loss_and_grad(&x, &y);
                let p = m.params().added(-0.3, &g);
                m.set_params(p);
            }
            m.params().tensors()[0].norm()
        };
        assert!(train(1.0) < train(0.001));
    }

    #[test]
    fn forward_shape() {
        let m = SoftmaxRegression::new(4, 3, 0.0);
        let x = Matrix::zeros(5, 4);
        assert_eq!(m.forward(&x).shape(), (5, 3));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn set_params_rejects_wrong_shape() {
        let mut m = SoftmaxRegression::new(4, 3, 0.0);
        m.set_params(ParamSet::new(vec![Matrix::zeros(2, 3), Matrix::zeros(1, 3)]));
    }

    #[test]
    fn boxed_clone_is_independent() {
        let m = SoftmaxRegression::new(2, 2, 0.0);
        let mut b: Box<dyn Model> = m.clone_model();
        let p = b.params().added(1.0, &b.params().clone());
        b.set_params(p);
        assert_eq!(m.params().norm(), 0.0);
        assert_eq!(b.params().norm(), 0.0); // zero + zero is still zero
    }
}
