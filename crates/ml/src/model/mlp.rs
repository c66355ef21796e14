//! Fully connected ReLU network of arbitrary depth.

use fedl_linalg::rng::Rng;
use fedl_linalg::{ops, Matrix};

use crate::loss::cross_entropy_with_grad_into;
use crate::params::ParamSet;

use super::penalized::PenalizedParams;
use super::{Model, ModelScratch};

/// Multi-layer perceptron: `x → [Linear → ReLU]* → Linear → logits`,
/// cross-entropy loss, L2 regularization on all weight matrices.
///
/// This is the reproduction's substitute for the paper's two small CNNs
/// (DESIGN.md §2): it exercises exactly the same federated code path
/// (non-convex local loss, SGD surrogate solves, direction upload,
/// server averaging) at a fraction of the implementation and runtime
/// cost. Parameter layout inside the [`ParamSet`]:
/// `[W₁, b₁, W₂, b₂, …]`.
#[derive(Debug, Clone)]
pub struct Mlp {
    params: PenalizedParams,
    layer_dims: Vec<usize>, // [input, hidden..., classes]
}

impl Mlp {
    /// Builds an MLP with the given hidden widths; `hidden` may be empty,
    /// in which case the model degenerates to (randomly initialized)
    /// softmax regression.
    pub fn new(
        input_dim: usize,
        hidden: &[usize],
        classes: usize,
        l2: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(input_dim > 0 && classes >= 2, "bad architecture");
        assert!(hidden.iter().all(|&h| h > 0), "zero-width hidden layer");
        let mut layer_dims = Vec::with_capacity(hidden.len() + 2);
        layer_dims.push(input_dim);
        layer_dims.extend_from_slice(hidden);
        layer_dims.push(classes);

        let mut tensors = Vec::with_capacity(2 * (layer_dims.len() - 1));
        for w in layer_dims.windows(2) {
            tensors.push(Matrix::glorot(w[0], w[1], rng));
            tensors.push(Matrix::zeros(1, w[1]));
        }
        Self { params: PenalizedParams::new(ParamSet::new(tensors), l2), layer_dims }
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layer_dims.len() - 1
    }

    /// Layer widths including input and output.
    pub fn layer_dims(&self) -> &[usize] {
        &self.layer_dims
    }

    fn weight(&self, layer: usize) -> &Matrix {
        &self.params.get().tensors()[2 * layer]
    }

    fn bias(&self, layer: usize) -> &Matrix {
        &self.params.get().tensors()[2 * layer + 1]
    }
}

impl Model for Mlp {
    /// Forward pass caching pre-activations (needed by backprop) into the
    /// workspace without allocating: `ws.pres[l]` is layer `l`'s linear
    /// output and `ws.acts[l]` its activation (`ws.acts[depth-1]` is the
    /// logits; the input itself is never copied).
    fn forward_scratch(&self, x: &Matrix, ws: &mut ModelScratch) {
        assert_eq!(x.cols(), self.layer_dims[0], "input dimension mismatch");
        let depth = self.depth();
        ws.acts.resize_with(depth, Matrix::default);
        ws.pres.resize_with(depth, Matrix::default);
        let (acts, pres) = (&mut ws.acts, &mut ws.pres);
        for l in 0..depth {
            {
                let input: &Matrix = if l == 0 { x } else { &acts[l - 1] };
                input.matmul_into(self.weight(l), &mut pres[l]);
            }
            ops::add_row_broadcast(&mut pres[l], self.bias(l));
            if l + 1 < depth {
                ops::relu_into(&pres[l], &mut acts[l]);
            } else {
                acts[l].copy_from(&pres[l]);
            }
        }
    }

    /// Inference keeps no backprop cache: one buffer per layer, ReLU in
    /// place — the values of the training pass's activations, with half
    /// its footprint on a thousand-row test set.
    fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.layer_dims[0], "input dimension mismatch");
        let depth = self.depth();
        let mut act = Matrix::default();
        for l in 0..depth {
            let mut next = Matrix::default();
            (if l == 0 { x } else { &act }).matmul_into(self.weight(l), &mut next);
            ops::add_row_broadcast(&mut next, self.bias(l));
            if l + 1 < depth {
                next.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
            }
            act = next;
        }
        act
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
        self.params.penalty((0..self.depth()).map(|l| 2 * l))
    }

    fn ce_and_grad_scratch(
        &self,
        x: &Matrix,
        y: &Matrix,
        grad: &mut ParamSet,
        ws: &mut ModelScratch,
    ) -> f32 {
        let depth = self.depth();
        self.forward_scratch(x, ws);
        let ce = cross_entropy_with_grad_into(&ws.acts[depth - 1], y, &mut ws.lse, &mut ws.delta);

        // Every tensor is reshaped and overwritten below.
        grad.set_arity(self.params.get().len());
        for l in (0..depth).rev() {
            // dW_l = a_lᵀ · delta + l2·W_l ; db_l = col sums of delta.
            {
                let a_l: &Matrix = if l == 0 { x } else { &ws.acts[l - 1] };
                a_l.t_matmul_into(&ws.delta, &mut grad.tensors_mut()[2 * l]);
            }
            grad.tensors_mut()[2 * l].axpy(self.params.l2(), self.weight(l));
            ws.delta.col_sums_into(&mut grad.tensors_mut()[2 * l + 1]);
            if l > 0 {
                // delta_{l-1} = (delta · W_lᵀ) ⊙ relu'(z_{l-1}).
                ws.delta.matmul_t_into(self.weight(l), &mut ws.upstream);
                ops::relu_backward_inplace(&mut ws.upstream, &ws.pres[l - 1]);
                std::mem::swap(&mut ws.delta, &mut ws.upstream);
            }
        }
        ce
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }

    fn input_dim(&self) -> usize {
        self.layer_dims[0]
    }

    fn num_classes(&self) -> usize {
        *self.layer_dims.last().expect("non-empty dims")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_util::gradient_check;
    use fedl_linalg::rng::rng_for;

    fn batch(classes: usize) -> (Matrix, Matrix) {
        let mut rng = rng_for(11, 0);
        let x = Matrix::uniform(8, 5, 1.0, &mut rng);
        let mut y = Matrix::zeros(8, classes);
        for r in 0..8 {
            y.set(r, r % classes, 1.0);
        }
        (x, y)
    }

    #[test]
    fn gradient_check_one_hidden_layer() {
        let (x, y) = batch(3);
        let mut rng = rng_for(1, 1);
        let mut m = Mlp::new(5, &[7], 3, 0.01, &mut rng);
        gradient_check(&mut m, &x, &y);
    }

    #[test]
    fn gradient_check_two_hidden_layers() {
        let (x, y) = batch(4);
        let mut rng = rng_for(2, 1);
        let mut m = Mlp::new(5, &[6, 5], 4, 0.05, &mut rng);
        gradient_check(&mut m, &x, &y);
    }

    #[test]
    fn gradient_check_no_hidden_layer() {
        let (x, y) = batch(3);
        let mut rng = rng_for(3, 1);
        let mut m = Mlp::new(5, &[], 3, 0.0, &mut rng);
        gradient_check(&mut m, &x, &y);
    }

    #[test]
    fn training_fits_a_small_batch() {
        let (x, y) = batch(3);
        let mut rng = rng_for(4, 1);
        let mut m = Mlp::new(5, &[16], 3, 0.0, &mut rng);
        let before = m.loss(&x, &y);
        for _ in 0..300 {
            let (_, g) = m.loss_and_grad(&x, &y);
            let p = m.params().added(-0.5, &g);
            m.set_params(p);
        }
        let after = m.loss(&x, &y);
        assert!(after < 0.05, "loss {before} -> {after}: failed to overfit 8 samples");
    }

    #[test]
    fn architecture_accessors() {
        let mut rng = rng_for(5, 1);
        let m = Mlp::new(10, &[8, 6], 4, 0.0, &mut rng);
        assert_eq!(m.depth(), 3);
        assert_eq!(m.layer_dims(), &[10, 8, 6, 4]);
        assert_eq!(m.input_dim(), 10);
        assert_eq!(m.num_classes(), 4);
        assert_eq!(m.params().len(), 6);
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let a = Mlp::new(4, &[3], 2, 0.0, &mut rng_for(7, 1));
        let b = Mlp::new(4, &[3], 2, 0.0, &mut rng_for(7, 1));
        assert_eq!(a.params(), b.params());
    }

    #[test]
    #[should_panic(expected = "zero-width")]
    fn rejects_zero_width_layer() {
        let _ = Mlp::new(4, &[0], 2, 0.0, &mut rng_for(8, 1));
    }
}
