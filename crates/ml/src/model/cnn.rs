//! Convolutional network with hand-derived backprop.
//!
//! The paper's models are two small CNNs (§6.1): 5×5 convolutions, max
//! pooling, fully connected heads. This module implements that model
//! family from scratch on top of the crate's GEMM:
//!
//! * convolution is evaluated as a matrix product over an *im2col* patch
//!   matrix (the standard reduction; it reuses the thread-pooled GEMM in `fedl-linalg`);
//! * max-pooling records argmax indices on the forward pass and
//!   scatters gradients back through them;
//! * the fully connected head shares the MLP's backprop algebra.
//!
//! Layout conventions: every sample is a row holding a channel-planar
//! image (`c · h · w` values, channel-major), matching the CIFAR binary
//! format and the flattened IDX images.

use fedl_linalg::rng::Rng;
use fedl_linalg::{ops, Matrix};

use crate::loss::{cross_entropy, cross_entropy_with_grad};
use crate::params::ParamSet;

use super::penalized::PenalizedParams;
use super::{Model, ModelScratch};

/// Spatial shape of a feature map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapShape {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl MapShape {
    /// Flattened length of one sample.
    pub fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// `true` when any dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn after_conv(&self, kernel: usize, out_c: usize) -> MapShape {
        assert!(
            self.h >= kernel && self.w >= kernel,
            "kernel {kernel} exceeds map {}x{}",
            self.h,
            self.w
        );
        MapShape { c: out_c, h: self.h - kernel + 1, w: self.w - kernel + 1 }
    }

    fn after_pool(&self) -> MapShape {
        MapShape { c: self.c, h: self.h / 2, w: self.w / 2 }
    }
}

/// Unfolds a batch of channel-planar images into the im2col patch
/// matrix: one row per (sample, output position), one column per
/// (input channel, kernel row, kernel col). Valid convolution, stride 1.
pub fn im2col(x: &Matrix, shape: MapShape, kernel: usize) -> Matrix {
    assert_eq!(x.cols(), shape.len(), "image width mismatch");
    let out = shape.after_conv(kernel, 1);
    let (oh, ow) = (out.h, out.w);
    let cols = shape.c * kernel * kernel;
    let mut patches = Matrix::zeros(x.rows() * oh * ow, cols);
    for s in 0..x.rows() {
        let img = x.row(s);
        for oy in 0..oh {
            for ox in 0..ow {
                let row = patches.row_mut(s * oh * ow + oy * ow + ox);
                let mut col = 0;
                for c in 0..shape.c {
                    let plane = &img[c * shape.h * shape.w..(c + 1) * shape.h * shape.w];
                    for ky in 0..kernel {
                        let base = (oy + ky) * shape.w + ox;
                        row[col..col + kernel].copy_from_slice(&plane[base..base + kernel]);
                        col += kernel;
                    }
                }
            }
        }
    }
    patches
}

/// Folds patch-matrix gradients back into image gradients — the adjoint
/// of [`im2col`] (overlapping patches accumulate).
pub fn col2im(dpatches: &Matrix, shape: MapShape, kernel: usize, batch: usize) -> Matrix {
    let out = shape.after_conv(kernel, 1);
    let (oh, ow) = (out.h, out.w);
    assert_eq!(dpatches.rows(), batch * oh * ow, "patch row mismatch");
    assert_eq!(dpatches.cols(), shape.c * kernel * kernel, "patch col mismatch");
    let mut dx = Matrix::zeros(batch, shape.len());
    for s in 0..batch {
        let img = dx.row_mut(s);
        for oy in 0..oh {
            for ox in 0..ow {
                let row = dpatches.row(s * oh * ow + oy * ow + ox);
                let mut col = 0;
                for c in 0..shape.c {
                    let plane_base = c * shape.h * shape.w;
                    for ky in 0..kernel {
                        let base = plane_base + (oy + ky) * shape.w + ox;
                        for kx in 0..kernel {
                            img[base + kx] += row[col + kx];
                        }
                        col += kernel;
                    }
                }
            }
        }
    }
    dx
}

/// 2×2 max-pool (stride 2) over channel-planar rows. Returns the pooled
/// batch and the flat argmax index (into each input row) per pooled
/// element.
pub fn maxpool2(x: &Matrix, shape: MapShape) -> (Matrix, Vec<usize>) {
    assert_eq!(x.cols(), shape.len(), "image width mismatch");
    let out = shape.after_pool();
    let mut pooled = Matrix::zeros(x.rows(), out.len());
    let mut argmax = vec![0usize; x.rows() * out.len()];
    for s in 0..x.rows() {
        let img = x.row(s);
        for c in 0..shape.c {
            let plane = c * shape.h * shape.w;
            for py in 0..out.h {
                for px in 0..out.w {
                    let mut best_idx = plane + (2 * py) * shape.w + 2 * px;
                    let mut best = img[best_idx];
                    for (dy, dx_) in [(0, 1), (1, 0), (1, 1)] {
                        let idx = plane + (2 * py + dy) * shape.w + 2 * px + dx_;
                        if img[idx] > best {
                            best = img[idx];
                            best_idx = idx;
                        }
                    }
                    let o = c * out.h * out.w + py * out.w + px;
                    pooled.set(s, o, best);
                    argmax[s * out.len() + o] = best_idx;
                }
            }
        }
    }
    (pooled, argmax)
}

/// Scatters pooled-gradient rows back through the recorded argmaxes —
/// the adjoint of [`maxpool2`].
pub fn maxpool2_backward(dpooled: &Matrix, argmax: &[usize], shape: MapShape) -> Matrix {
    let out = shape.after_pool();
    assert_eq!(dpooled.cols(), out.len(), "pooled width mismatch");
    assert_eq!(argmax.len(), dpooled.rows() * out.len(), "argmax length mismatch");
    let mut dx = Matrix::zeros(dpooled.rows(), shape.len());
    for s in 0..dpooled.rows() {
        let drow = dpooled.row(s);
        let dst = dx.row_mut(s);
        for (o, &g) in drow.iter().enumerate() {
            dst[argmax[s * out.len() + o]] += g;
        }
    }
    dx
}

/// One convolution block: `conv(k×k) → ReLU → maxpool(2×2)`.
#[derive(Debug, Clone, Copy)]
pub struct ConvBlockSpec {
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size (paper: 5).
    pub kernel: usize,
}

/// A small CNN: a stack of [`ConvBlockSpec`] blocks followed by a fully
/// connected softmax head — the architecture family of the paper's two
/// models.
#[derive(Debug, Clone)]
pub struct Cnn {
    params: PenalizedParams, // [convW, convB]* then [fcW, fcB]
    input: MapShape,
    blocks: Vec<ConvBlockSpec>,
    /// Feature-map shape entering each block (cached at construction).
    block_inputs: Vec<MapShape>,
    flat_dim: usize,
    classes: usize,
}

impl Cnn {
    /// Builds the network for `input`-shaped samples.
    ///
    /// # Panics
    /// Panics if any block's kernel exceeds its incoming map or a pooled
    /// map vanishes.
    pub fn new(
        input: MapShape,
        blocks: Vec<ConvBlockSpec>,
        classes: usize,
        l2: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!input.is_empty(), "empty input shape");
        assert!(classes >= 2, "need at least two classes");
        let mut tensors = Vec::new();
        let mut shape = input;
        let mut block_inputs = Vec::with_capacity(blocks.len());
        for b in &blocks {
            assert!(b.out_channels > 0 && b.kernel > 0, "degenerate block");
            block_inputs.push(shape);
            let fan_in = shape.c * b.kernel * b.kernel;
            tensors.push(Matrix::glorot(b.out_channels, fan_in, rng));
            tensors.push(Matrix::zeros(1, b.out_channels));
            shape = shape.after_conv(b.kernel, b.out_channels).after_pool();
            assert!(!shape.is_empty(), "feature map vanished after block");
        }
        let flat_dim = shape.len();
        tensors.push(Matrix::glorot(flat_dim, classes, rng));
        tensors.push(Matrix::zeros(1, classes));
        let params = PenalizedParams::new(ParamSet::new(tensors), l2);
        Self { params, input, blocks, block_inputs, flat_dim, classes }
    }

    /// The input map shape.
    pub fn input_shape(&self) -> MapShape {
        self.input
    }

    /// Flattened feature dimension entering the FC head.
    pub fn flat_dim(&self) -> usize {
        self.flat_dim
    }

    fn conv_w(&self, b: usize) -> &Matrix {
        &self.params.get().tensors()[2 * b]
    }

    fn conv_b(&self, b: usize) -> &Matrix {
        &self.params.get().tensors()[2 * b + 1]
    }

    fn fc_w(&self) -> &Matrix {
        &self.params.get().tensors()[2 * self.blocks.len()]
    }

    fn fc_b(&self) -> &Matrix {
        &self.params.get().tensors()[2 * self.blocks.len() + 1]
    }

    /// Rearranges conv output from patch-row layout
    /// (`n·oh·ow × out_c`) into channel-planar rows (`n × out_c·oh·ow`).
    fn to_planar(y: &Matrix, batch: usize, out: MapShape) -> Matrix {
        let spatial = out.h * out.w;
        let mut planar = Matrix::zeros(batch, out.len());
        for s in 0..batch {
            let dst = planar.row_mut(s);
            for p in 0..spatial {
                let src = y.row(s * spatial + p);
                for (c, &v) in src.iter().enumerate() {
                    dst[c * spatial + p] = v;
                }
            }
        }
        planar
    }

    /// Adjoint of [`Cnn::to_planar`].
    fn from_planar(dplanar: &Matrix, batch: usize, out: MapShape) -> Matrix {
        let spatial = out.h * out.w;
        let mut y = Matrix::zeros(batch * spatial, out.c);
        for s in 0..batch {
            let src = dplanar.row(s);
            for p in 0..spatial {
                let dst = y.row_mut(s * spatial + p);
                for (c, d) in dst.iter_mut().enumerate() {
                    *d = src[c * spatial + p];
                }
            }
        }
        y
    }

    /// Full forward pass with everything backprop needs.
    #[allow(clippy::type_complexity)]
    fn forward_cached(&self, x: &Matrix) -> (Matrix, Vec<(Matrix, Matrix, Vec<usize>)>, Matrix) {
        assert_eq!(x.cols(), self.input.len(), "input dimension mismatch");
        let batch = x.rows();
        // Per block: (patches, pre-activation planar, pool argmax).
        let mut caches = Vec::with_capacity(self.blocks.len());
        let mut cur = x.clone();
        for (b, spec) in self.blocks.iter().enumerate() {
            let shape = self.block_inputs[b];
            let patches = im2col(&cur, shape, spec.kernel);
            let mut y = patches.matmul_t(self.conv_w(b)); // n·oh·ow × out_c
            ops::add_row_broadcast(&mut y, self.conv_b(b));
            let conv_out = shape.after_conv(spec.kernel, spec.out_channels);
            let planar = Self::to_planar(&y, batch, conv_out);
            let activated = ops::relu(&planar);
            let (pooled, argmax) = maxpool2(&activated, conv_out);
            caches.push((patches, planar, argmax));
            cur = pooled;
        }
        let mut logits = cur.matmul(self.fc_w());
        ops::add_row_broadcast(&mut logits, self.fc_b());
        (cur, caches, logits)
    }
}

impl Model for Cnn {
    fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_cached(x).2
    }

    fn params(&self) -> &ParamSet {
        self.params.get()
    }

    fn set_params(&mut self, params: ParamSet) {
        self.params.replace(params);
    }

    fn set_params_from(&mut self, params: &ParamSet) {
        self.params.copy_from(params);
    }

    fn penalty(&self) -> f32 {
        // The head first, then the blocks: the order the sum always had.
        let blocks = self.blocks.len();
        self.params.penalty(std::iter::once(2 * blocks).chain((0..blocks).map(|b| 2 * b)))
    }

    fn ce_and_grad_scratch(
        &self,
        x: &Matrix,
        y: &Matrix,
        grad: &mut ParamSet,
        _ws: &mut ModelScratch,
    ) -> f32 {
        let batch = x.rows();
        let (flat, caches, logits) = self.forward_cached(x);
        let (ce, dlogits) = cross_entropy_with_grad(&logits, y);

        // FC head.
        let mut dfc_w = flat.t_matmul(&dlogits);
        dfc_w.axpy(self.params.l2(), self.fc_w());
        let dfc_b = dlogits.col_sums();
        let mut dcur = dlogits.matmul_t(self.fc_w()); // grad wrt pooled planar

        // Blocks in reverse.
        let mut conv_grads: Vec<(Matrix, Matrix)> = Vec::with_capacity(self.blocks.len());
        for (b, spec) in self.blocks.iter().enumerate().rev() {
            let shape = self.block_inputs[b];
            let conv_out = shape.after_conv(spec.kernel, spec.out_channels);
            let (patches, pre_planar, argmax) = &caches[b];
            // Through the pool, then the ReLU.
            let dact = maxpool2_backward(&dcur, argmax, conv_out);
            let dplanar = dact.hadamard(&ops::relu_grad_mask(pre_planar));
            // Back to patch-row layout.
            let dy = Self::from_planar(&dplanar, batch, conv_out); // n·oh·ow × out_c
            let mut dw = dy.t_matmul(patches); // out_c × fan_in
            dw.axpy(self.params.l2(), self.conv_w(b));
            let db = dy.col_sums();
            conv_grads.push((dw, db));
            if b > 0 {
                let dpatches = dy.matmul(self.conv_w(b)); // n·oh·ow × fan_in
                dcur = col2im(&dpatches, shape, spec.kernel, batch);
            }
        }
        conv_grads.reverse();
        let mut tensors = Vec::with_capacity(self.params.get().len());
        for (dw, db) in conv_grads {
            tensors.push(dw);
            tensors.push(db);
        }
        tensors.push(dfc_w);
        tensors.push(dfc_b);
        *grad = ParamSet::new(tensors);
        ce
    }

    fn ce_scratch(&self, x: &Matrix, y: &Matrix, _ws: &mut ModelScratch) -> f32 {
        cross_entropy(&self.forward(x), y)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }

    fn input_dim(&self) -> usize {
        self.input.len()
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

    fn small_shape() -> MapShape {
        MapShape { c: 1, h: 8, w: 8 }
    }

    fn batch(shape: MapShape, n: usize, classes: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = rng_for(seed, 0xC44);
        let x = Matrix::uniform(n, shape.len(), 0.5, &mut rng);
        let mut y = Matrix::zeros(n, classes);
        for r in 0..n {
            y.set(r, r % classes, 1.0);
        }
        (x, y)
    }

    #[test]
    fn im2col_known_values() {
        // 1x3x3 image, k=2: four 2x2 patches.
        let shape = MapShape { c: 1, h: 3, w: 3 };
        let x = Matrix::from_vec(1, 9, (1..=9).map(|v| v as f32).collect());
        let p = im2col(&x, shape, 2);
        assert_eq!(p.shape(), (4, 4));
        assert_eq!(p.row(0), &[1.0, 2.0, 4.0, 5.0]);
        assert_eq!(p.row(1), &[2.0, 3.0, 5.0, 6.0]);
        assert_eq!(p.row(2), &[4.0, 5.0, 7.0, 8.0]);
        assert_eq!(p.row(3), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), P> == <x, col2im(P)> for random x, P.
        let shape = MapShape { c: 2, h: 5, w: 4 };
        let mut rng = rng_for(2, 0);
        let x = Matrix::uniform(3, shape.len(), 1.0, &mut rng);
        let patches = im2col(&x, shape, 3);
        let p = Matrix::uniform(patches.rows(), patches.cols(), 1.0, &mut rng);
        let lhs = patches.dot(&p);
        let folded = col2im(&p, shape, 3, 3);
        let rhs = x.dot(&folded);
        assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn maxpool_picks_maxima_and_routes_gradients() {
        let shape = MapShape { c: 1, h: 2, w: 4 };
        let x = Matrix::from_vec(1, 8, vec![1.0, 5.0, 2.0, 1.0, 3.0, 0.0, 8.0, 1.0]);
        let (pooled, argmax) = maxpool2(&x, shape);
        assert_eq!(pooled.as_slice(), &[5.0, 8.0]);
        let dp = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        let dx = maxpool2_backward(&dp, &argmax, shape);
        assert_eq!(dx.as_slice(), &[0.0, 10.0, 0.0, 0.0, 0.0, 0.0, 20.0, 0.0]);
    }

    #[test]
    fn forward_shapes() {
        let mut rng = rng_for(3, 0);
        let cnn = Cnn::new(
            small_shape(),
            vec![ConvBlockSpec { out_channels: 4, kernel: 3 }],
            5,
            0.0,
            &mut rng,
        );
        // 8x8 -> conv3 -> 6x6 -> pool -> 3x3, 4 channels = 36 flat.
        assert_eq!(cnn.flat_dim(), 36);
        let (x, _) = batch(small_shape(), 2, 5, 1);
        assert_eq!(cnn.forward(&x).shape(), (2, 5));
    }

    #[test]
    fn gradient_check_single_block() {
        let mut rng = rng_for(4, 0);
        let mut cnn = Cnn::new(
            small_shape(),
            vec![ConvBlockSpec { out_channels: 3, kernel: 3 }],
            4,
            0.01,
            &mut rng,
        );
        let (x, y) = batch(small_shape(), 4, 4, 2);
        gradient_check(&mut cnn, &x, &y);
    }

    #[test]
    fn gradient_check_two_blocks_multichannel() {
        let shape = MapShape { c: 2, h: 10, w: 10 };
        let mut rng = rng_for(5, 0);
        let mut cnn = Cnn::new(
            shape,
            vec![
                ConvBlockSpec { out_channels: 3, kernel: 3 },
                ConvBlockSpec { out_channels: 4, kernel: 2 },
            ],
            3,
            0.005,
            &mut rng,
        );
        let (x, y) = batch(shape, 3, 3, 3);
        gradient_check(&mut cnn, &x, &y);
    }

    #[test]
    fn cnn_overfits_a_tiny_batch() {
        let mut rng = rng_for(6, 0);
        let mut cnn = Cnn::new(
            small_shape(),
            vec![ConvBlockSpec { out_channels: 4, kernel: 3 }],
            3,
            0.0,
            &mut rng,
        );
        let (x, y) = batch(small_shape(), 6, 3, 4);
        let before = cnn.loss(&x, &y);
        for _ in 0..200 {
            let (_, g) = cnn.loss_and_grad(&x, &y);
            let p = cnn.params().added(-0.3, &g);
            cnn.set_params(p);
        }
        let after = cnn.loss(&x, &y);
        assert!(after < 0.1, "CNN failed to overfit: {before} -> {after}");
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn oversized_kernel_rejected() {
        let mut rng = rng_for(7, 0);
        let _ = Cnn::new(
            MapShape { c: 1, h: 4, w: 4 },
            vec![ConvBlockSpec { out_channels: 2, kernel: 5 }],
            3,
            0.0,
            &mut rng,
        );
    }
}
