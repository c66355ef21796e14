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

use crate::loss::cross_entropy_with_grad_into;
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
/// matrix `patches`: one row per (sample, output position), one column
/// per (input channel, kernel row, kernel col). Valid convolution,
/// stride 1.
fn im2col(x: &Matrix, shape: MapShape, kernel: usize, patches: &mut Matrix) {
    assert_eq!(x.cols(), shape.len(), "image width mismatch");
    let out = shape.after_conv(kernel, 1);
    let (oh, ow) = (out.h, out.w);
    patches.resize_to(x.rows() * oh * ow, shape.c * kernel * kernel);
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
}

/// Folds patch-matrix gradients back into image gradients `dx` — the
/// adjoint of [`im2col`] (overlapping patches accumulate).
fn col2im(dpatches: &Matrix, shape: MapShape, kernel: usize, batch: usize, dx: &mut Matrix) {
    let out = shape.after_conv(kernel, 1);
    let (oh, ow) = (out.h, out.w);
    assert_eq!(dpatches.rows(), batch * oh * ow, "patch row mismatch");
    assert_eq!(dpatches.cols(), shape.c * kernel * kernel, "patch col mismatch");
    dx.resize_to(batch, shape.len());
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
}

/// 2×2 max-pool (stride 2) over channel-planar rows into `pooled`,
/// recording in `argmax` the flat index (into each input row) of every
/// pooled element.
fn maxpool2(x: &Matrix, shape: MapShape, pooled: &mut Matrix, argmax: &mut Vec<usize>) {
    assert_eq!(x.cols(), shape.len(), "image width mismatch");
    let out = shape.after_pool();
    pooled.resize_to(x.rows(), out.len());
    argmax.clear();
    argmax.resize(x.rows() * out.len(), 0);
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
}

/// Scatters pooled-gradient rows back through the recorded argmaxes into
/// `dx` — the adjoint of [`maxpool2`].
fn maxpool2_backward(dpooled: &Matrix, argmax: &[usize], shape: MapShape, dx: &mut Matrix) {
    let out = shape.after_pool();
    assert_eq!(dpooled.cols(), out.len(), "pooled width mismatch");
    assert_eq!(argmax.len(), dpooled.rows() * out.len(), "argmax length mismatch");
    dx.resize_to(dpooled.rows(), shape.len());
    for s in 0..dpooled.rows() {
        let drow = dpooled.row(s);
        let dst = dx.row_mut(s);
        for (o, &g) in drow.iter().enumerate() {
            dst[argmax[s * out.len() + o]] += g;
        }
    }
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
    /// Why `blocks` cannot be stacked on `input`-shaped samples, if they
    /// cannot: an empty input, a block with no output channels or a
    /// zero-size kernel, a kernel larger than its incoming map, or a map
    /// that pooling empties.
    pub fn check(input: MapShape, blocks: &[ConvBlockSpec]) -> Result<(), String> {
        if input.is_empty() {
            return Err("empty input shape".into());
        }
        let mut shape = input;
        for b in blocks {
            if b.out_channels == 0 || b.kernel == 0 {
                return Err(format!("degenerate block {b:?}"));
            }
            if b.kernel > shape.h || b.kernel > shape.w {
                return Err(format!("kernel {} exceeds map {}x{}", b.kernel, shape.h, shape.w));
            }
            shape = shape.after_conv(b.kernel, b.out_channels).after_pool();
            if shape.is_empty() {
                return Err("feature map vanished after block".into());
            }
        }
        Ok(())
    }

    /// Builds the network for `input`-shaped samples.
    ///
    /// # Panics
    /// Panics with the [`Cnn::check`] message if the blocks do not fit
    /// the input, or on fewer than two classes.
    pub fn new(
        input: MapShape,
        blocks: Vec<ConvBlockSpec>,
        classes: usize,
        l2: f32,
        rng: &mut impl Rng,
    ) -> Self {
        Self::check(input, &blocks).unwrap_or_else(|e| panic!("{e}"));
        assert!(classes >= 2, "need at least two classes");
        let mut tensors = Vec::new();
        let mut shape = input;
        let mut block_inputs = Vec::with_capacity(blocks.len());
        for b in &blocks {
            block_inputs.push(shape);
            let fan_in = shape.c * b.kernel * b.kernel;
            tensors.push(Matrix::glorot(b.out_channels, fan_in, rng));
            tensors.push(Matrix::zeros(1, b.out_channels));
            shape = shape.after_conv(b.kernel, b.out_channels).after_pool();
        }
        let flat_dim = shape.len();
        tensors.push(Matrix::glorot(flat_dim, classes, rng));
        tensors.push(Matrix::zeros(1, classes));
        let params = PenalizedParams::new(ParamSet::new(tensors), l2);
        Self { params, input, blocks, block_inputs, flat_dim, classes }
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
    fn to_planar(y: &Matrix, batch: usize, out: MapShape, planar: &mut Matrix) {
        let spatial = out.h * out.w;
        planar.resize_to(batch, out.len());
        for s in 0..batch {
            let dst = planar.row_mut(s);
            for p in 0..spatial {
                let src = y.row(s * spatial + p);
                for (c, &v) in src.iter().enumerate() {
                    dst[c * spatial + p] = v;
                }
            }
        }
    }

    /// Adjoint of [`Cnn::to_planar`].
    fn from_planar(dplanar: &Matrix, batch: usize, out: MapShape, y: &mut Matrix) {
        let spatial = out.h * out.w;
        y.resize_to(batch * spatial, out.c);
        for s in 0..batch {
            let src = dplanar.row(s);
            for p in 0..spatial {
                let dst = y.row_mut(s * spatial + p);
                for (c, d) in dst.iter_mut().enumerate() {
                    *d = src[c * spatial + p];
                }
            }
        }
    }
}

/// The input of block `b` (`b == blocks` is the head): `x` for the first,
/// the previous block's pooled map otherwise.
fn block_input<'a>(x: &'a Matrix, pooled: &'a [Matrix], b: usize) -> &'a Matrix {
    if b == 0 {
        x
    } else {
        &pooled[b - 1]
    }
}

impl Model for Cnn {
    /// Forward pass caching what backprop needs into the workspace,
    /// allocation-free once it is warm. For block `b`, `ws.patches[b]` is
    /// the im2col of its input, `ws.pres[b]` its channel-planar
    /// pre-activation, `ws.argmax[b]` its pool argmax and `ws.acts[b]` its
    /// pooled output; `ws.acts[blocks]` is the logits. `ws.upstream`
    /// holds each block's conv output in passing.
    fn forward_scratch(&self, x: &Matrix, ws: &mut ModelScratch) {
        assert_eq!(x.cols(), self.input.len(), "input dimension mismatch");
        let (batch, blocks) = (x.rows(), self.blocks.len());
        ws.acts.resize_with(blocks + 1, Matrix::default);
        ws.pres.resize_with(blocks, Matrix::default);
        ws.patches.resize_with(blocks, Matrix::default);
        ws.argmax.resize_with(blocks, Vec::new);
        let ModelScratch { acts, pres, patches, argmax, upstream: conv, .. } = ws;
        for (b, spec) in self.blocks.iter().enumerate() {
            let shape = self.block_inputs[b];
            let conv_out = shape.after_conv(spec.kernel, spec.out_channels);
            let (done, rest) = acts.split_at_mut(b);
            im2col(block_input(x, done, b), shape, spec.kernel, &mut patches[b]);
            patches[b].matmul_t_into(self.conv_w(b), conv); // n·oh·ow × out_c
            ops::add_row_broadcast(conv, self.conv_b(b));
            Self::to_planar(conv, batch, conv_out, &mut pres[b]);
            ops::relu_into(&pres[b], conv);
            maxpool2(conv, conv_out, &mut rest[0], &mut argmax[b]);
        }
        let (done, logits) = acts.split_at_mut(blocks);
        block_input(x, done, blocks).matmul_into(self.fc_w(), &mut logits[0]);
        ops::add_row_broadcast(&mut logits[0], self.fc_b());
    }

    fn forward(&self, x: &Matrix) -> Matrix {
        let mut ws = ModelScratch::new();
        self.forward_scratch(x, &mut ws);
        ws.acts.pop().expect("the logits are the last activation")
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
        // The head first, then the blocks: the order the sum always had.
        let blocks = self.blocks.len();
        self.params.penalty(std::iter::once(2 * blocks).chain((0..blocks).map(|b| 2 * b)))
    }

    fn ce_and_grad_scratch(
        &self,
        x: &Matrix,
        y: &Matrix,
        grad: &mut ParamSet,
        ws: &mut ModelScratch,
    ) -> f32 {
        let (batch, blocks) = (x.rows(), self.blocks.len());
        self.forward_scratch(x, ws);
        let ce = cross_entropy_with_grad_into(&ws.acts[blocks], y, &mut ws.lse, &mut ws.delta);

        // Every tensor is reshaped and overwritten below.
        grad.set_arity(self.params.get().len());
        let (l2, g) = (self.params.l2(), grad.tensors_mut());
        // FC head; then `upstream` is the gradient wrt the pooled map.
        block_input(x, &ws.acts, blocks).t_matmul_into(&ws.delta, &mut g[2 * blocks]);
        g[2 * blocks].axpy(l2, self.fc_w());
        ws.delta.col_sums_into(&mut g[2 * blocks + 1]);
        ws.delta.matmul_t_into(self.fc_w(), &mut ws.upstream);

        // Blocks in reverse.
        for (b, spec) in self.blocks.iter().enumerate().rev() {
            let shape = self.block_inputs[b];
            let conv_out = shape.after_conv(spec.kernel, spec.out_channels);
            // Through the pool, then the ReLU, then back to patch-row
            // layout (`n·oh·ow × out_c`).
            maxpool2_backward(&ws.upstream, &ws.argmax[b], conv_out, &mut ws.delta);
            ops::relu_backward_inplace(&mut ws.delta, &ws.pres[b]);
            Self::from_planar(&ws.delta, batch, conv_out, &mut ws.upstream);
            ws.upstream.t_matmul_into(&ws.patches[b], &mut g[2 * b]); // out_c × fan_in
            g[2 * b].axpy(l2, self.conv_w(b));
            ws.upstream.col_sums_into(&mut g[2 * b + 1]);
            if b > 0 {
                ws.upstream.matmul_into(self.conv_w(b), &mut ws.delta); // n·oh·ow × fan_in
                col2im(&ws.delta, shape, spec.kernel, batch, &mut ws.upstream);
            }
        }
        ce
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
        let mut p = Matrix::default();
        im2col(&x, shape, 2, &mut p);
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
        let mut patches = Matrix::default();
        im2col(&x, shape, 3, &mut patches);
        let p = Matrix::uniform(patches.rows(), patches.cols(), 1.0, &mut rng);
        let lhs = patches.dot(&p);
        let mut folded = Matrix::default();
        col2im(&p, shape, 3, 3, &mut folded);
        let rhs = x.dot(&folded);
        assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn maxpool_picks_maxima_and_routes_gradients() {
        let shape = MapShape { c: 1, h: 2, w: 4 };
        let x = Matrix::from_vec(1, 8, vec![1.0, 5.0, 2.0, 1.0, 3.0, 0.0, 8.0, 1.0]);
        let (mut pooled, mut argmax) = (Matrix::default(), Vec::new());
        maxpool2(&x, shape, &mut pooled, &mut argmax);
        assert_eq!(pooled.as_slice(), &[5.0, 8.0]);
        let dp = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        let mut dx = Matrix::default();
        maxpool2_backward(&dp, &argmax, shape, &mut dx);
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
