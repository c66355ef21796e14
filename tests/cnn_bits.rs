//! Pins the CNN's output bits: the forward logits, the regularized loss
//! and every gradient tensor of two seeded networks hash to fixed
//! digests, at one and at two threads, through a fresh workspace and a
//! reused one. A change to the convolution path that moves any bit —
//! a different kernel, a reordered fold, a stale scratch buffer — fails
//! here with the digests it produced instead.

use fedl::linalg::rng::rng_for;
use fedl::linalg::{par, Matrix};
use fedl::ml::model::{Cnn, ConvBlockSpec, MapShape, Model, ModelScratch};
use fedl::ml::ParamSet;

/// 64-bit FNV-1a over the little-endian bit patterns of `values`.
fn digest(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A seeded network, a batch in `[-1, 1)` and one-hot targets.
fn case(
    input: MapShape,
    blocks: &[(usize, usize)],
    classes: usize,
    batch: usize,
    seed: u64,
) -> (Cnn, Matrix, Matrix) {
    let blocks =
        blocks.iter().map(|&(out_channels, kernel)| ConvBlockSpec { out_channels, kernel });
    let cnn = Cnn::new(input, blocks.collect(), classes, 0.003, &mut rng_for(seed, 1));
    let x = Matrix::uniform(batch, input.len(), 1.0, &mut rng_for(seed, 2));
    let mut y = Matrix::zeros(batch, classes);
    for r in 0..batch {
        y.set(r, (r * 7 + 3) % classes, 1.0);
    }
    (cnn, x, y)
}

/// `[logits, loss, ∇…]` digests: the loss is the regularized one and the
/// gradient carries every tensor of the parameter set in order.
fn digests(cnn: &Cnn, x: &Matrix, loss: f32, grad: &ParamSet) -> Vec<u64> {
    let mut out = vec![digest(cnn.forward(x).as_slice().iter().copied()), digest([loss])];
    out.extend(grad.tensors().iter().map(|t| digest(t.as_slice().iter().copied())));
    out
}

/// The paper's FMNIST block (one 6-channel 5×5 conv on 16×16 maps), and
/// two multi-channel blocks on a 3-channel input; each digest list is
/// `[logits, loss, ∇conv₁W, ∇conv₁b, …, ∇fcW, ∇fcb]`.
#[test]
fn cnn_logits_loss_and_gradients_keep_their_bits() {
    let one_block = case(MapShape { c: 1, h: 16, w: 16 }, &[(6, 5)], 10, 32, 0xC1);
    let two_blocks = case(MapShape { c: 3, h: 14, w: 14 }, &[(8, 3), (5, 3)], 5, 12, 0xC2);
    let want: [&[u64]; 2] = [
        &[
            0xc4ee_d1c1_873d_15ea,
            0x50da_2b90_ec77_107f,
            0x8b43_ee55_b4df_9730,
            0x5d9c_c263_4ee6_1ff1,
            0x0367_e10d_64f6_1ce1,
            0xd374_f62a_6421_ff52,
        ],
        &[
            0xf435_69b3_1411_ddde,
            0x58ad_9810_de3a_e5a5,
            0xf77a_60b1_cacd_5807,
            0xc8b2_7732_10b2_192c,
            0xcf96_acc5_bf19_fe4a,
            0x76f5_3553_a358_8510,
            0x0194_69b4_1500_44d2,
            0x55b0_5c1a_72ed_c024,
        ],
    ];
    let mut shared = ModelScratch::new();
    for threads in [1, 2] {
        par::force_max_threads(threads);
        for (idx, ((cnn, x, y), want)) in
            [&one_block, &two_blocks].into_iter().zip(want).enumerate()
        {
            let (loss, grad) = cnn.loss_and_grad(x, y);
            let fresh = digests(cnn, x, loss, &grad);
            assert_eq!(fresh, want, "network {idx} at {threads} threads: got {fresh:#x?}");
            // The same bits through a workspace the other network has
            // already shaped, twice (cold, then warm).
            for pass in 0..2 {
                let mut grad = ParamSet::new(Vec::new());
                let loss = cnn.loss_and_grad_scratch(x, y, &mut grad, &mut shared);
                assert_eq!(loss.to_bits(), cnn.loss(x, y).to_bits(), "network {idx} pass {pass}");
                let reused = digests(cnn, x, loss, &grad);
                assert_eq!(reused, want, "network {idx}, reused workspace, pass {pass}");
            }
        }
    }
}
