//! The fused cross-entropy kernel (`fedl_ml::loss`) against the
//! three-pass form it replaced (`tests/oracle/loss.rs`): loss, per-row
//! log-sum-exp and gradient equal bit for bit over widths that fill the
//! exp batch, miss it and straddle it, batches of 1 to 1 000 rows, and
//! rows holding −∞, +∞, NaN, logits 88 or more below the maximum (where
//! `exp` leaves its fast path) and all-equal values. A NaN compares as NaN
//! whatever its bits: the sign and payload of a NaN result are
//! unspecified (an optimized build may commute the operands of an add
//! whose inputs are two different NaNs).

#[path = "oracle/loss.rs"]
mod oracle;

use fedl_linalg::rng::{rng_for, Rng};
use fedl_linalg::Matrix;
use fedl_ml::loss::{cross_entropy_fold, cross_entropy_scratch, cross_entropy_with_grad_into};

/// `x`'s bits, every NaN as the one canonical NaN.
fn bits(x: f32) -> u32 {
    if x.is_nan() {
        f32::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn all_bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|&x| bits(x)).collect()
}

/// What a special row holds; the others are uniform in ±6.
#[derive(Debug, Clone, Copy)]
enum Row {
    Plain,
    NegInf,
    AllNegInf,
    PosInf,
    Nan,
    FarBelow,
    AllEqual,
}

const SPECIAL: [Row; 7] =
    [Row::Plain, Row::NegInf, Row::AllNegInf, Row::PosInf, Row::Nan, Row::FarBelow, Row::AllEqual];

/// `rows × cols` logits, every third row (the first included) of kind
/// `kind`, and one-hot targets.
fn case(rows: usize, cols: usize, kind: Row, seed: u64) -> (Matrix, Matrix) {
    let mut rng = rng_for(seed, (rows * 131 + cols) as u64);
    let mut logits = Matrix::uniform(rows, cols, 6.0, &mut rng);
    for r in (0..rows).step_by(3) {
        let at = rng.gen_range(0..cols);
        let row = logits.row_mut(r);
        match kind {
            Row::Plain => {}
            Row::NegInf => row[at] = f32::NEG_INFINITY,
            Row::AllNegInf => row.fill(f32::NEG_INFINITY),
            Row::PosInf => row[at] = f32::INFINITY,
            Row::Nan => row[at] = f32::NAN,
            Row::FarBelow => {
                // One logit far above the rest: every other shifted
                // value is ≤ −88, outside `exp`'s fast path.
                row[at] = 100.0;
                for (c, v) in row.iter_mut().enumerate() {
                    if c != at {
                        *v -= 20.0 + (c % 4) as f32 * 30.0;
                    }
                }
            }
            Row::AllEqual => row.fill(0.75),
        }
    }
    let targets = Matrix::from_fn(rows, cols, |r, c| if c == (r * 7) % cols { 1.0 } else { 0.0 });
    (logits, targets)
}

#[test]
fn the_fused_kernel_keeps_the_three_pass_bits() {
    let (mut lse, mut grad, mut block) = (Vec::new(), Matrix::default(), Matrix::default());
    let (mut want_lse, mut want_grad) = (Vec::new(), Matrix::default());
    let mut cases = 0;
    for cols in [1usize, 10, 15, 16, 17, 64] {
        for rows in [1usize, 16, 1000] {
            for (i, &kind) in SPECIAL.iter().enumerate() {
                let (logits, targets) = case(rows, cols, kind, i as u64);
                let label = format!("{rows}x{cols} {kind:?}");

                let want = oracle::cross_entropy_with_grad(
                    &logits,
                    &targets,
                    &mut want_lse,
                    &mut want_grad,
                );
                let got = cross_entropy_with_grad_into(&logits, &targets, &mut lse, &mut grad);
                assert_eq!(bits(got), bits(want), "{label}: loss");
                assert_eq!(all_bits(&lse), all_bits(&want_lse), "{label}: lse");
                assert_eq!(grad.shape(), want_grad.shape(), "{label}");
                assert_eq!(
                    all_bits(grad.as_slice()),
                    all_bits(want_grad.as_slice()),
                    "{label}: grad"
                );

                // The loss-only kernel, through a block another shape left.
                let want = oracle::cross_entropy(&logits, &targets, &mut want_lse);
                let got = cross_entropy_scratch(&logits, &targets, &mut lse, &mut block);
                assert_eq!(bits(got), bits(want), "{label}: loss only");
                assert_eq!(all_bits(&lse), all_bits(&want_lse), "{label}: lse, loss only");

                // The batch folded in pieces sums to the one pass's total.
                let (x, t) = (logits.as_slice(), targets.as_slice());
                let mut total = 0.0f32;
                let mut at = 0;
                for piece in [1usize, 7, 300].iter().cycle() {
                    if at == rows {
                        break;
                    }
                    let end = (at + piece).min(rows);
                    let span = at * cols..end * cols;
                    total = cross_entropy_fold(
                        total,
                        &x[span.clone()],
                        &t[span],
                        cols,
                        &mut lse,
                        &mut block,
                    );
                    at = end;
                }
                assert_eq!(bits(total / rows as f32), bits(want), "{label}: folded in pieces");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 6 * 3 * SPECIAL.len());
}

#[test]
fn gradient_rows_are_softmax_minus_targets() {
    // `batch·grad + targets` is each row's softmax: a distribution.
    for seed in 0..24u64 {
        let (logits, targets) = case(4, 6, Row::Plain, seed);
        let mut grad = Matrix::default();
        cross_entropy_with_grad_into(&logits, &targets, &mut Vec::new(), &mut grad);
        for (g, t) in grad.row_iter().zip(targets.row_iter()) {
            let p: Vec<f32> = g.iter().zip(t).map(|(g, t)| 4.0 * g + t).collect();
            let sum: f32 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "seed {seed}: row sums to {sum}");
            assert!(p.iter().all(|&p| (-1e-6..=1.0 + 1e-6).contains(&p)), "seed {seed}: {p:?}");
        }
    }
}
