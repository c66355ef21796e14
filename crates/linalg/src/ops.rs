//! Element-wise and row-wise kernels shared by the training substrate:
//! the row maximum the cross-entropy kernel shifts by, ReLU, and
//! broadcast helpers.

use crate::Matrix;

/// Row maximum as a 16-lane tree reduction (vectorizable, unlike the
/// strictly sequential left fold, which chains every `max` through one
/// accumulator).
///
/// Returns the same value as `row.iter().copied().fold(NEG_INFINITY,
/// f32::max)` for every input: `f32::max` is associative and commutative
/// on its value result (NaN is ignored symmetrically, and a `-0.0` vs
/// `+0.0` ambiguity cannot reach the callers' outputs — the maximum is
/// only subtracted before `exp`, where `exp(±0.0) == 1.0` exactly, or
/// added to a `ln` that never returns `-0.0`).
#[inline]
pub fn row_max(row: &[f32]) -> f32 {
    const LANES: usize = 16;
    let mut chunks = row.chunks_exact(LANES);
    let mut lanes = [f32::NEG_INFINITY; LANES];
    for c in chunks.by_ref() {
        for (l, &v) in lanes.iter_mut().zip(c) {
            *l = l.max(v);
        }
    }
    let mut m = f32::NEG_INFINITY;
    for &l in &lanes {
        m = m.max(l);
    }
    for &v in chunks.remainder() {
        m = m.max(v);
    }
    m
}

/// Index of the largest element of `row`, the first on a tie (`0` for
/// an empty row), by `>` as it orders `f32`s.
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// ReLU written into a caller-owned matrix (reshaped to match `m`).
pub fn relu_into(m: &Matrix, out: &mut Matrix) {
    out.copy_from(m);
    for v in out.as_mut_slice() {
        *v = v.max(0.0);
    }
}

/// Backward ReLU in place: multiplies each element of `delta` by the
/// ReLU derivative at the matching pre-activation — `1.0` where
/// `pre > 0`, else `0.0` (a multiply, not a select, so a NaN or infinite
/// `delta` reads NaN where the derivative is zero).
///
/// # Panics
/// Panics on shape mismatch.
pub fn relu_backward_inplace(delta: &mut Matrix, pre: &Matrix) {
    assert_eq!(delta.shape(), pre.shape(), "relu backward shape mismatch");
    for (d, &p) in delta.as_mut_slice().iter_mut().zip(pre.as_slice()) {
        *d *= if p > 0.0 { 1.0 } else { 0.0 };
    }
}

/// Adds the `1 x cols` row `bias` to every row of `m` in place.
///
/// # Panics
/// Panics if `bias` is not `1 x m.cols()`.
pub fn add_row_broadcast(m: &mut Matrix, bias: &Matrix) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), m.cols(), "bias width mismatch");
    let cols = m.cols().max(1);
    let b = bias.row(0);
    for row in m.as_mut_slice().chunks_exact_mut(cols) {
        for (v, &bv) in row.iter_mut().zip(b) {
            *v += bv;
        }
    }
}

/// Clips every element of `m` into `[-limit, limit]` in place and returns
/// the number of clipped elements. Gradient clipping keeps the DANE local
/// solves stable when a client draws a pathological mini-batch.
pub fn clip_inplace(m: &mut Matrix, limit: f32) -> usize {
    assert!(limit > 0.0, "clip limit must be positive");
    let mut clipped = 0;
    for v in m.as_mut_slice() {
        if *v > limit {
            *v = limit;
            clipped += 1;
        } else if *v < -limit {
            *v = -limit;
            clipped += 1;
        }
    }
    clipped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_and_backward() {
        let m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        let mut r = Matrix::default();
        relu_into(&m, &mut r);
        assert_eq!(r.as_slice(), &[0.0, 0.0, 0.5, 2.0]);
        let mut d = Matrix::from_vec(1, 4, vec![3.0, 4.0, -5.0, f32::NAN]);
        relu_backward_inplace(&mut d, &m);
        assert_eq!(&d.as_slice()[..3], &[0.0, 0.0, -5.0]);
        assert!(d.as_slice()[3].is_nan());
    }

    #[test]
    fn broadcast_adds_bias_to_each_row() {
        let mut m = Matrix::zeros(2, 2);
        let b = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        add_row_broadcast(&mut m, &b);
        assert_eq!(m.row(0), &[1.0, -2.0]);
        assert_eq!(m.row(1), &[1.0, -2.0]);
    }

    #[test]
    fn clip_counts_and_bounds() {
        let mut m = Matrix::from_vec(1, 4, vec![-5.0, -0.5, 0.5, 5.0]);
        let n = clip_inplace(&mut m, 1.0);
        assert_eq!(n, 2);
        assert_eq!(m.as_slice(), &[-1.0, -0.5, 0.5, 1.0]);
    }

    /// The lane-reduced row maximum must equal the sequential left fold
    /// bit for bit on every length (full lanes, remainders, empty) and
    /// ignore NaN the same way.
    #[test]
    fn row_max_matches_sequential_fold() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        for len in [0usize, 1, 5, 15, 16, 17, 31, 32, 64, 100, 257] {
            let row: Vec<f32> = (0..len).map(|_| next() * 8.0).collect();
            let seq = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(super::row_max(&row).to_bits(), seq.to_bits(), "len {len}");
        }
        let with_nan = [1.0, f32::NAN, 3.0, f32::NAN, 2.0];
        assert_eq!(super::row_max(&with_nan), 3.0);
        assert_eq!(super::row_max(&[f32::NEG_INFINITY; 4]), f32::NEG_INFINITY);
    }
}
