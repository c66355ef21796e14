//! `f64` vector helpers for the optimization side of FedL.
//!
//! The online decision problem (paper eq. (8)) lives in at most `K + 1`
//! dimensions (one selection fraction per available client plus the
//! iteration-control variable ρ), so it gets plain `Vec<f64>` arithmetic
//! in double precision rather than the `f32` [`crate::Matrix`] machinery.

/// `out = a + alpha * b` element-wise; panics on length mismatch.
pub fn axpy(out: &mut [f64], alpha: f64, b: &[f64]) {
    assert_eq!(out.len(), b.len(), "axpy length mismatch");
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += alpha * bv;
    }
}

/// Inner product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist_sq length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance.
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq(a, b).sqrt()
}

/// Sum of elements.
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Clamps each element into `[lo[i], hi[i]]` in place (box projection).
pub fn clamp_box(v: &mut [f64], lo: &[f64], hi: &[f64]) {
    assert_eq!(v.len(), lo.len(), "clamp_box lo length mismatch");
    assert_eq!(v.len(), hi.len(), "clamp_box hi length mismatch");
    for ((x, &l), &h) in v.iter_mut().zip(lo).zip(hi) {
        *x = x.clamp(l, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq_f64;

    #[test]
    fn axpy_dot_norm() {
        let mut a = vec![1.0, 2.0];
        axpy(&mut a, 2.0, &[3.0, 4.0]);
        assert_eq!(a, vec![7.0, 10.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!(approx_eq_f64(norm(&[3.0, 4.0]), 5.0, 1e-12));
    }

    #[test]
    fn distances() {
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert!(approx_eq_f64(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0, 1e-12));
    }

    #[test]
    fn clamp_box_respects_bounds() {
        let mut v = vec![-1.0, 0.5, 2.0];
        clamp_box(&mut v, &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(v, vec![0.0, 0.5, 1.0]);
    }
}
