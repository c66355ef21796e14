//! Property-style tests for the linear-algebra substrate, driven by
//! seeded RNG loops (the workspace's offline replacement for proptest:
//! every case is enumerated from a fixed seed, so failures reproduce
//! exactly and the suite needs no registry dependency).

use fedl_linalg::rng::{rng_for, Rng, Xoshiro256pp};
use fedl_linalg::{approx_eq, ops, Matrix};

const CASES: u64 = 64;

/// `a·b`, `aᵀ·b` and `a·bᵀ` into fresh destinations.
fn mm(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    a.matmul_into(b, &mut out);
    out
}

fn tmm(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    a.t_matmul_into(b, &mut out);
    out
}

fn mmt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    a.matmul_t_into(b, &mut out);
    out
}

/// Random shape triple for chained products, kept small so the naive
/// reference stays fast.
fn dims(rng: &mut Xoshiro256pp) -> (usize, usize, usize) {
    (rng.gen_range(1..8usize), rng.gen_range(1..8usize), rng.gen_range(1..8usize))
}

fn assert_mat_close(a: &Matrix, b: &Matrix, tol: f32) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!(approx_eq(*x, *y, tol), "{x} vs {y}");
    }
}

#[test]
fn matmul_distributes_over_addition() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 0);
        let (m, k, n) = dims(&mut rng);
        let a = Matrix::uniform(m, k, 2.0, &mut rng);
        let b = Matrix::uniform(k, n, 2.0, &mut rng);
        let c = Matrix::uniform(k, n, 2.0, &mut rng);
        let lhs = mm(&a, &(&b + &c));
        let rhs = &mm(&a, &b) + &mm(&a, &c);
        assert_mat_close(&lhs, &rhs, 1e-3);
    }
}

#[test]
fn transpose_of_product_is_reversed_product() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 1);
        let (m, k, n) = dims(&mut rng);
        let a = Matrix::uniform(m, k, 2.0, &mut rng);
        let b = Matrix::uniform(k, n, 2.0, &mut rng);
        let lhs = mm(&a, &b).transpose();
        let rhs = mm(&b.transpose(), &a.transpose());
        assert_mat_close(&lhs, &rhs, 1e-3);
    }
}

#[test]
fn fused_transpose_kernels_match() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 2);
        let (m, k, n) = dims(&mut rng);
        let a = Matrix::uniform(m, k, 2.0, &mut rng);
        let b = Matrix::uniform(m, n, 2.0, &mut rng);
        assert_mat_close(&tmm(&a, &b), &mm(&a.transpose(), &b), 1e-3);
        let c = Matrix::uniform(n, k, 2.0, &mut rng);
        assert_mat_close(&mmt(&a, &c), &mm(&a, &c.transpose()), 1e-3);
    }
}

#[test]
fn axpy_then_inverse_axpy_is_identity() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 4);
        let m = Matrix::uniform(3, 5, 10.0, &mut rng);
        let alpha = rng.gen_range(-4.0f32..4.0);
        let mut work = m.clone();
        let delta = Matrix::full(3, 5, 1.0);
        work.axpy(alpha, &delta);
        work.axpy(-alpha, &delta);
        assert_mat_close(&work, &m, 1e-4);
    }
}

#[test]
fn dot_is_symmetric_and_norm_consistent() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 5);
        let m = Matrix::uniform(2, 7, 10.0, &mut rng);
        let n2 = m.norm_sq();
        assert!(approx_eq(m.dot(&m), n2, 1e-4));
        assert!(n2 >= 0.0);
        assert!(approx_eq(m.norm() * m.norm(), n2, 1e-3));
    }
}

#[test]
fn select_rows_preserves_content() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 6);
        let len = rng.gen_range(0..10usize);
        let idx: Vec<usize> = (0..len).map(|_| rng.gen_range(0..5usize)).collect();
        let m = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let sel = m.select_rows(&idx);
        assert_eq!(sel.rows(), idx.len());
        for (out_r, &src) in idx.iter().enumerate() {
            assert_eq!(sel.row(out_r), m.row(src));
        }
    }
}

#[test]
fn clip_never_increases_norm() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 7);
        let mut m = Matrix::uniform(3, 3, 10.0, &mut rng);
        let limit = rng.gen_range(0.1f32..5.0);
        let before = m.norm();
        ops::clip_inplace(&mut m, limit);
        assert!(m.norm() <= before + 1e-6);
        assert!(m.as_slice().iter().all(|v| v.abs() <= limit));
    }
}
