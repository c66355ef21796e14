//! The GEMM against the scalar ascending-`k` fold, bit for bit, and
//! against itself across thread counts.
//!
//! Every output element of every product is the fold
//! `((0 + a₀b₀) + a₁b₁) + …` in ascending `k` — what the scalar triple
//! loop computes, and what every earlier kernel here computed. On
//! uniform-random inputs any other association (a split of `k`, a tree
//! sum, a fused multiply-add) changes low bits somewhere, so these tests
//! pin the fold order itself, not just the value: in all three
//! orientations, at the shapes the training workloads run, at every row
//! and column tail of the register tile, and at depths on either side of
//! 256 (the slab depth of the kernel before this one).
//!
//! The kernel partitions work by whole row blocks; every block is
//! computed by the same sequential tile loop no matter which worker runs
//! it, so the product must also be byte-identical for any thread count.

use fedl_linalg::rng::rng_for;
use fedl_linalg::Matrix;

/// Shapes on either side of the parallel cut (`m·k·n ≥ 256 Ki`
/// multiply-adds): the first two stay on the calling thread at every
/// thread count, 64³ sits exactly at the cut, and the last three cross it
/// and exercise the row-block split.
const SHAPES: [(usize, usize, usize); 6] = [
    (3, 5, 4),      // tiny, sequential everywhere
    (17, 33, 9),    // odd remainders in every tiling dimension
    (64, 64, 64),   // exactly one row block, at the parallel cut
    (96, 96, 96),   // two row blocks
    (128, 300, 65), // deep k, a column tail
    (257, 48, 130), // row count not a multiple of any block size
];

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

fn filled(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut rng = rng_for(salt, 7);
    Matrix::uniform(rows, cols, 2.0, &mut rng)
}

/// `op(A)·op(B)` by the scalar triple loop: each element one fold from
/// zero, ascending in `k`, one rounded multiply and one rounded add a step.
fn scalar_fold(
    m: usize,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a(i, kk) * b(kk, j);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn assert_bits(got: &Matrix, want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: size");
    for (i, (x, y)) in got.as_slice().iter().zip(want).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}, element {i}: {x:?} vs the fold's {y:?}");
    }
}

/// `A·B`, `Aᵀ·B` and `A·Bᵀ` at `m × k × n` against the scalar fold.
fn check_all_orientations(m: usize, k: usize, n: usize, salt: u64) {
    let what = |op: &str| format!("{op} at {m}x{k}x{n}");
    let (a, b) = (filled(m, k, salt), filled(k, n, salt + 1));
    let want = scalar_fold(m, k, n, |i, kk| a.get(i, kk), |kk, j| b.get(kk, j));
    assert_bits(&mm(&a, &b), &want, &what("A·B"));

    let at = filled(k, m, salt + 2);
    let want = scalar_fold(m, k, n, |i, kk| at.get(kk, i), |kk, j| b.get(kk, j));
    assert_bits(&tmm(&at, &b), &want, &what("Aᵀ·B"));

    let bt = filled(n, k, salt + 3);
    let want = scalar_fold(m, k, n, |i, kk| a.get(i, kk), |kk, j| bt.get(j, kk));
    assert_bits(&mmt(&a, &bt), &want, &what("A·Bᵀ"));
}

/// The five products of a training pass of the `d-h-10` MLPs the two
/// training workloads run (64-64-10 and 128-96-10), at a client's ≈ 15
/// samples and at 16 and 32 rows: `x·W₁`, `a₁·W₂`, `a₁ᵀ·δ`, `δ·W₂ᵀ`,
/// `xᵀ·δ₁`.
#[test]
fn training_products_are_the_scalar_fold() {
    for (d, h) in [(64, 64), (128, 96)] {
        for rows in [15, 16, 32] {
            let salt = (d * 1000 + h * 10 + rows) as u64;
            let (x, w1, w2) =
                (filled(rows, d, salt), filled(d, h, salt + 1), filled(h, 10, salt + 2));
            let (a1, delta, delta1) =
                (filled(rows, h, salt + 3), filled(rows, 10, salt + 4), filled(rows, h, salt + 5));
            let case = |op: &str| format!("{op}, {d}-{h}-10 at {rows} rows");
            let fold = |l: &Matrix, r: &Matrix| {
                scalar_fold(l.rows(), l.cols(), r.cols(), |i, k| l.get(i, k), |k, j| r.get(k, j))
            };
            assert_bits(&mm(&x, &w1), &fold(&x, &w1), &case("x·W₁"));
            assert_bits(&mm(&a1, &w2), &fold(&a1, &w2), &case("a₁·W₂"));
            assert_bits(&tmm(&a1, &delta), &fold(&a1.transpose(), &delta), &case("a₁ᵀ·δ"));
            assert_bits(&mmt(&delta, &w2), &fold(&delta, &w2.transpose()), &case("δ·W₂ᵀ"));
            assert_bits(&tmm(&x, &delta1), &fold(&x.transpose(), &delta1), &case("xᵀ·δ₁"));
        }
    }
}

/// Row tails `m % 8 ∈ {1, 7}` (and an `A` shorter than one tile), column
/// tails `n % 16 ∈ {1, 10, 15}` (and a `B` narrower than one panel), in
/// all three orientations.
#[test]
fn tile_tails_are_the_scalar_fold() {
    for m in [1, 7, 9, 15, 17, 23] {
        for n in [1, 10, 15, 17, 26, 31] {
            check_all_orientations(m, 37, n, (m * 100 + n) as u64);
        }
    }
}

/// Depths on either side of 256, in all three orientations.
#[test]
fn deep_k_is_the_scalar_fold() {
    for k in [1, 255, 256, 257, 600] {
        check_all_orientations(17, k, 26, k as u64);
    }
}

/// The product must be the scalar fold's bytes for sequential, 2-thread
/// and 8-thread dispatch.
#[test]
fn matmul_is_the_scalar_fold_at_every_thread_count() {
    for threads in [1usize, 2, 8] {
        fedl_linalg::par::force_max_threads(threads);
        for (idx, &(m, k, n)) in SHAPES.iter().enumerate() {
            let a = filled(m, k, idx as u64);
            let b = filled(k, n, idx as u64 + 100);
            let want = scalar_fold(m, k, n, |i, kk| a.get(i, kk), |kk, j| b.get(kk, j));
            let got = mm(&a, &b);
            assert_eq!(got.shape(), (m, n));
            assert_bits(&got, &want, &format!("shape {m}x{k}x{n}, {threads} threads"));
        }
    }
}

/// Repeated calls on the same inputs must reproduce the same bytes —
/// no dependence on allocator state or scratch reuse.
#[test]
fn matmul_is_deterministic_across_repeated_calls() {
    let a = filled(96, 96, 42);
    let b = filled(96, 96, 43);
    let first = mm(&a, &b);
    for _ in 0..3 {
        let again = mm(&a, &b);
        for (x, y) in first.as_slice().iter().zip(again.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    // Reuse of a caller-owned output buffer must not change the bytes
    // either, including when the buffer held stale contents.
    let mut out = Matrix::from_vec(2, 2, vec![9.0; 4]);
    a.matmul_into(&b, &mut out);
    assert_eq!(first.as_slice(), out.as_slice());
}
