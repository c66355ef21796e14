//! One unpacked GEMM micro-kernel (docs/PERF.md, "The GEMM").
//!
//! All three products (`A·B`, `Aᵀ·B`, `A·Bᵀ`) run one driver that cuts
//! the output into `MR×NR` register tiles; each tile folds all of `k` in
//! registers and is stored once. Both operands are read in place: a
//! `Normal` `A` tile broadcasts from its eight row slices, a `Transposed`
//! one from the contiguous `MR` strip at each `k` (the orientation is a
//! const generic, so each gets its own loop), and a row-major `B` is read
//! `NR` columns at a time. Only a transposed `B`, a `B` narrower than one
//! panel, or an `A` shorter than one tile is copied — once per product,
//! zero-padded, into a thread-local buffer reused across calls, so a
//! steady-state product performs zero heap allocation. A short last tile
//! starts early instead of padding: it recomputes the rows (columns)
//! just before it to the same bits and stores only its own.
//!
//! Determinism: every output element is one strictly ascending-`k` fold
//! `((0 + a₀b₀) + a₁b₁) + …` — what the scalar triple loop and every
//! earlier kernel here computed — so the result is a pure function of the
//! operands; `tests/gemm_parity.rs` holds it to that scalar fold bit for
//! bit. Parallelism only ever distributes whole [`MC`] row blocks
//! (disjoint output rows, no cross-task reduction), so the result is also
//! bit-identical for any thread count.

use std::cell::RefCell;

use crate::par;
use crate::pool;
use crate::Matrix;

/// Micro-kernel tile height: rows of `C` updated per register tile.
const MR: usize = 8;
/// Micro-kernel tile width: columns of `C` updated per register tile.
const NR: usize = 16;
/// Rows per parallel work unit; a multiple of [`MR`].
const MC: usize = 64;

/// Products of at least this many multiply-adds (`m·k·n`; a 64³ product
/// is exactly at it) hand their [`MC`] row blocks to the worker pool;
/// smaller ones run on the caller, and so does every product inside
/// another parallel call's task (`par::team`), where the rest of the team
/// is busy. Waking a parked worker and joining it costs more than the
/// ≈ 10 µs this cut was once priced at: on a 2-core x86-64 host the
/// 128×24·96 weight gradient (≈ 295 k multiply-adds) took 12.1 µs on
/// the caller and 25.4 µs split in two on an idle pool (docs/PERF.md,
/// "The parallel cut"); inside the cohort's solves such products now run
/// inline. A scheduling choice only: the bits are the same on either
/// side of it.
const PAR_MIN_MACS: usize = 256 * 1024;

thread_local! {
    /// A zero-padded copy of an `A` shorter than one tile.
    static A_COPY: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// A row-major, zero-padded copy of a transposed or narrow `B`.
    static B_COPY: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Whether an operand participates transposed (without materializing).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Orient {
    /// Element `(i, k)` lives at `data[i * ld + k]`.
    Normal,
    /// Element `(i, k)` lives at `data[k * ld + i]`.
    Transposed,
}

/// Writes the `rows × cols` operand `(src, ld, orient)` into `buf`
/// row-major as `rows_to × cols_to`, zero-padded; returns the copy's
/// leading dimension.
#[allow(clippy::too_many_arguments)] // one operand and its padded shape
fn copy_padded(
    src: &[f32],
    ld: usize,
    orient: Orient,
    rows: usize,
    cols: usize,
    rows_to: usize,
    cols_to: usize,
    buf: &mut Vec<f32>,
) -> usize {
    buf.clear();
    buf.resize(rows_to * cols_to, 0.0);
    for (i, row) in buf.chunks_exact_mut(cols_to).take(rows).enumerate() {
        match orient {
            Orient::Normal => row[..cols].copy_from_slice(&src[i * ld..][..cols]),
            Orient::Transposed => {
                for (j, v) in row[..cols].iter_mut().enumerate() {
                    *v = src[j * ld + i];
                }
            }
        }
    }
    cols_to
}

// The unrolled micro-kernel below spells out one accumulator row per
// MR line; keep the constant honest.
const _: () = assert!(MR == 8, "tile is unrolled for MR == 8");

/// One fused row update `acc + a·b` over an `NR`-wide lane group.
/// By-value arrays keep the accumulator rows SSA values, which is what
/// lets the compiler pin each row to a vector register instead of
/// round-tripping a stack slot per `k` step.
#[inline(always)]
fn fma_row(mut acc: [f32; NR], a: f32, b: &[f32; NR]) -> [f32; NR] {
    let mut j = 0;
    while j < NR {
        acc[j] += a * b[j];
        j += 1;
    }
    acc
}

/// The register micro-kernel: the `MR×NR` tile of `A·B` at `A` rows
/// `i0..i0 + MR` and `B` columns `j0..j0 + NR`, each element folded over
/// all of `k` in ascending order from zero. `TA` selects `A`'s
/// orientation; `B` is row-major with leading dimension `ldb`.
#[inline(always)]
fn tile<const TA: bool>(
    a: &[f32],
    lda: usize,
    i0: usize,
    b: &[f32],
    ldb: usize,
    j0: usize,
    k: usize,
) -> [[f32; NR]; MR] {
    let rows: [&[f32]; MR] =
        std::array::from_fn(|r| if TA { &[] } else { &a[(i0 + r) * lda..][..k] });
    let [mut r0, mut r1, mut r2, mut r3, mut r4, mut r5, mut r6, mut r7] = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let strip: &[f32] = if TA { &a[kk * lda + i0..][..MR] } else { &[] };
        // Read at the use, so each value is one broadcast from memory.
        let av = |r: usize| if TA { strip[r] } else { rows[r][kk] };
        let bv: &[f32; NR] = b[kk * ldb + j0..][..NR].try_into().expect("NR-wide row");
        r0 = fma_row(r0, av(0), bv);
        r1 = fma_row(r1, av(1), bv);
        r2 = fma_row(r2, av(2), bv);
        r3 = fma_row(r3, av(3), bv);
        r4 = fma_row(r4, av(4), bv);
        r5 = fma_row(r5, av(5), bv);
        r6 = fma_row(r6, av(6), bv);
        r7 = fma_row(r7, av(7), bv);
    }
    [r0, r1, r2, r3, r4, r5, r6, r7]
}

/// Output rows `lo..hi` of `A·B` into `c`, their `(hi - lo) × n` window.
/// `A` has `ma ≥ MR` readable rows and `B` at least `max(n, NR)` readable
/// columns, so a tile that would run past either end starts early.
#[allow(clippy::too_many_arguments)] // two operands and the row window
fn row_block<const TA: bool>(
    a: &[f32],
    lda: usize,
    ma: usize,
    b: &[f32],
    ldb: usize,
    k: usize,
    n: usize,
    lo: usize,
    hi: usize,
    c: &mut [f32],
) {
    let width = n.min(NR);
    for i0 in (lo..hi).step_by(MR) {
        let at = i0.min(ma - MR);
        for j0 in (0..n).step_by(NR) {
            let j0 = j0.min(n - width);
            let acc = tile::<TA>(a, lda, at, b, ldb, j0, k);
            for (i, accrow) in (i0..hi.min(i0 + MR)).zip(&acc[i0 - at..]) {
                // A whole panel row is one fixed-size store, not a memcpy call.
                let row = &mut c[(i - lo) * n + j0..][..width];
                match <&mut [f32; NR]>::try_from(&mut *row) {
                    Ok(row) => *row = *accrow,
                    Err(_) => row.copy_from_slice(&accrow[..width]),
                }
            }
        }
    }
}

/// The driver shared by all three products: `out = A·B` for the `m × k`
/// operand `A` and the `k × n` operand `B`. Every element of `out` is
/// written (zeros when `k = 0`), so it may hold stale values on entry;
/// `threads` bounds how many contiguous groups the `MC` row blocks are
/// split into (the grouping never affects bits — see the module docs).
#[allow(clippy::too_many_arguments)] // two operands and the shape
fn gemm(
    a: &[f32],
    lda: usize,
    orient_a: Orient,
    b: &[f32],
    ldb: usize,
    orient_b: Orient,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    threads: usize,
) {
    debug_assert_eq!(out.len(), m * n);
    if k == 0 {
        out.fill(0.0);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    A_COPY.with_borrow_mut(|a_copy| {
        B_COPY.with_borrow_mut(|b_copy| {
            let (b, ldb) = if orient_b == Orient::Transposed || n < NR {
                let ldb = copy_padded(b, ldb, orient_b, k, n, k, n.max(NR), b_copy);
                (&b_copy[..], ldb)
            } else {
                (b, ldb)
            };
            let (a, lda, orient_a, ma) = if m < MR {
                let lda = copy_padded(a, lda, orient_a, m, k, MR, k, a_copy);
                (&a_copy[..], lda, Orient::Normal, MR)
            } else {
                (a, lda, orient_a, m)
            };
            let run = move |lo: usize, hi: usize, c: &mut [f32]| match orient_a {
                Orient::Normal => row_block::<false>(a, lda, ma, b, ldb, k, n, lo, hi, c),
                Orient::Transposed => row_block::<true>(a, lda, ma, b, ldb, k, n, lo, hi, c),
            };
            let nblocks = m.div_ceil(MC);
            let teams = if m * k * n >= PAR_MIN_MACS { threads.min(nblocks) } else { 1 };
            if teams <= 1 {
                return run(0, m, out);
            }
            let mut rest = &mut *out;
            let mut tasks: Vec<pool::Task<'_>> = Vec::with_capacity(teams);
            for range in par::split_ranges(nblocks, teams) {
                let (lo, hi) = (range.start * MC, (range.end * MC).min(m));
                let (mine, tail) = std::mem::take(&mut rest).split_at_mut((hi - lo) * n);
                rest = tail;
                tasks.push(Box::new(move || run(lo, hi, mine)));
            }
            pool::run_batch(tasks);
        })
    });
}

impl Matrix {
    /// Matrix product `self * rhs` into a caller-owned destination,
    /// reusing its storage (zero allocation once `out`'s capacity has
    /// grown to `self.rows() * rhs.cols()`).
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul shape mismatch: {:?} * {:?}",
            self.shape(),
            rhs.shape()
        );
        out.resize_for_overwrite(self.rows(), rhs.cols());
        gemm(
            self.as_slice(),
            self.cols().max(1),
            Orient::Normal,
            rhs.as_slice(),
            rhs.cols().max(1),
            Orient::Normal,
            self.rows(),
            self.cols(),
            rhs.cols(),
            out.as_mut_slice(),
            par::team(),
        );
    }

    /// `selfᵀ * rhs` into a caller-owned destination, without
    /// materializing the transpose.
    ///
    /// This is the shape that appears in backprop (`activationsᵀ × delta`),
    /// where `self` and `rhs` share the batch dimension as their rows.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows(),
            rhs.rows(),
            "t_matmul batch mismatch: {:?}ᵀ * {:?}",
            self.shape(),
            rhs.shape()
        );
        out.resize_for_overwrite(self.cols(), rhs.cols());
        gemm(
            self.as_slice(),
            self.cols().max(1),
            Orient::Transposed,
            rhs.as_slice(),
            rhs.cols().max(1),
            Orient::Normal,
            self.cols(),
            self.rows(),
            rhs.cols(),
            out.as_mut_slice(),
            par::team(),
        );
    }

    /// `self * rhsᵀ` into a caller-owned destination, without
    /// materializing the transpose. Appears in backprop as
    /// `delta × weightsᵀ`.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            rhs.cols(),
            "matmul_t inner mismatch: {:?} * {:?}ᵀ",
            self.shape(),
            rhs.shape()
        );
        out.resize_for_overwrite(self.rows(), rhs.rows());
        gemm(
            self.as_slice(),
            self.cols().max(1),
            Orient::Normal,
            rhs.as_slice(),
            rhs.cols().max(1),
            Orient::Transposed,
            self.rows(),
            self.cols(),
            rhs.rows(),
            out.as_mut_slice(),
            par::team(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(r, k) * b.get(k, c);
                }
                out.set(r, c, acc);
            }
        }
        out
    }

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

    fn test_mat(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r as f32 * 31.0 + c as f32 * 17.0 + seed) % 7.0) - 3.0)
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = test_mat(3, 4, 1.0);
        let b = test_mat(4, 5, 2.0);
        assert_eq!(mm(&a, &b), naive(&a, &b));
    }

    #[test]
    fn matmul_matches_naive_above_parallel_threshold() {
        let a = test_mat(70, 70, 1.0);
        let b = test_mat(70, 70, 2.0);
        let fast = mm(&a, &b);
        let slow = naive(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!(crate::approx_eq(*x, *y, 1e-3), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive_across_blocking_boundaries() {
        // Shapes straddling every tiling parameter: operands shorter
        // than a tile, MR/NR tails, several MC row blocks, and a deep k.
        // Values are small integers, so any summation order is exact and
        // the tiled result must equal the naive one bit-for-bit
        // (tests/gemm_parity.rs holds random inputs to the fold order).
        for (m, k, n) in [(1, 1, 1), (7, 9, 5), (8, 256, 8), (65, 300, 17), (130, 520, 11)] {
            let a = test_mat(m, k, 1.0);
            let b = test_mat(k, n, 2.0);
            assert_eq!(mm(&a, &b), naive(&a, &b), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = test_mat(4, 4, 3.0);
        let i = Matrix::identity(4);
        assert_eq!(mm(&a, &i), a);
        assert_eq!(mm(&i, &a), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = test_mat(6, 3, 1.0);
        let b = test_mat(6, 4, 2.0);
        assert_eq!(tmm(&a, &b), mm(&a.transpose(), &b));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = test_mat(5, 3, 1.0);
        let b = test_mat(7, 3, 2.0);
        assert_eq!(mmt(&a, &b), mm(&a, &b.transpose()));
    }

    #[test]
    fn transposed_variants_match_across_blocking_boundaries() {
        let a = test_mat(300, 70, 1.0);
        let b = test_mat(300, 33, 2.0);
        assert_eq!(tmm(&a, &b), mm(&a.transpose(), &b));
        let c = test_mat(70, 300, 1.0);
        let d = test_mat(33, 300, 2.0);
        assert_eq!(mmt(&c, &d), mm(&c, &d.transpose()));
    }

    #[test]
    fn a_reused_destination_matches_a_fresh_one() {
        let a = test_mat(20, 30, 1.0);
        let b = test_mat(30, 10, 2.0);
        let c = test_mat(5, 30, 3.0);
        // Each product lands in a buffer a product of another shape left.
        let mut out = mm(&c, &b);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, mm(&a, &b));
        c.matmul_into(&b, &mut out);
        assert_eq!(out, mm(&c, &b));
        a.t_matmul_into(&a, &mut out);
        assert_eq!(out, tmm(&a, &a));
        a.matmul_t_into(&a, &mut out);
        assert_eq!(out, mmt(&a, &a));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = mm(&a, &b);
    }

    #[test]
    fn empty_edge_cases() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let out = mm(&a, &b);
        assert_eq!(out.shape(), (0, 2));
        let c = Matrix::zeros(2, 0);
        let d = Matrix::zeros(0, 3);
        let out = mm(&c, &d);
        assert_eq!(out.shape(), (2, 3));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }
}
