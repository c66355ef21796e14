//! Dense linear algebra and zero-dependency substrate for the FedL
//! reproduction (paper §5.1 "local training" compute model and every
//! stochastic component of §6's experiment setup sit on this crate).
//!
//! The federated-learning training loop in the paper runs real gradient
//! descent on per-client datasets, so the reproduction needs a small but
//! fast dense-matrix layer. This crate provides:
//!
//! * [`Matrix`] — a row-major `f32` matrix with thread-parallel GEMM,
//!   element-wise kernels, and row/column reductions, sized for the
//!   batch-times-weights products that dominate model training.
//! * [`dvec`] — `f64` vector helpers used by the convex-optimization side
//!   (the online decision problem is tiny but needs double precision).
//! * [`rng`] — a from-scratch xoshiro256++ generator, distribution
//!   samplers, and deterministic seed derivation so every experiment in
//!   the harness is reproducible from a single seed.
//! * [`par`] — data-parallel primitives over a lazily initialized,
//!   reusable worker pool (the workspace's rayon replacement).
//!
//! Everything is implemented from scratch (no BLAS, no ndarray, no
//! registry crates at all) per the reproduction's hermetic-build ground
//! rules (`docs/BUILD.md`); the GEMM kernel splits rows contiguously
//! across the pool's fixed thread team.
//!
//! System-inventory row **S1** in DESIGN.md §1.
//!
//! `unsafe` is denied crate-wide with one audited exception: the
//! `pool`-internal lifetime erasure that lets the persistent worker
//! threads run borrowed closures (see `pool.rs` for the safety
//! argument). Everything else remains `unsafe`-free.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc_counter;
pub mod dvec;
pub mod fastexp;
mod gemm;
mod matrix;
pub mod ops;
pub mod par;
mod pool;
pub mod rng;

pub use matrix::Matrix;

/// Returns `true` when `a` and `b` agree to within `tol` absolutely or
/// `tol` relative to the larger magnitude, whichever is looser.
///
/// The dual criterion keeps comparisons meaningful both near zero and for
/// large accumulated sums (e.g. losses summed over thousands of samples).
#[inline]
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

/// `f64` twin of [`approx_eq`] for the optimization-side code.
#[inline]
pub fn approx_eq_f64(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_near_zero() {
        assert!(approx_eq(0.0, 1e-7, 1e-5));
        assert!(!approx_eq(0.0, 1e-3, 1e-5));
    }

    #[test]
    fn approx_eq_relative_for_large_values() {
        assert!(approx_eq(1_000_000.0, 1_000_001.0, 1e-5));
        assert!(!approx_eq(1_000_000.0, 1_100_000.0, 1e-5));
    }

    #[test]
    fn approx_eq_f64_symmetric() {
        assert!(approx_eq_f64(3.0, 3.0 + 1e-12, 1e-9));
        assert!(approx_eq_f64(3.0 + 1e-12, 3.0, 1e-9));
    }
}
