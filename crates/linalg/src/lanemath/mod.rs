//! `ln`, `log10`, `cos`, `sincos`, `exp` and `10^y` for [`LANES`] values
//! at a time, bit-identical to this platform's libm.
//!
//! The channel realization (paper §6.1: Box–Muller shadowing, then a
//! gain of `10^(−loss/10)`) calls three libm functions per client per
//! epoch, the population build two more per client (the path loss's
//! `log10`, the Poisson limit's `exp`), and the synthetic data's
//! Box–Muller noise an `ln` and a `sincos` per pair of values. A libm
//! call in the middle of a lane loop keeps the loop scalar, and those
//! calls were about half of a realization's time and most of a training
//! run's set-up. This module ports the algorithms of glibc 2.36 — `log`,
//! `exp` and `pow` from ARM's optimized-routines, `log10` from Sun's
//! fdlibm, `cos` and `sincos` from IBM's `s_sin.c` — into safe,
//! inlinable Rust, the same move as [`crate::fastexp`] for `expf`: every
//! lane runs the same table lookups and polynomials, so the compiler
//! vectorizes them.
//!
//! # Bit-compatibility
//!
//! On x86-64 with FMA and AVX2, glibc's `ifunc` resolves `log`, `exp`,
//! `pow`, `cos` and `sincos` to their `-mfma -mavx2` builds
//! (`__log_fma`, `__exp_fma`, `__pow_fma`, `__cos_fma`, `__sincos_fma`),
//! in which GCC fused multiply-adds across statements; `log10` has one
//! build, unfused, over that `log`. The ports replay that machine code
//! operation for operation — each fused step is a `mul_add`, each
//! unfused one a plain `*` / `+`, in the library's order — with the
//! library's constants and tables copied as bit patterns, so every
//! result is the library's own bits. `tests/lanemath.rs` compares
//! against libm by `to_bits` on sampled inputs and at every domain edge
//! (`sincos` called by name, since whether a `sin` and a `cos` merge
//! into it is the optimizer's choice); its `#[ignore]`d release sweeps
//! cover 10⁸ inputs per function (`ci.sh --stage scale` runs them).
//!
//! Each function has a fast domain; a lane outside it is recomputed by
//! libm, so special values, the multi-word reduction of `cos` and
//! `sincos`, and the overflow and underflow of `exp` and `pow` are
//! libm's by construction:
//!
//! | function | fast domain |
//! |---|---|
//! | [`ln()`], [`log10()`] | positive normal finite `x` |
//! | [`cos()`], [`sin_cos()`] | `|x| < 105414350` |
//! | [`exp()`] | `2⁻⁵⁴ ≤ |x| < 512` |
//! | [`exp10()`] | `2⁻⁶⁵ ≤ |y| < 2⁶³` and `2⁻⁵⁴ ≤ |y·ln 10| < 512` |
//!
//! Within a build every function is a pure function of its input;
//! unlike a libm call its bits do not depend on which `ifunc` variant
//! the host's CPU selects.

mod cos;
mod exp;
mod ln;

use crate::rng::LANES;

/// `core` on every lane, then `libm` on each lane outside `fast`.
#[inline(always)]
fn lanes(
    x: [f64; LANES],
    core: impl Fn(f64) -> f64,
    fast: impl Fn(f64) -> bool + Copy,
    libm: impl Fn(f64) -> f64,
) -> [f64; LANES] {
    let mut y = [0.0; LANES];
    for (y, &x) in y.iter_mut().zip(&x) {
        *y = core(x);
    }
    if !x.iter().all(|&x| fast(x)) {
        outside(&x, fast, |i, x| y[i] = libm(x));
    }
    y
}

/// The libm fix-up of [`lanes`] and [`sin_cos`], out of line: `libm(i,
/// x[i])` for each lane `i` outside `fast`. Inlined, the compiler may
/// call libm on every lane and select, since the intrinsics it calls
/// have no side effects.
#[cold]
#[inline(never)]
fn outside(x: &[f64; LANES], fast: impl Fn(f64) -> bool, mut libm: impl FnMut(usize, f64)) {
    for (i, &x) in x.iter().enumerate() {
        if !fast(x) {
            libm(i, x);
        }
    }
}

/// `x.map(f64::ln)`, bit for bit. Fast domain: positive normal finite
/// `x`.
#[inline]
pub fn ln(x: [f64; LANES]) -> [f64; LANES] {
    lanes(x, ln::core, ln::fast, f64::ln)
}

/// `x.map(f64::log10)`, bit for bit. Fast domain: positive normal
/// finite `x`.
#[inline]
pub fn log10(x: [f64; LANES]) -> [f64; LANES] {
    lanes(x, ln::log10_core, ln::fast, f64::log10)
}

/// `x.map(f64::cos)`, bit for bit. Fast domain: `|x| < 105414350`.
#[inline]
pub fn cos(x: [f64; LANES]) -> [f64; LANES] {
    lanes(x, cos::core, cos::fast, f64::cos)
}

/// `x.map(|x| (x.sin(), x.cos()))` as libm's `sincos` computes it, bit
/// for bit, as two arrays: the sines and the cosines. Fast domain: `|x| <
/// 105414350`. An optimized build merges a `sin` and a `cos` of one
/// value into one `sincos` call, whose sine comes from another formula
/// than `sin`'s on `0.855469 ≤ |x| < 2.426265`; outside the fast domain
/// `sin`, `cos` and `sincos` share one reduction and one kernel each, so
/// the fix-up's separate calls return `sincos`'s bits there.
#[inline]
pub fn sin_cos(x: [f64; LANES]) -> ([f64; LANES], [f64; LANES]) {
    let (mut sin, mut cos) = ([0.0; LANES], [0.0; LANES]);
    for ((s, c), &x) in sin.iter_mut().zip(&mut cos).zip(&x) {
        (*s, *c) = cos::sin_cos(x);
    }
    if !x.iter().all(|&x| cos::fast(x)) {
        outside(&x, cos::fast, |i, x| (sin[i], cos[i]) = (x.sin(), x.cos()));
    }
    (sin, cos)
}

/// `x.map(f64::exp)`, bit for bit. Fast domain: `2⁻⁵⁴ ≤ |x| < 512`.
#[inline]
pub fn exp(x: [f64; LANES]) -> [f64; LANES] {
    lanes(x, exp::exp_core, exp::exp_fast, f64::exp)
}

/// `y.map(|y| 10f64.powf(y))`, bit for bit. Fast domain: `2⁻⁶⁵ ≤ |y| <
/// 2⁶³` and `2⁻⁵⁴ ≤ |y·ln 10| < 512`.
#[inline]
pub fn exp10(y: [f64; LANES]) -> [f64; LANES] {
    lanes(y, exp::core, exp::fast, |y| 10f64.powf(y))
}
