//! `ln`, `cos` and `10^y` for [`LANES`] values at a time, bit-identical
//! to this platform's libm.
//!
//! The channel realization (paper §6.1: Box–Muller shadowing, then a
//! gain of `10^(−loss/10)`) calls three libm functions per client per
//! epoch. A libm call in the middle of a lane loop keeps the loop scalar,
//! and the three calls were about half of a realization's time. This
//! module ports the algorithms of glibc 2.36 — `log` and `pow` from ARM's
//! optimized-routines, `cos` from IBM's `s_sin.c` — into safe, inlinable
//! Rust, the same move as [`crate::fastexp`] for `expf`: every lane runs
//! the same table lookups and polynomials, so the compiler vectorizes
//! them.
//!
//! # Bit-compatibility
//!
//! On x86-64 with FMA and AVX2, glibc's `ifunc` resolves `log`, `pow`
//! and `cos` to their `-mfma -mavx2` builds (`__log_fma`, `__pow_fma`,
//! `__cos_fma`), in which GCC fused multiply-adds across statements. The
//! ports replay that machine code operation for operation — each fused
//! step is a `mul_add`, each unfused one a plain `*` / `+`, in the
//! library's order — with the library's constants and tables copied as
//! bit patterns, so every result is the library's own bits.
//! `tests/lanemath.rs` compares against libm by `to_bits` on sampled
//! inputs and at every domain edge; its `#[ignore]`d release sweeps
//! cover 10⁸ inputs per function (`ci.sh --stage scale` runs them).
//!
//! Each function has a fast domain (see [`ln()`], [`cos()`],
//! [`exp10()`]); a lane outside it is recomputed by libm, so special
//! values, the multi-word `cos` reduction and `pow`'s overflow and
//! underflow are libm's by construction. Within a build every function
//! is a pure function of its input; unlike a libm call its bits do not
//! depend on which `ifunc` variant the host's CPU selects.

mod cos;
mod exp10;
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
        outside(&x, &mut y, fast, libm);
    }
    y
}

/// The libm fix-up of [`lanes`], out of line: inlined, the compiler may
/// call libm on every lane and select, since the intrinsics it calls
/// have no side effects.
#[cold]
#[inline(never)]
fn outside(
    x: &[f64; LANES],
    y: &mut [f64; LANES],
    fast: impl Fn(f64) -> bool,
    libm: impl Fn(f64) -> f64,
) {
    for (y, &x) in y.iter_mut().zip(x) {
        if !fast(x) {
            *y = libm(x);
        }
    }
}

/// `x.map(f64::ln)`, bit for bit. Fast domain: positive normal finite
/// `x`.
#[inline]
pub fn ln(x: [f64; LANES]) -> [f64; LANES] {
    lanes(x, ln::core, ln::fast, f64::ln)
}

/// `x.map(f64::cos)`, bit for bit. Fast domain: `|x| < 105414350`.
#[inline]
pub fn cos(x: [f64; LANES]) -> [f64; LANES] {
    lanes(x, cos::core, cos::fast, f64::cos)
}

/// `y.map(|y| 10f64.powf(y))`, bit for bit. Fast domain: `2⁻⁶⁵ ≤ |y| <
/// 2⁶³` and `2⁻⁵⁴ ≤ |y·ln 10| < 512`.
#[inline]
pub fn exp10(y: [f64; LANES]) -> [f64; LANES] {
    lanes(y, exp10::core, exp10::fast, |y| 10f64.powf(y))
}
