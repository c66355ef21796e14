//! `fedl_linalg::lanemath` against the platform's libm, by `to_bits`:
//! every lane of every call must be the bits `f64::ln`, `f64::log10`,
//! `f64::cos`, `f64::exp`, `10f64.powf` and the C library's `sincos`
//! return.
//!
//! The tier-1 tests compare 10⁶ sampled inputs per function and every
//! edge of each fast domain (and the special values beyond them, which
//! go to libm). The `#[ignore]`d sweeps compare 10⁸ inputs per function
//! in a release build and print their counts; run them with
//! `cargo test --release -p fedl-linalg --test lanemath -- --ignored
//! --nocapture` (`scripts/ci.sh --stage scale` does).

use fedl_linalg::lanemath;
use fedl_linalg::rng::{rng_for, Rng, Xoshiro256pp, LANES};

/// One of the functions with its `N` outputs per input: its lane form,
/// libm's scalar form, and a sampler of inputs that mixes the caller's
/// shape with the whole fast domain and beyond.
struct Function<const N: usize> {
    name: &'static str,
    lanes: fn([f64; LANES]) -> [[f64; LANES]; N],
    libm: fn(f64) -> [f64; N],
    sample: fn(&mut Xoshiro256pp, u64) -> f64,
}

extern "C" {
    /// The C library's `sincos`, called by name: whether `f64::sin` and
    /// `f64::cos` of one value become one `sincos` call is up to the
    /// optimizer, and its sine comes from another formula than `sin`'s
    /// on `0.855469 ≤ |x| < 2.426265`.
    fn sincos(x: f64, sin: *mut f64, cos: *mut f64);
}

fn libm_sincos(x: f64) -> [f64; 2] {
    let (mut sin, mut cos) = (0.0, 0.0);
    // SAFETY: `sincos` writes one `f64` through each pointer and keeps
    // neither; both point to live locals.
    unsafe { sincos(x, &mut sin, &mut cos) };
    [sin, cos]
}

/// Any `f64` bit pattern: every exponent, both signs, NaN payloads.
fn any_bits(rng: &mut Xoshiro256pp) -> f64 {
    f64::from_bits(rng.next_u64())
}

const LN: Function<1> = Function {
    name: "ln",
    lanes: |x| [lanemath::ln(x)],
    libm: |x| [x.ln()],
    sample: |rng, case| match case % 4 {
        // Box–Muller's `1 − u`, `u` a 53-bit uniform.
        0 => 1.0 - rng.next_f64(),
        // Around the near-1 interval [1 − 2⁻⁴, 1 + 0x1.09p−4).
        1 => 0.9 + 0.2 * rng.next_f64(),
        // Every positive exponent.
        2 => f64::from_bits(rng.next_u64() >> 1),
        _ => any_bits(rng),
    },
};

const LOG10: Function<1> = Function {
    name: "log10",
    lanes: |x| [lanemath::log10(x)],
    libm: |x| [x.log10()],
    sample: |rng, case| match case % 4 {
        // The path loss's distance in km: 10 m to a 500 m cell's edge.
        0 => (500.0 * rng.next_f64().sqrt()).max(10.0) / 1000.0,
        // Both sides of 1, where the exponent's sign flips.
        1 => 0.25 + 3.75 * rng.next_f64(),
        // Every positive exponent.
        2 => f64::from_bits(rng.next_u64() >> 1),
        _ => any_bits(rng),
    },
};

/// Inputs for `cos` and `sin_cos`.
fn angle(rng: &mut Xoshiro256pp, case: u64) -> f64 {
    match case % 4 {
        // Box–Muller's angle `2π·u`.
        0 => 2.0 * std::f64::consts::PI * rng.next_f64(),
        // Both signs, many periods.
        1 => (rng.next_f64() - 0.5) * 2.0e3,
        // Every exponent up to the fast domain's bound (~2^26.65) and a
        // little beyond.
        2 => {
            let top = rng.next_u64() % (0x41a0_0000_0000_0000 >> 52);
            f64::from_bits((top << 52) | (rng.next_u64() >> 12) | (rng.next_u64() & 1 << 63))
        }
        _ => any_bits(rng),
    }
}

const COS: Function<1> =
    Function { name: "cos", lanes: |x| [lanemath::cos(x)], libm: |x| [x.cos()], sample: angle };

const SIN_COS: Function<2> = Function {
    name: "sin_cos",
    lanes: |x| {
        let (sin, cos) = lanemath::sin_cos(x);
        [sin, cos]
    },
    libm: libm_sincos,
    sample: angle,
};

const EXP: Function<1> = Function {
    name: "exp",
    lanes: |x| [lanemath::exp(x)],
    libm: |x| [x.exp()],
    sample: |rng, case| match case % 4 {
        // The Poisson limit's `−rest`, rest in (0, 30].
        0 => -30.0 * (1.0 - rng.next_f64()),
        // Overflow to underflow and past both.
        1 => (rng.next_f64() - 0.5) * 1600.0,
        // Every exponent of |x| below 2^10.
        2 => {
            let top = rng.next_u64() % (0x4090_0000_0000_0000 >> 52);
            f64::from_bits((top << 52) | (rng.next_u64() >> 12) | (rng.next_u64() & 1 << 63))
        }
        _ => any_bits(rng),
    },
};

const EXP10: Function<1> = Function {
    name: "exp10",
    lanes: |y| [lanemath::exp10(y)],
    libm: |y| [10f64.powf(y)],
    sample: |rng, case| match case % 4 {
        // The realization's `−(path loss + shadowing)/10`.
        0 => -(128.1 + 60.0 * (rng.next_f64() - 0.5)) / 10.0,
        // Overflow to underflow and past both.
        1 => (rng.next_f64() - 0.55) * 700.0,
        // Every exponent of |y| below 2^10.
        2 => {
            let top = rng.next_u64() % (0x4090_0000_0000_0000 >> 52);
            f64::from_bits((top << 52) | (rng.next_u64() >> 12) | (rng.next_u64() & 1 << 63))
        }
        _ => any_bits(rng),
    },
};

const FUNCTIONS: [Function<1>; 5] = [LN, COS, EXP10, LOG10, EXP];

/// Panics at the first lane whose bits differ from libm's (NaN matches
/// NaN: the payload is libm's either way, the lane is recomputed by it).
fn assert_lanes<const N: usize>(f: &Function<N>, x: [f64; LANES]) {
    let got = (f.lanes)(x);
    for (i, &x) in x.iter().enumerate() {
        for (output, want) in (f.libm)(x).into_iter().enumerate() {
            let got = got[output][i];
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{}({x:e}) [{:#018x}] output {output}: lanes {:#018x}, libm {:#018x}",
                f.name,
                x.to_bits(),
                got.to_bits(),
                want.to_bits()
            );
        }
    }
}

/// Compares `calls` lane groups of sampled inputs; returns the inputs
/// compared.
fn sweep<const N: usize>(f: &Function<N>, seed: u64, calls: u64) -> u64 {
    let mut rng = rng_for(seed, 0x1A3E);
    for call in 0..calls {
        assert_lanes(f, std::array::from_fn(|i| (f.sample)(&mut rng, call + i as u64)));
    }
    calls * LANES as u64
}

#[test]
fn a_million_sampled_inputs_per_function_match_libm() {
    for (seed, f) in FUNCTIONS.iter().enumerate() {
        let compared = sweep(f, seed as u64, 1_000_000_u64.div_ceil(LANES as u64));
        assert!(compared >= 1_000_000, "{}: {compared}", f.name);
    }
    let compared = sweep(&SIN_COS, FUNCTIONS.len() as u64, 1_000_000_u64.div_ceil(LANES as u64));
    assert!(compared >= 1_000_000, "sin_cos: {compared}");
}

/// Bit patterns at and beside `edges` (each ±3 ulp, both signs).
fn around(edges: &[u64]) -> Vec<f64> {
    let mut xs = Vec::new();
    for &edge in edges {
        for bits in edge.saturating_sub(3)..=edge.saturating_add(3) {
            xs.push(f64::from_bits(bits));
            xs.push(-f64::from_bits(bits));
        }
    }
    xs
}

/// Specials every function must hand to libm unchanged.
fn specials() -> Vec<f64> {
    let mut xs = vec![f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1.0, -1.0];
    xs.extend(around(&[1, 0x000f_ffff_ffff_ffff, 0x0010_0000_0000_0000, 0x7fef_ffff_ffff_ffff]));
    xs.push(f64::from_bits(0x7ff0_0000_0000_0001));
    xs
}

/// Each input in its own lane group among sampled neighbours, at every
/// lane position, so one lane outside the fast domain sits in a group
/// that is otherwise inside it.
fn assert_each_in_every_lane<const N: usize>(f: &Function<N>, xs: &[f64]) {
    let mut rng = rng_for(0xED6E, 0);
    for &x in xs {
        for lane in 0..LANES {
            let mut group: [f64; LANES] =
                std::array::from_fn(|i| (f.sample)(&mut rng, 4 * i as u64));
            group[lane] = x;
            assert_lanes(f, group);
        }
        assert_lanes(f, [x; LANES]);
    }
}

#[test]
fn ln_matches_libm_at_its_domain_edges_and_on_specials() {
    // Near-1 interval bounds, 1.0, the table's OFF, powers of two.
    let mut xs = around(&[0x3fee_0000_0000_0000, 0x3ff1_0900_0000_0000, 0x3ff0_0000_0000_0000]);
    xs.extend(around(&[0x3fe6_0000_0000_0000, 0x3fe0_0000_0000_0000, 0x4000_0000_0000_0000]));
    xs.extend(specials());
    // The realization's extremes: 1 − u at u = 0 and at u = 1 − 2⁻⁵³.
    xs.extend([1.0, 1.0 - (1.0 - f64::EPSILON / 2.0)]);
    assert_each_in_every_lane(&LN, &xs);
}

/// The path bounds of `__cos` and `__sincos` (top words 0x3e400000,
/// 0x3feb6000, 0x400368fd, 0x419921fb; `__sin`'s 0x3e500000), do_sin's
/// Taylor bound 0.126, the quadrant boundaries of Box–Muller's [0, 2π),
/// and the specials.
fn angle_edges() -> Vec<f64> {
    let mut xs = around(&[
        0x3e40_0000_0000_0000,
        0x3e50_0000_0000_0000,
        0x3feb_6000_0000_0000,
        0x4003_68fd_0000_0000,
        0x4199_21fb_0000_0000,
        0.126f64.to_bits(),
    ]);
    let pi = std::f64::consts::PI;
    xs.extend(around(&[
        (pi / 4.0).to_bits(),
        (pi / 2.0).to_bits(),
        (3.0 * pi / 4.0).to_bits(),
        pi.to_bits(),
        (5.0 * pi / 4.0).to_bits(),
        (3.0 * pi / 2.0).to_bits(),
        (7.0 * pi / 4.0).to_bits(),
        (2.0 * pi).to_bits(),
        (1.0e6 * pi).to_bits(),
        (1.0 - f64::EPSILON / 2.0).to_bits(),
    ]));
    xs.extend([2.0 * pi * (1.0 - f64::EPSILON / 2.0), 1.0e300]);
    xs.extend(specials());
    xs
}

#[test]
fn log10_matches_libm_at_its_domain_edges_and_on_specials() {
    // 1.0, where the exponent's sign flips, powers of two and of ten,
    // and ln's own edges, which the mantissa reaches.
    let mut xs = around(&[0x3ff0_0000_0000_0000, 0x3fe0_0000_0000_0000, 0x4000_0000_0000_0000]);
    xs.extend(around(&[0x3fee_0000_0000_0000, 0x3ff1_0900_0000_0000, 0x3fe6_0000_0000_0000]));
    xs.extend(around(&[1e-3f64.to_bits(), 0.1f64.to_bits(), 10f64.to_bits(), 1e22f64.to_bits()]));
    xs.extend((-30..=30).map(|p| 10f64.powi(p)));
    xs.extend(specials());
    assert_each_in_every_lane(&LOG10, &xs);
}

#[test]
fn cos_matches_libm_at_its_domain_edges_and_on_specials() {
    assert_each_in_every_lane(&COS, &angle_edges());
}

#[test]
fn sin_cos_matches_libm_sincos_at_its_domain_edges_and_on_specials() {
    assert_each_in_every_lane(&SIN_COS, &angle_edges());
}

#[test]
fn exp_matches_libm_at_its_domain_edges_and_on_specials() {
    // |x| bounds 2⁻⁵⁴ and 512 (top 0x3c9, 0x408); overflow (x ≈ 709.78),
    // the subnormal range (x < −708.4) and underflow to zero (x ≈
    // −745.1); the Poisson chunk's −30; integers.
    let mut xs = around(&[
        0x3c90_0000_0000_0000,
        0x4080_0000_0000_0000,
        709.78f64.to_bits(),
        708.4f64.to_bits(),
        745.1f64.to_bits(),
        30.0f64.to_bits(),
        1.0f64.to_bits(),
    ]);
    xs.extend((-30..=30).map(f64::from));
    xs.extend(specials());
    assert_each_in_every_lane(&EXP, &xs);
}

#[test]
fn exp10_matches_libm_at_its_domain_edges_and_on_specials() {
    // |y| bounds 2⁻⁶⁵ and 2⁶³ (top 0x3be, 0x43e); |y·ln 10| bounds 2⁻⁵⁴
    // and 512; overflow (y ≈ 308.25), the subnormal range (y < −307.65)
    // and underflow to zero (y ≈ −323.3); integers, where libm is exact.
    let ln10 = std::f64::consts::LN_10;
    let mut xs = around(&[
        0x3be0_0000_0000_0000,
        0x43e0_0000_0000_0000,
        (2f64.powi(-54) / ln10).to_bits(),
        (512.0 / ln10).to_bits(),
        308.25f64.to_bits(),
        307.65f64.to_bits(),
        323.3f64.to_bits(),
        1.0f64.to_bits(),
        2.0f64.to_bits(),
        22.0f64.to_bits(),
    ]);
    xs.extend((-30..=30).map(f64::from));
    xs.extend(specials());
    assert_each_in_every_lane(&EXP10, &xs);
}

/// The release sweeps: 10⁸ inputs per function, one test per function
/// so each prints its own count line for the CI stage note.
fn release_sweep<const N: usize>(f: &Function<N>, seed: u64) {
    let compared = sweep(f, seed, 100_000_000_u64.div_ceil(LANES as u64));
    assert!(compared >= 100_000_000, "{}: {compared}", f.name);
    eprintln!("{compared} {} inputs compared against libm", f.name);
}

#[test]
#[ignore = "10^8 inputs; run in release (ci.sh --stage scale)"]
fn ln_release_sweep() {
    release_sweep(&LN, 0x5EE0);
}

#[test]
#[ignore = "10^8 inputs; run in release (ci.sh --stage scale)"]
fn log10_release_sweep() {
    release_sweep(&LOG10, 0x5EE4);
}

#[test]
#[ignore = "10^8 inputs; run in release (ci.sh --stage scale)"]
fn cos_release_sweep() {
    release_sweep(&COS, 0x5EE1);
}

#[test]
#[ignore = "10^8 inputs; run in release (ci.sh --stage scale)"]
fn sin_cos_release_sweep() {
    release_sweep(&SIN_COS, 0x5EE3);
}

#[test]
#[ignore = "10^8 inputs; run in release (ci.sh --stage scale)"]
fn exp_release_sweep() {
    release_sweep(&EXP, 0x5EE5);
}

#[test]
#[ignore = "10^8 inputs; run in release (ci.sh --stage scale)"]
fn exp10_release_sweep() {
    release_sweep(&EXP10, 0x5EE2);
}
