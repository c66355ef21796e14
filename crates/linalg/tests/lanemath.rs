//! `fedl_linalg::lanemath` against the platform's libm, by `to_bits`:
//! every lane of every call must be the bits `f64::ln`, `f64::cos` and
//! `10f64.powf` return.
//!
//! The tier-1 tests compare 10⁶ sampled inputs per function and every
//! edge of each fast domain (and the special values beyond them, which
//! go to libm). The `#[ignore]`d sweeps compare 10⁸ inputs per function
//! in a release build and print their counts; run them with
//! `cargo test --release -p fedl-linalg --test lanemath -- --ignored
//! --nocapture` (`scripts/ci.sh --stage scale` does).

use fedl_linalg::lanemath;
use fedl_linalg::rng::{rng_for, Rng, Xoshiro256pp, LANES};

/// One of the three functions: its lane form, libm's scalar form, and a
/// sampler of inputs that mixes the realization's shape with the whole
/// fast domain and beyond.
struct Function {
    name: &'static str,
    lanes: fn([f64; LANES]) -> [f64; LANES],
    libm: fn(f64) -> f64,
    sample: fn(&mut Xoshiro256pp, u64) -> f64,
}

/// Any `f64` bit pattern: every exponent, both signs, NaN payloads.
fn any_bits(rng: &mut Xoshiro256pp) -> f64 {
    f64::from_bits(rng.next_u64())
}

const LN: Function = Function {
    name: "ln",
    lanes: lanemath::ln,
    libm: f64::ln,
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

const COS: Function = Function {
    name: "cos",
    lanes: lanemath::cos,
    libm: f64::cos,
    sample: |rng, case| match case % 4 {
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
    },
};

const EXP10: Function = Function {
    name: "exp10",
    lanes: lanemath::exp10,
    libm: |y| 10f64.powf(y),
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

const FUNCTIONS: [Function; 3] = [LN, COS, EXP10];

/// Panics at the first lane whose bits differ from libm's (NaN matches
/// NaN: the payload is libm's either way, the lane is recomputed by it).
fn assert_lanes(f: &Function, x: [f64; LANES]) {
    let got = (f.lanes)(x);
    for (&x, &got) in x.iter().zip(&got) {
        let want = (f.libm)(x);
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{}({x:e}) [{:#018x}]: lanes {:#018x}, libm {:#018x}",
            f.name,
            x.to_bits(),
            got.to_bits(),
            want.to_bits()
        );
    }
}

/// Compares `calls` lane groups of sampled inputs; returns the inputs
/// compared.
fn sweep(f: &Function, seed: u64, calls: u64) -> u64 {
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
fn assert_each_in_every_lane(f: &Function, xs: &[f64]) {
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

#[test]
fn cos_matches_libm_at_its_domain_edges_and_on_specials() {
    // The path bounds of `__cos` (top words 0x3e400000, 0x3feb6000,
    // 0x400368fd, 0x419921fb), do_sin's Taylor bound 0.126, and the
    // quadrant boundaries of the realization's [0, 2π).
    let mut xs = around(&[
        0x3e40_0000_0000_0000,
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
    assert_each_in_every_lane(&COS, &xs);
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
fn release_sweep(f: &Function, seed: u64) {
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
fn cos_release_sweep() {
    release_sweep(&COS, 0x5EE1);
}

#[test]
#[ignore = "10^8 inputs; run in release (ci.sh --stage scale)"]
fn exp10_release_sweep() {
    release_sweep(&EXP10, 0x5EE2);
}
