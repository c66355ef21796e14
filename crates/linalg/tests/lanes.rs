//! The lockstep generators against their scalar definitions: lane `i` of
//! `XoshiroLanes::new(roots, label)` is the stream of
//! `rng_for(roots[i], label)`, and `Poisson::sample_lanes` is
//! `Poisson::sample` on each lane's stream — whatever the other lanes
//! hold, at every rate the chunking treats differently — and
//! `Normal::fill` is `Normal::sample` repeated.

use fedl_linalg::rng::{rng_for, Distribution, Normal, Poisson, Rng, XoshiroLanes, LANES};

#[test]
fn every_lane_is_the_scalar_stream_of_its_root() {
    let mut pick = rng_for(0x1A, 0);
    // 10 000 random roots, in groups of sixteen under one random label.
    for _ in 0..10_000 / LANES {
        let roots: [u64; LANES] = std::array::from_fn(|_| pick.next_u64());
        let label = match pick.gen_range(0u32..4) {
            0 => 0,
            1 => u64::MAX,
            _ => pick.next_u64(),
        };
        let mut lanes = XoshiroLanes::new(&roots, label);
        let mut scalar = roots.map(|root| rng_for(root, label));
        for step in 0..24 {
            if step % 2 == 0 {
                let got = lanes.next_raw();
                for (i, rng) in scalar.iter_mut().enumerate() {
                    assert_eq!(got[i], rng.next_u64(), "lane {i} step {step} label {label:#x}");
                }
            } else {
                let got = lanes.next_f64();
                for (i, rng) in scalar.iter_mut().enumerate() {
                    assert_eq!(got[i].to_bits(), rng.next_f64().to_bits(), "lane {i} step {step}");
                }
            }
        }
    }
}

/// Each rate's `last_chunk_limit`: what `sample_lanes` takes beside the
/// rates.
fn limits(lambdas: &[f64; LANES]) -> [f64; LANES] {
    lambdas.map(|lambda| Poisson::new(lambda).last_chunk_limit())
}

/// `sample_lanes` on sixteen roots at rates `lambdas` against sixteen
/// scalar samples of the same streams.
fn assert_lanes_sample_as_scalar(roots: &[u64; LANES], lambdas: &[f64; LANES], label: u64) {
    let got =
        Poisson::sample_lanes(lambdas, &limits(lambdas), &mut XoshiroLanes::new(roots, label));
    for i in 0..LANES {
        let want = Poisson::new(lambdas[i]).sample(&mut rng_for(roots[i], label));
        assert_eq!(got[i] as f64, want, "lane {i}: λ = {} root {:#x}", lambdas[i], roots[i]);
    }
}

#[test]
fn lockstep_poisson_equals_the_scalar_sampler_lane_by_lane() {
    let mut pick = rng_for(0x1B, 0);
    // Rates at and on either side of every chunk edge the sampler has up
    // to 90, and rates near zero (`exp(−λ)` rounds to one below ~1e-16).
    let edges = [
        f64::MIN_POSITIVE,
        1e-300,
        1e-16,
        1e-9,
        0.01,
        0.5,
        1.0,
        29.999_999,
        30.0,
        30.000_001,
        45.0,
        59.999_999,
        60.0,
        60.000_001,
        89.999_999,
        90.0,
    ];
    for group in 0..200u64 {
        let roots: [u64; LANES] = std::array::from_fn(|_| pick.next_u64());
        let lambdas: [f64; LANES] = match group % 4 {
            // Every edge once, one lane each.
            0 => edges,
            // One rate for the whole group (the single-chunk case when it
            // is at most 30).
            1 => [edges[(group as usize / 4) % edges.len()]; LANES],
            // Single-chunk rates only, drawn.
            2 => std::array::from_fn(|_| pick.gen_range(0.0..=30.0f64).max(1e-12)),
            // Anything in (0, 90], mixing lanes that finish early with
            // lanes three chunks long.
            _ => std::array::from_fn(|_| pick.gen_range(0.0..=90.0f64).max(1e-12)),
        };
        assert_lanes_sample_as_scalar(&roots, &lambdas, 0x57EA ^ group);
    }
}

#[test]
fn lockstep_poisson_with_hoisted_limits_equals_the_scalar_sampler() {
    // Whole groups at one and at three chunks' worth, each lane its own
    // stream, each limit the value a population's `arrival_limit`
    // column holds for that rate.
    let mut pick = rng_for(0x1C, 0);
    for lambda in [30.0, 90.0] {
        for group in 0..400u64 {
            let roots: [u64; LANES] = std::array::from_fn(|_| pick.next_u64());
            assert_lanes_sample_as_scalar(&roots, &[lambda; LANES], 0x57EA ^ group);
        }
    }
}

#[test]
#[should_panic(expected = "Poisson requires")]
fn lockstep_poisson_refuses_a_bad_rate_like_the_scalar_one() {
    let mut lambdas = [4.0; LANES];
    lambdas[9] = 0.0;
    let limits = [Poisson::new(4.0).last_chunk_limit(); LANES];
    Poisson::sample_lanes(&lambdas, &limits, &mut XoshiroLanes::new(&[1; LANES], 2));
}

/// Fills `len` values on one `Normal` and samples them one by one on a
/// twin; both must agree by `to_bits` and leave their generators at the
/// same place.
fn assert_fill_is_sample(
    fill: &Normal,
    scalar: &Normal,
    rngs: (&mut impl Rng, &mut impl Rng),
    len: usize,
) {
    let mut got = vec![f64::NAN; len];
    fill.fill(rngs.0, &mut got);
    for (i, got) in got.iter().enumerate() {
        let want = scalar.sample(rngs.1);
        assert_eq!(got.to_bits(), want.to_bits(), "value {i} of {len}: {got} vs {want}");
    }
    assert_eq!(rngs.0.next_u64(), rngs.1.next_u64(), "generators apart after {len}");
}

#[test]
fn normal_fill_is_repeated_sample_bit_for_bit() {
    for (case, (mean, std)) in [(0.0, 1.0), (0.0, 0.35), (-3.5, 2.0e3)].into_iter().enumerate() {
        for spare_on_entry in [false, true] {
            let (fill, scalar) = (Normal::new(mean, std), Normal::new(mean, std));
            let mut a = rng_for(case as u64, 0xF111);
            let mut b = a.clone();
            if spare_on_entry {
                // One sample leaves the pair's second variate behind.
                assert_eq!(fill.sample(&mut a).to_bits(), scalar.sample(&mut b).to_bits());
            }
            // Every length up to two lane groups and a half, each call
            // followed by a few other draws, as a caller's would be.
            for len in 0..=40 {
                assert_fill_is_sample(&fill, &scalar, (&mut a, &mut b), len);
                for _ in 0..len % 3 {
                    assert_eq!(a.gen_range(0..10usize), b.gen_range(0..10usize));
                }
            }
            // Longer calls of random lengths, odd ones carrying the spare.
            let mut lengths = rng_for(case as u64, 0x1E9);
            for _ in 0..200 {
                let len = lengths.gen_range(0..300usize);
                assert_fill_is_sample(&fill, &scalar, (&mut a, &mut b), len);
            }
            // The spare left on exit is the scalar one's.
            assert_eq!(fill.sample(&mut a).to_bits(), scalar.sample(&mut b).to_bits());
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
