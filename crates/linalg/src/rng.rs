//! Self-contained deterministic random-number substrate.
//!
//! Every stochastic component in the reproduction (dataset synthesis,
//! client placement, availability draws, SGD batching, RDCS rounding)
//! derives its RNG from one experiment seed through [`derive_seed`], so a
//! whole figure is reproducible from a single `u64` while streams for
//! different purposes stay statistically independent.
//!
//! The module is a from-scratch replacement for the `rand`/`rand_distr`
//! crates so the workspace builds offline with zero registry
//! dependencies. It provides:
//!
//! * [`Xoshiro256pp`] — the xoshiro256++ generator (Blackman & Vigna),
//!   seeded through a SplitMix64 expansion of a single `u64`, and
//!   [`XoshiroLanes`], [`LANES`] of them stepped in lockstep;
//! * the [`Rng`] trait — `next_u64`, [`Rng::gen`], [`Rng::gen_range`],
//!   [`Rng::gen_bool`] — plus [`SliceRandom`] for `shuffle`/`choose`;
//! * [`Distribution`] samplers: [`Normal`] (Box–Muller) and [`Poisson`]
//!   (Knuth product method with splitting for large rates; also
//!   [`Poisson::sample_lanes`], one chain per lane).
//!
//! Determinism contract: for a fixed crate version, a fixed seed produces
//! the same stream on every platform (only integer ops and IEEE-754
//! double arithmetic are used). The `derive_seed` mix is pinned by a
//! regression test and must never change — it is the root of every
//! experiment's reproducibility story.

use crate::Matrix;

// ---------------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------------

/// Derives an independent child seed from `(root, label)`.
///
/// Uses the SplitMix64 finalizer, which is a bijective avalanche mix — two
/// distinct `(root, label)` pairs practically never collide and nearby
/// labels produce unrelated streams.
#[inline]
pub fn derive_seed(root: u64, label: u64) -> u64 {
    let mut z = root ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of the SplitMix64 sequence generator (state advance + mix),
/// used to expand a single `u64` into the 256-bit xoshiro state.
#[inline]
fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Xoshiro256pp`] seeded from `(root, label)` via [`derive_seed`].
pub fn rng_for(root: u64, label: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(derive_seed(root, label))
}

// ---------------------------------------------------------------------------
// Generator core
// ---------------------------------------------------------------------------

/// The xoshiro256++ pseudo-random generator (Blackman & Vigna, 2019).
///
/// 256 bits of state, period `2^256 − 1`, passes BigCrush, and needs only
/// xor/shift/rotate/add — fast everywhere and trivially portable. This is
/// the single generator used by the whole workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the 256-bit state by running SplitMix64 from `seed`, the
    /// expansion the xoshiro authors recommend (never yields the
    /// all-zero state).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64_next(&mut sm),
            splitmix64_next(&mut sm),
            splitmix64_next(&mut sm),
            splitmix64_next(&mut sm),
        ];
        Self { s }
    }

    /// Rebuilds a generator from a [`Xoshiro256pp::state`] export.
    ///
    /// The caller is responsible for passing a state that was produced
    /// by `state()` (any non-zero state is technically valid; the
    /// all-zero state is a fixed point and never occurs in exported
    /// states).
    pub fn from_state(s: [u64; 4]) -> Self {
        Self { s }
    }

    /// Exports the full 256-bit generator state, for checkpointing.
    /// `from_state(rng.state())` yields a generator that continues the
    /// exact same output stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Next raw 64-bit output (the `++` scrambler).
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl Rng for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

/// Width of [`XoshiroLanes`]: how many independent streams step together.
pub const LANES: usize = 16;

/// [`LANES`] xoshiro256++ generators stepped in lockstep: lane `i` of
/// `XoshiroLanes::new(roots, label)` produces exactly the stream of
/// `rng_for(roots[i], label)`.
///
/// The state is stored structure-of-arrays — word `w` of every lane sits
/// in `s[w]` — so seeding and each step are a few lane-wide integer
/// operations that compile to vector code, instead of sixteen serial
/// dependency chains. What it is for: realizing many clients' epoch
/// draws at once, where every client owns a stream and the streams only
/// need to agree with their scalar definition, not with each other.
#[derive(Debug, Clone)]
pub struct XoshiroLanes {
    s: [[u64; LANES]; 4],
}

impl XoshiroLanes {
    /// Lane `i` seeded as `rng_for(roots[i], label)`.
    #[inline]
    pub fn new(roots: &[u64; LANES], label: u64) -> Self {
        let mut sm = roots.map(|root| derive_seed(root, label));
        let mut s = [[0; LANES]; 4];
        for word in &mut s {
            for (w, sm) in word.iter_mut().zip(&mut sm) {
                *w = splitmix64_next(sm);
            }
        }
        Self { s }
    }

    /// Next raw output of every lane ([`Xoshiro256pp::next_raw`] lane-wise).
    #[inline]
    pub fn next_raw(&mut self) -> [u64; LANES] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0; LANES];
        for i in 0..LANES {
            out[i] = s0[i].wrapping_add(s3[i]).rotate_left(23).wrapping_add(s0[i]);
            let t = s1[i] << 17;
            s2[i] ^= s0[i];
            s3[i] ^= s1[i];
            s1[i] ^= s2[i];
            s0[i] ^= s3[i];
            s2[i] ^= t;
            s3[i] = s3[i].rotate_left(45);
        }
        out
    }

    /// Next uniform `[0, 1)` of every lane ([`Rng::next_f64`] lane-wise).
    #[inline]
    pub fn next_f64(&mut self) -> [f64; LANES] {
        self.next_raw().map(unit_f64)
    }
}

// ---------------------------------------------------------------------------
// The Rng trait
// ---------------------------------------------------------------------------

/// Minimal random-generator interface: one required method
/// (`next_u64`), everything else derived from it.
pub trait Rng {
    /// Next uniformly distributed 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform `f32` in `[0, 1)` with 24 random mantissa bits.
    #[inline]
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// A uniformly random value of a primitive type (`f32`, `f64` in
    /// `[0, 1)`; `bool` fair coin; full-range unsigned integers).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::gen_from(self)
    }

    /// A uniform draw from `range` (`a..b` or `a..=b`; integer and float
    /// endpoints).
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// The top 53 bits of a raw output as a uniform `f64` in `[0, 1)`.
#[inline]
fn unit_f64(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types [`Rng::gen`] can produce uniformly without extra parameters.
pub trait Standard: Sized {
    /// Draws one uniform value from `rng`.
    fn gen_from<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn gen_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_f64()
    }
}
impl Standard for f32 {
    #[inline]
    fn gen_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_f32()
    }
}
impl Standard for bool {
    #[inline]
    fn gen_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}
impl Standard for u64 {
    #[inline]
    fn gen_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl Standard for u32 {
    #[inline]
    fn gen_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}
impl Standard for usize {
    #[inline]
    fn gen_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

// ---------------------------------------------------------------------------
// Ranges
// ---------------------------------------------------------------------------

/// Types that support uniform sampling from a half-open or inclusive
/// interval.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[low, high)`.
    fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform draw from `[low, high]`.
    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// Uniform `u64` in `[0, span)` via the fixed-point multiply method
/// (Lemire). The residual bias is at most `span / 2^64` — irrelevant for
/// the simulation-scale spans used here.
#[inline]
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "empty range {low}..{high}");
                let span = (high as i128 - low as i128) as u64;
                low.wrapping_add(uniform_below(rng, span) as $t)
            }
            #[inline]
            fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "empty range {low}..={high}");
                let span = (high as i128 - low as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                low.wrapping_add(uniform_below(rng, span as u64) as $t)
            }
        }
    )*};
}
impl_sample_uniform_int!(usize, u64, u32, i64, i32);

macro_rules! impl_sample_uniform_float {
    ($t:ty, $draw:ident) => {
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "empty range {low}..{high}");
                let u = rng.$draw();
                low + u * (high - low)
            }
            #[inline]
            fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "empty range {low}..={high}");
                let u = rng.$draw();
                low + u * (high - low)
            }
        }
    };
}
impl_sample_uniform_float!(f64, next_f64);
impl_sample_uniform_float!(f32, next_f32);

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    #[inline]
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    #[inline]
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

// ---------------------------------------------------------------------------
// Slice helpers
// ---------------------------------------------------------------------------

/// Shuffling and random element selection on slices.
pub trait SliceRandom {
    /// Element type of the slice.
    type Item;

    /// In-place Fisher–Yates shuffle.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

    /// Uniformly random element, or `None` when empty.
    fn choose<'a, R: Rng + ?Sized>(&'a self, rng: &mut R) -> Option<&'a Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = uniform_below(rng, i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose<'a, R: Rng + ?Sized>(&'a self, rng: &mut R) -> Option<&'a Self::Item> {
        if self.is_empty() {
            None
        } else {
            Some(&self[uniform_below(rng, self.len() as u64) as usize])
        }
    }
}

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

/// A parameterized distribution that can be sampled with any [`Rng`].
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// Gaussian `N(mean, std²)` sampled by the Box–Muller transform.
///
/// Both variates of each Box–Muller pair are consumed (the second is
/// cached), so a stream of draws costs one `sin`/`cos` pair per two
/// samples. The cache lives in a `Cell` so sampling needs only `&self`,
/// matching the [`Distribution`] contract.
#[derive(Debug, Clone)]
pub struct Normal {
    mean: f64,
    std: f64,
    spare: core::cell::Cell<Option<f64>>,
}

impl Normal {
    /// `N(mean, std²)`.
    ///
    /// # Panics
    /// Panics if `std` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(
            mean.is_finite() && std.is_finite() && std >= 0.0,
            "Normal requires finite mean and non-negative std (got {mean}, {std})"
        );
        Self { mean, std, spare: core::cell::Cell::new(None) }
    }

    /// The Box–Muller radius and angle of two uniforms `[0, 1)` drawn in
    /// the order `a`, `b`.
    #[inline]
    fn polar(a: f64, b: f64) -> (f64, f64) {
        // Box–Muller on (0,1] × [0,1) to avoid ln(0).
        let u1 = 1.0 - a;
        let r = (-2.0 * u1.ln()).sqrt();
        (r, 2.0 * core::f64::consts::PI * b)
    }

    /// One standard-normal variate.
    fn sample_standard<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let a = rng.next_f64();
        let (r, theta) = Self::polar(a, rng.next_f64());
        self.spare.set(Some(r * theta.sin()));
        r * theta.cos()
    }

    /// What [`Distribution::sample`] returns on a fresh `Normal` whose
    /// generator yields the uniforms `a` then `b` — for callers that draw
    /// the uniforms themselves, many streams at a time
    /// ([`XoshiroLanes`]).
    #[inline]
    pub fn from_uniforms(&self, a: f64, b: f64) -> f64 {
        let (r, theta) = Self::polar(a, b);
        self.mean + self.std * (r * theta.cos())
    }
}

impl Distribution<f64> for Normal {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * self.sample_standard(rng)
    }
}

/// Poisson with rate `λ`, sampled by Knuth's product-of-uniforms method.
///
/// For `λ > 30` the draw is split into independent Poisson components
/// (`Poisson(a + b) = Poisson(a) + Poisson(b)`) so `exp(-λ)` never
/// underflows; total work stays `O(λ)`, which is fine at the arrival
/// rates the simulator uses.
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    lambda: f64,
}

/// Chunk size for splitting large Poisson rates; `exp(-30)` is
/// comfortably inside `f64` range.
const POISSON_CHUNK: f64 = 30.0;

impl Poisson {
    /// Poisson with the given positive, finite rate.
    ///
    /// # Panics
    /// Panics if `lambda` is not finite and positive.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0, "Poisson requires λ > 0 (got {lambda})");
        Self { lambda }
    }

    /// How a rate is drawn: `full` chunks of [`POISSON_CHUNK`], then one
    /// chunk of the `rest` (≤ [`POISSON_CHUNK`]).
    #[inline]
    fn chunks(lambda: f64) -> (u64, f64) {
        let (mut full, mut rest) = (0, lambda);
        while rest > POISSON_CHUNK {
            rest -= POISSON_CHUNK;
            full += 1;
        }
        (full, rest)
    }

    /// `exp(−rest)` of this rate's chunk split: the product its last
    /// chunk's Knuth chain runs down to. It depends on λ alone, so a
    /// caller that draws one rate epoch after epoch computes it once and
    /// hands it to [`Self::sample_lanes`].
    pub fn last_chunk_limit(&self) -> f64 {
        (-Self::chunks(self.lambda).1).exp()
    }

    /// `Poisson::new(lambdas[i]).sample(..)` on lane `i`'s stream, for
    /// every lane at once: the Knuth chains run in lockstep, one
    /// [`XoshiroLanes`] step per link, and a lane whose chunk ends starts
    /// its next chunk on the following step — exactly where the scalar
    /// sampler draws its next uniform. A lane that has finished keeps
    /// stepping until the longest chain ends, so the generator's state
    /// afterwards is not the scalar one; only the counts are.
    ///
    /// `rest_limit[i]` is lane `i`'s
    /// [`last_chunk_limit`](Self::last_chunk_limit); the number of full
    /// chunks before it is split off `lambdas[i]` here, with no libm call.
    ///
    /// # Panics
    /// Panics if any rate is not finite and positive.
    pub fn sample_lanes(
        lambdas: &[f64; LANES],
        rest_limit: &[f64; LANES],
        rng: &mut XoshiroLanes,
    ) -> [u64; LANES] {
        let full = lambdas.map(|lambda| Self::chunks(Poisson::new(lambda).lambda).0);
        debug_assert!(
            (0..LANES).all(|i| {
                rest_limit[i].to_bits() == Poisson::new(lambdas[i]).last_chunk_limit().to_bits()
            }),
            "a lane's limit is not its rate's last_chunk_limit"
        );
        let mut product = [1.0f64; LANES];
        let mut count = [0u64; LANES];
        // `1.0 · u` is `u`: a chunk opened with a product of one reads its
        // first uniform as the scalar sampler does.
        if full == [0; LANES] {
            // One chunk per lane. A product only falls, so a lane that is
            // at or under its limit stays there and never counts again:
            // no lane needs to be told it has finished.
            loop {
                let u = rng.next_f64();
                let mut live = false;
                for i in 0..LANES {
                    product[i] *= u[i];
                    let more = product[i] > rest_limit[i];
                    count[i] += u64::from(more);
                    live |= more;
                }
                if !live {
                    return count;
                }
            }
        }
        // Lane `i` is in chunk `chunk[i]`; past its last chunk its limit is
        // infinite, so it never counts again.
        let full_limit = (-POISSON_CHUNK).exp();
        let limit_of = |chunk: u64, full: u64, rest_limit: f64| {
            let last = if chunk == full { rest_limit } else { f64::INFINITY };
            if chunk < full {
                full_limit
            } else {
                last
            }
        };
        let mut chunk = [0u64; LANES];
        let mut limit: [f64; LANES] = std::array::from_fn(|i| limit_of(0, full[i], rest_limit[i]));
        loop {
            let u = rng.next_f64();
            let mut live = false;
            for i in 0..LANES {
                let p = product[i] * u[i];
                let more = p > limit[i];
                product[i] = if more { p } else { 1.0 };
                count[i] += u64::from(more);
                chunk[i] += u64::from(!more);
                limit[i] = limit_of(chunk[i], full[i], rest_limit[i]);
                live |= chunk[i] <= full[i];
            }
            if !live {
                return count;
            }
        }
    }
}

impl Distribution<f64> for Poisson {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (full, rest) = Self::chunks(self.lambda);
        let mut total = 0u64;
        for chunk in 0..=full {
            let limit = if chunk < full { (-POISSON_CHUNK).exp() } else { (-rest).exp() };
            let mut product = rng.next_f64();
            while product > limit {
                product *= rng.next_f64();
                total += 1;
            }
        }
        total as f64
    }
}

// ---------------------------------------------------------------------------
// Matrix constructors
// ---------------------------------------------------------------------------

impl Matrix {
    /// Matrix with i.i.d. `U(-scale, scale)` entries.
    pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut impl Rng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-scale..scale))
    }

    /// Glorot/Xavier-uniform initialization for a `fan_in x fan_out` layer.
    ///
    /// Scale `sqrt(6 / (fan_in + fan_out))` keeps activation variance flat
    /// across layers, which matters because the local DANE solves start
    /// from the broadcast global model every iteration.
    pub fn glorot(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
        let scale = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Matrix::uniform(fan_in, fan_out, scale, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic_and_label_sensitive() {
        assert_eq!(derive_seed(42, 1), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_ne!(derive_seed(42, 1), derive_seed(43, 1));
    }

    /// Pins `derive_seed` outputs so an RNG refactor can never silently
    /// reshuffle every experiment stream in the repo.
    #[test]
    fn derive_seed_outputs_are_pinned() {
        assert_eq!(derive_seed(0, 0), 0);
        assert_eq!(derive_seed(42, 1), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(derive_seed(0xFED1, 100), 0xA37B_D992_E6BB_3A39);
        assert_eq!(derive_seed(u64::MAX, u64::MAX), 0xE4D9_7177_1B65_2C20);
    }

    #[test]
    fn rng_streams_reproduce() {
        let a: Vec<u32> = (0..4).map(|_| rng_for(7, 3).gen::<u32>()).collect();
        // Same seed/label -> same first draw each time.
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r1 = rng_for(7, 3);
        let mut r2 = rng_for(7, 3);
        for _ in 0..16 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs of xoshiro256++ from the all-explicit state
        // {1, 2, 3, 4}, cross-checked against the public reference
        // implementation (prng.di.unimi.it).
        let mut rng = Xoshiro256pp { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..4).map(|_| rng.next_raw()).collect();
        assert_eq!(got, vec![41943041, 58720359, 3588806011781223, 3591011842654386]);
    }

    #[test]
    fn state_round_trip_continues_the_stream() {
        let mut rng = rng_for(0xC0FFEE, 42);
        for _ in 0..100 {
            rng.next_raw();
        }
        let saved = rng.state();
        let tail: Vec<u64> = (0..32).map(|_| rng.next_raw()).collect();
        let mut restored = Xoshiro256pp::from_state(saved);
        let resumed: Vec<u64> = (0..32).map(|_| restored.next_raw()).collect();
        assert_eq!(tail, resumed, "restored generator must continue the exact stream");
        assert_eq!(rng, restored, "both generators must land in the same state");
    }

    #[test]
    fn state_export_is_pinned() {
        // The exported state IS the raw xoshiro256++ state, so the
        // checkpoint format inherits the reference semantics: exporting
        // {1,2,3,4}, stepping once, and re-exporting must match the
        // reference state-transition exactly.
        let mut rng = Xoshiro256pp::from_state([1, 2, 3, 4]);
        assert_eq!(rng.state(), [1, 2, 3, 4]);
        assert_eq!(rng.next_raw(), 41943041);
        // One transition of the reference update applied to {1,2,3,4}.
        assert_eq!(rng.state(), [7, 0, 262146, 211106232532992]);
        // And a seeded generator exports the SplitMix64 expansion.
        let seeded = Xoshiro256pp::seed_from_u64(0);
        assert_eq!(
            seeded.state(),
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F,
                0xF88B_B8A8_724C_81EC,
            ],
        );
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = rng_for(11, 0);
        for _ in 0..1000 {
            let i = rng.gen_range(3..17usize);
            assert!((3..17).contains(&i));
            let f = rng.gen_range(-2.5..7.5f64);
            assert!((-2.5..7.5).contains(&f));
            let g = rng.gen_range(1.0..=2.0f64);
            assert!((1.0..=2.0).contains(&g));
        }
    }

    #[test]
    fn gen_range_integer_mean_is_central() {
        let mut rng = rng_for(12, 0);
        let n = 40_000;
        let sum: f64 = (0..n).map(|_| rng.gen_range(0..10usize) as f64).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        let mut rng = rng_for(1, 1);
        let _ = rng.gen_range(5..5usize);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = rng_for(13, 0);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // A 50-element shuffle virtually never returns the identity.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = rng_for(14, 0);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &x = items.choose(&mut rng).unwrap();
            seen[x - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn uniform_respects_scale() {
        let mut rng = rng_for(1, 1);
        let m = Matrix::uniform(10, 10, 0.5, &mut rng);
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn glorot_scale_shrinks_with_fan() {
        let mut rng = rng_for(1, 3);
        let wide = Matrix::glorot(1000, 1000, &mut rng);
        let bound = (6.0f32 / 2000.0).sqrt();
        assert!(wide.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn normal_moments_match_parameters() {
        let mut rng = rng_for(2, 1);
        let dist = Normal::new(3.0, 1.5);
        let n = 60_000;
        let draws: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 2.25).abs() < 0.05, "var {var}");
    }

    #[test]
    fn poisson_moments_match_rate_small_and_large() {
        let mut rng = rng_for(2, 2);
        for &lambda in &[0.5, 4.0, 75.0] {
            let dist = Poisson::new(lambda);
            let n = 40_000;
            let draws: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
            let mean = draws.iter().sum::<f64>() / n as f64;
            let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / (n - 1) as f64;
            // Poisson: mean = var = λ.
            let tol = 4.0 * (lambda / n as f64).sqrt() + 0.01;
            assert!((mean - lambda).abs() < tol, "λ={lambda}: mean {mean}");
            assert!((var - lambda).abs() < 20.0 * tol, "λ={lambda}: var {var}");
            assert!(draws.iter().all(|&d| d >= 0.0 && d.fract() == 0.0));
        }
    }
}
