//! Online rounding: the randomized dependent client selection algorithm
//! RDCS (paper Alg. 2) plus the independent-rounding baseline and the
//! feasibility repair pass.
//!
//! [`rdcs_with`] keeps the fractional coordinate set in a membership
//! bitmap with a popcount per block of words, so finding the rank-`r`
//! member is a short scan of counts plus one in-word select, and one
//! rounding pass over `K` candidates is `O(K√K / 64)` word operations
//! instead of the `O(K²)` re-scan of a direct transcription of Alg. 2 —
//! the difference between microseconds and minutes at the 1M-client
//! scale tier (docs/SCALE.md). The transcription lives on as a test
//! oracle (`tests/oracle/rdcs.rs`), and `tests/columnar_parity.rs` holds
//! the two to identical RNG consumption: same draws, same outputs, bit
//! for bit.

use fedl_linalg::rng::Rng;

/// Tolerance below/above which a coordinate counts as integral.
const INT_TOL: f64 = 1e-9;

fn is_fractional(v: f64) -> bool {
    v > INT_TOL && v < 1.0 - INT_TOL
}

/// A set of indices `0..len` as a membership bitmap plus the number of
/// members in each block of `1 << shift` words, supporting rank-`r`
/// selection and removal. Ranks and returned indices are 0-based.
#[derive(Default)]
struct ActiveSet {
    words: Vec<u64>,
    blocks: Vec<u32>,
    /// log₂ of the words per block, about half of log₂ of the words, so
    /// the block scan and the word scan of `select` stay equally short.
    shift: u32,
    count: usize,
}

impl ActiveSet {
    #[cfg(test)]
    fn new(members: impl ExactSizeIterator<Item = bool>) -> Self {
        let mut set = ActiveSet::default();
        set.rebuild(members);
        set
    }

    /// Fills the set from a membership iterator in `O(len)`, into this
    /// instance's storage: reuse allocates nothing once it has held the
    /// longest vector seen.
    fn rebuild(&mut self, members: impl ExactSizeIterator<Item = bool>) {
        self.words.clear();
        self.words.resize(members.len().div_ceil(64), 0);
        for (i, m) in members.enumerate() {
            self.words[i / 64] |= u64::from(m) << (i % 64);
        }
        self.shift = self.words.len().max(1).ilog2().div_ceil(2).max(4);
        self.blocks.clear();
        self.blocks.extend(
            self.words
                .chunks(1 << self.shift)
                .map(|c| c.iter().map(|w| w.count_ones()).sum::<u32>()),
        );
        self.count = self.blocks.iter().map(|&c| c as usize).sum();
    }

    /// Index of the rank-`r` member (the `r`-th smallest member).
    ///
    /// Requires `r < self.count`.
    fn select(&self, mut r: usize) -> usize {
        let mut block = 0;
        while r >= self.blocks[block] as usize {
            r -= self.blocks[block] as usize;
            block += 1;
        }
        let mut w = block << self.shift;
        while r >= self.words[w].count_ones() as usize {
            r -= self.words[w].count_ones() as usize;
            w += 1;
        }
        debug_assert!(w >> self.shift == block, "rank {r} ran past block {block}");
        64 * w + select_in_word(self.words[w], r as u32) as usize
    }

    /// Removes index `i` from the set (must currently be a member).
    fn remove(&mut self, i: usize) {
        debug_assert!((self.words[i / 64] >> (i % 64)) & 1 == 1, "{i} is not a member");
        self.words[i / 64] &= !(1 << (i % 64));
        self.blocks[(i / 64) >> self.shift] -= 1;
        self.count -= 1;
    }
}

/// Position of the rank-`r` set bit of `w` (`r < w.count_ones()`),
/// branch-free: the byte holding it is the number of bytes whose
/// inclusive prefix popcount is at most `r`, compared eight at a time;
/// the bit inside that byte, the same comparison over its bits spread
/// one to a byte.
fn select_in_word(w: u64, r: u32) -> u32 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // How many bytes of `prefix` (each at most 64) are at most `r`:
    // `r` in every byte with its high bit set, less `prefix`, keeps the
    // high bit exactly there.
    let at_most = |prefix: u64, r: u32| (((r as u64 * ONES) | HIGHS) - prefix) & HIGHS;
    let pairs = w - ((w >> 1) & 0x5555_5555_5555_5555);
    let nibbles = (pairs & 0x3333_3333_3333_3333) + ((pairs >> 2) & 0x3333_3333_3333_3333);
    let bytes = (nibbles + (nibbles >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    let prefix = bytes.wrapping_mul(ONES);
    let byte = at_most(prefix, r).count_ones();
    let r = r - (((prefix << 8) >> (8 * byte)) & 0xFF) as u32;
    let spread = (((w >> (8 * byte)) & 0xFF) * ONES) & 0x8040_2010_0804_0201;
    let bits = ((spread + 0x7F7F_7F7F_7F7F_7F7F) >> 7) & ONES;
    8 * byte + at_most(bits.wrapping_mul(ONES), r).count_ones()
}

/// Reusable working storage for [`rdcs_with`]: the bitmap over the
/// fractional coordinate set. Reusing one of these across rounding calls
/// makes the steady-state pass allocation-free.
#[derive(Default)]
pub struct RdcsScratch {
    active: ActiveSet,
}

impl RdcsScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Rounds the fractional selection vector in place with RDCS.
///
/// While at least two coordinates are fractional, pick a pair `(i, j)`
/// and shift `ζ₁ = min(1−x_i, x_j)` or `ζ₂ = min(x_i, 1−x_j)` between
/// them with probabilities `ζ₂/(ζ₁+ζ₂)` and `ζ₁/(ζ₁+ζ₂)` (paper Alg. 2
/// lines 3–8). Each pass preserves `x_i + x_j` exactly and each
/// coordinate in expectation, and makes at least one of the pair
/// integral. A final lone fractional coordinate is rounded up with
/// probability equal to its value (the classic tail step; preserves the
/// expectation, moves the sum by less than 1).
///
/// `selected` is overwritten with the indices rounded to 1. Working
/// storage and output are the caller's, so the steady-state form
/// performs no heap allocation.
///
/// # Examples
///
/// ```
/// use fedl_core::rounding::{rdcs_with, RdcsScratch};
///
/// let mut rng = fedl_linalg::rng::Xoshiro256pp::seed_from_u64(7);
/// // Fractional mass sums to 2: exactly two clients get selected.
/// let mut x = vec![0.5, 0.5, 0.5, 0.5];
/// let mut selected = Vec::new();
/// rdcs_with(&mut x, &mut rng, &mut RdcsScratch::new(), &mut selected);
/// assert_eq!(selected.len(), 2);
/// assert!(x.iter().all(|&v| v == 0.0 || v == 1.0));
/// ```
pub fn rdcs_with(
    x: &mut [f64],
    rng: &mut impl Rng,
    scratch: &mut RdcsScratch,
    selected: &mut Vec<usize>,
) {
    for (i, &v) in x.iter().enumerate() {
        assert!(
            (-INT_TOL..=1.0 + INT_TOL).contains(&v),
            "selection fraction {v} at {i} outside [0,1]"
        );
    }
    // The fractional set as a rank-select bitmap: `select(r)` is
    // exactly `frac[r]` of Alg. 2's ascending re-scan, so the RNG stream
    // below is consumed identically to the transcription's.
    let active = &mut scratch.active;
    active.rebuild(x.iter().map(|&v| is_fractional(v)));
    while active.count >= 2 {
        // Randomly choose the pair (Alg. 2 line 1).
        let a = active.select(rng.gen_range(0..active.count));
        let b = loop {
            let cand = active.select(rng.gen_range(0..active.count));
            if cand != a {
                break cand;
            }
        };
        let zeta1 = (1.0 - x[a]).min(x[b]);
        let zeta2 = x[a].min(1.0 - x[b]);
        debug_assert!(zeta1 > 0.0 && zeta2 > 0.0);
        if rng.gen::<f64>() < zeta2 / (zeta1 + zeta2) {
            x[a] += zeta1;
            x[b] -= zeta1;
        } else {
            x[a] -= zeta2;
            x[b] += zeta2;
        }
        // Only the pair changed; every shift drives at least one of the
        // two to a bound (within INT_TOL), so the set shrinks each round.
        if !is_fractional(x[a]) {
            active.remove(a);
        }
        if !is_fractional(x[b]) {
            active.remove(b);
        }
    }
    // Tail: at most one fractional coordinate remains.
    if active.count == 1 {
        let i = active.select(0);
        x[i] = if rng.gen::<f64>() < x[i] { 1.0 } else { 0.0 };
    }
    // Snap numerical residue.
    for v in x.iter_mut() {
        *v = if *v > 0.5 { 1.0 } else { 0.0 };
    }
    selected.clear();
    selected.extend((0..x.len()).filter(|&i| x[i] == 1.0));
}

/// Independent rounding: each coordinate up with its own probability —
/// the strawman the paper contrasts with RDCS (no sum preservation).
pub fn independent(x: &mut [f64], rng: &mut impl Rng) -> Vec<usize> {
    for v in x.iter_mut() {
        *v = if rng.gen::<f64>() < *v { 1.0 } else { 0.0 };
    }
    (0..x.len()).filter(|&i| x[i] == 1.0).collect()
}

/// Feasibility repair after rounding (costs are heterogeneous, so only
/// `Σx` — not `Σc·x` — is preserved by RDCS):
///
/// 1. while the cohort is smaller than `n`, add the cheapest unselected
///    client;
/// 2. while the cohort cost exceeds `budget` *and* the cohort is larger
///    than `n`, drop the most expensive member.
///
/// A residual overshoot with exactly `n` members is allowed — it is the
/// violation dynamic fit charges, and the runner's `while C ≥ 0` loop
/// ends the run.
///
/// `selected` must be strictly ascending, as [`rdcs_with`] and
/// [`independent`] return it. A cohort that already has exactly `n`
/// members, or more and within budget, is what both steps would leave:
/// it is returned before the candidates are sorted by cost. Its cost is
/// summed in the same ascending order as step 2's, so the decision at
/// the budget boundary is the same bits.
pub fn repair(selected: &mut Vec<usize>, costs: &[f64], n: usize, budget: f64) {
    let k = costs.len();
    assert!(selected.iter().all(|&i| i < k), "selection index out of range");
    debug_assert!(selected.is_sorted_by(|a, b| a < b), "selection must be strictly ascending");
    let n = n.min(k).max(1);
    let count = selected.len();
    if count == n || (count > n && selected.iter().map(|&i| costs[i]).sum::<f64>() <= budget) {
        return;
    }
    repair_by_cost(selected, costs, n, budget);
}

/// Both steps of [`repair`] over the candidates sorted by cost; `n` is
/// already clamped to `1..=k`.
fn repair_by_cost(selected: &mut Vec<usize>, costs: &[f64], n: usize, budget: f64) {
    let k = costs.len();
    let mut chosen = vec![false; k];
    for &i in selected.iter() {
        chosen[i] = true;
    }
    // Grow to the participation floor, cheapest first.
    let mut by_cost: Vec<usize> = (0..k).collect();
    by_cost.sort_by(|&a, &b| costs[a].partial_cmp(&costs[b]).expect("finite costs"));
    let mut count = selected.len();
    for &i in &by_cost {
        if count >= n {
            break;
        }
        if !chosen[i] {
            chosen[i] = true;
            count += 1;
        }
    }
    // Shed cost, most expensive first, never below n.
    let mut total: f64 = (0..k).filter(|&i| chosen[i]).map(|i| costs[i]).sum();
    for &i in by_cost.iter().rev() {
        if total <= budget || count <= n {
            break;
        }
        if chosen[i] {
            chosen[i] = false;
            count -= 1;
            total -= costs[i];
        }
    }
    *selected = (0..k).filter(|&i| chosen[i]).collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_linalg::rng::rng_for;
    use std::collections::BTreeSet;

    fn rdcs(x: &mut [f64], rng: &mut impl Rng) -> Vec<usize> {
        let mut selected = Vec::new();
        rdcs_with(x, rng, &mut RdcsScratch::new(), &mut selected);
        selected
    }

    #[test]
    fn output_is_integral() {
        let mut rng = rng_for(1, 0);
        for trial in 0..50 {
            let mut x: Vec<f64> = (0..7).map(|i| ((i + trial) % 10) as f64 / 10.0).collect();
            let sel = rdcs(&mut x, &mut rng);
            assert!(x.iter().all(|&v| v == 0.0 || v == 1.0), "{x:?}");
            assert_eq!(sel.len(), x.iter().filter(|&&v| v == 1.0).count());
        }
    }

    #[test]
    fn integral_inputs_untouched() {
        let mut rng = rng_for(2, 0);
        let mut x = vec![1.0, 0.0, 1.0, 0.0];
        let sel = rdcs(&mut x, &mut rng);
        assert_eq!(x, vec![1.0, 0.0, 1.0, 0.0]);
        assert_eq!(sel, vec![0, 2]);
    }

    /// Sum preservation: the rounded count is within 1 of the fractional
    /// sum (exact when the sum of fractional parts is integral).
    #[test]
    fn sum_preserved_within_one() {
        let mut rng = rng_for(3, 0);
        for trial in 0..200u64 {
            let mut r = rng_for(trial, 99);
            let x0: Vec<f64> = (0..9).map(|_| r.gen::<f64>()).collect();
            let sum0: f64 = x0.iter().sum();
            let mut x = x0.clone();
            let sel = rdcs(&mut x, &mut rng);
            let diff = (sel.len() as f64 - sum0).abs();
            assert!(diff < 1.0 + 1e-9, "sum {sum0} rounded to {}", sel.len());
        }
    }

    /// Theorem 3: E[x_i] = x̃_i. Monte-Carlo over many runs.
    #[test]
    fn expectation_preserved() {
        let x0 = [0.15, 0.4, 0.7, 0.9, 0.25, 0.6];
        let trials = 20000;
        let mut counts = vec![0usize; x0.len()];
        let mut rng = rng_for(4, 0);
        for _ in 0..trials {
            let mut x = x0.to_vec();
            for i in rdcs(&mut x, &mut rng) {
                counts[i] += 1;
            }
        }
        for (i, (&c, &want)) in counts.iter().zip(&x0).enumerate() {
            let freq = c as f64 / trials as f64;
            assert!(
                (freq - want).abs() < 0.02,
                "coordinate {i}: empirical {freq} vs fractional {want}"
            );
        }
    }

    #[test]
    fn independent_rounding_also_preserves_expectation_but_not_sum() {
        let x0 = [0.5; 8];
        let trials = 5000;
        let mut rng = rng_for(5, 0);
        let mut sum_sq_dev = 0.0f64;
        let mut total = 0usize;
        for _ in 0..trials {
            let mut x = x0.to_vec();
            let sel = independent(&mut x, &mut rng);
            total += sel.len();
            sum_sq_dev += (sel.len() as f64 - 4.0).powi(2);
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        // Independent rounding's count variance is Binomial(8, .5) = 2;
        // RDCS would give ~0. This is the measurable difference.
        let var = sum_sq_dev / trials as f64;
        assert!(var > 1.0, "independent rounding variance {var} unexpectedly small");
    }

    #[test]
    fn rdcs_count_variance_is_tiny() {
        let x0 = [0.5; 8]; // integral sum -> exact count every time
        let mut rng = rng_for(6, 0);
        for _ in 0..200 {
            let mut x = x0.to_vec();
            let sel = rdcs(&mut x, &mut rng);
            assert_eq!(sel.len(), 4, "integral fractional mass must round exactly");
        }
    }

    #[test]
    fn active_set_selects_in_ascending_order() {
        let members = [true, false, true, true, false, false, true];
        let set = ActiveSet::new(members.iter().copied());
        assert_eq!(set.count, 4);
        assert_eq!((0..4).map(|k| set.select(k)).collect::<Vec<_>>(), vec![0, 2, 3, 6]);
        let mut set = set;
        set.remove(3);
        assert_eq!((0..3).map(|k| set.select(k)).collect::<Vec<_>>(), vec![0, 2, 6]);
    }

    #[test]
    fn select_in_word_matches_clearing_low_bits() {
        let mut r = rng_for(8, 0);
        let edges = [1, 1 << 63, u64::MAX, 0x8000_0000_0000_0001, 0x00FF_0000_0000_FF00];
        let random = (0..20_000).map(|i| match i % 3 {
            0 => r.next_u64(),
            1 => r.next_u64() & r.next_u64() & r.next_u64(),
            _ => r.next_u64() | r.next_u64(),
        });
        for w in edges.into_iter().chain(random).filter(|&w| w != 0) {
            let mut rest = w;
            for rank in 0..w.count_ones() {
                assert_eq!(select_in_word(w, rank), rest.trailing_zeros(), "{w:#x} rank {rank}");
                rest &= rest - 1;
            }
        }
    }

    /// The bitmap against a `BTreeSet` oracle under seeded rebuilds,
    /// selects and removals, at lengths on either side of word and
    /// block edges; one instance is reused throughout, growing and
    /// shrinking.
    #[test]
    fn active_set_matches_a_btreeset_oracle() {
        const LENGTHS: [usize; 11] = [0, 1, 63, 64, 65, 511, 512, 513, 4095, 4096, 4097];
        let mut set = ActiveSet::default();
        for (case, &len) in LENGTHS.iter().chain(LENGTHS.iter().rev()).enumerate() {
            let mut r = rng_for(case as u64, 0xB17);
            for density in [0.03, 0.5, 1.0] {
                let members: Vec<bool> = (0..len).map(|_| r.gen_bool(density)).collect();
                set.rebuild(members.iter().copied());
                let mut oracle: BTreeSet<usize> = (0..len).filter(|&i| members[i]).collect();
                let whole = |set: &ActiveSet, oracle: &BTreeSet<usize>| {
                    let got: Vec<usize> = (0..set.count).map(|k| set.select(k)).collect();
                    assert!(got.iter().eq(oracle), "len {len}, density {density}");
                };
                whole(&set, &oracle);
                while !oracle.is_empty() {
                    assert_eq!(set.count, oracle.len(), "len {len}, density {density}");
                    let rank = r.gen_range(0..oracle.len());
                    let i = set.select(rank);
                    assert_eq!(Some(&i), oracle.iter().nth(rank), "len {len} rank {rank}");
                    set.remove(i);
                    oracle.remove(&i);
                    if oracle.len().is_multiple_of(97) {
                        whole(&set, &oracle);
                    }
                }
                assert_eq!(set.count, 0);
            }
        }
    }

    #[test]
    fn repair_enforces_floor() {
        let costs = [3.0, 1.0, 2.0, 5.0];
        let mut sel = vec![];
        repair(&mut sel, &costs, 2, 100.0);
        assert_eq!(sel.len(), 2);
        // Cheapest two: clients 1 and 2.
        assert_eq!(sel, vec![1, 2]);
    }

    #[test]
    fn repair_sheds_cost_but_keeps_floor() {
        let costs = [3.0, 1.0, 2.0, 5.0];
        let mut sel = vec![0, 1, 2, 3]; // cost 11
        repair(&mut sel, &costs, 2, 4.0);
        let total: f64 = sel.iter().map(|&i| costs[i]).sum();
        assert!(sel.len() >= 2);
        assert!(total <= 4.0 + 1e-9, "total {total}");
    }

    #[test]
    fn repair_allows_overshoot_at_floor() {
        let costs = [10.0, 20.0];
        let mut sel = vec![0, 1];
        repair(&mut sel, &costs, 2, 5.0);
        // Cannot shed below n=2; overshoot stands.
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn repair_early_out_agrees_with_the_full_path() {
        let mut early = 0;
        for case in 0..2000u64 {
            let mut r = rng_for(case, 0x4E9A);
            let k = r.gen_range(1usize..16);
            let costs: Vec<f64> = (0..k).map(|_| r.gen_range(0.1f64..10.0)).collect();
            let sel: Vec<usize> = (0..k).filter(|_| r.gen_bool(0.6)).collect();
            let n = r.gen_range(0usize..k + 2);
            let cost: f64 = sel.iter().map(|&i| costs[i]).sum();
            // A third of the budgets sit exactly on the cohort's cost.
            let budget = match r.gen_range(0u32..3) {
                0 => cost,
                1 => cost * r.gen_range(0.5f64..1.5),
                _ => r.gen_range(0.0f64..40.0),
            };
            let mut fast = sel.clone();
            repair(&mut fast, &costs, n, budget);
            let mut full = sel.clone();
            repair_by_cost(&mut full, &costs, n.min(k).max(1), budget);
            assert_eq!(fast, full, "case {case}: costs {costs:?}, n {n}, budget {budget}");
            early += usize::from(fast == sel);
        }
        assert!(early > 500, "the early-out must be exercised, took it {early} times");
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn rdcs_rejects_out_of_range() {
        let mut x = vec![0.5, 1.5];
        let _ = rdcs(&mut x, &mut rng_for(7, 0));
    }
}
