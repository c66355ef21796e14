//! Online rounding: the randomized dependent client selection algorithm
//! RDCS (paper Alg. 2) plus the independent-rounding baseline and the
//! feasibility repair pass.
//!
//! [`rdcs_with`] tracks the fractional coordinate set in a Fenwick
//! order-statistics tree, so one rounding pass over `K` candidates is
//! `O(K log K)` instead of the `O(K²)` re-scan of a direct transcription
//! of Alg. 2 — the difference between microseconds and minutes at the
//! 1M-client scale tier (docs/SCALE.md). The transcription lives on as a
//! test oracle (`tests/oracle/rdcs.rs`), and `tests/columnar_parity.rs`
//! holds the two to identical RNG consumption: same draws, same
//! outputs, bit for bit.

use fedl_linalg::rng::Rng;

/// Tolerance below/above which a coordinate counts as integral.
const INT_TOL: f64 = 1e-9;

fn is_fractional(v: f64) -> bool {
    v > INT_TOL && v < 1.0 - INT_TOL
}

/// Fenwick (binary-indexed) tree over a 0/1 membership vector,
/// supporting `O(log n)` rank-`k` selection and removal. Ranks and
/// returned indices are 0-based.
#[derive(Default)]
struct ActiveSet {
    tree: Vec<u32>,
    len: usize,
    count: usize,
    /// `len.next_power_of_two()`, the starting stride of `select`.
    top: usize,
}

impl ActiveSet {
    /// Builds the tree in `O(n)` from a membership iterator.
    #[cfg(test)]
    fn new(members: impl ExactSizeIterator<Item = bool>) -> Self {
        let mut set = ActiveSet::default();
        set.rebuild(members);
        set
    }

    /// Builds the tree into this instance's existing storage; reusing
    /// an `ActiveSet` across calls performs no allocation once the tree
    /// capacity has grown to the largest vector seen.
    fn rebuild(&mut self, members: impl ExactSizeIterator<Item = bool>) {
        let len = members.len();
        let tree = &mut self.tree;
        tree.clear();
        tree.resize(len + 1, 0);
        let mut count = 0usize;
        for (i, m) in members.enumerate() {
            if m {
                tree[i + 1] = 1;
                count += 1;
            }
        }
        for i in 1..=len {
            let parent = i + (i & i.wrapping_neg());
            if parent <= len {
                tree[parent] += tree[i];
            }
        }
        self.len = len;
        self.count = count;
        self.top = len.next_power_of_two();
    }

    /// Index of the rank-`k` member (the `k`-th smallest active index).
    ///
    /// Requires `k < self.count`.
    fn select(&self, k: usize) -> usize {
        let mut pos = 0usize;
        let mut remaining = k + 1;
        let mut step = self.top;
        while step > 0 {
            let next = pos + step;
            if next <= self.len && (self.tree[next] as usize) < remaining {
                remaining -= self.tree[next] as usize;
                pos = next;
            }
            step >>= 1;
        }
        // `pos` 1-based is the predecessor of the answer, so 0-based the
        // answer is exactly `pos`.
        pos
    }

    /// Removes index `i` from the set (must currently be a member).
    fn remove(&mut self, i: usize) {
        let mut j = i + 1;
        while j <= self.len {
            self.tree[j] -= 1;
            j += j & j.wrapping_neg();
        }
        self.count -= 1;
    }
}

/// Reusable working storage for [`rdcs_with`]: the Fenwick tree over the
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
    // The fractional set as an order-statistics tree: `select(r)` is
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
