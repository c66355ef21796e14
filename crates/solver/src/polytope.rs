//! Exact Euclidean projection onto FedL's selection polytope
//! `[0,1]^K ∩ {Σx ≥ n} ∩ {Σcₖxₖ ≤ cap}` (constraints (3a)/(3b) of the
//! paper, in the per-epoch form of eq. (6)).
//!
//! The KKT conditions of `min ½‖x − y‖²` over that set give
//! `xₖ = clamp(yₖ + λ − ν·cₖ, 0, 1)` with `λ, ν ≥ 0`, each multiplier zero
//! unless its row is tight. For fixed ν the participation multiplier
//! `λ(ν)` is the root of a non-decreasing piecewise-linear function of one
//! variable, and the spend `Σcₖxₖ` at `(λ(ν), ν)` is non-increasing and
//! piecewise linear in ν (it is the derivative of the concave dual), so
//! the projection is two nested scalar root finds. Both run semismooth
//! Newton steps — the slope of a piecewise-linear function is a count or
//! a sum over the free coordinates — inside a bisection bracket, so they
//! end after a handful of O(K) passes on ordinary inputs and after a
//! bounded number on any input. Nothing is allocated and every sum is a
//! sequential left fold, so the result does not depend on thread count.

use crate::projection::Project;

/// Relative slack within which a coupling row counts as met.
const ROW_TOL: f64 = 1e-13;

/// Newton/bisection steps allowed per scalar root find. A bisection
/// bracket halves every rejected Newton step, so 100 steps exhaust the
/// resolution of an `f64` bracket from any starting width.
const MAX_STEPS: usize = 100;

/// The multipliers of the two coupling rows at a projected point. A row
/// is active exactly when its multiplier is positive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Multipliers {
    /// Multiplier λ of the participation row `Σx ≥ n`.
    pub lambda: f64,
    /// Multiplier ν of the budget row `Σc·x ≤ cap`. Infinite on the
    /// cheapest-`n` face, where cost is minimised before distance.
    pub nu: f64,
}

/// `[0,1]^K ∩ {Σx ≥ n} ∩ {Σc·x ≤ cap}`, with an interval `[1, ρ_max]`
/// for the iteration-control variable in coordinate `K`.
///
/// Costs must be non-negative. `cap` is never below the sum of the `n`
/// smallest costs: a smaller budget is relaxed to that floor so the set
/// stays non-empty, and [`SelectionPolytope::relaxed`] says so.
#[derive(Debug, Clone, Copy)]
pub struct SelectionPolytope<'a> {
    costs: &'a [f64],
    n: f64,
    cap: f64,
    /// The `n`-th smallest cost.
    threshold: f64,
    /// `cap` is (within tolerance) the cheapest-`n` floor.
    thin: bool,
    relaxed: bool,
    rho_max: f64,
}

impl<'a> SelectionPolytope<'a> {
    /// Builds the set for participation floor `n` and remaining `budget`.
    /// `scratch` is overwritten (it holds a partially sorted copy of the
    /// costs); reusing it keeps construction allocation-free.
    ///
    /// # Panics
    /// Panics unless `1 ≤ n ≤ costs.len()` and `rho_max ≥ 1`.
    pub fn new(
        costs: &'a [f64],
        n: usize,
        budget: f64,
        rho_max: f64,
        scratch: &mut Vec<f64>,
    ) -> Self {
        assert!(n >= 1 && n <= costs.len(), "participation floor {n} outside 1..={}", costs.len());
        assert!(rho_max >= 1.0, "rho_max below 1");
        scratch.clear();
        scratch.extend_from_slice(costs);
        scratch.select_nth_unstable_by(n - 1, f64::total_cmp);
        let threshold = scratch[n - 1];
        // Ascending order fixes the rounding of the floor whatever order
        // the selection left the cheapest n in.
        scratch[..n].sort_unstable_by(f64::total_cmp);
        let floor: f64 = scratch[..n].iter().sum();
        let relaxed = budget.is_nan() || budget < floor;
        let cap = if relaxed { floor } else { budget };
        let thin = cap - floor <= ROW_TOL * (1.0 + floor.abs());
        Self { costs, n: n as f64, cap, threshold, thin, relaxed, rho_max }
    }

    /// The budget row's right-hand side after relaxation.
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// `true` when the budget could not cover the `n` cheapest clients
    /// and was raised to their sum.
    pub fn relaxed(&self) -> bool {
        self.relaxed
    }

    /// Projects the selection vector `x` (length `K`) in place and
    /// returns the multipliers of the two rows.
    pub fn project_selection(&self, x: &mut [f64]) -> Multipliers {
        assert_eq!(x.len(), self.costs.len(), "selection arity");
        let tol = ROW_TOL * (1.0 + self.cap.abs());
        let (mut lambda, mut over, mut slope) = self.spend(x, 0.0);
        let mut nu = 0.0;
        if over > tol {
            if self.thin {
                return self.cheapest_face(x);
            }
            // Smallest ν with spend(ν) ≤ cap: `lo` overspends, `hi` does
            // not, and `met` is λ(hi).
            let (mut lo, mut hi) = (0.0, f64::INFINITY);
            let mut met = None;
            for _ in 0..MAX_STEPS {
                let newton = nu + over / slope;
                nu = if newton > lo && newton < hi {
                    newton
                } else if hi.is_finite() {
                    0.5 * (lo + hi)
                } else {
                    (2.0 * lo).max(1.0)
                };
                (lambda, over, slope) = self.spend(x, nu);
                if over > tol {
                    lo = nu;
                } else {
                    (hi, met) = (nu, Some(lambda));
                    if over >= -tol {
                        break;
                    }
                }
                if hi.is_finite() && hi - lo <= f64::EPSILON * hi {
                    break;
                }
            }
            // `None` is unreachable for finite inputs short of ν
            // overflowing: take the face every ν → ∞ path ends on.
            let Some(at_hi) = met else { return self.cheapest_face(x) };
            (nu, lambda) = (hi, at_hi);
        }
        for (xk, &c) in x.iter_mut().zip(self.costs) {
            *xk = (*xk - nu * c + lambda).clamp(0.0, 1.0);
        }
        Multipliers { lambda, nu }
    }

    /// For budget multiplier `nu`: the participation multiplier `λ(ν)`,
    /// the overspend `Σc·x − cap` at `(λ(ν), ν)`, and minus its slope in
    /// ν (`Σ_F c² − (Σ_F c)²/|F|` over the free coordinates `F` while the
    /// participation row holds them to a fixed sum, `Σ_F c²` otherwise).
    fn spend(&self, y: &[f64], nu: f64) -> (f64, f64, f64) {
        let c = self.costs;
        let lambda = lift(|| y.iter().zip(c).map(|(y, c)| y - nu * c), self.n, false);
        let (mut cost, mut free, mut s1, mut s2) = (0.0, 0.0, 0.0, 0.0);
        for (y, &c) in y.iter().zip(c) {
            let w = y - nu * c + lambda;
            cost += c * w.clamp(0.0, 1.0);
            if w > 0.0 && w < 1.0 {
                free += 1.0;
                s1 += c;
                s2 += c * c;
            }
        }
        let slope = if lambda > 0.0 && free > 0.0 { s2 - s1 * s1 / free } else { s2 };
        (lambda, cost - self.cap, slope)
    }

    /// Projection onto the face `Σc·x = ` cheapest-`n` sum: every client
    /// cheaper than the `n`-th smallest cost at 1, every dearer one at 0,
    /// and the clients tied at that cost sharing what is left of `n`
    /// (exactly, since more would overspend — unless the tie is at cost
    /// zero, where more is free).
    fn cheapest_face(&self, x: &mut [f64]) -> Multipliers {
        let (c, t) = (self.costs, self.threshold);
        let cheaper = c.iter().filter(|&&c| c < t).count() as f64;
        let tied = || x.iter().zip(c).filter(|(_, &c)| c == t).map(|(y, _)| *y);
        let lambda = lift(tied, self.n - cheaper, t > 0.0);
        for (xk, &c) in x.iter_mut().zip(c) {
            *xk = if c < t {
                1.0
            } else if c > t {
                0.0
            } else {
                (*xk + lambda).clamp(0.0, 1.0)
            };
        }
        Multipliers { lambda: f64::INFINITY, nu: f64::INFINITY }
    }
}

/// `Σ clamp(wₖ + λ, 0, 1)` and the number of coordinates strictly inside
/// the box, which is the slope of that sum in λ.
fn mass(w: impl Iterator<Item = f64>, lambda: f64) -> (f64, f64) {
    let (mut sum, mut free) = (0.0, 0.0);
    for wk in w {
        let v = wk + lambda;
        sum += v.clamp(0.0, 1.0);
        if v > 0.0 && v < 1.0 {
            free += 1.0;
        }
    }
    (sum, free)
}

/// The λ that lifts `Σ clamp(wₖ + λ, 0, 1)` to `target` (at most the
/// number of coordinates): the root when `signed`, and otherwise the
/// smallest `λ ≥ 0` reaching at least `target`, which is 0 when the sum
/// is already there.
fn lift<I: Iterator<Item = f64>>(w: impl Fn() -> I, target: f64, signed: bool) -> f64 {
    let (mut count, mut min_w, mut max_w) = (0.0, f64::INFINITY, f64::NEG_INFINITY);
    let (mut sum, mut free) = mass(
        w().inspect(|&wk| {
            count += 1.0;
            min_w = min_w.min(wk);
            max_w = max_w.max(wk);
        }),
        0.0,
    );
    let tol = ROW_TOL * (1.0 + target);
    let mut gap = sum - target;
    if gap.abs() <= tol || (gap > 0.0 && !signed) {
        return 0.0;
    }
    // Everything is at 1 from λ = 1 − min w on, and at 0 up to λ = −max w.
    // The first is the answer when every coordinate is needed; otherwise
    // neither end is a root, so a Newton step onto one is rejected below
    // (accepting it lets Newton cycle between two kinks).
    if target >= count {
        return 1.0 - min_w;
    }
    let (mut lo, mut hi) = if gap < 0.0 { (0.0, 1.0 - min_w) } else { (-max_w, 0.0) };
    let mut lambda = 0.0;
    for _ in 0..MAX_STEPS {
        let newton = lambda - gap / free;
        lambda = if newton > lo && newton < hi { newton } else { 0.5 * (lo + hi) };
        (sum, free) = mass(w(), lambda);
        gap = sum - target;
        if gap.abs() <= tol {
            return lambda;
        }
        if gap < 0.0 {
            lo = lambda;
        } else {
            hi = lambda;
        }
        if hi - lo <= f64::EPSILON * hi.abs().max(lo.abs()) {
            break;
        }
    }
    hi
}

impl Project for SelectionPolytope<'_> {
    fn project(&self, v: &mut [f64]) {
        let k = self.costs.len();
        assert_eq!(v.len(), k + 1, "decision arity");
        self.project_selection(&mut v[..k]);
        v[k] = v[k].clamp(1.0, self.rho_max);
    }

    fn contains(&self, v: &[f64], tol: f64) -> bool {
        let k = self.costs.len();
        if v.len() != k + 1 {
            return false;
        }
        let (x, rho) = (&v[..k], v[k]);
        let sum: f64 = x.iter().sum();
        let cost: f64 = x.iter().zip(self.costs).map(|(x, c)| x * c).sum();
        x.iter().all(|&x| x >= -tol && x <= 1.0 + tol)
            && rho >= 1.0 - tol
            && rho <= self.rho_max + tol
            && sum >= self.n - tol * (1.0 + self.n)
            && cost <= self.cap + tol * (1.0 + self.cap.abs())
    }

    fn dim(&self) -> usize {
        self.costs.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set<'a>(costs: &'a [f64], n: usize, budget: f64) -> SelectionPolytope<'a> {
        SelectionPolytope::new(costs, n, budget, 8.0, &mut Vec::new())
    }

    #[test]
    fn interior_point_is_fixed_and_no_row_is_active() {
        let costs = [1.0, 2.0, 3.0];
        let mut x = vec![0.5, 0.6, 0.2];
        let m = set(&costs, 1, 10.0).project_selection(&mut x);
        assert_eq!(x, vec![0.5, 0.6, 0.2]);
        assert_eq!(m, Multipliers { lambda: 0.0, nu: 0.0 });
    }

    #[test]
    fn participation_row_lifts_uniformly() {
        // Σ = 0.6 < 2: every free coordinate rises by the same λ = 1.4/3.
        let costs = [1.0; 3];
        let mut x = vec![0.2, 0.4, 0.0];
        let m = set(&costs, 2, 10.0).project_selection(&mut x);
        let lift = 1.4 / 3.0;
        assert!((m.lambda - lift).abs() < 1e-12, "{m:?}");
        assert!((x[0] - 0.2 - lift).abs() < 1e-12 && (x[2] - lift).abs() < 1e-12, "{x:?}");
        assert!(m.lambda > 0.0 && m.nu == 0.0);
    }

    #[test]
    fn budget_row_matches_the_known_two_set_case() {
        // (1,1) onto [0,1]² ∩ {x+y ≤ 1} is (0.5, 0.5); (3, 0.2) is (1, 0).
        let costs = [1.0, 1.0];
        let s = set(&costs, 1, 1.0);
        let mut x = vec![1.0, 1.0];
        let m = s.project_selection(&mut x);
        assert!((x[0] - 0.5).abs() < 1e-12 && (x[1] - 0.5).abs() < 1e-12, "{x:?}");
        assert!(m.nu > 0.0);
        let mut x = vec![3.0, 0.2];
        s.project_selection(&mut x);
        assert!((x[0] - 1.0).abs() < 1e-12 && x[1].abs() < 1e-12, "{x:?}");
    }

    #[test]
    fn both_rows_active() {
        // Σx ≥ 2 and 2x₀ + x₁ + 0.5x₂ ≤ 2 from a point that prefers the
        // dear client: both rows end tight.
        let costs = [2.0, 1.0, 0.5];
        let s = set(&costs, 2, 2.0);
        let mut x = vec![0.9, 0.1, 0.1];
        let m = s.project_selection(&mut x);
        let sum: f64 = x.iter().sum();
        let cost: f64 = x.iter().zip(&costs).map(|(x, c)| x * c).sum();
        assert!(m.lambda > 0.0 && m.nu > 0.0, "{m:?}");
        assert!((sum - 2.0).abs() < 1e-12 && (cost - 2.0).abs() < 1e-12, "{x:?}");
    }

    #[test]
    fn impossible_budget_is_relaxed_to_the_cheapest_n() {
        let costs = [1.0, 2.0, 6.0, 0.5];
        let s = set(&costs, 2, 0.1);
        assert!(s.relaxed());
        assert_eq!(s.cap(), 1.5);
        let mut x = vec![0.5; 4];
        let m = s.project_selection(&mut x);
        assert_eq!(x, vec![1.0, 0.0, 0.0, 1.0]);
        assert!(m.nu.is_infinite());
    }

    #[test]
    fn trait_projection_clamps_rho_in_the_last_coordinate() {
        let costs = [1.0, 1.0];
        let s = set(&costs, 1, 10.0);
        assert_eq!(s.dim(), 3);
        let mut v = vec![1.5, -0.5, 11.0];
        s.project(&mut v);
        assert_eq!(v, vec![1.0, 0.0, 8.0]);
        assert!(s.contains(&v, 1e-12));
        assert!(!s.contains(&[0.2, 0.2, 2.0], 1e-9), "Σx < n must be outside");
    }

    #[test]
    fn nan_cost_does_not_panic() {
        let costs = [1.0, f64::NAN, 2.0];
        let s = set(&costs, 1, 5.0);
        let mut x = vec![0.5; 3];
        s.project_selection(&mut x);
    }

    #[test]
    #[should_panic(expected = "participation floor")]
    fn floor_above_population_rejected() {
        let _ = set(&[1.0, 1.0], 3, 5.0);
    }
}
