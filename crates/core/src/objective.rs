//! The one-shot decision problem `P_{3,t}` and the modified descent step
//! (paper eqs. (6)–(8)).
//!
//! Decision vector `z = [x₁ … x_K, ρ]` over the available clients `E`,
//! where `ρ = 1/(1−η_t)` is the iteration-control variable. All
//! coefficients come from epoch-`t` *observations* (0-lookahead), except
//! costs and availability, which are known at rental time.
//!
//! For a fixed ρ the objective of (8) is separable in x,
//! `Σₖ aₖ(ρ)·xₖ + (xₖ − x̄ₖ)²/2β` with `aₖ(ρ) = ρ̄τₖ − bonusₖ + ρ·vₖ` and
//! `vₖ = μ⁰gₖ/|E| + μₖη̂ₖ`, so its minimiser `x*(ρ)` is one Euclidean
//! projection of `x̄ − β·a(ρ)` onto the selection polytope; for a fixed x
//! the minimising ρ is a clamped closed form. [`OneShot::solve`] therefore
//! searches the one variable ρ around that projection instead of
//! descending all `K + 1` (DESIGN.md substitution 3, docs/PERF.md).

use fedl_linalg::par::{det_dot, det_sum};
use fedl_solver::SelectionPolytope;

/// Tolerance on `β·φ′(ρ)`, the residual of ρ's clamped closed form.
const RHO_TOL: f64 = 1e-12;

/// Refinement steps allowed to the convex root find: with the two end
/// evaluations a convex solve never exceeds 64 projections.
const CONVEX_STEPS: u32 = 62;

/// Intervals of the ρ grid scanned when (8) is not jointly convex.
const SCAN_GRID: usize = 64;

/// Projections a scan-and-refine solve may spend in all.
const SCAN_BUDGET: u32 = 256;

/// Fractional decision `Φ̃ = (x̃, ρ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FracDecision {
    /// Fractional selection per available client, aligned with
    /// [`OneShot::ids`].
    pub x: Vec<f64>,
    /// Iteration-control variable ρ ≥ 1 (`l_t = ⌈ρ⌉`).
    pub rho: f64,
}

impl FracDecision {
    /// Number of iterations implied by ρ (the paper normalizes
    /// `O(log 1/θ₀)` to 1, so `l_t = ⌈1/(1−η_t)⌉ = ⌈ρ⌉`).
    pub fn iterations(&self) -> usize {
        (self.rho.ceil() as usize).max(1)
    }

    /// The maximal local accuracy `η_t = 1 − 1/ρ` this ρ admits.
    pub fn eta(&self) -> f64 {
        1.0 - 1.0 / self.rho.max(1.0)
    }
}

/// Which coupling rows of the feasible set are tight at the solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActiveRows {
    /// The participation row `Σx ≥ n`.
    pub participation: bool,
    /// The budget row `Σc·x ≤ cap`.
    pub budget: bool,
}

/// What one [`OneShot::solve`] did and where it ended.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveOutcome {
    /// Projections onto the selection polytope (each one `x*(ρ)`).
    pub projections: u32,
    /// Steps of the search over ρ after its first evaluation.
    pub outer_iters: u32,
    /// `β‖v‖ < 1`: (8) is strictly convex and ρ is a monotone root.
    /// Otherwise `[1, ρ_max]` was scanned for the global minimiser.
    pub convex: bool,
    /// Rows tight at the returned point.
    pub active: ActiveRows,
    /// The remaining budget could not cover the `n` cheapest clients and
    /// was relaxed to their sum (the overshoot is charged to dynamic fit).
    pub budget_relaxed: bool,
    /// The objective of (8) at the returned point.
    pub objective: f64,
}

/// Reusable buffers of [`OneShot::solve`].
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    /// `x̄ − β·(ρ̄τ − bonus)`: the projected point at ρ = 0.
    base: Vec<f64>,
    /// `vₖ = μ⁰gₖ/|E| + μₖη̂ₖ`: how the projected point moves with ρ.
    v: Vec<f64>,
    /// Partially sorted costs (the cheapest-`n` floor).
    sorted: Vec<f64>,
}

/// Finds a client's coordinate among `ids`: by binary search when they
/// ascend (every driver builds the available list so), linearly otherwise.
pub(crate) fn locator(ids: &[usize]) -> impl Fn(usize) -> Option<usize> + '_ {
    let ascending = ids.windows(2).all(|w| w[0] < w[1]);
    move |id| {
        if ascending {
            ids.binary_search(&id).ok()
        } else {
            ids.iter().position(|&other| other == id)
        }
    }
}

/// Coefficients of one epoch's decision problem.
#[derive(Debug, Clone, Default)]
pub struct OneShot {
    /// Available client ids `E` (decision coordinates map 1:1 to these).
    pub ids: Vec<usize>,
    /// Per-iteration latency estimates τ_k (from the last observation).
    pub tau: Vec<f64>,
    /// Rental costs `c_{t,k}` (known at decision time).
    pub costs: Vec<f64>,
    /// Observed local convergence accuracies η̂_k ∈ [0, 1).
    pub eta: Vec<f64>,
    /// Observed loss-impact coefficients `g_k = J·d_k` (negative is
    /// good: selecting k reduced the global loss).
    pub g: Vec<f64>,
    /// Per-client selection bonus subtracted from the descent objective
    /// (`−Σ bonus_k·x_k`). Zeros reproduce the paper's FedL; the
    /// fairness-aware extension (the paper's stated future work) sets
    /// `bonus_k ∝ 1/(1 + times-selected)` so starved clients get a
    /// standing discount. Does not enter `f_t` (it is not latency).
    pub bonus: Vec<f64>,
    /// Last observed global loss `F_t(w)` over all clients.
    pub loss_all: f64,
    /// Desired global loss upper bound θ (constraint (3d)).
    pub theta: f64,
    /// Minimum participants `n` (constraint (3b)).
    pub min_participants: usize,
    /// Remaining long-term budget (constraint (3a), cumulative form).
    pub budget: f64,
    /// Upper bound for ρ (keeps `l_t` practical).
    pub rho_max: f64,
}

impl OneShot {
    /// Number of decision coordinates (K clients + ρ).
    pub fn dim(&self) -> usize {
        self.ids.len() + 1
    }

    fn check(&self) {
        let k = self.ids.len();
        assert!(k > 0, "one-shot problem with no available clients");
        assert_eq!(self.tau.len(), k, "tau arity");
        assert_eq!(self.costs.len(), k, "costs arity");
        assert_eq!(self.eta.len(), k, "eta arity");
        assert_eq!(self.g.len(), k, "g arity");
        assert_eq!(self.bonus.len(), k, "bonus arity");
        assert!(self.rho_max >= 1.0, "rho_max below 1");
        assert!(self.theta > 0.0, "theta must be positive");
    }

    /// Effective participation floor: `min(n, K)` — the paper's
    /// constraint assumes `n ≤ |E_t|`; when fewer clients are available
    /// the floor drops to what exists.
    pub fn effective_n(&self) -> usize {
        self.min_participants.min(self.ids.len()).max(1)
    }

    /// The constraint vector `h_t(z) = [h⁰, h¹ … h^K]` (paper §4.2):
    /// `h⁰ = F_t + ρ·Σ x_k g_k/|E| − θ` (linearized global-convergence
    /// constraint — the epoch runs `l_t = ⌈ρ⌉` iterations, each moving
    /// the loss by the observed per-iteration impact `g_k = J·d_k`, so
    /// the first-order loss model scales with ρ) and
    /// `h^k = η̂_k·x_k·ρ − ρ + 1` (local convergence). Written into a
    /// caller-owned vector (cleared first); steady-state reuse performs
    /// no allocation.
    pub fn h_value_into(&self, x: &[f64], rho: f64, h: &mut Vec<f64>) {
        self.check();
        assert_eq!(x.len(), self.ids.len(), "x arity");
        let avail = self.ids.len() as f64;
        h.clear();
        h.reserve(self.dim());
        let mix = det_dot(x, &self.g);
        h.push(self.loss_all + rho * mix / avail - self.theta);
        for (xi, ei) in x.iter().zip(&self.eta) {
            h.push(ei * xi * rho - rho + 1.0);
        }
    }

    /// Overwrites `self` with `other`, reusing the existing vector
    /// buffers (a `clone_from` that actually recycles capacity — the
    /// derived `Clone` would reallocate).
    pub fn copy_from(&mut self, other: &OneShot) {
        self.ids.clone_from(&other.ids);
        self.tau.clone_from(&other.tau);
        self.costs.clone_from(&other.costs);
        self.eta.clone_from(&other.eta);
        self.g.clone_from(&other.g);
        self.bonus.clone_from(&other.bonus);
        self.loss_all = other.loss_all;
        self.theta = other.theta;
        self.min_participants = other.min_participants;
        self.budget = other.budget;
        self.rho_max = other.rho_max;
    }

    /// The (latency) objective `f_t(z) = ρ·Σ x_k·τ_k` (paper §4.2 — the
    /// sum upper-bounds the max via eq. (4)).
    pub fn f_value(&self, x: &[f64], rho: f64) -> f64 {
        assert_eq!(x.len(), self.tau.len(), "x arity");
        rho * det_dot(x, &self.tau)
    }

    /// Builds the feasible set
    /// `{x ∈ [0,1]^K, ρ ∈ [1, ρ_max]} ∩ {Σx ≥ n} ∩ {Σc·x ≤ budget}`.
    ///
    /// If the remaining budget cannot cover the `n` cheapest clients the
    /// budget row is relaxed to that minimum so the set stays non-empty
    /// (the overshoot is charged to dynamic fit; the runner's
    /// `while C ≥ 0` loop then stops the FL process).
    pub fn feasible_set(&self) -> SelectionPolytope<'_> {
        self.feasible_set_with(&mut Vec::new())
    }

    pub(crate) fn feasible_set_with(&self, sorted: &mut Vec<f64>) -> SelectionPolytope<'_> {
        self.check();
        SelectionPolytope::new(&self.costs, self.effective_n(), self.budget, self.rho_max, sorted)
    }

    /// The objective of the modified descent step (paper eq. (8)) at
    /// `(x, rho)`, anchored at `(x_prev, rho_prev)`:
    ///
    /// ```text
    /// ∇f_t(z_prev)·(z − z_prev) + μᵀ h_t(z) + ‖z − z_prev‖²/(2β) − bonus·x
    /// ```
    ///
    /// `mu` is `[μ⁰, μ¹ … μ^K]` aligned with [`OneShot::h_value_into`].
    pub fn descent_objective(
        &self,
        x_prev: &[f64],
        rho_prev: f64,
        mu: &[f64],
        beta: f64,
        x: &[f64],
        rho: f64,
    ) -> f64 {
        let k = self.ids.len();
        let rho_bar = rho_prev.clamp(1.0, self.rho_max);
        let lin = det_sum(0.0, k, |i| rho_bar * self.tau[i] * (x[i] - x_prev[i]))
            + det_dot(x_prev, &self.tau) * (rho - rho_bar);
        let head = mu[0] * (self.loss_all + rho * det_dot(x, &self.g) / k as f64 - self.theta);
        let dual = det_sum(head, k, |i| mu[1 + i] * (self.eta[i] * x[i] * rho - rho + 1.0));
        let moved = det_sum(0.0, k, |i| (x[i] - x_prev[i]) * (x[i] - x_prev[i]));
        let prox = (moved + (rho - rho_bar) * (rho - rho_bar)) / (2.0 * beta);
        lin + dual + prox - det_dot(x, &self.bonus)
    }

    /// Solves the modified descent step (paper eq. (8)) from the anchor
    /// `prev` under multipliers `mu` and step size `beta`; see
    /// [`OneShot::solve`].
    pub fn descend(&self, prev: &FracDecision, mu: &[f64], beta: f64) -> FracDecision {
        let mut out = FracDecision { x: Vec::new(), rho: 1.0 };
        self.solve(&prev.x, prev.rho, mu, beta, &mut SolveScratch::default(), &mut out);
        out
    }

    /// Minimises [`OneShot::descent_objective`] over the feasible set into
    /// `out`, allocating nothing once `scratch` and `out.x` are warm.
    ///
    /// With `x*(ρ)` the projection described in the module docs,
    /// `φ(ρ) = min_x Φ(x, ρ)` is differentiable with
    /// `β·φ′(ρ) = ρ − ρ̄ + β·(Σx̄τ + v·x*(ρ) − Σμₖ)`, whose root (clamped to
    /// `[1, ρ_max]`) is ρ's closed form at `x*(ρ)`. When `β‖v‖ < 1` the
    /// joint problem is strictly convex, `β·φ′` is strictly increasing
    /// (the projection is non-expansive, so `v·x*(ρ)` falls no faster than
    /// `β‖v‖²`), and a bracketed secant search finds its one root.
    /// Otherwise φ can have several local minima: a grid over
    /// `[1, ρ_max]` brackets every descending-to-ascending sign change of
    /// φ′, each bracket is refined the same way, and the candidate with
    /// the lowest φ (end points included) wins. Every reduction is
    /// sequential or a fixed-chunk `det_*` fold, so the result does not
    /// depend on thread count.
    pub fn solve(
        &self,
        x_prev: &[f64],
        rho_prev: f64,
        mu: &[f64],
        beta: f64,
        scratch: &mut SolveScratch,
        out: &mut FracDecision,
    ) -> SolveOutcome {
        let k = self.ids.len();
        let set = self.feasible_set_with(&mut scratch.sorted);
        assert_eq!(x_prev.len(), k, "anchor arity");
        assert_eq!(mu.len(), k + 1, "multiplier arity");
        assert!(beta > 0.0, "non-positive step size");
        assert!(mu.iter().all(|&m| m >= 0.0), "negative multiplier");

        let rho_bar = rho_prev.clamp(1.0, self.rho_max);
        let (avail, mu0) = (k as f64, mu[0]);
        let v = &mut scratch.v;
        v.clear();
        v.extend((0..k).map(|i| mu0 * self.g[i] / avail + mu[1 + i] * self.eta[i]));
        let base = &mut scratch.base;
        base.clear();
        base.extend((0..k).map(|i| x_prev[i] - beta * (rho_bar * self.tau[i] - self.bonus[i])));
        let (v, base) = (&*v, &*base);
        // Σx̄τ − Σμₖ: the part of ∂Φ/∂ρ that depends on neither x nor ρ.
        let pull = det_dot(x_prev, &self.tau) - det_sum(0.0, k, |i| mu[1 + i]);

        let x = &mut out.x;
        x.clear();
        x.resize(k, 0.0);
        let mut outcome = SolveOutcome {
            convex: beta * det_dot(v, v).sqrt() < 1.0,
            budget_relaxed: set.relaxed(),
            ..Default::default()
        };
        // β·φ′(ρ), leaving x = x*(ρ) and the rows active there.
        let slope_at = |rho: f64, x: &mut [f64], outcome: &mut SolveOutcome| {
            for i in 0..k {
                x[i] = base[i] - beta * rho * v[i];
            }
            let rows = set.project_selection(x);
            outcome.projections += 1;
            outcome.active = ActiveRows { participation: rows.lambda > 0.0, budget: rows.nu > 0.0 };
            rho - rho_bar + beta * (pull + det_dot(x, v))
        };
        let phi = |x: &[f64], rho: f64| self.descent_objective(x_prev, rho_bar, mu, beta, x, rho);

        let (lo, hi) = (1.0, self.rho_max);
        let mut rho = lo;
        let at_lo = slope_at(lo, x, &mut outcome);
        if outcome.convex {
            if at_lo < 0.0 && hi > lo {
                let at_hi = slope_at(hi, x, &mut outcome);
                rho = if at_hi <= 0.0 {
                    hi
                } else {
                    let mut eval = |rho: f64| slope_at(rho, x, &mut outcome);
                    refine(&mut eval, (lo, at_lo), (hi, at_hi), CONVEX_STEPS)
                };
            }
        } else if hi > lo {
            // Candidates `(φ, ρ)`: an end point where φ does not descend
            // into the interval, and the root inside every grid bracket
            // where φ′ turns from negative to non-negative.
            let step = (hi - lo) / SCAN_GRID as f64;
            let node = |i: usize| if i == SCAN_GRID { hi } else { lo + step * i as f64 };
            let lower = |a: (f64, f64), b: (f64, f64)| if b.0 < a.0 { b } else { a };
            let mut slopes = [at_lo; SCAN_GRID + 1];
            let mut best = (if at_lo >= 0.0 { phi(x, lo) } else { f64::INFINITY }, lo);
            for (i, slope) in slopes.iter_mut().enumerate().skip(1) {
                *slope = slope_at(node(i), x, &mut outcome);
            }
            if slopes[SCAN_GRID] <= 0.0 {
                best = lower(best, (phi(x, hi), hi));
            }
            rho = hi;
            let turns = |i: &usize| slopes[*i] < 0.0 && slopes[i + 1] >= 0.0;
            let brackets = (0..SCAN_GRID).filter(turns).count() as u32;
            let steps = (SCAN_BUDGET - outcome.projections - 1) / brackets.max(1);
            for i in (0..SCAN_GRID).filter(turns) {
                let mut eval = |rho: f64| slope_at(rho, x, &mut outcome);
                rho = refine(&mut eval, (node(i), slopes[i]), (node(i + 1), slopes[i + 1]), steps);
                best = lower(best, (phi(x, rho), rho));
            }
            // `x` is x*(ρ) of the last evaluation: restore the winner's.
            if best.1 != rho {
                rho = best.1;
                slope_at(rho, x, &mut outcome);
            }
        }
        outcome.outer_iters = outcome.projections - 1;
        outcome.objective = phi(x, rho);
        out.rho = rho;
        outcome
    }
}

/// Root of a function negative at `a.0` and non-negative at `b.0` (each
/// given with its value) by the Illinois secant rule inside the shrinking
/// bracket. Returns the last point evaluated, so whatever `eval` leaves
/// behind belongs to the returned root.
fn refine(
    eval: &mut impl FnMut(f64) -> f64,
    mut a: (f64, f64),
    mut b: (f64, f64),
    steps: u32,
) -> f64 {
    let mut at = a.0;
    let mut last_side = 0i8;
    for _ in 0..steps {
        let secant = (a.0 * b.1 - b.0 * a.1) / (b.1 - a.1);
        at = if secant > a.0 && secant < b.0 { secant } else { 0.5 * (a.0 + b.0) };
        let value = eval(at);
        if value.abs() <= RHO_TOL || b.0 - a.0 <= 4.0 * f64::EPSILON * b.0 {
            break;
        }
        // Halve the retained end's value when the same end moves twice
        // running, or a kink next to the root pins the secant to one side.
        if value < 0.0 {
            a = (at, value);
            if last_side == -1 {
                b.1 *= 0.5;
            }
            last_side = -1;
        } else {
            b = (at, value);
            if last_side == 1 {
                a.1 *= 0.5;
            }
            last_side = 1;
        }
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> OneShot {
        OneShot {
            ids: vec![3, 7, 9, 12],
            tau: vec![0.5, 2.0, 1.0, 4.0],
            costs: vec![1.0, 2.0, 6.0, 0.5],
            eta: vec![0.2, 0.8, 0.5, 0.3],
            g: vec![-1.0, -0.2, -0.6, -0.1],
            bonus: vec![0.0; 4],
            loss_all: 2.0,
            theta: 0.7,
            min_participants: 2,
            budget: 100.0,
            rho_max: 10.0,
        }
    }

    fn anchor() -> FracDecision {
        FracDecision { x: vec![0.5; 4], rho: 2.0 }
    }

    fn h_value(p: &OneShot, x: &[f64], rho: f64) -> Vec<f64> {
        let mut h = Vec::new();
        p.h_value_into(x, rho, &mut h);
        h
    }

    #[test]
    fn iterations_and_eta_mapping() {
        let d = FracDecision { x: vec![], rho: 3.2 };
        assert_eq!(d.iterations(), 4);
        assert!((d.eta() - (1.0 - 1.0 / 3.2)).abs() < 1e-12);
        let unit = FracDecision { x: vec![], rho: 1.0 };
        assert_eq!(unit.iterations(), 1);
        assert_eq!(unit.eta(), 0.0);
    }

    #[test]
    fn h_value_signs() {
        let p = problem();
        // All x = 0: h0 = loss - theta > 0 (violated); h^k = -rho + 1 <= 0.
        let h = h_value(&p, &[0.0; 4], 2.0);
        assert!(h[0] > 0.0);
        for &v in &h[1..] {
            assert!((v - (-1.0)).abs() < 1e-12);
        }
        // Selecting loss-reducing clients lowers h0.
        let h_sel = h_value(&p, &[1.0; 4], 2.0);
        assert!(h_sel[0] < h[0]);
        // h^k = eta*rho - rho + 1 when x = 1.
        assert!((h_sel[1] - (0.2 * 2.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn descent_output_is_feasible() {
        let p = problem();
        let mu = vec![0.5; 5];
        let d = p.descend(&anchor(), &mu, 0.5);
        assert!(d.x.iter().all(|&x| (-1e-9..=1.0 + 1e-9).contains(&x)));
        assert!(d.rho >= 1.0 && d.rho <= p.rho_max);
        let sum: f64 = d.x.iter().sum();
        assert!(sum >= 2.0 - 1e-6, "participation violated: {sum}");
        let cost: f64 = d.x.iter().zip(&p.costs).map(|(x, c)| x * c).sum();
        assert!(cost <= p.budget + 1e-6);
    }

    #[test]
    fn zero_multipliers_minimize_latency_only() {
        // With μ = 0 the step descends pure latency: high-τ clients get
        // pushed down relative to the anchor, low-τ clients kept.
        let p = problem();
        let mu = vec![0.0; 5];
        let d = p.descend(&anchor(), &mu, 1.0);
        // Client 3 (τ=4.0) should fall furthest from the 0.5 anchor;
        // client 0 (τ=0.5) the least.
        assert!(d.x[3] < d.x[0], "{:?}", d.x);
        // Participation floor keeps the sum at n.
        let sum: f64 = d.x.iter().sum();
        assert!(sum >= 2.0 - 1e-6);
    }

    #[test]
    fn convergence_pressure_raises_rho() {
        // Large μ on a local-convergence constraint with selected client
        // must push ρ up relative to the μ = 0 solve.
        let p = problem();
        let low = p.descend(&anchor(), &[0.0; 5], 0.5);
        let mut mu = vec![0.0; 5];
        mu[2] = 50.0; // client with η̂ = 0.8 selected at the anchor
        let high = p.descend(&anchor(), &mu, 0.5);
        assert!(
            high.rho > low.rho,
            "dual pressure should buy more iterations: {} vs {}",
            high.rho,
            low.rho
        );
    }

    #[test]
    fn loss_pressure_favors_helpful_clients() {
        // Large μ⁰ rewards clients with the most negative g.
        let p = problem();
        let mut mu = vec![0.0; 5];
        mu[0] = 100.0;
        let d = p.descend(&anchor(), &mu, 0.5);
        // Client 0 has g = -1.0 (most helpful) -> should be kept highest.
        let best = d.x[0];
        assert!(d.x.iter().all(|&x| x <= best + 1e-9), "{:?}", d.x);
    }

    #[test]
    fn tight_budget_respected() {
        let mut p = problem();
        p.budget = 2.0; // only cheap clients affordable
        let d = p.descend(&anchor(), &[0.0; 5], 0.5);
        let cost: f64 = d.x.iter().zip(&p.costs).map(|(x, c)| x * c).sum();
        assert!(cost <= 2.0 + 1e-6, "cost {cost}");
        let sum: f64 = d.x.iter().sum();
        assert!(sum >= 2.0 - 1e-6, "participation {sum}");
    }

    #[test]
    fn impossible_budget_relaxed_to_cheapest_n() {
        let mut p = problem();
        p.budget = 0.1; // cannot afford 2 clients
        let d = p.descend(&anchor(), &[0.0; 5], 0.5);
        // Feasibility floor: the two cheapest cost 0.5 + 1.0 = 1.5.
        let cost: f64 = d.x.iter().zip(&p.costs).map(|(x, c)| x * c).sum();
        assert!(cost <= 1.5 + 1e-6, "cost {cost}");
        let sum: f64 = d.x.iter().sum();
        assert!(sum >= 2.0 - 1e-6);
    }

    #[test]
    #[should_panic(expected = "no available clients")]
    fn empty_problem_rejected() {
        let p = OneShot {
            ids: vec![],
            tau: vec![],
            costs: vec![],
            eta: vec![],
            g: vec![],
            bonus: vec![],
            loss_all: 1.0,
            theta: 0.5,
            min_participants: 1,
            budget: 10.0,
            rho_max: 5.0,
        };
        let _ = h_value(&p, &[], 1.0);
    }
}
