//! The solvers FedL used before its exact ones, kept as the references
//! the tests compare those against; nothing under `src/` uses them.
//!
//! * [`descend_pgd`] — eq. (8) by projected gradient descent over all
//!   `K + 1` variables, every trial point projected by Dykstra's
//!   alternating projections over box, participation halfspace and budget
//!   halfspace. The structured solve must never be worse than this
//!   wherever this one's point is feasible.
//! * [`hindsight_pgd`] — the regret tracker's hindsight comparator as a
//!   three-start penalty PGD over the exact polytope. The exact comparator
//!   must never be above it.
//!
//! Shared by `crates/core/tests/{solve,hindsight}.rs` and, through
//! `#[path]`, by the root `tests/exhaustion_tail.rs`; each uses a part.
#![allow(dead_code)]

pub mod pgd;

use fedl_core::objective::{FracDecision, OneShot};
use fedl_linalg::dvec;
use fedl_solver::Project;
use pgd::{minimize, BoxSet, PgdOptions};

/// Halfspace `{ v : a·v ≤ b }`.
struct Halfspace {
    a: Vec<f64>,
    b: f64,
    a_norm_sq: f64,
}

impl Halfspace {
    fn new(a: Vec<f64>, b: f64) -> Self {
        let a_norm_sq = dvec::dot(&a, &a);
        assert!(a_norm_sq > 0.0, "halfspace normal must be non-zero");
        Self { a, b, a_norm_sq }
    }

    fn violation(&self, v: &[f64]) -> f64 {
        dvec::dot(&self.a, v) - self.b
    }
}

impl Project for Halfspace {
    fn project(&self, v: &mut [f64]) {
        let excess = self.violation(v);
        if excess > 0.0 {
            dvec::axpy(v, -excess / self.a_norm_sq, &self.a);
        }
    }

    fn contains(&self, v: &[f64], tol: f64) -> bool {
        self.violation(v) <= tol * (1.0 + self.b.abs())
    }

    fn dim(&self) -> usize {
        self.a.len()
    }
}

/// Intersection projected by Dykstra's algorithm: cyclic projections with
/// one correction vector per member set, stopped when iterate and
/// corrections have both stopped moving (cap 5 000 sweeps, then plain
/// cyclic projections for feasibility).
struct Dykstra {
    sets: Vec<Box<dyn Project>>,
}

const MAX_SWEEPS: usize = 5000;
const SWEEP_TOL: f64 = 1e-10;

impl Project for Dykstra {
    fn project(&self, v: &mut [f64]) {
        let n = v.len();
        let mut corrections = vec![vec![0.0; n]; self.sets.len()];
        let mut prev = vec![0.0; n];
        let mut before = vec![0.0; n];
        for _ in 0..MAX_SWEEPS {
            prev.copy_from_slice(v);
            let mut corr_moved = 0.0f64;
            for (set, corr) in self.sets.iter().zip(corrections.iter_mut()) {
                for (vi, ci) in v.iter_mut().zip(corr.iter()) {
                    *vi += *ci;
                }
                before.copy_from_slice(v);
                set.project(v);
                for ((ci, &bi), &vi) in corr.iter_mut().zip(before.iter()).zip(v.iter()) {
                    let new_ci = bi - vi;
                    corr_moved += (new_ci - *ci).abs();
                    *ci = new_ci;
                }
            }
            if dvec::dist(v, &prev) <= SWEEP_TOL
                && corr_moved <= SWEEP_TOL
                && self.contains(v, 1e-9)
            {
                return;
            }
        }
        for _ in 0..MAX_SWEEPS {
            prev.copy_from_slice(v);
            for set in &self.sets {
                set.project(v);
            }
            if dvec::dist(v, &prev) <= SWEEP_TOL {
                break;
            }
        }
    }

    fn contains(&self, v: &[f64], tol: f64) -> bool {
        self.sets.iter().all(|s| s.contains(v, tol))
    }

    fn dim(&self) -> usize {
        self.sets[0].dim()
    }
}

/// The feasible set of `problem` as the three-set intersection, with the
/// budget relaxed to the cheapest-`n` sum exactly as the solve does.
fn feasible_set(problem: &OneShot) -> Dykstra {
    let k = problem.ids.len();
    let n = problem.effective_n();
    let mut lo = vec![0.0; k];
    lo.push(1.0);
    let mut hi = vec![1.0; k];
    hi.push(problem.rho_max);
    let mut participation = vec![-1.0; k];
    participation.push(0.0);
    let mut sorted = problem.costs.clone();
    sorted.sort_by(f64::total_cmp);
    let floor: f64 = sorted[..n].iter().sum();
    let mut cost_normal = problem.costs.clone();
    cost_normal.push(0.0);
    Dykstra {
        sets: vec![
            Box::new(BoxSet::new(lo, hi)),
            Box::new(Halfspace::new(participation, -(n as f64))),
            Box::new(Halfspace::new(cost_normal, problem.budget.max(floor))),
        ],
    }
}

/// Eq. (8) by backtracking PGD (cap 300 iterations, tolerance 1e-8) over
/// the Dykstra set, as `OneShot::descend` once did it. Returns the point
/// and whether PGD reported convergence before its cap.
pub fn descend_pgd(
    problem: &OneShot,
    x_prev: &[f64],
    rho_prev: f64,
    mu: &[f64],
    beta: f64,
) -> (FracDecision, bool) {
    let k = problem.ids.len();
    let avail = k as f64;
    let rho_bar = rho_prev.clamp(1.0, problem.rho_max);
    let mut z_prev = x_prev.to_vec();
    z_prev.push(rho_bar);
    let objective = |z: &[f64]| problem.descent_objective(x_prev, rho_bar, mu, beta, &z[..k], z[k]);
    let gradient = |z: &[f64], out: &mut [f64]| {
        let rho = z[k];
        let mix = dvec::dot(&z[..k], &problem.g);
        let mut drho =
            dvec::dot(x_prev, &problem.tau) + mu[0] * mix / avail + (rho - rho_bar) / beta;
        for i in 0..k {
            out[i] = rho_bar * problem.tau[i]
                + mu[0] * rho * problem.g[i] / avail
                + mu[1 + i] * problem.eta[i] * rho
                + (z[i] - x_prev[i]) / beta
                - problem.bonus[i];
            drho += mu[1 + i] * (problem.eta[i] * z[i] - 1.0);
        }
        out[k] = drho;
    };
    let set = feasible_set(problem);
    let opts = PgdOptions { max_iters: 300, tol: 1e-8, ..Default::default() };
    let res = minimize(objective, gradient, &set, &z_prev, &opts);
    (FracDecision { x: res.x[..k].to_vec(), rho: res.x[k] }, res.converged)
}

/// Penalty weight of the hindsight comparator's exact-penalty objective.
const H_PENALTY: f64 = 1e3;

/// `Ψ = f_t + 10³·Σᵢ [hᵢ]⁺` at `(x, rho)`: what the hindsight comparator
/// minimises.
pub fn penalised(observed: &OneShot, x: &[f64], rho: f64) -> f64 {
    let mut h = Vec::new();
    observed.h_value_into(x, rho, &mut h);
    h.iter().fold(observed.f_value(x, rho), |v, hi| v + H_PENALTY * hi.max(0.0))
}

/// The hindsight comparator as `regret::hindsight_optimum` computed it
/// before the exact solve: Ψ descended by PGD (cap 400 iterations,
/// tolerance 1e-9) over the polytope × `[1, ρ_max]` from three starts —
/// the interior point, the latency-greedy low-ρ corner and the
/// constraint-friendly high-ρ corner — keeping the lowest.
pub fn hindsight_pgd(observed: &OneShot) -> FracDecision {
    let k = observed.ids.len();
    let set = observed.feasible_set();
    let avail = k as f64;
    let objective = |z: &[f64]| penalised(observed, &z[..k], z[k]);
    let gradient = |z: &[f64], out: &mut [f64]| {
        let rho = z[k];
        let mix: f64 = z[..k].iter().zip(&observed.g).map(|(xi, gi)| xi * gi).sum();
        let h0 = observed.loss_all + rho * mix / avail - observed.theta;
        let pen0 = if h0 > 0.0 { H_PENALTY } else { 0.0 };
        let mut drho: f64 = z[..k].iter().zip(&observed.tau).map(|(xi, ti)| xi * ti).sum::<f64>()
            + pen0 * mix / avail;
        for i in 0..k {
            let hi = observed.eta[i] * z[i] * rho - rho + 1.0;
            let pen = if hi > 0.0 { H_PENALTY } else { 0.0 };
            out[i] = rho * observed.tau[i]
                + pen0 * rho * observed.g[i] / avail
                + pen * observed.eta[i] * rho;
            drho += pen * (observed.eta[i] * z[i] - 1.0);
        }
        out[k] = drho;
    };
    let mut interior = vec![0.5; k];
    interior.push(1.5);
    let mut by_tau: Vec<usize> = (0..k).collect();
    by_tau.sort_by(|&a, &b| observed.tau[a].total_cmp(&observed.tau[b]));
    let mut greedy = vec![0.0; k + 1];
    for &i in by_tau.iter().take(observed.effective_n()) {
        greedy[i] = 1.0;
    }
    greedy[k] = 1.0;
    let mut high = vec![1.0; k];
    high.push(observed.rho_max);

    let opts = PgdOptions { max_iters: 400, tol: 1e-9, ..Default::default() };
    let res = [interior, greedy, high]
        .into_iter()
        .map(|z0| minimize(objective, gradient, &set, &z0, &opts))
        .min_by(|a, b| a.objective.total_cmp(&b.objective))
        .expect("three starts");
    FracDecision { x: res.x[..k].to_vec(), rho: res.x[k] }
}

/// `true` when `(x, rho)` is in `problem`'s feasible set to within `tol`.
pub fn feasible(problem: &OneShot, frac: &FracDecision, tol: f64) -> bool {
    let mut z = frac.x.clone();
    z.push(frac.rho);
    problem.feasible_set().contains(&z, tol)
}

/// `frac` moved onto `problem`'s feasible set. A point that [`feasible`]
/// accepts may still sit up to `tol` outside a row, which at a binding
/// row buys it objective the exact solve is not allowed; comparing at
/// the nearest exactly feasible point removes that credit.
pub fn nearest_feasible(problem: &OneShot, frac: &FracDecision) -> FracDecision {
    let mut z = frac.x.clone();
    z.push(frac.rho);
    problem.feasible_set().project(&mut z);
    let rho = z.pop().expect("ρ was pushed above");
    FracDecision { x: z, rho }
}
