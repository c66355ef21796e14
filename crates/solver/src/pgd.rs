//! Projected gradient descent with Armijo backtracking.
//!
//! The driver of `fedl-core`'s hindsight comparator, which descends a
//! penalised objective that has no closed-form inner solve. (The online
//! descent step, paper eq. (8), does: see [`crate::polytope`].)

use crate::projection::Project;

/// Options controlling [`minimize`].
#[derive(Debug, Clone)]
pub struct PgdOptions {
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Converged when the iterate moves less than `tol` (Euclidean) in one
    /// step.
    pub tol: f64,
    /// Initial step size tried each iteration.
    pub step0: f64,
    /// Multiplicative backtracking factor in `(0, 1)`.
    pub shrink: f64,
    /// Armijo sufficient-decrease coefficient in `(0, 1)`.
    pub armijo: f64,
    /// Maximum backtracking halvings per iteration.
    pub max_backtracks: usize,
}

impl Default for PgdOptions {
    fn default() -> Self {
        Self {
            max_iters: 500,
            tol: 1e-9,
            step0: 1.0,
            shrink: 0.5,
            armijo: 1e-4,
            max_backtracks: 40,
        }
    }
}

/// Result of a [`minimize`] call.
#[derive(Debug, Clone)]
pub struct PgdResult {
    /// Final (feasible) iterate.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Iterations actually performed.
    pub iters: usize,
    /// Whether the movement tolerance was reached before the cap.
    pub converged: bool,
}

/// Minimizes `f` over the convex set `set` starting from `x0`.
///
/// `grad(x, out)` must write `∇f(x)` into `out`. `x0` is projected onto
/// the set before the first iteration, so any starting point is accepted.
///
/// Each iteration takes a gradient step, projects, and backtracks on the
/// step length until the Armijo condition
/// `f(x⁺) ≤ f(x) − c·‖x⁺ − x‖²/η` holds (the projected-gradient form of
/// sufficient decrease). If backtracking exhausts its budget the current
/// point is already numerically stationary and the loop stops.
pub fn minimize<F, G>(f: F, grad: G, set: &dyn Project, x0: &[f64], opts: &PgdOptions) -> PgdResult
where
    F: Fn(&[f64]) -> f64,
    G: Fn(&[f64], &mut [f64]),
{
    assert_eq!(x0.len(), set.dim(), "x0 dimension mismatch with feasible set");
    assert!(opts.step0 > 0.0 && opts.shrink > 0.0 && opts.shrink < 1.0, "bad PGD options");

    let n = x0.len();
    let mut x = x0.to_vec();
    set.project(&mut x);
    let mut fx = f(&x);
    let mut g = vec![0.0f64; n];
    let mut cand = vec![0.0f64; n];

    let mut iters = 0;
    let mut converged = false;
    while iters < opts.max_iters {
        iters += 1;
        grad(&x, &mut g);
        debug_assert!(fedl_linalg::dvec::all_finite(&g), "non-finite gradient");

        let mut eta = opts.step0;
        let mut accepted = false;
        for _ in 0..=opts.max_backtracks {
            cand.copy_from_slice(&x);
            fedl_linalg::dvec::axpy(&mut cand, -eta, &g);
            set.project(&mut cand);
            let moved_sq = fedl_linalg::dvec::dist_sq(&cand, &x);
            if moved_sq <= opts.tol * opts.tol {
                // Stationary: projected step doesn't move.
                converged = true;
                accepted = false;
                break;
            }
            let f_cand = f(&cand);
            if f_cand <= fx - opts.armijo * moved_sq / eta {
                x.copy_from_slice(&cand);
                fx = f_cand;
                accepted = true;
                break;
            }
            eta *= opts.shrink;
        }
        if converged {
            break;
        }
        if !accepted {
            // Backtracking exhausted without decrease: treat as converged
            // to numerical precision.
            converged = true;
            break;
        }
    }

    PgdResult { x, objective: fx, iters, converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polytope::SelectionPolytope;
    use crate::projection::{BoxSet, Project};
    use fedl_linalg::approx_eq_f64;

    #[test]
    fn unconstrained_quadratic_reaches_center() {
        // Large box ≈ unconstrained.
        let set = BoxSet::new(vec![-100.0; 3], vec![100.0; 3]);
        let center = [1.0, -2.0, 3.0];
        let f = |x: &[f64]| x.iter().zip(&center).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
        let g = |x: &[f64], out: &mut [f64]| {
            for i in 0..3 {
                out[i] = 2.0 * (x[i] - center[i]);
            }
        };
        let res = minimize(f, g, &set, &[0.0; 3], &PgdOptions::default());
        assert!(res.converged);
        for (xi, ci) in res.x.iter().zip(&center) {
            assert!(approx_eq_f64(*xi, *ci, 1e-6), "{:?}", res.x);
        }
        assert!(res.objective < 1e-10);
    }

    #[test]
    fn active_box_constraint_binds() {
        let set = BoxSet::unit(2);
        // Minimize distance to (2, 0.5): optimum is (1, 0.5).
        let f = |x: &[f64]| (x[0] - 2.0f64).powi(2) + (x[1] - 0.5f64).powi(2);
        let g = |x: &[f64], out: &mut [f64]| {
            out[0] = 2.0 * (x[0] - 2.0);
            out[1] = 2.0 * (x[1] - 0.5);
        };
        let res = minimize(f, g, &set, &[0.0, 0.0], &PgdOptions::default());
        assert!(approx_eq_f64(res.x[0], 1.0, 1e-6));
        assert!(approx_eq_f64(res.x[1], 0.5, 1e-6));
    }

    #[test]
    fn participation_row_binds() {
        // min x² + y² s.t. x + y >= 1 -> (0.5, 0.5); ρ rides along at 1.
        let costs = [1.0, 1.0];
        let set = SelectionPolytope::new(&costs, 1, 10.0, 4.0, &mut Vec::new());
        let f = |z: &[f64]| z[0] * z[0] + z[1] * z[1];
        let g = |z: &[f64], out: &mut [f64]| {
            out[0] = 2.0 * z[0];
            out[1] = 2.0 * z[1];
            out[2] = 0.0;
        };
        let res = minimize(f, g, &set, &[3.0, -1.0, 1.0], &PgdOptions::default());
        assert!(approx_eq_f64(res.x[0], 0.5, 1e-6), "{:?}", res.x);
        assert!(approx_eq_f64(res.x[1], 0.5, 1e-6), "{:?}", res.x);
    }

    #[test]
    fn respects_iteration_cap() {
        let set = BoxSet::new(vec![-1e9], vec![1e9]);
        let f = |x: &[f64]| x[0] * x[0];
        let g = |x: &[f64], out: &mut [f64]| out[0] = 2.0 * x[0];
        let opts = PgdOptions { max_iters: 3, step0: 1e-6, ..Default::default() };
        let res = minimize(f, g, &set, &[1000.0], &opts);
        assert_eq!(res.iters, 3);
        assert!(!res.converged);
    }

    #[test]
    fn infeasible_start_is_projected_first() {
        let set = BoxSet::unit(2);
        let f = |x: &[f64]| x[0] + x[1];
        let g = |_: &[f64], out: &mut [f64]| {
            out[0] = 1.0;
            out[1] = 1.0;
        };
        let res = minimize(f, g, &set, &[50.0, -50.0], &PgdOptions::default());
        assert!(set.contains(&res.x, 1e-9));
        // Linear objective over unit box minimized at origin.
        assert!(res.x[0] < 1e-6 && res.x[1] < 1e-6, "{:?}", res.x);
    }

    #[test]
    fn nonsmooth_kink_converges_to_min() {
        // f = |x - 0.3| has a kink; PGD with backtracking should still
        // stall at the kink rather than oscillate forever.
        let set = BoxSet::unit(1);
        let f = |x: &[f64]| (x[0] - 0.3f64).abs();
        let g = |x: &[f64], out: &mut [f64]| out[0] = if x[0] >= 0.3 { 1.0 } else { -1.0 };
        let res = minimize(f, g, &set, &[0.9], &PgdOptions::default());
        assert!((res.x[0] - 0.3).abs() < 1e-3, "{:?}", res.x);
    }
}
