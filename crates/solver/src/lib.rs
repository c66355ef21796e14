//! Projection-based convex optimization toolkit for FedL's online
//! decision step.
//!
//! The paper solves its one-shot subproblem (eq. (8)) with the
//! interior-point filter line-search solver of Wächter & Biegler \[26\].
//! That subproblem is tiny — at most `K + 1` variables (one selection
//! fraction per available client plus the iteration-control variable ρ) —
//! and its feasible region is an intersection of simple convex sets:
//!
//! * a box `x ∈ [0, 1]^K`, `ρ ∈ [1, ρ_max]`;
//! * the participation halfspace `Σ x_k ≥ n` (constraint (3b)/(6b));
//! * the budget halfspace `Σ c_k x_k ≤ C_remaining` (constraint (3a)/(6a));
//!
//! and for a fixed ρ the descent objective of eq. (8) is separable in x,
//! so its minimiser is one Euclidean projection onto that region. This
//! crate therefore replaces the interior-point dependency with:
//!
//! * [`polytope`] — the exact projection onto `box ∩ {Σx ≥ n} ∩ {Σc·x ≤ C}`
//!   by two nested scalar root finds on its KKT multipliers, which
//!   `fedl-core` wraps in a one-dimensional search over ρ;
//! * [`projection`] — the [`Project`] interface and the plain box;
//! * [`pgd`] — projected gradient descent with Armijo backtracking, kept
//!   for the hindsight comparator's penalised objective.
//!
//! Everything is `f64`: the decision problem is small, so precision is
//! cheap and keeps the regret accounting clean.
//!
//! System-inventory row **S6** in DESIGN.md §1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pgd;
pub mod polytope;
pub mod projection;

pub use pgd::{minimize, PgdOptions, PgdResult};
pub use polytope::{Multipliers, SelectionPolytope};
pub use projection::{BoxSet, Project};

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke test: minimize ||z - target||² over a FedL-shaped
    /// feasible set and check feasibility of the optimum.
    #[test]
    fn quadratic_over_fedl_shaped_set() {
        // 4 clients + rho: box [0,1]^4 x [1,8], sum(x) >= 2, cost <= 3.
        let costs = [1.0, 2.0, 0.5, 0.25];
        let set = SelectionPolytope::new(&costs, 2, 3.0, 8.0, &mut Vec::new());

        let target = vec![1.0, 1.0, 1.0, 1.0, 0.0];
        let f = |z: &[f64]| fedl_linalg::dvec::dist_sq(z, &target);
        let grad = |z: &[f64], g: &mut [f64]| {
            for i in 0..z.len() {
                g[i] = 2.0 * (z[i] - target[i]);
            }
        };
        let x0 = vec![0.5, 0.5, 0.5, 0.5, 2.0];
        let res = minimize(f, grad, &set, &x0, &PgdOptions::default());
        assert!(res.converged, "PGD did not converge: {res:?}");
        assert!(set.contains(&res.x, 1e-6));
        let sum_x: f64 = res.x[..4].iter().sum();
        assert!(sum_x >= 2.0 - 1e-6);
        let cost = res.x[0] + 2.0 * res.x[1] + 0.5 * res.x[2] + 0.25 * res.x[3];
        assert!(cost <= 3.0 + 1e-6);
        assert!(res.x[4] >= 1.0 - 1e-9);
    }
}
