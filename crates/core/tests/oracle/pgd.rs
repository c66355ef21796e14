//! Projected gradient descent with Armijo backtracking, and the plain box.
//!
//! Both oracles in this directory run on it: the eq. (8) solve of
//! `descend_pgd` and the hindsight comparator of `hindsight_pgd`. Nothing
//! under `src/` uses it; its own tests are `crates/core/tests/oracle_pgd.rs`.

use fedl_linalg::dvec;
use fedl_solver::Project;

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
        debug_assert!(dvec::all_finite(&g), "non-finite gradient");

        let mut eta = opts.step0;
        let mut accepted = false;
        for _ in 0..=opts.max_backtracks {
            cand.copy_from_slice(&x);
            dvec::axpy(&mut cand, -eta, &g);
            set.project(&mut cand);
            let moved_sq = dvec::dist_sq(&cand, &x);
            if moved_sq <= opts.tol * opts.tol {
                // Stationary: the projected step does not move.
                converged = true;
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
        if converged || !accepted {
            // Backtracking exhausted without decrease: numerically
            // stationary.
            converged = true;
            break;
        }
    }
    PgdResult { x, objective: fx, iters, converged }
}

/// Axis-aligned box `{ v : lo ≤ v ≤ hi }`.
#[derive(Debug, Clone)]
pub struct BoxSet {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BoxSet {
    /// Creates the box; panics if the bounds disagree in length or any
    /// `lo[i] > hi[i]` (an empty box is a caller bug, not a runtime state).
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "box bound length mismatch");
        for (i, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
            assert!(l <= h, "empty box at coordinate {i}: lo {l} > hi {h}");
        }
        Self { lo, hi }
    }

    /// The unit box `[0, 1]^n`.
    pub fn unit(n: usize) -> Self {
        Self::new(vec![0.0; n], vec![1.0; n])
    }
}

impl Project for BoxSet {
    fn project(&self, v: &mut [f64]) {
        dvec::clamp_box(v, &self.lo, &self.hi);
    }

    fn contains(&self, v: &[f64], tol: f64) -> bool {
        v.len() == self.lo.len()
            && v.iter()
                .zip(&self.lo)
                .zip(&self.hi)
                .all(|((&x, &l), &h)| x >= l - tol && x <= h + tol)
    }

    fn dim(&self) -> usize {
        self.lo.len()
    }
}
