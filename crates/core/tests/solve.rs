//! Tests that pin the structured solve of eq. (8) by being right: the
//! returned point is a fixed point of the two closed forms it alternates
//! (x the projection at ρ, ρ the clamped stationary value at x), it is
//! the global minimiser against brute force over ρ on small instances in
//! both the convex and the non-convex regime, and it is never worse than
//! the PGD + Dykstra solver it replaced wherever that solver's point is
//! feasible. Instances come from seeded RNG loops.

mod oracle;

use fedl_core::objective::{FracDecision, OneShot, SolveOutcome, SolveScratch};
use fedl_linalg::dvec::dot;
use fedl_linalg::rng::{rng_for, Rng, Xoshiro256pp};

/// One instance of (8): the problem, the anchor, the multipliers, β.
struct Instance {
    problem: OneShot,
    anchor: FracDecision,
    mu: Vec<f64>,
    beta: f64,
}

impl Instance {
    /// Coefficients from the §6.1 ranges; a budget that is loose, tight
    /// or below the cheapest-`n` floor; an anchor anywhere in the box; and
    /// multipliers scaled so that `β‖v‖` lands on both sides of 1.
    fn random(rng: &mut Xoshiro256pp, max_k: usize) -> Self {
        let k = rng.gen_range(2..max_k + 1);
        let n = rng.gen_range(1..k / 2 + 2).min(k);
        let costs: Vec<f64> = (0..k).map(|_| rng.gen_range(0.1..12.0)).collect();
        let mut sorted = costs.clone();
        sorted.sort_by(f64::total_cmp);
        let floor: f64 = sorted[..n].iter().sum();
        let budget = match rng.gen_range(0usize..4) {
            0 => floor * rng.gen_range(0.2..1.0),
            1 => floor * rng.gen_range(1.0..1.5),
            _ => 1e6,
        };
        let fair = rng.gen_range(0usize..4) == 0;
        let problem = OneShot {
            ids: (0..k).collect(),
            tau: (0..k).map(|_| rng.gen_range(0.01..2.0)).collect(),
            costs,
            eta: (0..k).map(|_| rng.gen_range(0.1..0.9)).collect(),
            g: (0..k).map(|_| rng.gen_range(-1.0..0.1)).collect(),
            bonus: (0..k).map(|_| if fair { rng.gen_range(0.0..0.5) } else { 0.0 }).collect(),
            loss_all: 1.8,
            theta: 1.0,
            min_participants: n,
            budget,
            rho_max: 10.0,
        };
        let dual_scale = [0.0, 0.3, 3.0, 10.0][rng.gen_range(0usize..4)];
        let mu = std::iter::once(rng.gen_range(0.0..20.0))
            .chain((0..k).map(|_| dual_scale * rng.gen_range(0.0..1.0)))
            .collect();
        let anchor = FracDecision {
            x: (0..k).map(|_| rng.gen_range(0.0..1.0)).collect(),
            rho: rng.gen_range(0.5..11.0),
        };
        Self { problem, anchor, mu, beta: rng.gen_range(0.05..1.0) }
    }

    fn solve(&self) -> (FracDecision, SolveOutcome) {
        let mut out = FracDecision { x: Vec::new(), rho: 1.0 };
        let outcome = self.problem.solve(
            &self.anchor.x,
            self.anchor.rho,
            &self.mu,
            self.beta,
            &mut SolveScratch::default(),
            &mut out,
        );
        (out, outcome)
    }

    fn objective(&self, at: &FracDecision) -> f64 {
        let (p, a) = (&self.problem, &self.anchor);
        p.descent_objective(&a.x, a.rho, &self.mu, self.beta, &at.x, at.rho)
    }

    fn rho_bar(&self) -> f64 {
        self.anchor.rho.clamp(1.0, self.problem.rho_max)
    }

    /// `vₖ = μ⁰gₖ/|E| + μₖη̂ₖ`.
    fn v(&self) -> Vec<f64> {
        let p = &self.problem;
        let k = p.ids.len();
        (0..k).map(|i| self.mu[0] * p.g[i] / k as f64 + self.mu[1 + i] * p.eta[i]).collect()
    }

    /// `x*(ρ)`: the projection of `x̄ − β·a(ρ)`.
    fn x_star(&self, rho: f64) -> Vec<f64> {
        let p = &self.problem;
        let v = self.v();
        let mut x: Vec<f64> = (0..p.ids.len())
            .map(|i| {
                let a = self.rho_bar() * p.tau[i] - p.bonus[i] + rho * v[i];
                self.anchor.x[i] - self.beta * a
            })
            .collect();
        p.feasible_set().project_selection(&mut x);
        x
    }

    /// ρ's clamped closed form at `x`.
    fn rho_star(&self, x: &[f64]) -> f64 {
        let p = &self.problem;
        let pull =
            dot(&self.anchor.x, &p.tau) + dot(&self.v(), x) - self.mu[1..].iter().sum::<f64>();
        (self.rho_bar() - self.beta * pull).clamp(1.0, p.rho_max)
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
}

#[test]
fn returned_point_is_a_fixed_point_within_the_projection_caps() {
    let (mut convex, mut scanned) = (0, 0);
    for seed in 0..400 {
        let inst = Instance::random(&mut rng_for(seed, 0xD0), 40);
        let (frac, outcome) = inst.solve();
        let ctx = format!("seed {seed}: {outcome:?}");
        assert!(oracle::feasible(&inst.problem, &frac, 1e-9), "{ctx}: infeasible");
        assert!(max_abs_diff(&frac.x, &inst.x_star(frac.rho)) <= 1e-9, "{ctx}: x is not x*(ρ)");
        assert!((frac.rho - inst.rho_star(&frac.x)).abs() <= 1e-9, "{ctx}: ρ off its closed form");
        assert_eq!(outcome.objective, inst.objective(&frac), "{ctx}");
        assert_eq!(outcome.outer_iters + 1, outcome.projections, "{ctx}");
        if outcome.convex {
            convex += 1;
            assert!(outcome.projections <= 64, "{ctx}");
        } else {
            scanned += 1;
            assert!(outcome.projections <= 256, "{ctx}");
        }
        let relaxed = inst.problem.feasible_set().relaxed();
        assert_eq!(outcome.budget_relaxed, relaxed, "{ctx}");
    }
    assert!(convex >= 100 && scanned >= 100, "one regime is under-sampled: {convex} / {scanned}");
}

#[test]
fn global_minimiser_against_brute_force_over_rho() {
    const GRID: usize = 4000;
    let (mut convex, mut scanned) = (0, 0);
    for seed in 0..120 {
        let inst = Instance::random(&mut rng_for(seed, 0xD1), 6);
        let (_, outcome) = inst.solve();
        let rho_max = inst.problem.rho_max;
        let grid_min = (0..=GRID)
            .map(|i| 1.0 + (rho_max - 1.0) * i as f64 / GRID as f64)
            .map(|rho| inst.objective(&FracDecision { x: inst.x_star(rho), rho }))
            .fold(f64::INFINITY, f64::min);
        assert!(
            outcome.objective <= grid_min + 1e-9,
            "seed {seed}: solve {} above the grid's {grid_min} ({outcome:?})",
            outcome.objective
        );
        // A grid of step h misses the minimum by at most L·h²/2 with
        // L = 1/β the curvature bound of φ: the solve cannot be far below.
        let h = (rho_max - 1.0) / GRID as f64;
        assert!(outcome.objective >= grid_min - h * h / inst.beta, "seed {seed}: below the grid");
        if outcome.convex {
            convex += 1;
        } else {
            scanned += 1;
        }
    }
    assert!(convex >= 20 && scanned >= 20, "one regime is under-sampled: {convex} / {scanned}");
}

#[test]
fn never_worse_than_pgd_over_dykstra_where_that_is_feasible() {
    let mut compared = 0;
    for seed in 0..200 {
        let inst = Instance::random(&mut rng_for(seed, 0xD2), 24);
        let (new, outcome) = inst.solve();
        let (old, _) = oracle::descend_pgd(
            &inst.problem,
            &inst.anchor.x,
            inst.anchor.rho,
            &inst.mu,
            inst.beta,
        );
        if !oracle::feasible(&inst.problem, &old, 1e-9) {
            continue;
        }
        compared += 1;
        let (f_new, f_old) =
            (inst.objective(&new), inst.objective(&oracle::nearest_feasible(&inst.problem, &old)));
        assert!(f_new <= f_old + 1e-9, "seed {seed}: new {f_new} vs PGD {f_old} ({outcome:?})");
    }
    assert!(compared >= 150, "PGD was feasible on only {compared} of 200 instances");
}

#[test]
fn descend_is_the_solve_without_its_outcome() {
    let inst = Instance::random(&mut rng_for(7, 0xD3), 12);
    let (frac, _) = inst.solve();
    assert_eq!(inst.problem.descend(&inst.anchor, &inst.mu, inst.beta), frac);
}
