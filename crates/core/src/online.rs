//! The online learning algorithm (paper §4.3): alternating modified
//! descent on the primal decision and standard ascent on the Lagrange
//! multipliers, using only observed information.
//!
//! Since the million-client scale-out (docs/SCALE.md) the per-epoch
//! bookkeeping runs as dense column passes: the latency fold and prior
//! creation go through [`LearnerState::fold_latency`], the problem
//! assembly gathers from [`crate::state::ScoreColumns`] slices, and the
//! dual ascent is a masked dense kernel over the multiplier column —
//! all sharded via `fedl_linalg::par` with per-element arithmetic
//! identical to the scalar path, so results are bit-for-bit unchanged.

use crate::objective::{locator, FracDecision, OneShot, SolveOutcome, SolveScratch};
use crate::policy::EpochContext;
use crate::state::LearnerState;
use fedl_linalg::par::{det_sum, par_zip_chunks_grained};
use fedl_sim::EpochReport;

/// Sequential grain for the learner's columnar passes: cohorts up to
/// this size run inline on the caller with zero dispatch overhead (and
/// zero allocation); only the large scale tiers fan out to the pool.
/// Purely a scheduling knob — results are bit-identical either way
/// because every pass is element-independent.
const COLUMN_GRAIN: usize = 2048;

/// Reusable buffers for the learner's per-epoch passes
/// ([`OnlineLearner::build_problem_into`] / [`OnlineLearner::decide`] /
/// [`OnlineLearner::observe`]). Not part of the learner's logical state:
/// excluded from snapshots and comparisons, rebuilt empty on restore.
#[derive(Debug, Clone, Default)]
struct LearnerScratch {
    /// Dense availability mask by client id.
    mask: Vec<bool>,
    /// Dense latency hints by client id.
    hint: Vec<f64>,
    /// Anchor decision for the descent step.
    anchor_x: Vec<f64>,
    /// Gathered multipliers `[μ⁰, μ^k…]` for the available clients.
    mu_gather: Vec<f64>,
    /// Buffers of the one-shot solve.
    solve: SolveScratch,
    /// A spent decision's buffer for the next [`OnlineLearner::decide`]
    /// to fill (see [`OnlineLearner::recycle`]).
    spare_x: Vec<f64>,
    /// Observed-constraint copy of the decision problem.
    observed: OneShot,
    /// Observed constraint vector `h_t(Φ̃_t)`.
    h: Vec<f64>,
    /// `h` scattered into a dense id-indexed column.
    h_dense: Vec<f64>,
}

/// Step sizes β (primal) and δ (dual).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSizes {
    /// Primal (proximal) step size β.
    pub beta: f64,
    /// Dual ascent step size δ.
    pub delta: f64,
}

impl StepSizes {
    /// The Corollary-1 schedule `β = δ = scale·T_C^{−1/3}` with the
    /// stopping-epoch estimate `T̂_C = C/(n·c̄)`.
    pub fn corollary1(budget: f64, min_participants: usize, mean_cost: f64, scale: f64) -> Self {
        assert!(budget > 0.0 && mean_cost > 0.0 && min_participants > 0, "bad schedule inputs");
        assert!(scale > 0.0, "non-positive scale");
        let t_c = (budget / (min_participants as f64 * mean_cost)).max(1.0);
        let step = scale * t_c.powf(-1.0 / 3.0);
        Self { beta: step, delta: step }
    }

    /// Fixed step sizes (for the step-size ablation).
    pub fn fixed(beta: f64, delta: f64) -> Self {
        assert!(beta > 0.0 && delta > 0.0, "non-positive step size");
        Self { beta, delta }
    }
}

fedl_json::record!(StepSizes { beta, delta });

/// State of the online learner: per-client observation memory plus the
/// Lagrange multipliers `μ = [μ⁰, μ¹ … μ^M]` (μ⁰ for the global
/// convergence constraint (3d), μ^k for each client's local constraint
/// (3c); a client's multiplier persists across the epochs in which it is
/// unavailable).
#[derive(Debug, Clone)]
pub struct OnlineLearner {
    state: LearnerState,
    mu0: f64,
    mu: Vec<f64>,
    steps: StepSizes,
    theta: f64,
    rho_max: f64,
    /// Fairness weight (0 = the paper's FedL; positive values give
    /// rarely-selected clients a standing objective discount — the
    /// paper's stated future-work direction).
    fairness_weight: f64,
    /// What the last [`OnlineLearner::decide`]'s solve did (diagnostic,
    /// not logical state; not serialized).
    last_solve: SolveOutcome,
    /// Reusable per-epoch buffers (not logical state; not serialized).
    scratch: LearnerScratch,
}

impl OnlineLearner {
    /// Creates the learner with `μ₁ = 0` (the initialization Lemma 2 and
    /// Theorem 2 assume). `prior_x` is the fractional anchor given to
    /// never-observed clients — FedL passes `n/M`, the selection rate a
    /// budget-efficient policy settles at.
    pub fn new(
        num_clients: usize,
        steps: StepSizes,
        theta: f64,
        rho_max: f64,
        prior_x: f64,
    ) -> Self {
        assert!(theta > 0.0, "theta must be positive");
        assert!(rho_max >= 1.0, "rho_max below 1");
        Self {
            state: LearnerState::new(num_clients, prior_x),
            mu0: 0.0,
            mu: vec![0.0; num_clients],
            steps,
            theta,
            rho_max,
            fairness_weight: 0.0,
            last_solve: SolveOutcome::default(),
            scratch: LearnerScratch::default(),
        }
    }

    /// Enables the fairness extension with the given weight (see
    /// [`crate::objective::OneShot::bonus`]).
    pub fn with_fairness(mut self, weight: f64) -> Self {
        assert!(weight >= 0.0, "negative fairness weight");
        self.fairness_weight = weight;
        self
    }

    /// Current multipliers `(μ⁰, μ^k)` — exposed for the boundedness
    /// check of Lemma 2 in tests/benches.
    pub fn multipliers(&self) -> (f64, &[f64]) {
        (self.mu0, &self.mu)
    }

    /// The configured step sizes.
    pub fn steps(&self) -> StepSizes {
        self.steps
    }

    /// Per-client observation memory.
    pub fn state(&self) -> &LearnerState {
        &self.state
    }

    /// What the most recent [`OnlineLearner::decide`] cost and where it
    /// ended: projections spent, whether (8) was convex, which rows were
    /// tight, whether the budget had to be relaxed. All zeros before the
    /// first decision.
    pub fn last_solve(&self) -> SolveOutcome {
        self.last_solve
    }

    /// Hands a spent decision back so that the next
    /// [`OnlineLearner::decide`] fills its buffer instead of allocating.
    pub fn recycle(&mut self, spent: FracDecision) {
        self.scratch.spare_x = spent.x;
    }

    /// Assembles the one-shot problem for this epoch from current prices
    /// and remembered observations, as dense column passes, into a
    /// caller-owned problem (all coefficient vectors reshaped in place);
    /// steady-state reuse of the same `OneShot` performs no allocation.
    pub fn build_problem_into(&mut self, ctx: &EpochContext, out: &mut OneShot) {
        ctx.validate();
        let m = self.state.len();
        let a = ctx.available.len();
        let scratch = &mut self.scratch;
        // Scatter the per-available hints into dense id-indexed columns
        // (serial: writes land at arbitrary ids).
        let mask = &mut scratch.mask;
        mask.clear();
        mask.resize(m, false);
        let hint = &mut scratch.hint;
        hint.clear();
        hint.resize(m, 0.0);
        for (pos, &k) in ctx.available.iter().enumerate() {
            assert!(k < m, "unknown client {k}");
            mask[k] = true;
            hint[k] = ctx.latency_hint[pos];
        }
        // The latency hint is last epoch's realized channel state —
        // fresh observable data for every available client, selected
        // or not — so fold it into the estimates before reading them
        // (the dense UCB score-update kernel).
        self.state.fold_latency(mask, hint);
        // Gather the one-shot vectors from the columns at the available
        // ids (sharded above the grain, read-only).
        let cols = self.state.columns();
        let gather = |col: &[f64], out: &mut Vec<f64>| {
            out.clear();
            out.resize(a, 0.0);
            par_zip_chunks_grained(out, 1, &ctx.available, 1, COLUMN_GRAIN, |_, o, id| {
                o[0] = col[id[0]]
            });
        };
        gather(&cols.tau, &mut out.tau);
        gather(&cols.eta, &mut out.eta);
        gather(&cols.g, &mut out.g);
        let fairness = self.fairness_weight;
        let observations = &cols.observations;
        let bonus = &mut out.bonus;
        bonus.clear();
        bonus.resize(a, 0.0);
        par_zip_chunks_grained(bonus, 1, &ctx.available, 1, COLUMN_GRAIN, |_, o, id| {
            o[0] = fairness / (1.0 + observations[id[0]] as f64);
        });
        out.loss_all = if self.state.last_global_loss.is_finite() {
            self.state.last_global_loss
        } else {
            // No observation yet: seed with the loss hints' mean.
            det_sum(0.0, ctx.loss_hint.len(), |i| ctx.loss_hint[i])
                / ctx.loss_hint.len().max(1) as f64
        };
        out.ids.clone_from(&ctx.available);
        out.costs.clone_from(&ctx.costs);
        out.theta = self.theta;
        out.min_participants = ctx.min_participants;
        out.budget = ctx.remaining_budget;
        out.rho_max = self.rho_max;
    }

    /// The modified descent step (paper eq. (8)): produces the fractional
    /// decision for this epoch, anchored at each client's previous
    /// fractional value.
    pub fn decide(&mut self, ctx: &EpochContext, problem: &OneShot) -> FracDecision {
        // Priors normally exist after `build_problem`; create them here
        // too so `decide` alone matches the scalar path's first-touch
        // behavior.
        for (pos, &k) in ctx.available.iter().enumerate() {
            self.state.ensure_touched(k, ctx.latency_hint[pos]);
        }
        let cols = self.state.columns();
        let anchor_x = &mut self.scratch.anchor_x;
        anchor_x.clear();
        anchor_x.resize(ctx.available.len(), 0.0);
        par_zip_chunks_grained(anchor_x, 1, &ctx.available, 1, COLUMN_GRAIN, |_, o, id| {
            o[0] = cols.last_x[id[0]];
        });
        let mu = &mut self.scratch.mu_gather;
        mu.clear();
        mu.resize(ctx.available.len() + 1, 0.0);
        mu[0] = self.mu0;
        let mu_col = &self.mu;
        par_zip_chunks_grained(&mut mu[1..], 1, &ctx.available, 1, COLUMN_GRAIN, |_, o, id| {
            o[0] = mu_col[id[0]]
        });
        let mut frac = FracDecision { x: std::mem::take(&mut self.scratch.spare_x), rho: 1.0 };
        self.last_solve = problem.solve(
            anchor_x,
            self.state.last_rho,
            mu,
            self.steps.beta,
            &mut self.scratch.solve,
            &mut frac,
        );
        frac
    }

    /// Observation + dual ascent (paper eq. (9)): fold the realized epoch
    /// into the per-client memory and update
    /// `μ ← [μ + δ·h_t(Φ̃_t)]⁺` using *observed* constraint values.
    pub fn observe(
        &mut self,
        ctx: &EpochContext,
        report: &EpochReport,
        frac: &FracDecision,
        problem: &OneShot,
    ) {
        assert_eq!(frac.x.len(), ctx.available.len(), "decision arity");
        let pos_of = locator(&ctx.available);
        // Update per-client memory from the realized cohort outcomes.
        for (slot, &k) in report.cohort.iter().enumerate() {
            let tau = report.per_client_iter_latency[slot];
            let eta = report.eta_hats[slot] as f64;
            let g = report.grad_dot_delta[slot] as f64;
            // The latency hint position for k (k is available, else it
            // could not have been selected).
            let hint = pos_of(k).map_or(tau, |p| ctx.latency_hint[p]);
            self.state.observe_cohort(k, hint, tau, eta, g);
        }
        self.state.last_global_loss = report.global_loss_all;

        // Anchors for the next descent step (dense scatter by id).
        for (pos, &k) in ctx.available.iter().enumerate() {
            self.state.ensure_touched(k, ctx.latency_hint[pos]);
            self.state.set_anchor(k, frac.x[pos]);
        }
        self.state.last_rho = frac.rho;

        // Observed constraint vector h_t(Φ̃_t): same structure as the
        // decision problem but with realized η̂ and realized global loss.
        let scratch = &mut self.scratch;
        let observed = &mut scratch.observed;
        observed.copy_from(problem);
        observed.loss_all = report.global_loss_all;
        for (slot, &k) in report.cohort.iter().enumerate() {
            if let Some(pos) = pos_of(k) {
                observed.eta[pos] = report.eta_hats[slot] as f64;
                observed.g[pos] = report.grad_dot_delta[slot] as f64;
            }
        }
        let h = &mut scratch.h;
        observed.h_value_into(&frac.x, frac.rho, h);
        self.mu0 = (self.mu0 + self.steps.delta * h[0]).max(0.0);
        // Dual ascent (eq. (9)) as a masked dense kernel pass over the
        // multiplier column: scatter h into an id-indexed column, then
        // update only the available rows (a client's multiplier persists
        // untouched across the epochs it is unavailable).
        let m = self.state.len();
        let h_dense = &mut scratch.h_dense;
        h_dense.clear();
        h_dense.resize(m, 0.0);
        let mask = &mut scratch.mask;
        mask.clear();
        mask.resize(m, false);
        for (pos, &k) in ctx.available.iter().enumerate() {
            h_dense[k] = h[1 + pos];
            mask[k] = true;
        }
        let delta = self.steps.delta;
        par_zip_chunks_grained(&mut self.mu, 1, h_dense, 1, COLUMN_GRAIN, |k, mu, h| {
            if mask[k] {
                mu[0] = (mu[0] + delta * h[0]).max(0.0);
            }
        });
    }
}

fedl_json::record!(OnlineLearner {
    state, mu0, mu, steps, theta, rho_max, fairness_weight;
    last_solve: SolveOutcome::default(),
    scratch: LearnerScratch::default(),
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::ctx;

    fn learner(n_clients: usize) -> OnlineLearner {
        OnlineLearner::new(n_clients, StepSizes::fixed(0.5, 0.5), 0.5, 8.0, 0.4)
    }

    fn build_problem(learner: &mut OnlineLearner, ctx: &EpochContext) -> OneShot {
        let mut problem = OneShot::default();
        learner.build_problem_into(ctx, &mut problem);
        problem
    }

    fn fake_report(ctx: &EpochContext, cohort: Vec<usize>, loss: f64) -> EpochReport {
        let k = cohort.len();
        let _ = ctx;
        EpochReport {
            epoch: ctx.epoch,
            cohort,
            iterations: 2,
            latency_secs: 1.0,
            per_client_iter_latency: vec![0.4; k],
            cost: 3.0,
            eta_hats: vec![0.6; k],
            global_loss_all: loss,
            global_loss_selected: loss,
            grad_dot_delta: vec![-0.3; k],
            local_losses: vec![loss as f32; k],
            failed: vec![],
        }
    }

    #[test]
    fn corollary1_schedule_shrinks_with_budget() {
        let small = StepSizes::corollary1(100.0, 5, 6.0, 1.0);
        let large = StepSizes::corollary1(10000.0, 5, 6.0, 1.0);
        assert!(large.beta < small.beta, "bigger T_C -> smaller steps");
        assert_eq!(small.beta, small.delta);
    }

    #[test]
    fn multipliers_start_at_zero_and_stay_nonnegative() {
        let c = ctx(vec![0, 1, 2], vec![1.0, 2.0, 3.0], 50.0, 2);
        let mut l = learner(3);
        let (mu0, mu) = l.multipliers();
        assert_eq!(mu0, 0.0);
        assert!(mu.iter().all(|&m| m == 0.0));
        let p = build_problem(&mut l, &c);
        let d = l.decide(&c, &p);
        // Low realized loss: h0 negative, mu0 stays at 0.
        let r = fake_report(
            &c,
            d.x.iter().enumerate().filter(|(_, &x)| x > 0.5).map(|(i, _)| c.available[i]).collect(),
            0.1,
        );
        let cohort = if r.cohort.is_empty() { fake_report(&c, vec![0], 0.1) } else { r };
        l.observe(&c, &cohort, &d, &p);
        let (mu0, mu) = l.multipliers();
        assert_eq!(mu0, 0.0, "satisfied constraint must not grow μ⁰");
        assert!(mu.iter().all(|&m| m >= 0.0));
    }

    #[test]
    fn violated_global_constraint_grows_mu0() {
        let c = ctx(vec![0, 1, 2], vec![1.0, 2.0, 3.0], 50.0, 2);
        let mut l = learner(3);
        let p = build_problem(&mut l, &c);
        let d = l.decide(&c, &p);
        let r = fake_report(&c, vec![0, 1], 5.0); // loss 5 >> theta 0.5
        l.observe(&c, &r, &d, &p);
        let (mu0, _) = l.multipliers();
        assert!(mu0 > 0.0, "violated loss constraint must raise μ⁰");
    }

    #[test]
    fn dual_pressure_changes_decision() {
        let c = ctx(vec![0, 1, 2, 3], vec![1.0; 4], 50.0, 2);
        let mut l = learner(4);
        let p0 = build_problem(&mut l, &c);
        let before = l.decide(&c, &p0);
        // Several epochs of heavy violation.
        for _ in 0..10 {
            let p = build_problem(&mut l, &c);
            let d = l.decide(&c, &p);
            let r = fake_report(&c, vec![0, 1], 5.0);
            l.observe(&c, &r, &d, &p);
        }
        let p1 = build_problem(&mut l, &c);
        let after = l.decide(&c, &p1);
        // Accumulated μ⁰ pushes toward loss-reducing selections and more
        // iterations; at minimum the decision must have moved.
        assert!(
            (after.rho - before.rho).abs() > 1e-6
                || after.x.iter().zip(&before.x).any(|(a, b)| (a - b).abs() > 1e-6),
            "dual ascent had no effect on the decision"
        );
    }

    #[test]
    fn memory_prefers_observed_fast_clients() {
        let c = ctx(vec![0, 1], vec![1.0, 1.0], 100.0, 1);
        let mut l = learner(2);
        // Observe client 0 as fast/high-quality repeatedly.
        for _ in 0..6 {
            let p = build_problem(&mut l, &c);
            let d = l.decide(&c, &p);
            let mut r = fake_report(&c, vec![0], 0.4);
            r.per_client_iter_latency = vec![0.01];
            r.eta_hats = vec![0.1];
            r.grad_dot_delta = vec![-1.0];
            l.observe(&c, &r, &d, &p);
        }
        let p = build_problem(&mut l, &c);
        // Client 0's remembered latency should now be far below 1's.
        assert!(p.tau[0] < p.tau[1] * 0.5, "tau {:?}", p.tau);
        assert!(p.eta[0] < p.eta[1], "eta {:?}", p.eta);
        let d = l.decide(&c, &p);
        assert!(d.x[0] >= d.x[1] - 1e-9, "learned preference ignored: {:?}", d.x);
    }

    #[test]
    #[should_panic(expected = "theta must be positive")]
    fn rejects_bad_theta() {
        let _ = OnlineLearner::new(2, StepSizes::fixed(0.1, 0.1), 0.0, 4.0, 0.4);
    }
}
