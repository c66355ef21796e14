//! The complete FedL policy: online learning (Alg. 1) + RDCS rounding
//! (Alg. 2) + feasibility repair, behind the common
//! [`crate::policy::SelectionPolicy`] interface.

use fedl_json::{obj, read_field, ToJson, Value};
use fedl_linalg::rng::{derive_seed, Xoshiro256pp};
use fedl_sim::EpochReport;
use fedl_telemetry::Telemetry;

use crate::objective::{FracDecision, OneShot};
use crate::online::{OnlineLearner, StepSizes};
use crate::policy::{EpochContext, SelectionDecision, SelectionPolicy};
use crate::regret::RegretTracker;
use crate::rounding::{self, RdcsScratch};
use crate::snapshot;

/// FedL hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct FedLConfig {
    /// Desired upper bound θ on the global loss (constraint (3d)).
    pub theta: f64,
    /// Cap on the iteration-control variable ρ (bounds `l_t`).
    pub rho_max: f64,
    /// Scale multiplier on the Corollary-1 step-size schedule.
    pub step_scale: f64,
    /// Extra multiplier on the *dual* step δ relative to β. The
    /// equilibrium multiplier the loss constraint needs scales with
    /// `|E_t|` (the per-client loss impact in h⁰ is diluted by the
    /// paper's 1/|E_t| aggregation), so the dual clock must run faster
    /// than the primal one to reach it within a budget-length horizon.
    /// Corollary 1 fixes only the T_C^{-1/3} rate; this constant is
    /// free.
    pub dual_scale: f64,
    /// Explicit step sizes; `None` uses the Corollary-1 schedule
    /// `β = δ = step_scale·T̂_C^{−1/3}`.
    pub fixed_steps: Option<(f64, f64)>,
    /// Assumed mean rental cost `c̄` for the `T̂_C = C/(n·c̄)` estimate
    /// (the §6.1 cost distribution U[0.1, 12] has mean 6.05).
    pub mean_cost_estimate: f64,
    /// Use independent rounding instead of RDCS (ablation only).
    pub independent_rounding: bool,
    /// Fairness weight for the selection-fairness extension (0 disables
    /// it and reproduces the paper's FedL; see
    /// [`crate::objective::OneShot::bonus`]).
    pub fairness_weight: f64,
}

impl Default for FedLConfig {
    fn default() -> Self {
        Self {
            theta: 1.0,
            rho_max: 10.0,
            step_scale: 1.0,
            dual_scale: 10.0,
            fixed_steps: None,
            mean_cost_estimate: 6.05,
            independent_rounding: false,
            fairness_weight: 0.0,
        }
    }
}

// Canonical field order — part of the result-cache key contract
// (docs/CHECKPOINT.md), so reordering or renaming fields invalidates
// existing caches.
fedl_json::record!(encode FedLConfig {
    theta,
    rho_max,
    step_scale,
    dual_scale,
    fixed_steps,
    mean_cost_estimate,
    independent_rounding,
    fairness_weight,
});

/// The FedL selection policy (paper Alg. 1 + Alg. 2).
pub struct FedLPolicy {
    learner: OnlineLearner,
    tracker: RegretTracker,
    track_regret: bool,
    rng: Xoshiro256pp,
    independent_rounding: bool,
    /// The epoch's problem, rebuilt in place by `select`, read by `observe`.
    problem: OneShot,
    /// Rounding scratch and output, reused across epochs (never serialized).
    rdcs: RdcsScratch,
    selected: Vec<usize>,
    /// The fractional decision awaiting the epoch's outcome.
    pending: Option<FracDecision>,
    /// Where each solve's outcome is reported (disabled unless a driver
    /// hands one over through `set_telemetry`).
    telemetry: Telemetry,
}

impl FedLPolicy {
    /// Builds the policy for a federation of `num_clients` clients with
    /// long-term budget `budget` and participation floor
    /// `min_participants`.
    pub fn new(
        config: FedLConfig,
        num_clients: usize,
        budget: f64,
        min_participants: usize,
    ) -> Self {
        let steps = match config.fixed_steps {
            Some((beta, delta)) => StepSizes::fixed(beta, delta),
            None => {
                let base = StepSizes::corollary1(
                    budget,
                    min_participants,
                    config.mean_cost_estimate,
                    config.step_scale,
                );
                StepSizes::fixed(base.beta, base.delta * config.dual_scale.max(1e-9))
            }
        };
        // Anchor prior n/M: on average a budget-efficient policy keeps
        // about n of the M clients selected.
        let prior_x = (min_participants as f64 / num_clients.max(1) as f64).clamp(0.02, 0.5);
        let learner = OnlineLearner::new(num_clients, steps, config.theta, config.rho_max, prior_x)
            .with_fairness(config.fairness_weight);
        Self {
            learner,
            tracker: RegretTracker::new(num_clients),
            track_regret: true,
            rng: Xoshiro256pp::seed_from_u64(derive_seed(0xFED1, num_clients as u64)),
            independent_rounding: config.independent_rounding,
            problem: OneShot::default(),
            rdcs: RdcsScratch::new(),
            selected: Vec::new(),
            pending: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Disables the per-epoch regret/fit accounting. The tracker's
    /// hindsight comparator re-solves the observed epoch's problem,
    /// which costs more than the selection itself at service-scale
    /// populations; execution layers that never plot regret curves
    /// (fedl-dist, the loadgen reference) opt out here. Selections are
    /// bit-identical either way — the tracker never feeds back into
    /// decisions.
    pub fn without_regret_tracking(mut self) -> Self {
        self.track_regret = false;
        self
    }

    /// The regret/fit tracker accumulated so far.
    pub fn tracker(&self) -> &RegretTracker {
        &self.tracker
    }

    /// The online learner (exposed for theory-validation benches).
    pub fn learner(&self) -> &OnlineLearner {
        &self.learner
    }

    /// The instance of eq. (8) the last `select` solved. Valid until the
    /// epoch's `observe` moves the anchor and the multipliers.
    pub fn posed(&self) -> Posed {
        let ids = &self.problem.ids;
        let (mu0, mu_all) = self.learner.multipliers();
        let state = self.learner.state();
        Posed {
            problem: self.problem.clone(),
            anchor: FracDecision {
                x: ids.iter().map(|&k| state.columns().last_x[k]).collect(),
                rho: state.last_rho,
            },
            mu: std::iter::once(mu0).chain(ids.iter().map(|&k| mu_all[k])).collect(),
            beta: self.learner.steps().beta,
        }
    }

    /// The fractional decision awaiting its epoch's outcome, if any.
    pub fn pending(&self) -> Option<&FracDecision> {
        self.pending.as_ref()
    }
}

/// One instance of eq. (8) as FedL posed it: what a bench or a test
/// needs to solve it again (`problem.descend(&anchor, &mu, beta)`).
#[derive(Debug, Clone)]
pub struct Posed {
    /// The epoch's coefficients and feasible set.
    pub problem: OneShot,
    /// The previous fractional decision the step is anchored at.
    pub anchor: FracDecision,
    /// `[μ⁰, μ^k…]` aligned with the problem's ids.
    pub mu: Vec<f64>,
    /// The primal step size β.
    pub beta: f64,
}

impl SelectionPolicy for FedLPolicy {
    fn name(&self) -> &'static str {
        "FedL"
    }

    fn select(&mut self, ctx: &EpochContext) -> SelectionDecision {
        self.learner.build_problem_into(ctx, &mut self.problem);
        let frac = self.learner.decide(ctx, &self.problem);
        if self.telemetry.enabled() {
            let solve = self.learner.last_solve();
            self.telemetry.histogram("core.solve.projections").record(solve.projections as f64);
            if solve.budget_relaxed {
                self.telemetry.counter("core.solve.budget_relaxed").incr();
            }
            if !solve.convex {
                self.telemetry.counter("core.solve.nonconvex").incr();
            }
        }

        // Round the fractional selection (Alg. 2), then repair the
        // constraints rounding cannot preserve (budget heterogeneity).
        let mut x = frac.x.clone();
        if self.independent_rounding {
            self.selected = rounding::independent(&mut x, &mut self.rng);
        } else {
            rounding::rdcs_with(&mut x, &mut self.rng, &mut self.rdcs, &mut self.selected);
        }
        rounding::repair(
            &mut self.selected,
            &self.problem.costs,
            self.problem.effective_n(),
            ctx.remaining_budget,
        );
        let cohort: Vec<usize> = self.selected.iter().map(|&pos| ctx.available[pos]).collect();
        let iterations = frac.iterations();
        self.pending = Some(frac);
        SelectionDecision { cohort, iterations }
    }

    fn observe(&mut self, ctx: &EpochContext, report: &EpochReport) {
        let frac = self.pending.take().expect("observe without a preceding select");
        if self.track_regret {
            self.tracker.record(&self.problem, &frac, report);
        }
        self.learner.observe(ctx, report, &frac, &self.problem);
        self.learner.recycle(frac);
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn regret_tracker(&self) -> Option<&RegretTracker> {
        Some(&self.tracker)
    }

    fn client_estimate(&self, client: usize) -> Option<f64> {
        self.learner.state().stats(client).map(|s| s.eta)
    }

    /// Captures *everything* that feeds future decisions — learner,
    /// regret tracker, the RDCS rounding RNG's exact stream position,
    /// and the rounding mode — so a restored run is bit-identical to an
    /// uninterrupted one. The decision held between
    /// `select` and `observe` is not captured, which is why
    /// [`crate::engine::EpochEngine::snapshot`] refuses mid-epoch.
    fn snapshot_state(&self) -> Value {
        obj(vec![
            ("learner", self.learner.to_json_value()),
            ("tracker", self.tracker.to_json_value()),
            ("rng", snapshot::rng_to_json(&self.rng)),
            ("independent_rounding", self.independent_rounding.to_json_value()),
        ])
    }

    /// Refuses a snapshot that does not fit this federation — a learner,
    /// multiplier vector or constraint-sum vector of another size, or a
    /// negative or non-finite multiplier — before it can index out of
    /// bounds or trip the solver's asserts epochs later.
    fn restore_state(&mut self, state: &Value) -> Result<(), fedl_json::Error> {
        let m = self.learner.state().len();
        let learner: OnlineLearner = read_field(state, "learner")?;
        let tracker: RegretTracker = read_field(state, "tracker")?;
        let (mu0, mu) = learner.multipliers();
        let sums = tracker.constraint_sums();
        if learner.state().len() != m || mu.len() != m || sums.len() != m + 1 {
            return Err(fedl_json::Error::msg(format!(
                "checkpoint is for {} clients ({} multipliers, {} constraint sums), not {m}",
                learner.state().len(),
                mu.len(),
                sums.len()
            )));
        }
        if !mu.iter().chain([&mu0]).all(|v| v.is_finite() && *v >= 0.0) {
            return Err(fedl_json::Error::msg("checkpoint carries a negative or non-finite μ"));
        }
        if !sums.iter().all(|v| v.is_finite()) {
            return Err(fedl_json::Error::msg("checkpoint carries a non-finite constraint sum"));
        }
        self.learner = learner;
        self.tracker = tracker;
        self.rng = snapshot::rng_from_json(state.field("rng")?)?;
        self.independent_rounding = read_field(state, "independent_rounding")?;
        self.pending = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::ctx;

    fn report_for(ctx: &EpochContext, d: &SelectionDecision) -> EpochReport {
        let k = d.cohort.len();
        EpochReport {
            epoch: ctx.epoch,
            cohort: d.cohort.clone(),
            iterations: d.iterations,
            latency_secs: 0.5 * d.iterations as f64,
            per_client_iter_latency: vec![0.5; k],
            cost: d.cohort.len() as f64,
            eta_hats: vec![0.4; k],
            global_loss_all: 1.2,
            global_loss_selected: 1.1,
            grad_dot_delta: vec![-0.2; k],
            local_losses: vec![1.2; k],
            failed: vec![],
        }
    }

    #[test]
    fn select_respects_participation_and_budget() {
        let c = ctx(vec![0, 1, 2, 3, 4], vec![2.0, 4.0, 1.0, 3.0, 5.0], 8.0, 2);
        let mut p = FedLPolicy::new(FedLConfig::default(), 5, 8.0, 2);
        for trial in 0..10 {
            let mut c_t = c.clone();
            c_t.epoch = trial;
            let d = p.select(&c_t);
            assert!(d.cohort.len() >= 2, "floor violated: {:?}", d.cohort);
            assert!(d.iterations >= 1);
            let r = report_for(&c_t, &d);
            p.observe(&c_t, &r);
        }
    }

    #[test]
    fn learning_shifts_selection_toward_good_clients() {
        // Clients 0/1 fast and helpful; 2/3 slow and harmful. After
        // enough feedback FedL should prefer 0/1.
        let c = ctx(vec![0, 1, 2, 3], vec![1.0; 4], 1000.0, 2);
        let mut p = FedLPolicy::new(
            FedLConfig { fixed_steps: Some((0.5, 0.5)), ..Default::default() },
            4,
            1000.0,
            2,
        );
        for e in 0..25 {
            let mut c_t = c.clone();
            c_t.epoch = e;
            let d = p.select(&c_t);
            let k = d.cohort.len();
            let mut r = report_for(&c_t, &d);
            r.per_client_iter_latency =
                d.cohort.iter().map(|&id| if id <= 1 { 0.02 } else { 2.0 }).collect();
            r.eta_hats = d.cohort.iter().map(|&id| if id <= 1 { 0.1 } else { 0.9 }).collect();
            r.grad_dot_delta =
                d.cohort.iter().map(|&id| if id <= 1 { -1.0 } else { 0.5 }).collect();
            r.global_loss_all = 1.5; // keep pressure on
            assert_eq!(r.per_client_iter_latency.len(), k);
            p.observe(&c_t, &r);
        }
        // Count selections over further epochs.
        let mut good = 0usize;
        let mut bad = 0usize;
        for e in 25..40 {
            let mut c_t = c.clone();
            c_t.epoch = e;
            let d = p.select(&c_t);
            for &id in &d.cohort {
                if id <= 1 {
                    good += 1;
                } else {
                    bad += 1;
                }
            }
            let r = report_for(&c_t, &d);
            p.observe(&c_t, &r);
        }
        assert!(good > bad, "FedL failed to learn client quality: good {good} vs bad {bad}");
    }

    #[test]
    fn tracker_accumulates() {
        let c = ctx(vec![0, 1, 2], vec![1.0, 1.0, 1.0], 100.0, 2);
        let mut p = FedLPolicy::new(FedLConfig::default(), 3, 100.0, 2);
        for e in 0..4 {
            let mut c_t = c.clone();
            c_t.epoch = e;
            let d = p.select(&c_t);
            let r = report_for(&c_t, &d);
            p.observe(&c_t, &r);
        }
        assert_eq!(p.tracker().epochs(), 4);
        assert!(p.tracker().cumulative_regret().len() == 4);
    }

    #[test]
    #[should_panic(expected = "observe without a preceding select")]
    fn observe_before_select_rejected() {
        let c = ctx(vec![0], vec![1.0], 10.0, 1);
        let mut p = FedLPolicy::new(FedLConfig::default(), 1, 10.0, 1);
        let r = report_for(&c, &SelectionDecision { cohort: vec![0], iterations: 1 });
        p.observe(&c, &r);
    }
}
