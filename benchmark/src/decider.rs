//! The selection policy taken apart into its public pieces, so the
//! traced pass can put a span around each: FedL as
//! `build_problem_into → decide → rdcs_with + repair` and
//! `RegretTracker::record → observe`, a baseline as one `select`.
//!
//! [`FedLParts`] mirrors `FedLPolicy::new`/`select`/`observe` call for
//! call; the traced pass checks its selections against the real
//! policy's on every epoch, which is what keeps the decomposition
//! honest.

use fedl::core::objective::{FracDecision, OneShot};
use fedl::core::online::{OnlineLearner, StepSizes};
use fedl::core::policy::{EpochContext, PolicyKind, SelectionDecision, SelectionPolicy};
use fedl::core::regret::RegretTracker;
use fedl::core::rounding::{self, RdcsScratch};
use fedl::core::FedLConfig;
use fedl::linalg::rng::{derive_seed, Xoshiro256pp};
use fedl::sim::EpochReport;

use crate::span::Tracer;

/// A problem FedL posed, the multipliers it was solved under (aligned
/// with the problem's ids) and the step size β: what the solver probes
/// re-solve from a cold anchor.
pub type Captured = (OneShot, Vec<f64>, f64);

pub struct FedLParts {
    learner: OnlineLearner,
    /// `None` reproduces `FedLPolicy::without_regret_tracking`.
    tracker: Option<RegretTracker>,
    rng: Xoshiro256pp,
    problem: OneShot,
    rdcs: RdcsScratch,
    selected: Vec<usize>,
    pending: Option<FracDecision>,
}

impl FedLParts {
    /// Same construction as `FedLPolicy::new` for a config without
    /// fixed steps or independent rounding (the defaults every workload
    /// uses).
    fn new(config: FedLConfig, num_clients: usize, budget: f64, n: usize, tracked: bool) -> Self {
        assert!(
            config.fixed_steps.is_none() && !config.independent_rounding,
            "the decomposed policy mirrors the default FedL configuration only"
        );
        let base = StepSizes::corollary1(budget, n, config.mean_cost_estimate, config.step_scale);
        let steps = StepSizes::fixed(base.beta, base.delta * config.dual_scale.max(1e-9));
        let prior_x = (n as f64 / num_clients.max(1) as f64).clamp(0.02, 0.5);
        let learner = OnlineLearner::new(num_clients, steps, config.theta, config.rho_max, prior_x)
            .with_fairness(config.fairness_weight);
        Self {
            learner,
            tracker: tracked.then(|| RegretTracker::new(num_clients)),
            rng: Xoshiro256pp::seed_from_u64(derive_seed(0xFED1, num_clients as u64)),
            problem: OneShot::default(),
            rdcs: RdcsScratch::new(),
            selected: Vec::new(),
            pending: None,
        }
    }

    /// The problem the last `select` posed, as a [`Captured`].
    pub fn captured(&self) -> Captured {
        let (mu0, mu_all) = self.learner.multipliers();
        let mut mu = vec![mu0];
        mu.extend(self.problem.ids.iter().map(|&k| mu_all[k]));
        (self.problem.clone(), mu, self.learner.steps().beta)
    }
}

/// A policy the traced pass can drive with spans around its layers.
pub enum Decider {
    FedL(Box<FedLParts>),
    Baseline(Box<dyn SelectionPolicy>),
}

impl Decider {
    /// The decomposed equivalent of `kind.build(..)` (`tracked`) or
    /// `kind.build_untracked(..)`.
    pub fn new(
        kind: PolicyKind,
        num_clients: usize,
        budget: f64,
        n: usize,
        config: FedLConfig,
        tracked: bool,
    ) -> Self {
        match kind {
            PolicyKind::FedL => {
                Decider::FedL(Box::new(FedLParts::new(config, num_clients, budget, n, tracked)))
            }
            other => Decider::Baseline(other.build(num_clients, budget, n, config)),
        }
    }

    pub fn fedl(&self) -> Option<&FedLParts> {
        match self {
            Decider::FedL(parts) => Some(parts),
            Decider::Baseline(_) => None,
        }
    }

    pub fn select(
        &mut self,
        ctx: &EpochContext,
        tr: &mut Tracer,
        parent: u64,
        epoch: u64,
    ) -> SelectionDecision {
        let (parent, epoch) = (Some(parent), Some(epoch));
        match self {
            Decider::Baseline(policy) => {
                tr.time("core.baseline_select", parent, epoch, || policy.select(ctx))
            }
            Decider::FedL(p) => {
                ctx.validate();
                let FedLParts { learner, problem, rng, rdcs, selected, .. } = &mut **p;
                tr.time("core.build_problem", parent, epoch, || {
                    learner.build_problem_into(ctx, problem)
                });
                let frac = tr.time("core.solve", parent, epoch, || learner.decide(ctx, problem));
                let cohort = tr.time("core.round", parent, epoch, || {
                    let mut x = frac.x.clone();
                    rounding::rdcs_with(&mut x, rng, rdcs, selected);
                    rounding::repair(
                        selected,
                        &problem.costs,
                        problem.effective_n(),
                        ctx.remaining_budget,
                    );
                    selected.iter().map(|&pos| ctx.available[pos]).collect()
                });
                let iterations = frac.iterations();
                p.pending = Some(frac);
                SelectionDecision { cohort, iterations }
            }
        }
    }

    pub fn observe(
        &mut self,
        ctx: &EpochContext,
        report: &EpochReport,
        tr: &mut Tracer,
        parent: u64,
        epoch: u64,
    ) {
        let (parent, epoch) = (Some(parent), Some(epoch));
        match self {
            Decider::Baseline(policy) => policy.observe(ctx, report),
            Decider::FedL(p) => {
                let frac = p.pending.take().expect("observe without a preceding select");
                let FedLParts { learner, tracker, problem, .. } = &mut **p;
                if let Some(tracker) = tracker {
                    tr.time("core.regret_record", parent, epoch, || {
                        tracker.record(problem, &frac, report)
                    });
                }
                tr.time("core.observe", parent, epoch, || {
                    learner.observe(ctx, report, &frac, problem)
                });
            }
        }
    }
}
