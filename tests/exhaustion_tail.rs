//! FedL driven to budget exhaustion — the regime no other test or
//! benchmark workload reaches. In the last epochs the budget row of
//! eq. (8) binds, then cannot be met at all and is relaxed to the
//! cheapest-`n` sum: the old PGD + Dykstra solve spent seconds there and
//! could return `Σx < n`. Two runs end at the ledger's line, one through
//! `ExperimentRunner` and one over the served reference loop, and on
//! every epoch the fractional decision is feasible, the cohort is never
//! short, and the solve stays within a fixed number of projections (a
//! count, so a slow host cannot fail it). On the served run's instances
//! the exact solve is also never worse than the old solver, kept as an
//! oracle under `crates/core/tests/oracle`. The served run's tracked twin
//! takes the regret tracker to exhaustion too, where the hindsight
//! comparator's budget row binds and is then relaxed: same selections,
//! and a finite `f*` at a feasible answer on every epoch. The same served
//! loop, tracked and stopped early, records the comparator's instances
//! at K ≈ 80 (`serve_fedl_m100`'s shape), where its Ψ is never above the
//! three-start penalty PGD it replaced.

#[path = "../crates/core/tests/oracle/mod.rs"]
mod oracle;

use std::sync::{Arc, Mutex};

use fedl::core::columnar::context_at;
use fedl::core::engine::{EngineError, EpochEngine};
use fedl::core::fedl::{FedLPolicy, Posed};
use fedl::core::objective::{FracDecision, OneShot, SolveOutcome};
use fedl::core::policy::{EpochContext, SelectionDecision, SelectionPolicy};
use fedl::core::regret::{hindsight_optimum, HindsightScratch};
use fedl::net::ChannelModel;
use fedl::prelude::*;
use fedl::serve::{reference_run, synth_train_result};
use fedl::sim::{EpochReport, Population};

/// What FedL posed, decided and reported on one epoch, and — when it
/// tracks regret — what its hindsight comparator solved, with the `f*`
/// it recorded.
struct Seen {
    posed: Posed,
    frac: FracDecision,
    solve: SolveOutcome,
    cohort: Vec<usize>,
    hindsight: Option<(OneShot, f64)>,
}

/// FedL with every epoch's instance, decision and solve outcome kept.
struct Watched(FedLPolicy, Arc<Mutex<Vec<Seen>>>);

impl SelectionPolicy for Watched {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn select(&mut self, ctx: &EpochContext) -> SelectionDecision {
        let decision = self.0.select(ctx);
        self.1.lock().expect("single-threaded").push(Seen {
            posed: self.0.posed(),
            frac: self.0.pending().expect("select leaves its decision pending").clone(),
            solve: self.0.learner().last_solve(),
            cohort: decision.cohort.clone(),
            hindsight: None,
        });
        decision
    }

    fn observe(&mut self, ctx: &EpochContext, report: &EpochReport) {
        self.0.observe(ctx, report);
        let tracker = self.0.tracker();
        if let Some(&f_star) = tracker.f_hindsight().last() {
            let mut seen = self.1.lock().expect("single-threaded");
            let last = seen.last_mut().expect("observe follows a select");
            last.hindsight = Some((tracker.observed().clone(), f_star));
        }
    }
}

fn watched(
    fedl: FedLConfig,
    clients: usize,
    budget: f64,
    n: usize,
    tracked: bool,
) -> (Watched, Arc<Mutex<Vec<Seen>>>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut policy = FedLPolicy::new(fedl, clients, budget, n);
    if !tracked {
        policy = policy.without_regret_tracking();
    }
    (Watched(policy, seen.clone()), seen)
}

/// The per-epoch contract, and that the run saw the regimes it is for.
fn check_every_epoch(seen: &[Seen], n: usize) {
    assert!(!seen.is_empty());
    for (epoch, s) in seen.iter().enumerate() {
        let problem = &s.posed.problem;
        let set = problem.feasible_set();
        let floor = n.min(problem.ids.len());
        let sum: f64 = s.frac.x.iter().sum();
        let spend: f64 = s.frac.x.iter().zip(&problem.costs).map(|(x, c)| x * c).sum();
        assert!(
            s.frac.x.iter().all(|&x| (0.0..=1.0).contains(&x)),
            "epoch {epoch}: x outside the box"
        );
        assert!(sum >= floor as f64 - 1e-9, "epoch {epoch}: Σx = {sum} < {floor}");
        assert!(spend <= set.cap() + 1e-9, "epoch {epoch}: Σc·x = {spend} > cap {}", set.cap());
        assert!(s.cohort.len() >= floor, "epoch {epoch}: cohort {} < {floor}", s.cohort.len());
        let cap = if s.solve.convex { 64 } else { 256 };
        assert!(s.solve.projections <= cap, "epoch {epoch}: {:?}", s.solve);
    }
    let last = &seen[seen.len() - 1];
    assert!(last.solve.active.budget, "the budget row never bound: {:?}", last.solve);
}

#[test]
fn runner_reaches_the_ledger_line_with_every_decision_feasible() {
    let scenario = ScenarioConfig::small_fmnist(100, 4_500.0, 10).with_seed(3);
    let (policy, seen) = watched(scenario.fedl, 100, scenario.budget, 10, false);
    let env = scenario.build_env();
    let (budget, cap) = (scenario.budget, scenario.max_epochs);
    let mut runner = ExperimentRunner::with_policy(scenario, env, Box::new(policy));
    let outcome = runner.run();
    assert!(outcome.epochs.len() < cap, "the epoch cap, not the budget, ended the run");
    let spent = outcome.epochs.last().expect("at least one epoch").spent;
    assert!(spent >= budget, "run stopped at {spent} of {budget}");
    assert!(!runner.step(), "an exhausted runner must refuse another epoch");
    check_every_epoch(&seen.lock().expect("single-threaded"), 10);
}

/// `(epoch, cohort, iterations)` of an epoch that selected.
type Selection = (usize, Vec<usize>, usize);

/// `reference_run`'s loop around a watched FedL policy: every epoch that
/// selected, and what the policy saw. Runs `epochs` epochs, or with
/// `None` to the ledger's line, which must come within 60.
fn served(
    config: &ServeConfig,
    tracked: bool,
    epochs: Option<usize>,
) -> (Vec<Selection>, Vec<Seen>) {
    let clients = config.env.num_clients;
    let (policy, seen) =
        watched(config.fedl, clients, config.budget, config.min_participants, tracked);
    let channel = ChannelModel::default();
    let latency = config.latency_model();
    let mut population = Population::new(config.env.clone(), latency);
    let cols = population.columns().clone();
    let mut engine = EpochEngine::new(Box::new(policy), config.budget);
    let mut context = |engine: &EpochEngine, epoch| {
        context_at(&mut population, epoch, None, engine.remaining(), config.min_participants)
    };
    let mut selections = Vec::new();
    let mut epoch = 0;
    while epochs.map_or(!engine.exhausted(), |cap| epoch < cap) {
        assert!(epoch < 60, "budget {} must be gone within 60 epochs", config.budget);
        let selected = engine.select(context(&engine, epoch)).expect("idle and within budget");
        if let Some((cohort, iterations)) = selected {
            let synth =
                synth_train_result(&cols, config, &channel, &latency, epoch, &cohort, iterations);
            engine.settle(&synth.to_report(epoch, &cohort, iterations)).expect("selected above");
            selections.push((epoch, cohort, iterations));
        }
        epoch += 1;
    }
    if epochs.is_none() {
        assert_eq!(engine.select(context(&engine, epoch)), Err(EngineError::Exhausted));
        assert!(engine.remaining() <= 0.0);
    }
    let seen = std::mem::take(&mut *seen.lock().expect("single-threaded"));
    (selections, seen)
}

#[test]
fn served_reference_ends_by_a_typed_exhausted_and_never_loses_to_the_old_solver() {
    let config = ServeConfig::new(1000, 9, 20_000.0, 100, PolicyKind::FedL);
    let (selections, seen) = served(&config, false, None);
    // The loop above is the reference, not a cousin of it.
    let reference = reference_run(&config, 60);
    let reference: Vec<_> = reference
        .into_iter()
        .filter(|r| !r.cohort.is_empty())
        .map(|r| (r.epoch, r.cohort, r.iterations))
        .collect();
    assert_eq!(selections, reference);
    check_every_epoch(&seen, 100);

    // Never worse than PGD over Dykstra wherever that lands in the set:
    // a spread of mid-run instances and the last three, where it is at
    // its slowest and least feasible.
    let picks = (0..seen.len() - 3).step_by(8).chain(seen.len() - 3..seen.len());
    let mut compared = 0;
    for i in picks {
        let Posed { problem, anchor, mu, beta } = &seen[i].posed;
        let (old, _) = oracle::descend_pgd(problem, &anchor.x, anchor.rho, mu, *beta);
        if !oracle::feasible(problem, &old, 1e-9) {
            continue;
        }
        compared += 1;
        let old = oracle::nearest_feasible(problem, &old);
        let objective = |at: &FracDecision| {
            problem.descent_objective(&anchor.x, anchor.rho, mu, *beta, &at.x, at.rho)
        };
        let (f_new, f_old) = (objective(&seen[i].frac), objective(&old));
        assert!(f_new <= f_old + 1e-9, "epoch {i}: exact {f_new} vs PGD {f_old}");
        assert_eq!(seen[i].solve.objective, f_new);
    }
    assert!(compared >= 3, "PGD was feasible on only {compared} of the compared instances");
}

#[test]
fn tracked_served_run_to_exhaustion_selects_the_same_and_answers_every_comparator() {
    let config = ServeConfig::new(1000, 9, 20_000.0, 100, PolicyKind::FedL);
    let (untracked, _) = served(&config, false, None);
    let (tracked, seen) = served(&config, true, None);
    assert_eq!(tracked, untracked, "the tracker moved a selection");
    assert_eq!(seen.len(), tracked.len());
    let mut scratch = HindsightScratch::default();
    let mut star = FracDecision { x: Vec::new(), rho: f64::NAN };
    let mut on_budget_row = 0;
    for (epoch, s) in seen.iter().enumerate() {
        let (observed, f_star) = s.hindsight.as_ref().expect("a tracked epoch records");
        assert!(f_star.is_finite(), "epoch {epoch}: f* = {f_star}");
        answer(observed, *f_star, &mut scratch, &mut star, &format!("epoch {epoch}"));
        let spend: f64 = star.x.iter().zip(&observed.costs).map(|(x, c)| x * c).sum();
        let cap = observed.feasible_set().cap();
        on_budget_row += usize::from(spend >= cap - 1e-9 * (1.0 + cap));
    }
    assert!(on_budget_row >= 1, "the comparator's budget row never bound");
}

/// The comparator's answer to `observed` into `star`, checked to be in
/// the feasible set and to be where the tracker's `f*` was read.
fn answer(
    observed: &OneShot,
    f_star: f64,
    scratch: &mut HindsightScratch,
    star: &mut FracDecision,
    what: &str,
) {
    hindsight_optimum(observed, scratch, star);
    assert!(oracle::feasible(observed, star, 1e-9), "{what}: infeasible comparator {star:?}");
    assert_eq!(f_star, observed.f_value(&star.x, star.rho), "{what}: f* is not f at the answer");
}

#[test]
fn never_above_the_three_start_pgd_on_served_instances() {
    let mut scratch = HindsightScratch::default();
    let mut star = FracDecision { x: Vec::new(), rho: f64::NAN };
    let (mut compared, mut lower) = (0, 0);
    for seed in 1..=22 {
        let config = ServeConfig::new(100, seed, 30_000.0, 10, PolicyKind::FedL);
        let (_, seen) = served(&config, true, Some(30));
        for (epoch, s) in seen.iter().enumerate() {
            let what = format!("seed {seed} epoch {epoch}");
            let (p, f_star) = s.hindsight.as_ref().expect("a tracked epoch records");
            assert!(p.ids.len() >= 60, "{what}: K = {} is not served-sized", p.ids.len());
            answer(p, *f_star, &mut scratch, &mut star, &what);
            let old = oracle::hindsight_pgd(p);
            let (psi, psi_old) =
                (oracle::penalised(p, &star.x, star.rho), oracle::penalised(p, &old.x, old.rho));
            let slack = 1e-9 * (1.0 + psi_old.abs());
            assert!(psi <= psi_old + slack, "{what}: exact Ψ {psi} above the PGD's {psi_old}");
            compared += 1;
            if psi < psi_old - slack {
                lower += 1;
            }
        }
    }
    eprintln!(
        "exact Ψ strictly below the three-start PGD on {lower} of {compared} served instances"
    );
    assert!(compared >= 600, "only {compared} instances recorded");
}
