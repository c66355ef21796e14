//! Integration test of the selection-fairness extension (the paper's
//! stated future-work direction): a positive fairness weight must spread
//! selection across clients, measured by Jain's index on the run trace.

use fedl::core::fedl::{FedLConfig, FedLPolicy};
use fedl::prelude::*;

fn fairness_of(weight: f64) -> (f64, f64) {
    let scenario = ScenarioConfig::small_fmnist(14, 500.0, 3).with_seed(41);
    let env = scenario.build_env();
    let policy = Box::new(FedLPolicy::new(
        FedLConfig { fairness_weight: weight, ..scenario.fedl },
        scenario.env.num_clients,
        scenario.budget,
        scenario.min_participants,
    ));
    let mut runner = ExperimentRunner::with_policy(scenario, env, policy);
    let outcome = runner.run();
    (runner.trace().jain_fairness(14), outcome.final_accuracy())
}

#[test]
fn fairness_weight_spreads_selection() {
    let (jain_plain, acc_plain) = fairness_of(0.0);
    let (jain_fair, acc_fair) = fairness_of(5.0);
    assert!(
        jain_fair > jain_plain + 0.02,
        "fairness weight did not spread selection: {jain_plain:.3} -> {jain_fair:.3}"
    );
    // The fair variant must still learn (fairness trades some speed, not
    // all of it).
    assert!(
        acc_fair > acc_plain * 0.6,
        "fairness collapsed learning: {acc_plain:.3} -> {acc_fair:.3}"
    );
}

#[test]
fn zero_weight_reproduces_plain_fedl() {
    // fairness_weight = 0 must be bit-identical to the default config.
    let run = |config: FedLConfig| {
        let scenario = ScenarioConfig::small_fmnist(10, 300.0, 3).with_seed(43);
        let env = scenario.build_env();
        let policy = Box::new(FedLPolicy::new(config, 10, 300.0, 3));
        let mut runner = ExperimentRunner::with_policy(scenario, env, policy);
        runner.run()
    };
    let a = run(FedLConfig::default());
    let b = run(FedLConfig { fairness_weight: 0.0, ..FedLConfig::default() });
    assert_eq!(a.epochs.len(), b.epochs.len());
    for (x, y) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(x.cohort_size, y.cohort_size);
        assert!((x.accuracy - y.accuracy).abs() < 1e-12);
    }
}

/// The budget ledger stays conserved under the fairness-weighted learner:
/// the per-epoch costs in the trace add up to the final spend, each
/// event's remaining budget is the budget less the costs so far, spend
/// never decreases, only the last epoch may leave the budget at or below
/// zero, and its overshoot is less than its own cost.
#[test]
fn fairness_weighted_runs_conserve_the_ledger() {
    use fedl::core::runner::ModelArch;

    for weight in [0.0, 0.5, 2.0, 8.0] {
        for seed in 0..5u64 {
            let case = format!("weight {weight}, seed {seed}");
            let mut scenario = ScenarioConfig::small_fmnist(10, 300.0, 3).with_seed(50 + seed);
            scenario.train_size = 200;
            scenario.test_size = 40;
            scenario.model = ModelArch::Linear { l2: 0.001 };
            scenario.dane.local_steps = 2;
            let budget = scenario.budget;
            let env = scenario.build_env();
            let policy = Box::new(FedLPolicy::new(
                FedLConfig { fairness_weight: weight, ..scenario.fedl },
                scenario.env.num_clients,
                budget,
                scenario.min_participants,
            ));
            let mut runner = ExperimentRunner::with_policy(scenario, env, policy);
            let outcome = runner.run();
            let events = runner.trace().events();
            assert!(events.len() >= 8, "{case}: only {} epochs ran", events.len());
            assert_eq!(events.len(), outcome.epochs.len(), "{case}: trace and records disagree");

            let mut cumulative = 0.0;
            for (i, event) in events.iter().enumerate() {
                cumulative += event.cost;
                let expected = budget - cumulative;
                assert!(
                    (event.remaining_budget - expected).abs() <= 1e-9 * budget,
                    "{case}, epoch {i}: remaining {} vs budget − costs {expected}",
                    event.remaining_budget
                );
                if i + 1 < events.len() {
                    assert!(event.remaining_budget > 0.0, "{case}: epoch {i} ran past the budget");
                }
            }
            let spent = outcome.epochs.last().expect("epochs ran").spent;
            assert!(
                (cumulative - spent).abs() <= 1e-9 * spent.abs().max(1.0),
                "{case}: Σ cost {cumulative} vs spent {spent}"
            );
            for w in outcome.epochs.windows(2) {
                assert!(
                    w[1].spent >= w[0].spent,
                    "{case}: spend decreased at epoch {}",
                    w[1].epoch
                );
            }
            let last = events.last().expect("non-empty");
            assert!(
                last.remaining_budget <= 0.0,
                "{case}: the run must end by exhausting the budget"
            );
            assert!(
                spent - budget < last.cost,
                "{case}: overshoot {} ≥ the last cost {}",
                spent - budget,
                last.cost
            );
        }
    }
}
