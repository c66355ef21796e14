//! Thread-count byte-parity of the FedL decision path: the same epochs
//! driven with the `fedl_linalg::par` team pinned to 1, 2 and 8 threads
//! must produce bit-identical problems, fractional decisions and
//! multipliers. The population is above both the columnar grain and the
//! deterministic-reduction chunk, so the gathers, the dual ascent and the
//! solve's `det_*` folds all take their parallel paths.
//!
//! One `#[test]`: the team size is process-global.

use fedl_core::objective::OneShot;
use fedl_core::online::{OnlineLearner, StepSizes};
use fedl_core::policy::EpochContext;
use fedl_sim::EpochReport;

const M: usize = 10_000;

fn context(epoch: usize) -> EpochContext {
    let available: Vec<usize> = (0..M).filter(|i| (i + epoch) % 7 != 3).collect();
    let k = available.len();
    let wobble = |i: &usize, period: usize| ((i + epoch) % period) as f64;
    EpochContext {
        epoch,
        num_clients: M,
        costs: available.iter().map(|i| 0.5 + wobble(i, 11)).collect(),
        data_volumes: vec![20; k],
        latency_hint: available.iter().map(|i| 0.1 + 0.01 * wobble(i, 13)).collect(),
        loss_hint: vec![2.0; k],
        true_latency: vec![0.1; k],
        available,
        remaining_budget: 50_000.0,
        min_participants: M / 20,
        seed: 0xF00,
    }
}

/// Five epochs of build → decide → observe; every f64 the path produced,
/// as bits.
fn drive() -> Vec<u64> {
    let mut learner = OnlineLearner::new(M, StepSizes::fixed(0.05, 0.5), 1.0, 10.0, 0.05);
    let mut problem = OneShot::default();
    let mut bits = Vec::new();
    for epoch in 0..5 {
        let ctx = context(epoch);
        learner.build_problem_into(&ctx, &mut problem);
        let frac = learner.decide(&ctx, &problem);
        let cohort: Vec<usize> =
            ctx.available.iter().copied().filter(|i| i % 19 == epoch).take(500).collect();
        let nc = cohort.len();
        let report = EpochReport {
            epoch,
            cohort,
            iterations: frac.iterations(),
            latency_secs: 0.4,
            per_client_iter_latency: (0..nc).map(|s| 0.1 + 0.001 * s as f64).collect(),
            cost: nc as f64,
            eta_hats: (0..nc).map(|s| 0.3 + 0.001 * (s % 400) as f32).collect(),
            global_loss_all: 1.6,
            global_loss_selected: 1.5,
            grad_dot_delta: vec![-0.2; nc],
            local_losses: vec![1.5; nc],
            failed: vec![],
        };
        learner.observe(&ctx, &report, &frac, &problem);
        bits.extend(problem.tau.iter().chain(&frac.x).map(|v| v.to_bits()));
        bits.push(frac.rho.to_bits());
        bits.push(learner.last_solve().objective.to_bits());
        let (mu0, mu) = learner.multipliers();
        bits.push(mu0.to_bits());
        bits.extend(mu.iter().map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn decisions_are_bit_identical_at_1_2_and_8_threads() {
    fedl_linalg::par::force_max_threads(1);
    let reference = drive();
    for threads in [2, 8] {
        fedl_linalg::par::force_max_threads(threads);
        assert!(drive() == reference, "{threads} threads diverged from 1");
    }
}
