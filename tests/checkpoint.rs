//! Integration test of policy-state checkpointing: a freshly built FedL
//! policy restored from another's `snapshot_state` must continue from
//! exactly the learned estimates and multipliers of the original.

use fedl::core::fedl::{FedLConfig, FedLPolicy};
use fedl::core::policy::{EpochContext, SelectionPolicy};
use fedl::prelude::*;
use fedl::sim::EdgeEnvironment;

/// A fresh policy for `num_clients` clients restored from `original`.
fn restored_from(original: &FedLPolicy, num_clients: usize) -> Result<FedLPolicy, String> {
    let mut fresh = FedLPolicy::new(FedLConfig::default(), num_clients, 350.0, 3);
    fresh.restore_state(&original.snapshot_state()).map_err(|e| e.to_string())?;
    Ok(fresh)
}

fn context_for(env: &EdgeEnvironment, epoch: usize, budget: f64) -> Option<EpochContext> {
    let views = env.views(epoch);
    let available: Vec<usize> = views.iter().filter(|v| v.available).map(|v| v.id).collect();
    if available.is_empty() {
        return None;
    }
    let hints = env.latency_with_share(epoch.saturating_sub(1), &available, 3);
    let truth = env.latency_with_share(epoch, &available, 3);
    Some(EpochContext {
        epoch,
        num_clients: env.num_clients(),
        costs: available.iter().map(|&k| views[k].cost).collect(),
        data_volumes: available.iter().map(|&k| views[k].data_volume).collect(),
        latency_hint: hints,
        loss_hint: vec![2.3; available.len()],
        true_latency: truth,
        available,
        remaining_budget: budget,
        min_participants: 3,
        seed: 51,
    })
}

/// Drives `policy` for `epochs` federated epochs by hand (keeping
/// ownership, unlike `ExperimentRunner`, so the state stays inspectable).
fn drive(policy: &mut FedLPolicy, env: &mut EdgeEnvironment, epochs: usize) {
    let mut budget = 350.0;
    for t in 0..epochs {
        let Some(ctx) = context_for(env, t, budget) else { continue };
        let mut decision = policy.select(&ctx);
        decision.cohort.retain(|id| ctx.available.contains(id));
        if decision.cohort.is_empty() {
            decision.cohort = ctx.available.iter().copied().take(3).collect();
        }
        let report = env.run_epoch(t, &decision.cohort, decision.iterations.clamp(1, 10));
        budget -= report.cost;
        policy.observe(&ctx, &report);
        if budget <= 0.0 {
            break;
        }
    }
}

#[test]
fn checkpoint_round_trips_learner_state() {
    let scenario = ScenarioConfig::small_fmnist(10, 350.0, 3).with_seed(51);
    let mut env = scenario.build_env();
    let mut original = FedLPolicy::new(FedLConfig::default(), 10, 350.0, 3);
    drive(&mut original, &mut env, 12);

    let snapshot = original.snapshot_state().to_json();
    assert!(snapshot.contains("mu0"), "snapshot should carry multipliers");
    let restored = restored_from(&original, 10).expect("valid snapshot");

    // Learned state must match exactly.
    let close = |a: f64, b: f64| a.to_bits() == b.to_bits();
    let (mu0_a, mu_a) = original.learner().multipliers();
    let (mu0_b, mu_b) = restored.learner().multipliers();
    assert!(close(mu0_a, mu0_b));
    assert!(mu_a.iter().zip(mu_b).all(|(&x, &y)| close(x, y)));
    assert!(mu_a.iter().any(|&m| m > 0.0) || mu0_a > 0.0, "run should have built duals");
    for k in 0..10 {
        let a = original.learner().state().stats(k).map(|s| (s.tau, s.eta, s.g, s.last_x));
        let b = restored.learner().state().stats(k).map(|s| (s.tau, s.eta, s.g, s.last_x));
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert!(
                    close(x.0, y.0) && close(x.1, y.1) && close(x.2, y.2) && close(x.3, y.3),
                    "client {k} state diverged: {x:?} vs {y:?}"
                );
            }
            other => panic!("client {k} presence diverged: {other:?}"),
        }
    }
}

#[test]
fn restored_policy_continues_with_identical_estimates() {
    // The restored policy's *fractional* decision (pre-rounding state is
    // what the snapshot carries) must be reproducible: both copies,
    // given the same context, build the same one-shot problem.
    let scenario = ScenarioConfig::small_fmnist(10, 350.0, 3).with_seed(52);
    let mut env = scenario.build_env();
    let mut original = FedLPolicy::new(FedLConfig::default(), 10, 350.0, 3);
    drive(&mut original, &mut env, 8);
    let mut restored = restored_from(&original, 10).unwrap();
    // Compare remembered per-client latency estimates directly.
    for k in 0..10 {
        let a = original.learner().state().stats(k).map(|s| s.tau);
        let b = restored.learner().state().stats(k).map(|s| s.tau);
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "client {k} estimate diverged");
    }
    // And both copies, given the same contexts, decide identically from here on.
    for t in 8..12 {
        let Some(ctx) = context_for(&env, t, 100.0) else { continue };
        let (a, b) = (original.select(&ctx), restored.select(&ctx));
        assert_eq!((a.cohort.clone(), a.iterations), (b.cohort, b.iterations), "epoch {t}");
        let report = env.run_epoch(t, &a.cohort, a.iterations.clamp(1, 10));
        original.observe(&ctx, &report);
        restored.observe(&ctx, &report);
    }
}

#[test]
fn restore_rejects_wrong_federation_size() {
    let policy = FedLPolicy::new(FedLConfig::default(), 6, 100.0, 2);
    assert!(restored_from(&policy, 12).is_err(), "size mismatch must be rejected");
}

#[test]
fn restore_rejects_garbage() {
    // Another policy's state is not a FedL snapshot.
    let mut policy = FedLPolicy::new(FedLConfig::default(), 4, 100.0, 2);
    for foreign in [PolicyKind::FedAvg, PolicyKind::PowD] {
        let state = foreign.build(4, 100.0, 2, FedLConfig::default()).snapshot_state();
        assert!(policy.restore_state(&state).is_err(), "{foreign:?} state must be rejected");
    }
}
