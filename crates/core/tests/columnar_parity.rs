//! Columnar-vs-scalar determinism parity (docs/SCALE.md).
//!
//! The million-client scale-out rebuilt the population store
//! (`fedl_sim::ClientColumns`), the epoch realization
//! (`fedl_sim::EpochColumns`), the learner memory
//! (`fedl_core::state::ScoreColumns`), and RDCS rounding (a rank-select
//! bitmap) as dense columnar kernels. The scalar
//! realization and the Alg. 2 transcription they replaced live on as
//! test oracles (`crates/sim/tests/oracle`, `oracle/rdcs.rs`); these
//! tests hold each pair bit-identical on seeded populations at M = 100
//! and M = 10 000 and drive a full 100 000-client scheduler epoch through
//! the columnar path end-to-end.

// The oracle's base gains and path losses are checked in fedl-sim.
#[allow(dead_code)]
#[path = "../../sim/tests/oracle/mod.rs"]
mod oracle;
#[path = "oracle/rdcs.rs"]
mod rdcs_oracle;

use fedl_core::columnar::{context_at, scale_context};
use fedl_core::objective::OneShot;
use fedl_core::online::{OnlineLearner, StepSizes};
use fedl_core::policy::EpochContext;
use fedl_core::rounding::{self, RdcsScratch};
use fedl_core::{FedLConfig, PolicyKind};
use fedl_json::{FromJson, ToJson, Value};
use fedl_linalg::rng::{rng_for, Rng};
use fedl_net::{ChannelModel, LatencyModel};
use fedl_sim::{ClientColumns, EnvConfig, EpochClientView, EpochReport, Population, ScaleTier};
use oracle::ClientProfile;
use rdcs_oracle::rdcs_reference;

fn rdcs(x: &mut [f64], rng: &mut impl Rng) -> Vec<usize> {
    let mut selected = Vec::new();
    rounding::rdcs_with(x, rng, &mut RdcsScratch::new(), &mut selected);
    selected
}

fn build_problem(learner: &mut OnlineLearner, ctx: &EpochContext) -> OneShot {
    let mut problem = OneShot::default();
    learner.build_problem_into(ctx, &mut problem);
    problem
}

/// Synthetic sample width used by every context in this file; any value
/// works as long as both construction paths share it.
const BITS_PER_SAMPLE: f64 = 64.0;

fn population(m: usize, seed: u64) -> (EnvConfig, ChannelModel, ClientColumns, Vec<ClientProfile>) {
    let config = if m >= 10_000 {
        assert_eq!(m, ScaleTier::Tier10k.num_clients(), "only the 10k tier is scalar-tractable");
        EnvConfig::scale(ScaleTier::Tier10k, seed)
    } else {
        EnvConfig::small(m, seed)
    };
    let channel = ChannelModel::default();
    let cols = ClientColumns::build(&config, &channel);
    let pools = (0..m).map(|k| vec![k]).collect();
    let profiles = ClientProfile::build_population(&config, &channel, pools);
    (config, channel, cols, profiles)
}

/// The runner-shaped context assembled the pre-columnar way: one
/// `epoch_view` per client, one scalar latency-model call per available
/// client. This is the reference `scale_context` must reproduce.
#[allow(clippy::too_many_arguments)]
fn reference_context(
    profiles: &[ClientProfile],
    config: &EnvConfig,
    channel: &ChannelModel,
    latency: &LatencyModel,
    hint_epoch: usize,
    epoch: usize,
    budget: f64,
    n: usize,
) -> Option<EpochContext> {
    let now: Vec<EpochClientView> =
        profiles.iter().map(|p| p.epoch_view(epoch, config, channel)).collect();
    let hint: Vec<EpochClientView> =
        profiles.iter().map(|p| p.epoch_view(hint_epoch, config, channel)).collect();
    let available: Vec<usize> = now.iter().filter(|v| v.available).map(|v| v.id).collect();
    if available.is_empty() {
        return None;
    }
    let share_model = LatencyModel { bandwidth_hz: latency.bandwidth_hz / n as f64, ..*latency };
    let lat_of = |views: &[EpochClientView], k: usize| {
        share_model.per_iteration_secs(
            &[&views[k].radio],
            &[&profiles[k].compute],
            &[views[k].data_volume],
        )[0]
    };
    Some(EpochContext {
        epoch,
        num_clients: profiles.len(),
        costs: available.iter().map(|&k| now[k].cost).collect(),
        data_volumes: available.iter().map(|&k| now[k].data_volume).collect(),
        latency_hint: available.iter().map(|&k| lat_of(&hint, k)).collect(),
        true_latency: available.iter().map(|&k| lat_of(&now, k)).collect(),
        loss_hint: vec![(10.0f64).ln(); available.len()],
        available,
        remaining_budget: budget,
        min_participants: n,
        seed: config.seed,
    })
}

fn assert_contexts_bit_identical(a: &EpochContext, b: &EpochContext, what: &str) {
    assert_eq!(a.available, b.available, "{what}: availability sets differ");
    assert_eq!(a.data_volumes, b.data_volumes, "{what}: data volumes differ");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&a.costs), bits(&b.costs), "{what}: costs differ");
    assert_eq!(bits(&a.latency_hint), bits(&b.latency_hint), "{what}: latency hints differ");
    assert_eq!(bits(&a.true_latency), bits(&b.true_latency), "{what}: true latencies differ");
    assert_eq!(bits(&a.loss_hint), bits(&b.loss_hint), "{what}: loss hints differ");
}

#[test]
fn contexts_bit_identical_to_scalar_reference() {
    for &m in &[100usize, 10_000] {
        let (config, channel, cols, profiles) = population(m, 0x5CA1E);
        let latency = LatencyModel::paper_defaults(config.upload_bits, BITS_PER_SAMPLE);
        let n = (m / 10).max(2);
        for epoch in [0usize, 3] {
            let hint_epoch = epoch.saturating_sub(1);
            let e_hint = cols.epoch_columns(hint_epoch, &config, &channel);
            let e_now = cols.epoch_columns(epoch, &config, &channel);
            let col =
                scale_context(&cols, &e_hint, &e_now, &latency, 500.0, n, config.seed).unwrap();
            let refc = reference_context(
                &profiles, &config, &channel, &latency, hint_epoch, epoch, 500.0, n,
            )
            .unwrap();
            assert_contexts_bit_identical(&col, &refc, &format!("M={m} epoch={epoch}"));
        }
    }
}

#[test]
fn population_contexts_equal_fresh_ones_and_honour_the_mask() {
    // What every driver calls — `context_at` over the population's window
    // — against `scale_context` over fresh realizations; masked, against
    // the mask applied to a copy. A window slot handed out stale, or a
    // mask written into one, breaks an equality below.
    let (config, channel, cols, _) = population(100, 0x26);
    let latency = LatencyModel::paper_defaults(config.upload_bits, BITS_PER_SAMPLE);
    let mut window = Population::new(config.clone(), latency);
    let registered: Vec<bool> = (0..100).map(|k| k % 3 != 0).collect();
    for epoch in 0..4usize {
        let hint = cols.epoch_columns(epoch.saturating_sub(1), &config, &channel);
        let now = cols.epoch_columns(epoch, &config, &channel);
        let want = scale_context(&cols, &hint, &now, &latency, 250.0, 4, config.seed).unwrap();
        let got = context_at(&mut window, epoch, None, 250.0, 4).unwrap();
        assert_contexts_bit_identical(&got, &want, &format!("epoch {epoch}"));
        let mut masked = now.clone();
        for (avail, &reg) in masked.available.iter_mut().zip(&registered) {
            *avail &= reg;
        }
        let want = scale_context(&cols, &hint, &masked, &latency, 250.0, 4, config.seed).unwrap();
        let got = context_at(&mut window, epoch, Some(&registered), 250.0, 4).unwrap();
        assert_contexts_bit_identical(&got, &want, &format!("epoch {epoch}, masked"));
        assert_eq!(window.advance(epoch).now.available, now.available, "the mask leaked");
    }
    assert_eq!(window.realizations(), 4);
}

#[test]
fn policies_select_identically_on_columnar_and_reference_contexts() {
    // Identical context bits in, identical cohorts out — across the
    // learned policy (FedL: columnar score store + det_sum objective +
    // bitmap RDCS) and the two memoryless baselines, at both tiers.
    for &m in &[100usize, 10_000] {
        let (config, channel, cols, profiles) = population(m, 0xD1FF);
        let latency = LatencyModel::paper_defaults(config.upload_bits, BITS_PER_SAMPLE);
        let n = (m / 100).max(2);
        let budget = 10_000.0;
        let e0 = cols.epoch_columns(0, &config, &channel);
        let col = scale_context(&cols, &e0, &e0, &latency, budget, n, config.seed).unwrap();
        let refc =
            reference_context(&profiles, &config, &channel, &latency, 0, 0, budget, n).unwrap();
        assert_contexts_bit_identical(&col, &refc, &format!("M={m} epoch=0"));
        for kind in [PolicyKind::FedL, PolicyKind::FedAvg, PolicyKind::PowD] {
            let mut on_columns = kind.build(m, budget, n, FedLConfig::default());
            let mut on_reference = kind.build(m, budget, n, FedLConfig::default());
            let a = on_columns.select(&col);
            let b = on_reference.select(&refc);
            assert_eq!(a, b, "{} diverges at M={m}", kind.label());
            assert!(a.cohort.iter().all(|k| col.available.contains(k)));
            assert!(a.cohort.len() >= col.effective_n().min(a.cohort.len()));
        }
    }
}

/// The two roundings draw the same values from the generator: after
/// each call, both streams' next outputs agree.
fn assert_same_rounding(x0: &[f64], seed: u64, stream: u64, what: &str) {
    let (mut xa, mut xb) = (x0.to_vec(), x0.to_vec());
    let (mut rng_a, mut rng_b) = (rng_for(seed, stream), rng_for(seed, stream));
    let sel_new = rdcs(&mut xa, &mut rng_a);
    let sel_ref = rdcs_reference(&mut xb, &mut rng_b);
    assert_eq!(sel_new, sel_ref, "{what}: selected sets differ");
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&xa), bits(&xb), "{what}: rounded vectors differ");
    assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{what}: generator consumption differs");
}

#[test]
fn rdcs_matches_reference_bit_for_bit() {
    for n in [1usize, 2, 3, 7, 50, 63, 64, 65, 257, 4096, 4097] {
        for seed in 0..20u64 {
            let mut r = rng_for(seed, 123);
            let mut x0: Vec<f64> = (0..n).map(|_| r.gen::<f64>()).collect();
            // Sprinkle in exactly-integral coordinates.
            if n >= 3 {
                x0[0] = 1.0;
                x0[n / 2] = 0.0;
            }
            assert_same_rounding(&x0, seed, 7, &format!("n={n} seed={seed}"));
        }
    }
}

#[test]
fn rounding_matches_reference_at_10k() {
    let k = 10_000;
    let mut seed_rng = rng_for(0xF31, k as u64);
    let x0: Vec<f64> = (0..k).map(|_| seed_rng.next_f64()).collect();
    assert_same_rounding(&x0, 0xF32, k as u64, "k=10000");
}

#[test]
fn hundred_k_scheduler_epoch_completes_through_columns() {
    // The acceptance tier: one full scheduler epoch — context assembly,
    // problem build, rounding, repair, and the realized-epoch fold-back
    // — through the columnar path at M = 100 000. The PGD descent step
    // is exercised at the scalar-tractable tiers above; its iteration
    // count does not grow with M (docs/SCALE.md).
    let tier = ScaleTier::Tier100k;
    let m = tier.num_clients();
    let config = EnvConfig::scale(tier, 0xACCE);
    let channel = ChannelModel::default();
    let cols = ClientColumns::build(&config, &channel);
    assert_eq!(cols.len(), m);
    let e0 = cols.epoch_columns(0, &config, &channel);
    let e1 = cols.epoch_columns(1, &config, &channel);
    let latency = LatencyModel::paper_defaults(config.upload_bits, BITS_PER_SAMPLE);
    let n = 50;
    let budget = 5_000.0;
    let ctx = scale_context(&cols, &e0, &e1, &latency, budget, n, config.seed).unwrap();
    ctx.validate();
    assert_eq!(ctx.num_clients, m);
    assert!(ctx.available.len() > m / 2, "Bernoulli(0.8) availability collapsed");

    let mut learner = OnlineLearner::new(m, StepSizes::fixed(0.3, 0.3), 1.0, 10.0, 0.05);
    let problem = build_problem(&mut learner, &ctx);
    assert_eq!(problem.ids, ctx.available);

    // A deterministic fractional decision in place of the descent step.
    let frac_x: Vec<f64> = (0..ctx.available.len()).map(|i| (i % 10) as f64 / 10.0).collect();
    let mut rounded = frac_x.clone();
    let mut rng = rng_for(config.seed, 0x100_000);
    let mut slots = rdcs(&mut rounded, &mut rng);
    let mass: f64 = frac_x.iter().sum();
    assert!(
        (slots.len() as f64 - mass).abs() <= 1.0,
        "RDCS must preserve the fractional mass: {} picks for Σx̃ = {mass}",
        slots.len()
    );
    rounding::repair(&mut slots, &ctx.costs, n, budget);
    assert!(slots.len() >= n, "repair must keep the participation floor");
    let cohort: Vec<usize> = slots.iter().take(64).map(|&s| ctx.available[s]).collect();

    let nc = cohort.len();
    let report = EpochReport {
        epoch: 1,
        cohort: cohort.clone(),
        iterations: 2,
        latency_secs: 0.5,
        per_client_iter_latency: vec![0.25; nc],
        cost: nc as f64,
        eta_hats: vec![0.5f32; nc],
        global_loss_all: 1.2,
        global_loss_selected: 1.1,
        grad_dot_delta: vec![-0.1f32; nc],
        local_losses: vec![1.2f32; nc],
        failed: vec![],
    };
    let frac = fedl_core::objective::FracDecision { x: frac_x, rho: 2.0 };
    learner.observe(&ctx, &report, &frac, &problem);

    let (mu0, mu) = learner.multipliers();
    assert!(mu0.is_finite() && mu0 >= 0.0);
    assert_eq!(mu.len(), m);
    assert!(mu.iter().all(|v| v.is_finite() && *v >= 0.0));
    assert_eq!(learner.state().len(), m);
    for &k in &cohort {
        let s = learner.state().stats(k).expect("cohort members must be remembered");
        assert!(s.observations >= 1, "client {k} lost its observation");
    }
}

#[test]
fn learner_snapshot_round_trips_at_10k() {
    // The columnar score store must stay snapshot/restorable through
    // the fedl-store contract at scale-tier populations.
    let tier = ScaleTier::Tier10k;
    let m = tier.num_clients();
    let config = EnvConfig::scale(tier, 0x570E);
    let channel = ChannelModel::default();
    let cols = ClientColumns::build(&config, &channel);
    let e0 = cols.epoch_columns(0, &config, &channel);
    let latency = LatencyModel::paper_defaults(config.upload_bits, BITS_PER_SAMPLE);
    let ctx = scale_context(&cols, &e0, &e0, &latency, 1_000.0, 20, config.seed).unwrap();
    let mut learner = OnlineLearner::new(m, StepSizes::fixed(0.3, 0.3), 1.0, 10.0, 0.05);
    let problem = build_problem(&mut learner, &ctx);
    let cohort: Vec<usize> = ctx.available.iter().copied().take(32).collect();
    let nc = cohort.len();
    let report = EpochReport {
        epoch: 0,
        cohort,
        iterations: 2,
        latency_secs: 0.5,
        per_client_iter_latency: vec![0.25; nc],
        cost: nc as f64,
        eta_hats: vec![0.5f32; nc],
        global_loss_all: 1.2,
        global_loss_selected: 1.1,
        grad_dot_delta: vec![-0.1f32; nc],
        local_losses: vec![1.2f32; nc],
        failed: vec![],
    };
    let frac = fedl_core::objective::FracDecision { x: vec![0.1; ctx.available.len()], rho: 2.0 };
    learner.observe(&ctx, &report, &frac, &problem);

    let snapshot = learner.to_json_value().to_json();
    let restored = OnlineLearner::from_json_value(&Value::parse(&snapshot).unwrap())
        .expect("snapshot must parse");
    assert_eq!(restored.to_json_value().to_json(), snapshot, "round-trip must be byte-stable");
    assert_eq!(restored.multipliers().0.to_bits(), learner.multipliers().0.to_bits());
    assert_eq!(restored.state().len(), m);
}
