//! The one-pass DANE step against the nine-pass step it replaced
//! (`tests/oracle/dane.rs`): every `LocalOutcome` field equal bit for
//! bit, through both entry points, over momentum × clip × model family ×
//! working-set size — and on a client whose NaN feature row makes the
//! solve diverge. A NaN compares as NaN, whatever its bits: the sign and
//! payload of a NaN result are unspecified (an optimized build may commute
//! the operands of an add whose inputs are two different NaNs).

#[path = "oracle/dane.rs"]
mod oracle;

use fedl_data::synth::small_fmnist;
use fedl_data::Dataset;
use fedl_linalg::rng::rng_for;
use fedl_ml::dane::{local_update, local_update_scratch, DaneConfig, DaneScratch, LocalOutcome};
use fedl_ml::model::{Mlp, Model, SoftmaxRegression};
use fedl_ml::params::ParamSet;
use fedl_telemetry::Telemetry;

/// `x`'s bits, every NaN as the one canonical NaN.
fn bits(x: f32) -> u32 {
    if x.is_nan() {
        f32::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn all_bits(p: &ParamSet) -> Vec<u32> {
    p.tensors().iter().flat_map(|t| t.as_slice().iter().map(|&x| bits(x))).collect()
}

fn assert_same(got: &LocalOutcome, want: &LocalOutcome, case: &str) {
    assert_eq!(all_bits(&got.delta), all_bits(&want.delta), "{case}: delta");
    assert_eq!(all_bits(&got.grad_at_w), all_bits(&want.grad_at_w), "{case}: grad_at_w");
    assert_eq!(bits(got.eta_hat), bits(want.eta_hat), "{case}: eta_hat");
    assert_eq!(bits(got.loss_at_w), bits(want.loss_at_w), "{case}: loss_at_w");
    assert_eq!(bits(got.loss_after), bits(want.loss_after), "{case}: loss_after");
}

fn models(dim: usize, classes: usize) -> Vec<(&'static str, Box<dyn Model>)> {
    let mut rng = rng_for(0xDA, 1);
    vec![
        ("softmax", Box::new(SoftmaxRegression::new_random(dim, classes, 0.001, &mut rng))),
        ("mlp", Box::new(Mlp::new(dim, &[24], classes, 0.0005, &mut rng))),
    ]
}

/// The solve through `local_update` and through a reused scratch, both
/// against the oracle, on one `(model, data, j, cfg)`.
fn check(
    model: &dyn Model,
    data: &Dataset,
    j: &ParamSet,
    cfg: &DaneConfig,
    scratch: &mut DaneScratch,
    case: &str,
) {
    let want = oracle::local_update(model, data, j, cfg, &mut rng_for(0xDB, 2));
    let got = local_update(model, data, j, cfg, &mut rng_for(0xDB, 2), &Telemetry::disabled());
    assert_same(&got, &want, case);
    let mut out = LocalOutcome {
        delta: ParamSet::new(Vec::new()),
        grad_at_w: ParamSet::new(Vec::new()),
        eta_hat: 0.0,
        loss_at_w: 0.0,
        loss_after: 0.0,
    };
    local_update_scratch(model, data, j, cfg, &mut rng_for(0xDB, 2), scratch, &mut out);
    assert_same(&out, &want, &format!("{case}, scratch"));
}

#[test]
fn the_one_pass_step_is_the_nine_pass_step() {
    let (train, _) = small_fmnist(160, 10, 0xDC);
    let shard = train.subset(&(0..15).collect::<Vec<_>>());
    // The aggregated direction: a gradient on other data, so that the
    // linear term −∇F(w) + σ₂·J is nowhere zero.
    let (elsewhere, _) = small_fmnist(160, 10, 0xDE);
    for (name, model) in models(train.dim(), train.num_classes) {
        let (_, j) = model.loss_and_grad(&elsewhere.features, &elsewhere.one_hot_labels());
        let mut scratch = DaneScratch::new();
        for momentum in [0.0, 0.3] {
            // 1e-3 binds on every step; 1e6 never does; 0.5 binds on some
            // elements and not others.
            for clip in [1e-3, 0.5, 1e6] {
                for (data, batch) in [(&train, 32), (&shard, 16)] {
                    let cfg =
                        DaneConfig { momentum, clip, batch, local_steps: 6, ..Default::default() };
                    let case =
                        format!("{name}, momentum {momentum}, clip {clip}, {} rows", data.len());
                    check(model.as_ref(), data, &j, &cfg, &mut scratch, &case);
                }
            }
        }
    }
}

/// One NaN feature row poisons every gradient the client computes: the
/// solve diverges, and both steps report it as η̂ = 0.999.
#[test]
fn a_diverged_solve_still_reports_the_worst_accuracy() {
    let (train, _) = small_fmnist(160, 10, 0xDD);
    let mut poisoned = train.subset(&(0..20).collect::<Vec<_>>());
    poisoned.features.row_mut(3).fill(f32::NAN);
    for (name, model) in models(train.dim(), train.num_classes) {
        let (_, j) = model.loss_and_grad(&train.features, &train.one_hot_labels());
        for momentum in [0.0, 0.3] {
            let cfg = DaneConfig { momentum, local_steps: 3, ..Default::default() };
            let want =
                oracle::local_update(model.as_ref(), &poisoned, &j, &cfg, &mut rng_for(8, 0));
            let got = local_update(
                model.as_ref(),
                &poisoned,
                &j,
                &cfg,
                &mut rng_for(8, 0),
                &Telemetry::disabled(),
            );
            assert!(got.delta.has_non_finite(), "{name}: the solve must actually have diverged");
            assert_eq!(got.eta_hat, 0.999, "{name}: a NaN ratio is the worst accuracy, never 0");
            assert_same(&got, &want, &format!("{name}, momentum {momentum}, NaN client"));
        }
    }
}
