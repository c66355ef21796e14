//! The DANE local solve as it ran before its step became one pass: each
//! local step as nine whole-vector passes (`w + d` as a copy and an
//! `axpy`; `∇G` as two `axpy`s and a clip; the heavy-ball update as a
//! scale and two `axpy`s). It lives on only as the reference the fused
//! step is compared against, bit for bit; nothing under `src/` uses it.
//!
//! Used by `crates/ml/tests/dane_step.rs`.

use fedl_data::Dataset;
use fedl_linalg::rng::Rng;
use fedl_linalg::Matrix;
use fedl_ml::dane::{DaneConfig, LocalOutcome};
use fedl_ml::model::{Model, ModelScratch};
use fedl_ml::params::ParamSet;
use fedl_ml::sgd::sample_batch_into;

/// `fedl_ml::dane::local_update` with the nine-pass step.
pub fn local_update(
    model_at_w: &dyn Model,
    data: &Dataset,
    j_agg: &ParamSet,
    cfg: &DaneConfig,
    rng: &mut impl Rng,
) -> LocalOutcome {
    let x_full = &data.features;
    let y_full = data.one_hot_labels();
    let mut ws = ModelScratch::new();
    let mut grad_at_w = ParamSet::new(Vec::new());
    let loss_at_w = model_at_w.loss_and_grad_scratch(x_full, &y_full, &mut grad_at_w, &mut ws);
    // Constant linear term of ∇G: −∇F(w) + σ₂·J.
    let mut neg_linear = grad_at_w.clone();
    neg_linear.scale(-1.0);
    neg_linear.axpy(cfg.sigma2, j_agg);
    let grad0_norm = cfg.sigma2 * j_agg.norm();

    let w = model_at_w.params();
    let mut work = model_at_w.clone_model();
    let (mut delta, mut velocity) = (w.zeros_like(), w.zeros_like());
    let (mut wd, mut g) = (ParamSet::new(Vec::new()), ParamSet::new(Vec::new()));
    let (mut bx, mut by) = (Matrix::default(), Matrix::default());
    for _ in 0..cfg.local_steps {
        wd.copy_from(w);
        wd.axpy(1.0, &delta);
        work.set_params_from(&wd);
        sample_batch_into(data, cfg.batch, rng, &mut bx, &mut by);
        work.ce_and_grad_scratch(&bx, &by, &mut g, &mut ws);
        g.axpy(cfg.sigma1, &delta);
        g.axpy(1.0, &neg_linear);
        g.clip(cfg.clip);
        velocity.scale(cfg.momentum);
        velocity.axpy(-cfg.lr, &g);
        delta.axpy(1.0, &velocity);
    }

    wd.copy_from(w);
    wd.axpy(1.0, &delta);
    work.set_params_from(&wd);
    let loss_after = work.loss_and_grad_scratch(x_full, &y_full, &mut g, &mut ws);
    g.axpy(cfg.sigma1, &delta);
    g.axpy(1.0, &neg_linear);
    let eta_hat = if grad0_norm > 1e-12 {
        let ratio = g.norm() / grad0_norm;
        if ratio.is_finite() {
            ratio.clamp(0.0, 0.999)
        } else {
            0.999
        }
    } else {
        0.0
    };
    LocalOutcome { delta, grad_at_w, eta_hat, loss_at_w, loss_after }
}
