//! References for the DANE local solve; nothing under `src/` uses them.
//!
//! * [`local_update`] — the solve as it ran before its step became one
//!   pass: each local step as nine whole-vector passes (`w + d` as a copy
//!   and an `axpy`; `∇G` as two `axpy`s and a clip; the heavy-ball update
//!   as a scale and two `axpy`s). The fused step is compared against it,
//!   bit for bit.
//! * [`surrogate_value`] — the surrogate `G(d)` itself on the full
//!   working set, the objective the solve must descend.
//!
//! Shared by `crates/ml/tests/{dane_step,surrogate_descent}.rs`; each uses
//! a part.
#![allow(dead_code)]

use fedl_data::Dataset;
use fedl_linalg::rng::Rng;
use fedl_linalg::Matrix;
use fedl_ml::dane::{sample_batch_into, DaneConfig, LocalOutcome};
use fedl_ml::model::{Model, ModelScratch};
use fedl_ml::params::ParamSet;

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

/// `G(d) = F(w + d) + (σ₁/2)·‖d‖² − (∇F(w) − σ₂·J)ᵀ(w + d)` on the
/// client's full working set.
pub fn surrogate_value(
    model_at_w: &dyn Model,
    data: &Dataset,
    j_agg: &ParamSet,
    cfg: &DaneConfig,
    delta: &ParamSet,
) -> f32 {
    let (x, y) = (data.features.clone(), data.one_hot_labels());
    let w = model_at_w.params().clone();
    let (_, grad_w) = model_at_w.loss_and_grad(&x, &y);
    let mut shifted = model_at_w.clone_model();
    shifted.set_params(w.added(1.0, delta));
    let f_wd = shifted.loss(&x, &y);
    let linear = grad_w.added(-cfg.sigma2, j_agg);
    let wd = w.added(1.0, delta);
    f_wd + 0.5 * cfg.sigma1 * delta.norm_sq() - linear.dot(&wd)
}
