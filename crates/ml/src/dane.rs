//! The DANE/FEDL local surrogate solve (paper §3.1, "Model Training").
//!
//! Each global iteration, a selected client receives the global model `w`
//! and the server's aggregated gradient `J` and minimizes
//!
//! ```text
//! G_{t,k}(d) = F_{t,k}(w + d) + (σ₁/2)·‖d‖² − (∇F_{t,k}(w) − σ₂·J)ᵀ (w + d)
//! ```
//!
//! over the update direction `d` with a fixed number of SGD steps
//! (`d⁰ = 0`, `dʲ = dʲ⁻¹ − α·∇G(dʲ⁻¹)`). The gradient is
//!
//! ```text
//! ∇G(d) = ∇F_{t,k}(w + d) + σ₁·d − ∇F_{t,k}(w) + σ₂·J ,
//! ```
//!
//! so at `d = 0` the (full-batch) gradient is exactly `σ₂·J`: the local
//! step follows the *global* descent direction corrected by local
//! curvature, which is what lets FEDL-style training tolerate partial
//! participation.
//!
//! The paper's `J_t` notation aggregates `F_{t,k}` values; following the
//! FEDL system it cites (\[7\], \[25\]) we aggregate client *gradients* —
//! loss values carry no direction and could not drive the surrogate.
//!
//! The solve also reports the measured local convergence accuracy
//!
//! ```text
//! η̂_{t,k} = ‖∇G(d_final)‖ / ‖∇G(0)‖  ∈ [0, 1),
//! ```
//!
//! the gradient-norm form of the paper's
//! `G(d) − G* ≤ η·[G(0) − G*]` criterion. FedL's constraint (3c) compares
//! this observed value against the iteration-control decision ηₜ.

use std::cell::RefCell;

use fedl_linalg::rng::Rng;

use fedl_data::Dataset;
use fedl_linalg::Matrix;
use fedl_telemetry::Telemetry;

use crate::model::{Model, ModelScratch};
use crate::params::ParamSet;

/// Hyper-parameters of the local surrogate solve.
#[derive(Debug, Clone, Copy)]
pub struct DaneConfig {
    /// Proximal coefficient σ₁ (strong-convexity injection).
    pub sigma1: f32,
    /// Global-gradient weight σ₂ (FEDL's η).
    pub sigma2: f32,
    /// SGD step size α.
    pub lr: f32,
    /// Number of local SGD steps per global iteration (the paper treats
    /// this as a pre-defined constant).
    pub local_steps: usize,
    /// Mini-batch size for the stochastic surrogate gradients.
    pub batch: usize,
    /// Gradient clipping threshold.
    pub clip: f32,
    /// Momentum coefficient for the local SGD steps, in `[0, 1)`.
    /// `0` is the paper's plain SGD; positive values give the
    /// Momentum-FL-style accelerated local solve (Liu et al., cited as
    /// \[17\] in the paper's related work).
    pub momentum: f32,
}

impl Default for DaneConfig {
    fn default() -> Self {
        Self {
            sigma1: 0.1,
            sigma2: 1.0,
            lr: 0.2,
            local_steps: 8,
            batch: 32,
            clip: 10.0,
            momentum: 0.0,
        }
    }
}

impl fedl_json::ToJson for DaneConfig {
    fn to_json_value(&self) -> fedl_json::Value {
        // Canonical field order — part of the result-cache key contract
        // (docs/CHECKPOINT.md), so reordering fields invalidates caches.
        fedl_json::obj(vec![
            ("sigma1", self.sigma1.to_json_value()),
            ("sigma2", self.sigma2.to_json_value()),
            ("lr", self.lr.to_json_value()),
            ("local_steps", self.local_steps.to_json_value()),
            ("batch", self.batch.to_json_value()),
            ("clip", self.clip.to_json_value()),
            ("momentum", self.momentum.to_json_value()),
        ])
    }
}

/// What a client uploads after its local solve.
#[derive(Debug, Clone)]
pub struct LocalOutcome {
    /// Update direction `d` (the server averages these).
    pub delta: ParamSet,
    /// Full-batch `∇F_{t,k}(w)` at the broadcast model (aggregated by the
    /// server into the next `J`).
    pub grad_at_w: ParamSet,
    /// Measured local convergence accuracy `η̂ ∈ [0, 1)`; a solve whose
    /// surrogate gradient went non-finite reports the worst value, 0.999.
    pub eta_hat: f32,
    /// Full-batch local loss at the broadcast model.
    pub loss_at_w: f32,
    /// Full-batch local loss at `w + d`.
    pub loss_after: f32,
}

/// The server's aggregated gradient `J` as a solve reads it: the tensors,
/// and their norm `‖J‖` (times σ₂, the denominator of η̂). A bare
/// [`ParamSet`] folds the norm in every solve; a [`FoldedJ`] carries it
/// folded once, when `J` was set — what the server hands every solve of
/// a round. Both give the same bits.
pub trait Aggregate: Sync {
    /// `J` itself.
    fn j(&self) -> &ParamSet;
    /// `‖J‖`, the fold [`ParamSet::norm`] computes.
    fn j_norm(&self) -> f32;
}

impl Aggregate for ParamSet {
    fn j(&self) -> &ParamSet {
        self
    }

    fn j_norm(&self) -> f32 {
        self.norm()
    }
}

/// `J` with its norm folded once, when it is set.
#[derive(Debug, Clone)]
pub struct FoldedJ {
    j: ParamSet,
    norm: f32,
}

impl FoldedJ {
    /// Wraps `j`, folding its norm.
    pub fn new(j: ParamSet) -> Self {
        let norm = j.norm();
        Self { j, norm }
    }
}

impl Aggregate for FoldedJ {
    fn j(&self) -> &ParamSet {
        &self.j
    }

    fn j_norm(&self) -> f32 {
        self.norm
    }
}

/// Reusable workspace for [`local_update_scratch`].
///
/// Holds every intermediate the local solve needs — the working model
/// clone, the DANE parameter-vector temporaries, the mini-batch
/// matrices, and the model's forward/backward workspace. Buffers grow to
/// the workload's high-water mark and are then reused, so a steady-state
/// solve performs zero heap allocation (pinned by
/// `crates/ml/tests/alloc_free.rs`).
///
/// The inner SGD steps need only `∇F(w + dʲ)`, so they call the model's
/// gradient-only primitive [`Model::ce_and_grad_scratch`]; the regularized
/// loss is read at exactly two points — `w` (through the caller's model,
/// whose penalty cell the whole cohort shares) and `w + d_final` (through
/// the working clone, whose cell every `params_mut` empties).
///
/// The cached working-model clone is revalidated against the incoming
/// model by parameter shapes only; hyper-parameters the shapes cannot
/// see (such as a different L2 coefficient on the same architecture) are
/// the caller's responsibility — use one scratch per model, or go
/// through [`local_update`], which refreshes the clone on every call.
pub struct DaneScratch {
    work: Option<Box<dyn Model>>,
    velocity: ParamSet,
    neg_linear: ParamSet,
    g: ParamSet,
    bx: Matrix,
    by: Matrix,
    y_full: Matrix,
    ws: ModelScratch,
}

impl DaneScratch {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self {
            work: None,
            velocity: ParamSet::new(Vec::new()),
            neg_linear: ParamSet::new(Vec::new()),
            g: ParamSet::new(Vec::new()),
            bx: Matrix::default(),
            by: Matrix::default(),
            y_full: Matrix::default(),
            ws: ModelScratch::new(),
        }
    }
}

impl Default for DaneScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs one client's local surrogate solve.
///
/// `model_at_w` carries the broadcast global model `w` (it is not
/// mutated); `j_agg` is the server's aggregated gradient from the
/// previous iteration (zeros on the very first iteration, making the
/// first local step a pure proximal solve, as in the FEDL bootstrap).
///
/// The solve's observables are recorded into `telemetry`: counters
/// `ml.local_updates` / `ml.local_steps` and histograms `ml.eta_hat` (the
/// measured accuracy η̂, dimensionless), `ml.local_loss` (loss at the
/// broadcast model), and `ml.solve_secs` (wall-clock solve time); a solve
/// whose surrogate gradient went non-finite (reported as the worst
/// accuracy, η̂ = 0.999) adds to the counter `ml.nonfinite_eta`. The
/// workspace simulator calls this from its worker threads — the
/// [`Telemetry`] handle is `Sync`, and every recording is a few atomic
/// operations, so instrumentation does not serialise the parallel
/// solves. A disabled handle records nothing and changes no bit.
///
/// # Panics
/// Panics on an empty working set or a non-positive learning rate.
pub fn local_update(
    model_at_w: &dyn Model,
    data: &Dataset,
    j_agg: &impl Aggregate,
    cfg: &DaneConfig,
    rng: &mut impl Rng,
    telemetry: &Telemetry,
) -> LocalOutcome {
    thread_local! {
        static SCRATCH: RefCell<DaneScratch> = RefCell::new(DaneScratch::new());
    }
    let start = std::time::Instant::now();
    let mut out = LocalOutcome {
        delta: ParamSet::new(Vec::new()),
        grad_at_w: ParamSet::new(Vec::new()),
        eta_hat: 0.0,
        loss_at_w: 0.0,
        loss_after: 0.0,
    };
    SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        // The cached work clone can go stale in hyper-parameters that
        // parameter shapes cannot distinguish (e.g. a different L2 on
        // the same architecture), so this entry point re-clones per call.
        scratch.work = Some(model_at_w.clone_model());
        solve(model_at_w, data, j_agg, cfg, rng, &mut scratch, &mut out, telemetry);
    });
    telemetry.counter("ml.local_updates").incr();
    telemetry.counter("ml.local_steps").add(cfg.local_steps as u64);
    telemetry.histogram("ml.eta_hat").record(out.eta_hat as f64);
    telemetry.histogram("ml.local_loss").record(out.loss_at_w as f64);
    telemetry.histogram("ml.solve_secs").record(start.elapsed().as_secs_f64());
    out
}

/// `true` when the two sets have identical tensor arity and shapes.
fn same_shapes(a: &ParamSet, b: &ParamSet) -> bool {
    a.len() == b.len() && a.tensors().iter().zip(b.tensors()).all(|(x, y)| x.shape() == y.shape())
}

/// [`local_update`] with caller-owned workspace and outcome buffers and
/// no telemetry.
///
/// Bit-identical to [`local_update`] (same operations in the same order,
/// same draws from `rng`), but a warmed `scratch`/`out` pair makes the
/// whole solve — including the per-step model forward/backward — free of
/// heap allocation. See [`DaneScratch`] for the working-model caching
/// contract.
pub fn local_update_scratch(
    model_at_w: &dyn Model,
    data: &Dataset,
    j_agg: &impl Aggregate,
    cfg: &DaneConfig,
    rng: &mut impl Rng,
    scratch: &mut DaneScratch,
    out: &mut LocalOutcome,
) {
    solve(model_at_w, data, j_agg, cfg, rng, scratch, out, &Telemetry::disabled());
}

/// The solve behind both entry points. A surrogate gradient that went
/// non-finite is counted into `telemetry` as `ml.nonfinite_eta`.
#[allow(clippy::too_many_arguments)]
fn solve(
    model_at_w: &dyn Model,
    data: &Dataset,
    j_agg: &impl Aggregate,
    cfg: &DaneConfig,
    rng: &mut impl Rng,
    scratch: &mut DaneScratch,
    out: &mut LocalOutcome,
    telemetry: &Telemetry,
) {
    assert!(!data.is_empty(), "local update on an empty working set");
    assert!(cfg.lr > 0.0, "non-positive DANE learning rate");
    assert!(cfg.local_steps > 0, "need at least one local step");
    assert!((0.0..1.0).contains(&cfg.momentum), "momentum must be in [0, 1), got {}", cfg.momentum);

    let x_full = &data.features;
    data.one_hot_labels_into(&mut scratch.y_full);
    let w = model_at_w.params();
    out.loss_at_w = model_at_w.loss_and_grad_scratch(
        x_full,
        &scratch.y_full,
        &mut out.grad_at_w,
        &mut scratch.ws,
    );
    // Constant linear term of ∇G: −∇F(w) + σ₂·J.
    scratch.neg_linear.copy_from(&out.grad_at_w);
    scratch.neg_linear.scale(-1.0);
    scratch.neg_linear.axpy(cfg.sigma2, j_agg.j());

    // ‖∇G(0)‖ on the full batch = ‖σ₂·J‖ (denominator of η̂).
    let grad0_norm = cfg.sigma2 * j_agg.j_norm();

    if scratch.work.as_ref().is_none_or(|m| !same_shapes(m.params(), w)) {
        scratch.work = Some(model_at_w.clone_model());
    }
    let work = scratch.work.as_mut().expect("work model ensured above");
    out.delta.set_zeros_like(w);
    scratch.velocity.set_zeros_like(w);
    for _ in 0..cfg.local_steps {
        // `w + 1·dʲ`, written where the gradient pass reads it.
        shift_into(work.params_mut(), w, &out.delta);
        sample_batch_into(data, cfg.batch, rng, &mut scratch.bx, &mut scratch.by);
        // Gradient only: nobody reads a loss at w + dʲ.
        work.ce_and_grad_scratch(&scratch.bx, &scratch.by, &mut scratch.g, &mut scratch.ws);
        heavy_ball_step(
            &scratch.g,
            &scratch.neg_linear,
            cfg,
            &mut scratch.velocity,
            &mut out.delta,
        );
    }

    // Final full-batch surrogate gradient for η̂ and the post-solve loss.
    shift_into(work.params_mut(), w, &out.delta);
    out.loss_after =
        work.loss_and_grad_scratch(x_full, &scratch.y_full, &mut scratch.g, &mut scratch.ws);
    scratch.g.axpy(cfg.sigma1, &out.delta);
    scratch.g.axpy(1.0, &scratch.neg_linear);
    out.eta_hat = if grad0_norm > 1e-12 {
        let ratio = scratch.g.norm() / grad0_norm;
        if ratio.is_finite() {
            ratio.clamp(0.0, 0.999)
        } else {
            // A diverged solve (NaN would survive `clamp` and then lose
            // every `max` downstream, reading as η̂ = 0, "exact").
            telemetry.counter("ml.nonfinite_eta").incr();
            0.999
        }
    } else {
        // No aggregated direction yet (first iteration): the surrogate
        // started at its stationary point, so the solve is "exact".
        0.0
    };
}

/// Draws a mini-batch of `batch` rows (capped at the working-set size),
/// indices with replacement, into caller-owned feature/one-hot matrices;
/// steady-state reuse performs no allocation. One `gen_range` per row, in
/// row order — the draws every local step takes from `rng`.
pub fn sample_batch_into(
    data: &Dataset,
    batch: usize,
    rng: &mut impl Rng,
    x: &mut Matrix,
    y: &mut Matrix,
) {
    assert!(!data.is_empty(), "cannot batch an empty dataset");
    let b = batch.clamp(1, data.len());
    x.resize_to(b, data.dim());
    y.resize_to(b, data.num_classes);
    for r in 0..b {
        let i = rng.gen_range(0..data.len());
        x.row_mut(r).copy_from_slice(data.features.row(i));
        y.set(r, data.labels[i], 1.0);
    }
}

/// `wd ← w + 1·d` in one pass (`wd` already shaped like `w`): the values
/// of a copy of `w` followed by `axpy(1, d)`.
fn shift_into(wd: &mut ParamSet, w: &ParamSet, d: &ParamSet) {
    for ((wd, w), d) in wd.tensors_mut().iter_mut().zip(w.tensors()).zip(d.tensors()) {
        assert!(wd.shape() == w.shape() && w.shape() == d.shape(), "DANE shape mismatch");
        for ((o, &w), &d) in wd.as_mut_slice().iter_mut().zip(w.as_slice()).zip(d.as_slice()) {
            *o = w + 1.0 * d;
        }
    }
}

/// One local step after the gradient `g = ∇F(w + d)`, in one pass: per
/// element, in the order the whole-vector passes it replaces ran them,
/// the surrogate gradient `∇G(d) = g + σ₁·d + 1·(−∇F(w) + σ₂·J)`, clipped
/// into `[−clip, clip]`, then the heavy-ball update `v ← v·γ + (−α)·∇G`,
/// `d ← d + 1·v`. The clipped `∇G` itself is not kept: the next gradient
/// overwrites `g`. (Writing the next `w + 1·d` in this pass too measured
/// slower than the separate [`shift_into`]: docs/PERF.md.)
fn heavy_ball_step(
    g: &ParamSet,
    neg_linear: &ParamSet,
    cfg: &DaneConfig,
    velocity: &mut ParamSet,
    delta: &mut ParamSet,
) {
    assert!(cfg.clip > 0.0, "clip limit must be positive");
    let (sigma1, clip, momentum, neg_lr) = (cfg.sigma1, cfg.clip, cfg.momentum, -cfg.lr);
    let tensors = g.tensors().iter().zip(neg_linear.tensors());
    for ((g, nl), (v, d)) in tensors.zip(velocity.tensors_mut().iter_mut().zip(delta.tensors_mut()))
    {
        let shape = g.shape();
        assert!(
            nl.shape() == shape && v.shape() == shape && d.shape() == shape,
            "DANE shape mismatch"
        );
        let lanes = g.as_slice().iter().zip(nl.as_slice());
        for ((&g, &nl), (v, d)) in lanes.zip(v.as_mut_slice().iter_mut().zip(d.as_mut_slice())) {
            let mut grad = g + sigma1 * *d;
            grad += 1.0 * nl;
            if grad > clip {
                grad = clip;
            } else if grad < -clip {
                grad = -clip;
            }
            *v *= momentum;
            *v += neg_lr * grad;
            *d += 1.0 * *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SoftmaxRegression;
    use fedl_data::synth::small_fmnist;
    use fedl_linalg::rng::rng_for;

    fn setup() -> (SoftmaxRegression, Dataset) {
        let (train, _) = small_fmnist(200, 10, 17);
        let model = SoftmaxRegression::new(train.dim(), train.num_classes, 0.01);
        (model, train)
    }

    #[test]
    fn eta_hat_in_range_and_improves_with_more_steps() {
        let (model, data) = setup();
        let (x, y) = (data.features.clone(), data.one_hot_labels());
        let (_, j) = model.loss_and_grad(&x, &y);
        let eta_for = |steps: usize| {
            let cfg = DaneConfig { local_steps: steps, lr: 0.2, ..Default::default() };
            let mut rng = rng_for(2, steps as u64);
            local_update(&model, &data, &j, &cfg, &mut rng, &Telemetry::disabled()).eta_hat
        };
        let few = eta_for(1);
        let many = eta_for(40);
        assert!((0.0..1.0).contains(&few));
        assert!((0.0..1.0).contains(&many));
        assert!(many < few, "more local steps should tighten accuracy: {few} vs {many}");
    }

    #[test]
    fn zero_j_bootstrap_reports_exact_accuracy() {
        let (model, data) = setup();
        let j = model.params().zeros_like();
        let mut rng = rng_for(3, 0);
        let out = local_update(
            &model,
            &data,
            &j,
            &DaneConfig::default(),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert_eq!(out.eta_hat, 0.0);
        assert!(out.delta.norm().is_finite());
    }

    #[test]
    fn applying_aggregated_direction_reduces_global_loss() {
        // One FEDL macro-iteration on a single client must make progress
        // on that client's loss.
        let (mut model, data) = setup();
        let (x, y) = (data.features.clone(), data.one_hot_labels());
        let mut j = model.params().zeros_like();
        let cfg = DaneConfig { local_steps: 25, lr: 0.2, ..Default::default() };
        let before = model.loss(&x, &y);
        let mut rng = rng_for(4, 0);
        for it in 0..5 {
            let out = local_update(&model, &data, &j, &cfg, &mut rng, &Telemetry::disabled());
            let updated = model.params().added(1.0, &out.delta);
            model.set_params(updated);
            j = out.grad_at_w;
            let _ = it;
        }
        let after = model.loss(&x, &y);
        assert!(after < before * 0.9, "loss {before} -> {after}");
    }

    #[test]
    fn grad_at_w_matches_direct_computation() {
        let (model, data) = setup();
        let (x, y) = (data.features.clone(), data.one_hot_labels());
        let (_, direct) = model.loss_and_grad(&x, &y);
        let j = model.params().zeros_like();
        let mut rng = rng_for(5, 0);
        let out = local_update(
            &model,
            &data,
            &j,
            &DaneConfig::default(),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert_eq!(out.grad_at_w, direct);
        assert!((out.loss_at_w - model.loss(&x, &y)).abs() < 1e-6);
    }

    #[test]
    fn batch_shapes_and_cap() {
        let (train, _) = small_fmnist(10, 5, 2);
        let mut rng = rng_for(2, 0);
        let (mut x, mut y) = (Matrix::default(), Matrix::default());
        sample_batch_into(&train, 64, &mut rng, &mut x, &mut y);
        assert_eq!(x.rows(), 10); // capped at dataset size
        assert_eq!(y.shape(), (10, 10));
        sample_batch_into(&train, 4, &mut rng, &mut x, &mut y);
        assert_eq!(x.shape(), (4, train.dim()));
        assert_eq!(y.shape(), (4, 10));
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn bad_momentum_rejected() {
        let (model, data) = setup();
        let j = model.params().zeros_like();
        let cfg = DaneConfig { momentum: 1.0, ..Default::default() };
        let _ = local_update(&model, &data, &j, &cfg, &mut rng_for(0, 0), &Telemetry::disabled());
    }

    #[test]
    fn scratch_solve_matches_plain_bitwise() {
        let (model, data) = setup();
        let (x, y) = (data.features.clone(), data.one_hot_labels());
        let (_, j) = model.loss_and_grad(&x, &y);
        let cfg = DaneConfig { local_steps: 6, momentum: 0.3, ..Default::default() };
        let plain =
            local_update(&model, &data, &j, &cfg, &mut rng_for(21, 0), &Telemetry::disabled());
        let mut scratch = DaneScratch::new();
        let mut out = LocalOutcome {
            delta: ParamSet::new(Vec::new()),
            grad_at_w: ParamSet::new(Vec::new()),
            eta_hat: 0.0,
            loss_at_w: 0.0,
            loss_after: 0.0,
        };
        // Twice: the second call runs with fully warmed buffers and a
        // cached work model, and must still match bit-for-bit.
        for round in 0..2 {
            local_update_scratch(
                &model,
                &data,
                &j,
                &cfg,
                &mut rng_for(21, 0),
                &mut scratch,
                &mut out,
            );
            assert_eq!(out.delta, plain.delta, "round {round}");
            assert_eq!(out.grad_at_w, plain.grad_at_w, "round {round}");
            assert_eq!(out.eta_hat.to_bits(), plain.eta_hat.to_bits(), "round {round}");
            assert_eq!(out.loss_at_w.to_bits(), plain.loss_at_w.to_bits(), "round {round}");
            assert_eq!(out.loss_after.to_bits(), plain.loss_after.to_bits(), "round {round}");
        }
    }

    #[test]
    fn telemetry_records_the_solve_and_moves_no_bit() {
        let (model, data) = setup();
        let (x, y) = (data.features.clone(), data.one_hot_labels());
        let (_, j) = model.loss_and_grad(&x, &y);
        let cfg = DaneConfig { local_steps: 4, ..Default::default() };
        let plain =
            local_update(&model, &data, &j, &cfg, &mut rng_for(9, 0), &Telemetry::disabled());
        let (tel, _handle) = Telemetry::in_memory();
        let observed = local_update(&model, &data, &j, &cfg, &mut rng_for(9, 0), &tel);
        // Instrumentation must not change the numerics.
        assert_eq!(observed.delta, plain.delta);
        assert_eq!(observed.eta_hat, plain.eta_hat);
        assert_eq!(tel.counter("ml.local_updates").value(), 1);
        assert_eq!(tel.counter("ml.local_steps").value(), 4);
        assert_eq!(tel.histogram("ml.eta_hat").count(), 1);
        assert_eq!(tel.histogram("ml.local_loss").count(), 1);
        assert_eq!(tel.histogram("ml.solve_secs").count(), 1);
    }

    #[test]
    fn diverged_solve_reports_the_worst_accuracy_not_the_best() {
        let (model, clean) = setup();
        let (_, j) = model.loss_and_grad(&clean.features, &clean.one_hot_labels());
        // One NaN feature row poisons every gradient the client computes.
        let mut data = clean.subset(&(0..20).collect::<Vec<_>>());
        data.features.row_mut(3).fill(f32::NAN);
        let cfg = DaneConfig { local_steps: 3, ..Default::default() };
        let (tel, _handle) = Telemetry::in_memory();
        let out = local_update(&model, &data, &j, &cfg, &mut rng_for(8, 0), &tel);
        assert!(out.delta.has_non_finite(), "the solve must actually have diverged");
        assert_eq!(out.eta_hat, 0.999, "a NaN ratio is the worst accuracy, never 0 (exact)");
        assert_eq!(tel.counter("ml.nonfinite_eta").value(), 1);
        // A finite solve does not count.
        let _ = local_update(&model, &clean, &j, &cfg, &mut rng_for(8, 0), &tel);
        assert_eq!(tel.counter("ml.nonfinite_eta").value(), 1);
        // The scratch entry point maps the ratio the same way.
        let mut out = LocalOutcome {
            delta: ParamSet::new(Vec::new()),
            grad_at_w: ParamSet::new(Vec::new()),
            eta_hat: 0.0,
            loss_at_w: 0.0,
            loss_after: 0.0,
        };
        let mut scratch = DaneScratch::new();
        local_update_scratch(&model, &data, &j, &cfg, &mut rng_for(8, 0), &mut scratch, &mut out);
        assert_eq!(out.eta_hat, 0.999);
    }

    #[test]
    #[should_panic(expected = "empty working set")]
    fn empty_data_rejected() {
        let (model, data) = setup();
        let empty = data.subset(&[]);
        let j = model.params().zeros_like();
        let _ = local_update(
            &model,
            &empty,
            &j,
            &DaneConfig::default(),
            &mut rng_for(0, 0),
            &Telemetry::disabled(),
        );
    }
}
