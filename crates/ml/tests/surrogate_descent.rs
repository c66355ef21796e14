//! The local solve descends the surrogate it is defined by: `G(d)` at
//! the solve's final direction is below `G(0)`, and heavy-ball momentum
//! reaches no higher `G` than plain SGD at matched step counts. `G` is
//! evaluated by the full-batch reference in `tests/oracle/dane.rs`.

#[path = "oracle/dane.rs"]
mod oracle;

use fedl_data::synth::small_fmnist;
use fedl_data::Dataset;
use fedl_linalg::rng::rng_for;
use fedl_ml::dane::{local_update, DaneConfig};
use fedl_ml::model::{Model, SoftmaxRegression};
use fedl_ml::params::ParamSet;
use fedl_telemetry::Telemetry;
use oracle::surrogate_value;

/// A softmax model and its working set, with the client's own
/// full-batch gradient as a meaningful aggregated `J`.
fn setup() -> (SoftmaxRegression, Dataset, ParamSet) {
    let (data, _) = small_fmnist(200, 10, 17);
    let model = SoftmaxRegression::new(data.dim(), data.num_classes, 0.01);
    let (_, j) = model.loss_and_grad(&data.features, &data.one_hot_labels());
    (model, data, j)
}

#[test]
fn local_solve_descends_surrogate() {
    let (model, data, j) = setup();
    let cfg = DaneConfig { local_steps: 20, ..Default::default() };
    let out = local_update(&model, &data, &j, &cfg, &mut rng_for(1, 0), &Telemetry::disabled());
    let g0 = surrogate_value(&model, &data, &j, &cfg, &out.delta.zeros_like());
    let g_end = surrogate_value(&model, &data, &j, &cfg, &out.delta);
    assert!(g_end < g0, "surrogate did not decrease: {g0} -> {g_end}");
}

#[test]
fn momentum_accelerates_the_local_solve() {
    // At matched step counts, momentum must reach a lower (or equal)
    // surrogate value than plain SGD on this smooth problem.
    let (model, data, j) = setup();
    let solve = |momentum: f32| {
        let cfg = DaneConfig { local_steps: 12, lr: 0.1, momentum, ..Default::default() };
        let mut rng = rng_for(6, 0);
        let out = local_update(&model, &data, &j, &cfg, &mut rng, &Telemetry::disabled());
        surrogate_value(&model, &data, &j, &cfg, &out.delta)
    };
    let plain = solve(0.0);
    let heavy = solve(0.6);
    assert!(
        heavy <= plain + 1e-3,
        "momentum should not slow the solve: plain {plain} vs momentum {heavy}"
    );
}
