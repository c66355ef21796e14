//! Zero-steady-state-allocation regression test for the DANE local solve,
//! on the MLP and on the CNN.
//!
//! Installs the counting allocator as this binary's global allocator and
//! asserts that, once the reusable scratch is warmed, repeated local
//! solves perform no heap allocation at all — nor does the solve's inner
//! step on its own: replace the parameters in place (emptying the penalty
//! cell), take the gradient-only pass, read the loss once (refilling it).
//! A regression here means a buffer stopped being reused somewhere inside
//! the mini-batch / loss / gradient / momentum pipeline.
//!
//! Kept to a single `#[test]` so no sibling test can allocate
//! concurrently while the measured region runs.

use fedl_data::synth::small_fmnist;
use fedl_linalg::alloc_counter::CountingAllocator;
use fedl_linalg::rng::rng_for;
use fedl_ml::dane::{local_update_scratch, DaneConfig, DaneScratch, LocalOutcome};
use fedl_ml::model::{Cnn, ConvBlockSpec, MapShape, Mlp, Model, ModelScratch};
use fedl_ml::params::ParamSet;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Asserts that some execution of `run` allocates nothing. The libtest
/// harness's main thread can allocate concurrently with the measured
/// window (event plumbing), so a dirty window is retried — a hot loop
/// that genuinely allocates per call fails every attempt.
fn assert_allocation_free(what: &str, mut run: impl FnMut()) {
    for attempt in 0..5 {
        let allocs = ALLOC.allocations();
        let bytes = ALLOC.bytes();
        run();
        if ALLOC.allocations() == allocs && ALLOC.bytes() == bytes {
            return;
        }
        eprintln!("{what}: allocation in measured window (attempt {attempt}); retrying");
    }
    panic!("{what} allocated in every measured window");
}

#[test]
fn dane_local_solve_is_allocation_free_once_warm() {
    fedl_linalg::par::force_max_threads(1);
    let (train, _) = small_fmnist(64, 10, 0xA11);
    let mut rng = rng_for(0xA12, 0);
    let mlp = Mlp::new(train.dim(), &[16], train.num_classes, 0.0005, &mut rng);
    let blocks = vec![ConvBlockSpec { out_channels: 4, kernel: 3 }];
    let cnn = Cnn::new(MapShape { c: 1, h: 8, w: 8 }, blocks, train.num_classes, 0.0005, &mut rng);
    let targets = train.one_hot_labels();
    let models: [(&str, Box<dyn Model>); 2] = [("MLP", Box::new(mlp)), ("CNN", Box::new(cnn))];
    for (name, model) in models {
        let (_, j) = model.loss_and_grad(&train.features, &targets);
        let cfg = DaneConfig::default();

        let mut scratch = DaneScratch::new();
        let mut out = LocalOutcome {
            delta: ParamSet::new(Vec::new()),
            grad_at_w: ParamSet::new(Vec::new()),
            eta_hat: 0.0,
            loss_at_w: 0.0,
            loss_after: 0.0,
        };
        let mut rng = rng_for(0xA13, 0);
        let mut solve =
            || local_update_scratch(&*model, &train, &j, &cfg, &mut rng, &mut scratch, &mut out);
        // Warm-up: sizes the scratch buffers and clones the work model once.
        solve();
        solve();
        assert_allocation_free(&format!("{name} DANE local solve"), || {
            for _ in 0..5 {
                solve();
            }
        });
        // The solve still did real work.
        assert!(out.loss_at_w.is_finite() && out.eta_hat >= 0.0, "{name}");

        let mut work = model.clone_model();
        let (mut grad, mut ws) = (ParamSet::new(Vec::new()), ModelScratch::new());
        let mut step = |work: &mut Box<dyn Model>| {
            work.set_params_from(model.params());
            let ce = work.ce_and_grad_scratch(&train.features, &targets, &mut grad, &mut ws);
            let loss = work.loss_scratch(&train.features, &targets, &mut ws);
            assert_eq!((ce + work.penalty()).to_bits(), loss.to_bits());
        };
        step(&mut work);
        assert_allocation_free(&format!("{name} gradient-only step"), || {
            for _ in 0..5 {
                step(&mut work);
            }
        });
    }
}
