//! The penalty cell never serves a stale or a different number: over
//! random interleavings of every way to change a model's parameters and
//! every way to read a loss from it, each reading equals — bit for bit —
//! the reading of a freshly built model holding the same parameters and
//! the uncached fold of `tests/oracle`; and two threads first-touching
//! one model's empty cell read the same bits.

mod oracle;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fedl_linalg::rng::{rng_for, Rng, Xoshiro256pp};
use fedl_linalg::Matrix;
use fedl_ml::model::{Cnn, ConvBlockSpec, MapShape, Mlp, Model, ModelScratch, SoftmaxRegression};
use fedl_ml::params::ParamSet;
use oracle::Family;

const DIM: usize = 36; // a 1×6×6 image for the CNN
const CLASSES: usize = 4;
const L2: f32 = 0.013;

fn build(family: Family, rng: &mut Xoshiro256pp) -> Box<dyn Model> {
    match family {
        Family::Softmax => Box::new(SoftmaxRegression::new_random(DIM, CLASSES, L2, rng)),
        Family::Mlp => Box::new(Mlp::new(DIM, &[7, 5], CLASSES, L2, rng)),
        Family::Cnn => Box::new(Cnn::new(
            MapShape { c: 1, h: 6, w: 6 },
            vec![ConvBlockSpec { out_channels: 2, kernel: 3 }],
            CLASSES,
            L2,
            rng,
        )),
    }
}

fn batch(rng: &mut Xoshiro256pp) -> (Matrix, Matrix) {
    let rows = rng.gen_range(1usize..6);
    let x = Matrix::uniform(rows, DIM, 1.0, rng);
    let mut y = Matrix::zeros(rows, CLASSES);
    for r in 0..rows {
        y.set(r, rng.gen_range(0..CLASSES), 1.0);
    }
    (x, y)
}

/// `params` moved by a random step, so every version has its own penalty.
fn perturbed(params: &ParamSet, rng: &mut Xoshiro256pp) -> ParamSet {
    let mut next = params.clone();
    for t in next.tensors_mut() {
        let step = Matrix::uniform(t.rows(), t.cols(), 0.3, rng);
        t.axpy(1.0, &step);
    }
    next
}

/// Every loss reading of `model` on one batch, through all four entry
/// points, checked against a fresh model and the uncached fold.
fn check_readings(
    model: &dyn Model,
    family: Family,
    fresh_of: &dyn Fn(&ParamSet) -> Box<dyn Model>,
    op: usize,
    rng: &mut Xoshiro256pp,
    ws: &mut ModelScratch,
    grad: &mut ParamSet,
) {
    let (x, y) = batch(rng);
    let fresh = fresh_of(model.params());
    let (want_loss, want_grad) = fresh.loss_and_grad(&x, &y);
    let uncached = oracle::loss(model, family, L2, &x, &y);
    assert_eq!(want_loss.to_bits(), uncached.to_bits(), "{family:?}: fresh model vs oracle fold");
    let got = match op {
        0 => model.loss(&x, &y),
        1 => model.loss_scratch(&x, &y, ws),
        2 => {
            let (loss, g) = model.loss_and_grad(&x, &y);
            assert_eq!(g, want_grad, "{family:?}: loss_and_grad gradient");
            loss
        }
        3 => {
            let loss = model.loss_and_grad_scratch(&x, &y, grad, ws);
            assert_eq!(*grad, want_grad, "{family:?}: loss_and_grad_scratch gradient");
            loss
        }
        _ => {
            // The gradient-only primitive leaves the cell alone and
            // returns the data term; the penalty is the rest.
            let ce = model.ce_and_grad_scratch(&x, &y, grad, ws);
            assert_eq!(*grad, want_grad, "{family:?}: ce_and_grad_scratch gradient");
            ce + model.penalty()
        }
    };
    assert_eq!(got.to_bits(), want_loss.to_bits(), "{family:?}: reading {op} served a stale cell");
    let folded = oracle::l2_term(family, model.params(), L2);
    assert_eq!(model.penalty().to_bits(), folded.to_bits(), "{family:?}: penalty vs oracle fold");
}

#[test]
fn any_interleaving_reads_what_a_fresh_model_reads() {
    for family in [Family::Softmax, Family::Mlp, Family::Cnn] {
        for seed in 0..12u64 {
            let mut rng = rng_for(seed, 0xCE11);
            let template = build(family, &mut rng);
            let fresh_of = |params: &ParamSet| -> Box<dyn Model> {
                // A clone of the never-read template has an empty cell;
                // `set_params` would empty it anyway.
                let mut fresh = template.clone_model();
                fresh.set_params(params.clone());
                fresh
            };
            let mut model = template.clone_model();
            let mut ws = ModelScratch::new();
            let mut grad = ParamSet::new(Vec::new());
            for _ in 0..40 {
                match rng.gen_range(0usize..8) {
                    0 => {
                        let next = perturbed(model.params(), &mut rng);
                        model.set_params(next);
                    }
                    1 => {
                        let next = perturbed(model.params(), &mut rng);
                        model.set_params_from(&next);
                    }
                    // A clone carries the cell, full or empty, and the
                    // original keeps its own.
                    2 => {
                        let clone = model.clone_model();
                        check_readings(
                            clone.as_ref(),
                            family,
                            &fresh_of,
                            1,
                            &mut rng,
                            &mut ws,
                            &mut grad,
                        );
                        model = clone;
                    }
                    op => check_readings(
                        model.as_ref(),
                        family,
                        &fresh_of,
                        op - 3,
                        &mut rng,
                        &mut ws,
                        &mut grad,
                    ),
                }
            }
        }
    }
}

#[test]
fn two_threads_first_touch_one_cell() {
    // What `run_iteration_in` does at `FEDL_THREADS=2`: the cohort's solves
    // all read the broadcast model's loss, the first of them on two
    // threads at once.
    fedl_linalg::par::force_max_threads(2);
    for family in [Family::Softmax, Family::Mlp, Family::Cnn] {
        for seed in 0..8u64 {
            let mut rng = rng_for(seed, 0x2717);
            let model = build(family, &mut rng);
            let (x, y) = batch(&mut rng);
            let want = oracle::loss(model.as_ref(), family, L2, &x, &y);
            // Both tasks wait for each other before touching the cell.
            // The wait gives up rather than deadlock should the pool run
            // both tasks on one thread.
            let arrived = AtomicUsize::new(0);
            let losses = fedl_linalg::par::par_map(&[0, 1], |_| {
                arrived.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_millis(200);
                while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    std::hint::spin_loop();
                }
                model.loss_scratch(&x, &y, &mut ModelScratch::new())
            });
            for loss in losses {
                assert_eq!(loss.to_bits(), want.to_bits(), "{family:?} seed {seed}");
            }
        }
    }
}
