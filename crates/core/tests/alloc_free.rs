//! Zero-steady-state-allocation regression tests for the scheduler hot
//! loops: RDCS dependent rounding, the columnar UCB score-update
//! assembly (`build_problem_into` + `h_value_into`), the one-shot
//! solve behind `decide` and the regret tracker's hindsight comparator.
//! Installs the
//! counting allocator as this binary's global allocator; once the
//! reusable scratch structures are warm, the measured regions must not
//! touch the heap.
//!
//! Kept to a single `#[test]` so no sibling test can allocate
//! concurrently while the measured regions run.

use fedl_core::objective::{FracDecision, OneShot};
use fedl_core::online::{OnlineLearner, StepSizes};
use fedl_core::policy::EpochContext;
use fedl_core::regret::{hindsight_optimum, HindsightScratch};
use fedl_core::rounding::{rdcs_with, RdcsScratch};
use fedl_linalg::alloc_counter::CountingAllocator;
use fedl_linalg::rng::{rng_for, Rng};

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

fn context(m: usize) -> EpochContext {
    EpochContext {
        epoch: 0,
        num_clients: m,
        available: (0..m).collect(),
        costs: (0..m).map(|i| 0.5 + (i % 11) as f64).collect(),
        data_volumes: vec![20; m],
        latency_hint: (0..m).map(|i| 0.1 + 0.01 * (i % 7) as f64).collect(),
        loss_hint: vec![2.0; m],
        true_latency: (0..m).map(|i| 0.1 + 0.01 * (i % 7) as f64).collect(),
        remaining_budget: 10_000.0,
        min_participants: m / 8,
        seed: 0xF00,
    }
}

#[test]
fn scheduler_hot_loops_are_allocation_free_once_warm() {
    fedl_linalg::par::force_max_threads(1);

    // --- RDCS rounding -------------------------------------------------
    let k = 256;
    let mut seed_rng = rng_for(0xA21, k as u64);
    let x0: Vec<f64> = (0..k).map(|_| seed_rng.next_f64()).collect();
    let mut x = x0.clone();
    let mut rng = rng_for(0xA22, 0);
    let mut scratch = RdcsScratch::new();
    let mut selected = Vec::with_capacity(k);
    rdcs_with(&mut x, &mut rng, &mut scratch, &mut selected); // warm

    assert_allocation_free("RDCS rounding", || {
        for _ in 0..5 {
            x.copy_from_slice(&x0);
            rdcs_with(&mut x, &mut rng, &mut scratch, &mut selected);
        }
    });
    assert!(x.iter().all(|&v| v == 0.0 || v == 1.0));

    // --- Columnar UCB score-update assembly ----------------------------
    let m = 64;
    let ctx = context(m);
    let mut learner = OnlineLearner::new(m, StepSizes::fixed(0.3, 0.3), 1.0, 10.0, 0.1);
    let mut problem = OneShot::default();
    let mut h = Vec::new();
    let frac_x = vec![0.5f64; m];
    learner.build_problem_into(&ctx, &mut problem); // warm
    problem.h_value_into(&frac_x, 0.4, &mut h); // warm

    assert_allocation_free("UCB score-update assembly", || {
        for _ in 0..5 {
            learner.build_problem_into(&ctx, &mut problem);
            problem.h_value_into(&frac_x, 0.4, &mut h);
        }
    });
    assert_eq!(problem.ids.len(), m);
    assert!(!h.is_empty());

    // --- The one-shot solve (`decide`) ----------------------------------
    // Loose, binding and unaffordable budgets: the participation row
    // alone, both rows, and the relaxed cheapest-n face.
    let mut ctx = ctx;
    let spent = learner.decide(&ctx, &problem); // warm
    learner.recycle(spent);
    assert_allocation_free("one-shot solve", || {
        for budget in [10_000.0, 30.0, 1.0] {
            ctx.remaining_budget = budget;
            learner.build_problem_into(&ctx, &mut problem);
            let frac = learner.decide(&ctx, &problem);
            assert_eq!(frac.x.len(), m);
            learner.recycle(frac);
        }
    });
    assert!(learner.last_solve().budget_relaxed, "budget 1 cannot cover the cheapest 8");

    // --- The hindsight comparator ---------------------------------------
    // The same three budgets, with the loss row slack, violated beyond
    // repair and balanced by its multiplier.
    let mut scratch = HindsightScratch::default();
    let mut star = FracDecision { x: Vec::new(), rho: 1.0 };
    let mut cases = Vec::new();
    for budget in [10_000.0, 30.0, 1.0] {
        for (loss, pull) in [(0.5, -0.1), (40.0, -0.1), (1.2, -0.3)] {
            ctx.remaining_budget = budget;
            learner.build_problem_into(&ctx, &mut problem);
            problem.loss_all = loss;
            problem.g.iter_mut().enumerate().for_each(|(i, g)| *g = pull * (1 + i % 5) as f64);
            cases.push(problem.clone());
        }
    }
    for p in &cases {
        hindsight_optimum(p, &mut scratch, &mut star); // warm
    }
    assert_allocation_free("hindsight comparator", || {
        for p in &cases {
            hindsight_optimum(p, &mut scratch, &mut star);
        }
    });
    assert!(star.x.iter().all(|x| (0.0..=1.0).contains(x)));
}
