//! `par_map`'s dynamic fan-out and the nested-call rule, at a team of
//! four (forced before the pool first starts, so it has three workers on
//! any host): results stay in item order under deliberately uneven item
//! costs, each item runs exactly once, a task's panic reaches the caller
//! only after the other items have drained, and a `par_map` or a GEMM
//! above the parallel cut nested inside a task runs inline with the bits
//! of the top-level call.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use fedl_linalg::par::{force_max_threads, par_map, team};
use fedl_linalg::rng::rng_for;
use fedl_linalg::Matrix;

const TEAM: usize = 4;

/// Item `i` sleeps for a cost that jumps around: long items next to
/// short ones, so a static split and a dynamic one finish differently.
fn uneven(i: usize) -> Duration {
    Duration::from_micros(((i * 7_919) % 13) as u64 * 150)
}

#[test]
fn results_keep_item_order_and_each_item_runs_once() {
    force_max_threads(TEAM);
    let items: Vec<usize> = (0..57).collect();
    let runs: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
    let out = par_map(&items, |&i| {
        runs[i].fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(uneven(i));
        (i, i * i)
    });
    assert_eq!(out, items.iter().map(|&i| (i, i * i)).collect::<Vec<_>>());
    assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "an item ran twice or never");
}

#[test]
fn a_panic_reaches_the_caller_after_the_rest_drained() {
    force_max_threads(TEAM);
    let items: Vec<usize> = (0..40).collect();
    let finished = AtomicUsize::new(0);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        par_map(&items, |&i| {
            if i == 3 {
                panic!("item 3 failed");
            }
            std::thread::sleep(uneven(i));
            finished.fetch_add(1, Ordering::Relaxed);
        })
    }));
    let payload = caught.expect_err("the panic must reach the caller");
    assert_eq!(payload.downcast_ref::<&str>().copied(), Some("item 3 failed"));
    assert_eq!(finished.load(Ordering::Relaxed), items.len() - 1, "the batch did not drain");
    // The pool is still usable afterwards.
    assert_eq!(par_map(&items, |&i| i + 1)[39], 40);
}

#[test]
fn nested_calls_run_inline_with_the_top_level_bits() {
    force_max_threads(TEAM);
    assert_eq!(team(), TEAM);
    let mut rng = rng_for(0xFA1, 0);
    // 128·96·40 multiply-adds: above the cut, so at the top level its
    // row blocks fork across the team.
    let a = Matrix::uniform(128, 96, 1.0, &mut rng);
    let b = Matrix::uniform(96, 40, 1.0, &mut rng);
    let mut top = Matrix::default();
    a.matmul_into(&b, &mut top);
    let inner: Vec<u64> = (0..300).collect();
    let top_inner = par_map(&inner, |&x| x.wrapping_mul(0x9E37_79B9));

    let outer: Vec<usize> = (0..6).collect();
    let nested = par_map(&outer, |&o| {
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        std::thread::sleep(uneven(o));
        (team(), out, par_map(&inner, |&x| x.wrapping_mul(0x9E37_79B9)))
    });
    for (team_inside, out, inner_out) in &nested {
        assert_eq!(*team_inside, 1, "a call inside a task must run inline");
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(out), bits(&top));
        assert_eq!(inner_out, &top_inner);
    }
    // Back at the top level the full team is available again.
    assert_eq!(team(), TEAM);
}
