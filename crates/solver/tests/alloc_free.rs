//! Zero-allocation regression test for the selection-polytope projection
//! — the inner loop of every one-shot solve. Building the set over a
//! reused scratch vector and projecting onto it, with either row or both
//! active, must not touch the heap.
//!
//! Kept to a single `#[test]` so no sibling test can allocate
//! concurrently while the measured region runs.

use fedl_linalg::alloc_counter::CountingAllocator;
use fedl_solver::{Project, SelectionPolytope};

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
fn polytope_projection_is_allocation_free() {
    let n = 64;
    let costs: Vec<f64> = (0..n).map(|i| 0.5 + (i % 11) as f64).collect();
    let mut sorted = Vec::with_capacity(n);
    let mut v = vec![0.0f64; n + 1];

    assert_allocation_free("polytope projection", || {
        // Loose budget (participation row only), tight (both rows), and
        // below the cheapest-n floor (relaxed to the face).
        for (round, budget) in [1e6, 60.0, 1.0].into_iter().cycle().take(12).enumerate() {
            let set = SelectionPolytope::new(&costs, 8, budget, 10.0, &mut sorted);
            for (i, x) in v.iter_mut().enumerate() {
                *x = ((i + round) as f64 / 5.0).cos();
            }
            set.project(&mut v);
            assert!(set.contains(&v, 1e-9));
        }
    });
}
