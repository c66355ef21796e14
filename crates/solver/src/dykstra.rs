//! Dykstra's alternating-projection algorithm for set intersections.
//!
//! Naive cyclic projection onto each set in turn converges to *a* point of
//! the intersection but not to the *nearest* one; Dykstra's correction
//! vectors restore optimality, which matters here because projected
//! gradient descent relies on projections being (approximately) the true
//! Euclidean projection to inherit its convergence guarantees.

use std::cell::RefCell;

use crate::projection::Project;

/// Reusable buffers for one [`DykstraIntersection::project`] call.
///
/// Projection is the inner loop of projected gradient descent — it runs
/// once per backtrack of every PGD iteration — so allocating the
/// correction vectors per call dominated the allocator profile of the
/// online decision step. Each thread keeps one of these in thread-local
/// storage instead; a warmed steady-state `project` call performs no
/// heap allocation.
#[derive(Default)]
struct DykstraScratch {
    /// One correction (increment) vector per member set.
    corrections: Vec<Vec<f64>>,
    /// Iterate at the start of the current sweep.
    prev: Vec<f64>,
    /// Iterate before the current member projection.
    before: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<DykstraScratch> = RefCell::new(DykstraScratch::default());
}

/// Intersection `S₁ ∩ … ∩ Sₘ` projected via Dykstra's algorithm.
pub struct DykstraIntersection {
    sets: Vec<Box<dyn Project>>,
    /// Maximum sweeps over all member sets before giving up.
    max_sweeps: usize,
    /// Terminate when one full sweep moves the iterate less than this.
    tol: f64,
}

impl DykstraIntersection {
    /// Builds the intersection from its member sets.
    ///
    /// # Panics
    /// Panics if `sets` is empty or members disagree on dimension.
    pub fn new(sets: Vec<Box<dyn Project>>) -> Self {
        assert!(!sets.is_empty(), "intersection of zero sets");
        let dim = sets[0].dim();
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(s.dim(), dim, "set {i} has dimension {} != {dim}", s.dim());
        }
        Self { sets, max_sweeps: 5000, tol: 1e-10 }
    }

    /// Number of member sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }
}

impl DykstraIntersection {
    /// [`Project::project`] with caller-provided buffers. Numerically
    /// identical to allocating fresh zeroed buffers: every buffer is
    /// reshaped and (for the corrections) re-zeroed before use.
    fn project_with(&self, v: &mut [f64], scratch: &mut DykstraScratch) {
        let n = v.len();
        let corrections = &mut scratch.corrections;
        corrections.resize_with(self.sets.len(), Vec::new);
        for c in corrections.iter_mut() {
            c.clear();
            c.resize(n, 0.0);
        }
        let prev = &mut scratch.prev;
        prev.clear();
        prev.resize(n, 0.0);
        let before = &mut scratch.before;
        before.clear();
        before.resize(n, 0.0);
        for _ in 0..self.max_sweeps {
            prev.copy_from_slice(v);
            // Movement of the iterate alone is not a safe stopping rule:
            // Dykstra passes through transient period-1 cycles where the
            // end-of-sweep iterate is static (and may even be feasible)
            // while the correction vectors are still evolving toward the
            // optimal dual variables. True convergence is when iterate AND
            // corrections have both stopped moving.
            let mut corr_moved = 0.0f64;
            for (set, corr) in self.sets.iter().zip(corrections.iter_mut()) {
                // y = v + correction; project; new correction = y - P(y).
                for (vi, ci) in v.iter_mut().zip(corr.iter()) {
                    *vi += *ci;
                }
                before.copy_from_slice(v);
                set.project(v);
                for ((ci, &bi), &vi) in corr.iter_mut().zip(before.iter()).zip(v.iter()) {
                    let new_ci = bi - vi;
                    corr_moved += (new_ci - *ci).abs();
                    *ci = new_ci;
                }
            }
            let moved = fedl_linalg::dvec::dist(v, prev);
            if moved <= self.tol && corr_moved <= self.tol && self.contains(v, 1e-9) {
                return;
            }
        }
        // Sweep budget exhausted without a certified optimum. Fall back to
        // plain cyclic projections (POCS), which converge to *a* point of
        // the intersection — feasibility matters more to the PGD caller
        // than exact nearness at this stage.
        for _ in 0..self.max_sweeps {
            prev.copy_from_slice(v);
            for set in &self.sets {
                set.project(v);
            }
            if fedl_linalg::dvec::dist(v, prev) <= self.tol {
                break;
            }
        }
    }
}

impl Project for DykstraIntersection {
    fn project(&self, v: &mut [f64]) {
        // Borrow the thread's scratch by moving it out and back: a nested
        // projection (an intersection containing another intersection)
        // then simply starts from a fresh default instead of panicking on
        // a second borrow.
        let mut scratch = SCRATCH.with(|s| s.take());
        self.project_with(v, &mut scratch);
        SCRATCH.with(|s| *s.borrow_mut() = scratch);
    }

    fn contains(&self, v: &[f64], tol: f64) -> bool {
        self.sets.iter().all(|s| s.contains(v, tol))
    }

    fn dim(&self) -> usize {
        self.sets[0].dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::{BoxSet, Halfspace};
    use fedl_linalg::approx_eq_f64;

    fn unit_box_and_diag_cap() -> DykstraIntersection {
        DykstraIntersection::new(vec![
            Box::new(BoxSet::unit(2)),
            Box::new(Halfspace::new(vec![1.0, 1.0], 1.0)),
        ])
    }

    #[test]
    fn matches_exact_two_set_projection() {
        // Compare Dykstra against the exact BoxHalfspace projection on a
        // grid of exterior points.
        use crate::projection::BoxHalfspace;
        let dyk = unit_box_and_diag_cap();
        let exact = BoxHalfspace::new(BoxSet::unit(2), Halfspace::new(vec![1.0, 1.0], 1.0));
        for &(x, y) in &[(2.0, 2.0), (3.0, 0.2), (-1.0, 0.7), (0.9, 0.9), (1.4, -0.3)] {
            let mut a = vec![x, y];
            let mut b = vec![x, y];
            dyk.project(&mut a);
            exact.project(&mut b);
            assert!(
                approx_eq_f64(a[0], b[0], 1e-6) && approx_eq_f64(a[1], b[1], 1e-6),
                "dykstra {a:?} vs exact {b:?} for ({x},{y})"
            );
        }
    }

    #[test]
    fn interior_point_is_fixed() {
        let dyk = unit_box_and_diag_cap();
        let mut v = vec![0.2, 0.3];
        dyk.project(&mut v);
        assert!(approx_eq_f64(v[0], 0.2, 1e-9));
        assert!(approx_eq_f64(v[1], 0.3, 1e-9));
    }

    #[test]
    fn three_set_intersection_feasible() {
        // Box, sum >= 1, weighted sum <= 1.5: non-trivially coupled.
        let dyk = DykstraIntersection::new(vec![
            Box::new(BoxSet::unit(3)),
            Box::new(Halfspace::at_least(vec![1.0, 1.0, 1.0], 1.0)),
            Box::new(Halfspace::new(vec![2.0, 1.0, 0.5], 1.5)),
        ]);
        let mut v = vec![5.0, -3.0, 0.5];
        dyk.project(&mut v);
        assert!(dyk.contains(&v, 1e-6), "projected point infeasible: {v:?}");
    }

    #[test]
    fn projection_is_idempotent() {
        let dyk = unit_box_and_diag_cap();
        let mut v = vec![2.0, 1.7];
        dyk.project(&mut v);
        let first = v.clone();
        dyk.project(&mut v);
        assert!(fedl_linalg::dvec::dist(&first, &v) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "intersection of zero sets")]
    fn rejects_empty_intersection() {
        let _ = DykstraIntersection::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn rejects_dimension_mismatch() {
        let _ =
            DykstraIntersection::new(vec![Box::new(BoxSet::unit(2)), Box::new(BoxSet::unit(3))]);
    }
}
