//! The projection interface [`crate::pgd::minimize`] descends over, and
//! the axis-aligned box.

use fedl_linalg::dvec;

/// A closed convex set that supports Euclidean projection and membership
/// testing.
///
/// `project` must return the *exact* nearest point: projected gradient
/// descent inherits its convergence guarantees from that.
pub trait Project: Send + Sync {
    /// Projects `v` onto the set in place.
    fn project(&self, v: &mut [f64]);

    /// Returns `true` when `v` satisfies the set's constraints up to
    /// absolute tolerance `tol`.
    fn contains(&self, v: &[f64], tol: f64) -> bool;

    /// Dimension the set lives in.
    fn dim(&self) -> usize;
}

/// Axis-aligned box `{ v : lo ≤ v ≤ hi }`.
#[derive(Debug, Clone)]
pub struct BoxSet {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BoxSet {
    /// Creates the box; panics if the bounds disagree in length or any
    /// `lo[i] > hi[i]` (an empty box is a caller bug, not a runtime state).
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "box bound length mismatch");
        for (i, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
            assert!(l <= h, "empty box at coordinate {i}: lo {l} > hi {h}");
        }
        Self { lo, hi }
    }

    /// The unit box `[0, 1]^n`.
    pub fn unit(n: usize) -> Self {
        Self::new(vec![0.0; n], vec![1.0; n])
    }

    /// Lower bounds.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }
}

impl Project for BoxSet {
    fn project(&self, v: &mut [f64]) {
        dvec::clamp_box(v, &self.lo, &self.hi);
    }

    fn contains(&self, v: &[f64], tol: f64) -> bool {
        v.len() == self.lo.len()
            && v.iter()
                .zip(&self.lo)
                .zip(&self.hi)
                .all(|((&x, &l), &h)| x >= l - tol && x <= h + tol)
    }

    fn dim(&self) -> usize {
        self.lo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_projection_clamps() {
        let b = BoxSet::unit(3);
        let mut v = vec![-0.5, 0.5, 1.5];
        b.project(&mut v);
        assert_eq!(v, vec![0.0, 0.5, 1.0]);
        assert!(b.contains(&v, 1e-12));
    }

    #[test]
    #[should_panic(expected = "empty box")]
    fn box_rejects_inverted_bounds() {
        let _ = BoxSet::new(vec![1.0], vec![0.0]);
    }
}
