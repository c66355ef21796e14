//! The projection interface the selection polytope implements.

/// A closed convex set that supports Euclidean projection and membership
/// testing.
///
/// `project` must return the *exact* nearest point: a projected descent
/// inherits its convergence guarantees from that.
pub trait Project: Send + Sync {
    /// Projects `v` onto the set in place.
    fn project(&self, v: &mut [f64]);

    /// Returns `true` when `v` satisfies the set's constraints up to
    /// absolute tolerance `tol`.
    fn contains(&self, v: &[f64], tol: f64) -> bool;

    /// Dimension the set lives in.
    fn dim(&self) -> usize;
}
