//! Projection-based convex optimization toolkit for FedL's online
//! decision step.
//!
//! The paper solves its one-shot subproblem (eq. (8)) with the
//! interior-point filter line-search solver of Wächter & Biegler \[26\].
//! That subproblem is tiny — at most `K + 1` variables (one selection
//! fraction per available client plus the iteration-control variable ρ) —
//! and its feasible region is an intersection of simple convex sets:
//!
//! * a box `x ∈ [0, 1]^K`, `ρ ∈ [1, ρ_max]`;
//! * the participation halfspace `Σ x_k ≥ n` (constraint (3b)/(6b));
//! * the budget halfspace `Σ c_k x_k ≤ C_remaining` (constraint (3a)/(6a));
//!
//! and for a fixed ρ the descent objective of eq. (8) is separable in x,
//! so its minimiser is one Euclidean projection onto that region. This
//! crate therefore replaces the interior-point dependency with:
//!
//! * [`polytope`] — the exact projection onto `box ∩ {Σx ≥ n} ∩ {Σc·x ≤ C}`
//!   by two nested scalar root finds on its KKT multipliers, which
//!   `fedl-core` wraps in a one-dimensional search over ρ;
//! * [`projection`] — the [`Project`] interface.
//!
//! Everything is `f64`: the decision problem is small, so precision is
//! cheap and keeps the regret accounting clean.
//!
//! System-inventory row **S6** in DESIGN.md §1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod polytope;
pub mod projection;

pub use polytope::{Multipliers, SelectionPolytope};
pub use projection::Project;
