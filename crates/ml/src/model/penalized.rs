//! A model's parameters with their L2 penalty computed once per version.

use std::sync::OnceLock;

use crate::params::ParamSet;

use super::check_shapes;

/// The parameters of a model, its L2 coefficient, and the penalty
/// `½·l2·Σ‖W‖²` over its weight tensors — a number that depends on the
/// parameters alone, so it is reduced at most once per parameter version
/// however many batches are scored at that version.
///
/// The fields are private to this module: [`Self::replace`] and
/// [`Self::get_mut`] are the only `&mut` paths to the parameters and
/// both empty the cell, so a stale penalty can never be served. The cell
/// is a [`OnceLock`], so two `par_map` threads scoring the same broadcast
/// model may first-touch it concurrently (one computes, both read the
/// same bits). A clone carries the cell along with the parameters it
/// belongs to; the cell is never serialized.
#[derive(Debug, Clone)]
pub(crate) struct PenalizedParams {
    params: ParamSet,
    l2: f32,
    penalty: OnceLock<f32>,
}

impl PenalizedParams {
    pub(crate) fn new(params: ParamSet, l2: f32) -> Self {
        assert!(l2 >= 0.0, "negative regularization");
        Self { params, l2, penalty: OnceLock::new() }
    }

    pub(crate) fn get(&self) -> &ParamSet {
        &self.params
    }

    pub(crate) fn l2(&self) -> f32 {
        self.l2
    }

    /// Replaces the parameters.
    ///
    /// # Panics
    /// Panics if the shapes don't match the current ones.
    pub(crate) fn replace(&mut self, params: ParamSet) {
        check_shapes(&self.params, &params);
        self.params = params;
        self.penalty.take();
    }

    /// The parameters to write in place; empties the cell first, so the
    /// penalty is reduced again from whatever the caller leaves there.
    pub(crate) fn get_mut(&mut self) -> &mut ParamSet {
        self.penalty.take();
        &mut self.params
    }

    /// `½·l2·Σ‖W‖²`, the squared norms of the tensors at `weights` added
    /// left to right in the order given (each model passes its own,
    /// fixed order — f32 addition does not commute with regrouping).
    pub(crate) fn penalty(&self, weights: impl IntoIterator<Item = usize>) -> f32 {
        *self.penalty.get_or_init(|| {
            let tensors = self.params.tensors();
            let sq = weights.into_iter().fold(0.0f32, |acc, t| acc + tensors[t].norm_sq());
            0.5 * self.l2 * sq
        })
    }
}
