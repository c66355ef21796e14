//! FedAvg-style random selection (McMahan et al. [19]).

use fedl_json::{FromJson, ToJson, Value};
use fedl_linalg::rng::{derive_seed, SliceRandom, Xoshiro256pp};

use crate::policy::{EpochContext, PolicyRng, SelectionDecision, SelectionPolicy};

use super::BASELINE_ITERATIONS;

/// Uniformly random cohort of size `n` per epoch, constant iteration
/// count — the original FL selection rule. The shuffle RNG is its only
/// cross-epoch state, so the policy is its own checkpoint record.
pub struct FedAvgPolicy {
    rng: PolicyRng,
}

fedl_json::record!(FedAvgPolicy { rng });

impl FedAvgPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self { rng: PolicyRng(Xoshiro256pp::seed_from_u64(derive_seed(0xFEDA, 0))) }
    }
}

impl Default for FedAvgPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SelectionPolicy for FedAvgPolicy {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    fn select(&mut self, ctx: &EpochContext) -> SelectionDecision {
        ctx.validate();
        let n = ctx.effective_n();
        let mut pool = ctx.available.clone();
        pool.shuffle(&mut self.rng.0);
        pool.truncate(n);
        pool.sort_unstable();
        SelectionDecision { cohort: pool, iterations: BASELINE_ITERATIONS }
    }

    fn snapshot_state(&self) -> Value {
        self.to_json_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), fedl_json::Error> {
        *self = Self::from_json_value(state)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::ctx;

    #[test]
    fn selects_exactly_n_available_clients() {
        let c = ctx(vec![2, 5, 7, 9, 11], vec![1.0; 5], 100.0, 3);
        let mut p = FedAvgPolicy::new();
        let d = p.select(&c);
        assert_eq!(d.cohort.len(), 3);
        assert!(d.cohort.iter().all(|id| c.available.contains(id)));
        assert_eq!(d.iterations, BASELINE_ITERATIONS);
    }

    #[test]
    fn selection_varies_across_epochs() {
        let c = ctx((0..20).collect(), vec![1.0; 20], 100.0, 5);
        let mut p = FedAvgPolicy::new();
        let a = p.select(&c);
        let b = p.select(&c);
        let sel_differs = a.cohort != b.cohort;
        // With 20-choose-5 possibilities two draws virtually never match.
        assert!(sel_differs, "random policy repeated itself: {:?}", a.cohort);
    }

    #[test]
    fn caps_at_availability() {
        let c = ctx(vec![1, 2], vec![1.0, 1.0], 100.0, 6);
        let mut p = FedAvgPolicy::new();
        let d = p.select(&c);
        assert_eq!(d.cohort.len(), 2);
    }
}
