//! Pow-d: power-of-choice selection by local loss (Cho et al. [5]).
//!
//! Sample a candidate set of size `d = factor·n` uniformly, then keep the
//! `n` candidates with the largest (last known) local losses — biasing
//! toward clients whose data the current model fits worst.

use fedl_json::{Error, FromJson, ToJson, Value};
use fedl_linalg::rng::{derive_seed, SliceRandom, Xoshiro256pp};
use fedl_sim::EpochReport;

use crate::policy::{EpochContext, PolicyRng, SelectionDecision, SelectionPolicy};

use super::BASELINE_ITERATIONS;

/// Pow-d's cross-epoch state, what its checkpoint holds: the
/// candidate-sampling RNG and the per-client loss memory.
struct PowDState {
    rng: PolicyRng,
    /// Last observed local loss per client id (`None` = never seen,
    /// saved as `null`).
    last_loss: Vec<Option<f64>>,
}

fedl_json::record!(PowDState { rng, last_loss });

/// Power-of-choice selection.
pub struct PowDPolicy {
    /// Candidate multiplier: `d = factor·n` candidates are sampled.
    factor: usize,
    state: PowDState,
}

impl PowDPolicy {
    /// Creates the policy with candidate factor `factor ≥ 1`.
    pub fn new(factor: usize) -> Self {
        assert!(factor >= 1, "candidate factor must be at least 1");
        let rng = Xoshiro256pp::seed_from_u64(derive_seed(0x90D, 0));
        Self { factor, state: PowDState { rng: PolicyRng(rng), last_loss: Vec::new() } }
    }

    fn loss_for(&self, id: usize, hint: f64) -> f64 {
        self.state.last_loss.get(id).copied().flatten().unwrap_or(hint)
    }
}

impl SelectionPolicy for PowDPolicy {
    fn name(&self) -> &'static str {
        "Pow-d"
    }

    fn select(&mut self, ctx: &EpochContext) -> SelectionDecision {
        ctx.validate();
        if self.state.last_loss.len() < ctx.num_clients {
            self.state.last_loss.resize(ctx.num_clients, None);
        }
        let n = ctx.effective_n();
        let d = (self.factor * n).min(ctx.available.len());
        // Candidate set: d uniform picks.
        let mut positions: Vec<usize> = (0..ctx.available.len()).collect();
        positions.shuffle(&mut self.state.rng.0);
        positions.truncate(d);
        // Keep the n largest-loss candidates.
        positions.sort_by(|&a, &b| {
            let la = self.loss_for(ctx.available[a], ctx.loss_hint[a]);
            let lb = self.loss_for(ctx.available[b], ctx.loss_hint[b]);
            lb.partial_cmp(&la).expect("finite losses")
        });
        positions.truncate(n);
        let mut cohort: Vec<usize> = positions.iter().map(|&p| ctx.available[p]).collect();
        cohort.sort_unstable();
        SelectionDecision { cohort, iterations: BASELINE_ITERATIONS }
    }

    fn observe(&mut self, _ctx: &EpochContext, report: &EpochReport) {
        let last_loss = &mut self.state.last_loss;
        for (slot, &id) in report.cohort.iter().enumerate() {
            if last_loss.len() <= id {
                last_loss.resize(id + 1, None);
            }
            last_loss[id] = Some(report.local_losses[slot] as f64);
        }
    }

    fn snapshot_state(&self) -> Value {
        self.state.to_json_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), Error> {
        self.state = PowDState::from_json_value(state)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::ctx;

    #[test]
    fn selects_n_from_candidates() {
        let c = ctx((0..10).collect(), vec![1.0; 10], 100.0, 3);
        let mut p = PowDPolicy::new(2);
        let d = p.select(&c);
        assert_eq!(d.cohort.len(), 3);
        assert_eq!(d.iterations, BASELINE_ITERATIONS);
    }

    #[test]
    fn prefers_high_loss_clients_once_observed() {
        let c = ctx((0..6).collect(), vec![1.0; 6], 100.0, 2);
        let mut p = PowDPolicy::new(3); // d = 6 = all candidates
                                        // Teach it: client 5 has huge loss, others tiny.
        let report = EpochReport {
            epoch: 0,
            cohort: vec![0, 1, 2, 3, 4, 5],
            iterations: 1,
            latency_secs: 1.0,
            per_client_iter_latency: vec![0.1; 6],
            cost: 6.0,
            eta_hats: vec![0.5; 6],
            global_loss_all: 1.0,
            global_loss_selected: 1.0,
            grad_dot_delta: vec![0.0; 6],
            local_losses: vec![0.1, 0.1, 0.1, 0.1, 0.1, 9.0],
            failed: vec![],
        };
        p.observe(&c, &report);
        let mut counts = [0usize; 6];
        for _ in 0..20 {
            let d = p.select(&c);
            for id in d.cohort {
                counts[id] += 1;
            }
        }
        assert_eq!(counts[5], 20, "highest-loss client must always make the cut");
    }

    #[test]
    fn unseen_clients_use_hint() {
        let mut c = ctx(vec![0, 1, 2], vec![1.0; 3], 100.0, 1);
        c.loss_hint = vec![0.1, 5.0, 0.1];
        let mut p = PowDPolicy::new(3);
        let d = p.select(&c);
        assert_eq!(d.cohort, vec![1], "hinted high-loss client should win");
    }

    #[test]
    #[should_panic(expected = "candidate factor")]
    fn rejects_zero_factor() {
        let _ = PowDPolicy::new(0);
    }
}
