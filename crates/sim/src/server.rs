//! Server-side aggregation: global model state, the aggregated gradient
//! `J`, and one federated iteration (paper §3.1, "Aggregation on Server").

use fedl_data::Dataset;
use fedl_linalg::rng::{derive_seed, rng_for};
use fedl_ml::dane::{local_update, Aggregate, DaneConfig, FoldedJ};
use fedl_ml::model::Model;
use fedl_ml::params::ParamSet;
use fedl_telemetry::Telemetry;

use crate::config::AggregationNorm;

/// Statistics of one federated iteration.
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// Measured local convergence accuracy `η̂` per cohort client.
    pub eta_hats: Vec<f32>,
    /// Local loss at the broadcast model per cohort client.
    pub losses_at_w: Vec<f32>,
    /// Update directions per cohort client (consumed by the runner's
    /// `h_t⁰` linearization on the final iteration).
    pub deltas: Vec<ParamSet>,
}

/// The federation's server: owns the global model and the aggregated
/// gradient state `J` that the DANE surrogates consume.
pub struct FederatedServer {
    model: Box<dyn Model>,
    /// `J` with `‖J‖` folded once per round, not once per solve.
    j_agg: FoldedJ,
    dane: DaneConfig,
    seed: u64,
    telemetry: Telemetry,
}

impl FederatedServer {
    /// Creates a server around an initial global model.
    pub fn new(model: Box<dyn Model>, dane: DaneConfig, seed: u64) -> Self {
        let j_agg = FoldedJ::new(model.params().zeros_like());
        Self { model, j_agg, dane, seed, telemetry: Telemetry::disabled() }
    }

    /// Routes the server's observability through `telemetry`: each
    /// iteration opens `round` / `local-train` / `aggregate` spans and
    /// the local solves record `ml.*` metrics.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Read access to the global model.
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// The current aggregated gradient `J`.
    pub fn j_agg(&self) -> &ParamSet {
        self.j_agg.j()
    }

    /// The local-solver configuration.
    pub fn dane(&self) -> &DaneConfig {
        &self.dane
    }

    /// Replaces the global model (used by tests and the offline
    /// comparator, which rolls the model back to replay an epoch).
    pub fn set_model_params(&mut self, params: ParamSet) {
        self.model.set_params(params);
    }

    /// Replaces the aggregated gradient `J` (checkpoint restore: `J` is
    /// the one piece of DANE solver state that persists across epochs,
    /// so resuming a run must reinstate it alongside the model; its norm
    /// is folded again here).
    pub fn set_j_agg(&mut self, j_agg: ParamSet) {
        self.j_agg = FoldedJ::new(j_agg);
    }

    /// Runs one federated iteration over the cohort's working sets.
    ///
    /// Every cohort client runs its DANE local solve in parallel (via the
    /// scoped thread pool in `fedl_linalg::par` — the solves are
    /// embarrassingly parallel, exactly like the real devices), then the
    /// server updates
    /// `w ← w + (1/norm)·Σ d_k` and `J ← (1/|cohort|)·Σ ∇F_k(w)`.
    ///
    /// `available_count` feeds the paper's `1/|E_t|` normalization when
    /// [`AggregationNorm::Available`] is configured. The `round` timer
    /// (and its `local-train`/`aggregate` children) nests under `parent`
    /// — normally the environment's `train` span — or opens at the top
    /// level without one.
    ///
    /// # Panics
    /// Panics on an empty cohort.
    pub fn run_iteration_in(
        &mut self,
        cohort: &[(usize, &Dataset)],
        available_count: usize,
        aggregation: AggregationNorm,
        epoch: usize,
        iteration: usize,
        parent: Option<&fedl_telemetry::Span>,
    ) -> IterationStats {
        assert!(!cohort.is_empty(), "iteration with empty cohort");
        assert!(available_count >= cohort.len(), "cohort larger than availability");
        let round = match parent {
            Some(p) => p.child("round"),
            None => self.telemetry.span("round"),
        };

        let model = &self.model;
        let j_agg = &self.j_agg;
        let dane = &self.dane;
        let seed = self.seed;
        let telemetry = &self.telemetry;
        let local_train = round.child("local-train");
        let outcomes: Vec<_> = fedl_linalg::par::par_map(cohort, |(id, data)| {
            let label = (epoch as u64) << 32 | (iteration as u64) << 16 | (*id as u64);
            let mut rng = rng_for(derive_seed(seed, 0x10CA1), label);
            local_update(model.as_ref(), data, j_agg, dane, &mut rng, telemetry)
        });
        drop(local_train);

        let aggregate = round.child("aggregate");
        let norm = match aggregation {
            AggregationNorm::Available => available_count as f32,
            AggregationNorm::Cohort => cohort.len() as f32,
        };
        let mut w = self.model.params().clone();
        for out in &outcomes {
            w.axpy(1.0 / norm, &out.delta);
        }
        self.model.set_params(w);

        let grads: Vec<&ParamSet> = outcomes.iter().map(|o| &o.grad_at_w).collect();
        self.j_agg = FoldedJ::new(ParamSet::average(&grads));
        drop(aggregate);
        self.telemetry.counter("sim.iterations").incr();

        IterationStats {
            eta_hats: outcomes.iter().map(|o| o.eta_hat).collect(),
            losses_at_w: outcomes.iter().map(|o| o.loss_at_w).collect(),
            deltas: outcomes.into_iter().map(|o| o.delta).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_data::synth::small_fmnist;
    use fedl_ml::model::SoftmaxRegression;

    fn setup() -> (FederatedServer, Dataset, Dataset) {
        let (train, test) = small_fmnist(400, 100, 31);
        let model = SoftmaxRegression::new(train.dim(), train.num_classes, 0.001);
        let dane = DaneConfig { local_steps: 10, lr: 0.3, ..Default::default() };
        (FederatedServer::new(Box::new(model), dane, 7), train, test)
    }

    #[test]
    fn iterations_reduce_global_loss() {
        let (mut server, train, _) = setup();
        let half_a = train.subset(&(0..200).collect::<Vec<_>>());
        let half_b = train.subset(&(200..400).collect::<Vec<_>>());
        let x = train.features.clone();
        let y = train.one_hot_labels();
        let before = server.model().loss(&x, &y);
        for it in 0..12 {
            server.run_iteration_in(
                &[(0, &half_a), (1, &half_b)],
                2,
                AggregationNorm::Cohort,
                0,
                it,
                None,
            );
        }
        let after = server.model().loss(&x, &y);
        assert!(after < before * 0.85, "loss {before} -> {after}");
    }

    #[test]
    fn stats_have_cohort_arity() {
        let (mut server, train, _) = setup();
        let d0 = train.subset(&(0..50).collect::<Vec<_>>());
        let d1 = train.subset(&(50..100).collect::<Vec<_>>());
        let d2 = train.subset(&(100..150).collect::<Vec<_>>());
        let stats = server.run_iteration_in(
            &[(0, &d0), (1, &d1), (2, &d2)],
            5,
            AggregationNorm::Available,
            0,
            0,
            None,
        );
        assert_eq!(stats.eta_hats.len(), 3);
        assert_eq!(stats.losses_at_w.len(), 3);
        assert_eq!(stats.deltas.len(), 3);
        assert!(stats.eta_hats.iter().all(|e| (0.0..1.0).contains(e)));
    }

    #[test]
    fn available_norm_shrinks_step() {
        // With 1/|E_t| normalization and few participants, the model
        // moves less per iteration than with cohort normalization.
        let (mut s1, train, _) = setup();
        let (mut s2, _, _) = setup();
        let data = train.subset(&(0..100).collect::<Vec<_>>());
        let w0 = s1.model().params().clone();
        s1.run_iteration_in(&[(0, &data)], 10, AggregationNorm::Available, 0, 0, None);
        s2.run_iteration_in(&[(0, &data)], 10, AggregationNorm::Cohort, 0, 0, None);
        let moved_avail = s1.model().params().added(-1.0, &w0).norm();
        let moved_cohort = s2.model().params().added(-1.0, &w0).norm();
        assert!(
            moved_cohort > moved_avail * 5.0,
            "available-norm step should be ~10x smaller: {moved_avail} vs {moved_cohort}"
        );
    }

    #[test]
    fn j_updates_after_iteration() {
        let (mut server, train, _) = setup();
        assert_eq!(server.j_agg().norm(), 0.0);
        let data = train.subset(&(0..80).collect::<Vec<_>>());
        server.run_iteration_in(&[(0, &data)], 1, AggregationNorm::Cohort, 0, 0, None);
        assert!(server.j_agg().norm() > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (mut server, train, _) = setup();
            let data = train.subset(&(0..60).collect::<Vec<_>>());
            server.run_iteration_in(&[(0, &data)], 1, AggregationNorm::Cohort, 3, 2, None);
            server.model().params().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "empty cohort")]
    fn empty_cohort_rejected() {
        let (mut server, _, _) = setup();
        server.run_iteration_in(&[], 1, AggregationNorm::Cohort, 0, 0, None);
    }
}
