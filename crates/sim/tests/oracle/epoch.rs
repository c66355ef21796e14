//! The epoch evaluation `EdgeEnvironment::run_epoch_in` performed before
//! the one-walk evaluation: every cohort working set and then every
//! available client's working set (the cohort's a second time) copied out
//! by `OnlineStream::epoch_dataset`, `weighted_loss` called once per
//! group, each loss carrying a freshly folded L2 penalty
//! (`crates/ml/tests/oracle`). It lives on only as the reference
//! `tests/epoch_parity.rs` compares the walk against, bit for bit;
//! nothing under `src/` uses it.

use fedl_data::stream::OnlineStream;
use fedl_data::Dataset;
use fedl_ml::model::Model;
use fedl_sim::server::FederatedServer;
use fedl_sim::AggregationNorm;

use super::ml_oracle::{self, Family};

/// What the oracle epoch reports — the model-dependent fields of
/// `EpochReport`.
#[derive(Debug)]
pub struct OracleEpoch {
    pub global_loss_all: f64,
    pub global_loss_selected: f64,
    pub eta_hats: Vec<f32>,
    pub local_losses: Vec<f32>,
    pub grad_dot_delta: Vec<f32>,
}

/// Data-volume-weighted loss `Σ θ_k F_k(w)` with `θ_k = D_k / Σ D`.
fn weighted_loss<'a>(
    model: &dyn Model,
    family: Family,
    l2: f32,
    datasets: impl Iterator<Item = &'a Dataset>,
) -> f64 {
    let mut total_samples = 0usize;
    let mut acc = 0.0f64;
    for d in datasets {
        if d.is_empty() {
            continue;
        }
        total_samples += d.len();
        let loss = ml_oracle::loss(model, family, l2, &d.features, &d.one_hot_labels()) as f64;
        acc += loss * d.len() as f64;
    }
    if total_samples == 0 {
        0.0
    } else {
        acc / total_samples as f64
    }
}

/// Trains `server` for one epoch on `cohort` (the survivors, in the
/// caller's order) and evaluates it the way `run_epoch_in` used to.
#[allow(clippy::too_many_arguments)]
pub fn run_epoch(
    server: &mut FederatedServer,
    (family, l2): (Family, f32),
    streams: &[OnlineStream],
    train: &Dataset,
    available: &[usize],
    aggregation: AggregationNorm,
    epoch: usize,
    cohort: &[usize],
    iterations: usize,
) -> OracleEpoch {
    let cohort_data: Vec<(usize, Dataset)> =
        cohort.iter().map(|&k| (k, streams[k].epoch_dataset(train, epoch))).collect();
    let cohort_refs: Vec<(usize, &Dataset)> = cohort_data.iter().map(|(k, d)| (*k, d)).collect();

    let mut eta_max = vec![0.0f32; cohort.len()];
    let mut last_deltas = Vec::new();
    let mut local_losses = vec![0.0f32; cohort.len()];
    for it in 0..iterations {
        let stats =
            server.run_iteration_in(&cohort_refs, available.len(), aggregation, epoch, it, None);
        for (m, &e) in eta_max.iter_mut().zip(&stats.eta_hats) {
            *m = m.max(e);
        }
        if it + 1 == iterations {
            last_deltas = stats.deltas;
            local_losses = stats.losses_at_w;
        }
    }
    let j = server.j_agg();
    let grad_dot_delta: Vec<f32> = last_deltas.iter().map(|d| j.dot(d)).collect();

    let global_loss_selected =
        weighted_loss(server.model(), family, l2, cohort_data.iter().map(|(_, d)| d));
    let all_data: Vec<Dataset> =
        available.iter().map(|&k| streams[k].epoch_dataset(train, epoch)).collect();
    let global_loss_all = weighted_loss(server.model(), family, l2, all_data.iter());

    OracleEpoch {
        global_loss_all,
        global_loss_selected,
        eta_hats: eta_max,
        local_losses,
        grad_dot_delta,
    }
}
