//! Structured event traces of a federated run.
//!
//! Long simulations are hard to debug from aggregate curves alone; this
//! module records a per-epoch event log (selection, payments, latency,
//! convergence measurements) that checkpoints carry and that can be
//! diffed across policy variants.

use crate::env::EpochReport;

/// One epoch's trace entry.
#[derive(Debug, Clone)]
pub struct EpochEvent {
    /// Epoch index.
    pub epoch: usize,
    /// Selected client ids.
    pub cohort: Vec<usize>,
    /// Iterations run.
    pub iterations: usize,
    /// Epoch latency in simulated seconds.
    pub latency_secs: f64,
    /// Rental cost paid.
    pub cost: f64,
    /// Remaining budget after payment.
    pub remaining_budget: f64,
    /// Max observed local accuracy per cohort client.
    pub eta_hats: Vec<f32>,
    /// Global loss over all available clients after the epoch.
    pub global_loss: f64,
}

fedl_json::record!(EpochEvent {
    epoch,
    cohort,
    iterations,
    latency_secs,
    cost,
    remaining_budget,
    eta_hats,
    global_loss
});

/// Append-only run trace.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    events: Vec<EpochEvent>,
}

impl RunTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a trace from already-recorded events (checkpoint
    /// restore).
    pub fn from_events(events: Vec<EpochEvent>) -> Self {
        Self { events }
    }

    /// Records an epoch from its report and the post-payment budget.
    pub fn record(&mut self, report: &EpochReport, remaining_budget: f64) {
        self.events.push(EpochEvent {
            epoch: report.epoch,
            cohort: report.cohort.clone(),
            iterations: report.iterations,
            latency_secs: report.latency_secs,
            cost: report.cost,
            remaining_budget,
            eta_hats: report.eta_hats.clone(),
            global_loss: report.global_loss_all,
        });
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[EpochEvent] {
        &self.events
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-client selection counts over the whole run (index = client
    /// id; clients never selected report 0).
    pub fn selection_counts(&self, num_clients: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_clients];
        for e in &self.events {
            for &k in &e.cohort {
                if k < num_clients {
                    counts[k] += 1;
                }
            }
        }
        counts
    }

    /// Selection-fairness summary: Jain's fairness index of the
    /// selection counts, in `(0, 1]` (1 = perfectly even). The paper
    /// lists fairness as future work; this metric makes the trade-off
    /// FedL makes observable.
    pub fn jain_fairness(&self, num_clients: usize) -> f64 {
        let counts = self.selection_counts(num_clients);
        let sum: f64 = counts.iter().map(|&c| c as f64).sum();
        let sum_sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
        if sum_sq == 0.0 {
            return 1.0;
        }
        sum * sum / (num_clients as f64 * sum_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(epoch: usize, cohort: Vec<usize>) -> EpochReport {
        let k = cohort.len();
        EpochReport {
            epoch,
            cohort,
            iterations: 2,
            latency_secs: 0.5,
            per_client_iter_latency: vec![0.25; k],
            cost: k as f64,
            eta_hats: vec![0.4; k],
            global_loss_all: 1.5,
            global_loss_selected: 1.4,
            grad_dot_delta: vec![-0.1; k],
            local_losses: vec![1.5; k],
            failed: vec![],
        }
    }

    #[test]
    fn records_in_order() {
        let mut tr = RunTrace::new();
        assert!(tr.is_empty());
        tr.record(&report(0, vec![1, 2]), 90.0);
        tr.record(&report(1, vec![2, 3]), 80.0);
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.events()[0].epoch, 0);
        assert_eq!(tr.events()[1].remaining_budget, 80.0);
    }

    #[test]
    fn selection_counts_and_fairness() {
        let mut tr = RunTrace::new();
        tr.record(&report(0, vec![0, 1]), 1.0);
        tr.record(&report(1, vec![0, 2]), 1.0);
        tr.record(&report(2, vec![0, 1]), 1.0);
        let counts = tr.selection_counts(4);
        assert_eq!(counts, vec![3, 2, 1, 0]);
        let fairness = tr.jain_fairness(4);
        assert!(fairness > 0.0 && fairness < 1.0);
        // Perfectly even selection -> fairness 1.
        let mut even = RunTrace::new();
        even.record(&report(0, vec![0, 1]), 1.0);
        even.record(&report(1, vec![2, 3]), 1.0);
        assert!((even.jain_fairness(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_fairness_is_one() {
        assert_eq!(RunTrace::new().jain_fairness(5), 1.0);
    }
}
