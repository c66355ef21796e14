//! Dynamic regret and dynamic fit accounting (paper §5).
//!
//! Per epoch the tracker records the online objective `f_t(Φ̃_t)`, a
//! hindsight per-epoch comparator `f_t(Φ̃_t*)` (the best fractional
//! decision *for that epoch's realized coefficients*), and the observed
//! constraint vector `h_t(Φ̃_t)`. From those it reports the cumulative
//! dynamic regret `Σ f_t(Φ̃_t) − Σ f_t(Φ̃_t*)` and the dynamic fit
//! `‖[Σ h_t(Φ̃_t)]⁺‖` — the curves whose sub-linear growth Corollary 1
//! guarantees.

use crate::objective::{locator, FracDecision, OneShot};
use fedl_sim::EpochReport;

mod hindsight;

pub use hindsight::{hindsight_optimum, HindsightScratch};

/// Penalty weight used when the hindsight comparator must respect the
/// convergence constraints `h_t ≤ 0` (exact-penalty formulation, large
/// enough to dominate any feasible descent direction of `f_t`).
const H_PENALTY: f64 = 1e3;

/// Cumulative regret/fit curves.
#[derive(Debug, Clone)]
pub struct RegretTracker {
    f_online: Vec<f64>,
    f_hindsight: Vec<f64>,
    /// Running constraint sums: index 0 is the global constraint, then
    /// one slot per client id.
    h_cum: Vec<f64>,
    fit_curve: Vec<f64>,
    regret_curve: Vec<f64>,
    /// The epoch's problem with realized values in place of estimates,
    /// the comparator's answer to it and its buffers, and the constraint
    /// vector: reused across epochs (never serialized).
    observed: OneShot,
    optimum: FracDecision,
    hindsight: HindsightScratch,
    h: Vec<f64>,
}

impl RegretTracker {
    /// Tracker for a federation of `num_clients` clients.
    pub fn new(num_clients: usize) -> Self {
        Self {
            f_online: Vec::new(),
            f_hindsight: Vec::new(),
            h_cum: vec![0.0; num_clients + 1],
            fit_curve: Vec::new(),
            regret_curve: Vec::new(),
            observed: OneShot::default(),
            optimum: FracDecision { x: Vec::new(), rho: f64::NAN },
            hindsight: HindsightScratch::default(),
            h: Vec::new(),
        }
    }

    /// Number of recorded epochs.
    pub fn epochs(&self) -> usize {
        self.f_online.len()
    }

    /// Records one epoch: the problem actually posed, the fractional
    /// decision taken, and the realized outcome.
    pub fn record(&mut self, problem: &OneShot, frac: &FracDecision, report: &EpochReport) {
        // Observed problem: replace estimates with realized values.
        let observed = &mut self.observed;
        observed.copy_from(problem);
        observed.loss_all = report.global_loss_all;
        let pos_of = locator(&problem.ids);
        for (slot, &k) in report.cohort.iter().enumerate() {
            if let Some(pos) = pos_of(k) {
                observed.eta[pos] = report.eta_hats[slot] as f64;
                observed.g[pos] = report.grad_dot_delta[slot] as f64;
                observed.tau[pos] = report.per_client_iter_latency[slot];
            }
        }

        let f_t = observed.f_value(&frac.x, frac.rho);
        let star = &mut self.optimum;
        hindsight_optimum(observed, &mut self.hindsight, star);
        let f_star = observed.f_value(&star.x, star.rho);
        self.f_online.push(f_t);
        self.f_hindsight.push(f_star);
        let cum_regret = self.regret_curve.last().copied().unwrap_or(0.0) + (f_t - f_star);
        self.regret_curve.push(cum_regret);

        let h = &mut self.h;
        observed.h_value_into(&frac.x, frac.rho, h);
        self.h_cum[0] += h[0];
        for (pos, &k) in observed.ids.iter().enumerate() {
            self.h_cum[1 + k] += h[1 + pos];
        }
        let fit: f64 = self.h_cum.iter().map(|&v| v.max(0.0).powi(2)).sum::<f64>().sqrt();
        self.fit_curve.push(fit);
    }

    /// Cumulative dynamic regret after each epoch.
    pub fn cumulative_regret(&self) -> &[f64] {
        &self.regret_curve
    }

    /// Dynamic fit `‖[Σ_{≤t} h]⁺‖` after each epoch.
    pub fn fit(&self) -> &[f64] {
        &self.fit_curve
    }

    /// Per-epoch online objective values.
    pub fn f_online(&self) -> &[f64] {
        &self.f_online
    }

    /// Running constraint sums `Σ_{≤t} h`: the global constraint, then
    /// one slot per client id.
    pub fn constraint_sums(&self) -> &[f64] {
        &self.h_cum
    }

    /// Per-epoch hindsight optima.
    pub fn f_hindsight(&self) -> &[f64] {
        &self.f_hindsight
    }

    /// The last recorded epoch's problem with its realized coefficients:
    /// what the comparator solved. Empty before the first
    /// [`RegretTracker::record`] of this process (a restored tracker
    /// starts empty too).
    pub fn observed(&self) -> &OneShot {
        &self.observed
    }
}

fedl_json::record!(RegretTracker {
    f_online, f_hindsight, h_cum, fit_curve, regret_curve;
    ..Self::new(0)
});

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> OneShot {
        OneShot {
            ids: vec![0, 1, 2],
            tau: vec![0.2, 1.0, 0.5],
            costs: vec![1.0, 1.0, 1.0],
            eta: vec![0.3, 0.6, 0.4],
            g: vec![-0.5, -0.1, -0.3],
            bonus: vec![0.0; 3],
            loss_all: 0.4,
            theta: 0.6,
            min_participants: 1,
            budget: 50.0,
            rho_max: 6.0,
        }
    }

    fn report(cohort: Vec<usize>, loss: f64) -> EpochReport {
        let k = cohort.len();
        EpochReport {
            epoch: 0,
            cohort,
            iterations: 2,
            latency_secs: 1.0,
            per_client_iter_latency: vec![0.3; k],
            cost: k as f64,
            eta_hats: vec![0.5; k],
            global_loss_all: loss,
            global_loss_selected: loss,
            grad_dot_delta: vec![-0.2; k],
            local_losses: vec![loss as f32; k],
            failed: vec![],
        }
    }

    #[test]
    fn hindsight_picks_cheap_fast_clients() {
        let p = problem();
        let mut star = FracDecision { x: Vec::new(), rho: 1.0 };
        hindsight_optimum(&p, &mut HindsightScratch::default(), &mut star);
        // n = 1, loss satisfied (0.4 < 0.6): minimal f selects mostly the
        // fastest client (tau = 0.2, id 0) at rho = 1.
        assert!(star.rho < 1.5, "rho {}", star.rho);
        let sum: f64 = star.x.iter().sum();
        assert!(sum >= 1.0 - 1e-6);
        assert!(star.x[0] >= star.x[1], "{:?}", star.x);
        let f_star = p.f_value(&star.x, star.rho);
        // Any test point the comparator should beat.
        let f_all = p.f_value(&[1.0, 1.0, 1.0], 2.0);
        assert!(f_star <= f_all + 1e-9);
    }

    #[test]
    fn regret_nonnegative_against_online_choice() {
        let p = problem();
        let mut tr = RegretTracker::new(3);
        let frac = FracDecision { x: vec![1.0, 1.0, 1.0], rho: 3.0 }; // wasteful
        tr.record(&p, &frac, &report(vec![0, 1, 2], 0.4));
        assert_eq!(tr.epochs(), 1);
        assert!(tr.cumulative_regret()[0] > 0.0, "wasteful choice must incur regret");
    }

    #[test]
    fn fit_grows_only_with_violations() {
        let p = problem();
        let mut tr = RegretTracker::new(3);
        // Satisfied constraints: loss below theta, x*eta*rho - rho + 1 <= 0.
        let good = FracDecision { x: vec![1.0, 0.0, 0.0], rho: 2.0 };
        tr.record(&p, &good, &report(vec![0], 0.4));
        let fit1 = tr.fit()[0];
        // Violated loss constraint (realized loss far above theta).
        let bad = FracDecision { x: vec![1.0, 0.0, 0.0], rho: 2.0 };
        tr.record(&p, &bad, &report(vec![0], 3.0));
        let fit2 = tr.fit()[1];
        assert!(fit2 > fit1, "violation must raise fit: {fit1} -> {fit2}");
    }

    #[test]
    fn fit_never_negative_and_monotone_under_repeated_violation() {
        let p = problem();
        let mut tr = RegretTracker::new(3);
        let frac = FracDecision { x: vec![1.0, 1.0, 1.0], rho: 1.0 };
        let mut prev = 0.0;
        for _ in 0..5 {
            tr.record(&p, &frac, &report(vec![0, 1, 2], 2.5));
            let fit = *tr.fit().last().unwrap();
            assert!(fit >= prev);
            prev = fit;
        }
    }
}
