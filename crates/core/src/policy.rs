//! The selection-policy abstraction every scheme (FedL and the three
//! baselines) implements, and the observable context the runner hands to
//! a 0-lookahead policy each epoch.

use fedl_sim::EpochReport;

use crate::baselines::{FedAvgPolicy, FedCsPolicy, PowDPolicy};
use crate::fedl::{FedLConfig, FedLPolicy};

/// Everything a 0-lookahead policy may legitimately see when selecting
/// the epoch-`t` cohort: current availability and prices (known at
/// rental time) plus *estimates* carried over from earlier epochs.
#[derive(Debug, Clone)]
pub struct EpochContext {
    /// Epoch index `t`.
    pub epoch: usize,
    /// Total number of clients `M` in the federation.
    pub num_clients: usize,
    /// Ids of the available clients `E_t`.
    pub available: Vec<usize>,
    /// Rental costs `c_{t,k}`, aligned with `available`.
    pub costs: Vec<f64>,
    /// Advertised data volumes `D_{t,k}`, aligned with `available`.
    pub data_volumes: Vec<usize>,
    /// Per-iteration latency estimates from the *previous* epoch's
    /// channel state (nominal FDMA share of `n`), aligned with
    /// `available`.
    pub latency_hint: Vec<f64>,
    /// Last-known local loss per available client (global-loss prior for
    /// never-observed clients), aligned with `available`.
    pub loss_hint: Vec<f64>,
    /// The *current* epoch's realized per-iteration latency, aligned
    /// with `available`. This is 1-lookahead information that a real
    /// deployment does not have; only the [`crate::baselines::OraclePolicy`]
    /// reference may read it. Online policies must use `latency_hint`.
    pub true_latency: Vec<f64>,
    /// Remaining long-term budget.
    pub remaining_budget: f64,
    /// Participation floor `n` (constraint (3b)).
    pub min_participants: usize,
    /// Root seed for policy-internal randomness.
    pub seed: u64,
}

impl EpochContext {
    /// Validates alignment between the per-client vectors.
    ///
    /// # Panics
    /// Panics on arity mismatch — a runner bug.
    pub fn validate(&self) {
        let k = self.available.len();
        assert_eq!(self.costs.len(), k, "costs arity");
        assert_eq!(self.data_volumes.len(), k, "data_volumes arity");
        assert_eq!(self.latency_hint.len(), k, "latency_hint arity");
        assert_eq!(self.loss_hint.len(), k, "loss_hint arity");
        assert_eq!(self.true_latency.len(), k, "true_latency arity");
        assert!(self.min_participants > 0, "participation floor must be positive");
    }

    /// The effective participation floor `min(n, |E_t|)`.
    pub fn effective_n(&self) -> usize {
        self.min_participants.min(self.available.len()).max(1)
    }
}

/// A policy's decision for one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionDecision {
    /// Selected client ids (must all be available).
    pub cohort: Vec<usize>,
    /// Number of federated iterations `l_t` to run.
    pub iterations: usize,
}

/// A client-selection scheme.
pub trait SelectionPolicy: Send {
    /// Human-readable scheme name (used in figure legends).
    fn name(&self) -> &'static str;

    /// Chooses the epoch's cohort and iteration count.
    fn select(&mut self, ctx: &EpochContext) -> SelectionDecision;

    /// Feeds back the realized outcome of the epoch this policy chose.
    fn observe(&mut self, _ctx: &EpochContext, _report: &EpochReport) {}

    /// Hands the policy the run's telemetry handle, for policies that
    /// report about their own decisions (FedL: the `core.solve.*`
    /// metrics of docs/TELEMETRY.md). Never changes a decision.
    fn set_telemetry(&mut self, _telemetry: fedl_telemetry::Telemetry) {}

    /// The dynamic regret/fit tracker, for policies that maintain one
    /// (FedL does; the baselines return `None`). Used by the
    /// theory-validation benches.
    fn regret_tracker(&self) -> Option<&crate::regret::RegretTracker> {
        None
    }

    /// The policy's current scalar quality estimate for `client` —
    /// FedL reports its smoothed local-convergence accuracy η̂ₖ; the
    /// memoryless baselines keep the default `None`. The runner records
    /// this on the per-epoch `select` telemetry event so offline
    /// analysis (the attribution dashboard) can show what the policy
    /// believed about each client it rented.
    fn client_estimate(&self, _client: usize) -> Option<f64> {
        None
    }

    /// Serializes every piece of cross-epoch mutable state (learned
    /// estimates, multipliers, RNG streams) for a run checkpoint, such
    /// that a freshly built policy of the same kind and configuration
    /// restored from it continues the run identically (the `fedl-store`
    /// contract; schema in docs/CHECKPOINT.md). Policies with no
    /// cross-epoch state keep the default, which snapshots to `null`.
    fn snapshot_state(&self) -> fedl_json::Value {
        fedl_json::Value::Null
    }

    /// Restores state produced by [`SelectionPolicy::snapshot_state`].
    ///
    /// Must only be called between epochs (never between a `select` and
    /// its `observe`) on a policy built with the same configuration that
    /// produced the snapshot.
    fn restore_state(&mut self, state: &fedl_json::Value) -> Result<(), fedl_json::Error> {
        match state {
            fedl_json::Value::Null => Ok(()),
            _ => Err(fedl_json::Error::msg(format!(
                "policy {} is stateless but the checkpoint carries policy state",
                self.name()
            ))),
        }
    }
}

/// The schemes evaluated in the paper's §6, plus a 1-lookahead oracle
/// reference used in regret analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's contribution (online learning + RDCS).
    FedL,
    /// Random selection (McMahan et al. \[19\]).
    FedAvg,
    /// Deadline-constrained maximal selection (Nishio & Yonetani \[21\]).
    FedCS,
    /// Power-of-choice by local loss (Cho et al. \[5\]).
    PowD,
    /// Latency oracle: sees the current epoch's realized latencies
    /// (1-lookahead) and picks the `n` fastest clients — the hindsight
    /// comparator of the paper's per-epoch `f_t` minimization.
    Oracle,
}

impl PolicyKind {
    /// The paper's four schemes, in its plotting order ([`PolicyKind::Oracle`]
    /// is a reference, not a competitor, so it is excluded).
    pub const ALL: [PolicyKind; 4] =
        [PolicyKind::FedL, PolicyKind::FedCS, PolicyKind::FedAvg, PolicyKind::PowD];

    /// Instantiates the policy. `num_clients`, `budget`, and
    /// `min_participants` size FedL's state and Corollary-1 step sizes;
    /// `fedl_config` customizes FedL (ignored by the baselines).
    pub fn build(
        self,
        num_clients: usize,
        budget: f64,
        min_participants: usize,
        fedl_config: FedLConfig,
    ) -> Box<dyn SelectionPolicy> {
        match self {
            PolicyKind::FedL => {
                Box::new(FedLPolicy::new(fedl_config, num_clients, budget, min_participants))
            }
            PolicyKind::FedAvg => Box::new(FedAvgPolicy::new()),
            PolicyKind::FedCS => Box::new(FedCsPolicy::default_deadline()),
            PolicyKind::PowD => Box::new(PowDPolicy::new(2)),
            PolicyKind::Oracle => Box::new(crate::baselines::OraclePolicy::new()),
        }
    }

    /// [`Self::build`] minus FedL's per-epoch regret/fit accounting
    /// (see [`FedLPolicy::without_regret_tracking`]): the tracker's
    /// hindsight-comparator solve costs more than the epoch itself at
    /// service-scale populations, and execution layers that never plot
    /// regret curves don't need it. Selections are bit-identical to
    /// [`Self::build`]'s; the baselines are unaffected.
    pub fn build_untracked(
        self,
        num_clients: usize,
        budget: f64,
        min_participants: usize,
        fedl_config: FedLConfig,
    ) -> Box<dyn SelectionPolicy> {
        match self {
            PolicyKind::FedL => Box::new(
                FedLPolicy::new(fedl_config, num_clients, budget, min_participants)
                    .without_regret_tracking(),
            ),
            other => other.build(num_clients, budget, min_participants, fedl_config),
        }
    }

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::FedL => "FedL",
            PolicyKind::FedAvg => "FedAvg",
            PolicyKind::FedCS => "FedCS",
            PolicyKind::PowD => "Pow-d",
            PolicyKind::Oracle => "Oracle",
        }
    }

    /// The kind a label names — the inverse of [`Self::label`], ignoring
    /// case and hyphens (so the CLI spellings `fedl` and `powd` and the
    /// wire's `FedL` and `Pow-d` all resolve).
    pub fn from_label(label: &str) -> Option<Self> {
        let key = |s: &str| s.replace('-', "").to_ascii_lowercase();
        let want = key(label);
        [Self::FedL, Self::FedAvg, Self::FedCS, Self::PowD, Self::Oracle]
            .into_iter()
            .find(|kind| key(kind.label()) == want)
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// A small, fully populated context for policy unit tests.
    pub fn ctx(available: Vec<usize>, costs: Vec<f64>, budget: f64, n: usize) -> EpochContext {
        let k = available.len();
        let c = EpochContext {
            epoch: 0,
            num_clients: available.iter().copied().max().map_or(1, |m| m + 1),
            available,
            costs,
            data_volumes: vec![20; k],
            latency_hint: (0..k).map(|i| 0.1 + 0.05 * i as f64).collect(),
            loss_hint: (0..k).map(|i| 2.0 + 0.1 * i as f64).collect(),
            true_latency: (0..k).map(|i| 0.1 + 0.05 * i as f64).collect(),
            remaining_budget: budget,
            min_participants: n,
            seed: 7,
        };
        c.validate();
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_util::ctx;

    #[test]
    fn context_validation_catches_misalignment() {
        let mut c = ctx(vec![0, 1, 2], vec![1.0, 2.0, 3.0], 10.0, 2);
        c.costs.pop();
        let result = std::panic::catch_unwind(move || c.validate());
        assert!(result.is_err());
    }

    #[test]
    fn effective_n_caps_at_availability() {
        let c = ctx(vec![0, 1], vec![1.0, 1.0], 10.0, 5);
        assert_eq!(c.effective_n(), 2);
    }

    #[test]
    fn all_policies_build_and_name() {
        for kind in PolicyKind::ALL {
            let p = kind.build(10, 100.0, 3, FedLConfig::default());
            assert_eq!(p.name(), kind.label());
        }
    }

    #[test]
    fn labels_round_trip_in_every_spelling() {
        for kind in [PolicyKind::Oracle].into_iter().chain(PolicyKind::ALL) {
            assert_eq!(PolicyKind::from_label(kind.label()), Some(kind));
            assert_eq!(PolicyKind::from_label(&kind.label().to_lowercase()), Some(kind));
        }
        assert_eq!(PolicyKind::from_label("powd"), Some(PolicyKind::PowD));
        assert_eq!(PolicyKind::from_label("magic"), None);
    }

    #[test]
    fn every_policy_returns_valid_decision() {
        let c = ctx(vec![0, 1, 2, 3, 4], vec![1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 2);
        for kind in PolicyKind::ALL {
            let mut p = kind.build(5, 50.0, 2, FedLConfig::default());
            let d = p.select(&c);
            assert!(!d.cohort.is_empty(), "{} selected nobody", p.name());
            assert!(d.iterations >= 1, "{} ran zero iterations", p.name());
            assert!(
                d.cohort.iter().all(|id| c.available.contains(id)),
                "{} selected an unavailable client",
                p.name()
            );
            let mut sorted = d.cohort.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), d.cohort.len(), "{} duplicated a client", p.name());
        }
    }
}
