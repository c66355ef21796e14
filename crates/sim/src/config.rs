//! Environment configuration — the paper's §6.1 constants, overridable
//! for scaled-down tests.

use fedl_json::{obj, ToJson, Value};

use crate::error::SimError;

/// How the server normalizes the summed client directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationNorm {
    /// Divide by the number of *available* clients `|E_t|` — the paper's
    /// aggregation rule (w^i = w^{i−1} + (1/|E_t|)·Σ x_k·d_k). Selecting
    /// more clients genuinely enlarges the aggregate step, which is what
    /// gives FedCS its strong early rounds in Figs. 2–5.
    Available,
    /// Divide by the cohort size — the FedAvg-style rule, provided for
    /// the aggregation ablation.
    Cohort,
}

/// Client-population tiers of the `scale` scenario family
/// ([`EnvConfig::scale`], docs/SCALE.md). The tier sets only the
/// population size; every per-client distribution keeps the paper's
/// shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleTier {
    /// 10 000 clients — small enough for debug-mode tests and the CI
    /// quick bench, large enough that per-client loops already hurt.
    Tier10k,
    /// 100 000 clients — the acceptance tier: a full scheduler epoch
    /// must complete through the columnar path.
    Tier100k,
    /// 1 000 000 clients — the ROADMAP north-star tier, exercised by the
    /// paper-profile bench kernels.
    Tier1M,
}

impl ScaleTier {
    /// All tiers, ascending.
    pub const ALL: [ScaleTier; 3] = [ScaleTier::Tier10k, ScaleTier::Tier100k, ScaleTier::Tier1M];

    /// The population size `M` of this tier.
    pub fn num_clients(self) -> usize {
        match self {
            ScaleTier::Tier10k => 10_000,
            ScaleTier::Tier100k => 100_000,
            ScaleTier::Tier1M => 1_000_000,
        }
    }

    /// Short label used in bench kernel names (`scale/score_update_10k`).
    pub fn label(self) -> &'static str {
        match self {
            ScaleTier::Tier10k => "10k",
            ScaleTier::Tier100k => "100k",
            ScaleTier::Tier1M => "1m",
        }
    }
}

/// Full specification of a simulated edge federation.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Number of clients `M` (paper: 100).
    pub num_clients: usize,
    /// Cell radius in metres (paper: 500, server at the centre).
    pub cell_radius_m: f64,
    /// Availability probability per client per epoch: each epoch's
    /// availability is an independent Bernoulli draw (§6.1).
    pub p_available: f64,
    /// Probability that a *selected* client fails mid-epoch (battery
    /// death, connection drop — the paper's §1 motivating uncertainty).
    /// The server aggregates without the casualty; its rent is still
    /// paid (the failure happens after commitment).
    pub p_dropout: f64,
    /// Per-epoch rental cost range, uniform (paper: [0.1, 12], modelling
    /// Amazon dynamic prices).
    pub cost_range: (f64, f64),
    /// Range of per-client mean data-arrival rates λ (Poisson, §6.1).
    pub lambda_range: (f64, f64),
    /// Transmit power in dBm (paper: 10 for every client).
    pub tx_power_dbm: f64,
    /// CPU frequency range in Hz (paper: up to 2 GHz).
    pub cpu_hz_range: (f64, f64),
    /// Cycles-per-bit range (paper: U[10, 30]).
    pub cycles_per_bit_range: (f64, f64),
    /// Upload payload in bits (model size `s`, constant across clients).
    pub upload_bits: f64,
    /// Aggregation normalization.
    pub aggregation: AggregationNorm,
    /// Use the min-makespan FDMA bandwidth split
    /// ([`fedl_net::allocation::min_makespan`], the joint-allocation
    /// upgrade of the paper's reference \[24\]) instead of the default
    /// equal share.
    pub optimal_bandwidth: bool,
    /// Root seed for every stochastic process in the environment.
    pub seed: u64,
}

impl EnvConfig {
    /// The paper's full-scale setting (M = 100 in a 500 m cell).
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            num_clients: 100,
            cell_radius_m: 500.0,
            p_available: 0.8,
            p_dropout: 0.0,
            cost_range: (0.1, 12.0),
            lambda_range: (20.0, 60.0),
            tx_power_dbm: 10.0,
            cpu_hz_range: (0.5e9, 2.0e9),
            cycles_per_bit_range: (10.0, 30.0),
            // ~1 Mbit model update: far/deep-shadowed clients take
            // seconds to upload while cell-centre clients take tens of
            // milliseconds — the stable heterogeneity a latency-aware
            // selector can exploit.
            upload_bits: 1e6,
            aggregation: AggregationNorm::Available,
            optimal_bandwidth: false,
            seed,
        }
    }

    /// A scaled-down setting for unit tests and examples: everything is
    /// the same shape, just smaller.
    pub fn small(num_clients: usize, seed: u64) -> Self {
        Self { num_clients, lambda_range: (8.0, 24.0), ..Self::paper_scale(seed) }
    }

    /// The `scale` scenario family (docs/SCALE.md): the paper's §6.1
    /// heterogeneity at production population sizes. Identical to
    /// [`EnvConfig::small`] except for the client count, so the 10k tier
    /// is directly comparable to the test-scale scenarios and the 1M
    /// tier exercises the columnar scheduler path
    /// ([`crate::ClientColumns`]) at the ROADMAP's north-star size.
    pub fn scale(tier: ScaleTier, seed: u64) -> Self {
        Self { num_clients: tier.num_clients(), ..Self::small(1, seed) }
    }

    /// Checks internal consistency, returning the first violated
    /// requirement as a [`SimError`] instead of panicking.
    // The negated comparisons are load-bearing: `!(x > 0.0)` also
    // rejects NaN, which `x <= 0.0` would let through.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn try_validate(&self) -> Result<(), SimError> {
        let fail = |msg: String| Err(SimError::InvalidConfig(msg));
        if self.num_clients == 0 {
            return fail("need at least one client".into());
        }
        if !(self.cell_radius_m > 0.0) {
            return fail(format!("non-positive cell radius {}", self.cell_radius_m));
        }
        if !(self.p_available > 0.0 && self.p_available <= 1.0) {
            return fail(format!(
                "availability probability must be in (0, 1], got {}",
                self.p_available
            ));
        }
        if !(0.0..1.0).contains(&self.p_dropout) {
            return fail(format!("dropout probability must be in [0, 1), got {}", self.p_dropout));
        }
        if !(self.cost_range.0 > 0.0 && self.cost_range.0 <= self.cost_range.1) {
            return fail(format!("bad cost range {:?}", self.cost_range));
        }
        if !(self.lambda_range.0 > 0.0 && self.lambda_range.0 <= self.lambda_range.1) {
            return fail(format!("bad lambda range {:?}", self.lambda_range));
        }
        if !(self.cpu_hz_range.0 > 0.0 && self.cpu_hz_range.0 <= self.cpu_hz_range.1) {
            return fail(format!("bad cpu range {:?}", self.cpu_hz_range));
        }
        if !(self.cycles_per_bit_range.0 > 0.0
            && self.cycles_per_bit_range.0 <= self.cycles_per_bit_range.1)
        {
            return fail(format!("bad cycles/bit range {:?}", self.cycles_per_bit_range));
        }
        if !(self.upload_bits > 0.0) {
            return fail(format!("non-positive upload size {}", self.upload_bits));
        }
        Ok(())
    }

    /// Validates internal consistency; called by the environment
    /// constructor.
    ///
    /// # Panics
    /// Panics with a description of the first violated requirement (the
    /// [`Self::try_validate`] error message).
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

// By hand: an enum is written as its name.
impl ToJson for AggregationNorm {
    fn to_json_value(&self) -> Value {
        Value::from(match self {
            AggregationNorm::Available => "available",
            AggregationNorm::Cohort => "cohort",
        })
    }
}

// By hand: ranges are pairs and two retired fields are written as literals.
impl ToJson for EnvConfig {
    /// Canonical serialization: every field, in declaration order, with
    /// two retired fields (Bernoulli `availability`, a moving channel)
    /// at their old places as the literals they always held. This
    /// is part of the result-cache key contract (docs/CHECKPOINT.md) —
    /// two configs produce the same JSON iff a run under one is
    /// interchangeable with a run under the other, so adding a field
    /// here (or reordering) deliberately invalidates cached results.
    fn to_json_value(&self) -> Value {
        obj(vec![
            ("num_clients", self.num_clients.to_json_value()),
            ("cell_radius_m", self.cell_radius_m.to_json_value()),
            ("p_available", self.p_available.to_json_value()),
            // A retired field, kept as a literal: every fingerprint and cache key stays.
            ("availability", obj(vec![("kind", Value::from("bernoulli"))])),
            ("p_dropout", self.p_dropout.to_json_value()),
            ("cost_range", self.cost_range.to_json_value()),
            ("lambda_range", self.lambda_range.to_json_value()),
            ("tx_power_dbm", self.tx_power_dbm.to_json_value()),
            ("cpu_hz_range", self.cpu_hz_range.to_json_value()),
            ("cycles_per_bit_range", self.cycles_per_bit_range.to_json_value()),
            ("upload_bits", self.upload_bits.to_json_value()),
            // A retired field, kept as a literal: every fingerprint and cache key stays.
            ("time_varying_channel", Value::Bool(true)),
            ("aggregation", self.aggregation.to_json_value()),
            ("optimal_bandwidth", self.optimal_bandwidth.to_json_value()),
            ("seed", self.seed.to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_section_6_1() {
        let c = EnvConfig::paper_scale(0);
        assert_eq!(c.num_clients, 100);
        assert_eq!(c.cell_radius_m, 500.0);
        assert_eq!(c.cost_range, (0.1, 12.0));
        assert_eq!(c.tx_power_dbm, 10.0);
        assert_eq!(c.cpu_hz_range.1, 2.0e9);
        assert_eq!(c.cycles_per_bit_range, (10.0, 30.0));
        c.validate();
    }

    #[test]
    fn canonical_json_is_stable_and_field_sensitive() {
        let a = EnvConfig::small(5, 7).to_json_value().to_json();
        assert_eq!(a, EnvConfig::small(5, 7).to_json_value().to_json());
        assert_ne!(a, EnvConfig::small(5, 8).to_json_value().to_json(), "seed must be keyed");
        let mut c = EnvConfig::small(5, 7);
        c.aggregation = AggregationNorm::Cohort;
        assert_ne!(a, c.to_json_value().to_json());
    }

    #[test]
    fn small_shrinks_but_validates() {
        let c = EnvConfig::small(5, 1);
        assert_eq!(c.num_clients, 5);
        c.validate();
    }

    #[test]
    fn scale_tiers_validate_and_share_the_small_shape() {
        for tier in ScaleTier::ALL {
            let c = EnvConfig::scale(tier, 3);
            assert_eq!(c.num_clients, tier.num_clients());
            assert_eq!(c.lambda_range, EnvConfig::small(1, 3).lambda_range);
            assert_eq!(c.cost_range, EnvConfig::paper_scale(3).cost_range);
            c.validate();
        }
        assert_eq!(ScaleTier::Tier1M.label(), "1m");
        assert_eq!(ScaleTier::Tier1M.num_clients(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "availability probability")]
    fn validate_rejects_zero_availability() {
        let mut c = EnvConfig::small(3, 0);
        c.p_available = 0.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "bad cost range")]
    fn validate_rejects_inverted_costs() {
        let mut c = EnvConfig::small(3, 0);
        c.cost_range = (5.0, 1.0);
        c.validate();
    }

    #[test]
    fn try_validate_returns_typed_errors() {
        let mut c = EnvConfig::small(3, 0);
        assert_eq!(c.try_validate(), Ok(()));
        c.num_clients = 0;
        let err = c.try_validate().unwrap_err();
        assert!(err.to_string().contains("need at least one client"), "{err}");
        let mut c = EnvConfig::small(3, 0);
        c.lambda_range = (0.0, 5.0);
        assert!(c.try_validate().unwrap_err().to_string().contains("bad lambda range"));
    }

    #[test]
    fn try_validate_rejects_nan_fields() {
        let mut c = EnvConfig::small(3, 0);
        c.p_dropout = f64::NAN;
        assert!(c.try_validate().is_err());
        let mut c = EnvConfig::small(3, 0);
        c.cell_radius_m = f64::NAN;
        assert!(c.try_validate().is_err());
    }
}
