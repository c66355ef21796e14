//! Per-client observation state maintained by the online learner.
//!
//! FedL is 0-lookahead: decisions for epoch `t+1` may use only what was
//! observed up to epoch `t`. This module holds that memory — per-client
//! exponential moving averages of the quantities that enter the one-shot
//! objective (latency τ, local convergence accuracy η̂, loss-impact
//! coefficient g = J·d) plus the last fractional decision (the proximal
//! anchor Φ_t of eq. (8)).
//!
//! Since the million-client scale-out (docs/SCALE.md), [`LearnerState`]
//! stores this memory as parallel columns ([`ScoreColumns`]) rather
//! than a `Vec<Option<ClientStats>>`: the per-epoch UCB score update is
//! then a handful of dense kernel passes over the columns instead of a
//! per-client pointer chase. [`ClientStats`] is retained as the row
//! view [`LearnerState::stats`] materializes, and its
//! [`ClientStats::prior`] is the first-touch row every column kernel
//! writes. The JSON snapshot layout (a `clients` array of
//! per-client objects or nulls) is unchanged from the row-oriented
//! representation, so existing fedl-store checkpoints load unmodified.

use fedl_json::{FromJson, ToJson, Value};
use fedl_linalg::par::par_zip_chunks_grained;

/// EMA smoothing factor: weight of the newest observation.
const EMA_ALPHA: f64 = 0.5;

/// Sequential grain for the column passes: federations up to this size
/// run the fold inline (zero dispatch, zero allocation); the large scale
/// tiers fan out to the worker pool. Scheduling only — per-element
/// arithmetic is independent, so results are bit-identical either way.
const COLUMN_GRAIN: usize = 2048;

/// Observation memory for one client.
#[derive(Debug, Clone)]
pub struct ClientStats {
    /// Smoothed per-iteration latency estimate (seconds).
    pub tau: f64,
    /// Smoothed local convergence accuracy η̂ ∈ [0, 1).
    pub eta: f64,
    /// Smoothed loss-impact coefficient `g_k = J·d_k` (negative = the
    /// client's updates reduce the global loss).
    pub g: f64,
    /// Last fractional selection value for this client.
    pub last_x: f64,
    /// How many times this client has been observed in a cohort.
    pub observations: usize,
}

impl ClientStats {
    /// Optimistic prior for a never-observed client: moderate latency
    /// hint supplied by the caller, mid-range η̂ (unknown quality), zero
    /// loss impact, and the caller's fractional anchor prior (FedL uses
    /// `n/M` — the selection rate a budget-efficient policy settles at).
    pub fn prior(tau_hint: f64, x0: f64) -> Self {
        Self {
            tau: tau_hint.max(1e-6),
            eta: 0.5,
            g: 0.0,
            last_x: x0.clamp(0.0, 1.0),
            observations: 0,
        }
    }
}

fedl_json::record!(ClientStats { tau, eta, g, last_x, observations });

#[inline]
fn ema(old: f64, new: f64) -> f64 {
    (1.0 - EMA_ALPHA) * old + EMA_ALPHA * new
}

/// The per-client observation memory as parallel columns
/// (struct-of-arrays; docs/SCALE.md). Row `k` across the columns is the
/// [`ClientStats`] of client `k`; `touched[k]` distinguishes a real row
/// from the all-zeros placeholder of a never-touched client.
#[derive(Debug, Clone)]
pub struct ScoreColumns {
    /// Smoothed per-iteration latency estimates (seconds).
    pub tau: Vec<f64>,
    /// Smoothed local convergence accuracies η̂ ∈ [0, 1).
    pub eta: Vec<f64>,
    /// Smoothed loss-impact coefficients `g_k = J·d_k`.
    pub g: Vec<f64>,
    /// Last fractional selection values (proximal anchors).
    pub last_x: Vec<f64>,
    /// Cohort observation counts (drives the fairness bonus decay).
    pub observations: Vec<usize>,
    /// Whether client `k` has ever been touched (has a prior).
    pub touched: Vec<bool>,
}

/// The whole federation's observation memory, indexed by client id.
///
/// Columnar since the scale-out: reads and the per-epoch latency fold
/// run as dense kernel passes over [`ScoreColumns`]. Every mutation
/// replicates the [`ClientStats`] scalar arithmetic exactly (same EMA,
/// same prior, same clamps), which the parity tests check bit-for-bit
/// against a `Vec<Option<ClientStats>>` shadow.
#[derive(Debug, Clone)]
pub struct LearnerState {
    cols: ScoreColumns,
    /// Anchor prior for never-observed clients.
    prior_x: f64,
    /// Last observed global loss `F_t(w_t^{l_t})` over all clients.
    pub last_global_loss: f64,
    /// Last fractional iteration-control variable ρ.
    pub last_rho: f64,
}

impl LearnerState {
    /// Fresh state for `num_clients` clients with the given fractional
    /// anchor prior.
    pub fn new(num_clients: usize, prior_x: f64) -> Self {
        Self {
            cols: ScoreColumns {
                tau: vec![0.0; num_clients],
                eta: vec![0.0; num_clients],
                g: vec![0.0; num_clients],
                last_x: vec![0.0; num_clients],
                observations: vec![0; num_clients],
                touched: vec![false; num_clients],
            },
            prior_x: prior_x.clamp(0.0, 1.0),
            last_global_loss: f64::NAN,
            last_rho: 2.0,
        }
    }

    /// Number of clients tracked.
    pub fn len(&self) -> usize {
        self.cols.touched.len()
    }

    /// `true` when tracking no clients.
    pub fn is_empty(&self) -> bool {
        self.cols.touched.is_empty()
    }

    /// Read access to the columns (policy scoring gathers from these).
    pub fn columns(&self) -> &ScoreColumns {
        &self.cols
    }

    /// The anchor prior for never-observed clients.
    pub fn prior_x(&self) -> f64 {
        self.prior_x
    }

    /// Creates client `k`'s prior row if it has never been touched
    /// (scalar form of the prior pass; [`ClientStats::prior`]).
    ///
    /// # Panics
    /// Panics on an out-of-range client id.
    pub fn ensure_touched(&mut self, k: usize, tau_hint: f64) {
        assert!(k < self.len(), "unknown client {k}");
        if !self.cols.touched[k] {
            let p = ClientStats::prior(tau_hint, self.prior_x);
            self.cols.tau[k] = p.tau;
            self.cols.eta[k] = p.eta;
            self.cols.g[k] = p.g;
            self.cols.last_x[k] = p.last_x;
            self.cols.observations[k] = p.observations;
            self.cols.touched[k] = true;
        }
    }

    /// The per-epoch UCB score-update kernel (docs/SCALE.md): for every
    /// client with `mask[k]` set, create the prior row on first touch
    /// and fold the dense latency hint into τ by EMA — per client, the
    /// prior row at `hint[k]` on first touch, then `τ ← ema(τ, hint[k])`;
    /// for all masked clients at once, as sharded column passes.
    ///
    /// # Panics
    /// Panics if `mask` or `hint` is not exactly one entry per client.
    pub fn fold_latency(&mut self, mask: &[bool], hint: &[f64]) {
        let m = self.len();
        assert_eq!(mask.len(), m, "mask arity");
        assert_eq!(hint.len(), m, "hint arity");
        let touched = &self.cols.touched;
        // τ pass: EMA for touched rows, prior-then-EMA for fresh ones.
        par_zip_chunks_grained(&mut self.cols.tau, 1, hint, 1, COLUMN_GRAIN, |k, tau, h| {
            if mask[k] {
                let old = if touched[k] { tau[0] } else { h[0].max(1e-6) };
                tau[0] = ema(old, h[0]);
            }
        });
        // Prior passes for the remaining columns of fresh rows.
        let prior = ClientStats::prior(1.0, self.prior_x);
        par_zip_chunks_grained(&mut self.cols.eta, 1, mask, 1, COLUMN_GRAIN, |k, eta, m| {
            if m[0] && !touched[k] {
                eta[0] = prior.eta;
            }
        });
        par_zip_chunks_grained(&mut self.cols.g, 1, mask, 1, COLUMN_GRAIN, |k, g, m| {
            if m[0] && !touched[k] {
                g[0] = prior.g;
            }
        });
        par_zip_chunks_grained(&mut self.cols.last_x, 1, mask, 1, COLUMN_GRAIN, |k, x, m| {
            if m[0] && !touched[k] {
                x[0] = prior.last_x;
            }
        });
        // Membership pass last — the other passes read the old mask.
        par_zip_chunks_grained(&mut self.cols.touched, 1, mask, 1, COLUMN_GRAIN, |_, t, m| {
            t[0] |= m[0]
        });
    }

    /// Folds a realized cohort observation into client `k`'s row: the
    /// prior on first touch, then EMA folds of τ, η̂ (clamped below 1)
    /// and g, and an observation-count bump.
    pub fn observe_cohort(&mut self, k: usize, tau_hint: f64, tau: f64, eta: f64, g: f64) {
        self.ensure_touched(k, tau_hint);
        self.cols.tau[k] = ema(self.cols.tau[k], tau);
        self.cols.eta[k] = ema(self.cols.eta[k], eta.clamp(0.0, 0.999));
        self.cols.g[k] = ema(self.cols.g[k], g);
        self.cols.observations[k] += 1;
    }

    /// Overwrites client `k`'s proximal anchor with the latest
    /// fractional decision.
    pub fn set_anchor(&mut self, k: usize, x: f64) {
        self.cols.last_x[k] = x;
    }

    /// Read-only stats for client `k` if ever touched, materialized as
    /// the scalar row view.
    pub fn stats(&self, k: usize) -> Option<ClientStats> {
        if k < self.len() && self.cols.touched[k] {
            Some(ClientStats {
                tau: self.cols.tau[k],
                eta: self.cols.eta[k],
                g: self.cols.g[k],
                last_x: self.cols.last_x[k],
                observations: self.cols.observations[k],
            })
        } else {
            None
        }
    }
}

/// The learner state as a checkpoint holds it: the original row-oriented
/// layout (a `clients` array of per-client objects, `null` for
/// never-touched rows), so checkpoints predating the columnar store stay
/// loadable and the snapshot schema version is unchanged
/// (docs/CHECKPOINT.md).
struct LearnerRows {
    clients: Vec<Option<ClientStats>>,
    prior_x: f64,
    last_global_loss: f64,
    last_rho: f64,
}

fedl_json::record!(LearnerRows { clients, prior_x, last_global_loss, last_rho });

impl ToJson for LearnerState {
    fn to_json_value(&self) -> Value {
        let clients = (0..self.len()).map(|k| self.stats(k)).collect();
        let Self { prior_x, last_global_loss, last_rho, .. } = *self;
        LearnerRows { clients, prior_x, last_global_loss, last_rho }.to_json_value()
    }
}

/// The rows are read back into the columns.
impl FromJson for LearnerState {
    fn from_json_value(v: &Value) -> Result<Self, fedl_json::Error> {
        let rows = LearnerRows::from_json_value(v)?;
        let mut state = LearnerState::new(rows.clients.len(), rows.prior_x);
        (state.last_global_loss, state.last_rho) = (rows.last_global_loss, rows.last_rho);
        for (k, row) in rows.clients.into_iter().enumerate() {
            if let Some(s) = row {
                state.cols.tau[k] = s.tau;
                state.cols.eta[k] = s.eta;
                state.cols.g[k] = s.g;
                state.cols.last_x[k] = s.last_x;
                state.cols.observations[k] = s.observations;
                state.cols.touched[k] = true;
            }
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_is_sane() {
        let s = ClientStats::prior(0.1, 0.5);
        assert_eq!(s.tau, 0.1);
        assert_eq!(s.eta, 0.5);
        assert_eq!(s.g, 0.0);
        assert_eq!(s.observations, 0);
    }

    #[test]
    fn observe_moves_toward_new_values() {
        let mut st = LearnerState::new(1, 0.5);
        st.observe_cohort(0, 1.0, 3.0, 0.9, -2.0);
        let s = st.stats(0).unwrap();
        assert!(s.tau > 1.0 && s.tau < 3.0);
        assert!(s.eta > 0.5 && s.eta < 0.9);
        assert!(s.g < 0.0 && s.g > -2.0);
        assert_eq!(s.observations, 1);
        // Repeated observation converges.
        for _ in 0..50 {
            st.observe_cohort(0, 1.0, 3.0, 0.9, -2.0);
        }
        let s = st.stats(0).unwrap();
        assert!((s.tau - 3.0).abs() < 1e-6);
        assert!((s.eta - 0.9).abs() < 1e-6);
        assert!((s.g + 2.0).abs() < 1e-6);
    }

    #[test]
    fn eta_clamped_below_one() {
        let mut st = LearnerState::new(1, 0.5);
        for _ in 0..100 {
            st.observe_cohort(0, 1.0, 1.0, 5.0, 0.0);
        }
        assert!(st.stats(0).unwrap().eta < 1.0);
    }

    #[test]
    fn state_creates_priors_lazily() {
        let mut st = LearnerState::new(4, 0.3);
        assert!(st.stats(2).is_none());
        st.observe_cohort(2, 0.7, 1.0, 0.3, 0.0);
        assert!(st.stats(2).is_some());
        assert!(st.stats(1).is_none());
        assert_eq!(st.len(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn out_of_range_client_rejected() {
        let mut st = LearnerState::new(2, 0.3);
        st.observe_cohort(5, 0.1, 1.0, 0.5, 0.0);
    }

    /// The columnar latency fold must replicate the scalar loop (prior
    /// row on first touch, then `τ ← ema(τ, hint)`) bit-for-bit.
    #[test]
    fn fold_latency_matches_scalar_shadow() {
        let m = 50;
        let mut st = LearnerState::new(m, 0.2);
        let mut shadow: Vec<Option<ClientStats>> = vec![None; m];
        for round in 0..7u64 {
            let mask: Vec<bool> = (0..m).map(|k| !(k as u64 + round).is_multiple_of(3)).collect();
            let hint: Vec<f64> =
                (0..m).map(|k| 0.05 + 0.01 * ((k as u64 + round) % 9) as f64).collect();
            st.fold_latency(&mask, &hint);
            for (k, slot) in shadow.iter_mut().enumerate() {
                if mask[k] {
                    let s = slot.get_or_insert_with(|| ClientStats::prior(hint[k], 0.2));
                    s.tau = ema(s.tau, hint[k]);
                }
            }
        }
        for (k, slot) in shadow.iter().enumerate() {
            match (slot, st.stats(k)) {
                (None, None) => {}
                (Some(s), Some(c)) => {
                    assert_eq!(s.tau.to_bits(), c.tau.to_bits(), "client {k}");
                    assert_eq!(s.eta.to_bits(), c.eta.to_bits());
                    assert_eq!(s.last_x.to_bits(), c.last_x.to_bits());
                    assert_eq!(s.observations, c.observations);
                }
                (s, c) => panic!("client {k}: shadow {s:?} vs columns {c:?}"),
            }
        }
    }

    /// The snapshot layout must be the pre-columnar one: a `clients`
    /// array of objects-or-nulls (docs/CHECKPOINT.md).
    #[test]
    fn json_layout_is_row_oriented_and_round_trips() {
        let mut st = LearnerState::new(3, 0.4);
        st.observe_cohort(1, 0.3, 2.0, 0.6, -1.0);
        st.last_global_loss = 1.25;
        let json = st.to_json_value().to_json();
        assert!(json.starts_with("{\"clients\":[null,{\"tau\":"), "{json}");
        let back = LearnerState::from_json_value(&fedl_json::Value::parse(&json).expect("parse"))
            .expect("decode");
        assert_eq!(back.to_json_value().to_json(), json);
        assert_eq!(back.stats(1).unwrap().observations, 1);
        assert!(back.stats(0).is_none());
    }
}
