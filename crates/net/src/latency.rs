//! Per-client latency: local computation plus uplink transmission
//! (paper §3.2).

use crate::channel::ClientRadio;
use crate::fdma::equal_share_rates;

/// A client's computation capability.
#[derive(Debug, Clone, Copy)]
pub struct ComputeProfile {
    /// CPU cycles needed per *bit* of training data (paper: U[10, 30]).
    pub cycles_per_bit: f64,
    /// CPU frequency π_k in Hz (paper: up to 2 GHz).
    pub cpu_hz: f64,
}

impl ComputeProfile {
    /// Computation time of one local update over `data_bits` of training
    /// data: `τ^loc = e_k·bits/π_k`.
    ///
    /// # Panics
    /// Panics on a non-positive CPU frequency.
    pub fn local_update_secs(&self, data_bits: f64) -> f64 {
        assert!(self.cpu_hz > 0.0, "non-positive CPU frequency");
        self.cycles_per_bit * data_bits / self.cpu_hz
    }
}

/// The full latency model for one epoch's selected cohort.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Total uplink bandwidth `B` in Hz (paper: 20 MHz).
    pub bandwidth_hz: f64,
    /// Noise power density in dBm/Hz (paper: −174).
    pub noise_dbm_per_hz: f64,
    /// Upload payload `s` in bits — the model update size, constant
    /// across clients because the model dimension is fixed (§3.2).
    pub upload_bits: f64,
    /// Bits per training sample (feature bytes × 8), used to turn sample
    /// counts into `data_bits` for the computation model.
    pub bits_per_sample: f64,
}

/// One client's per-iteration latency, separated into its two phases
/// (paper §3.2: `τ = τ^loc + τ^cm`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySplit {
    /// Local-computation time `τ^loc` in seconds.
    pub compute_secs: f64,
    /// Uplink transmission time `τ^cm` in seconds.
    pub upload_secs: f64,
}

impl LatencySplit {
    /// Total per-iteration latency `τ^loc + τ^cm`.
    pub fn total_secs(&self) -> f64 {
        self.compute_secs + self.upload_secs
    }
}

impl LatencyModel {
    /// Paper-default parameters for a model with `upload_bits` payload
    /// and `bits_per_sample` sample width.
    pub fn paper_defaults(upload_bits: f64, bits_per_sample: f64) -> Self {
        Self { bandwidth_hz: 20e6, noise_dbm_per_hz: -174.0, upload_bits, bits_per_sample }
    }

    /// Per-iteration latency of each selected client, split into
    /// computation and upload components (`τ^loc_{t,k}`, `τ^cm_{t,k}`),
    /// where the FDMA bandwidth is shared equally among the cohort.
    /// `samples[k]` is client `k`'s current data volume `D_{t,k}`.
    ///
    /// # Panics
    /// Panics if the slice lengths disagree.
    pub fn per_iteration_split(
        &self,
        radios: &[&ClientRadio],
        computes: &[&ComputeProfile],
        samples: &[usize],
    ) -> Vec<LatencySplit> {
        assert_eq!(radios.len(), computes.len(), "radio/compute length mismatch");
        assert_eq!(radios.len(), samples.len(), "radio/sample length mismatch");
        let rates = equal_share_rates(radios, self.bandwidth_hz, self.noise_dbm_per_hz);
        rates
            .iter()
            .zip(computes)
            .zip(samples)
            .map(|((&rate, compute), &n)| LatencySplit {
                compute_secs: compute.local_update_secs(n as f64 * self.bits_per_sample),
                upload_secs: self.upload_bits / rate.max(1e-3),
            })
            .collect()
    }

    /// Per-iteration total latency `τ^loc_{t,k} + τ^cm_{t,k}` of each
    /// selected client (the sum of the [`Self::per_iteration_split`]
    /// components).
    ///
    /// # Panics
    /// Panics if the slice lengths disagree.
    pub fn per_iteration_secs(
        &self,
        radios: &[&ClientRadio],
        computes: &[&ComputeProfile],
        samples: &[usize],
    ) -> Vec<f64> {
        self.per_iteration_split(radios, computes, samples)
            .into_iter()
            .map(|s| s.total_secs())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelModel;
    use fedl_linalg::rng::rng_for;

    fn cohort(n: usize) -> (Vec<ClientRadio>, Vec<ComputeProfile>) {
        let m = ChannelModel::default();
        let mut rng = rng_for(1, 0);
        let radios = (0..n).map(|_| m.make_radio(200.0, 10.0, &mut rng)).collect();
        let computes =
            (0..n).map(|_| ComputeProfile { cycles_per_bit: 20.0, cpu_hz: 2e9 }).collect();
        (radios, computes)
    }

    #[test]
    fn compute_latency_formula() {
        let c = ComputeProfile { cycles_per_bit: 20.0, cpu_hz: 2e9 };
        // 20 cycles/bit * 1e6 bits / 2e9 Hz = 0.01 s.
        assert!((c.local_update_secs(1e6) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn the_data_heavy_client_is_the_slowest() {
        let (radios, computes) = cohort(3);
        let model = LatencyModel::paper_defaults(1e5, 6272.0);
        let r: Vec<&ClientRadio> = radios.iter().collect();
        let c: Vec<&ComputeProfile> = computes.iter().collect();
        let per = model.per_iteration_secs(&r, &c, &[10, 500, 10]);
        assert!(per[1] > per[0]);
    }

    #[test]
    fn more_data_means_more_compute_time() {
        let (radios, computes) = cohort(1);
        let model = LatencyModel::paper_defaults(1e5, 6272.0);
        let small = model.per_iteration_secs(&[&radios[0]], &[&computes[0]], &[10])[0];
        let large = model.per_iteration_secs(&[&radios[0]], &[&computes[0]], &[1000])[0];
        assert!(large > small);
    }

    #[test]
    fn bigger_cohort_slows_uploads() {
        let (radios, computes) = cohort(8);
        let model = LatencyModel::paper_defaults(1e6, 6272.0);
        let solo = model.per_iteration_secs(&[&radios[0]], &[&computes[0]], &[1])[0];
        let r: Vec<&ClientRadio> = radios.iter().collect();
        let c: Vec<&ComputeProfile> = computes.iter().collect();
        let crowded = model.per_iteration_secs(&r, &c, &[1; 8])[0];
        assert!(crowded > solo, "FDMA sharing must slow the upload");
    }

    #[test]
    fn split_components_sum_to_total() {
        let (radios, computes) = cohort(4);
        let model = LatencyModel::paper_defaults(1e6, 6272.0);
        let r: Vec<&ClientRadio> = radios.iter().collect();
        let c: Vec<&ComputeProfile> = computes.iter().collect();
        let samples = [10, 200, 40, 5];
        let splits = model.per_iteration_split(&r, &c, &samples);
        let totals = model.per_iteration_secs(&r, &c, &samples);
        assert_eq!(splits.len(), 4);
        for (split, total) in splits.iter().zip(&totals) {
            assert!(split.compute_secs > 0.0);
            assert!(split.upload_secs > 0.0);
            assert!((split.total_secs() - total).abs() < 1e-15);
        }
    }
}
