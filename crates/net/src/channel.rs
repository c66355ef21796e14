//! Path loss, shadow fading, and per-client channel gains.

use fedl_linalg::lanemath;
use fedl_linalg::rng::{Distribution, Normal, Rng, LANES};

use crate::dbm_to_watts;

/// Static radio parameters of one client.
#[derive(Debug, Clone, Copy)]
pub struct ClientRadio {
    /// Distance to the server in metres.
    pub distance_m: f64,
    /// Transmit power in dBm (paper: up to 10 dBm).
    pub tx_power_dbm: f64,
    /// Linear channel gain `h_k` (includes path loss and shadowing).
    pub gain: f64,
}

impl ClientRadio {
    /// Transmit power in watts.
    pub fn tx_power_watts(&self) -> f64 {
        dbm_to_watts(self.tx_power_dbm)
    }

    /// Received signal power `h_k · p_k` in watts.
    pub fn received_power_watts(&self) -> f64 {
        self.gain * self.tx_power_watts()
    }
}

/// The cell's propagation model (paper §6.1).
#[derive(Debug, Clone, Copy)]
pub struct ChannelModel {
    /// Shadow-fading standard deviation in dB (paper: 8 dB).
    pub shadowing_std_db: f64,
    /// Minimum client–server distance in metres; keeps the log-distance
    /// model out of its near-field singularity.
    pub min_distance_m: f64,
}

impl Default for ChannelModel {
    fn default() -> Self {
        Self { shadowing_std_db: 8.0, min_distance_m: 10.0 }
    }
}

impl ChannelModel {
    /// Deterministic path loss in dB at distance `d` metres:
    /// `128.1 + 37.6·log₁₀(d_km)`.
    pub fn path_loss_db(&self, distance_m: f64) -> f64 {
        let d_km = (distance_m.max(self.min_distance_m)) / 1000.0;
        128.1 + 37.6 * d_km.log10()
    }

    /// [`Self::path_loss_db`] of each lane's distance, bit for bit: the
    /// `log10` runs [`LANES`] at a time ([`lanemath::log10`]).
    #[inline]
    pub fn path_loss_db_lanes(&self, distance_m: &[f64; LANES]) -> [f64; LANES] {
        let log = lanemath::log10(distance_m.map(|d| d.max(self.min_distance_m) / 1000.0));
        log.map(|log| 128.1 + 37.6 * log)
    }

    /// Samples a channel gain at `distance_m`, combining path loss with a
    /// fresh log-normal shadowing draw.
    pub fn sample_gain(&self, distance_m: f64, rng: &mut impl Rng) -> f64 {
        self.gain_from_shadow(distance_m, self.shadowing().sample(rng))
    }

    /// The shadow-fading distribution `N(0, σ²)` in dB.
    pub fn shadowing(&self) -> Normal {
        Normal::new(0.0, self.shadowing_std_db)
    }

    /// The linear gain at `distance_m` under a shadowing draw of
    /// `shadow_db`: what [`Self::sample_gain`] returns for that draw.
    #[inline]
    pub fn gain_from_shadow(&self, distance_m: f64, shadow_db: f64) -> f64 {
        self.gain_from_loss(self.path_loss_db(distance_m), shadow_db)
    }

    /// The linear gain `10^(−(L + s)/10)` under a path loss of
    /// `path_loss_db` (a [`Self::path_loss_db`] value) and a shadowing
    /// draw of `shadow_db` — for callers that hold the path loss of a
    /// fixed distance instead of recomputing it per draw.
    #[inline]
    pub fn gain_from_loss(&self, path_loss_db: f64, shadow_db: f64) -> f64 {
        let loss_db = path_loss_db + shadow_db;
        10f64.powf(-loss_db / 10.0)
    }

    /// [`Self::gain_from_loss`] of each lane's `(path_loss_db[i],
    /// shadow_db[i])`, bit for bit: the `10^x` runs [`LANES`] at a time
    /// ([`lanemath::exp10`]).
    #[inline]
    pub fn gain_from_loss_lanes(
        &self,
        path_loss_db: &[f64; LANES],
        shadow_db: &[f64; LANES],
    ) -> [f64; LANES] {
        let mut exponent = [0.0; LANES];
        for i in 0..LANES {
            let loss_db = path_loss_db[i] + shadow_db[i];
            exponent[i] = -loss_db / 10.0;
        }
        lanemath::exp10(exponent)
    }

    /// Builds a client radio at `distance_m` with the given power.
    pub fn make_radio(
        &self,
        distance_m: f64,
        tx_power_dbm: f64,
        rng: &mut impl Rng,
    ) -> ClientRadio {
        ClientRadio { distance_m, tx_power_dbm, gain: self.sample_gain(distance_m, rng) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_linalg::rng::rng_for;

    #[test]
    fn path_loss_reference_values() {
        let m = ChannelModel::default();
        // At 1 km the formula gives exactly 128.1 dB.
        assert!((m.path_loss_db(1000.0) - 128.1).abs() < 1e-9);
        // At 100 m: 128.1 - 37.6 = 90.5 dB.
        assert!((m.path_loss_db(100.0) - 90.5).abs() < 1e-9);
    }

    #[test]
    fn path_loss_monotone_in_distance() {
        let m = ChannelModel::default();
        let mut prev = m.path_loss_db(20.0);
        for d in [50.0, 100.0, 250.0, 500.0] {
            let pl = m.path_loss_db(d);
            assert!(pl > prev, "path loss must grow with distance");
            prev = pl;
        }
    }

    #[test]
    fn near_field_clamped() {
        let m = ChannelModel::default();
        assert_eq!(m.path_loss_db(0.0), m.path_loss_db(m.min_distance_m));
        assert_eq!(m.path_loss_db(3.0), m.path_loss_db(10.0));
    }

    #[test]
    fn gains_positive_and_distance_ordered_on_average() {
        let m = ChannelModel::default();
        let mut rng = rng_for(1, 0);
        let mean_gain = |d: f64, rng: &mut fedl_linalg::rng::Xoshiro256pp| {
            (0..400).map(|_| m.sample_gain(d, rng)).sum::<f64>() / 400.0
        };
        let near = mean_gain(50.0, &mut rng);
        let far = mean_gain(450.0, &mut rng);
        assert!(near > 0.0 && far > 0.0);
        assert!(near > far * 5.0, "near {near} vs far {far}");
    }

    #[test]
    fn shadowing_produces_variation() {
        let m = ChannelModel::default();
        let mut rng = rng_for(2, 0);
        let g1 = m.sample_gain(200.0, &mut rng);
        let g2 = m.sample_gain(200.0, &mut rng);
        assert_ne!(g1, g2);
    }

    #[test]
    fn radio_power_accounting() {
        let m = ChannelModel::default();
        let mut rng = rng_for(3, 0);
        let r = m.make_radio(100.0, 10.0, &mut rng);
        assert!((r.tx_power_watts() - 0.01).abs() < 1e-12); // 10 dBm = 10 mW
        assert!((r.received_power_watts() - r.gain * 0.01).abs() < 1e-18);
    }
}
