//! FDMA rate computation and bandwidth allocation.

use crate::channel::ClientRadio;
use crate::dbm_to_watts;

/// Shannon rate `b·log₂(1 + h·p/(N₀·b))` in bits/s for one client given
/// its allocated bandwidth `b` (Hz) and the noise density `n0` (W/Hz).
///
/// # Panics
/// Panics on non-positive bandwidth or noise density.
pub fn rate_bps(radio: &ClientRadio, bandwidth_hz: f64, n0_watts_per_hz: f64) -> f64 {
    shannon_rate_bps(radio.received_power_watts(), bandwidth_hz, n0_watts_per_hz)
}

/// [`rate_bps`] from the received signal power `h·p` in watts — for
/// callers pricing a whole population, whose transmit power is one
/// constant they convert from dBm once instead of per client.
///
/// # Panics
/// Panics on non-positive bandwidth or noise density.
pub fn shannon_rate_bps(received_watts: f64, bandwidth_hz: f64, n0_watts_per_hz: f64) -> f64 {
    assert!(bandwidth_hz > 0.0, "non-positive bandwidth");
    assert!(n0_watts_per_hz > 0.0, "non-positive noise density");
    let snr = received_watts / (n0_watts_per_hz * bandwidth_hz);
    bandwidth_hz * (1.0 + snr).log2()
}

/// Equal-share FDMA: the total bandwidth `total_hz` is split evenly over
/// the `radios` (the paper's participants all upload concurrently under
/// `Σ b_{t,k} = B`). Returns per-client rates in bits/s; an empty
/// selection returns an empty vector.
pub fn equal_share_rates(radios: &[&ClientRadio], total_hz: f64, n0_dbm_per_hz: f64) -> Vec<f64> {
    if radios.is_empty() {
        return Vec::new();
    }
    let n0 = dbm_to_watts(n0_dbm_per_hz);
    let share = total_hz / radios.len() as f64;
    radios.iter().map(|r| rate_bps(r, share, n0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelModel;
    use fedl_linalg::rng::rng_for;

    fn radio(gain: f64) -> ClientRadio {
        ClientRadio { distance_m: 100.0, tx_power_dbm: 10.0, gain }
    }

    #[test]
    fn known_rate_value() {
        // SNR contrived to exactly 1: rate = b·log2(2) = b.
        let b = 1e6;
        let n0 = 1e-12;
        let p = 0.01; // 10 dBm
        let gain = n0 * b / p; // h·p = N0·b -> SNR 1
        let r = rate_bps(&radio(gain), b, n0);
        assert!((r - b).abs() / b < 1e-12, "{r}");
    }

    #[test]
    fn rate_monotone_in_gain() {
        let b = 1e6;
        let n0 = dbm_to_watts(-174.0);
        let lo = rate_bps(&radio(1e-10), b, n0);
        let hi = rate_bps(&radio(1e-8), b, n0);
        assert!(hi > lo);
    }

    #[test]
    fn splitting_bandwidth_lowers_per_client_rate() {
        let m = ChannelModel::default();
        let mut rng = rng_for(1, 0);
        let radios: Vec<ClientRadio> =
            (0..4).map(|_| m.make_radio(200.0, 10.0, &mut rng)).collect();
        let solo = equal_share_rates(&[&radios[0]], 20e6, -174.0)[0];
        let refs: Vec<&ClientRadio> = radios.iter().collect();
        let shared = equal_share_rates(&refs, 20e6, -174.0)[0];
        assert!(shared < solo, "sharing must not increase the rate");
        // But not by more than the bandwidth factor (log term helps).
        assert!(shared > solo / 8.0);
    }

    #[test]
    fn empty_selection_is_empty() {
        assert!(equal_share_rates(&[], 20e6, -174.0).is_empty());
    }

    #[test]
    fn realistic_cell_rates_are_plausible() {
        // A 10 dBm client at 100-500 m over a 20 MHz/10-way split should
        // land in the hundreds-of-kbps to tens-of-Mbps range — sanity for
        // the latency magnitudes in the experiments.
        let m = ChannelModel::default();
        let mut rng = rng_for(2, 0);
        for d in [100.0, 300.0, 500.0] {
            let r = m.make_radio(d, 10.0, &mut rng);
            let rate = equal_share_rates(&[&r], 2e6, -174.0)[0];
            assert!(rate > 1e4 && rate < 1e9, "rate {rate} at {d} m");
        }
    }

    #[test]
    #[should_panic(expected = "non-positive bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = rate_bps(&radio(1e-9), 0.0, 1e-20);
    }
}
