//! Property-style tests of the wireless model: physical monotonicities
//! (more distance → more loss, more bandwidth → more rate) that must
//! hold for every parameter draw. Cases are generated by seeded RNG
//! loops — the offline replacement for proptest.

use fedl_linalg::rng::{rng_for, Rng};
use fedl_net::{dbm_to_watts, rate_bps, ChannelModel, ClientRadio, ComputeProfile, LatencyModel};

const CASES: u64 = 64;

fn radio(gain: f64, power_dbm: f64) -> ClientRadio {
    ClientRadio { distance_m: 100.0, tx_power_dbm: power_dbm, gain }
}

#[test]
fn path_loss_monotone() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 0xA0);
        let d1 = rng.gen_range(20.0f64..5000.0);
        let factor = rng.gen_range(1.01f64..10.0);
        let m = ChannelModel::default();
        assert!(m.path_loss_db(d1 * factor) > m.path_loss_db(d1));
    }
}

#[test]
fn rate_monotone_in_power_and_gain() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 0xA1);
        let gain = 10f64.powf(rng.gen_range(-14.0f64..-6.0));
        let power = rng.gen_range(-10.0f64..20.0);
        let bw = rng.gen_range(1e4f64..2e7);
        let n0 = dbm_to_watts(-174.0);
        let base = rate_bps(&radio(gain, power), bw, n0);
        assert!(base > 0.0 && base.is_finite());
        assert!(rate_bps(&radio(gain * 2.0, power), bw, n0) > base);
        assert!(rate_bps(&radio(gain, power + 3.0), bw, n0) > base);
    }
}

#[test]
fn rate_increases_with_bandwidth() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 0xA2);
        let gain = 10f64.powf(rng.gen_range(-12.0f64..-7.0));
        let bw = rng.gen_range(1e5f64..1e7);
        let factor = rng.gen_range(1.1f64..5.0);
        // Total rate grows with bandwidth (though sub-linearly in SNR).
        let n0 = dbm_to_watts(-174.0);
        let r1 = rate_bps(&radio(gain, 10.0), bw, n0);
        let r2 = rate_bps(&radio(gain, 10.0), bw * factor, n0);
        assert!(r2 > r1, "{r2} <= {r1}");
        // But not super-linearly.
        assert!(r2 < r1 * factor + 1e-6);
    }
}

#[test]
fn compute_latency_scales_linearly() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 0xA3);
        let cycles = rng.gen_range(10.0f64..30.0);
        let cpu = rng.gen_range(0.5e9f64..2e9);
        let bits = rng.gen_range(1e3f64..1e7);
        let k = rng.gen_range(2.0f64..10.0);
        let c = ComputeProfile { cycles_per_bit: cycles, cpu_hz: cpu };
        let t1 = c.local_update_secs(bits);
        let tk = c.local_update_secs(bits * k);
        assert!((tk - k * t1).abs() < 1e-9 * tk.max(1.0));
    }
}

#[test]
fn per_iteration_latencies_positive_and_finite() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 0xA4);
        let n = rng.gen_range(2..6usize);
        let gains: Vec<f64> = (0..n).map(|_| 10f64.powf(rng.gen_range(-12.0f64..-8.0))).collect();
        let samples: Vec<usize> = (0..n).map(|_| rng.gen_range(1..200usize)).collect();
        let radios: Vec<ClientRadio> = gains.iter().map(|&g| radio(g, 10.0)).collect();
        let computes: Vec<ComputeProfile> =
            (0..n).map(|_| ComputeProfile { cycles_per_bit: 20.0, cpu_hz: 1e9 }).collect();
        let model = LatencyModel::paper_defaults(1e5, 6272.0);
        let r: Vec<&ClientRadio> = radios.iter().collect();
        let c: Vec<&ComputeProfile> = computes.iter().collect();
        let per = model.per_iteration_secs(&r, &c, &samples);
        assert!(per.iter().all(|&t| t > 0.0 && t.is_finite()));
    }
}
