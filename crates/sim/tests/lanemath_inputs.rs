//! Every input the seed-7 100k population hands the lane forms of `ln`,
//! `cos` and `10^y` (`fedl_linalg::lanemath`) over its first twelve
//! epochs, each function against libm by `to_bits`, and the realized
//! gain column against the scalar libm composition it replaced
//! (`Distribution::sample` on a fresh `Normal` fed the same two
//! uniforms, then `ChannelModel::gain_from_loss`).

use fedl_linalg::lanemath;
use fedl_linalg::rng::{rng_for, Distribution, Rng, LANES};
use fedl_net::ChannelModel;
use fedl_sim::{ClientColumns, EnvConfig, ScaleTier};

fn assert_lane_bits(
    name: &str,
    xs: &[f64],
    lanes: fn([f64; LANES]) -> [f64; LANES],
    libm: fn(f64) -> f64,
) {
    assert_eq!(xs.len() % LANES, 0);
    for group in xs.chunks_exact(LANES) {
        let got = lanes(group.try_into().unwrap());
        for (&x, got) in group.iter().zip(got) {
            let want = libm(x);
            assert_eq!(got.to_bits(), want.to_bits(), "{name}({x:e}) [{:#018x}]", x.to_bits());
        }
    }
}

/// A generator that yields two scripted uniforms, then nothing.
struct Scripted([f64; 2], usize);

impl Rng for Scripted {
    fn next_u64(&mut self) -> u64 {
        unreachable!("a Normal draws its uniforms through next_f64")
    }

    fn next_f64(&mut self) -> f64 {
        self.1 += 1;
        self.0[self.1 - 1]
    }
}

#[test]
fn every_input_of_twelve_seed_7_100k_epochs_matches_libm() {
    let config = EnvConfig::scale(ScaleTier::Tier100k, 7);
    let channel = ChannelModel::default();
    let cols = ClientColumns::build(&config, &channel);
    let m = cols.len();
    let (mut u1, mut theta, mut exponent) = (Vec::new(), Vec::new(), Vec::new());
    for t in 0..12usize {
        let realized = cols.epoch_columns(t, &config, &channel);
        for k in 0..m {
            // The epoch stream: availability, cost, then the shadowing's
            // two uniforms.
            let mut rng = rng_for(cols.seed[k], 0xE90C ^ t as u64);
            let (_, _) = (rng.next_f64(), rng.next_f64());
            let (a, b) = (rng.next_f64(), rng.next_f64());
            // The scalar libm path: a fresh sampler holds no spare.
            let shadow_db = channel.shadowing().sample(&mut Scripted([a, b], 0));
            u1.push(1.0 - a);
            theta.push(2.0 * std::f64::consts::PI * b);
            exponent.push(-(cols.path_loss_db[k] + shadow_db) / 10.0);
            let gain = channel.gain_from_loss(cols.path_loss_db[k], shadow_db);
            assert_eq!(realized.gain[k].to_bits(), gain.to_bits(), "epoch {t}, client {k}");
        }
    }
    assert_eq!(u1.len(), 12 * 100_000);
    assert_lane_bits("ln", &u1, lanemath::ln, f64::ln);
    assert_lane_bits("cos", &theta, lanemath::cos, f64::cos);
    assert_lane_bits("exp10", &exponent, lanemath::exp10, |y| 10f64.powf(y));
}
