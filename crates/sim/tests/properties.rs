//! Property-style tests of the simulator: per-epoch realizations stay in
//! their declared ranges, are deterministic per seed, and the ledger
//! arithmetic is exact. Cases are generated by seeded RNG loops — the
//! offline replacement for proptest.

use fedl_linalg::rng::{rng_for, Rng};
use fedl_net::ChannelModel;
use fedl_sim::{BudgetLedger, ClientColumns, EnvConfig};

const CASES: u64 = 32;

fn population(n: usize, seed: u64) -> (EnvConfig, ChannelModel, ClientColumns) {
    let config = EnvConfig::small(n, seed);
    let channel = ChannelModel::default();
    let cols = ClientColumns::build(&config, &channel);
    (config, channel, cols)
}

#[test]
fn realizations_in_declared_ranges() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x51A);
        let n = rng.gen_range(1usize..12);
        let seed = rng.gen_range(0u64..500);
        let epoch = rng.gen_range(0usize..200);
        let (config, channel, cols) = population(n, seed);
        let ec = cols.epoch_columns(epoch, &config, &channel);
        assert_eq!(ec.epoch, epoch);
        for k in 0..n {
            assert!(ec.cost[k] >= config.cost_range.0 && ec.cost[k] <= config.cost_range.1);
            assert!(ec.data_volume[k] >= 1);
            assert!(ec.gain[k] > 0.0 && ec.gain[k].is_finite());
        }
    }
}

#[test]
fn realizations_deterministic_per_seed() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x51B);
        let n = rng.gen_range(1usize..8);
        let seed = rng.gen_range(0u64..200);
        let epoch = rng.gen_range(0usize..50);
        let (config, channel, cols) = population(n, seed);
        let (config2, channel2, cols2) = population(n, seed);
        let a = cols.epoch_columns(epoch, &config, &channel);
        let b = cols2.epoch_columns(epoch, &config2, &channel2);
        assert_eq!(a.available, b.available);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.gain, b.gain);
        assert_eq!(a.data_volume, b.data_volume);
    }
}

#[test]
fn ledger_arithmetic_is_exact() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x51C);
        let count = rng.gen_range(0usize..20);
        let charges: Vec<f64> = (0..count).map(|_| rng.gen_range(0.0f64..50.0)).collect();
        let mut ledger = BudgetLedger::new(1000.0);
        let mut manual = 0.0;
        for &c in &charges {
            ledger.charge(c);
            manual += c;
        }
        assert!((ledger.spent() - manual).abs() < 1e-9);
        assert!((ledger.remaining() - (1000.0 - manual)).abs() < 1e-9);
        assert_eq!(ledger.epochs(), charges.len());
        assert_eq!(ledger.exhausted(), manual >= 1000.0);
    }
}

#[test]
fn clients_stay_inside_the_cell() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x51E);
        let n = rng.gen_range(1usize..20);
        let seed = rng.gen_range(0u64..300);
        let (config, channel, cols) = population(n, seed);
        assert_eq!(cols.len(), n);
        for k in 0..n {
            assert!(cols.distance_m[k] <= config.cell_radius_m + 1e-9);
            assert!(cols.distance_m[k] >= channel.min_distance_m - 1e-9);
            assert!(cols.cpu_hz[k] >= config.cpu_hz_range.0);
            assert!(cols.cpu_hz[k] <= config.cpu_hz_range.1);
            assert!(cols.cycles_per_bit[k] >= config.cycles_per_bit_range.0);
            assert!(cols.cycles_per_bit[k] <= config.cycles_per_bit_range.1);
        }
    }
}
