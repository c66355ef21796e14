//! The seed-7 100k population and its first twelve epochs, pinned by
//! digest: every static column of `ClientColumns::build` and every
//! column of `epoch_columns` for epochs 0–11, each value by `to_bits`.
//! A shard's columns (`ClientColumns::build_shard`) are held to the full
//! build row for row, and to zero outside the shard.
//!
//! The oracle tests (`columnar_parity.rs`, `lane_parity.rs`) hold the
//! columnar code to a second statement of §6.1; this file holds both to
//! the bits they produced when the constants were computed, so a change
//! that moves the population stream or the realization together with
//! its oracle still fails here. A change that means to move them
//! recomputes the constants and says why.

use std::ops::Range;

use fedl_net::ChannelModel;
use fedl_sim::{ClientColumns, EnvConfig, ScaleTier};

/// FNV-1a over 64-bit words, in column order.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01B3))
}

fn bits(column: &[f64]) -> u64 {
    digest(column.iter().map(|x| x.to_bits()))
}

#[test]
fn the_seed_7_100k_population_and_twelve_epochs_keep_their_bits() {
    let config = EnvConfig::scale(ScaleTier::Tier100k, 7);
    let channel = ChannelModel::default();
    let cols = ClientColumns::build(&config, &channel);
    assert_eq!(cols.len(), 100_000);
    let statics = [
        ("distance_m", bits(&cols.distance_m)),
        ("path_loss_db", bits(&cols.path_loss_db)),
        ("base_gain", bits(&cols.base_gain)),
        ("cycles_per_bit", bits(&cols.cycles_per_bit)),
        ("cpu_hz", bits(&cols.cpu_hz)),
        ("lambda", bits(&cols.lambda)),
        ("arrival_limit", bits(&cols.arrival_limit)),
        ("seed", digest(cols.seed.iter().copied())),
        ("tx_power_dbm", cols.tx_power_dbm.to_bits()),
    ];
    let want_statics = [
        ("distance_m", 0x9a44_e6e3_e9d6_f798),
        ("path_loss_db", 0xf7c1_ff13_5715_f75e),
        ("base_gain", 0xf08b_9979_54ad_7637),
        ("cycles_per_bit", 0xc06b_a62b_37c5_2dd2),
        ("cpu_hz", 0xcc6c_c3ed_a756_3676),
        ("lambda", 0x0154_3ecd_91bf_af05),
        ("arrival_limit", 0x5317_1323_a8ca_7364),
        ("seed", 0x38f0_1f57_6a6c_45a5),
        ("tx_power_dbm", 0x4024_0000_0000_0000),
    ];
    let mut epochs = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut available = 0usize;
    for t in 0..12 {
        let e = cols.epoch_columns(t, &config, &channel);
        assert_eq!(e.epoch, t);
        available += e.available.iter().filter(|&&on| on).count();
        epochs[0].push(digest(e.available.iter().map(|&on| on as u64)));
        epochs[1].push(bits(&e.cost));
        epochs[2].push(bits(&e.gain));
        epochs[3].push(digest(e.data_volume.iter().map(|&v| v as u64)));
    }
    let realized = [
        ("available", digest(epochs[0].iter().copied())),
        ("cost", digest(epochs[1].iter().copied())),
        ("gain", digest(epochs[2].iter().copied())),
        ("data_volume", digest(epochs[3].iter().copied())),
    ];
    let want_realized = [
        ("available", 0x3d36_ca22_f487_3d35),
        ("cost", 0xc5ac_398c_77d2_dd5c),
        ("gain", 0x7f4b_1e5a_21e5_7da6),
        ("data_volume", 0x75bc_f602_eaca_907f),
    ];
    assert_eq!(statics, want_statics);
    assert_eq!(realized, want_realized);
    assert_eq!(available, 959_368);
}

/// The eight per-client columns, by `to_bits`.
fn rows(cols: &ClientColumns) -> [Vec<u64>; 8] {
    let bits = |column: &[f64]| column.iter().map(|x| x.to_bits()).collect();
    [
        bits(&cols.distance_m),
        bits(&cols.path_loss_db),
        bits(&cols.base_gain),
        bits(&cols.cycles_per_bit),
        bits(&cols.cpu_hz),
        bits(&cols.lambda),
        bits(&cols.arrival_limit),
        cols.seed.clone(),
    ]
}

#[test]
fn a_shard_build_is_the_full_build_on_its_rows_and_zero_elsewhere() {
    let channel = ChannelModel::default();
    for seed in [7, 11, 0x5EED] {
        for m in [1usize, 17, 100, 100_000] {
            let config = EnvConfig::small(m, seed);
            let full = rows(&ClientColumns::build(&config, &channel));
            // `fedl_dist::shard_ranges(m, 2)`: the first half takes the odd row.
            let half = m.div_ceil(2);
            // 5..M−3, off the lane grid at both ends (empty below M = 8).
            let five = 5.min(m);
            let unaligned = five..m.saturating_sub(3).max(five);
            let shards: [Range<usize>; 7] =
                [0..m, half..half, 0..1, m - 1..m, unaligned, 0..half, half..m];
            for shard in shards {
                let cols = ClientColumns::build_shard(&config, &channel, shard.clone());
                assert_eq!(cols.len(), m);
                assert_eq!(cols.tx_power_dbm.to_bits(), config.tx_power_dbm.to_bits());
                for (c, (got, want)) in rows(&cols).iter().zip(&full).enumerate() {
                    for k in 0..m {
                        let want = if shard.contains(&k) { want[k] } else { 0 };
                        assert_eq!(
                            got[k], want,
                            "seed {seed} M {m} rows {shard:?}: column {c}, row {k}"
                        );
                    }
                }
            }
        }
    }
}
