//! The realized-epoch window of `Population` must be invisible: whatever
//! order epochs are asked for in — repeats, gaps, going backwards — what
//! `advance` lends equals a fresh realization of the same epochs, bit
//! for bit. A slot that was handed out stale, or written outside its
//! shard, fails here. And it must be worth having: a loop walking forward
//! realizes each epoch once.

use fedl_linalg::rng::{rng_for, Rng};
use fedl_net::{ChannelModel, LatencyModel};
use fedl_sim::{ClientColumns, EnvConfig, EpochColumns, Population};

/// `got` (realized over `shard`) against the full fresh realization:
/// equal bits inside the shard, inert rows outside it.
fn assert_same_rows(got: &EpochColumns, fresh: &EpochColumns, shard: &std::ops::Range<usize>) {
    assert_eq!(got.epoch, fresh.epoch);
    assert_eq!(got.available.len(), fresh.available.len());
    for k in 0..fresh.available.len() {
        if shard.contains(&k) {
            assert_eq!(got.available[k], fresh.available[k], "epoch {} client {k}", got.epoch);
            assert_eq!(got.cost[k].to_bits(), fresh.cost[k].to_bits());
            assert_eq!(got.gain[k].to_bits(), fresh.gain[k].to_bits());
            assert_eq!(got.data_volume[k], fresh.data_volume[k]);
        } else {
            let inert = !got.available[k]
                && got.cost[k] == 0.0
                && got.gain[k] == 0.0
                && got.data_volume[k] == 0;
            assert!(inert, "epoch {} row {k} outside {shard:?} was written", got.epoch);
        }
    }
}

#[test]
fn memoization_is_invisible_under_any_access_order() {
    let channel = ChannelModel::default();
    for (case, seed) in [0x70, 0x71].into_iter().enumerate() {
        let config = EnvConfig::small(48, seed);
        let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
        let cols = ClientColumns::build(&config, &channel);
        for shard in [0..48usize, 12..31] {
            let mut population = Population::sharded(config.clone(), latency, shard.clone());
            let mut rng = rng_for(0x77 + case as u64, shard.start as u64);
            let mut epoch = 0usize;
            for _ in 0..120 {
                // Mostly the walk a driver makes (stay, or step forward),
                // with steps back and jumps mixed in.
                epoch = match rng.gen_range(0u32..10) {
                    0..=2 => epoch,
                    3..=6 => epoch + 1,
                    7 => epoch.saturating_sub(1),
                    8 => epoch.saturating_sub(rng.gen_range(2usize..6)),
                    _ => rng.gen_range(0usize..40),
                };
                let lent = population.advance(epoch);
                let hint_epoch = epoch.saturating_sub(1);
                assert_same_rows(
                    lent.hint,
                    &cols.epoch_columns(hint_epoch, &config, &channel),
                    &shard,
                );
                assert_same_rows(lent.now, &cols.epoch_columns(epoch, &config, &channel), &shard);
            }
            assert!(population.realizations() < 2 * 120, "the window never hit");
        }
    }
}

fn population(n: usize, seed: u64) -> Population {
    let config = EnvConfig::small(n, seed);
    let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
    Population::new(config, latency)
}

#[test]
fn walking_forward_realizes_each_epoch_once() {
    let mut p = population(24, 31);
    for epoch in 0..6 {
        // Context, then the training outcome: the same epoch twice.
        for _ in 0..2 {
            let lent = p.advance(epoch);
            assert_eq!((lent.hint.epoch, lent.now.epoch), (epoch.saturating_sub(1), epoch));
        }
    }
    assert_eq!(p.realizations(), 6);
}

#[test]
fn lending_an_epoch_alone_keeps_the_epoch_after_it() {
    // A worker that prices epoch t+1 before t's training outcome: context
    // t, then context t+1, then the outcome of t alone — one realization
    // per epoch, and what is lent equals a fresh realization.
    let channel = ChannelModel::default();
    let config = EnvConfig::small(24, 34);
    let cols = ClientColumns::build(&config, &channel);
    let mut p = population(24, 34);
    p.advance(0);
    for epoch in 0..6 {
        p.advance(epoch + 1);
        let (_, now, _) = p.lend(epoch);
        assert_same_rows(now, &cols.epoch_columns(epoch, &config, &channel), &(0..24));
    }
    assert_eq!(p.realizations(), 7);
    // Cold, it realizes the epoch alone and keeps the next one.
    let mut p = population(24, 34);
    p.advance(4);
    assert_eq!(p.lend(2).1.epoch, 2);
    assert_eq!(p.realizations(), 3, "epoch 2 alone, into epoch 4's slot");
    assert_eq!(p.advance(4).now.epoch, 4);
    assert_eq!(p.realizations(), 4, "epoch 3 was kept; only epoch 4 is realized again");
}

#[test]
fn a_cold_start_past_epoch_zero_costs_two() {
    let mut p = population(24, 32);
    p.advance(9);
    assert_eq!(p.realizations(), 2, "epoch 9 and its hint epoch 8");
    p.advance(10);
    assert_eq!(p.realizations(), 3);
    // Stepping back one epoch keeps the epoch both pairs share.
    p.advance(10);
    p.advance(9);
    assert_eq!(p.realizations(), 4, "only epoch 8, evicted by epoch 10, is realized again");
}

#[test]
fn a_one_shot_realization_leaves_the_window_alone() {
    let mut p = population(24, 33);
    p.advance(2);
    let before = p.realizations();
    assert_eq!(p.realize(7).epoch, 7);
    assert_eq!(p.advance(2).now.epoch, 2);
    assert_eq!(p.realizations(), before);
    assert_eq!((p.shard(), p.num_clients()), (0..24, 24));
}
