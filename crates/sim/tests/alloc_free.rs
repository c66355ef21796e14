//! Zero-steady-state-allocation regression test for the columnar epoch
//! realization — the per-epoch front door of the serve/dist planes and
//! every scale-tier sweep. Once `EpochRealizeScratch` and the target
//! `EpochColumns` are warmed at a population size, realizing further
//! epochs (full or sharded) must not touch the heap; neither must a
//! `Population` advancing its warm window.
//!
//! Kept to a single `#[test]` so no sibling test can allocate
//! concurrently while the measured region runs.

use fedl_linalg::alloc_counter::CountingAllocator;
use fedl_net::{ChannelModel, LatencyModel};
use fedl_sim::{ClientColumns, EnvConfig, EpochColumns, EpochRealizeScratch, Population};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Asserts that some execution of `run` allocates nothing. The libtest
/// harness's main thread can allocate concurrently with the measured
/// window (event plumbing), so a dirty window is retried — a hot loop
/// that genuinely allocates per call fails every attempt.
fn assert_allocation_free(what: &str, mut run: impl FnMut()) {
    for attempt in 0..5 {
        let allocs = ALLOC.allocations();
        let bytes = ALLOC.bytes();
        run();
        if ALLOC.allocations() == allocs && ALLOC.bytes() == bytes {
            return;
        }
        eprintln!("{what}: allocation in measured window (attempt {attempt}); retrying");
    }
    panic!("{what} allocated in every measured window");
}

#[test]
fn epoch_realization_is_allocation_free_once_warm() {
    fedl_linalg::par::force_max_threads(1);
    let config = EnvConfig::small(128, 0xA31);
    let channel = ChannelModel::default();
    let cols = ClientColumns::build(&config, &channel);

    let mut scratch = EpochRealizeScratch::new();
    let mut out = EpochColumns::default();
    // Warm-up sizes the staging buffer and the four column vectors.
    cols.epoch_columns_partial_into(0, &config, &channel, 0..128, &mut scratch, &mut out);

    assert_allocation_free("full epoch realization", || {
        for epoch in 1..=5usize {
            cols.epoch_columns_partial_into(
                epoch,
                &config,
                &channel,
                0..128,
                &mut scratch,
                &mut out,
            );
        }
    });
    assert_allocation_free("sharded epoch realization", || {
        for epoch in 6..=10usize {
            cols.epoch_columns_partial_into(
                epoch,
                &config,
                &channel,
                32..96,
                &mut scratch,
                &mut out,
            );
        }
    });
    // The realization still did real work.
    assert_eq!(out.epoch, 10);
    assert_eq!(out.available.len(), 128);
    assert!(out.data_volume[32..96].iter().any(|&d| d > 0));

    // The window: epoch 1 warms both slots and the staging buffer; from
    // then on each epoch — asked for twice, as a driver does — refills
    // the older slot in place.
    let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
    let mut population = Population::new(config, latency);
    let mut epoch = 1usize;
    population.advance(epoch);
    let mut paid = 0.0;
    assert_allocation_free("warm window epochs", || {
        for _ in 0..5 {
            epoch += 1;
            population.advance(epoch);
            paid += population.advance(epoch).now.cost[0];
        }
    });
    assert!(paid > 0.0);
    assert_eq!(population.realizations(), epoch + 1, "epochs 0..=epoch, once each");
}
