//! Zero-steady-state-allocation regression test for the columnar epoch
//! realization — the per-epoch front door of the serve/dist planes and
//! every scale-tier sweep. Once the target `EpochColumns` is warmed at a
//! population size, realizing further
//! epochs (full or sharded) must not touch the heap; neither must a
//! `Population` advancing its warm window. A warm `run_epoch` does
//! allocate — the cohort's working sets, the outcomes and aggregates of
//! each iteration, the report — and is pinned to a stated count and byte
//! total that the number of available clients does not move.
//!
//! Kept to a single `#[test]` so no sibling test can allocate
//! concurrently while the measured region runs.

use fedl_data::synth::small_fmnist;
use fedl_data::Partition;
use fedl_linalg::alloc_counter::CountingAllocator;
use fedl_linalg::rng::rng_for;
use fedl_ml::dane::DaneConfig;
use fedl_ml::model::Mlp;
use fedl_net::{ChannelModel, LatencyModel};
use fedl_sim::{ClientColumns, EdgeEnvironment, EnvConfig, EpochColumns, Population};

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

/// The fewest `(allocations, bytes)` any of five executions of `run`
/// performed (see [`assert_allocation_free`] for why not just one).
fn fewest_allocations(mut run: impl FnMut()) -> (u64, u64) {
    (0..5)
        .map(|_| {
            let (allocs, bytes) = (ALLOC.allocations(), ALLOC.bytes());
            run();
            (ALLOC.allocations() - allocs, ALLOC.bytes() - bytes)
        })
        .min()
        .expect("five windows")
}

/// A warm `run_epoch` — the same epoch, cohort and iteration count it
/// was just run at — with the first four of the clients that are up at
/// `p_available = 0.4` (and so at any higher one) selected. Returns
/// `|available|` and the window's `(allocations, bytes)`.
fn warm_run_epoch_allocations(p_available: f64) -> (usize, (u64, u64)) {
    let up_when_sparse = |config: &EnvConfig| {
        let sparse = EnvConfig { p_available: 0.4, ..config.clone() };
        let cols = ClientColumns::build(&sparse, &ChannelModel::default());
        cols.epoch_columns(2, &sparse, &ChannelModel::default()).available_ids()
    };
    let (train, test) = small_fmnist(960, 100, 0xA32);
    let mut config = EnvConfig::small(48, 0xA32);
    config.p_available = p_available;
    let model = Mlp::new(train.dim(), &[16], train.num_classes, 0.0005, &mut rng_for(0xA33, 0));
    let dane = DaneConfig { local_steps: 3, ..Default::default() };
    let mut env = EdgeEnvironment::new(config, train, test, Partition::Iid, Box::new(model), dane);
    let cohort = &up_when_sparse(env.config())[..4];
    let available = env.available(2);
    env.run_epoch(2, cohort, 2);
    (available.len(), fewest_allocations(|| drop(env.run_epoch(2, cohort, 2))))
}

#[test]
fn epoch_realization_is_allocation_free_once_warm() {
    fedl_linalg::par::force_max_threads(1);
    let config = EnvConfig::small(128, 0xA31);
    let channel = ChannelModel::default();
    let cols = ClientColumns::build(&config, &channel);

    let mut out = EpochColumns::default();
    // Warm-up sizes the four column vectors.
    cols.epoch_columns_partial_into(0, &config, &channel, 0..128, &mut out);

    assert_allocation_free("full epoch realization", || {
        for epoch in 1..=5usize {
            cols.epoch_columns_partial_into(epoch, &config, &channel, 0..128, &mut out);
        }
    });
    assert_allocation_free("sharded epoch realization", || {
        for epoch in 6..=10usize {
            // A whole number of lane groups, then a padded short one.
            for shard in [32..96, 5..66] {
                cols.epoch_columns_partial_into(epoch, &config, &channel, shard, &mut out);
            }
        }
    });
    // The realization still did real work.
    assert_eq!(out.epoch, 10);
    assert_eq!(out.available.len(), 128);
    assert!(out.data_volume[32..96].iter().any(|&d| d > 0));

    // The window: epoch 1 warms both slots; from
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

    // A warm `run_epoch`: the same cohort trains on the same working sets
    // whether 20 or all 48 clients are up, and the evaluation walk over
    // whoever is up allocates nothing — so the two totals agree, and
    // equal the number the next change to the epoch has to lower.
    let (few, sparse) = warm_run_epoch_allocations(0.4);
    let (all, full) = warm_run_epoch_allocations(1.0);
    assert!(few < 30 && all == 48, "{few} / {all} available");
    assert_eq!(sparse, full, "run_epoch allocations grew with |available| ({few} -> {all})");
    assert_eq!(full, (186, 164_928), "a warm run_epoch: (allocations, bytes)");
}
