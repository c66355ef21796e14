//! The realization walks a shard sixteen clients at a time, each draw
//! stepping sixteen streams in lockstep. Here it is held `to_bits` equal
//! to the scalar one-client-at-a-time oracle (`oracle/mod.rs`): at shard
//! lengths around a lane group (0, 1, 15, 16, 17) and around the realize
//! grain (`REALIZE_CHUNK` ± 1), at shard starts off the group
//! boundaries, under Bernoulli and Markov availability — replayed from
//! epoch 0 by `epoch_columns_partial_into`, stepped from the previous
//! epoch by a `Population` walking forward — with a moving and a frozen
//! channel, at the paper's λ ∈ [20, 60] (two Poisson chunks) and the
//! small tier's λ ∈ [8, 24], at one and two threads.
//!
//! A debug build runs a small sweep; `cargo test --release` runs over a
//! million client-epochs (`scripts/ci.sh --stage scale`).

// The oracle's compute profiles are not part of a realization.
#[allow(dead_code)]
mod oracle;

use std::ops::Range;

use fedl_net::{ChannelModel, LatencyModel};
use fedl_sim::columns::REALIZE_CHUNK;
use fedl_sim::config::AvailabilityModel;
use fedl_sim::{ClientColumns, EnvConfig, EpochColumns, Population};
use oracle::ClientProfile;

/// One client's realized row, as bits.
type Row = (bool, u64, u64, u32);

/// How much of the sweep runs: epochs walked, and whether the
/// whole-population shard is realized too.
struct Sweep {
    epochs: usize,
    whole_population: bool,
}

const SWEEP: Sweep = if cfg!(debug_assertions) {
    Sweep { epochs: 2, whole_population: false }
} else {
    Sweep { epochs: 12, whole_population: true }
};

fn configs(clients: usize) -> Vec<(&'static str, EnvConfig)> {
    let markov = AvailabilityModel::Markov { p_stay_on: 0.8, p_stay_off: 0.6 };
    let paper = EnvConfig { num_clients: clients, ..EnvConfig::paper_scale(0x1A7E) };
    let small = EnvConfig::small(clients, 0x1A7F);
    vec![
        ("bernoulli, moving, paper λ", paper.clone()),
        (
            "markov, frozen, paper λ",
            EnvConfig { availability: markov, time_varying_channel: false, ..paper },
        ),
        ("bernoulli, frozen, small λ", EnvConfig { time_varying_channel: false, ..small.clone() }),
        ("markov, moving, small λ", EnvConfig { availability: markov, ..small }),
    ]
}

fn row(realized: &EpochColumns, k: usize) -> Row {
    (
        realized.available[k],
        realized.cost[k].to_bits(),
        realized.gain[k].to_bits(),
        realized.data_volume[k],
    )
}

/// `got` (realized over `shard`) against the oracle's rows of its epoch;
/// the number of rows compared.
fn check(got: &EpochColumns, want: &[Row], shard: &Range<usize>, what: &str) -> usize {
    assert_eq!(got.available.len(), want.len(), "{what}");
    for (k, &want) in want.iter().enumerate() {
        if shard.contains(&k) {
            assert_eq!(row(got, k), want, "{what}: epoch {} client {k}", got.epoch);
        } else {
            assert_eq!(row(got, k), (false, 0, 0, 0), "{what}: row {k} outside the shard");
        }
    }
    shard.len()
}

#[test]
fn lane_groups_realize_exactly_what_the_scalar_oracle_draws() {
    let clients = REALIZE_CHUNK + 64;
    let mut shards: Vec<Range<usize>> = vec![
        0..0,
        9..9,
        0..1,
        37..38,
        0..15,
        5..20,
        16..31,
        0..16,
        21..37,
        0..17,
        33..50,
        3..3 + REALIZE_CHUNK - 1,
        7..7 + REALIZE_CHUNK + 1,
    ];
    if SWEEP.whole_population {
        shards.push(0..clients);
    }
    let channel = ChannelModel::default();
    let mut compared = 0usize;
    for (name, config) in configs(clients) {
        let pools = (0..clients).map(|k| vec![k]).collect();
        let profiles = ClientProfile::build_population(&config, &channel, pools);
        let oracle: Vec<Vec<Row>> = (0..SWEEP.epochs)
            .map(|epoch| {
                profiles
                    .iter()
                    .map(|p| {
                        let v = p.epoch_view(epoch, &config, &channel);
                        let volume = u32::try_from(v.data_volume).expect("a volume fits u32");
                        (v.available, v.cost.to_bits(), v.radio.gain.to_bits(), volume)
                    })
                    .collect()
            })
            .collect();
        let cols = ClientColumns::build(&config, &channel);
        let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
        let mut replayed = EpochColumns::default();
        for threads in [1, 2] {
            fedl_linalg::par::force_max_threads(threads);
            for shard in &shards {
                let what = format!("{name}, shard {shard:?}, {threads} thread(s)");
                // Stepped: a window walking forward hands the Markov chain
                // the previous epoch's availability.
                let mut population = Population::sharded(config.clone(), latency, shard.clone());
                for (epoch, want) in oracle.iter().enumerate() {
                    compared += check(population.advance(epoch).now, want, shard, &what);
                    // Replayed: the chain runs again from epoch 0.
                    cols.epoch_columns_partial_into(
                        epoch,
                        &config,
                        &channel,
                        shard.clone(),
                        &mut replayed,
                    );
                    compared += check(&replayed, want, shard, &what);
                }
            }
        }
    }
    let floor = if cfg!(debug_assertions) { 100_000 } else { 1_000_000 };
    assert!(compared >= floor, "only {compared} client-epochs compared");
    eprintln!("{compared} client-epochs compared against the scalar oracle");
}
