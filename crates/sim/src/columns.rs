//! Columnar (struct-of-arrays) client population — the million-client
//! scale-out path (docs/SCALE.md).
//!
//! [`ClientColumns`] holds the static population as parallel columns
//! (one `Vec` per attribute) instead of a `Vec` of per-client structs,
//! and [`EpochColumns`] holds one epoch's realization of the time axis
//! (availability, cost, channel gain, data volume) the same way. Dense
//! kernels in `fedl-core` then scan column slices instead of chasing
//! per-client structs, which is what makes one scheduler epoch over
//! 10⁶ clients a handful of contiguous passes.
//!
//! Determinism contract: [`ClientColumns::build`] consumes the shared
//! population RNG stream client by client, and
//! [`ClientColumns::epoch_columns`] draws each client's epoch from its
//! own streams (`rng_for(seed_k, tag)`), sixteen clients' streams stepped
//! in lockstep ([`XoshiroLanes`]), so realization order — and therefore
//! grouping and sharding — cannot change a single bit of the result. The
//! scalar per-client realization lives on as a test oracle
//! (`tests/oracle`), held bit-identical by `tests/lane_parity.rs` and
//! `tests/columnar_parity.rs` here and in `fedl-core`.

use fedl_data::stream::arrival_count_lanes;
use fedl_linalg::par::par_chunks_grained;
use fedl_linalg::rng::{derive_seed, rng_for, Rng, XoshiroLanes, LANES};
use fedl_net::{ChannelModel, ClientRadio};

use crate::config::{AvailabilityModel, EnvConfig};

/// Realization grain: populations at most this large are realized
/// inline on the caller (zero dispatch); larger ones fan out across the
/// worker team. Purely a parallel-grain choice — per-client draws are
/// independently seeded, so the split never affects values. The
/// per-client passes downstream of a realization (`fedl-core`'s context
/// assembly) split at the same grain.
pub const REALIZE_CHUNK: usize = 16 * 1024;

/// The static client population as parallel columns (struct-of-arrays).
///
/// Row `k` across all columns describes client `k`; every column has
/// length [`ClientColumns::len`]. At one million clients the store costs
/// 48 bytes/client ≈ 48 MB (see docs/SCALE.md for the full memory
/// budget).
///
/// ```
/// use fedl_sim::{ClientColumns, EnvConfig};
/// use fedl_net::ChannelModel;
///
/// let config = EnvConfig::small(64, 7);
/// let channel = ChannelModel::default();
/// let cols = ClientColumns::build(&config, &channel);
/// assert_eq!(cols.len(), 64);
/// assert_eq!(cols.distance_m.len(), cols.cpu_hz.len());
/// // Placement respects the cell geometry.
/// assert!(cols.distance_m.iter().all(|&d| d <= config.cell_radius_m));
/// ```
#[derive(Debug, Clone)]
pub struct ClientColumns {
    /// Distance from the server in metres.
    pub distance_m: Vec<f64>,
    /// Base channel gain drawn at creation (used when the channel is not
    /// time-varying).
    pub base_gain: Vec<f64>,
    /// Computation cost in cycles per bit.
    pub cycles_per_bit: Vec<f64>,
    /// CPU frequency in Hz.
    pub cpu_hz: Vec<f64>,
    /// Mean Poisson data-arrival rate λ.
    pub lambda: Vec<f64>,
    /// Per-client root seed for epoch draws and the data stream.
    pub seed: Vec<u64>,
    /// Transmit power in dBm (constant across the population, §6.1).
    pub tx_power_dbm: f64,
}

impl ClientColumns {
    /// Draws the population columns from the environment config.
    ///
    /// Consumes the shared population RNG (`rng_for(config.seed,
    /// 0xC11E)`) client by client: placement, base gain, cycles/bit, CPU
    /// frequency, arrival rate.
    pub fn build(config: &EnvConfig, channel: &ChannelModel) -> Self {
        let m = config.num_clients;
        let mut cols = ClientColumns {
            distance_m: Vec::with_capacity(m),
            base_gain: Vec::with_capacity(m),
            cycles_per_bit: Vec::with_capacity(m),
            cpu_hz: Vec::with_capacity(m),
            lambda: Vec::with_capacity(m),
            seed: Vec::with_capacity(m),
            tx_power_dbm: config.tx_power_dbm,
        };
        // The draws share one sequential stream, so this loop is serial
        // by construction; it runs once per environment.
        let mut rng = rng_for(config.seed, 0xC11E);
        for id in 0..m {
            // Uniform placement over the disk: sqrt for area uniformity.
            let r = config.cell_radius_m * rng.gen::<f64>().sqrt();
            let distance_m = r.max(channel.min_distance_m);
            cols.distance_m.push(distance_m);
            cols.base_gain.push(channel.sample_gain(distance_m, &mut rng));
            cols.cycles_per_bit
                .push(rng.gen_range(config.cycles_per_bit_range.0..=config.cycles_per_bit_range.1));
            cols.cpu_hz.push(rng.gen_range(config.cpu_hz_range.0..=config.cpu_hz_range.1));
            cols.lambda.push(rng.gen_range(config.lambda_range.0..=config.lambda_range.1));
            cols.seed.push(derive_seed(config.seed, 0xC11E_0000 + id as u64));
        }
        cols
    }

    /// Number of clients `M`.
    pub fn len(&self) -> usize {
        self.seed.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.seed.is_empty()
    }

    /// Realizes epoch `t` for the whole population as columns.
    ///
    /// Each client draws from `rng_for(seed_k, 0xE90C ^ t)`:
    /// availability, cost, then gain; data volumes are
    /// [`fedl_data::stream::arrival_count`] (drawn sixteen at a time by
    /// its lane form), which equals the materialized arrival batch
    /// length. This is the one-shot form of
    /// [`epoch_columns_partial_into`](Self::epoch_columns_partial_into);
    /// epoch loops hold a [`Population`](crate::Population) instead.
    pub fn epoch_columns(
        &self,
        epoch: usize,
        config: &EnvConfig,
        channel: &ChannelModel,
    ) -> EpochColumns {
        let mut out = EpochColumns::default();
        self.epoch_columns_partial_into(epoch, config, channel, 0..self.len(), &mut out);
        out
    }

    /// Realizes epoch `t` for the contiguous id range `shard` only, into
    /// a caller-owned buffer: `out`'s columns are resized and overwritten
    /// in place, so once `out` is warm (one prior call at this population
    /// size) a steady-state epoch loop allocates nothing.
    ///
    /// Columns come back full-length (so downstream kernels keep global
    /// indexing), with rows outside `shard` reset to their inert defaults
    /// (`available = false`, zero cost/gain/volume) on every call.
    /// Clients are realized [`LANES`] at a time, groups in parallel over
    /// contiguous runs above [`REALIZE_CHUNK`] clients; because every
    /// client's draws are independently seeded, neither the grouping,
    /// the fan-out nor the shard boundary can perturb a value: the rows
    /// inside `shard` are bit-identical to the same rows of a full
    /// [`epoch_columns`](Self::epoch_columns) realization at any thread
    /// count — the invariant that makes shard boundaries invisible in
    /// distributed runs, pinned by `partial_realization_matches_full_rows`
    /// below.
    ///
    /// # Panics
    /// Panics if `shard` is out of bounds or reversed.
    pub fn epoch_columns_partial_into(
        &self,
        epoch: usize,
        config: &EnvConfig,
        channel: &ChannelModel,
        shard: std::ops::Range<usize>,
        out: &mut EpochColumns,
    ) {
        self.realize_shard_into(epoch, config, channel, shard, None, out);
    }

    /// [`Self::epoch_columns_partial_into`], optionally stepping from
    /// `before` — the realization of epoch `t − 1` over the same `shard`
    /// — instead of from epoch 0: a Markov availability chain is one
    /// transition per epoch, so with `t − 1`'s availability column in
    /// hand each client's state costs one draw, not `t`. The chain's
    /// draws are keyed by `(seed_k, epoch)` alone, so the stepped and the
    /// replayed state are the same bits. Only the availability column of
    /// `before` is read, and only [`AvailabilityModel::Markov`] uses it.
    pub(crate) fn realize_shard_into(
        &self,
        epoch: usize,
        config: &EnvConfig,
        channel: &ChannelModel,
        shard: std::ops::Range<usize>,
        before: Option<&EpochColumns>,
        out: &mut EpochColumns,
    ) {
        let m = self.len();
        assert!(
            before.is_none_or(|b| b.epoch + 1 == epoch && b.available.len() == m),
            "the realization to step from must be epoch {epoch}'s predecessor"
        );
        assert!(
            shard.start <= shard.end && shard.end <= m,
            "shard {shard:?} out of bounds for population of {m}"
        );
        out.epoch = epoch;
        out.available.clear();
        out.available.resize(m, false);
        out.cost.clear();
        out.cost.resize(m, 0.0);
        out.gain.clear();
        out.gain.resize(m, 0.0);
        out.data_volume.clear();
        out.data_volume.resize(m, 0);
        if shard.is_empty() {
            return;
        }
        // Each piece is one lane group of the shard's rows, written in
        // place; the shard's short last group is padded with its last
        // client, whose extra draws are dropped.
        let rows = (
            (&mut out.available[shard.clone()], &mut out.cost[shard.clone()]),
            (&mut out.gain[shard.clone()], &mut out.data_volume[shard.clone()]),
        );
        par_chunks_grained(
            rows,
            LANES,
            REALIZE_CHUNK / LANES,
            |group, ((on, cost), (gain, volume))| {
                let first = shard.start + group * LANES;
                let ids = std::array::from_fn(|i| (first + i).min(shard.end - 1));
                let drawn = self.realize_lanes(&ids, epoch, before, config, channel);
                let n = on.len();
                on.copy_from_slice(&drawn.0[..n]);
                cost.copy_from_slice(&drawn.1[..n]);
                gain.copy_from_slice(&drawn.2[..n]);
                volume.copy_from_slice(&drawn.3[..n]);
            },
        );
    }

    /// Clients `ids`' epoch draws, one per lane — availability, cost,
    /// gain, data volume: the `rng_for(seed_k, 0xE90C ^ t)` lanes give
    /// availability, cost, then the two shadowing uniforms; the
    /// `0x57EA ^ t` lanes the arrivals. `before` holds epoch `t − 1` when
    /// the caller has it.
    #[allow(clippy::type_complexity)]
    fn realize_lanes(
        &self,
        ids: &[usize; LANES],
        epoch: usize,
        before: Option<&EpochColumns>,
        config: &EnvConfig,
        channel: &ChannelModel,
    ) -> ([bool; LANES], [f64; LANES], [f64; LANES], [u32; LANES]) {
        let seeds = ids.map(|k| self.seed[k]);
        let mut rng = XoshiroLanes::new(&seeds, 0xE90C ^ (epoch as u64));
        // Markov availability consumes this draw too, so the cost and
        // channel streams are identical across availability models.
        let u_on = rng.next_f64();
        let on = match config.availability {
            AvailabilityModel::Bernoulli => u_on.map(|u| u < config.p_available),
            AvailabilityModel::Markov { p_stay_on, p_stay_off } => {
                // One transition of each chain; every step's draw is a
                // pure function of (client seed, step).
                let step = |on: [bool; LANES], e: usize| {
                    let u = XoshiroLanes::new(&seeds, 0xA40F ^ (e as u64) << 1).next_f64();
                    std::array::from_fn(
                        |i| if on[i] { u[i] < p_stay_on } else { u[i] >= p_stay_off },
                    )
                };
                match before {
                    Some(b) => step(ids.map(|k| b.available[k]), epoch),
                    // Cold start or jump: replay the chains from epoch 0.
                    None => {
                        let start = XoshiroLanes::new(&seeds, 0xA40F).next_f64();
                        (1..=epoch).fold(start.map(|u| u < config.p_available), step)
                    }
                }
            }
        };
        // `gen_range(lo..=hi)`, refusals included: `lo + u·(hi − lo)`.
        let (lo, hi) = config.cost_range;
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let cost = rng.next_f64().map(|u| lo + u * (hi - lo));
        let gain = if config.time_varying_channel {
            let shadowing = channel.shadowing();
            let (a, b) = (rng.next_f64(), rng.next_f64());
            std::array::from_fn(|i| {
                let shadow = shadowing.from_uniforms(a[i], b[i]);
                channel.gain_from_shadow(self.distance_m[ids[i]], shadow)
            })
        } else {
            ids.map(|k| self.base_gain[k])
        };
        let volume = arrival_count_lanes(&seeds, &ids.map(|k| self.lambda[k]), epoch);
        (on, cost, gain, volume.map(|v| v as u32))
    }
}

/// What the time axis does to a client at one epoch, as a row: the
/// realized availability, rental cost, channel, and data volume
/// ([`EpochColumns::views`]).
#[derive(Debug, Clone)]
pub struct EpochClientView {
    /// Client id.
    pub id: usize,
    /// Whether the client is reachable this epoch (Bernoulli, §6.1).
    pub available: bool,
    /// Rental cost `c_{t,k}` (uniform in the configured range).
    pub cost: f64,
    /// This epoch's radio state (shadowing re-drawn when the channel is
    /// time-varying).
    pub radio: ClientRadio,
    /// Data volume `D_{t,k}` (number of freshly arrived samples).
    pub data_volume: usize,
}

/// One epoch's realization of the time axis for the whole population,
/// as parallel columns aligned with [`ClientColumns`]. The `Default`
/// value is an empty realization — a valid `*_into` target whose
/// buffers are sized on first use.
#[derive(Debug, Clone, Default)]
pub struct EpochColumns {
    /// The realized epoch index `t`.
    pub epoch: usize,
    /// Availability mask (`E_t` as a dense column).
    pub available: Vec<bool>,
    /// Rental cost `c_{t,k}`.
    pub cost: Vec<f64>,
    /// Realized channel gain.
    pub gain: Vec<f64>,
    /// Data volume `D_{t,k}` (freshly arrived samples).
    pub data_volume: Vec<u32>,
}

impl EpochColumns {
    /// Ids of the available clients, ascending (`E_t`).
    pub fn available_ids(&self) -> Vec<usize> {
        (0..self.available.len()).filter(|&k| self.available[k]).collect()
    }

    /// Client `k`'s radio state this epoch.
    pub fn radio(&self, cols: &ClientColumns, k: usize) -> ClientRadio {
        ClientRadio {
            distance_m: cols.distance_m[k],
            tx_power_dbm: cols.tx_power_dbm,
            gain: self.gain[k],
        }
    }

    /// Materializes the row-oriented views — for inspection (examples,
    /// hand-built contexts in tests and the benchmark); no epoch loop
    /// consumes rows.
    pub fn views(&self, cols: &ClientColumns) -> Vec<EpochClientView> {
        (0..self.available.len())
            .map(|k| EpochClientView {
                id: k,
                available: self.available[k],
                cost: self.cost[k],
                radio: self.radio(cols, k),
                data_volume: self.data_volume[k] as usize,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize, seed: u64) -> (EnvConfig, ChannelModel) {
        (EnvConfig::small(n, seed), ChannelModel::default())
    }

    #[test]
    fn clients_are_heterogeneous() {
        let (config, channel) = setup(20, 2);
        let cols = ClientColumns::build(&config, &channel);
        assert!(cols.distance_m.iter().any(|d| (d - cols.distance_m[0]).abs() > 1.0));
        assert!(cols.cycles_per_bit.iter().any(|e| (e - cols.cycles_per_bit[0]).abs() > 1.0));
    }

    #[test]
    fn realization_is_deterministic_and_time_varying() {
        let (config, channel) = setup(5, 3);
        let cols = ClientColumns::build(&config, &channel);
        let a = cols.epoch_columns(7, &config, &channel);
        let b = cols.epoch_columns(7, &config, &channel);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.available, b.available);
        assert_eq!(a.gain, b.gain);
        let c = cols.epoch_columns(8, &config, &channel);
        assert_ne!(a.cost[0], c.cost[0]);
    }

    #[test]
    fn availability_rate_close_to_p() {
        let (config, channel) = setup(10, 5);
        let cols = ClientColumns::build(&config, &channel);
        let avail: usize =
            (0..200).map(|t| cols.epoch_columns(t, &config, &channel).available_ids().len()).sum();
        let rate = avail as f64 / (200 * cols.len()) as f64;
        assert!((rate - config.p_available).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn frozen_channel_when_not_time_varying() {
        let (mut config, channel) = setup(3, 6);
        config.time_varying_channel = false;
        let cols = ClientColumns::build(&config, &channel);
        let a = cols.epoch_columns(0, &config, &channel);
        let b = cols.epoch_columns(9, &config, &channel);
        assert_eq!(a.gain, b.gain);
        assert_eq!(a.gain, cols.base_gain);
    }

    #[test]
    fn markov_availability_is_deterministic_and_bursty() {
        let (mut config, channel) = setup(6, 9);
        config.availability = AvailabilityModel::Markov { p_stay_on: 0.95, p_stay_off: 0.95 };
        let cols = ClientColumns::build(&config, &channel);
        let at = |t: usize| cols.epoch_columns(t, &config, &channel).available;
        // Deterministic across queries, including out-of-order ones.
        let (late, early) = (at(30), at(5));
        assert_eq!(at(30), late);
        assert_eq!(at(5), early);
        // Bursty: with sticky transitions, consecutive epochs agree far
        // more often than independent Bernoulli draws would.
        let path: Vec<Vec<bool>> = (0..80).map(at).collect();
        let same: usize = path
            .windows(2)
            .map(|w| w[0].iter().zip(&w[1]).filter(|(prev, cur)| prev == cur).count())
            .sum();
        let agreement = same as f64 / (79 * cols.len()) as f64;
        assert!(agreement > 0.85, "Markov chain not sticky: agreement {agreement}");
    }

    #[test]
    fn markov_and_bernoulli_share_cost_streams() {
        // Switching the availability model must not perturb the cost or
        // channel sample paths (everything else stays comparable).
        let (mut config, channel) = setup(4, 10);
        let cols = ClientColumns::build(&config, &channel);
        let bern = cols.epoch_columns(7, &config, &channel);
        config.availability = AvailabilityModel::Markov { p_stay_on: 0.9, p_stay_off: 0.7 };
        let markov = cols.epoch_columns(7, &config, &channel);
        assert_eq!(bern.cost, markov.cost);
        assert_eq!(bern.gain, markov.gain);
        assert_eq!(bern.data_volume, markov.data_volume);
    }

    #[test]
    fn partial_realization_matches_full_rows() {
        let (config, channel) = setup(90, 15);
        let cols = ClientColumns::build(&config, &channel);
        let mut part = EpochColumns::default();
        for epoch in [0usize, 4, 21] {
            let full = cols.epoch_columns(epoch, &config, &channel);
            for shard in [0..30usize, 30..61, 61..90, 0..90, 45..45] {
                cols.epoch_columns_partial_into(epoch, &config, &channel, shard.clone(), &mut part);
                assert_eq!(part.available.len(), 90);
                for k in 0..90 {
                    if shard.contains(&k) {
                        assert_eq!(part.available[k], full.available[k], "epoch {epoch} k {k}");
                        assert_eq!(part.cost[k].to_bits(), full.cost[k].to_bits());
                        assert_eq!(part.gain[k].to_bits(), full.gain[k].to_bits());
                        assert_eq!(part.data_volume[k], full.data_volume[k]);
                    } else {
                        assert!(!part.available[k], "row {k} outside {shard:?} must be inert");
                        assert_eq!(part.cost[k], 0.0, "row {k} outside {shard:?} must be reset");
                    }
                }
            }
        }
    }

    #[test]
    fn available_ids_are_ascending_and_match_mask() {
        let (config, channel) = setup(50, 14);
        let cols = ClientColumns::build(&config, &channel);
        let ec = cols.epoch_columns(3, &config, &channel);
        let ids = ec.available_ids();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), ec.available.iter().filter(|&&a| a).count());
        assert!(ids.iter().all(|&k| ec.available[k]));
    }
}
