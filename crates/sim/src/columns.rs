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

use std::ops::Range;

use fedl_data::stream::arrival_count_lanes;
use fedl_linalg::par::par_chunks_grained;
use fedl_linalg::rng::{derive_seed, rng_for, Distribution, Poisson, Rng, XoshiroLanes, LANES};
use fedl_net::{ChannelModel, ClientRadio};

use crate::config::EnvConfig;

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
/// length [`ClientColumns::len`]. Two columns are per-client constants of
/// the realization, computed here once instead of every epoch: the path
/// loss of the fixed distance and the Poisson limit of the fixed rate.
/// At one million clients the store costs 64 bytes/client ≈ 64 MB (see
/// docs/SCALE.md for the full memory budget).
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
    /// Path loss at that distance in dB,
    /// [`ChannelModel::path_loss_db`]`(distance_m)`.
    pub path_loss_db: Vec<f64>,
    /// Channel gain under the shadowing drawn at creation. No realization
    /// reads it (every epoch re-draws the shadowing); it is kept for the
    /// benchmark's probes, which read it.
    pub base_gain: Vec<f64>,
    /// Computation cost in cycles per bit.
    pub cycles_per_bit: Vec<f64>,
    /// CPU frequency in Hz.
    pub cpu_hz: Vec<f64>,
    /// Mean Poisson data-arrival rate λ.
    pub lambda: Vec<f64>,
    /// The limit of λ's last Poisson chunk,
    /// [`Poisson::last_chunk_limit`] (`exp(−rest)`).
    pub arrival_limit: Vec<f64>,
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
    ///
    /// # Panics
    /// Panics if a drawn arrival rate is not finite and positive.
    pub fn build(config: &EnvConfig, channel: &ChannelModel) -> Self {
        let m = config.num_clients;
        let mut cols = ClientColumns {
            distance_m: Vec::with_capacity(m),
            path_loss_db: Vec::with_capacity(m),
            base_gain: Vec::with_capacity(m),
            cycles_per_bit: Vec::with_capacity(m),
            cpu_hz: Vec::with_capacity(m),
            lambda: Vec::with_capacity(m),
            arrival_limit: Vec::with_capacity(m),
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
            // `sample_gain(distance_m, ..)`, keeping the path loss it
            // computes.
            let path_loss_db = channel.path_loss_db(distance_m);
            let shadow_db = channel.shadowing().sample(&mut rng);
            cols.distance_m.push(distance_m);
            cols.path_loss_db.push(path_loss_db);
            cols.base_gain.push(channel.gain_from_loss(path_loss_db, shadow_db));
            cols.cycles_per_bit
                .push(rng.gen_range(config.cycles_per_bit_range.0..=config.cycles_per_bit_range.1));
            cols.cpu_hz.push(rng.gen_range(config.cpu_hz_range.0..=config.cpu_hz_range.1));
            let lambda = rng.gen_range(config.lambda_range.0..=config.lambda_range.1);
            cols.lambda.push(lambda);
            cols.arrival_limit.push(Poisson::new(lambda).last_chunk_limit());
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
    /// a caller-owned buffer: `out`'s columns are allocated zeroed once
    /// per population size and overwritten in place, so once `out` is
    /// warm (one prior call at this population size) a steady-state epoch
    /// loop allocates nothing.
    ///
    /// Columns come back full-length (so downstream kernels keep global
    /// indexing), with rows outside `shard` at their inert defaults
    /// (`available = false`, zero cost/gain/volume) on every call. Only
    /// the shard's rows and the rows the previous call wrote outside it
    /// are touched, so a window that realizes one shard of a large
    /// population keeps only that shard's rows resident.
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
        let m = self.len();
        assert!(
            shard.start <= shard.end && shard.end <= m,
            "shard {shard:?} out of bounds for population of {m}"
        );
        out.epoch = epoch;
        out.keep_only(m, &shard);
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
                let drawn = self.realize_lanes(&ids, epoch, config, channel);
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
    /// `0x57EA ^ t` lanes the arrivals.
    #[allow(clippy::type_complexity)]
    fn realize_lanes(
        &self,
        ids: &[usize; LANES],
        epoch: usize,
        config: &EnvConfig,
        channel: &ChannelModel,
    ) -> ([bool; LANES], [f64; LANES], [f64; LANES], [u32; LANES]) {
        let seeds = ids.map(|k| self.seed[k]);
        let mut rng = XoshiroLanes::new(&seeds, 0xE90C ^ (epoch as u64));
        let on = rng.next_f64().map(|u| u < config.p_available);
        // `gen_range(lo..=hi)`, refusals included: `lo + u·(hi − lo)`.
        let (lo, hi) = config.cost_range;
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let cost = rng.next_f64().map(|u| lo + u * (hi - lo));
        let shadowing = channel.shadowing();
        let (a, b) = (rng.next_f64(), rng.next_f64());
        let gain = std::array::from_fn(|i| {
            let shadow = shadowing.from_uniforms(a[i], b[i]);
            channel.gain_from_loss(self.path_loss_db[ids[i]], shadow)
        });
        let volume = arrival_count_lanes(
            &seeds,
            &ids.map(|k| self.lambda[k]),
            &ids.map(|k| self.arrival_limit[k]),
            epoch,
        );
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
    /// This epoch's radio state (shadowing re-drawn every epoch).
    pub radio: ClientRadio,
    /// Data volume `D_{t,k}` (number of freshly arrived samples).
    pub data_volume: usize,
}

/// One epoch's realization of the time axis for the whole population,
/// as parallel columns aligned with [`ClientColumns`]. The `Default`
/// value is an empty realization — a valid `*_into` target whose
/// buffers are sized on first use. A realization into these columns
/// resets only the rows the previous one wrote, so rows outside those
/// are expected to stay inert between the two.
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
    /// The rows the last realization into these columns wrote; `None`
    /// when that is not known (a value not built by a realization), so
    /// any row may be live.
    written: Option<Range<usize>>,
}

impl EpochColumns {
    /// Readies the columns for a realization of `shard` out of `m` rows:
    /// every row outside `shard` inert, touching only rows the last
    /// realization wrote. Columns of another length are replaced by
    /// zeroed ones, whose untouched pages stay unmapped; of the rows
    /// written last time, those outside `shard` are reset. The caller
    /// then writes every row of `shard`.
    fn keep_only(&mut self, m: usize, shard: &Range<usize>) {
        let lengths =
            [self.available.len(), self.cost.len(), self.gain.len(), self.data_volume.len()];
        if lengths != [m; 4] {
            self.available = vec![false; m];
            self.cost = vec![0.0; m];
            self.gain = vec![0.0; m];
            self.data_volume = vec![0; m];
            self.written = Some(0..0);
        }
        let written = self.written.replace(shard.clone()).unwrap_or(0..m);
        let stale = [
            written.start..written.end.min(shard.start),
            written.start.max(shard.end)..written.end,
        ];
        for rows in stale.into_iter().filter(|rows| rows.start < rows.end) {
            self.available[rows.clone()].fill(false);
            self.cost[rows.clone()].fill(0.0);
            self.gain[rows.clone()].fill(0.0);
            self.data_volume[rows].fill(0);
        }
    }

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
    fn path_loss_column_is_the_channel_path_loss_of_each_distance() {
        // A 20 m cell puts about a quarter of the clients inside the
        // 10 m near field, where the distance is clamped.
        let (mut config, channel) = setup(400, 16);
        config.cell_radius_m = 20.0;
        let cols = ClientColumns::build(&config, &channel);
        let clamped = cols.distance_m.iter().filter(|&&d| d == channel.min_distance_m).count();
        assert!((50..200).contains(&clamped), "{clamped} of 400 clamped");
        for k in 0..cols.len() {
            let want = channel.path_loss_db(cols.distance_m[k]);
            assert_eq!(cols.path_loss_db[k].to_bits(), want.to_bits(), "client {k}");
        }
    }

    #[test]
    fn arrival_limit_column_is_the_last_chunk_of_each_rate() {
        let channel = ChannelModel::default();
        // λ and the rest its 30-wide chunk split leaves, at the edges.
        for (lambda, rest) in
            [(29.5f64, 29.5f64), (30.0, 30.0), (30.5, 0.5), (60.0, 30.0), (61.0, 1.0)]
        {
            let mut config = EnvConfig::small(20, 17);
            config.lambda_range = (lambda, lambda);
            let cols = ClientColumns::build(&config, &channel);
            for k in 0..cols.len() {
                assert_eq!(cols.lambda[k], lambda);
                assert_eq!(
                    cols.arrival_limit[k].to_bits(),
                    (-rest).exp().to_bits(),
                    "λ = {lambda}"
                );
            }
        }
    }

    #[test]
    fn a_window_reused_across_shards_matches_fresh_realizations() {
        let (config, channel) = setup(100, 18);
        let cols = ClientColumns::build(&config, &channel);
        // Disjoint both ways, nested both ways, overlapping, empty.
        let pairs = [
            (0..40usize, 60..100usize),
            (60..100, 0..40),
            (0..100, 30..70),
            (30..70, 0..100),
            (10..50, 35..90),
            (35..90, 10..50),
            (20..80, 50..50),
            (50..50, 20..80),
        ];
        for (epoch, (a, b)) in pairs.into_iter().enumerate() {
            let mut reused = EpochColumns::default();
            cols.epoch_columns_partial_into(epoch, &config, &channel, a.clone(), &mut reused);
            cols.epoch_columns_partial_into(epoch + 1, &config, &channel, b.clone(), &mut reused);
            let mut fresh = EpochColumns::default();
            cols.epoch_columns_partial_into(epoch + 1, &config, &channel, b.clone(), &mut fresh);
            assert_eq!(reused.epoch, epoch + 1);
            assert_eq!(reused.available, fresh.available, "{a:?} then {b:?}");
            assert_eq!(reused.data_volume, fresh.data_volume, "{a:?} then {b:?}");
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused.cost), bits(&fresh.cost), "{a:?} then {b:?}");
            assert_eq!(bits(&reused.gain), bits(&fresh.gain), "{a:?} then {b:?}");
            for k in (0..100).filter(|k| !b.contains(k)) {
                assert!(!reused.available[k] && reused.data_volume[k] == 0, "row {k} live");
                assert!(reused.cost[k] == 0.0 && reused.gain[k] == 0.0, "row {k} live");
            }
        }
        // Columns not written by a realization: every row may be live.
        let mut handmade = EpochColumns {
            available: vec![true; 100],
            cost: vec![1.0; 100],
            gain: vec![1.0; 100],
            data_volume: vec![1; 100],
            ..EpochColumns::default()
        };
        cols.epoch_columns_partial_into(3, &config, &channel, 40..60, &mut handmade);
        let mut fresh = EpochColumns::default();
        cols.epoch_columns_partial_into(3, &config, &channel, 40..60, &mut fresh);
        assert_eq!(handmade.available, fresh.available);
        assert_eq!(handmade.cost, fresh.cost);
        assert_eq!(handmade.gain, fresh.gain);
        assert_eq!(handmade.data_volume, fresh.data_volume);
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
