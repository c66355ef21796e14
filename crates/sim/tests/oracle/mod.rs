//! The scalar, one-client-at-a-time population and realization the
//! simulator used before the columnar one (`fedl_sim::ClientColumns`): a
//! row-oriented profile per client, drawn here from §6.1's definitions,
//! and `epoch_view`, which draws one client's epoch. It lives on only as
//! the reference the parity tests compare the columnar population and
//! realization against, bit for bit; nothing under `src/` uses it.
//!
//! Shared by `crates/sim/tests/columnar_parity.rs` and, through `#[path]`,
//! by `crates/core/tests/columnar_parity.rs`.

use fedl_data::stream::OnlineStream;
use fedl_linalg::rng::{derive_seed, rng_for, Distribution, Normal, Rng};
use fedl_net::{ChannelModel, ClientRadio, ComputeProfile};
use fedl_sim::{EnvConfig, EpochClientView};

/// Everything about a client that does not change over time.
#[derive(Debug, Clone)]
pub struct ClientProfile {
    /// Stable identifier `k ∈ [0, M)`.
    pub id: usize,
    /// Distance from the server in metres.
    pub distance_m: f64,
    /// Path loss at that distance in dB.
    pub path_loss_db: f64,
    /// Channel gain under the shadowing drawn with the population.
    pub base_gain: f64,
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Computation capability.
    pub compute: ComputeProfile,
    /// Online data source (partition pool + Poisson arrival process).
    pub stream: OnlineStream,
    /// Seed for this client's per-epoch draws.
    pub seed: u64,
}

impl ClientProfile {
    /// Draws the full population from the environment config, one client
    /// at a time from the population stream `rng_for(seed, 0xC11E)`, and
    /// gives each its partition pool as a data stream. Client `k`:
    ///
    /// * placed uniformly over the disk of `cell_radius_m` (the radius
    ///   scales with `sqrt` of a uniform draw), no closer than the
    ///   channel's `min_distance_m`;
    /// * path loss `128.1 + 37.6·log10(d km)` and a base gain under one
    ///   `N(0, σ²)` shadowing draw in dB (σ = 8 dB), which takes a whole
    ///   Box–Muller pair;
    /// * cycles/bit, CPU frequency and arrival rate λ uniform over their
    ///   ranges, in that order;
    /// * its own root seed `derive_seed(seed, 0xC11E_0000 + k)`.
    pub fn build_population(
        config: &EnvConfig,
        channel: &ChannelModel,
        pools: Vec<Vec<usize>>,
    ) -> Vec<ClientProfile> {
        assert_eq!(pools.len(), config.num_clients, "one partition pool per client");
        let mut rng = rng_for(config.seed, 0xC11E);
        pools
            .into_iter()
            .enumerate()
            .map(|(id, pool)| {
                let radius = config.cell_radius_m * rng.gen::<f64>().sqrt();
                let distance_m = radius.max(channel.min_distance_m);
                let path_loss_db = 128.1 + 37.6 * (distance_m / 1000.0).log10();
                // A fresh sampler per client: its Box–Muller pair's
                // second variate is never used.
                let shadow_db = Normal::new(0.0, channel.shadowing_std_db).sample(&mut rng);
                let base_gain = 10f64.powf(-(path_loss_db + shadow_db) / 10.0);
                let (cycles, cpu, lambda) =
                    (config.cycles_per_bit_range, config.cpu_hz_range, config.lambda_range);
                let compute = ComputeProfile {
                    cycles_per_bit: rng.gen_range(cycles.0..=cycles.1),
                    cpu_hz: rng.gen_range(cpu.0..=cpu.1),
                };
                let lambda = rng.gen_range(lambda.0..=lambda.1);
                let seed = derive_seed(config.seed, 0xC11E_0000 + id as u64);
                ClientProfile {
                    id,
                    distance_m,
                    path_loss_db,
                    base_gain,
                    tx_power_dbm: config.tx_power_dbm,
                    compute,
                    stream: OnlineStream::new(pool, lambda, seed),
                    seed,
                }
            })
            .collect()
    }

    /// Realizes this client's epoch-`t` state. Deterministic in
    /// `(client seed, t)`. `ClientColumns::epoch_columns` draws the same
    /// streams for the whole population at once.
    pub fn epoch_view(
        &self,
        epoch: usize,
        config: &EnvConfig,
        channel: &ChannelModel,
    ) -> EpochClientView {
        let mut rng = rng_for(self.seed, 0xE90C ^ (epoch as u64));
        let available = rng.gen::<f64>() < config.p_available;
        let cost = rng.gen_range(config.cost_range.0..=config.cost_range.1);
        let gain = channel.sample_gain(self.distance_m, &mut rng);
        let radio =
            ClientRadio { distance_m: self.distance_m, tx_power_dbm: self.tx_power_dbm, gain };
        let data_volume = self.stream.arrivals(epoch).len();
        EpochClientView { id: self.id, available, cost, radio, data_volume }
    }
}
