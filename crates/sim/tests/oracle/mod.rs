//! The scalar, one-client-at-a-time realization the simulator used
//! before the columnar population (`fedl_sim::ClientColumns`): a
//! row-oriented profile per client and `epoch_view`, which draws one
//! client's epoch. It lives on only as the reference the parity tests
//! compare the columnar realization against, bit for bit; nothing under
//! `src/` uses it.
//!
//! Shared by `crates/sim/tests/columnar_parity.rs` and, through `#[path]`,
//! by `crates/core/tests/columnar_parity.rs`.

use fedl_data::stream::OnlineStream;
use fedl_linalg::rng::{rng_for, Rng};
use fedl_net::{ChannelModel, ClientRadio, ComputeProfile};
use fedl_sim::config::AvailabilityModel;
use fedl_sim::{ClientColumns, EnvConfig, EpochClientView};

/// Everything about a client that does not change over time.
#[derive(Debug, Clone)]
pub struct ClientProfile {
    /// Stable identifier `k ∈ [0, M)`.
    pub id: usize,
    /// Distance from the server in metres.
    pub distance_m: f64,
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Base channel gain drawn at creation (used when the channel is not
    /// time-varying).
    pub base_gain: f64,
    /// Computation capability.
    pub compute: ComputeProfile,
    /// Online data source (partition pool + Poisson arrival process).
    pub stream: OnlineStream,
    /// Seed for this client's per-epoch draws.
    pub seed: u64,
}

impl ClientProfile {
    /// Builds the full population from the environment config and the
    /// per-client partition pools: every static attribute comes from the
    /// columnar store, the pools add the per-client data stream.
    pub fn build_population(
        config: &EnvConfig,
        channel: &ChannelModel,
        pools: Vec<Vec<usize>>,
    ) -> Vec<ClientProfile> {
        let columns = ClientColumns::build(config, channel);
        assert_eq!(pools.len(), columns.len(), "one partition pool per client");
        pools
            .into_iter()
            .enumerate()
            .map(|(id, pool)| ClientProfile {
                id,
                distance_m: columns.distance_m[id],
                tx_power_dbm: columns.tx_power_dbm,
                base_gain: columns.base_gain[id],
                compute: ComputeProfile {
                    cycles_per_bit: columns.cycles_per_bit[id],
                    cpu_hz: columns.cpu_hz[id],
                },
                stream: OnlineStream::new(pool, columns.lambda[id], columns.seed[id]),
                seed: columns.seed[id],
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
        let available = match config.availability {
            AvailabilityModel::Bernoulli => rng.gen::<f64>() < config.p_available,
            AvailabilityModel::Markov { p_stay_on, p_stay_off } => {
                // Replay the chain from epoch 0 so the answer is the same
                // whichever epoch is queried first. Each step's draw is
                // seeded independently, keeping the whole path a pure
                // function of (client seed, epoch).
                let mut on = rng_for(self.seed, 0xA40F).gen::<f64>() < config.p_available;
                for e in 1..=epoch {
                    let u = rng_for(self.seed, 0xA40F ^ (e as u64) << 1).gen::<f64>();
                    on = if on { u < p_stay_on } else { u >= p_stay_off };
                }
                // Consume the Bernoulli draw anyway so the cost/channel
                // stream is identical across availability models.
                let _ = rng.gen::<f64>();
                on
            }
        };
        let cost = rng.gen_range(config.cost_range.0..=config.cost_range.1);
        let gain = if config.time_varying_channel {
            channel.sample_gain(self.distance_m, &mut rng)
        } else {
            self.base_gain
        };
        let radio =
            ClientRadio { distance_m: self.distance_m, tx_power_dbm: self.tx_power_dbm, gain };
        let data_volume = self.stream.arrivals(epoch).len();
        EpochClientView { id: self.id, available, cost, radio, data_volume }
    }
}
