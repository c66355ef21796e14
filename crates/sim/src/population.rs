//! [`Population`] — the one holder of a client population and of the
//! epochs realized from it.
//!
//! Alg. 1 observes epoch `t`'s state once and decides from epoch `t−1`'s
//! channel (0-lookahead), so every driver of that loop — the runner's
//! environment, the federation server, the load generator, the reference
//! run, a `fedl-dist` shard worker — needs the same bundle: the static
//! [`ClientColumns`], the [`EnvConfig`]/[`ChannelModel`] that realize
//! them, the [`LatencyModel`] that prices them, and epochs `t−1` and `t`
//! realized. A `Population` owns all of it, and [`Population::advance`]
//! is the one place an epoch loop realizes anything.
//!
//! Realization is a pure function of `(seed_k, epoch)`: the window of
//! realized epochs cannot change a result, only how often the draws are
//! repeated. It is runtime state; no checkpoint records it.

use std::ops::Range;

use fedl_linalg::par::par_zip_chunks;
use fedl_net::{dbm_to_watts, shannon_rate_bps, ChannelModel, LatencyModel, LatencySplit};

use crate::columns::{ClientColumns, EpochColumns};
use crate::config::EnvConfig;

/// A client population (or one contiguous shard of it) and its two most
/// recently realized epochs.
///
/// ```
/// use fedl_net::LatencyModel;
/// use fedl_sim::{EnvConfig, Population};
///
/// let config = EnvConfig::small(32, 7);
/// let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
/// let mut population = Population::new(config, latency);
/// for epoch in 0..4 {
///     let lent = population.advance(epoch);
///     assert_eq!(lent.now.epoch, epoch);
///     // 0-lookahead: hints come from the epoch before (epoch 0: its own).
///     assert_eq!(lent.hint.epoch, epoch.saturating_sub(1));
/// }
/// assert_eq!(population.realizations(), 4);
/// ```
#[derive(Debug)]
pub struct Population {
    config: EnvConfig,
    channel: ChannelModel,
    latency: LatencyModel,
    cols: ClientColumns,
    shard: Range<usize>,
    /// The window: `held[i]` is the epoch `window[i]` holds, `None`
    /// before its first use.
    window: [EpochColumns; 2],
    held: [Option<usize>; 2],
    realizations: usize,
}

/// Epoch `t` as [`Population::advance`] lends it: the realization itself,
/// the one its latency hints come from, and what prices both.
#[derive(Debug, Clone, Copy)]
pub struct Realized<'a> {
    /// The environment configuration the population was drawn from.
    pub config: &'a EnvConfig,
    /// The static population columns.
    pub cols: &'a ClientColumns,
    /// The latency model of this deployment.
    pub latency: &'a LatencyModel,
    /// Epoch `t−1` (epoch `t` itself at `t = 0`): the channel state a
    /// 0-lookahead policy may estimate latencies from.
    pub hint: &'a EpochColumns,
    /// Epoch `t`: availability, rents, volumes, and the realized channel.
    pub now: &'a EpochColumns,
}

impl Population {
    /// Builds the whole population of `config` under the paper's channel
    /// model, priced by `latency`.
    pub fn new(config: EnvConfig, latency: LatencyModel) -> Self {
        let clients = config.num_clients;
        Self::sharded(config, latency, 0..clients)
    }

    /// [`Self::new`] restricted to the contiguous id range `shard`: the
    /// static columns cover everyone (they are one sequential RNG
    /// stream), realizations only the shard's rows — rows outside it
    /// stay inert, see [`ClientColumns::epoch_columns_partial_into`].
    ///
    /// # Panics
    /// Panics if `shard` is reversed or reaches past the population.
    pub fn sharded(config: EnvConfig, latency: LatencyModel, shard: Range<usize>) -> Self {
        assert!(
            shard.start <= shard.end && shard.end <= config.num_clients,
            "shard {shard:?} out of bounds for population of {}",
            config.num_clients
        );
        let channel = ChannelModel::default();
        let cols = ClientColumns::build(&config, &channel);
        Self {
            config,
            channel,
            latency,
            cols,
            shard,
            window: Default::default(),
            held: [None; 2],
            realizations: 0,
        }
    }

    /// The environment configuration the population was drawn from.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// The static population columns.
    pub fn columns(&self) -> &ClientColumns {
        &self.cols
    }

    /// The latency model behind every latency this population prices.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Number of clients `M` in the whole population.
    pub fn num_clients(&self) -> usize {
        self.cols.len()
    }

    /// The id range this holder realizes (`0..M` unless sharded).
    pub fn shard(&self) -> Range<usize> {
        self.shard.clone()
    }

    /// How many epochs [`Self::advance`] has realized so far: one per
    /// epoch for a loop walking forward, two after a cold start past
    /// epoch 0 (a resume) or a jump.
    pub fn realizations(&self) -> usize {
        self.realizations
    }

    /// Makes epoch `t` current and lends it with its hint epoch — `t−1`,
    /// or `t` itself at `t = 0`: the 0-lookahead rule, written here and
    /// nowhere else. An epoch is realized only when neither window slot
    /// holds it, so asking again for the current epoch (context, then
    /// training outcome) or for the next one costs at most one
    /// realization, and once the slots are warm none of it allocates.
    pub fn advance(&mut self, epoch: usize) -> Realized<'_> {
        let hint_epoch = epoch.saturating_sub(1);
        let now = self.slot_holding(epoch, hint_epoch);
        let hint = self.slot_holding(hint_epoch, epoch);
        Realized {
            config: &self.config,
            cols: &self.cols,
            latency: &self.latency,
            hint: &self.window[hint],
            now: &self.window[now],
        }
    }

    /// One-shot realization of `epoch` that leaves the window alone — for
    /// inspection through `&self`; epoch loops call [`Self::advance`].
    pub fn realize(&self, epoch: usize) -> EpochColumns {
        let mut out = EpochColumns::default();
        self.cols.epoch_columns_partial_into(
            epoch,
            &self.config,
            &self.channel,
            self.shard.clone(),
            &mut out,
        );
        out
    }

    /// The window slot holding `epoch`; when neither does, it is realized
    /// into the slot that does not hold `keep`, the other epoch of the
    /// pair being lent.
    fn slot_holding(&mut self, epoch: usize, keep: usize) -> usize {
        if let Some(slot) = self.held.iter().position(|&held| held == Some(epoch)) {
            return slot;
        }
        let slot = usize::from(self.held[0] == Some(keep));
        self.cols.epoch_columns_partial_into(
            epoch,
            &self.config,
            &self.channel,
            self.shard.clone(),
            &mut self.window[slot],
        );
        self.held[slot] = Some(epoch);
        self.realizations += 1;
        slot
    }
}

/// The share-model pricing of one population: what a client's iteration
/// costs in seconds when every participant holds a nominal FDMA share of
/// `bandwidth / share_count`. The population constants — the share
/// width, the noise density and the transmit power in watts — are
/// converted once here, and [`Self::split`] is the one statement of
/// `τ = e_k·D_k·bits/π_k + s/rate(share)`: every latency the simulator,
/// the server and the workers report comes from it.
#[derive(Debug, Clone, Copy)]
pub struct SharePricing<'a> {
    cols: &'a ClientColumns,
    latency: &'a LatencyModel,
    share_hz: f64,
    n0: f64,
    tx_watts: f64,
}

impl<'a> SharePricing<'a> {
    /// Pricing under a share of `bandwidth / share_count` each.
    ///
    /// # Panics
    /// Panics if `share_count` is zero.
    pub fn new(cols: &'a ClientColumns, latency: &'a LatencyModel, share_count: usize) -> Self {
        assert!(share_count > 0, "share count must be positive");
        Self {
            cols,
            latency,
            share_hz: latency.bandwidth_hz / share_count as f64,
            n0: dbm_to_watts(latency.noise_dbm_per_hz),
            tx_watts: dbm_to_watts(cols.tx_power_dbm),
        }
    }

    /// Client `k`'s per-iteration latency under `realized`'s channel
    /// gains and data volumes, split into its computation and upload
    /// phases.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn split(&self, realized: &EpochColumns, k: usize) -> LatencySplit {
        let data_bits = realized.data_volume[k] as f64 * self.latency.bits_per_sample;
        let rate = shannon_rate_bps(realized.gain[k] * self.tx_watts, self.share_hz, self.n0);
        LatencySplit {
            compute_secs: self.cols.cycles_per_bit[k] * data_bits / self.cols.cpu_hz[k],
            upload_secs: self.latency.upload_bits / rate.max(1e-3),
        }
    }

    /// `τ^loc + τ^cm` of [`Self::split`].
    pub fn total_secs(&self, realized: &EpochColumns, k: usize) -> f64 {
        self.split(realized, k).total_secs()
    }
}

/// Per-iteration latency of each listed client, split into its
/// computation and upload phases, under a nominal FDMA share of
/// `bandwidth / share_count` each (see [`nominal_latency`]).
///
/// # Panics
/// Panics if `share_count` is zero or an id is out of range.
pub fn nominal_split(
    cols: &ClientColumns,
    realized: &EpochColumns,
    latency: &LatencyModel,
    share_count: usize,
    ids: &[usize],
) -> Vec<LatencySplit> {
    let pricing = SharePricing::new(cols, latency, share_count);
    ids.iter().map(|&k| pricing.split(realized, k)).collect()
}

/// Per-iteration latency estimate of each listed client under a nominal
/// FDMA share of `bandwidth / share_count` each, independent of how many
/// clients are listed — comparable across clients ("how slow would `k` be
/// in a cohort of `n`?") without coupling the estimates through the
/// cohort-size-dependent bandwidth split. With `share_count = ids.len()`
/// it is the realized equal-share latency of exactly that cohort.
///
/// `realized` supplies the epoch's channel gains and data volumes;
/// `ids` are the clients to estimate (any subset, any order). The pass is
/// parallel over `ids`; each value depends on its own client only.
///
/// # Panics
/// Panics if `share_count` is zero or an id is out of range.
pub fn nominal_latency(
    cols: &ClientColumns,
    realized: &EpochColumns,
    latency: &LatencyModel,
    share_count: usize,
    ids: &[usize],
) -> Vec<f64> {
    let pricing = SharePricing::new(cols, latency, share_count);
    let mut out = vec![0.0f64; ids.len()];
    par_zip_chunks(&mut out, 1, ids, 1, |_, tau, id| tau[0] = pricing.total_secs(realized, id[0]));
    out
}
