//! The bridge from the simulator's columnar population to the
//! policy-facing [`EpochContext`] (docs/SCALE.md).
//!
//! Selection touches only availability, prices, volumes, and latency
//! estimates, so every driver of the epoch loop builds its contexts here,
//! from columns, with dense parallel passes and no per-client structs:
//! the experiment runner, the federation server and the in-process
//! reference run through [`context_at`] over the [`Population`] they
//! hold; a `fedl-dist` worker computes its shard's [`ContextPart`] and
//! the coordinator merges the parts with [`assemble_context`];
//! [`scale_context`] is the same assembly over explicitly passed
//! realizations, for callers that hold no population.

use std::ops::Range;

use fedl_linalg::par::par_zip_chunks;
use fedl_net::LatencyModel;
use fedl_sim::columns::REALIZE_CHUNK;
use fedl_sim::{ClientColumns, EpochColumns, Population, SharePricing};

use crate::policy::EpochContext;

/// Epoch `t`'s decision context from the population's window:
/// [`Population::advance`] realizes what is missing and lends `(hint,
/// now)`, and the context is assembled as in [`scale_context`]. With a
/// `registered` mask (the federation server's live registry) only
/// clients that are both available and registered count as available —
/// the mask is read beside the lent availability column, never written
/// into it, so the window stays a pure realization. Returns `None` when
/// no such client exists.
pub fn context_at(
    population: &mut Population,
    epoch: usize,
    registered: Option<&[bool]>,
    remaining_budget: f64,
    min_participants: usize,
) -> Option<EpochContext> {
    let lent = population.advance(epoch);
    let part = scale_context_part(
        lent.cols,
        lent.hint,
        lent.now,
        lent.latency,
        min_participants,
        0..lent.cols.len(),
        registered,
    );
    assemble_context(
        epoch,
        lent.cols.len(),
        vec![part],
        remaining_budget,
        min_participants,
        lent.config.seed,
    )
}

/// Assembles the epoch-`t` decision context straight from columns — no
/// environment, no datasets: availability, costs, and volumes come from
/// the current epoch `now`; latency estimates use the *hint* epoch's
/// channel state (0-lookahead — epoch `t−1`'s realization, or `t`'s own
/// at `t = 0`, see [`Population::advance`]); `true_latency` is the
/// current epoch's realization (oracle-only); the loss hint is the
/// never-observed prior `ln 10` everywhere, matching a fresh runner
/// before any training feedback. Returns `None` when no client is
/// available (the runner skips such epochs).
///
/// This is the policy-scoring kernel the `scale/` benches drive:
///
/// ```
/// use fedl_core::columnar::scale_context;
/// use fedl_core::{FedLConfig, FedLPolicy, SelectionPolicy};
/// use fedl_net::{ChannelModel, LatencyModel};
/// use fedl_sim::{ClientColumns, EnvConfig};
///
/// let config = EnvConfig::small(48, 9);
/// let channel = ChannelModel::default();
/// let cols = ClientColumns::build(&config, &channel);
/// let e0 = cols.epoch_columns(0, &config, &channel);
/// let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
/// // Epoch 0 hints from its own realization, like the runner.
/// let ctx = scale_context(&cols, &e0, &e0, &latency, 500.0, 6, config.seed)
///     .expect("someone is available at epoch 0");
/// ctx.validate();
///
/// let mut policy = FedLPolicy::new(FedLConfig::default(), cols.len(), 500.0, 6);
/// let decision = policy.select(&ctx);
/// assert!(decision.cohort.len() >= ctx.effective_n());
/// assert!(decision.cohort.iter().all(|k| ctx.available.binary_search(k).is_ok()));
/// ```
pub fn scale_context(
    cols: &ClientColumns,
    hint: &EpochColumns,
    now: &EpochColumns,
    latency: &LatencyModel,
    remaining_budget: f64,
    min_participants: usize,
    seed: u64,
) -> Option<EpochContext> {
    // The whole population is the one-shard case of the distributed
    // split below: one assembly path, one set of bits.
    let part = scale_context_part(cols, hint, now, latency, min_participants, 0..cols.len(), None);
    assemble_context(now.epoch, cols.len(), vec![part], remaining_budget, min_participants, seed)
}

/// One shard's contribution to an [`EpochContext`] — the unit a
/// `fedl-dist` worker computes locally and ships to the coordinator.
///
/// All vectors are aligned to `available` (the shard's available clients
/// as *global* ids, ascending). Because shards are contiguous id ranges,
/// concatenating parts in shard order reproduces the full context's
/// ascending `available` ordering exactly. The part names no epoch: the
/// caller that asked for it knows which one it is.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextPart {
    /// Available clients of this shard (global ids, ascending).
    pub available: Vec<usize>,
    /// Rental cost per available client.
    pub costs: Vec<f64>,
    /// 0-lookahead latency estimate (hint epoch's channel state).
    pub latency_hint: Vec<f64>,
    /// The current epoch's realized latency (oracle-only column).
    pub true_latency: Vec<f64>,
    /// Fresh data volume per available client.
    pub data_volumes: Vec<usize>,
}

/// The rows of a [`ContextPart`] one cut of the shard fills: the same
/// stretch of each of its five columns.
struct Rows<'a> {
    available: &'a mut [usize],
    costs: &'a mut [f64],
    latency_hint: &'a mut [f64],
    true_latency: &'a mut [f64],
    data_volumes: &'a mut [usize],
}

/// Computes one shard's [`ContextPart`] from (possibly shard-partial)
/// epoch realizations — the worker half of the distributed
/// [`scale_context`] split.
///
/// `hint` and `now` only need valid rows inside `shard` (see
/// [`fedl_sim::ClientColumns::epoch_columns_partial_into`]); ids outside
/// the shard are never touched. With a `registered` mask, only clients
/// that are also registered count as available. The latency arithmetic
/// is per-client independent, so each value is bit-identical to the one
/// the single-process [`scale_context`] would compute for the same
/// client.
///
/// The shard is cut at the realize grain and each cut's available
/// clients are counted, so every column is allocated once, at its final
/// length, and each cut owns its stretch of rows. One walk per cut then
/// writes all five cells of a client together, priced by one
/// [`SharePricing`]: inline for a shard of one cut, in parallel across
/// the cuts of a larger one. Where a row lands depends on the counts
/// alone, so the thread count cannot move a row or a bit.
pub fn scale_context_part(
    cols: &ClientColumns,
    hint: &EpochColumns,
    now: &EpochColumns,
    latency: &LatencyModel,
    min_participants: usize,
    shard: Range<usize>,
    registered: Option<&[bool]>,
) -> ContextPart {
    let pricing = SharePricing::new(cols, latency, min_participants.max(1));
    let counts = |k: &usize| now.available[*k] && registered.is_none_or(|r| r[*k]);
    let cuts: Vec<Range<usize>> = shard
        .clone()
        .step_by(REALIZE_CHUNK)
        .map(|start| start..(start + REALIZE_CHUNK).min(shard.end))
        .collect();
    let rows: Vec<usize> = cuts.iter().map(|cut| cut.clone().filter(counts).count()).collect();
    let total = rows.iter().sum();
    let mut part = ContextPart {
        available: vec![0; total],
        costs: vec![0.0; total],
        latency_hint: vec![0.0; total],
        true_latency: vec![0.0; total],
        data_volumes: vec![0; total],
    };
    let mut rest = Rows {
        available: &mut part.available,
        costs: &mut part.costs,
        latency_hint: &mut part.latency_hint,
        true_latency: &mut part.true_latency,
        data_volumes: &mut part.data_volumes,
    };
    fn take<'a, T>(rest: &mut &'a mut [T], rows: usize) -> &'a mut [T] {
        rest.split_off_mut(..rows).expect("the cuts' counts sum to the column length")
    }
    let mut stretches: Vec<Rows<'_>> = rows
        .iter()
        .map(|&n| Rows {
            available: take(&mut rest.available, n),
            costs: take(&mut rest.costs, n),
            latency_hint: take(&mut rest.latency_hint, n),
            true_latency: take(&mut rest.true_latency, n),
            data_volumes: take(&mut rest.data_volumes, n),
        })
        .collect();
    par_zip_chunks(&mut stretches, 1, &cuts, 1, |_, stretch, cut| {
        let into = &mut stretch[0];
        for (row, k) in cut[0].clone().filter(counts).enumerate() {
            into.available[row] = k;
            into.costs[row] = now.cost[k];
            into.latency_hint[row] = pricing.total_secs(hint, k);
            into.true_latency[row] = pricing.total_secs(now, k);
            into.data_volumes[row] = now.data_volume[k] as usize;
        }
    });
    part
}

/// Merges shard [`ContextPart`]s of `epoch` into the full
/// [`EpochContext`] — the coordinator half of the distributed
/// [`scale_context`] split.
///
/// `parts` must arrive in shard order (ascending id ranges); simple
/// concatenation then reproduces the single-process context column for
/// column, bit for bit — there is no floating-point reduction in this
/// merge at all, which is what makes it trivially associative. Returns
/// `None` when no client is available anywhere, matching
/// [`scale_context`].
///
/// # Panics
/// Panics if the parts break ascending-id order (shards delivered out
/// of order).
pub fn assemble_context(
    epoch: usize,
    num_clients: usize,
    parts: Vec<ContextPart>,
    remaining_budget: f64,
    min_participants: usize,
    seed: u64,
) -> Option<EpochContext> {
    let mut parts = parts.into_iter();
    let mut all = parts.next()?;
    for part in parts {
        if let (Some(&last), Some(&first)) = (all.available.last(), part.available.first()) {
            assert!(last < first, "context parts delivered out of shard order");
        }
        all.available.extend(part.available);
        all.costs.extend(part.costs);
        all.latency_hint.extend(part.latency_hint);
        all.true_latency.extend(part.true_latency);
        all.data_volumes.extend(part.data_volumes);
    }
    if all.available.is_empty() {
        return None;
    }
    Some(EpochContext {
        epoch,
        num_clients,
        loss_hint: vec![(10.0f64).ln(); all.available.len()],
        available: all.available,
        costs: all.costs,
        data_volumes: all.data_volumes,
        latency_hint: all.latency_hint,
        true_latency: all.true_latency,
        remaining_budget,
        min_participants,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_net::ChannelModel;
    use fedl_sim::EnvConfig;

    fn setup(n: usize, seed: u64) -> (EnvConfig, ChannelModel, ClientColumns) {
        let config = EnvConfig::small(n, seed);
        let channel = ChannelModel::default();
        let cols = ClientColumns::build(&config, &channel);
        (config, channel, cols)
    }

    #[test]
    fn context_is_aligned_and_valid() {
        let (config, channel, cols) = setup(80, 21);
        let e0 = cols.epoch_columns(0, &config, &channel);
        let e1 = cols.epoch_columns(1, &config, &channel);
        let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
        let ctx = scale_context(&cols, &e0, &e1, &latency, 300.0, 5, config.seed).unwrap();
        ctx.validate();
        assert_eq!(ctx.epoch, 1);
        assert_eq!(ctx.num_clients, 80);
        assert_eq!(ctx.available, e1.available_ids());
        for (slot, &k) in ctx.available.iter().enumerate() {
            assert_eq!(ctx.costs[slot].to_bits(), e1.cost[k].to_bits());
            assert_eq!(ctx.data_volumes[slot], e1.data_volume[k] as usize);
        }
        assert!(ctx.latency_hint.iter().all(|&t| t.is_finite() && t > 0.0));
    }

    #[test]
    fn hint_and_truth_differ_when_the_channel_moves() {
        let (config, channel, cols) = setup(60, 22);
        assert!(config.time_varying_channel, "small config should vary the channel");
        let e0 = cols.epoch_columns(0, &config, &channel);
        let e1 = cols.epoch_columns(1, &config, &channel);
        let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
        let ctx = scale_context(&cols, &e0, &e1, &latency, 300.0, 5, config.seed).unwrap();
        // Same clients, different epochs realized: the 0-lookahead hint
        // and the oracle column must disagree somewhere.
        assert_ne!(ctx.latency_hint, ctx.true_latency);
    }

    #[test]
    fn sharded_parts_assemble_to_the_exact_full_context() {
        let (config, channel, cols) = setup(120, 25);
        let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
        for epoch in [0usize, 3, 11] {
            let hint_epoch = epoch.saturating_sub(1);
            let full_hint = cols.epoch_columns(hint_epoch, &config, &channel);
            let full_now = cols.epoch_columns(epoch, &config, &channel);
            let want = scale_context(&cols, &full_hint, &full_now, &latency, 400.0, 5, config.seed)
                .unwrap();
            for bounds in [vec![0usize, 40, 80, 120], vec![0, 120], vec![0, 7, 64, 65, 120]] {
                let parts: Vec<ContextPart> = bounds
                    .windows(2)
                    .map(|w| {
                        // Workers realize only their own rows.
                        let mut worker = Population::sharded(config.clone(), latency, w[0]..w[1]);
                        let lent = worker.advance(epoch);
                        assert_eq!(lent.hint.epoch, hint_epoch);
                        scale_context_part(
                            lent.cols,
                            lent.hint,
                            lent.now,
                            &latency,
                            5,
                            w[0]..w[1],
                            None,
                        )
                    })
                    .collect();
                let got =
                    assemble_context(epoch, cols.len(), parts, 400.0, 5, config.seed).unwrap();
                assert_eq!(got.available, want.available);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.costs), bits(&want.costs));
                assert_eq!(bits(&got.latency_hint), bits(&want.latency_hint));
                assert_eq!(bits(&got.true_latency), bits(&want.true_latency));
                assert_eq!(got.data_volumes, want.data_volumes);
                assert_eq!(got.loss_hint.len(), want.loss_hint.len());
                assert_eq!(got.epoch, want.epoch);
                assert_eq!(got.num_clients, want.num_clients);
            }
        }
    }

    #[test]
    fn empty_availability_yields_no_context() {
        let (config, channel, cols) = setup(10, 24);
        let mut ec = cols.epoch_columns(0, &config, &channel);
        ec.available.iter_mut().for_each(|a| *a = false);
        let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
        assert!(scale_context(&cols, &ec, &ec, &latency, 100.0, 3, 1).is_none());
    }
}
