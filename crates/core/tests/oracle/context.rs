//! `scale_context_part` as it was before the fused walk: the available
//! ids collected first, then one gathering pass per column — costs,
//! volumes, and the share-model latency twice (hint epoch, current
//! epoch), each latency converting the population's transmit power and
//! the noise density from dBm again for every client. It lives on only as
//! the reference `crates/core/tests/context_part.rs` holds the fused walk
//! bit-identical to; nothing under `src/` uses it.

use std::ops::Range;

use fedl_core::columnar::ContextPart;
use fedl_linalg::par::par_zip_chunks;
use fedl_net::{dbm_to_watts, rate_bps, LatencyModel};
use fedl_sim::{ClientColumns, EpochColumns};

/// `τ^loc + τ^cm` of each listed client under a share of
/// `bandwidth / share_count`, through the row-oriented radio.
fn latency_pass(
    cols: &ClientColumns,
    realized: &EpochColumns,
    latency: &LatencyModel,
    share_count: usize,
    ids: &[usize],
) -> Vec<f64> {
    let share_hz = latency.bandwidth_hz / share_count as f64;
    let n0 = dbm_to_watts(latency.noise_dbm_per_hz);
    let mut out = vec![0.0f64; ids.len()];
    par_zip_chunks(&mut out, 1, ids, 1, |_, tau, id| {
        let k = id[0];
        let data_bits = realized.data_volume[k] as f64 * latency.bits_per_sample;
        let compute_secs = cols.cycles_per_bit[k] * data_bits / cols.cpu_hz[k];
        let rate = rate_bps(&realized.radio(cols, k), share_hz, n0);
        tau[0] = compute_secs + latency.upload_bits / rate.max(1e-3);
    });
    out
}

/// The five-pass [`fedl_core::columnar::scale_context_part`].
pub fn scale_context_part_reference(
    cols: &ClientColumns,
    hint: &EpochColumns,
    now: &EpochColumns,
    latency: &LatencyModel,
    min_participants: usize,
    shard: Range<usize>,
    registered: Option<&[bool]>,
) -> ContextPart {
    let available: Vec<usize> =
        shard.filter(|&k| now.available[k] && registered.is_none_or(|r| r[k])).collect();
    let n = available.len();
    let share = min_participants.max(1);
    let mut costs = vec![0.0f64; n];
    par_zip_chunks(&mut costs, 1, &available, 1, |_, c, id| c[0] = now.cost[id[0]]);
    let mut volumes = vec![0usize; n];
    par_zip_chunks(&mut volumes, 1, &available, 1, |_, d, id| {
        d[0] = now.data_volume[id[0]] as usize;
    });
    ContextPart {
        latency_hint: latency_pass(cols, hint, latency, share, &available),
        true_latency: latency_pass(cols, now, latency, share, &available),
        available,
        costs,
        data_volumes: volumes,
    }
}
