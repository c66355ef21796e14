//! The fused `scale_context_part` against the five-pass version it
//! replaced (`oracle/context.rs`): every column bit-identical, for shards
//! that are one cut of the realize grain and shards that are several, with
//! and without a registration mask, at one and at two threads.
//!
//! One `#[test]`: the team size is process-global.

#[path = "oracle/context.rs"]
mod oracle;

use std::ops::Range;

use fedl_core::columnar::{scale_context_part, ContextPart};
use fedl_net::LatencyModel;
use fedl_sim::columns::REALIZE_CHUNK;
use fedl_sim::{EnvConfig, Population};
use oracle::scale_context_part_reference;

fn assert_same_bits(got: &ContextPart, want: &ContextPart, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.available, want.available, "{what}");
    assert_eq!(bits(&got.costs), bits(&want.costs), "{what}: costs");
    assert_eq!(bits(&got.latency_hint), bits(&want.latency_hint), "{what}: latency hint");
    assert_eq!(bits(&got.true_latency), bits(&want.true_latency), "{what}: true latency");
    assert_eq!(got.data_volumes, want.data_volumes, "{what}");
}

/// Both versions over `shards` of a `clients`-strong population at each
/// of `epochs`, unmasked and under a mask that drops every fifth client.
fn check(clients: usize, seed: u64, epochs: &[usize], shards: &[Range<usize>], threads: usize) {
    let config = EnvConfig::small(clients, seed);
    let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
    let mask: Vec<bool> = (0..clients).map(|k| k % 5 != 2).collect();
    let floor = (clients / 20).max(1);
    for shard in shards {
        // A worker realizes only its own rows.
        let mut worker = Population::sharded(config.clone(), latency, shard.clone());
        for &epoch in epochs {
            let lent = worker.advance(epoch);
            for registered in [None, Some(mask.as_slice())] {
                let what = format!(
                    "{clients} clients, shard {shard:?}, epoch {epoch}, masked {}, {threads} thread(s)",
                    registered.is_some()
                );
                let (cols, hint, now) = (lent.cols, lent.hint, lent.now);
                let got =
                    scale_context_part(cols, hint, now, &latency, floor, shard.clone(), registered);
                let want = scale_context_part_reference(
                    cols,
                    hint,
                    now,
                    &latency,
                    floor,
                    shard.clone(),
                    registered,
                );
                assert_same_bits(&got, &want, &what);
                assert!(got.available.windows(2).all(|w| w[0] < w[1]), "{what}: ascending");
            }
        }
    }
}

#[test]
fn fused_walk_equals_the_five_pass_oracle_at_one_and_two_threads() {
    let small: Vec<Range<usize>> =
        [0usize, 7, 64, 65, 120].windows(2).map(|w| w[0]..w[1]).collect();
    // Above the grain: three cuts from the first id, three cuts that
    // start and end off the cut boundaries, exactly one whole cut, one
    // cut and a single id, and nobody.
    let large = [
        0..40_000,
        5..2 * REALIZE_CHUNK + 300,
        REALIZE_CHUNK..2 * REALIZE_CHUNK,
        100..REALIZE_CHUNK + 101,
        9..9,
    ];
    for threads in [1, 2] {
        fedl_linalg::par::force_max_threads(threads);
        check(120, 25, &[0, 3, 11], &small, threads);
        check(40_000, 26, &[0, 2], &large, threads);
    }
}
