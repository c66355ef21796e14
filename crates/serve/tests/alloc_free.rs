//! The wire codec allocates only what it hands back. `encode_frame`
//! reserves an upper bound on the frame, so a frame is one allocation and
//! never grows; `decode_frame` reads a frame's body straight into the
//! message, so the only allocations are the message's own `String`s and
//! `Vec`s. Its own binary: the counting allocator is process-wide.

use fedl_core::columnar::ContextPart;
use fedl_linalg::alloc_counter::CountingAllocator;
use fedl_linalg::rng::{rng_for, Rng};
use fedl_serve::{decode_frame, encode_frame, Message};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// `f`'s result and the allocations (reallocations included) it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOC.allocations();
    let result = f();
    (result, ALLOC.allocations() - before)
}

#[test]
fn the_codec_allocates_only_the_frame_and_the_message_s_storage() {
    let rows = 1_000;
    let mut rng = rng_for(0xA110C, rows as u64);
    let mut column = |lo: f64, hi: f64| (0..rows).map(|_| rng.gen_range(lo..hi)).collect();
    let part = ContextPart {
        available: (0..rows).map(|k| 3 * k + 1).collect(),
        costs: column(0.1, 12.0),
        latency_hint: column(0.01, 2.0),
        true_latency: column(0.01, 2.0),
        data_volumes: (0..rows).map(|k| k % 17).collect(),
    };
    // Each message with the allocations its decode may make.
    let cases = [
        (Message::ClientJoin { client: 73 }, 0, "nothing"),
        (
            Message::Snapshot {
                epoch: 12,
                registered: 100,
                selections: 12,
                budget_remaining: 4_321.987_654_321,
                policy: "FedL".into(),
            },
            1,
            "the policy label",
        ),
        (
            Message::Cohort {
                epoch: 12,
                cohort: vec![3, 17, 40, 41, 99, 1_000_000],
                iterations: 5,
                done: false,
            },
            1,
            "the cohort",
        ),
        (Message::ShardContextPart { epoch: 12, part }, 5, "the five columns"),
    ];
    for (message, owned, what) in cases {
        let (frame, allocations) = counted(|| encode_frame(&message));
        assert_eq!(allocations, 1, "{}: encode allocates the frame, once", message.type_tag());
        let (decoded, allocations) = counted(|| decode_frame(&frame));
        assert_eq!(decoded.as_ref(), Ok(&message));
        assert_eq!(allocations, owned, "{}: decode allocates {what}", message.type_tag());
    }
}
