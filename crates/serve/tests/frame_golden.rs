//! The epoch payload frames, byte for byte. `TrainResult`,
//! `ShardContextPart` and `ShardTrainPart` carry the library's payload
//! structs (`SynthResult`, `ContextPart`, `MemberFeedback`); the
//! constants below are the frames the same values encoded to when each
//! variant still spelled its fields out, so the move is checked to leave
//! the wire as it was. The set covers empty columns and packed columns
//! whose byte count is 1 and 2 mod 3 (each base64 tail).
//!
//! Those columns are all shorter than one 48-byte block of the packed
//! codec. The long frames below — a seeded 1 000-row context part and a
//! 1 000-member train part, every column many blocks and a tail — are
//! pinned by their byte length and the header's `crc=` (the envelope
//! checksum of the whole body), as the codec encoded them before it moved
//! to block kernels.

use fedl_core::columnar::ContextPart;
use fedl_linalg::rng::{rng_for, Rng};
use fedl_serve::{decode_frame, encode_frame, MemberFeedback, Message, SynthResult};

const TRAIN_RESULT: &str = "fedl-store v2 kind=serve-msg crc=a9dde332088226cf\n{\"type\":\"train_result\",\"epoch\":7,\"cohort\":[3,11],\"iterations\":5,\"latency_secs\":2.7500000000000004,\"per_client_iter_latency\":[0.55,0.1],\"cost\":13.25,\"eta_hats\":[0.30000001192092896,0.949999988079071],\"global_loss\":1.7,\"grad_dot_delta\":[-0.125,-0.33000001311302185],\"local_losses\":[1.899999976158142,2.200000047683716]}";
const TRAIN_RESULT_EMPTY: &str = "fedl-store v2 kind=serve-msg crc=619e9074bb34fde1\n{\"type\":\"train_result\",\"epoch\":0,\"cohort\":[],\"iterations\":1,\"latency_secs\":0.0,\"per_client_iter_latency\":[],\"cost\":0.0,\"eta_hats\":[],\"global_loss\":2.302585092994046,\"grad_dot_delta\":[],\"local_losses\":[]}";
const SHARD_CONTEXT_PART: &str = "fedl-store v2 kind=serve-msg crc=9ee095dff5376fb3\n{\"type\":\"shard_context_part\",\"epoch\":12,\"available\":\"KAAAACkAAAA5AAAAYwAAAA\",\"costs\":\"AAAAAAAA+D+amZmZmZm5PwAAAAAAABxAAAAAAAAACkA\",\"latency_hint\":\"mpmZmZmZyT8zMzMzMzPTP1nz+MIfbqUBWDm0yNYcyEA\",\"true_latency\":\"AAAAAAAA0D9mZmZmZmbWP83MzMzMzNw/AAAAAAAAEAA\",\"data_volumes\":\"CgAAAAAAAAADAAAAcBEBAA\"}";
const SHARD_CONTEXT_PART_EMPTY: &str = "fedl-store v2 kind=serve-msg crc=ba631d4eed23651b\n{\"type\":\"shard_context_part\",\"epoch\":3,\"available\":\"\",\"costs\":\"\",\"latency_hint\":\"\",\"true_latency\":\"\",\"data_volumes\":\"\"}";
const SHARD_TRAIN_PART: &str = "fedl-store v2 kind=serve-msg crc=5d98081094168375\n{\"type\":\"shard_train_part\",\"epoch\":9,\"members\":\"AgAAALwCAAA\",\"per_client_iter_latency\":\"AAAAAAAA4D8AAAAAAADAPw\",\"costs\":\"AAAAAAAADEAAAAAAAAASQA\",\"eta_hats\":\"mpmZPgAAID8\",\"grad_dot_delta\":\"zczMvQAAAL8\",\"local_losses\":\"AAAAQAAAEEA\"}";
const SHARD_TRAIN_PART_ONE: &str = "fedl-store v2 kind=serve-msg crc=a72e6396c7af043b\n{\"type\":\"shard_train_part\",\"epoch\":10,\"members\":\"BQAAAA\",\"per_client_iter_latency\":\"AAAAAAAA6D8\",\"costs\":\"AAAAAAAAIkA\",\"eta_hats\":\"ZmZmPw\",\"grad_dot_delta\":\"zcxMvg\",\"local_losses\":\"AADAPw\"}";
const SHARD_TRAIN_PART_EMPTY: &str = "fedl-store v2 kind=serve-msg crc=4092c71829c5e530\n{\"type\":\"shard_train_part\",\"epoch\":11,\"members\":\"\",\"per_client_iter_latency\":\"\",\"costs\":\"\",\"eta_hats\":\"\",\"grad_dot_delta\":\"\",\"local_losses\":\"\"}";

/// `long_frames(1_000)`'s context part: its length and header checksum.
const LONG_CONTEXT_PART: (usize, &str) = (42_839, "4e18dce36c63890e");
/// `long_frames(1_000)`'s train part: its length and header checksum.
const LONG_TRAIN_PART: (usize, &str) = (42_863, "2fe4cdf06a704eeb");

fn frames() -> Vec<(&'static str, Message)> {
    vec![
        (
            TRAIN_RESULT,
            Message::TrainResult {
                epoch: 7,
                cohort: vec![3, 11],
                iterations: 5,
                feedback: SynthResult {
                    latency_secs: 2.7500000000000004,
                    per_client_iter_latency: vec![0.55, 0.1],
                    cost: 13.25,
                    eta_hats: vec![0.3, 0.95],
                    global_loss: 1.7,
                    grad_dot_delta: vec![-0.125, -0.33],
                    local_losses: vec![1.9, 2.2],
                },
            },
        ),
        (
            TRAIN_RESULT_EMPTY,
            Message::TrainResult {
                epoch: 0,
                cohort: vec![],
                iterations: 1,
                feedback: SynthResult {
                    latency_secs: 0.0,
                    per_client_iter_latency: vec![],
                    cost: 0.0,
                    eta_hats: vec![],
                    global_loss: std::f64::consts::LN_10,
                    grad_dot_delta: vec![],
                    local_losses: vec![],
                },
            },
        ),
        (
            // Four rows: 16-byte id columns (1 mod 3), 32-byte floats (2 mod 3).
            SHARD_CONTEXT_PART,
            Message::ShardContextPart {
                epoch: 12,
                part: ContextPart {
                    available: vec![40, 41, 57, 99],
                    costs: vec![1.5, 0.1, 7.0, 3.25],
                    latency_hint: vec![0.2, 0.3, 1e-300, 12345.678],
                    true_latency: vec![0.25, 0.35, 0.45, f64::MIN_POSITIVE],
                    data_volumes: vec![10, 0, 3, 70000],
                },
            },
        ),
        (
            SHARD_CONTEXT_PART_EMPTY,
            Message::ShardContextPart {
                epoch: 3,
                part: ContextPart {
                    available: vec![],
                    costs: vec![],
                    latency_hint: vec![],
                    true_latency: vec![],
                    data_volumes: vec![],
                },
            },
        ),
        (
            // Two members: 8-byte ids and f32s (2 mod 3), 16-byte f64s (1 mod 3).
            SHARD_TRAIN_PART,
            Message::ShardTrainPart {
                epoch: 9,
                members: vec![2, 700],
                feedback: MemberFeedback {
                    per_client_iter_latency: vec![0.5, 0.125],
                    costs: vec![3.5, 4.5],
                    eta_hats: vec![0.3, 0.625],
                    grad_dot_delta: vec![-0.1, -0.5],
                    local_losses: vec![2.0, 2.25],
                },
            },
        ),
        (
            // One member: 4-byte ids and f32s (1 mod 3), an 8-byte f64 (2 mod 3).
            SHARD_TRAIN_PART_ONE,
            Message::ShardTrainPart {
                epoch: 10,
                members: vec![5],
                feedback: MemberFeedback {
                    per_client_iter_latency: vec![0.75],
                    costs: vec![9.0],
                    eta_hats: vec![0.9],
                    grad_dot_delta: vec![-0.2],
                    local_losses: vec![1.5],
                },
            },
        ),
        (
            SHARD_TRAIN_PART_EMPTY,
            Message::ShardTrainPart {
                epoch: 11,
                members: vec![],
                feedback: MemberFeedback::default(),
            },
        ),
    ]
}

#[test]
fn epoch_payload_frames_are_the_pinned_bytes() {
    for (golden, msg) in frames() {
        let frame = String::from_utf8(encode_frame(&msg)).expect("frames are UTF-8");
        assert_eq!(frame, golden, "{} encodes to other bytes", msg.type_tag());
        assert_eq!(decode_frame(golden.as_bytes()).expect("the pinned frame decodes"), msg);
    }
}

/// `rows` random bit patterns per float column, ids that skip, volumes
/// across the `u32` range: every cell's bytes are noise to the codec.
fn long_frames(rows: usize) -> [Message; 2] {
    let mut rng = rng_for(0x601D_F4A3, rows as u64);
    let mut f64s = || -> Vec<f64> { (0..rows).map(|_| f64::from_bits(rng.next_u64())).collect() };
    let (costs, latency_hint, true_latency) = (f64s(), f64s(), f64s());
    let (per_client_iter_latency, member_costs) = (f64s(), f64s());
    let mut f32s =
        || -> Vec<f32> { (0..rows).map(|_| f32::from_bits(rng.next_u64() as u32)).collect() };
    let (eta_hats, grad_dot_delta, local_losses) = (f32s(), f32s(), f32s());
    let ids: Vec<usize> = (0..rows).map(|k| 3 * k + k % 7).collect();
    let volumes: Vec<usize> = (0..rows).map(|k| (k * 2_654_435_761) % (1 << 32)).collect();
    [
        Message::ShardContextPart {
            epoch: 41,
            part: ContextPart {
                available: ids.clone(),
                costs,
                latency_hint,
                true_latency,
                data_volumes: volumes,
            },
        },
        Message::ShardTrainPart {
            epoch: 42,
            members: ids,
            feedback: MemberFeedback {
                per_client_iter_latency,
                costs: member_costs,
                eta_hats,
                grad_dot_delta,
                local_losses,
            },
        },
    ]
}

#[test]
fn long_packed_frames_are_the_pinned_bytes() {
    for (msg, (bytes, crc)) in
        long_frames(1_000).into_iter().zip([LONG_CONTEXT_PART, LONG_TRAIN_PART])
    {
        let frame = encode_frame(&msg);
        let header = std::str::from_utf8(&frame).unwrap().lines().next().unwrap().to_string();
        assert_eq!(frame.len(), bytes, "{} is {} bytes", msg.type_tag(), frame.len());
        assert_eq!(header, format!("fedl-store v2 kind=serve-msg crc={crc}"), "{}", msg.type_tag());
        // The floats are random bits, NaN payloads among them: compare
        // what came back by re-encoding it.
        let back = decode_frame(&frame).expect("the pinned frame decodes");
        assert_eq!(encode_frame(&back), frame, "{} round trip", msg.type_tag());
    }
}
