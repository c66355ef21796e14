//! Protocol robustness: a seeded fuzz loop throws truncated,
//! bit-flipped, oversized-length, and garbage frames at the decoder
//! and the server. Every case must come back as a typed
//! [`ProtocolError`] (or a wire `error` message) — never a panic — and
//! must bump the malformed-frame counter, mirroring the run log's
//! lenient line parsing. So must what a checksum cannot catch: a frame
//! from a peer on the previous envelope version, and a hostile payload
//! sealed with the right checksum.

use std::io::Cursor;

use fedl_core::columnar::ContextPart;
use fedl_core::policy::PolicyKind;
use fedl_linalg::rng::{rng_for, Rng};
use fedl_serve::{
    decode_frame, encode_frame, read_frame, serve_connection, write_frame, DuplexTransport,
    FrameHandler, FrameTransport, MemberFeedback, Message, ProtocolError, ServeConfig, ServeExit,
    ServerState, SynthResult, FRAME_KIND, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use fedl_telemetry::Telemetry;

/// `body` sealed as a `serve-msg` frame of envelope `version`, with the
/// checksum that version uses (v1: FNV-1a).
fn sealed(version: u32, body: &str) -> Vec<u8> {
    let crc = match version {
        1 => fedl_store::fnv1a64(body.as_bytes()),
        _ => fedl_store::envelope_checksum(body.as_bytes()),
    };
    format!("fedl-store v{version} kind={FRAME_KIND} crc={crc:016x}\n{body}").into_bytes()
}

/// A rotating set of well-formed messages to mutate.
fn valid_message(i: usize) -> Message {
    match i % 12 {
        0 => Message::Hello { protocol_version: PROTOCOL_VERSION, node: "fuzz".into() },
        1 => Message::ClientJoin { client: i % 40 },
        2 => Message::SelectCohort { epoch: i, trace: fedl_serve::Trace::Absent },
        3 => Message::Cohort { epoch: i, cohort: vec![1, 2, 3], iterations: 4, done: false },
        4 => Message::TrainResult {
            epoch: i,
            cohort: vec![0, 5],
            iterations: 3,
            feedback: SynthResult {
                latency_secs: 1.5,
                per_client_iter_latency: vec![0.5, 0.25],
                cost: 7.5,
                eta_hats: vec![0.5, 0.625],
                global_loss: 2.25,
                grad_dot_delta: vec![-0.125, -0.5],
                local_losses: vec![2.0, 2.5],
            },
        },
        5 => Message::ShardAssign {
            clients: 40,
            seed: 3,
            budget: 1000.0,
            min_participants: 3,
            policy: "fedl".into(),
            shard_start: i % 20,
            shard_end: 20 + i % 20,
        },
        6 => Message::ShardReady {
            shard_start: 0,
            shard_end: 20,
            fingerprint: "0123456789abcdef".into(),
        },
        7 => Message::ShardContext { epoch: i, trace: fedl_serve::Trace::Absent },
        8 => context_part(i),
        9 => Message::ShardTrain {
            epoch: i,
            members: vec![2, 7, 11],
            iterations: 3,
            trace: fedl_serve::Trace::Absent,
        },
        10 => Message::ShardTrainPart {
            epoch: i,
            members: vec![2, 7, 11],
            feedback: MemberFeedback {
                per_client_iter_latency: vec![0.5, 0.25, 0.125],
                costs: vec![3.5, 4.5, 5.5],
                eta_hats: vec![0.5, 0.625, 0.75],
                grad_dot_delta: vec![-0.125, -0.5, -0.25],
                local_losses: vec![2.0, 2.5, 2.25],
            },
        },
        _ => Message::Shutdown,
    }
}

/// A five-row context part: 20-byte id columns (a base64 tail of two
/// bytes) beside 40-byte float columns (a tail of one).
fn context_part(epoch: usize) -> Message {
    Message::ShardContextPart {
        epoch,
        part: ContextPart {
            available: vec![1, 3, 4, 8, 9],
            costs: vec![1.5, 2.5, 0.1, 7.0, 3.25],
            latency_hint: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            true_latency: vec![0.15, 0.25, 0.35, 0.45, 0.55],
            data_volumes: vec![10, 0, 3, 7, 2],
        },
    }
}

#[test]
fn mutated_frames_yield_typed_errors_and_count() {
    let config = ServeConfig::new(40, 3, 1000.0, 3, PolicyKind::FedL);
    let mut server = ServerState::new(config, Telemetry::in_memory().0);
    let mut rng = rng_for(0xF022_2ED5, 1);
    let rounds = 300usize;
    for i in 0..rounds {
        let mut frame = fedl_serve::encode_frame(&valid_message(i));
        match i % 3 {
            0 => {
                // Truncate somewhere inside the frame.
                let cut = (rng.next_u64() as usize) % frame.len();
                frame.truncate(cut);
            }
            1 => {
                // Flip one random bit.
                let byte = (rng.next_u64() as usize) % frame.len();
                let bit = (rng.next_u64() % 8) as u8;
                frame[byte] ^= 1 << bit;
            }
            _ => {
                // Replace with garbage bytes of random length.
                let len = 1 + (rng.next_u64() as usize) % 64;
                frame = (0..len).map(|_| rng.next_u64() as u8).collect();
            }
        }
        let before = server.malformed_frames();
        let (reply, _control) = server.handle_frame(&frame);
        let decoded = decode_frame(&reply).expect("server replies are always well-formed");
        assert!(
            matches!(decoded, Message::Error { .. }),
            "round {i}: mutated frame must be refused, got {decoded:?}"
        );
        assert_eq!(server.malformed_frames(), before + 1, "round {i}: counter must move");
    }
    assert_eq!(server.malformed_frames(), rounds as u64);
    // The server survived 300 rounds of abuse and still works.
    let (reply, _) = server.handle_message(Message::ClientJoin { client: 0 });
    assert!(matches!(reply, Message::Snapshot { .. }));
}

/// A 41-row context part: 164-byte id columns (three 48-byte blocks of
/// the packed codec and a 20-byte tail) beside 328-byte float columns
/// (six blocks and a 40-byte tail).
fn long_context_part(epoch: usize) -> Message {
    let rows = 41;
    let mut rng = rng_for(0x10_C0DE, epoch as u64);
    let mut column = |lo: f64, hi: f64| (0..rows).map(|_| rng.gen_range(lo..hi)).collect();
    Message::ShardContextPart {
        epoch,
        part: ContextPart {
            available: (0..rows).map(|k| 2 * k + 1).collect(),
            costs: column(0.1, 12.0),
            latency_hint: column(0.01, 2.0),
            true_latency: column(0.01, 2.0),
            data_volumes: (0..rows).map(|k| k % 17).collect(),
        },
    }
}

/// Damage inside a packed column that a link could only produce together
/// with a matching checksum (a buggy or hostile peer, not line noise):
/// the envelope is re-sealed after each edit, so the edit reaches the
/// column decoder instead of dying at the checksum. Every column is
/// several of the codec's 64-character blocks and a tail, and a foreign
/// byte lands in each.
#[test]
fn damaged_packed_columns_are_schema_errors_behind_a_valid_checksum() {
    use fedl_json::Value;
    let frame = fedl_serve::encode_frame(&long_context_part(4));
    let text = std::str::from_utf8(&frame).unwrap();
    let payload = Value::parse(text.split_once('\n').unwrap().1).unwrap();
    let Value::Obj(pairs) = &payload else { panic!("a message is a JSON object") };
    let columns = ["available", "costs", "latency_hint", "true_latency", "data_volumes"];
    // Re-seals the message with column `key` rewritten by `edit`.
    let resealed = |key: &str, edit: &dyn Fn(&str) -> String| {
        let pairs = pairs
            .iter()
            .map(|(k, v)| match v {
                Value::Str(text) if k == key => (k.clone(), Value::Str(edit(text))),
                _ => (k.clone(), v.clone()),
            })
            .collect();
        fedl_store::encode_envelope("serve-msg", &Value::Obj(pairs))
    };
    let text_of = |key: &str| payload.get(key).and_then(Value::as_str).expect("a packed column");
    // The refusal texts, word for word as the codec has always given them.
    let expect_schema = |frame: Vec<u8>, why: String, case: &str| match decode_frame(&frame) {
        Err(ProtocolError::Schema { detail }) => assert_eq!(detail, why, "{case}"),
        other => panic!("{case}: expected a schema error, got {other:?}"),
    };
    let mut rng = rng_for(0xC01_0A75, 4);
    for key in columns {
        // Untouched, the re-sealed frame is the original frame.
        assert_eq!(resealed(key, &|t| t.to_string()), frame);
        let why = |reason: &str| format!("packed column `{key}`: {reason}");
        for round in 0..40 {
            let at = rng.next_u64() as usize;
            // A byte outside the alphabet, inside a whole block and in
            // the tail: padding, whitespace, the url-safe alphabet,
            // control bytes, multi-byte UTF-8 (one byte longer, which
            // leaves both column lengths off 1 mod 4).
            let foreign = ["=", " ", "-", "_", "\n", "\u{0}", "\u{7f}", "é", "\u{80}"][round % 9];
            for (place, pick) in [
                ("a block", &(|len: usize| at % (len - len % 64)) as &dyn Fn(usize) -> usize),
                ("the tail", &|len: usize| len - len % 64 + at % (len % 64)),
            ] {
                let damaged = resealed(key, &|t| {
                    let i = pick(t.len());
                    format!("{}{foreign}{}", &t[..i], &t[i + 1..])
                });
                let case = format!("{key}: foreign byte {foreign:?} in {place}");
                expect_schema(damaged, why("a byte outside the base64 alphabet"), &case);
            }
            // Characters dropped off the end until the length is 1 mod 4.
            let damaged = resealed(key, &|t| t[..t.len() - (t.len() + 3) % 4].to_string());
            let case = format!("{key}: length 1 mod 4");
            expect_schema(damaged, why("a length of 1 mod 4 is not base64"), &case);
            // The last character's unused low bits set (only the tail has
            // any): both column widths end in a partial quad here, whose
            // canonical last character has an even sextet, and the next
            // ASCII character is the next sextet.
            let damaged = resealed(key, &|t| {
                let last = t.as_bytes()[t.len() - 1];
                format!("{}{}", &t[..t.len() - 1], (last + 1) as char)
            });
            let case = format!("{key}: trailing bits");
            expect_schema(damaged, why("non-zero trailing bits"), &case);
            // Whole characters dropped: still canonical base64, no longer
            // whole cells.
            let drop = 1 + at % 4;
            // Cut on a quad boundary so no trailing bits are left over.
            let cut = |t: &str| (t.len() - drop) / 4 * 4;
            let damaged = resealed(key, &|t| t[..cut(t)].to_string());
            let bytes = cut(text_of(key)) * 3 / 4;
            let width = if key == "available" || key == "data_volumes" { 4 } else { 8 };
            let case = format!("{key}: {drop} characters short");
            let reason = format!("{bytes} bytes are not whole {width}-byte cells");
            expect_schema(damaged, why(&reason), &case);
        }
    }
    // A whole cell cut from one column is well-formed on the wire: the
    // decoder hands back columns of unequal row counts, and alignment is
    // the coordinator's check (`dist.bad_replies`, crates/dist).
    // (3 cells = 24 bytes = 32 characters, a whole number of quads.)
    let shorter = resealed("costs", &|t| t[..32].to_string());
    match decode_frame(&shorter).expect("columns of unequal length are still a frame") {
        Message::ShardContextPart { part, .. } => {
            assert_eq!((part.available.len(), part.costs.len()), (41, 3));
        }
        other => panic!("unexpected message {other:?}"),
    }
}

/// Every required key of every message, dropped and then given a value
/// of the wrong kind, re-sealed each time so the edit reaches the message
/// decoder: each is a schema error that names the key. The fuzz loop's
/// rotation plus the kinds it leaves out cover every `type`; the trace
/// keys are optional by design, and a stats registry may hold any value,
/// so only its absence is wrong.
#[test]
fn every_key_dropped_or_of_the_wrong_kind_is_a_schema_error_naming_it() {
    use fedl_json::Value;
    let rest = [
        Message::ClientLeave { client: 3 },
        Message::Snapshot {
            epoch: 2,
            registered: 5,
            selections: 1,
            budget_remaining: 12.5,
            policy: "fedl".into(),
        },
        Message::Stats,
        Message::StatsSnapshot { registry: Value::Obj(vec![]) },
        Message::Error { code: "schema".into(), detail: "why".into() },
    ];
    for message in (0..12).map(valid_message).chain(rest) {
        let frame = encode_frame(&message);
        let body = std::str::from_utf8(&frame).unwrap().split_once('\n').unwrap().1;
        let Value::Obj(pairs) = Value::parse(body).unwrap() else { panic!("not an object") };
        for (at, (key, value)) in pairs.iter().enumerate() {
            if key == "trace_id" || key == "span_id" {
                continue;
            }
            let mut dropped = pairs.clone();
            dropped.remove(at);
            let mut mutants = vec![("dropped", dropped)];
            if key != "registry" {
                let wrong = match value {
                    Value::Str(_) => Value::Int(7),
                    _ => Value::from("a string"),
                };
                let mut changed = pairs.clone();
                changed[at].1 = wrong;
                mutants.push(("of the wrong kind", changed));
            }
            for (what, mutant) in mutants {
                let frame = fedl_store::encode_envelope(FRAME_KIND, &Value::Obj(mutant));
                match decode_frame(&frame) {
                    Err(ProtocolError::Schema { detail }) if detail.contains(key.as_str()) => {}
                    other => panic!("{message:?}: `{key}` {what} gave {other:?}"),
                }
            }
        }
    }
}

#[test]
fn stream_level_damage_is_typed() {
    // Oversized length prefix: desync, not an allocation attempt.
    let huge = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
    assert!(matches!(read_frame(&mut Cursor::new(huge)), Err(ProtocolError::FrameTooLarge { .. })));
    // Stream cut inside the length prefix.
    assert!(matches!(
        read_frame(&mut Cursor::new(vec![0u8; 3])),
        Err(ProtocolError::TruncatedFrame { expected: 4, got: 3 })
    ));
    // Stream cut inside the payload.
    let mut wire = Vec::new();
    write_frame(&mut wire, &fedl_serve::encode_frame(&Message::Shutdown)).unwrap();
    wire.truncate(wire.len() - 5);
    assert!(matches!(
        read_frame(&mut Cursor::new(wire)),
        Err(ProtocolError::TruncatedFrame { .. })
    ));
    // An over-limit frame is refused on the send side too.
    let mut sink = Vec::new();
    assert!(matches!(
        write_frame(&mut sink, &vec![0u8; MAX_FRAME_BYTES + 1]),
        Err(ProtocolError::FrameTooLarge { .. })
    ));
}

#[test]
fn fuzzed_trace_ids_never_panic_and_are_counted() {
    use fedl_json::{obj, Value};
    let config = ServeConfig::new(40, 3, 1000.0, 3, PolicyKind::FedL);
    let tel = Telemetry::in_memory().0;
    let mut server = ServerState::new(config, tel.clone());
    let mut rng = rng_for(0x7_2ACE, 3);
    let mut invalid = 0u64;
    for i in 0..200 {
        // Random bytes rendered as a JSON string: sometimes valid hex,
        // mostly garbage (overlong, non-hex, empty, signed).
        let mut gen_id = || {
            let len = (rng.next_u64() % 24) as usize;
            (0..len).map(|_| (rng.next_u64() % 96 + 32) as u8 as char).collect::<String>()
        };
        let trace_id = gen_id();
        let span_id = gen_id();
        let valid =
            |s: &str| !s.is_empty() && s.len() <= 16 && s.bytes().all(|b| b.is_ascii_hexdigit());
        if !(valid(&trace_id) && valid(&span_id)) {
            invalid += 1;
        }
        let payload = obj(vec![
            ("type", Value::from("select_cohort")),
            ("epoch", Value::Int(i as i64)),
            ("trace_id", Value::from(trace_id)),
            ("span_id", Value::from(span_id)),
        ]);
        let frame = fedl_store::encode_envelope("serve-msg", &payload);
        // Must never panic; the reply is always a well-formed frame.
        let (reply, _) = server.handle_frame(&frame);
        decode_frame(&reply).expect("server replies are always well-formed");
    }
    assert!(invalid > 0, "the generator should produce garbage ids");
    assert_eq!(tel.counter("proto.bad_trace_ids").value(), invalid);
}

#[test]
fn a_v1_hello_over_a_connection_is_refused_and_the_connection_lives() {
    let config = ServeConfig::new(40, 3, 1000.0, 3, PolicyKind::FedL);
    let (mut client, mut server_end) = DuplexTransport::pair();
    let server = std::thread::spawn(move || {
        let mut state = ServerState::new(config, Telemetry::in_memory().0);
        let exit = serve_connection(&mut server_end, &mut state);
        (exit, state.malformed_frames())
    });
    let hello = Message::Hello { protocol_version: PROTOCOL_VERSION, node: "old".into() };
    let v2 = encode_frame(&hello);
    client.send(&sealed(1, std::str::from_utf8(&v2).unwrap().split_once('\n').unwrap().1)).unwrap();
    let reply = decode_frame(&client.recv().unwrap().expect("a reply")).unwrap();
    match reply {
        Message::Error { code, detail } => {
            assert_eq!(code, "envelope");
            assert!(detail.contains("v1") && detail.contains("v2"), "{detail}");
        }
        other => panic!("a v1 frame must be refused, got {other:?}"),
    }
    // The same hello in a v2 envelope is answered on the same connection.
    client.send(&encode_frame(&hello)).unwrap();
    let reply = decode_frame(&client.recv().unwrap().expect("a reply")).unwrap();
    assert!(matches!(reply, Message::Hello { .. }), "{reply:?}");
    drop(client);
    let (exit, malformed) = server.join().expect("the server thread must not panic");
    assert_eq!(exit, Ok(ServeExit::PeerClosed));
    assert_eq!(malformed, 1);
}

#[test]
fn deep_nesting_behind_a_valid_checksum_is_a_typed_error_not_an_abort() {
    // The checksum catches accidents, not peers: 40 KB of `[` sealed
    // with its correct checksum reaches the JSON parser, on a thread with
    // the 2 MB stack a connection thread gets.
    let frame = sealed(fedl_store::FORMAT_VERSION, &"[".repeat(40_000));
    let config = ServeConfig::new(40, 3, 1000.0, 3, PolicyKind::FedL);
    let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(move || {
        let direct = decode_frame(&frame);
        let mut server = ServerState::new(config, Telemetry::in_memory().0);
        let (reply, _) = server.handle_frame(&frame);
        (direct, decode_frame(&reply), server.malformed_frames())
    });
    let (direct, reply, malformed) = worker.unwrap().join().expect("no stack overflow");
    match direct {
        Err(ProtocolError::Envelope { detail }) => {
            assert!(detail.contains("nesting deeper than"), "{detail}")
        }
        other => panic!("expected an envelope error, got {other:?}"),
    }
    assert!(
        matches!(reply, Ok(Message::Error { ref code, .. }) if code == "envelope"),
        "{reply:?}"
    );
    assert_eq!(malformed, 1);
}

#[test]
fn decoder_never_panics_on_seeded_garbage() {
    let mut rng = rng_for(0xDECAF, 2);
    for _ in 0..500 {
        let len = (rng.next_u64() as usize) % 256;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Must be an Err, and must not panic.
        assert!(decode_frame(&bytes).is_err());
    }
}
