//! Registry churn: a client that leaves and later rejoins is masked out
//! of exactly the epochs in between, and nothing else moves. The served
//! selections are compared with an engine fed contexts built the long
//! way — fresh realizations of epochs `t−1` and `t`, the registry mask
//! applied to a copy of the availability column — so a server whose
//! window handed out a stale or masked epoch selects differently here.
//! The registry's held count is checked against a scan of it after
//! every step of a seeded churn, and across a save and a resume.

use fedl_core::columnar::scale_context;
use fedl_core::engine::EpochEngine;
use fedl_core::policy::PolicyKind;
use fedl_json::Value;
use fedl_linalg::rng::{rng_for, Rng};
use fedl_net::ChannelModel;
use fedl_serve::{
    synth_train_result, Message, ServeConfig, ServerState, Trace, SERVE_CHECKPOINT_KIND,
};
use fedl_sim::ClientColumns;
use fedl_store::{read_envelope, write_envelope};
use fedl_telemetry::Telemetry;
use std::fs;
use std::path::PathBuf;

const EPOCHS: usize = 8;
const LEAVES_BEFORE: usize = 3;
const REJOINS_BEFORE: usize = 5;

#[test]
fn a_client_that_leaves_and_rejoins_is_absent_from_exactly_the_epochs_between() {
    let config = ServeConfig::new(40, 21, 100_000.0, 3, PolicyKind::FedL);
    let channel = ChannelModel::default();
    let latency = config.latency_model();
    let cols = ClientColumns::build(&config.env, &channel);
    let fresh = |epoch: usize| cols.epoch_columns(epoch, &config.env, &channel);

    // The churning client: one the time axis itself keeps available over
    // the whole stretch, so only the registry can remove it.
    let churner = (0..cols.len())
        .find(|&k| (LEAVES_BEFORE - 1..=REJOINS_BEFORE).all(|t| fresh(t).available[k]))
        .expect("some client is available on four consecutive epochs");

    let (telemetry, sink) = Telemetry::in_memory();
    let mut server = ServerState::new(config.clone(), telemetry);
    for client in 0..cols.len() {
        server.handle_message(Message::ClientJoin { client });
    }
    let policy = config.policy.build_untracked(cols.len(), config.budget, 3, config.fedl);
    let mut reference = EpochEngine::new(policy, config.budget);
    let mut registered = vec![true; cols.len()];

    let mut offered = Vec::new();
    for epoch in 0..EPOCHS {
        if epoch == LEAVES_BEFORE {
            server.handle_message(Message::ClientLeave { client: churner });
            registered[churner] = false;
        }
        if epoch == REJOINS_BEFORE {
            server.handle_message(Message::ClientJoin { client: churner });
            registered[churner] = true;
        }

        let mut now = fresh(epoch);
        for (avail, &reg) in now.available.iter_mut().zip(&registered) {
            *avail &= reg;
        }
        let hint = fresh(epoch.saturating_sub(1));
        let ctx = scale_context(&cols, &hint, &now, &latency, reference.remaining(), 3, 21)
            .expect("forty clients: someone is always available");
        offered.push(ctx.available.clone());
        let (want_cohort, want_iterations) =
            reference.select(Some(ctx)).expect("idle and within budget").expect("someone selected");

        let (reply, _) =
            server.handle_message(Message::SelectCohort { epoch, trace: Trace::Absent });
        let Message::Cohort { cohort, iterations, done: false, .. } = reply else {
            panic!("epoch {epoch}: expected a cohort, got {reply:?}");
        };
        assert_eq!((&cohort, iterations), (&want_cohort, want_iterations), "epoch {epoch}");

        let synth =
            synth_train_result(&cols, &config, &channel, &latency, epoch, &cohort, iterations);
        reference.settle(&synth.to_report(epoch, &cohort, iterations)).expect("selected above");
        let (ack, _) = server.handle_message(Message::TrainResult {
            epoch,
            cohort,
            iterations,
            feedback: synth,
        });
        assert!(matches!(ack, Message::Snapshot { .. }), "epoch {epoch}: {ack:?}");
    }

    // Absent from exactly the two epochs between leave and rejoin...
    let absent: Vec<usize> = (0..EPOCHS).filter(|&t| !offered[t].contains(&churner)).collect();
    let realized_off: Vec<usize> = (0..EPOCHS).filter(|&t| !fresh(t).available[churner]).collect();
    let mut expected = vec![LEAVES_BEFORE, LEAVES_BEFORE + 1];
    expected.extend(realized_off);
    expected.sort_unstable();
    expected.dedup();
    assert_eq!(absent, expected);
    // ...and the server offered its policy exactly as many clients as the
    // fresh masked contexts held, epoch by epoch.
    let served: Vec<usize> = sink
        .events()
        .expect("the in-memory log parses")
        .iter()
        .filter(|ev| ev.get("kind").and_then(|k| k.as_str()) == Some("serve.select"))
        .map(|ev| {
            ev.get("available").and_then(|a| a.as_i64()).expect("serve.select counts") as usize
        })
        .collect();
    assert_eq!(served, offered.iter().map(Vec::len).collect::<Vec<_>>());
    assert_eq!(server.realizations(), EPOCHS, "churn must not cost a realization");
}

/// The ids in a serve checkpoint's `registered` list: what
/// `save_checkpoint` found by scanning the registry.
fn saved_registry(path: &std::path::Path) -> Vec<Value> {
    let payload = read_envelope(path, SERVE_CHECKPOINT_KIND).expect("the checkpoint reads back");
    payload.get("registered").and_then(Value::as_arr).expect("a registered list").to_vec()
}

#[test]
fn the_held_registry_count_equals_a_scan_after_every_step() {
    const CLIENTS: usize = 24;
    let config = ServeConfig::new(CLIENTS, 3, 10_000.0, 2, PolicyKind::FedAvg);
    let dir = scratch_dir("held_count");
    let ckpt = dir.join("held_count.fedlstore");
    let (telemetry, _sink) = Telemetry::in_memory();
    let mut server = ServerState::new(config.clone(), telemetry.clone());
    let mut model = [false; CLIENTS];
    let (mut joins, mut leaves) = (0, 0);
    let mut rng = rng_for(0x5EED, 0xC0C0);
    for step in 0..300 {
        // Ids a few past the population are refused and change nothing;
        // a join of a present client (or a leave of an absent one) is a
        // repeat, acknowledged and not counted.
        let client = rng.gen_range(0..CLIENTS + 4);
        let join = rng.next_f64() < 0.6;
        let msg = match join {
            true => Message::ClientJoin { client },
            false => Message::ClientLeave { client },
        };
        let (reply, _) = server.handle_message(msg);
        match (model.get_mut(client), &reply) {
            (Some(present), Message::Snapshot { .. }) => {
                if *present != join {
                    *present = join;
                    if join {
                        joins += 1;
                    } else {
                        leaves += 1;
                    }
                }
            }
            (None, Message::Error { .. }) => {}
            _ => panic!("step {step}: client {client} answered with {reply:?}"),
        }
        server.save_checkpoint(&ckpt).expect("no epoch is pending");
        let scanned = saved_registry(&ckpt).len();
        assert_eq!(scanned, model.iter().filter(|&&p| p).count(), "step {step}");
        assert_eq!(server.registered_count(), scanned, "step {step}");
        if let Message::Snapshot { registered, .. } = reply {
            assert_eq!(registered, scanned, "step {step}: the reply's count");
        }
    }
    assert!(joins > 20 && leaves > 20, "the churn both joins and leaves ({joins}, {leaves})");
    assert_eq!(telemetry.counter("serve.joins").value(), joins);
    assert_eq!(telemetry.counter("serve.leaves").value(), leaves);

    // The count survives a save and a resume...
    let present = server.registered_count();
    server.save_checkpoint(&ckpt).unwrap();
    let resumed = ServerState::resume(config.clone(), Telemetry::disabled(), &ckpt).unwrap();
    assert_eq!(resumed.registered_count(), present);

    // ...and a checkpoint that lists an id twice registers it once.
    let mut payload = read_envelope(&ckpt, SERVE_CHECKPOINT_KIND).unwrap();
    let Value::Obj(fields) = &mut payload else { panic!("a checkpoint payload is an object") };
    let (_, Value::Arr(ids)) = fields.iter_mut().find(|(k, _)| k == "registered").unwrap() else {
        panic!("registered is a list");
    };
    let first = ids[0].clone();
    ids.extend([first.clone(), first]);
    write_envelope(&ckpt, SERVE_CHECKPOINT_KIND, &payload).unwrap();
    assert_eq!(saved_registry(&ckpt).len(), present + 2);
    let resumed = ServerState::resume(config, Telemetry::disabled(), &ckpt).unwrap();
    assert_eq!(resumed.registered_count(), present, "a repeated id counts once");
    fs::remove_dir_all(&dir).ok();
}

/// See docs/BUILD.md "Where tests live".
fn scratch_dir(test: &str) -> PathBuf {
    let binary = env!("CARGO_CRATE_NAME");
    let dir = std::env::temp_dir().join(format!("fedl-{binary}-{}-{test}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}
