//! Registry churn: a client that leaves and later rejoins is masked out
//! of exactly the epochs in between, and nothing else moves. The served
//! selections are compared with an engine fed contexts built the long
//! way — fresh realizations of epochs `t−1` and `t`, the registry mask
//! applied to a copy of the availability column — so a server whose
//! window handed out a stale or masked epoch selects differently here.

use fedl_core::columnar::scale_context;
use fedl_core::engine::EpochEngine;
use fedl_core::policy::PolicyKind;
use fedl_net::ChannelModel;
use fedl_serve::{synth_train_result, Message, ServeConfig, ServerState, Trace};
use fedl_sim::ClientColumns;
use fedl_telemetry::Telemetry;

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
