//! What the served and the distributed workloads share: the frame
//! vocabulary of the wire taps, loopback plumbing, and the in-process
//! replay that splits `core.*` for paths whose policy lives inside
//! `ServerState` / `Coordinator`.

use std::net::{TcpListener, TcpStream};

use fedl::core::columnar::scale_context;
use fedl::net::ChannelModel;
use fedl::serve::proto::Message;
use fedl::serve::{
    reference_run, sanitize_decision, synth_train_result, SelectionRecord, ServeConfig,
    TcpTransport,
};
use fedl::sim::{BudgetLedger, ClientColumns};

use super::{digest_lines, UnitResult};
use crate::decider::{Captured, Decider};
use crate::span::Tracer;

/// One served or distributed deployment and how many epochs a unit
/// drives it for.
pub struct PlaneSpec {
    pub config: ServeConfig,
    pub epochs: usize,
}

/// The checks every served or distributed unit gets: all epochs ran,
/// and no cohort fell below the participation floor.
pub fn check_selections(
    spec: &PlaneSpec,
    selections: &[SelectionRecord],
    done_early: bool,
    unit: &mut UnitResult,
) {
    if done_early || selections.len() != spec.epochs {
        unit.fail_unit(format!(
            "ran {} of {} epochs (budget exhausted: {done_early})",
            selections.len(),
            spec.epochs
        ));
    }
    let n = spec.config.min_participants;
    let short = selections.iter().filter(|r| r.cohort.len() < n).count() as u64;
    unit.fail_epochs(short, format!("{short} cohorts smaller than the floor {n}"));
}

/// The selections must equal `reference_run` of this commit.
pub fn check_reference(spec: &PlaneSpec, selections: &[SelectionRecord], unit: &mut UnitResult) {
    if selections != reference_run(&spec.config, spec.epochs) {
        unit.fail_unit("selections differ from reference_run".to_string());
    }
}

/// The frame kinds the taps tell apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    Join,
    Select,
    Feedback,
    Shutdown,
    ShardContext,
    ShardTrain,
    Other,
}

impl FrameKind {
    pub fn of(msg: &Message) -> (FrameKind, Option<u64>) {
        match msg {
            Message::ClientJoin { .. } => (FrameKind::Join, None),
            Message::SelectCohort { epoch, .. } | Message::Cohort { epoch, .. } => {
                (FrameKind::Select, Some(*epoch as u64))
            }
            Message::TrainResult { epoch, .. } => (FrameKind::Feedback, Some(*epoch as u64)),
            Message::Shutdown => (FrameKind::Shutdown, None),
            Message::ShardContext { epoch, .. } | Message::ShardContextPart { epoch, .. } => {
                (FrameKind::ShardContext, Some(*epoch as u64))
            }
            Message::ShardTrain { epoch, .. } | Message::ShardTrainPart { epoch, .. } => {
                (FrameKind::ShardTrain, Some(*epoch as u64))
            }
            _ => (FrameKind::Other, None),
        }
    }
}

/// A listener on an ephemeral loopback port and its address.
pub fn loopback_listener() -> (TcpListener, std::net::SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind succeeds");
    let addr = listener.local_addr().expect("a bound listener has an address");
    (listener, addr)
}

/// Accepts the one connection a unit makes.
pub fn accept_one(listener: &TcpListener) -> TcpTransport {
    let (stream, _) = listener.accept().expect("the harness connects to its own listener");
    TcpTransport::new(stream)
}

pub fn connect(addr: std::net::SocketAddr) -> TcpTransport {
    TcpTransport::new(TcpStream::connect(addr).expect("the listener is already bound"))
}

pub fn selections_digest(records: &[SelectionRecord]) -> u64 {
    let lines: Vec<String> = records.iter().map(SelectionRecord::to_json_line).collect();
    digest_lines(lines.iter().map(String::as_str))
}

/// Drives the deployment's epochs in-process with the decomposed policy, one
/// span per layer — the body of `fedl::serve::reference_run` with
/// `select_for_epoch` unfolded so realization, context assembly and the
/// policy's own steps are timed apart. `tracked` follows the path being
/// explained: `ServerState` tracks regret, `Coordinator` does not. The
/// returned selections must equal the served or distributed run's; with
/// them comes the problem FedL posed at the middle epoch, for the
/// solver probes.
pub fn replay(
    spec: &PlaneSpec,
    tracked: bool,
    tr: &mut Tracer,
) -> (Vec<SelectionRecord>, Option<Captured>) {
    let (config, epochs) = (&spec.config, spec.epochs);
    let channel = ChannelModel::default();
    let latency = config.latency_model();
    let cols = ClientColumns::build(&config.env, &channel);
    let mut decider = Decider::new(
        config.policy,
        config.env.num_clients,
        config.budget,
        config.min_participants,
        config.fedl,
        tracked,
    );
    let mut ledger = BudgetLedger::new(config.budget);
    let mut records = Vec::with_capacity(epochs);
    let mut captured = None;
    for epoch in 0..epochs {
        if ledger.exhausted() {
            break;
        }
        let e = epoch as u64;
        let span = tr.open("replay.epoch", None, Some(e));
        let id = span.id;
        // Everyone is registered, so the registry mask is the identity.
        let (now, hint) = tr.time("sim.realize", Some(id), Some(e), || {
            let now = cols.epoch_columns(epoch, &config.env, &channel);
            let hint = match epoch {
                0 => now.clone(),
                _ => cols.epoch_columns(epoch - 1, &config.env, &channel),
            };
            (now, hint)
        });
        let ctx = tr.time("core.assemble_context", Some(id), Some(e), || {
            scale_context(
                &cols,
                &hint,
                &now,
                &latency,
                ledger.remaining(),
                config.min_participants,
                config.env.seed,
            )
        });
        let Some(ctx) = ctx else {
            records.push(SelectionRecord { epoch, cohort: Vec::new(), iterations: 0 });
            continue;
        };
        let decision = decider.select(&ctx, tr, id, e);
        if epoch == epochs / 2 {
            captured = decider.fedl().map(|parts| parts.captured());
        }
        let (cohort, iterations) = sanitize_decision(&ctx, decision.cohort, decision.iterations);
        let synth =
            synth_train_result(&cols, config, &channel, &latency, epoch, &cohort, iterations);
        ledger.charge(synth.cost);
        decider.observe(&ctx, &synth.to_report(epoch, &cohort, iterations), tr, id, e);
        records.push(SelectionRecord { epoch, cohort, iterations });
        tr.close(span);
    }
    (records, captured)
}
