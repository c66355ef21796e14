//! The replay load generator and the in-process reference driver.
//!
//! The load generator joins every client of a seeded scenario over one
//! connection, then drives `SelectCohort` → train → `TrainResult`
//! epochs, timing sustained selections/sec. Training feedback is
//! *synthesized deterministically* from the scenario seed
//! ([`member_feedback`] folded by [`combine_feedback`]): latencies and
//! costs come from the same columnar epoch realizations the server
//! prices with, and the learning signals from per-client seeded streams — so an in-process run of the
//! identical policy over the identical contexts ([`reference_run`])
//! must reproduce the served selections bit-for-bit. That equality is
//! the protocol's determinism contract (docs/SERVE.md) and is enforced
//! by `--verify-reference`, the determinism tests, and the `serve` CI
//! stage.

use std::time::Instant;

use fedl_core::columnar::context_at;
use fedl_core::engine::EpochEngine;
use fedl_json::{obj, Value};
use fedl_linalg::par::det_sum;
use fedl_linalg::rng::{rng_for, Rng};
use fedl_net::{ChannelModel, LatencyModel};
use fedl_sim::{nominal_latency, ClientColumns, EpochColumns, EpochReport, Population};

use crate::proto::{decode_frame, encode_frame, Message, ProtocolError, PROTOCOL_VERSION};
use crate::server::ServeConfig;
use crate::transport::FrameTransport;

/// One served (or reference) selection, the unit the determinism
/// checks compare. Epochs where nobody was available appear with an
/// empty cohort so interrupted and uninterrupted runs stay aligned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Selected client ids (empty when the epoch was skipped).
    pub cohort: Vec<usize>,
    /// Iterations the cohort was asked to run.
    pub iterations: usize,
}

impl SelectionRecord {
    /// One compact JSON line (`{"epoch":..,"cohort":[..],"iterations":..}`),
    /// the loadgen `--out` format: concatenating the halves of an
    /// interrupted run must byte-compare equal to the full run's file.
    pub fn to_json_line(&self) -> String {
        obj(vec![
            ("epoch", Value::from(self.epoch)),
            ("cohort", Value::Arr(self.cohort.iter().map(|&k| Value::from(k)).collect())),
            ("iterations", Value::from(self.iterations)),
        ])
        .to_json()
    }
}

/// Deterministic synthetic training feedback for one epoch — what a
/// [`Message::TrainResult`] carries.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthResult {
    /// Per-iteration latency of each cohort client (cohort order).
    pub per_client_iter_latency: Vec<f64>,
    /// Wall-clock epoch latency: slowest client × iterations.
    pub latency_secs: f64,
    /// Total rental cost (sum of the epoch's realized prices).
    pub cost: f64,
    /// Seeded local accuracies in `(0, 1)`.
    pub eta_hats: Vec<f32>,
    /// Decaying global loss.
    pub global_loss: f64,
    /// Seeded first-order coefficients (negative: descent).
    pub grad_dot_delta: Vec<f32>,
    /// Seeded local losses around the decaying global loss.
    pub local_losses: Vec<f32>,
}

impl SynthResult {
    /// The [`EpochReport`] of this feedback for `cohort` — what the
    /// server settles a [`Message::TrainResult`] with, and what the
    /// reference driver settles directly.
    pub fn to_report(&self, epoch: usize, cohort: &[usize], iterations: usize) -> EpochReport {
        EpochReport {
            epoch,
            cohort: cohort.to_vec(),
            iterations,
            latency_secs: self.latency_secs,
            per_client_iter_latency: self.per_client_iter_latency.clone(),
            cost: self.cost,
            eta_hats: self.eta_hats.clone(),
            global_loss_all: self.global_loss,
            global_loss_selected: self.global_loss,
            grad_dot_delta: self.grad_dot_delta.clone(),
            local_losses: self.local_losses.clone(),
            failed: Vec::new(),
        }
    }
}

/// Per-member training feedback columns for one epoch, aligned with the
/// member list they were computed for — what a `fedl-dist` worker ships
/// for its shard's members (in a [`Message::ShardTrainPart`]) and what
/// [`combine_feedback`] folds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MemberFeedback {
    /// Per-iteration latency of each member.
    pub per_client_iter_latency: Vec<f64>,
    /// The epoch's realized rent of each member.
    pub costs: Vec<f64>,
    /// Seeded local accuracies in `(0, 1)`.
    pub eta_hats: Vec<f32>,
    /// Seeded first-order coefficients (negative: descent).
    pub grad_dot_delta: Vec<f32>,
    /// Seeded local losses around the decaying global loss.
    pub local_losses: Vec<f32>,
}

impl MemberFeedback {
    /// Appends `next`'s members after this one's (the coordinator's
    /// shard-order concatenation).
    pub fn extend(&mut self, next: MemberFeedback) {
        self.per_client_iter_latency.extend(next.per_client_iter_latency);
        self.costs.extend(next.costs);
        self.eta_hats.extend(next.eta_hats);
        self.grad_dot_delta.extend(next.grad_dot_delta);
        self.local_losses.extend(next.local_losses);
    }
}

/// The feedback of `members` for the epoch realized in `now`: latency
/// (under the nominal share of `min_participants`) and rent from the
/// realization, learning signals from per-client seeded streams
/// ([`synth_learning_signals`]). Every value depends on its own client
/// only, so a worker computing its shard's members produces exactly the
/// columns a single process would — every driver (loadgen, reference,
/// workers, tests) produces identical bytes.
pub fn member_feedback(
    cols: &ClientColumns,
    now: &EpochColumns,
    latency: &LatencyModel,
    min_participants: usize,
    members: &[usize],
) -> MemberFeedback {
    let share = min_participants.max(1);
    let mut feedback = MemberFeedback {
        per_client_iter_latency: nominal_latency(cols, now, latency, share, members),
        costs: members.iter().map(|&k| now.cost[k]).collect(),
        ..Default::default()
    };
    for &k in members {
        let (eta, grad, loss) = synth_learning_signals(cols.seed[k], now.epoch);
        feedback.eta_hats.push(eta);
        feedback.grad_dot_delta.push(grad);
        feedback.local_losses.push(loss);
    }
    feedback
}

/// Synthesizes the cohort's training feedback for `epoch` from a fresh
/// realization — the one-shot form of what [`run_loadgen`] and
/// [`reference_run`] compute from the population they hold.
pub fn synth_train_result(
    cols: &ClientColumns,
    config: &ServeConfig,
    channel: &ChannelModel,
    latency: &LatencyModel,
    epoch: usize,
    cohort: &[usize],
    iterations: usize,
) -> SynthResult {
    let now = cols.epoch_columns(epoch, &config.env, channel);
    combine_feedback(
        epoch,
        iterations,
        member_feedback(cols, &now, latency, config.min_participants, cohort),
    )
}

/// [`synth_train_result`] from the holder's own window: the epoch the
/// cohort was just selected for is already realized there.
fn synth_from(
    population: &mut Population,
    min_participants: usize,
    epoch: usize,
    cohort: &[usize],
    iterations: usize,
) -> SynthResult {
    let lent = population.advance(epoch);
    combine_feedback(
        epoch,
        iterations,
        member_feedback(lent.cols, lent.now, lent.latency, min_participants, cohort),
    )
}

/// One client's synthetic learning signals for `epoch` — `(η̂, J·d_k,
/// local loss)` drawn from `rng_for(seed_k, 0x5E7E_0000 ^ t)` in stream
/// order. A pure function of `(seed_k, epoch)`.
pub fn synth_learning_signals(seed_k: u64, epoch: usize) -> (f32, f32, f32) {
    let decay = 0.97f64.powi(epoch as i32);
    let base_loss = (10.0f64).ln();
    let mut rng = rng_for(seed_k, 0x5E7E_0000 ^ epoch as u64);
    let eta = (0.05 + 0.9 * rng.next_f64()) as f32;
    let grad = -((0.05 + 0.45 * rng.next_f64()) * decay) as f32;
    let loss = (base_loss * (0.85 + 0.3 * rng.next_f64()) * decay) as f32;
    (eta, grad, loss)
}

/// Folds per-member feedback columns (cohort order) into the epoch's
/// [`SynthResult`] — the one place the scalar combination lives, shared
/// by the single-process drivers and the `fedl-dist` coordinator's
/// shard-order merge so both produce identical bits. The cost fold uses
/// [`det_sum`]'s fixed-chunk association (bit-identical to the plain
/// left fold for cohorts up to `DET_CHUNK`, and shard-count-independent
/// beyond it); the latency fold is a max, associative outright.
pub fn combine_feedback(epoch: usize, iterations: usize, members: MemberFeedback) -> SynthResult {
    let slowest = members.per_client_iter_latency.iter().fold(0.0f64, |a, &b| a.max(b));
    let cost = det_sum(0.0, members.costs.len(), |i| members.costs[i]);
    let decay = 0.97f64.powi(epoch as i32);
    let base_loss = (10.0f64).ln();
    SynthResult {
        latency_secs: slowest * iterations as f64,
        per_client_iter_latency: members.per_client_iter_latency,
        cost,
        eta_hats: members.eta_hats,
        global_loss: base_loss * decay,
        grad_dot_delta: members.grad_dot_delta,
        local_losses: members.local_losses,
    }
}

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Selection epochs to drive.
    pub epochs: usize,
    /// First epoch to request (non-zero when resuming a served run).
    pub start_epoch: usize,
    /// Send [`Message::Shutdown`] when done.
    pub shutdown: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self { epochs: 10, start_epoch: 0, shutdown: false }
    }
}

/// What a load-generator run produced.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// One record per driven epoch, in order.
    pub selections: Vec<SelectionRecord>,
    /// Simulated clients joined.
    pub clients: usize,
    /// Wall-clock seconds spent in the selection/train loop (joins and
    /// handshake excluded).
    pub elapsed_secs: f64,
    /// `true` when the server reported budget exhaustion.
    pub done: bool,
}

impl LoadgenReport {
    /// Sustained selection throughput over the epoch loop.
    pub fn selections_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.selections.len() as f64 / self.elapsed_secs
        } else {
            f64::INFINITY
        }
    }
}

/// `ClientJoin`s sent before their replies are read. Only the requests
/// of a window must fit the smallest socket send buffer (Linux starts a
/// connection's at 16 KB): the loadgen reads every reply after its
/// writes, so while those writes cannot block, the server's replies,
/// however far they back up, are always drained. 64 joins of ≈ 90 bytes
/// are ≈ 6 KB. 128 (≈ 12 KB) would fit too, but read no lower once
/// `TcpTransport` groups a window's frames into a few writes.
const JOIN_WINDOW: usize = 64;

/// Receives and decodes the next reply; a wire [`Message::Error`] comes
/// back as the matching [`ProtocolError`] text.
fn read_reply(transport: &mut dyn FrameTransport) -> Result<Message, ProtocolError> {
    match transport.recv()? {
        Some(frame) => match decode_frame(&frame)? {
            Message::Error { code, detail } => Err(ProtocolError::UnexpectedMessage {
                detail: format!("server refused ({code}): {detail}"),
            }),
            reply => Ok(reply),
        },
        None => Err(ProtocolError::Io { detail: "server closed mid-request".into() }),
    }
}

/// Sends one request and reads its reply ([`read_reply`]).
fn rpc(transport: &mut dyn FrameTransport, msg: &Message) -> Result<Message, ProtocolError> {
    transport.send(&encode_frame(msg))?;
    read_reply(transport)
}

/// The server's `Snapshot` acknowledgement of a `what` request.
fn expect_ack(reply: Message, what: &str) -> Result<(), ProtocolError> {
    match reply {
        Message::Snapshot { .. } => Ok(()),
        other => Err(ProtocolError::UnexpectedMessage {
            detail: format!("expected Snapshot {what} ack, got {other:?}"),
        }),
    }
}

/// Replays the scenario's client population against a server:
/// handshake, join everyone (pipelined, a fixed window of joins at a
/// time), then drive `opts.epochs` selection epochs with deterministic
/// synthetic training feedback.
pub fn run_loadgen(
    transport: &mut dyn FrameTransport,
    config: &ServeConfig,
    opts: &LoadgenOptions,
) -> Result<LoadgenReport, ProtocolError> {
    match rpc(
        transport,
        &Message::Hello { protocol_version: PROTOCOL_VERSION, node: "loadgen".to_string() },
    )? {
        Message::Hello { protocol_version: PROTOCOL_VERSION, .. } => {}
        Message::Hello { protocol_version, .. } => {
            return Err(ProtocolError::Version { ours: PROTOCOL_VERSION, theirs: protocol_version })
        }
        other => {
            return Err(ProtocolError::UnexpectedMessage {
                detail: format!("expected Hello, got {other:?}"),
            })
        }
    }
    let mut population = Population::new(config.env.clone(), config.latency_model());
    // Joins go out a window at a time, their replies read in order after
    // it: one wake-up per window, not one round trip per client.
    let clients = config.env.num_clients;
    for first in (0..clients).step_by(JOIN_WINDOW) {
        let window = first..clients.min(first + JOIN_WINDOW);
        for client in window.clone() {
            transport.send(&encode_frame(&Message::ClientJoin { client }))?;
        }
        for _ in window {
            expect_ack(read_reply(transport)?, "join")?;
        }
    }
    let mut selections = Vec::with_capacity(opts.epochs);
    let mut done = false;
    let started = Instant::now();
    for epoch in opts.start_epoch..opts.start_epoch + opts.epochs {
        let reply =
            rpc(transport, &Message::SelectCohort { epoch, trace: crate::proto::Trace::Absent })?;
        let Message::Cohort { epoch: got, cohort, iterations, done: exhausted } = reply else {
            return Err(ProtocolError::UnexpectedMessage {
                detail: format!("expected Cohort, got {reply:?}"),
            });
        };
        if got != epoch {
            return Err(ProtocolError::BadEpoch { expected: epoch, got });
        }
        if exhausted {
            done = true;
            break;
        }
        if cohort.is_empty() {
            selections.push(SelectionRecord { epoch, cohort, iterations: 0 });
            continue;
        }
        let synth =
            synth_from(&mut population, config.min_participants, epoch, &cohort, iterations);
        let result =
            Message::TrainResult { epoch, cohort: cohort.clone(), iterations, feedback: synth };
        expect_ack(rpc(transport, &result)?, "train")?;
        selections.push(SelectionRecord { epoch, cohort, iterations });
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    if opts.shutdown {
        expect_ack(rpc(transport, &Message::Shutdown)?, "shutdown")?;
    }
    Ok(LoadgenReport { selections, clients: config.env.num_clients, elapsed_secs, done })
}

/// Drives the identical policy over the identical contexts *without*
/// the server or protocol: the in-process baseline a served run must
/// match bit-for-bit. All clients count as registered, matching a
/// loadgen that joined the full population.
pub fn reference_run(config: &ServeConfig, epochs: usize) -> Vec<SelectionRecord> {
    let mut population = Population::new(config.env.clone(), config.latency_model());
    // Untracked build: regret accounting never feeds back into
    // selections, and the reference exists only to pin selection bytes.
    let policy = config.policy.build_untracked(
        config.env.num_clients,
        config.budget,
        config.min_participants,
        config.fedl,
    );
    let mut engine = EpochEngine::new(policy, config.budget);
    let mut records = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        if engine.exhausted() {
            break;
        }
        let ctx =
            context_at(&mut population, epoch, None, engine.remaining(), config.min_participants);
        let selected = engine.select(ctx).expect("the loop settles every epoch it selects");
        let Some((cohort, iterations)) = selected else {
            records.push(SelectionRecord { epoch, cohort: Vec::new(), iterations: 0 });
            continue;
        };
        let synth =
            synth_from(&mut population, config.min_participants, epoch, &cohort, iterations);
        engine.settle(&synth.to_report(epoch, &cohort, iterations)).expect("selected just above");
        records.push(SelectionRecord { epoch, cohort, iterations });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerState;
    use crate::transport::InProcessTransport;
    use fedl_core::policy::PolicyKind;
    use fedl_telemetry::Telemetry;

    #[test]
    fn served_selections_match_the_reference_bit_for_bit() {
        let config = ServeConfig::new(60, 17, 400.0, 4, PolicyKind::FedL);
        let mut server = ServerState::new(config.clone(), Telemetry::in_memory().0);
        let mut transport = InProcessTransport::new(&mut server);
        let opts = LoadgenOptions { epochs: 8, ..Default::default() };
        let served = run_loadgen(&mut transport, &config, &opts).expect("loadgen should succeed");
        assert_eq!(served.selections.len(), 8, "budget 400 comfortably covers 8 epochs");
        assert!(served.selections.iter().any(|r| !r.cohort.is_empty()));
        let reference = reference_run(&config, 8);
        assert_eq!(served.selections, reference);
    }

    #[test]
    fn baseline_policies_also_match() {
        for policy in [PolicyKind::FedAvg, PolicyKind::PowD] {
            let config = ServeConfig::new(30, 5, 300.0, 3, policy);
            let mut server = ServerState::new(config.clone(), Telemetry::disabled());
            let mut transport = InProcessTransport::new(&mut server);
            let opts = LoadgenOptions { epochs: 5, ..Default::default() };
            let served = run_loadgen(&mut transport, &config, &opts).unwrap();
            assert_eq!(served.selections, reference_run(&config, 5), "{policy:?}");
        }
    }

    #[test]
    fn synth_feedback_is_deterministic() {
        let config = ServeConfig::new(20, 3, 100.0, 2, PolicyKind::FedL);
        let channel = ChannelModel::default();
        let latency = config.latency_model();
        let cols = ClientColumns::build(&config.env, &channel);
        let cohort = vec![1, 5, 9];
        let a = synth_train_result(&cols, &config, &channel, &latency, 2, &cohort, 3);
        let b = synth_train_result(&cols, &config, &channel, &latency, 2, &cohort, 3);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.eta_hats, b.eta_hats);
        assert_eq!(a.per_client_iter_latency, b.per_client_iter_latency);
    }
}
