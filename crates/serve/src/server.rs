//! The coordinator: a single-threaded event loop owning the epoch
//! engine (policy, ledger, epoch cursor) and the client registry,
//! driven entirely by protocol frames (DESIGN.md row S15,
//! docs/SERVE.md).
//!
//! Epoch flow per selection: `SelectCohort{t}` advances the server's
//! [`Population`] to epoch `t` (one realization per epoch), builds the
//! context of the clients both available and in the live registry
//! ([`fedl_core::columnar::context_at`] — the runner's own path), has the
//! engine select, and answers with the cohort. The matching `TrainResult{t}` is validated
//! here — where the wire input arrives — and settles the engine,
//! closing the epoch. Because every input is either a pure function of
//! `(config, epoch)` or carried in a frame, the whole server is a
//! deterministic state machine — which is what makes the checkpoint /
//! restart bit-identity contract testable.

use std::path::{Path, PathBuf};

use fedl_core::columnar::context_at;
use fedl_core::engine::{EngineError, EpochEngine};
use fedl_core::policy::PolicyKind;
use fedl_core::FedLConfig;
use fedl_json::{ToJson, Value};
use fedl_net::LatencyModel;
use fedl_sim::{EnvConfig, EpochReport, Population};
use fedl_store::{content_address, read_checkpoint, write_checkpoint, StoreError};
use fedl_telemetry::Telemetry;

use crate::proto::{
    answer_hello, decode_frame_traced, encode_frame, encode_frame_traced, Message, ProtocolError,
    Trace,
};
use crate::transport::FrameTransport;

/// Envelope kind of a server checkpoint file.
pub const SERVE_CHECKPOINT_KIND: &str = "serve-checkpoint";

/// Version of the checkpoint payload layout; bump on incompatible
/// change so stale files fail loud. v2: same payload, but FedL's
/// decisions moved with the exact one-shot solve, so a v1 checkpoint must
/// be refused rather than resumed into a different trajectory.
pub const SERVE_SNAPSHOT_SCHEMA_VERSION: u32 = 2;

/// The deployment a server coordinates: the seeded client population
/// plus the selection problem (budget, floor, policy). Loadgen and
/// server must agree on all of it — the fingerprint in each checkpoint
/// and the determinism checks both hash this.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The columnar client population (sizes, seeds, heterogeneity).
    pub env: EnvConfig,
    /// Total rental budget `C`.
    pub budget: f64,
    /// Participation floor `n` per epoch.
    pub min_participants: usize,
    /// Selection policy to run.
    pub policy: PolicyKind,
    /// FedL hyper-parameters (ignored by the baselines).
    pub fedl: FedLConfig,
}

impl ServeConfig {
    /// A population of `num_clients` small-scenario clients under
    /// `seed`, with the given budget, floor, and policy.
    pub fn new(
        num_clients: usize,
        seed: u64,
        budget: f64,
        min_participants: usize,
        policy: PolicyKind,
    ) -> Self {
        Self {
            env: EnvConfig::small(num_clients, seed),
            budget,
            min_participants,
            policy,
            fedl: FedLConfig::default(),
        }
    }

    /// The latency model every context in this deployment uses.
    pub fn latency_model(&self) -> LatencyModel {
        LatencyModel::paper_defaults(self.env.upload_bits, 64.0)
    }

    /// Content address of the full deployment (population, budget,
    /// floor, policy, FedL hyper-parameters); a checkpoint resumes only
    /// into a server with the same fingerprint.
    pub fn fingerprint(&self) -> String {
        let key = format!(
            "fedl-serve v{SERVE_SNAPSHOT_SCHEMA_VERSION}\npolicy={}\nbudget={}\nn={}\nenv={}\nfedl={}",
            self.policy.label(),
            self.budget,
            self.min_participants,
            fedl_json::ToJson::to_json_value(&self.env).to_json(),
            self.fedl.to_json_value().to_json(),
        );
        content_address(key.as_bytes())
    }
}

/// What a handled frame asks the connection loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading frames.
    Continue,
    /// The peer asked for shutdown; leave the accept loop.
    Shutdown,
}

/// How a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeExit {
    /// A [`Message::Shutdown`] was served.
    Shutdown,
    /// The peer closed the stream at a frame boundary.
    PeerClosed,
}

/// Errors establishing or resuming a server (the protocol has its own
/// [`ProtocolError`]; this covers the checkpoint file path).
#[derive(Debug)]
pub enum ServeError {
    /// Reading or writing the checkpoint failed: the envelope, its stamp
    /// (another schema version or deployment), or a payload that does not
    /// fit this server.
    Store(StoreError),
    /// The epoch engine refused a snapshot while a selection awaits its
    /// `TrainResult`.
    Engine(EngineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "checkpoint store error: {e}"),
            ServeError::Engine(e) => write!(f, "checkpoint refused by the epoch engine: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// The coordinator's full state: the population, the live registry, and
/// the epoch engine (policy, ledger, epoch cursor, pending selection).
/// One instance serves any number of sequential connections;
/// [`Self::handle_frame`] is the entire event loop body.
pub struct ServerState {
    config: ServeConfig,
    population: Population,
    engine: EpochEngine,
    registered: Vec<bool>,
    /// How many of `registered` are `true`, kept by every write to it.
    registered_count: usize,
    selections: usize,
    telemetry: Telemetry,
    checkpoint: Option<(PathBuf, usize)>,
}

impl ServerState {
    /// A fresh server for `config`; nothing registered, epoch 0.
    pub fn new(config: ServeConfig, telemetry: Telemetry) -> Self {
        let population = Population::new(config.env.clone(), config.latency_model());
        let policy = config.policy.build(
            config.env.num_clients,
            config.budget,
            config.min_participants,
            config.fedl,
        );
        let mut engine = EpochEngine::new(policy, config.budget);
        engine.set_telemetry(telemetry.clone());
        let registered = vec![false; config.env.num_clients];
        telemetry.emit(
            "serve.start",
            vec![
                ("clients", Value::from(config.env.num_clients)),
                ("budget", Value::Float(config.budget)),
                ("min_participants", Value::from(config.min_participants)),
                ("policy", Value::from(config.policy.label())),
            ],
        );
        Self {
            config,
            population,
            engine,
            registered,
            registered_count: 0,
            selections: 0,
            telemetry,
            checkpoint: None,
        }
    }

    /// Enables checkpointing: the full server state lands in `path`
    /// after every `every`-th completed epoch (and on shutdown).
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint = Some((path.into(), every.max(1)));
        self
    }

    /// Restores a server from a checkpoint written by
    /// [`Self::save_checkpoint`]. The config must fingerprint-match the
    /// one that wrote the file; the restored server continues the run
    /// bit-identically.
    pub fn resume(
        config: ServeConfig,
        telemetry: Telemetry,
        path: &Path,
    ) -> Result<Self, ServeError> {
        let fingerprint = config.fingerprint();
        let ckpt = read_checkpoint(
            path,
            SERVE_CHECKPOINT_KIND,
            SERVE_SNAPSHOT_SCHEMA_VERSION,
            Some(&fingerprint),
        )?;
        let mut server = Self::new(config, telemetry);
        server.engine.restore(&ckpt.payload).map_err(|e| ckpt.schema(e))?;
        server.selections = ckpt.field("selections")?;
        for id in ckpt.field::<Vec<usize>>("registered")? {
            let slot = server.registered.get_mut(id);
            let slot =
                slot.ok_or_else(|| ckpt.schema(format!("registered id {id} out of range")))?;
            // A repeated id registers its client once.
            if !std::mem::replace(slot, true) {
                server.registered_count += 1;
            }
        }
        server.telemetry.emit(
            "serve.checkpoint_restored",
            vec![
                ("path", Value::from(path.display().to_string())),
                ("next_epoch", Value::from(server.next_epoch())),
            ],
        );
        Ok(server)
    }

    /// Writes the full server state (registry, ledger, epoch cursor,
    /// policy internals including RNG streams) to `path`. Refused with
    /// [`ServeError::Engine`] while a selection is awaiting its
    /// `TrainResult`: the server only checkpoints at epoch boundaries.
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), ServeError> {
        let [next_epoch, ledger, policy_state] = self.engine.snapshot()?;
        let joined: Vec<usize> =
            self.registered.iter().enumerate().filter(|(_, &r)| r).map(|(k, _)| k).collect();
        write_checkpoint(
            path,
            SERVE_CHECKPOINT_KIND,
            SERVE_SNAPSHOT_SCHEMA_VERSION,
            &self.config.fingerprint(),
            [
                next_epoch,
                ("selections", Value::from(self.selections)),
                ("registered", Value::Arr(joined.into_iter().map(Value::from).collect())),
                ledger,
                policy_state,
            ],
        )?;
        self.telemetry.emit(
            "serve.checkpoint_saved",
            vec![
                ("path", Value::from(path.display().to_string())),
                ("next_epoch", Value::from(self.next_epoch())),
            ],
        );
        Ok(())
    }

    /// The server's next epoch index.
    pub fn next_epoch(&self) -> usize {
        self.engine.next_epoch()
    }

    /// Number of currently registered clients.
    pub fn registered_count(&self) -> usize {
        self.registered_count
    }

    /// Cohort selections served so far.
    pub fn selections(&self) -> usize {
        self.selections
    }

    /// Epochs this server has realized ([`Population::realizations`]).
    pub fn realizations(&self) -> usize {
        self.population.realizations()
    }

    /// Records `err` and answers it on the wire; the connection stays up.
    fn refuse(&mut self, err: ProtocolError) -> (Message, Control) {
        self.note_malformed(&err);
        (err.to_wire(), Control::Continue)
    }

    /// Count of malformed frames seen (from the telemetry counter).
    pub fn malformed_frames(&self) -> u64 {
        self.telemetry.counter("serve.malformed_frames").value()
    }

    /// Writes the periodic checkpoint when the boundary just reached is
    /// a `--checkpoint-every` multiple — called after every closed
    /// epoch, whether it trained or was skipped for lack of clients.
    fn checkpoint_at_boundary(&mut self) {
        if let Some((path, every)) = self.checkpoint.clone() {
            if self.next_epoch().is_multiple_of(every) {
                self.save_or_report(&path, "checkpoint");
            }
        }
    }

    /// Saves to `path`; a failure is reported on stderr and as a
    /// `checkpoint.save_failed` event, and never stops the server.
    fn save_or_report(&self, path: &Path, what: &str) {
        if let Err(e) = self.save_checkpoint(path) {
            eprintln!("fedl-serve: {what} failed: {e}");
            self.telemetry.emit(
                "checkpoint.save_failed",
                vec![
                    ("path", Value::from(path.display().to_string())),
                    ("error", Value::from(e.to_string())),
                ],
            );
        }
    }

    fn snapshot_reply(&self) -> Message {
        Message::Snapshot {
            epoch: self.next_epoch(),
            registered: self.registered_count(),
            selections: self.selections,
            budget_remaining: self.engine.remaining(),
            policy: self.engine.policy().name().to_string(),
        }
    }

    /// Applies one decoded message; the returned message is the reply.
    pub fn handle_message(&mut self, msg: Message) -> (Message, Control) {
        match msg {
            Message::Hello { protocol_version, node: _ } => {
                match answer_hello(protocol_version, "fedl-serve") {
                    Ok(hello) => (hello, Control::Continue),
                    Err(err) => self.refuse(err),
                }
            }
            Message::ClientJoin { client } => self.set_registered(client, true),
            Message::ClientLeave { client } => self.set_registered(client, false),
            Message::SelectCohort { epoch, trace } => self.handle_select(epoch, trace),
            Message::TrainResult { epoch, cohort, iterations, feedback } => {
                self.handle_train_result(feedback.to_report(epoch, &cohort, iterations))
            }
            Message::Snapshot { .. } => (self.snapshot_reply(), Control::Continue),
            Message::Stats => {
                self.telemetry.counter("serve.stats_requests").incr();
                (
                    Message::StatsSnapshot { registry: self.telemetry.registry_snapshot() },
                    Control::Continue,
                )
            }
            Message::Shutdown => {
                if let Some((path, _)) = self.checkpoint.clone() {
                    if self.engine.pending().is_none() {
                        self.save_or_report(&path, "shutdown checkpoint");
                    } else {
                        // The server only checkpoints at epoch
                        // boundaries; make the skip loud so an operator
                        // never believes unsaved state was persisted.
                        eprintln!(
                            "fedl-serve: shutdown checkpoint skipped: epoch {} is awaiting its TrainResult",
                            self.next_epoch()
                        );
                        self.telemetry.emit(
                            "serve.checkpoint_skipped",
                            vec![
                                ("epoch", Value::from(self.next_epoch())),
                                ("reason", Value::from("awaiting-train-result")),
                            ],
                        );
                    }
                }
                self.telemetry.emit(
                    "serve.shutdown",
                    vec![
                        ("epoch", Value::from(self.next_epoch())),
                        ("selections", Value::from(self.selections)),
                    ],
                );
                self.telemetry.emit_metrics();
                self.telemetry.flush();
                (self.snapshot_reply(), Control::Shutdown)
            }
            // Server-only replies arriving as requests are protocol misuse.
            Message::Cohort { .. } | Message::StatsSnapshot { .. } | Message::Error { .. } => self
                .refuse(ProtocolError::UnexpectedMessage {
                    detail: "reply-only message sent as a request".to_string(),
                }),
            // The Shard* family belongs to the fedl-dist coordinator ↔
            // worker pairing (docs/DIST.md); the federation server is
            // neither side of it.
            Message::ShardAssign { .. }
            | Message::ShardReady { .. }
            | Message::ShardContext { .. }
            | Message::ShardContextPart { .. }
            | Message::ShardTrain { .. }
            | Message::ShardTrainPart { .. } => self.refuse(ProtocolError::UnexpectedMessage {
                detail: "shard messages are for dist workers, not the federation server"
                    .to_string(),
            }),
        }
    }

    /// Joins (`present`) or removes `client`; idempotent either way.
    fn set_registered(&mut self, client: usize, present: bool) -> (Message, Control) {
        if client >= self.registered.len() {
            let population = self.registered.len();
            return self.refuse(ProtocolError::UnknownClient { client, population });
        }
        if self.registered[client] != present {
            self.registered[client] = present;
            let (counter, event) = match present {
                true => {
                    self.registered_count += 1;
                    ("serve.joins", "serve.client_join")
                }
                false => {
                    self.registered_count -= 1;
                    ("serve.leaves", "serve.client_leave")
                }
            };
            self.telemetry.counter(counter).incr();
            self.telemetry.emit(event, vec![("client", Value::from(client))]);
        }
        (self.snapshot_reply(), Control::Continue)
    }

    fn handle_select(&mut self, epoch: usize, trace: Trace) -> (Message, Control) {
        if trace == Trace::Invalid {
            // A garbled trace context never fails the request it rides
            // on — selection must not depend on observability metadata.
            self.telemetry.counter("proto.bad_trace_ids").incr();
        }
        if epoch != self.next_epoch() {
            return self
                .refuse(ProtocolError::BadEpoch { expected: self.next_epoch(), got: epoch });
        }
        if self.engine.pending().is_some() {
            return self.refuse(ProtocolError::UnexpectedMessage {
                detail: format!("epoch {epoch} already selected; send its TrainResult first"),
            });
        }
        if self.engine.exhausted() {
            return (
                Message::Cohort { epoch, cohort: Vec::new(), iterations: 0, done: true },
                Control::Continue,
            );
        }
        let mut span = self.telemetry.span_in("serve.select", trace.to_context());
        span.field("epoch", Value::from(epoch));
        let ctx = context_at(
            &mut self.population,
            epoch,
            Some(&self.registered),
            self.engine.remaining(),
            self.config.min_participants,
        );
        let available = ctx.as_ref().map_or(0, |ctx| ctx.available.len());
        let selected =
            self.engine.select(ctx).expect("epoch, idleness and budget were checked above");
        drop(span);
        let Some((cohort, iterations)) = selected else {
            // Nobody available: the epoch passes with no training, same
            // as the runner skipping it.
            self.checkpoint_at_boundary();
            return (
                Message::Cohort { epoch, cohort: Vec::new(), iterations: 0, done: false },
                Control::Continue,
            );
        };
        self.telemetry.counter("serve.selections").incr();
        self.telemetry.emit(
            "serve.select",
            vec![
                ("epoch", Value::from(epoch)),
                ("cohort_size", Value::from(cohort.len())),
                ("iterations", Value::from(iterations)),
                ("available", Value::from(available)),
            ],
        );
        (Message::Cohort { epoch, cohort, iterations, done: false }, Control::Continue)
    }

    /// Settles the engine with a `TrainResult`'s report. The engine
    /// decides whether it fits the pending selection; a refusal goes back
    /// as `bad-epoch` for the wrong epoch, `unexpected-message` otherwise,
    /// and leaves the epoch open.
    fn handle_train_result(&mut self, report: EpochReport) -> (Message, Control) {
        let epoch = report.epoch;
        if let Err(refused) = self.engine.settle(&report) {
            return self.refuse(match refused {
                EngineError::WrongEpoch { expected, got } => {
                    ProtocolError::BadEpoch { expected, got }
                }
                other => ProtocolError::UnexpectedMessage {
                    detail: format!("TrainResult for epoch {epoch} refused: {other}"),
                },
            });
        }
        self.selections += 1;
        self.telemetry.counter("serve.train_results").incr();
        self.telemetry.emit(
            "serve.train_result",
            vec![
                ("epoch", Value::from(epoch)),
                ("cost", Value::Float(report.cost)),
                ("remaining", Value::Float(self.engine.remaining())),
            ],
        );
        self.checkpoint_at_boundary();
        (self.snapshot_reply(), Control::Continue)
    }
}

/// A frame-driven state machine behind [`serve_frames`]: this server and
/// the `fedl-dist` shard worker.
pub trait FrameHandler {
    /// Handles one raw frame: the encoded reply and whether to go on.
    fn handle_frame(&mut self, frame: &[u8]) -> (Vec<u8>, Control);

    /// Records a framing error that ends the connection.
    fn note_malformed(&mut self, err: &ProtocolError);

    /// Runs after each reply has been sent and its buffer dropped, before
    /// the next blocking receive: work done here overlaps the peer's own.
    /// Over a [`TcpTransport`](crate::transport::TcpTransport) the reply
    /// is on the wire by then unless the peer's next frame is already
    /// buffered (a pipelined window): such a reply waits, with the rest
    /// of the window's answers, until the last of them is sent, and
    /// work done here delays it. A lock-step peer, like the `fedl-dist`
    /// coordinator, never leaves a frame buffered behind its request.
    /// Nothing by default.
    fn idle(&mut self) {}
}

impl FrameHandler for ServerState {
    /// Handles one raw frame: decode, dispatch, encode the reply.
    /// Malformed frames never panic — they produce a wire
    /// [`Message::Error`] and bump the `serve.malformed_frames`
    /// counter, mirroring the run log's lenient parsing.
    fn handle_frame(&mut self, frame: &[u8]) -> (Vec<u8>, Control) {
        self.telemetry.counter("serve.frames_in").incr();
        let (decoded, _decode_ns) = decode_frame_traced(frame, &self.telemetry);
        let (reply, control) = match decoded {
            Ok(msg) => self.handle_message(msg),
            Err(err) => self.refuse(err),
        };
        self.telemetry.counter("serve.frames_out").incr();
        let (bytes, _encode_ns) = encode_frame_traced(&reply, &self.telemetry);
        (bytes, control)
    }

    /// Records a frame that failed decoding or framing.
    fn note_malformed(&mut self, err: &ProtocolError) {
        self.telemetry.counter("serve.malformed_frames").incr();
        self.telemetry.emit(
            "serve.malformed_frame",
            vec![("code", Value::from(err.code())), ("detail", Value::from(err.to_string()))],
        );
    }
}

/// The connection loop of every [`FrameHandler`]: answer frames until
/// shutdown, clean close, or a framing error that desynchronizes the
/// stream (counted, reported to the peer best-effort, then surfaced).
/// Between a reply and the next receive the handler may work ahead
/// ([`FrameHandler::idle`]).
pub fn serve_frames(
    transport: &mut dyn FrameTransport,
    state: &mut impl FrameHandler,
) -> Result<ServeExit, ProtocolError> {
    loop {
        match transport.recv() {
            Ok(Some(frame)) => {
                let (reply, control) = state.handle_frame(&frame);
                transport.send(&reply)?;
                if control == Control::Shutdown {
                    return Ok(ServeExit::Shutdown);
                }
                drop((frame, reply));
                state.idle();
            }
            Ok(None) => return Ok(ServeExit::PeerClosed),
            Err(err) => {
                state.note_malformed(&err);
                let _ = transport.send(&encode_frame(&err.to_wire()));
                return Err(err);
            }
        }
    }
}

/// Serves one connection against `state` ([`serve_frames`]).
pub fn serve_connection(
    transport: &mut dyn FrameTransport,
    state: &mut ServerState,
) -> Result<ServeExit, ProtocolError> {
    serve_frames(transport, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::SynthResult;

    fn server(clients: usize, budget: f64) -> ServerState {
        let config = ServeConfig::new(clients, 11, budget, 3, PolicyKind::FedL);
        ServerState::new(config, Telemetry::in_memory().0)
    }

    /// Well-formed feedback for a cohort of `n`, as the load generator
    /// would send it with these three numbers.
    fn feedback(n: usize, cost: f64, latency_secs: f64, eta: f32) -> SynthResult {
        SynthResult {
            latency_secs,
            per_client_iter_latency: vec![0.1; n],
            cost,
            eta_hats: vec![eta; n],
            global_loss: 2.3,
            grad_dot_delta: vec![-0.1; n],
            local_losses: vec![2.3; n],
        }
    }

    fn expect_cohort(reply: Message) -> (Vec<usize>, usize, bool) {
        match reply {
            Message::Cohort { cohort, iterations, done, .. } => (cohort, iterations, done),
            other => panic!("expected Cohort, got {other:?}"),
        }
    }

    #[test]
    fn join_select_train_advances_the_epoch() {
        let mut s = server(20, 500.0);
        for k in 0..20 {
            let (reply, _) = s.handle_message(Message::ClientJoin { client: k });
            assert!(matches!(reply, Message::Snapshot { .. }));
        }
        assert_eq!(s.registered_count(), 20);
        let (reply, _) = s.handle_message(Message::SelectCohort { epoch: 0, trace: Trace::Absent });
        let (cohort, iterations, done) = expect_cohort(reply);
        assert!(!done && !cohort.is_empty() && iterations >= 1);
        // Feed a train result for the served cohort.
        let n = cohort.len();
        let feedback = feedback(n, 5.0, 1.0, 0.5);
        let (reply, _) =
            s.handle_message(Message::TrainResult { epoch: 0, cohort, iterations, feedback });
        assert!(matches!(reply, Message::Snapshot { epoch: 1, .. }));
        assert_eq!(s.next_epoch(), 1);
        assert_eq!(s.selections(), 1);
    }

    #[test]
    fn empty_registry_skips_the_epoch() {
        let mut s = server(10, 100.0);
        let (reply, _) = s.handle_message(Message::SelectCohort { epoch: 0, trace: Trace::Absent });
        let (cohort, _, done) = expect_cohort(reply);
        assert!(cohort.is_empty() && !done);
        assert_eq!(s.next_epoch(), 1, "an empty epoch still passes");
    }

    #[test]
    fn protocol_misuse_is_refused_with_typed_errors() {
        let mut s = server(10, 100.0);
        let before = s.malformed_frames();
        let (reply, _) = s.handle_message(Message::SelectCohort { epoch: 5, trace: Trace::Absent });
        assert!(matches!(reply, Message::Error { ref code, .. } if code == "bad-epoch"));
        let (reply, _) = s.handle_message(Message::ClientJoin { client: 99 });
        assert!(matches!(reply, Message::Error { ref code, .. } if code == "unknown-client"));
        let (reply, _) = s.handle_message(Message::TrainResult {
            epoch: 0,
            cohort: vec![0],
            iterations: 1,
            feedback: feedback(1, 1.0, 0.1, 0.5),
        });
        assert!(matches!(reply, Message::Error { ref code, .. } if code == "unexpected-message"));
        assert_eq!(s.malformed_frames(), before + 3);
    }

    #[test]
    fn hostile_feedback_is_refused_not_charged() {
        let mut s = server(20, 500.0);
        for k in 0..20 {
            s.handle_message(Message::ClientJoin { client: k });
        }
        let (reply, _) = s.handle_message(Message::SelectCohort { epoch: 0, trace: Trace::Absent });
        let (cohort, iterations, _) = expect_cohort(reply);
        let n = cohort.len();
        let result = |cost: f64, latency: f64, eta: f32| Message::TrainResult {
            epoch: 0,
            cohort: cohort.clone(),
            iterations,
            feedback: feedback(n, cost, latency, eta),
        };
        // A negative or NaN cost must come back as a typed error — not
        // reach `BudgetLedger::charge` (which would panic) — and leave
        // the selection pending and the budget untouched.
        for hostile in [
            result(-1.0, 1.0, 0.5),
            result(f64::NAN, 1.0, 0.5),
            result(f64::INFINITY, 1.0, 0.5),
            result(5.0, f64::NAN, 0.5),
            result(5.0, 1.0, f32::NAN),
        ] {
            let (reply, control) = s.handle_message(hostile);
            assert!(
                matches!(reply, Message::Error { ref code, .. } if code == "unexpected-message"),
                "hostile feedback must be refused, got {reply:?}"
            );
            assert_eq!(control, Control::Continue);
        }
        // The engine's wrong-epoch refusal keeps its own wire code.
        let (reply, _) = s.handle_message(Message::TrainResult {
            epoch: 1,
            cohort: cohort.clone(),
            iterations,
            feedback: feedback(n, 5.0, 1.0, 0.5),
        });
        assert!(
            matches!(reply, Message::Error { ref code, .. } if code == "bad-epoch"),
            "{reply:?}"
        );
        let query = Message::Snapshot {
            epoch: 0,
            registered: 0,
            selections: 0,
            budget_remaining: 0.0,
            policy: String::new(),
        };
        let (reply, _) = s.handle_message(query);
        match reply {
            Message::Snapshot { budget_remaining, .. } => assert_eq!(budget_remaining, 500.0),
            other => panic!("expected Snapshot, got {other:?}"),
        }
        // The epoch is still open: well-formed feedback closes it.
        let (reply, _) = s.handle_message(result(5.0, 1.0, 0.5));
        assert!(matches!(reply, Message::Snapshot { epoch: 1, .. }));
        assert_eq!(s.selections(), 1);
    }

    #[test]
    fn skipped_epochs_still_hit_checkpoint_boundaries() {
        let dir = std::env::temp_dir().join("fedl_serve_server_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("skip_boundary.fedlstore");
        std::fs::remove_file(&ckpt).ok();
        let config = ServeConfig::new(10, 11, 100.0, 3, PolicyKind::FedL);
        // Nobody registered: every epoch skips, yet `--checkpoint-every 2`
        // boundaries crossed by skips must still land on disk.
        let mut s =
            ServerState::new(config.clone(), Telemetry::in_memory().0).with_checkpoint(&ckpt, 2);
        s.handle_message(Message::SelectCohort { epoch: 0, trace: Trace::Absent });
        assert!(!ckpt.exists(), "epoch 1 is not a boundary");
        s.handle_message(Message::SelectCohort { epoch: 1, trace: Trace::Absent });
        assert!(ckpt.exists(), "the skip that reaches epoch 2 must checkpoint");
        let resumed = ServerState::resume(config, Telemetry::in_memory().0, &ckpt).expect("resume");
        assert_eq!(resumed.next_epoch(), 2);
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn exhausted_budget_reports_done() {
        let mut s = server(10, 1e-9);
        for k in 0..10 {
            s.handle_message(Message::ClientJoin { client: k });
        }
        // The ledger only exhausts after a charge crosses it; force one
        // epoch through, then the next select must say done.
        let (reply, _) = s.handle_message(Message::SelectCohort { epoch: 0, trace: Trace::Absent });
        let (cohort, iterations, done) = expect_cohort(reply);
        assert!(!done);
        let n = cohort.len();
        let feedback = feedback(n, 10.0, 1.0, 0.5);
        s.handle_message(Message::TrainResult { epoch: 0, cohort, iterations, feedback });
        let (reply, _) = s.handle_message(Message::SelectCohort { epoch: 1, trace: Trace::Absent });
        let (_, _, done) = expect_cohort(reply);
        assert!(done);
    }

    /// Echoes each frame back, then works for 300 ms before it reads
    /// again, like a shard worker preparing its next context part.
    struct SlowIdle;

    impl FrameHandler for SlowIdle {
        fn handle_frame(&mut self, frame: &[u8]) -> (Vec<u8>, Control) {
            (frame.to_vec(), Control::Continue)
        }

        fn note_malformed(&mut self, _: &ProtocolError) {}

        fn idle(&mut self) {
            std::thread::sleep(std::time::Duration::from_millis(300));
        }
    }

    #[test]
    fn a_reply_is_on_the_wire_before_idle_starts() {
        use crate::transport::TcpTransport;
        use std::net::{TcpListener, TcpStream};
        use std::time::Duration;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        let server = std::thread::spawn(move || {
            let mut transport = TcpTransport::with_timeout(far, Some(Duration::from_secs(5)));
            serve_frames(&mut transport, &mut SlowIdle)
        });
        // Well inside the 300 ms `idle`: a reply held until the server's
        // next `recv` would surface here as a timeout.
        let mut client = TcpTransport::with_timeout(stream, Some(Duration::from_millis(150)));
        client.send(b"ping").unwrap();
        assert_eq!(client.recv().unwrap().as_deref(), Some(&b"ping"[..]));
        drop(client);
        assert!(matches!(server.join().unwrap(), Ok(ServeExit::PeerClosed)));
    }
}
