//! The shard worker: a pure function of `(config, shard, epoch)`
//! behind the framed protocol.
//!
//! A worker owns one contiguous shard of the client population. On
//! [`Message::ShardAssign`] it builds a sharded [`Population`] and
//! answers every subsequent [`Message::ShardContext`] /
//! [`Message::ShardTrain`] from it, realizing only its shard's rows and
//! each epoch once ([`Population::advance`]: the context frame realizes
//! epoch `t`, the train frame finds it in the window) — no policy, no
//! ledger, no epoch cursor. Behind [`run_worker`] it also works ahead:
//! once the `ShardContextPart` for `t` is on the wire, it computes
//! `t+1`'s part while the coordinator decides epoch `t`, and
//! `ShardContext(t+1)` answers from it (docs/DIST.md, "Prefetch").
//! Statelessness is the whole fault-tolerance
//! story: the window is a cache of a pure function, never state;
//! a killed worker can be respawned and re-asked for any epoch's
//! partials and must produce the identical bytes, which is what lets
//! the coordinator recover mid-epoch without drift (docs/DIST.md).
//!
//! The only disk state is an S12-style shard checkpoint envelope
//! recording `(fingerprint, shard bounds, epochs served)`; a respawned
//! worker started with `--resume` refuses a [`Message::ShardAssign`]
//! that names a different deployment or shard, so an operator can never
//! silently splice a worker into the wrong federation.

use std::ops::Range;
use std::path::{Path, PathBuf};

use fedl_core::columnar::{scale_context_part, ContextPart};
use fedl_core::policy::PolicyKind;
use fedl_json::{FromJson, Record, Value};
use fedl_serve::proto::{
    answer_hello, check_shard_clients, decode_frame_traced, encode_frame_traced, Message,
    ProtocolError, Trace, PROTOCOL_VERSION,
};
use fedl_serve::transport::FrameTransport;
use fedl_serve::{member_feedback, serve_frames, Control, FrameHandler, ServeConfig, ServeExit};
use fedl_sim::Population;
use fedl_store::{read_checkpoint, write_checkpoint, StoreError};
use fedl_telemetry::Telemetry;

/// Envelope kind of a worker's shard checkpoint file.
pub const DIST_SHARD_CHECKPOINT_KIND: &str = "dist-shard-checkpoint";

/// Version of the shard checkpoint payload layout.
pub const DIST_SHARD_SCHEMA_VERSION: u32 = 1;

/// What a shard checkpoint records: enough to pin a respawned worker
/// to the deployment and shard it served before dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCheckpoint {
    /// [`ServeConfig::fingerprint`] of the assigned deployment.
    pub fingerprint: String,
    /// First owned client id (inclusive).
    pub shard_start: usize,
    /// One past the last owned client id (exclusive).
    pub shard_end: usize,
    /// Highest `epoch + 1` this worker has computed partials for.
    pub epochs_served: usize,
}

fedl_json::record!(ShardCheckpoint { fingerprint, shard_start, shard_end, epochs_served });

impl ShardCheckpoint {
    /// The record after its fingerprint, which the stamp writes.
    fn shard_fields(&self) -> impl Iterator<Item = (&'static str, Value)> {
        self.fields().into_iter().skip(1)
    }

    fn write(&self, path: &Path) -> Result<(), StoreError> {
        let (kind, version) = (DIST_SHARD_CHECKPOINT_KIND, DIST_SHARD_SCHEMA_VERSION);
        write_checkpoint(path, kind, version, &self.fingerprint, self.shard_fields())
    }

    /// The worker learns its deployment from the file: the stamp's
    /// fingerprint is read, not checked — a `ShardAssign` is checked
    /// against it.
    fn read(path: &Path) -> Result<Self, StoreError> {
        let ckpt =
            read_checkpoint(path, DIST_SHARD_CHECKPOINT_KIND, DIST_SHARD_SCHEMA_VERSION, None)?;
        Self::from_json_value(&ckpt.payload).map_err(|e| ckpt.schema(e))
    }
}

/// A live shard assignment: the deployment plus its population, sharded
/// to the assigned range. The population's realized-epoch window is
/// runtime-only — the shard checkpoint never records it, and a respawned
/// worker re-realizes whatever epoch it is asked for.
struct Assignment {
    config: ServeConfig,
    population: Population,
    /// What the shard checkpoint records of it.
    record: ShardCheckpoint,
    /// At most one context part computed ahead of its request, with its
    /// epoch — runtime-only, like the window.
    prepared: Option<(usize, ContextPart)>,
    /// The epoch [`FrameHandler::idle`] should prepare next.
    ahead: Option<usize>,
}

impl Assignment {
    /// This shard's context part of `epoch`, computed now.
    fn context_part(&mut self, epoch: usize) -> ContextPart {
        let shard = self.population.shard();
        let lent = self.population.advance(epoch);
        scale_context_part(
            lent.cols,
            lent.hint,
            lent.now,
            lent.latency,
            self.config.min_participants,
            shard,
            None,
        )
    }
}

/// The worker's event-loop state; [`Self::handle_frame`] is the entire
/// loop body, mirroring `fedl_serve::ServerState`.
pub struct WorkerState {
    assignment: Option<Assignment>,
    checkpoint: Option<PathBuf>,
    expected: Option<ShardCheckpoint>,
    telemetry: Telemetry,
}

impl WorkerState {
    /// A fresh, unassigned worker.
    pub fn new(telemetry: Telemetry) -> Self {
        Self { assignment: None, checkpoint: None, expected: None, telemetry }
    }

    /// Enables shard checkpointing: the `(fingerprint, shard, epochs)`
    /// envelope lands in `path` after every handled shard request.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// A respawned worker: loads the shard checkpoint at `path` and
    /// holds every future [`Message::ShardAssign`] to it — a mismatched
    /// fingerprint or shard is refused with a typed error instead of
    /// silently serving the wrong deployment. Checkpointing continues
    /// into the same path.
    pub fn resume(telemetry: Telemetry, path: &Path) -> Result<Self, StoreError> {
        let expected = ShardCheckpoint::read(path)?;
        let at = ("path", Value::from(path.display().to_string()));
        telemetry
            .emit("dist.worker_resumed", [at].into_iter().chain(expected.shard_fields()).collect());
        Ok(Self {
            assignment: None,
            checkpoint: Some(path.to_path_buf()),
            expected: Some(expected),
            telemetry,
        })
    }

    /// The assigned shard, if any.
    pub fn shard(&self) -> Option<Range<usize>> {
        self.assignment.as_ref().map(|a| a.population.shard())
    }

    /// Epochs the current assignment has realized
    /// ([`Population::realizations`]); 0 while unassigned.
    pub fn realizations(&self) -> usize {
        self.assignment.as_ref().map_or(0, |a| a.population.realizations())
    }

    fn save_checkpoint(&self) {
        let (Some(path), Some(a)) = (&self.checkpoint, &self.assignment) else { return };
        if let Err(e) = a.record.write(path) {
            eprintln!("fedl-dist worker: shard checkpoint failed: {e}");
            self.telemetry.emit(
                "checkpoint.save_failed",
                vec![
                    ("path", Value::from(path.display().to_string())),
                    ("error", Value::from(e.to_string())),
                ],
            );
        }
    }

    /// Opens a shard-request span under the coordinator's epoch span
    /// when the request carried a trace context; a missing context
    /// (tracing disabled) still gets a local span, and a
    /// malformed one is counted, dropped, and never refuses the
    /// request — trace fields are observability metadata only.
    fn adopt_span(&self, name: &'static str, epoch: usize, trace: Trace) -> fedl_telemetry::Span {
        if trace == Trace::Invalid {
            self.telemetry.counter("proto.bad_trace_ids").incr();
        }
        let mut span = self.telemetry.span_in(name, trace.to_context());
        span.field("epoch", Value::from(epoch));
        span
    }

    fn refuse(&mut self, err: ProtocolError) -> (Message, Control) {
        self.note_malformed(&err);
        (err.to_wire(), Control::Continue)
    }

    /// Applies one decoded message; the returned message is the reply.
    pub fn handle_message(&mut self, msg: Message) -> (Message, Control) {
        match msg {
            Message::Hello { protocol_version, node: _ } => {
                match answer_hello(protocol_version, "fedl-dist-worker") {
                    Ok(hello) => (hello, Control::Continue),
                    Err(err) => self.refuse(err),
                }
            }
            Message::ShardAssign {
                clients,
                seed,
                budget,
                min_participants,
                policy,
                shard_start,
                shard_end,
            } => self.handle_assign(
                clients,
                seed,
                budget,
                min_participants,
                &policy,
                shard_start,
                shard_end,
            ),
            Message::ShardContext { epoch, trace } => self.handle_context(epoch, trace),
            Message::ShardTrain { epoch, members, iterations: _, trace } => {
                self.handle_train(epoch, members, trace)
            }
            Message::Stats => {
                self.telemetry.counter("dist.worker_stats_requests").incr();
                (
                    Message::StatsSnapshot { registry: self.telemetry.registry_snapshot() },
                    Control::Continue,
                )
            }
            Message::Shutdown => {
                self.save_checkpoint();
                self.telemetry.emit(
                    "dist.worker_shutdown",
                    vec![(
                        "epochs_served",
                        Value::from(self.assignment.as_ref().map_or(0, |a| a.record.epochs_served)),
                    )],
                );
                self.telemetry.emit_metrics();
                self.telemetry.flush();
                (
                    Message::Hello {
                        protocol_version: PROTOCOL_VERSION,
                        node: "fedl-dist-worker".to_string(),
                    },
                    Control::Shutdown,
                )
            }
            // Everything else belongs to the federation server's
            // protocol, not a shard worker.
            other => {
                let err = ProtocolError::UnexpectedMessage {
                    detail: format!(
                        "a dist worker serves only shard messages, got {:?}",
                        other.type_tag()
                    ),
                };
                self.refuse(err)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_assign(
        &mut self,
        clients: usize,
        seed: u64,
        budget: f64,
        min_participants: usize,
        policy: &str,
        shard_start: usize,
        shard_end: usize,
    ) -> (Message, Control) {
        if clients == 0 || shard_start > shard_end || shard_end > clients {
            let err = ProtocolError::Schema {
                detail: format!(
                    "shard {shard_start}..{shard_end} is not a sub-range of 0..{clients}"
                ),
            };
            return self.refuse(err);
        }
        if let Err(err) = check_shard_clients(clients) {
            return self.refuse(err);
        }
        let Some(policy) = PolicyKind::from_label(policy) else {
            return self.refuse(ProtocolError::Schema {
                detail: format!("unknown policy label {policy:?}"),
            });
        };
        let config = ServeConfig::new(clients, seed, budget, min_participants, policy);
        let fingerprint = config.fingerprint();
        let mut record = ShardCheckpoint { fingerprint, shard_start, shard_end, epochs_served: 0 };
        if let Some(expected) = &self.expected {
            record.epochs_served = expected.epochs_served;
            if record != *expected {
                return self.refuse(ProtocolError::Schema {
                    detail: format!(
                        "assignment {record:?} does not match the resumed shard checkpoint \
                         {expected:?}"
                    ),
                });
            }
        }
        // A re-handshake for the assignment we already hold (coordinator
        // reconnect, recovery retry) reuses the built population — the
        // columns are a pure function of the config, so rebuilding could
        // only waste time, never change bits.
        let fingerprint = record.fingerprint.clone();
        if let Some(a) = &self.assignment {
            if a.record.fingerprint == fingerprint
                && a.population.shard() == (shard_start..shard_end)
            {
                return (
                    Message::ShardReady { shard_start, shard_end, fingerprint },
                    Control::Continue,
                );
            }
        }
        let population =
            Population::sharded(config.env.clone(), config.latency_model(), shard_start..shard_end);
        self.telemetry.emit(
            "dist.worker_assigned",
            vec![
                ("clients", Value::from(clients)),
                ("shard_start", Value::from(shard_start)),
                ("shard_end", Value::from(shard_end)),
                ("policy", Value::from(config.policy.label())),
            ],
        );
        // The first part to prepare is the epoch after the last one served:
        // epoch 0, or where a resumed worker's checkpoint left off.
        let ahead = Some(record.epochs_served);
        self.assignment = Some(Assignment { config, population, record, prepared: None, ahead });
        self.save_checkpoint();
        (Message::ShardReady { shard_start, shard_end, fingerprint }, Control::Continue)
    }

    fn handle_context(&mut self, epoch: usize, trace: Trace) -> (Message, Control) {
        let span = self.adopt_span("dist.worker_context", epoch, trace);
        let Some(a) = self.assignment.as_mut() else {
            drop(span);
            return self.refuse(ProtocolError::UnexpectedMessage {
                detail: format!("ShardContext for epoch {epoch} before any ShardAssign"),
            });
        };
        let part = match a.prepared.take_if(|(prepared, _)| *prepared == epoch) {
            Some((_, part)) => {
                self.telemetry.counter("dist.worker_prefetch_hits").incr();
                part
            }
            None => {
                self.telemetry.counter("dist.worker_prefetch_misses").incr();
                a.context_part(epoch)
            }
        };
        let next = epoch + 1;
        a.ahead = (a.prepared.as_ref().map(|p| p.0) != Some(next)).then_some(next);
        a.record.epochs_served = a.record.epochs_served.max(epoch + 1);
        drop(span);
        self.telemetry.counter("dist.worker_context_parts").incr();
        self.save_checkpoint();
        (Message::ShardContextPart { epoch, part }, Control::Continue)
    }

    fn handle_train(
        &mut self,
        epoch: usize,
        members: Vec<usize>,
        trace: Trace,
    ) -> (Message, Control) {
        let span = self.adopt_span("dist.worker_train", epoch, trace);
        let Some(a) = self.assignment.as_mut() else {
            drop(span);
            return self.refuse(ProtocolError::UnexpectedMessage {
                detail: format!("ShardTrain for epoch {epoch} before any ShardAssign"),
            });
        };
        let shard = a.population.shard();
        if let Some(&bad) = members.iter().find(|&&k| !shard.contains(&k)) {
            let (start, end) = (shard.start, shard.end);
            drop(span);
            return self.refuse(ProtocolError::Schema {
                detail: format!(
                    "cohort member {bad} is outside this worker's shard {start}..{end}"
                ),
            });
        }
        // Epoch t alone: `t+1` may already be realized for its context part.
        let (cols, now, latency) = a.population.lend(epoch);
        let feedback = member_feedback(cols, now, latency, a.config.min_participants, &members);
        a.record.epochs_served = a.record.epochs_served.max(epoch + 1);
        drop(span);
        self.telemetry.counter("dist.worker_train_parts").incr();
        self.save_checkpoint();
        (Message::ShardTrainPart { epoch, members, feedback }, Control::Continue)
    }
}

impl FrameHandler for WorkerState {
    /// Handles one raw frame: decode, dispatch, encode the reply.
    ///
    /// Besides the `proto.*` wire histograms recorded by the traced
    /// codec, every frame leaves a `dist.worker_frame` event carrying
    /// its wire type tag, sizes, and per-direction codec nanoseconds —
    /// the raw material for the trace report's wire-time attribution.
    fn handle_frame(&mut self, frame: &[u8]) -> (Vec<u8>, Control) {
        let (decoded, decode_ns) = decode_frame_traced(frame, &self.telemetry);
        let (reply, control, kind, epoch) = match decoded {
            Ok(msg) => {
                let kind = msg.type_tag();
                let epoch = frame_epoch(&msg);
                let (reply, control) = self.handle_message(msg);
                (reply, control, kind, epoch)
            }
            Err(err) => {
                self.note_malformed(&err);
                (err.to_wire(), Control::Continue, "malformed", None)
            }
        };
        let (bytes, encode_ns) = encode_frame_traced(&reply, &self.telemetry);
        let mut fields = vec![
            ("type", Value::from(kind)),
            ("bytes_in", Value::from(frame.len())),
            ("bytes_out", Value::from(bytes.len())),
            ("decode_ns", Value::Int(decode_ns as i64)),
            ("encode_ns", Value::Int(encode_ns as i64)),
        ];
        if let Some(epoch) = epoch {
            fields.push(("epoch", Value::from(epoch)));
        }
        self.telemetry.emit("dist.worker_frame", fields);
        (bytes, control)
    }

    fn note_malformed(&mut self, err: &ProtocolError) {
        self.telemetry.counter("dist.worker_malformed_frames").incr();
        self.telemetry.emit(
            "dist.worker_malformed_frame",
            vec![("code", Value::from(err.code())), ("detail", Value::from(err.to_string()))],
        );
    }

    /// Computes the context part of the epoch after the last one answered,
    /// unless it is already prepared. Its draws are a pure function of
    /// `(seed, epoch)`, so a part made early is the part made on request;
    /// the previous prepared part is dropped first, so at most one is held.
    fn idle(&mut self) {
        let Some(a) = self.assignment.as_mut() else { return };
        let Some(epoch) = a.ahead.take() else { return };
        a.prepared = None;
        let mut span = self.telemetry.span("dist.worker_prefetch");
        span.field("epoch", Value::from(epoch));
        a.prepared = Some((epoch, a.context_part(epoch)));
    }
}

/// The epoch a message is about, when it names one — used to tag
/// per-frame wire events so codec time can be charged to an epoch.
fn frame_epoch(msg: &Message) -> Option<usize> {
    match msg {
        Message::SelectCohort { epoch, .. }
        | Message::Cohort { epoch, .. }
        | Message::TrainResult { epoch, .. }
        | Message::ShardContext { epoch, .. }
        | Message::ShardContextPart { epoch, .. }
        | Message::ShardTrain { epoch, .. }
        | Message::ShardTrainPart { epoch, .. } => Some(*epoch),
        _ => None,
    }
}

/// Serves one coordinator connection against `state`
/// ([`fedl_serve::serve_frames`], the server's own connection loop),
/// preparing the next epoch's context part between requests.
pub fn run_worker(
    transport: &mut dyn FrameTransport,
    state: &mut WorkerState,
) -> Result<ServeExit, ProtocolError> {
    serve_frames(transport, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_net::ChannelModel;
    use fedl_serve::synth_learning_signals;
    use fedl_sim::{nominal_latency, ClientColumns};

    fn assign_msg(clients: usize, seed: u64, shard: Range<usize>) -> Message {
        Message::ShardAssign {
            clients,
            seed,
            budget: 300.0,
            min_participants: 3,
            policy: "fedl".to_string(),
            shard_start: shard.start,
            shard_end: shard.end,
        }
    }

    #[test]
    fn assigned_worker_serves_partials_matching_direct_computation() {
        let mut w = WorkerState::new(Telemetry::disabled());
        let (reply, _) = w.handle_message(assign_msg(50, 19, 10..30));
        let config = ServeConfig::new(50, 19, 300.0, 3, PolicyKind::FedL);
        match reply {
            Message::ShardReady { shard_start: 10, shard_end: 30, fingerprint } => {
                assert_eq!(fingerprint, config.fingerprint());
            }
            other => panic!("expected ShardReady, got {other:?}"),
        }
        // Context partial == direct columnar computation on fresh full
        // realizations, bit-for-bit.
        let channel = ChannelModel::default();
        let latency = config.latency_model();
        let cols = ClientColumns::build(&config.env, &channel);
        let epoch = 4;
        let now = cols.epoch_columns(epoch, &config.env, &channel);
        let hint = cols.epoch_columns(epoch - 1, &config.env, &channel);
        let want = scale_context_part(&cols, &hint, &now, &latency, 3, 10..30, None);
        let (reply, _) = w.handle_message(Message::ShardContext { epoch, trace: Trace::Absent });
        match reply {
            Message::ShardContextPart { epoch: e, part } => {
                assert_eq!(e, epoch);
                assert_eq!(part, want);
            }
            other => panic!("expected ShardContextPart, got {other:?}"),
        }
        // Train partial == direct latency/cost/signal computation.
        let members: Vec<usize> = want.available.iter().copied().take(4).collect();
        assert!(!members.is_empty(), "shard 10..30 should have available clients at epoch 4");
        let want_lat = nominal_latency(&cols, &now, &latency, 3, &members);
        let (reply, _) = w.handle_message(Message::ShardTrain {
            epoch,
            members: members.clone(),
            iterations: 5,
            trace: Trace::Absent,
        });
        match reply {
            Message::ShardTrainPart { members: got, feedback, .. } => {
                assert_eq!(got, members);
                assert_eq!(feedback.per_client_iter_latency, want_lat);
                for (slot, &k) in members.iter().enumerate() {
                    assert_eq!(feedback.costs[slot].to_bits(), now.cost[k].to_bits());
                    let (eta, _, _) = synth_learning_signals(cols.seed[k], epoch);
                    assert_eq!(feedback.eta_hats[slot], eta);
                }
            }
            other => panic!("expected ShardTrainPart, got {other:?}"),
        }
    }

    #[test]
    fn misuse_is_refused_with_typed_errors_never_panics() {
        let mut w = WorkerState::new(Telemetry::disabled());
        let expect_code = |reply: Message, want: &str| match reply {
            Message::Error { code, .. } => assert_eq!(code, want),
            other => panic!("expected a wire error, got {other:?}"),
        };
        // Shard requests before assignment.
        let (reply, _) = w.handle_message(Message::ShardContext { epoch: 0, trace: Trace::Absent });
        expect_code(reply, "unexpected-message");
        let (reply, _) = w.handle_message(Message::ShardTrain {
            epoch: 0,
            members: vec![1],
            iterations: 1,
            trace: Trace::Absent,
        });
        expect_code(reply, "unexpected-message");
        // Federation-server messages sent at a worker.
        let (reply, _) = w.handle_message(Message::ClientJoin { client: 3 });
        expect_code(reply, "unexpected-message");
        // Degenerate shard bounds and unknown policy labels.
        let (reply, _) = w.handle_message(assign_msg(10, 7, 4..20));
        expect_code(reply, "schema");
        let (reply, _) = w.handle_message(Message::ShardAssign {
            clients: 10,
            seed: 7,
            budget: 10.0,
            min_participants: 2,
            policy: "magic".to_string(),
            shard_start: 0,
            shard_end: 10,
        });
        expect_code(reply, "schema");
        // A population whose ids the u32 id columns cannot name.
        #[cfg(target_pointer_width = "64")]
        {
            let (reply, _) =
                w.handle_message(assign_msg(fedl_serve::proto::MAX_SHARD_CLIENTS + 1, 7, 0..10));
            expect_code(reply, "schema");
        }
        // Version skew, either way: no window for older builds.
        for protocol_version in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
            let (reply, _) =
                w.handle_message(Message::Hello { protocol_version, node: "skewed".to_string() });
            expect_code(reply, "version");
        }
        // Out-of-shard cohort members, the ids either side of the shard
        // included: their static rows are zeros, never a client to price.
        w.handle_message(assign_msg(20, 7, 5..15));
        for outside in [4, 15, 0, 19] {
            let (reply, _) = w.handle_message(Message::ShardTrain {
                epoch: 0,
                members: vec![5, outside],
                iterations: 1,
                trace: Trace::Absent,
            });
            expect_code(reply, "schema");
        }
    }

    #[test]
    fn resumed_worker_pins_the_assignment_to_its_checkpoint() {
        let dir = crate::scratch_dir("shard_guard");
        let ckpt = dir.join("shard.fedlstore");
        let mut w = WorkerState::new(Telemetry::disabled()).with_checkpoint(&ckpt);
        let (reply, _) = w.handle_message(assign_msg(40, 13, 0..20));
        assert!(matches!(reply, Message::ShardReady { .. }));
        w.handle_message(Message::ShardContext { epoch: 0, trace: Trace::Absent });
        assert!(ckpt.exists(), "assignment and served epochs must checkpoint");
        // Respawn: the same assignment is accepted...
        let mut respawned = WorkerState::resume(Telemetry::disabled(), &ckpt).unwrap();
        let (reply, _) = respawned.handle_message(assign_msg(40, 13, 0..20));
        assert!(matches!(reply, Message::ShardReady { .. }));
        // ...a different deployment (seed) or shard is refused.
        let mut respawned = WorkerState::resume(Telemetry::disabled(), &ckpt).unwrap();
        let (reply, _) = respawned.handle_message(assign_msg(40, 14, 0..20));
        assert!(matches!(reply, Message::Error { ref code, .. } if code == "schema"));
        let (reply, _) = respawned.handle_message(assign_msg(40, 13, 0..21));
        assert!(matches!(reply, Message::Error { ref code, .. } if code == "schema"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `body` sealed as envelope v1 seals it (FNV-1a), for `kind`.
    fn sealed_v1(kind: &str, body: &str) -> String {
        let crc = fedl_store::fnv1a64(body.as_bytes());
        format!("fedl-store v1 kind={kind} crc={crc:016x}\n{body}")
    }

    #[test]
    fn a_v1_hello_and_a_v1_shard_checkpoint_are_refused() {
        let (tel, _handle) = Telemetry::in_memory();
        let mut w = WorkerState::new(tel.clone());
        let hello = Message::Hello { protocol_version: PROTOCOL_VERSION, node: "old".into() };
        let v2 = fedl_serve::encode_frame(&hello);
        let body = std::str::from_utf8(&v2).unwrap().split_once('\n').unwrap().1;
        let frame = sealed_v1(fedl_serve::FRAME_KIND, body);
        let (reply, control) = w.handle_frame(frame.as_bytes());
        assert_eq!(control, Control::Continue);
        match fedl_serve::decode_frame(&reply).expect("the refusal is a v2 frame") {
            Message::Error { code, detail } => {
                assert_eq!(code, "envelope");
                assert!(detail.contains("v1") && detail.contains("v2"), "{detail}");
            }
            other => panic!("a v1 frame must be refused, got {other:?}"),
        }
        assert_eq!(tel.counter("dist.worker_malformed_frames").value(), 1);

        let dir = crate::scratch_dir("shard_v1");
        let ckpt = dir.join("shard.fedlstore");
        let mut w = WorkerState::new(Telemetry::disabled()).with_checkpoint(&ckpt);
        w.handle_message(assign_msg(40, 13, 0..20));
        w.handle_message(Message::ShardContext { epoch: 0, trace: Trace::Absent });
        let text = std::fs::read_to_string(&ckpt).unwrap();
        let body = text.split_once('\n').unwrap().1;
        std::fs::write(&ckpt, sealed_v1(DIST_SHARD_CHECKPOINT_KIND, body)).unwrap();
        let err = WorkerState::resume(Telemetry::disabled(), &ckpt).err().expect("refused");
        assert!(matches!(err, StoreError::Version { found: 1, supported: 2, .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_shard_checkpoint_of_another_schema_is_refused_by_its_stamp() {
        let dir = crate::scratch_dir("shard_schema");
        let ckpt = dir.join("shard.fedlstore");
        let path = ckpt.display().to_string();
        let ours = DIST_SHARD_SCHEMA_VERSION;
        // Another schema's version is the shared stamp refusal...
        write_checkpoint(&ckpt, DIST_SHARD_CHECKPOINT_KIND, ours + 1, "f", []).unwrap();
        let err = WorkerState::resume(Telemetry::disabled(), &ckpt).err().expect("refused");
        let (found, supported) = (ours as usize + 1, ours as usize);
        assert_eq!(err, StoreError::SchemaVersion { path: path.clone(), found, supported });
        // ...and this schema without its fields is a schema error.
        write_checkpoint(&ckpt, DIST_SHARD_CHECKPOINT_KIND, ours, "f", []).unwrap();
        match WorkerState::resume(Telemetry::disabled(), &ckpt).err().expect("refused") {
            StoreError::Schema { path: p, reason } => {
                assert_eq!(p, path);
                assert!(reason.contains("shard_start"), "{reason}");
            }
            other => panic!("a payload without its fields must be StoreError::Schema, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
