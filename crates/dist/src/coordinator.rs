//! The distributed coordinator: drives the epoch engine (policy, budget
//! ledger, cursor) and the gather/merge loop around it; workers own
//! only their shard of the population.
//!
//! Per epoch the coordinator broadcasts [`Message::ShardContext`] to
//! every worker, concatenates the returned
//! [`fedl_core::columnar::ContextPart`]s **in fixed shard order**
//! (contiguous shards + ascending in-shard ids = global ascending
//! order), and assembles the exact [`EpochContext`](fedl_core::EpochContext) a single process
//! would build. The engine then selects; the cohort is split back into
//! per-shard member lists for [`Message::ShardTrain`], and the returned
//! per-member feedback columns are concatenated — again in shard order
//! — before one shared scalar combination
//! ([`fedl_serve::combine_feedback`]) folds them. No cross-shard float
//! reduction happens in the merge at all, which is why an N-worker run
//! is bit-identical to the in-process reference for every N
//! (docs/DIST.md).
//!
//! Workers are pure functions of `(config, shard, epoch)`, so failure
//! handling is re-asking: a worker whose link errors is reset
//! (respawned or reconnected by the [`WorkerLink`] impl), re-handshaken
//! with the same [`Message::ShardAssign`], and sent the in-flight
//! request again — the retried reply carries the identical bytes.

use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

use fedl_core::columnar::{assemble_context, ContextPart};
use fedl_core::engine::EpochEngine;
use fedl_json::Value;
use fedl_serve::proto::{
    check_shard_clients, decode_frame, encode_frame, Message, ProtocolError, Trace,
    PROTOCOL_VERSION,
};
use fedl_serve::{combine_feedback, FrameHandler, MemberFeedback, SelectionRecord, ServeConfig};
use fedl_telemetry::{SpanContext, Telemetry};

use crate::shard::members_in;
use crate::worker::WorkerState;

/// One end of a coordinator ↔ worker pairing. `send`/`recv_reply` are
/// split (not a single rpc) so the coordinator can broadcast a request
/// to every worker before collecting any reply — remote workers compute
/// their shards concurrently.
pub trait WorkerLink {
    /// Sends one request frame.
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError>;
    /// Receives and decodes the next reply. A wire [`Message::Error`]
    /// is returned as a message (protocol refusals are hard bugs, not
    /// transport failures), transport trouble as the typed error.
    fn recv_reply(&mut self) -> Result<Message, ProtocolError>;
    /// Tears the link down and re-establishes it — respawn the process,
    /// reconnect the socket, restart the thread. After a successful
    /// reset the coordinator re-runs the handshake.
    fn reset(&mut self) -> Result<(), String>;
}

/// A worker and the contiguous client range it owns.
pub struct ShardWorker {
    /// Owned client ids `start..end`.
    pub shard: Range<usize>,
    /// The live link.
    pub link: Box<dyn WorkerLink>,
}

/// Zero-socket [`WorkerLink`] driving a [`WorkerState`] in-process
/// through the full encode → envelope-verify → decode pipeline — the
/// fastest way to embed a sharded run in tests.
pub struct LocalWorkerLink {
    state: WorkerState,
    replies: VecDeque<Vec<u8>>,
}

impl LocalWorkerLink {
    /// Wraps a worker state.
    pub fn new(state: WorkerState) -> Self {
        Self { state, replies: VecDeque::new() }
    }
}

impl WorkerLink for LocalWorkerLink {
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        let (reply, _control) = self.state.handle_frame(&encode_frame(msg));
        self.replies.push_back(reply);
        Ok(())
    }

    fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
        let frame = self
            .replies
            .pop_front()
            .ok_or_else(|| ProtocolError::Io { detail: "no reply queued".to_string() })?;
        decode_frame(&frame)
    }

    fn reset(&mut self) -> Result<(), String> {
        self.state = WorkerState::new(Telemetry::disabled());
        self.replies.clear();
        Ok(())
    }
}

/// Coordinator knobs.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Selection epochs to drive.
    pub epochs: usize,
    /// Reset + re-handshake attempts per worker failure before the run
    /// aborts with an error.
    pub max_resets: usize,
}

impl Default for DistOptions {
    fn default() -> Self {
        Self { epochs: 10, max_resets: 2 }
    }
}

/// What a distributed run produced.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// One record per driven epoch, in order — the artifact the
    /// determinism checks byte-compare against the in-process
    /// reference.
    pub selections: Vec<SelectionRecord>,
    /// Population size.
    pub clients: usize,
    /// Worker count.
    pub workers: usize,
    /// Wall-clock seconds spent in the epoch loop.
    pub elapsed_secs: f64,
    /// `true` when the budget exhausted before `epochs` ran out.
    pub done: bool,
    /// Worker failures recovered by reset + re-handshake + retry.
    pub recoveries: usize,
}

/// The coordinator's full state. Build with [`Coordinator::new`], run
/// with [`Coordinator::run`].
pub struct Coordinator {
    config: ServeConfig,
    workers: Vec<ShardWorker>,
    telemetry: Telemetry,
    max_resets: usize,
    recoveries: usize,
}

impl Coordinator {
    /// Validates the shard layout (contiguous, ascending, covering the
    /// population exactly) and that every client id fits the wire's
    /// `u32` id columns.
    pub fn new(
        config: ServeConfig,
        workers: Vec<ShardWorker>,
        telemetry: Telemetry,
    ) -> Result<Self, String> {
        if workers.is_empty() {
            return Err("at least one shard worker is required".to_string());
        }
        check_shard_clients(config.env.num_clients).map_err(|e| e.to_string())?;
        let mut cursor = 0;
        for (i, w) in workers.iter().enumerate() {
            if w.shard.start != cursor || w.shard.start >= w.shard.end {
                return Err(format!(
                    "worker {i} owns {}..{} but the shards must be non-empty, ascending, and \
                     contiguous from 0",
                    w.shard.start, w.shard.end
                ));
            }
            cursor = w.shard.end;
        }
        if cursor != config.env.num_clients {
            return Err(format!(
                "shards cover 0..{cursor} but the population is 0..{}",
                config.env.num_clients
            ));
        }
        telemetry.emit(
            "dist.start",
            vec![
                ("clients", Value::from(config.env.num_clients)),
                ("workers", Value::from(workers.len())),
                ("budget", Value::Float(config.budget)),
                ("policy", Value::from(config.policy.label())),
            ],
        );
        Ok(Self {
            config,
            workers,
            telemetry,
            max_resets: DistOptions::default().max_resets,
            recoveries: 0,
        })
    }

    fn assign_msg(&self, i: usize) -> Message {
        let shard = &self.workers[i].shard;
        Message::ShardAssign {
            clients: self.config.env.num_clients,
            seed: self.config.env.seed,
            budget: self.config.budget,
            min_participants: self.config.min_participants,
            policy: self.config.policy.label().to_string(),
            shard_start: shard.start,
            shard_end: shard.end,
        }
    }

    /// One request/reply against worker `i`, no recovery.
    fn rpc(&mut self, i: usize, msg: &Message) -> Result<Message, ProtocolError> {
        self.workers[i].link.send(msg)?;
        self.workers[i].link.recv_reply()
    }

    /// Hello + ShardAssign + ShardReady against the workers `ids`,
    /// verifying the protocol version, the echoed shard bounds, and that
    /// each worker's deployment fingerprint matches ours. Each step is
    /// broadcast — sent to every worker before any reply is read, the
    /// replies then checked in shard order — so the workers build their
    /// shards concurrently.
    fn handshake(&mut self, ids: Range<usize>) -> Result<(), String> {
        let hello =
            Message::Hello { protocol_version: PROTOCOL_VERSION, node: "fedl-dist".to_string() };
        let fail = |i: usize, step: &'static str| {
            move |e: ProtocolError| format!("worker {i} {step}: {e}")
        };
        for i in ids.clone() {
            self.workers[i].link.send(&hello).map_err(fail(i, "handshake"))?;
        }
        for i in ids.clone() {
            match self.workers[i].link.recv_reply().map_err(fail(i, "handshake"))? {
                Message::Hello { protocol_version: PROTOCOL_VERSION, .. } => {}
                Message::Hello { protocol_version, .. } => {
                    return Err(format!(
                        "worker {i} speaks protocol v{protocol_version}, this coordinator v{PROTOCOL_VERSION}"
                    ))
                }
                other => return Err(format!("worker {i} answered the hello with {other:?}")),
            }
        }
        for i in ids.clone() {
            let assign = self.assign_msg(i);
            self.workers[i].link.send(&assign).map_err(fail(i, "assignment"))?;
        }
        let ours = self.config.fingerprint();
        for i in ids {
            let want = self.workers[i].shard.clone();
            match self.workers[i].link.recv_reply().map_err(fail(i, "assignment"))? {
                Message::ShardReady { shard_start, shard_end, fingerprint } => {
                    if shard_start != want.start || shard_end != want.end {
                        return Err(format!(
                            "worker {i} acknowledged shard {shard_start}..{shard_end}, expected \
                             {}..{}",
                            want.start, want.end
                        ));
                    }
                    if fingerprint != ours {
                        return Err(format!(
                            "worker {i} runs a different deployment (fingerprint {fingerprint}, \
                             coordinator {ours})"
                        ));
                    }
                }
                other => return Err(format!("worker {i} refused its assignment: {other:?}")),
            }
            self.telemetry.emit(
                "dist.assign",
                vec![
                    ("worker", Value::from(i)),
                    ("shard_start", Value::from(want.start)),
                    ("shard_end", Value::from(want.end)),
                ],
            );
        }
        Ok(())
    }

    /// Resets worker `i`'s link (respawn/reconnect) and re-handshakes,
    /// up to `max_resets` attempts; with none allowed, the failure that
    /// called for recovery is the run's error.
    fn recover(&mut self, i: usize, why: &ProtocolError) -> Result<(), String> {
        self.recoveries += 1;
        self.telemetry.counter("dist.recoveries").incr();
        self.telemetry.emit(
            "dist.worker_recovered",
            vec![("worker", Value::from(i)), ("code", Value::from(why.code()))],
        );
        let mut last = why.to_string();
        for _ in 0..self.max_resets {
            match self.workers[i].link.reset() {
                Ok(()) => match self.handshake(i..i + 1) {
                    Ok(()) => return Ok(()),
                    Err(e) => last = e,
                },
                Err(e) => last = e,
            }
        }
        Err(format!("worker {i} unrecoverable after {} resets: {last}", self.max_resets))
    }

    /// Recovers worker `i` and replays one request/reply.
    fn retry(
        &mut self,
        i: usize,
        err: ProtocolError,
        make: &dyn Fn(&Range<usize>) -> Message,
    ) -> Result<Message, String> {
        self.recover(i, &err)?;
        let msg = make(&self.workers[i].shard);
        self.rpc(i, &msg).map_err(|e| format!("worker {i} failed again after recovery: {e}"))
    }

    /// Broadcasts `make(shard)` to every worker, then collects one
    /// reply per worker **in shard order**. A worker whose link fails
    /// at either half is recovered and re-asked; replies stay aligned
    /// to worker indices regardless.
    fn gather(
        &mut self,
        phase: &'static str,
        epoch: usize,
        parent: Option<SpanContext>,
        make: &dyn Fn(&Range<usize>) -> Message,
    ) -> Result<Vec<Message>, String> {
        let n = self.workers.len();
        let mut send_failed: Vec<Option<ProtocolError>> = (0..n).map(|_| None).collect();
        for (i, slot) in send_failed.iter_mut().enumerate() {
            let msg = make(&self.workers[i].shard);
            if let Err(e) = self.workers[i].link.send(&msg) {
                *slot = Some(e);
            }
        }
        let mut replies = Vec::with_capacity(n);
        for (i, failure) in send_failed.into_iter().enumerate() {
            let reply = match failure {
                Some(err) => self.retry(i, err, make)?,
                None => {
                    let mut span = self.telemetry.span_in(phase, parent);
                    span.field("worker", Value::from(i));
                    span.field("epoch", Value::from(epoch));
                    let got = self.workers[i].link.recv_reply();
                    drop(span);
                    match got {
                        Ok(reply) => reply,
                        Err(err) => self.retry(i, err, make)?,
                    }
                }
            };
            replies.push(reply);
        }
        Ok(replies)
    }

    /// Counts a malformed or mismatched shard reply before propagating
    /// the parse error: the `dist.bad_replies` counter shows up in
    /// live stats, the `dist.bad_reply` event in `telemetry-report
    /// --require` — even when the run aborts.
    fn bad_reply<T>(&self, result: Result<T, String>) -> Result<T, String> {
        if let Err(detail) = &result {
            self.telemetry.counter("dist.bad_replies").incr();
            self.telemetry.emit("dist.bad_reply", vec![("detail", Value::from(detail.as_str()))]);
        }
        result
    }

    /// Drives one distributed run — a fresh epoch engine from epoch 0 —
    /// for `opts.epochs` epochs. The returned selections are
    /// bit-identical to `fedl_serve::reference_run` over the same
    /// config for any worker count — the tentpole contract, pinned by
    /// the crate's determinism tests and the `dist` CI stage.
    pub fn run(&mut self, opts: &DistOptions) -> Result<DistReport, String> {
        self.max_resets = opts.max_resets;
        self.handshake(0..self.workers.len())?;
        // `build_untracked`: the regret tracker's hindsight solve costs
        // more than the epoch itself at 100k+ clients, and the dist
        // layer never plots regret curves. Selections are bit-identical
        // to the tracked build's.
        let policy = self.config.policy.build_untracked(
            self.config.env.num_clients,
            self.config.budget,
            self.config.min_participants,
            self.config.fedl,
        );
        let mut engine = EpochEngine::new(policy, self.config.budget);
        engine.set_telemetry(self.telemetry.clone());
        let num_clients = self.config.env.num_clients;
        let mut records = Vec::with_capacity(opts.epochs);
        let mut done = false;
        let started = Instant::now();
        for epoch in 0..opts.epochs {
            if engine.exhausted() {
                done = true;
                break;
            }
            let mut epoch_span = self.telemetry.span("dist.epoch");
            epoch_span.field("epoch", Value::from(epoch));
            let parent = epoch_span.ctx();
            let trace = Trace::from_context(parent);
            let replies = self.gather("dist.context", epoch, parent, &|_| {
                Message::ShardContext { epoch, trace }
            })?;
            let mut parts = Vec::with_capacity(replies.len());
            for (i, reply) in replies.into_iter().enumerate() {
                let part =
                    self.bad_reply(parse_context_part(i, &self.workers[i].shard, epoch, reply))?;
                parts.push(part);
                self.telemetry.counter("dist.context_parts").incr();
            }
            let merge_span = epoch_span.child("dist.merge");
            let ctx = assemble_context(
                epoch,
                num_clients,
                parts,
                engine.remaining(),
                self.config.min_participants,
                self.config.env.seed,
            );
            drop(merge_span);
            let select_span = epoch_span.child("dist.select");
            let selected = engine.select(ctx).map_err(|e| e.to_string())?;
            drop(select_span);
            let Some((cohort, iterations)) = selected else {
                // Nobody available anywhere: the epoch passes untrained,
                // exactly like the reference run.
                records.push(SelectionRecord { epoch, cohort: Vec::new(), iterations: 0 });
                self.telemetry.emit("dist.epoch_skipped", vec![("epoch", Value::from(epoch))]);
                continue;
            };
            let replies =
                self.gather("dist.train", epoch, parent, &|shard| Message::ShardTrain {
                    epoch,
                    members: members_in(shard, &cohort),
                    iterations,
                    trace,
                })?;
            let merge_span = epoch_span.child("dist.merge");
            let mut feedback = MemberFeedback::default();
            for (i, reply) in replies.into_iter().enumerate() {
                let expected = members_in(&self.workers[i].shard, &cohort);
                feedback.extend(self.bad_reply(parse_train_part(i, epoch, &expected, reply))?);
                self.telemetry.counter("dist.train_parts").incr();
            }
            let synth = combine_feedback(epoch, iterations, feedback);
            drop(merge_span);
            // The engine refuses feedback it cannot use; that is a bad
            // reply like any other the workers sent.
            let settled = engine.settle(&synth.to_report(epoch, &cohort, iterations));
            self.bad_reply(settled.map_err(|e| e.to_string()))?;
            self.telemetry.counter("dist.selections").incr();
            self.telemetry.emit(
                "dist.epoch",
                vec![
                    ("epoch", Value::from(epoch)),
                    ("cohort_size", Value::from(cohort.len())),
                    ("iterations", Value::from(iterations)),
                    ("cost", Value::Float(synth.cost)),
                    ("remaining", Value::Float(engine.remaining())),
                ],
            );
            records.push(SelectionRecord { epoch, cohort, iterations });
        }
        let elapsed_secs = started.elapsed().as_secs_f64();
        Ok(DistReport {
            selections: records,
            clients: num_clients,
            workers: self.workers.len(),
            elapsed_secs,
            done,
            recoveries: self.recoveries,
        })
    }

    /// Best-effort shutdown of worker `i` (spawned workers exit their
    /// accept loop); link failures are ignored.
    pub fn shutdown_worker(&mut self, i: usize) {
        let _ = self.rpc(i, &Message::Shutdown);
    }
}

fn parse_context_part(
    i: usize,
    shard: &Range<usize>,
    epoch: usize,
    reply: Message,
) -> Result<ContextPart, String> {
    match reply {
        Message::ShardContextPart { epoch: got, part } => {
            if got != epoch {
                return Err(format!("worker {i} answered epoch {got}, asked for {epoch}"));
            }
            let ContextPart { available, costs, latency_hint, true_latency, data_volumes } = &part;
            let k = available.len();
            if [costs.len(), latency_hint.len(), true_latency.len(), data_volumes.len()]
                .iter()
                .any(|&n| n != k)
            {
                return Err(format!("worker {i} returned misaligned context columns"));
            }
            // Ascending ids lie inside the shard iff the two ends do.
            let ordered = available.windows(2).all(|w| w[0] < w[1]);
            let in_shard = available.first().is_none_or(|&id| id >= shard.start)
                && available.last().is_none_or(|&id| id < shard.end);
            if !ordered || !in_shard {
                return Err(format!(
                    "worker {i} returned ids outside its shard {}..{} or out of order",
                    shard.start, shard.end
                ));
            }
            if !costs.iter().chain(latency_hint).chain(true_latency).all(|v| v.is_finite()) {
                return Err(format!("worker {i} returned non-finite context columns"));
            }
            Ok(part)
        }
        Message::Error { code, detail } => {
            Err(format!("worker {i} refused the context request ({code}): {detail}"))
        }
        other => Err(format!("worker {i} answered the context request with {other:?}")),
    }
}

fn parse_train_part(
    i: usize,
    epoch: usize,
    expected_members: &[usize],
    reply: Message,
) -> Result<MemberFeedback, String> {
    match reply {
        Message::ShardTrainPart { epoch: got, members, feedback } => {
            if got != epoch {
                return Err(format!("worker {i} answered epoch {got}, asked for {epoch}"));
            }
            if members != expected_members {
                return Err(format!("worker {i} echoed a different member list"));
            }
            // Checked per worker: concatenation could hide one worker's
            // short column behind another's long one. Whether the
            // numbers are usable is the engine's check of the merged
            // outcome.
            let f = &feedback;
            if [
                f.per_client_iter_latency.len(),
                f.costs.len(),
                f.eta_hats.len(),
                f.grad_dot_delta.len(),
                f.local_losses.len(),
            ]
            .iter()
            .any(|&n| n != members.len())
            {
                return Err(format!("worker {i} returned misaligned feedback columns"));
            }
            Ok(feedback)
        }
        Message::Error { code, detail } => {
            Err(format!("worker {i} refused the train request ({code}): {detail}"))
        }
        other => Err(format!("worker {i} answered the train request with {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_ranges;
    use fedl_core::policy::PolicyKind;
    use fedl_serve::reference_run;

    fn local_workers(config: &ServeConfig, count: usize) -> Vec<ShardWorker> {
        shard_ranges(config.env.num_clients, count)
            .into_iter()
            .map(|shard| ShardWorker {
                shard,
                link: Box::new(LocalWorkerLink::new(WorkerState::new(Telemetry::disabled()))),
            })
            .collect()
    }

    #[test]
    fn bad_shard_layouts_are_refused() {
        let config = ServeConfig::new(30, 7, 100.0, 3, PolicyKind::FedL);
        let cases: Vec<Vec<Range<usize>>> = vec![
            vec![],
            vec![0..10, 12..30],
            vec![0..10, 10..10, 10..30],
            vec![5..30],
            vec![0..10, 10..29],
        ];
        let link = || Box::new(LocalWorkerLink::new(WorkerState::new(Telemetry::disabled())));
        for shards in cases {
            let workers: Vec<ShardWorker> =
                shards.into_iter().map(|shard| ShardWorker { shard, link: link() }).collect();
            assert!(Coordinator::new(config.clone(), workers, Telemetry::disabled()).is_err());
        }
        // Ids ride the wire as u32: a population they cannot name is
        // refused here, not truncated there.
        #[cfg(target_pointer_width = "64")]
        {
            let clients = fedl_serve::proto::MAX_SHARD_CLIENTS + 1;
            let config = ServeConfig::new(clients, 7, 100.0, 3, PolicyKind::FedL);
            let workers = vec![ShardWorker { shard: 0..clients, link: link() }];
            let err = Coordinator::new(config, workers, Telemetry::disabled()).err().unwrap();
            assert!(err.contains("u32"), "{err}");
        }
    }

    #[test]
    fn in_process_sharded_run_matches_the_reference() {
        let config = ServeConfig::new(45, 13, 350.0, 4, PolicyKind::FedL);
        let reference = reference_run(&config, 6);
        let workers = local_workers(&config, 3);
        let mut coordinator =
            Coordinator::new(config.clone(), workers, Telemetry::disabled()).unwrap();
        let report =
            coordinator.run(&DistOptions { epochs: 6, ..Default::default() }).expect("run");
        assert_eq!(report.selections, reference);
        assert_eq!(report.recoveries, 0);
        assert!(report.selections.iter().any(|r| !r.cohort.is_empty()));
    }

    /// Tampers with traffic on an otherwise honest link — every frame
    /// stays structurally valid — and refuses resets, so the run aborts
    /// after counting the bad reply.
    struct TamperLink {
        inner: LocalWorkerLink,
        request: Tamper,
        reply: Tamper,
    }

    type Tamper = fn(Message) -> Message;

    impl WorkerLink for TamperLink {
        fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
            self.inner.send(&(self.request)(msg.clone()))
        }

        fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
            self.inner.recv_reply().map(self.reply)
        }

        fn reset(&mut self) -> Result<(), String> {
            Err("no recovery in this test".to_string())
        }
    }

    /// Asks for the next epoch's context: the reply is well-formed but
    /// answers the wrong question.
    fn shift_epoch(msg: Message) -> Message {
        match msg {
            Message::ShardContext { epoch, trace } => {
                Message::ShardContext { epoch: epoch + 1, trace }
            }
            other => other,
        }
    }

    /// Drops the last cell of one column: each column still decodes (the
    /// wire checks columns one by one), the rows no longer line up.
    fn shorten_costs(mut msg: Message) -> Message {
        if let Message::ShardContextPart { part, .. } = &mut msg {
            part.costs.pop();
        }
        msg
    }

    /// Poisons one member's η̂: every column still lines up, and only the
    /// engine's check of the merged outcome can tell.
    fn nan_eta(mut msg: Message) -> Message {
        if let Message::ShardTrainPart { feedback, .. } = &mut msg {
            if let Some(eta) = feedback.eta_hats.first_mut() {
                *eta = f32::NAN;
            }
        }
        msg
    }

    #[test]
    fn mismatched_shard_replies_are_counted_and_emitted() {
        let tampers: [(Tamper, Tamper, &str); 3] = [
            (shift_epoch, std::convert::identity, "epoch"),
            (std::convert::identity, shorten_costs, "misaligned"),
            (std::convert::identity, nan_eta, "non-finite"),
        ];
        for (request, reply, why) in tampers {
            let config = ServeConfig::new(30, 7, 100.0, 3, PolicyKind::FedL);
            let (telemetry, sink) = Telemetry::in_memory();
            let mut workers = local_workers(&config, 2);
            workers[1] = ShardWorker {
                shard: workers[1].shard.clone(),
                link: Box::new(TamperLink {
                    inner: LocalWorkerLink::new(WorkerState::new(Telemetry::disabled())),
                    request,
                    reply,
                }),
            };
            let mut coordinator = Coordinator::new(config, workers, telemetry.clone()).unwrap();
            let err = coordinator
                .run(&DistOptions { epochs: 3, max_resets: 1 })
                .expect_err("a persistently mismatched reply must abort the run");
            assert!(err.contains(why), "error should describe the mismatch: {err}");
            assert!(
                telemetry.registry_snapshot().to_json().contains("\"dist.bad_replies\""),
                "the counter must appear in the live-stats snapshot"
            );
            assert!(
                sink.lines().iter().any(|l| l.contains("\"dist.bad_reply\"")),
                "the event must appear in the run log for telemetry-report --require"
            );
        }
    }

    /// Drops the reply to the first context request once, then behaves;
    /// counts the resets it is asked for.
    struct DropsOnce {
        inner: LocalWorkerLink,
        dropped: bool,
        resets: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl WorkerLink for DropsOnce {
        fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
            self.inner.send(msg)
        }

        fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
            match self.inner.recv_reply()? {
                Message::ShardContextPart { .. } if !self.dropped => {
                    self.dropped = true;
                    Err(ProtocolError::Io { detail: "link dropped once".to_string() })
                }
                reply => Ok(reply),
            }
        }

        fn reset(&mut self) -> Result<(), String> {
            self.resets.set(self.resets.get() + 1);
            self.inner.reset()
        }
    }

    #[test]
    fn max_resets_counts_the_resets_a_failure_may_use() {
        let config = ServeConfig::new(30, 7, 100.0, 3, PolicyKind::FedL);
        for max_resets in [0, 1] {
            let resets = std::rc::Rc::new(std::cell::Cell::new(0));
            let mut workers = local_workers(&config, 2);
            workers[1].link = Box::new(DropsOnce {
                inner: LocalWorkerLink::new(WorkerState::new(Telemetry::disabled())),
                dropped: false,
                resets: resets.clone(),
            });
            let mut coordinator =
                Coordinator::new(config.clone(), workers, Telemetry::disabled()).unwrap();
            let run = coordinator.run(&DistOptions { epochs: 3, max_resets });
            assert_eq!(resets.get(), max_resets, "one failure, {max_resets} reset(s) allowed");
            match run {
                Err(err) => {
                    assert_eq!(max_resets, 0, "{err}");
                    assert!(err.contains("transport error: link dropped once"), "{err}");
                }
                Ok(report) => {
                    assert_eq!(report.recoveries, 1);
                    assert_eq!(report.selections, reference_run(&config, 3));
                }
            }
        }
    }
}
