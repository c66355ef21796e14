//! The tentpole contract: a distributed run over real transports is
//! byte-identical to the in-process reference — for 2 and 4 workers,
//! and through a worker kill + respawn + checkpoint-resume mid-run —
//! and every transport failure surfaces as a typed error, never a
//! panic or a hang. Along the way each worker realizes each epoch of its
//! shard exactly once.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::path::PathBuf;
use std::rc::Rc;
use std::thread::JoinHandle;

use fedl_core::policy::PolicyKind;
use fedl_dist::{
    run_worker, shard_ranges, Coordinator, DistOptions, LocalWorkerLink, ShardWorker, WorkerLink,
    WorkerState,
};
use fedl_serve::proto::{decode_frame, encode_frame, Message, ProtocolError};
use fedl_serve::transport::{DuplexTransport, FrameTransport};
use fedl_serve::{reference_run, FrameHandler, SelectionRecord, ServeConfig};
use fedl_telemetry::Telemetry;

fn to_jsonl(records: &[SelectionRecord]) -> Vec<u8> {
    let mut text = String::new();
    for record in records {
        text.push_str(&record.to_json_line());
        text.push('\n');
    }
    text.into_bytes()
}

/// A worker living on its own thread behind a [`DuplexTransport`] —
/// the in-repo stand-in for a worker process over TCP. `reset`
/// tears the thread down and spawns a fresh one, the same recovery a
/// process respawn performs.
struct ThreadWorker {
    endpoint: Option<DuplexTransport>,
    handle: Option<JoinHandle<()>>,
    make_state: Box<dyn Fn() -> WorkerState + Send>,
}

impl ThreadWorker {
    fn spawn(make_state: Box<dyn Fn() -> WorkerState + Send>) -> Self {
        let mut worker = Self { endpoint: None, handle: None, make_state };
        worker.start();
        worker
    }

    fn start(&mut self) {
        let (coordinator_end, worker_end) = DuplexTransport::pair();
        let mut state = (self.make_state)();
        self.handle = Some(std::thread::spawn(move || {
            let mut transport = worker_end;
            let _ = run_worker(&mut transport, &mut state);
        }));
        self.endpoint = Some(coordinator_end);
    }

    /// Simulates the worker process dying: its thread exits, while the
    /// coordinator keeps holding a now-dead link (send errors, recv
    /// sees end-of-stream).
    fn kill_peer(&mut self) {
        let (dead, other_end) = DuplexTransport::pair();
        drop(other_end);
        // Dropping the old endpoint closes the worker thread's stream.
        self.endpoint = Some(dead);
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

impl WorkerLink for ThreadWorker {
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        self.endpoint.as_mut().expect("endpoint exists between resets").send(&encode_frame(msg))
    }

    fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
        let frame =
            self.endpoint.as_mut().expect("endpoint exists between resets").recv()?.ok_or_else(
                || ProtocolError::Io { detail: "worker closed the stream".to_string() },
            )?;
        decode_frame(&frame)
    }

    fn reset(&mut self) -> Result<(), String> {
        self.endpoint = None;
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
        self.start();
        Ok(())
    }
}

impl Drop for ThreadWorker {
    fn drop(&mut self) {
        self.endpoint = None;
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

/// Kills the inner worker right before its `die_at`-th request is
/// sent, exactly once — a deterministic mid-run crash.
struct FlakyWorker {
    inner: ThreadWorker,
    sends: usize,
    die_at: usize,
}

impl WorkerLink for FlakyWorker {
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        self.sends += 1;
        if self.sends == self.die_at {
            self.inner.kill_peer();
        }
        self.inner.send(msg)
    }

    fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
        self.inner.recv_reply()
    }

    fn reset(&mut self) -> Result<(), String> {
        self.inner.reset()
    }
}

/// A worker that dies mid-run and whose resets keep failing — the
/// unrecoverable-disconnect case.
struct DoomedWorker {
    inner: FlakyWorker,
}

impl WorkerLink for DoomedWorker {
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        self.inner.send(msg)
    }

    fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
        self.inner.recv_reply()
    }

    fn reset(&mut self) -> Result<(), String> {
        Err("the worker host is gone".to_string())
    }
}

fn config() -> ServeConfig {
    ServeConfig::new(81, 17, 500.0, 4, PolicyKind::FedL)
}

fn thread_workers(config: &ServeConfig, count: usize) -> Vec<ShardWorker> {
    shard_ranges(config.env.num_clients, count)
        .into_iter()
        .map(|shard| ShardWorker {
            shard,
            link: Box::new(ThreadWorker::spawn(Box::new(|| {
                WorkerState::new(Telemetry::disabled())
            }))),
        })
        .collect()
}

fn run(config: &ServeConfig, workers: Vec<ShardWorker>, epochs: usize) -> fedl_dist::DistReport {
    let mut coordinator =
        Coordinator::new(config.clone(), workers, Telemetry::disabled()).expect("layout is valid");
    coordinator.run(&DistOptions { epochs, ..Default::default() }).expect("run succeeds")
}

#[test]
fn two_and_four_worker_runs_are_byte_identical_to_the_reference() {
    let config = config();
    let epochs = 8;
    let reference = to_jsonl(&reference_run(&config, epochs));
    assert!(!reference.is_empty());
    for count in [2, 4] {
        let report = run(&config, thread_workers(&config, count), epochs);
        assert_eq!(report.recoveries, 0);
        assert!(report.selections.iter().any(|r| !r.cohort.is_empty()));
        assert_eq!(
            to_jsonl(&report.selections),
            reference,
            "{count}-worker run must byte-match the single-process reference"
        );
    }
    // And the zero-socket local links.
    let locals: Vec<ShardWorker> = shard_ranges(config.env.num_clients, 3)
        .into_iter()
        .map(|shard| ShardWorker {
            shard,
            link: Box::new(LocalWorkerLink::new(WorkerState::new(Telemetry::disabled()))),
        })
        .collect();
    assert_eq!(to_jsonl(&run(&config, locals, epochs).selections), reference);
}

/// An in-process link whose worker stays inspectable after the run.
struct SharedWorker {
    state: Rc<RefCell<WorkerState>>,
    replies: VecDeque<Vec<u8>>,
}

impl WorkerLink for SharedWorker {
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        let (reply, _) = self.state.borrow_mut().handle_frame(&encode_frame(msg));
        self.replies.push_back(reply);
        Ok(())
    }

    fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
        decode_frame(&self.replies.pop_front().expect("one reply per request"))
    }

    fn reset(&mut self) -> Result<(), String> {
        Err("an in-process worker cannot fail".to_string())
    }
}

#[test]
fn each_worker_realizes_each_epoch_of_its_shard_once() {
    // Per epoch a worker answers a context frame (epochs t−1 and t) and a
    // train frame (epoch t again): three uses, one realization.
    let config = config();
    let epochs = 10;
    let states: Vec<Rc<RefCell<WorkerState>>> =
        (0..2).map(|_| Rc::new(RefCell::new(WorkerState::new(Telemetry::disabled())))).collect();
    let workers: Vec<ShardWorker> = shard_ranges(config.env.num_clients, 2)
        .into_iter()
        .zip(&states)
        .map(|(shard, state)| ShardWorker {
            shard,
            link: Box::new(SharedWorker { state: state.clone(), replies: VecDeque::new() }),
        })
        .collect();
    let report = run(&config, workers, epochs);
    assert_eq!(report.selections.len(), epochs);
    assert!(report.selections.iter().all(|r| !r.cohort.is_empty()), "every epoch trained");
    assert_eq!(to_jsonl(&report.selections), to_jsonl(&reference_run(&config, epochs)));
    for (i, state) in states.iter().enumerate() {
        assert_eq!(state.borrow().realizations(), epochs, "worker {i}");
    }
}

fn checkpointed_state(path: PathBuf) -> WorkerState {
    // A respawned worker finds the checkpoint its predecessor wrote and
    // resumes against it — the S12 shard-checkpoint path.
    if path.exists() {
        WorkerState::resume(Telemetry::disabled(), &path).expect("checkpoint is readable")
    } else {
        WorkerState::new(Telemetry::disabled()).with_checkpoint(path)
    }
}

#[test]
fn killed_worker_respawns_from_its_shard_checkpoint_and_the_run_still_matches() {
    let config = config();
    let epochs = 8;
    let reference = to_jsonl(&reference_run(&config, epochs));
    let dir = std::env::temp_dir().join(format!("fedl_dist_respawn_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shards: Vec<Range<usize>> = shard_ranges(config.env.num_clients, 3);
    let workers: Vec<ShardWorker> = shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            let ckpt = dir.join(format!("worker-{i}.fedlstore"));
            std::fs::remove_file(&ckpt).ok();
            let inner = ThreadWorker::spawn(Box::new(move || checkpointed_state(ckpt.clone())));
            // Worker 1 dies just before its 7th request: two handshake
            // rpcs plus two per epoch puts the crash mid-epoch 2.
            let link: Box<dyn WorkerLink> = if i == 1 {
                Box::new(FlakyWorker { inner, sends: 0, die_at: 7 })
            } else {
                Box::new(inner)
            };
            ShardWorker { shard, link }
        })
        .collect();
    let report = run(&config, workers, epochs);
    assert!(report.recoveries >= 1, "the killed worker must have been recovered");
    assert_eq!(
        to_jsonl(&report.selections),
        reference,
        "a kill + respawn + checkpoint-resume mid-run must not change a single byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unrecoverable_worker_death_is_a_typed_error_not_a_hang() {
    let config = config();
    let mut workers = thread_workers(&config, 3);
    // Worker 1 disconnects mid-epoch and every reset fails.
    let inner = ThreadWorker::spawn(Box::new(|| WorkerState::new(Telemetry::disabled())));
    workers[1] = ShardWorker {
        shard: workers[1].shard.clone(),
        link: Box::new(DoomedWorker { inner: FlakyWorker { inner, sends: 0, die_at: 5 } }),
    };
    let mut coordinator = Coordinator::new(config, workers, Telemetry::disabled()).unwrap();
    let err = coordinator
        .run(&DistOptions { epochs: 8, max_resets: 2 })
        .expect_err("a dead worker with failing resets must abort the run");
    assert!(err.contains("worker 1"), "error should name the worker: {err}");
    assert!(err.contains("unrecoverable"), "error should say recovery was exhausted: {err}");
}

/// Strips the trace fields off every outgoing shard request, as a
/// sender with tracing off would encode them. Selections must not
/// notice — tracing is observability metadata, never an input.
struct UntracedLink {
    inner: ThreadWorker,
}

impl WorkerLink for UntracedLink {
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        let stripped = match msg.clone() {
            Message::ShardContext { epoch, .. } => {
                Message::ShardContext { epoch, trace: fedl_serve::Trace::Absent }
            }
            Message::ShardTrain { epoch, members, iterations, .. } => {
                Message::ShardTrain { epoch, members, iterations, trace: fedl_serve::Trace::Absent }
            }
            other => other,
        };
        self.inner.send(&stripped)
    }

    fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
        self.inner.recv_reply()
    }

    fn reset(&mut self) -> Result<(), String> {
        self.inner.reset()
    }
}

#[test]
fn tracing_never_changes_a_selection_byte() {
    let config = config();
    let epochs = 8;
    let reference = to_jsonl(&reference_run(&config, epochs));

    // Tracing fully on at both ends: coordinator spans ride the wire,
    // workers adopt them — and the selections stay bit-identical.
    let (coord_tel, coord_sink) = Telemetry::in_memory();
    let workers: Vec<ShardWorker> = shard_ranges(config.env.num_clients, 2)
        .into_iter()
        .map(|shard| ShardWorker {
            shard,
            link: Box::new(ThreadWorker::spawn(Box::new(|| {
                WorkerState::new(Telemetry::in_memory().0)
            }))),
        })
        .collect();
    let mut coordinator = Coordinator::new(config.clone(), workers, coord_tel).unwrap();
    let report = coordinator.run(&DistOptions { epochs, ..Default::default() }).unwrap();
    assert_eq!(
        to_jsonl(&report.selections),
        reference,
        "tracing enabled must be bit-identical to tracing disabled"
    );
    assert!(
        coord_sink.lines().iter().any(|l| l.contains("\"dist.epoch\"")),
        "the traced run must actually have emitted epoch spans"
    );

    // Workers that never see trace fields select identically too.
    let workers: Vec<ShardWorker> = shard_ranges(config.env.num_clients, 2)
        .into_iter()
        .map(|shard| ShardWorker {
            shard,
            link: Box::new(UntracedLink {
                inner: ThreadWorker::spawn(Box::new(|| WorkerState::new(Telemetry::disabled()))),
            }),
        })
        .collect();
    assert_eq!(
        to_jsonl(&run(&config, workers, epochs).selections),
        reference,
        "no trace fields on the wire must select identically"
    );
}

#[test]
fn dropped_duplex_sender_surfaces_as_a_typed_error_at_the_coordinator() {
    let (mut coordinator_end, worker_end) = DuplexTransport::pair();
    drop(worker_end);
    // Sending into the dropped peer is a typed Io error...
    let msg = Message::ShardContext { epoch: 0, trace: fedl_serve::Trace::Absent };
    match coordinator_end.send(&encode_frame(&msg)) {
        Err(ProtocolError::Io { .. }) => {}
        other => panic!("expected a typed Io error, got {other:?}"),
    }
    // ...and receiving reports clean end-of-stream, which the link
    // layer turns into a typed error rather than blocking forever.
    assert!(matches!(coordinator_end.recv(), Ok(None)));
}

/// `state`'s reply to `msg`, as the raw frame bytes it would send.
fn reply_frame(state: &mut WorkerState, msg: &Message) -> Vec<u8> {
    let (reply, _) = state.handle_frame(&encode_frame(msg));
    reply
}

fn assign(config: &ServeConfig, shard: &Range<usize>) -> Message {
    Message::ShardAssign {
        clients: config.env.num_clients,
        seed: config.env.seed,
        budget: config.budget,
        min_participants: config.min_participants,
        policy: config.policy.label().to_string(),
        shard_start: shard.start,
        shard_end: shard.end,
    }
}

fn context(epoch: usize) -> Message {
    Message::ShardContext { epoch, trace: fedl_serve::Trace::Absent }
}

/// The context and train frames a fresh worker computes on request for
/// `epoch` of `shard` — what a prefetching worker must send byte for byte.
fn on_demand(config: &ServeConfig, shard: &Range<usize>, epoch: usize) -> (Vec<u8>, Vec<u8>) {
    let mut fresh = WorkerState::new(Telemetry::disabled());
    reply_frame(&mut fresh, &assign(config, shard));
    let part = reply_frame(&mut fresh, &context(epoch));
    let train = reply_frame(&mut fresh, &train(config, shard, epoch));
    (part, train)
}

/// A train request for the first three available clients of `shard`.
fn train(config: &ServeConfig, shard: &Range<usize>, epoch: usize) -> Message {
    let mut population =
        fedl_sim::Population::sharded(config.env.clone(), config.latency_model(), shard.clone());
    let now = population.advance(epoch).now;
    let members: Vec<usize> = shard.clone().filter(|&k| now.available[k]).take(3).collect();
    Message::ShardTrain { epoch, members, iterations: 2, trace: fedl_serve::Trace::Absent }
}

#[test]
fn a_prefetched_context_part_is_the_on_demand_frame() {
    let config = config();
    let shards = shard_ranges(config.env.num_clients, 2);
    let (tel, _sink) = Telemetry::in_memory();
    let hits = || tel.counter("dist.worker_prefetch_hits").value();
    let mut worker = WorkerState::new(tel.clone());
    reply_frame(&mut worker, &assign(&config, &shards[0]));
    // Each step: (epoch asked, answered from the prepared part?). Context,
    // idle (the loop's prefetch), then the train request of that epoch.
    // No idle ran after the assignment, so epoch 0 is computed on request.
    let walk = [
        (0, false),
        (1, true),
        (2, true),
        (1, false), // re-asked for t−1; epoch 2 is prepared again after it
        (2, true),
        (4, false), // re-asked for t+2: epoch 3 was prepared, 5 is next
        (5, true),
    ];
    for (epoch, hit) in walk {
        let before = hits();
        let (want_part, want_train) = on_demand(&config, &shards[0], epoch);
        assert_eq!(reply_frame(&mut worker, &context(epoch)), want_part, "epoch {epoch}");
        assert_eq!(hits() - before, u64::from(hit), "epoch {epoch}: hit {hit}");
        worker.idle();
        assert_eq!(
            reply_frame(&mut worker, &train(&config, &shards[0], epoch)),
            want_train,
            "epoch {epoch}: the train part after a prefetch"
        );
    }
    // A recovery re-handshakes the same assignment: the prepared part
    // (epoch 6) survives it and is still the on-demand frame.
    reply_frame(&mut worker, &assign(&config, &shards[0]));
    let before = hits();
    assert_eq!(reply_frame(&mut worker, &context(6)), on_demand(&config, &shards[0], 6).0);
    assert_eq!(hits() - before, 1);
    worker.idle();
    // A new assignment clears it: epoch 7 of the other shard is computed.
    reply_frame(&mut worker, &assign(&config, &shards[1]));
    let before = hits();
    assert_eq!(reply_frame(&mut worker, &context(7)), on_demand(&config, &shards[1], 7).0);
    assert_eq!(hits(), before, "a part prepared for another shard must not be served");
    // A fresh worker prepares epoch 0 in the idle time after `ShardReady`.
    let mut fresh = WorkerState::new(tel.clone());
    reply_frame(&mut fresh, &assign(&config, &shards[1]));
    fresh.idle();
    let before = hits();
    assert_eq!(reply_frame(&mut fresh, &context(0)), on_demand(&config, &shards[1], 0).0);
    assert_eq!(hits() - before, 1);
    // A respawned worker asked mid-run misses the epoch 0 it prepared,
    // answers on request and prefetches from there.
    let mut respawned = WorkerState::new(tel.clone());
    reply_frame(&mut respawned, &assign(&config, &shards[1]));
    respawned.idle();
    let before = hits();
    assert_eq!(reply_frame(&mut respawned, &context(3)), on_demand(&config, &shards[1], 3).0);
    assert_eq!(hits(), before);
    respawned.idle();
    assert_eq!(reply_frame(&mut respawned, &context(4)), on_demand(&config, &shards[1], 4).0);
    assert_eq!(hits() - before, 1);
}

#[test]
fn a_resumed_worker_prepares_the_epoch_after_its_checkpoint() {
    let config = config();
    let shard = shard_ranges(config.env.num_clients, 2).remove(0);
    let dir = std::env::temp_dir().join(format!("fedl_dist_prefetch_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("worker.fedlstore");
    let mut first = WorkerState::new(Telemetry::disabled()).with_checkpoint(&ckpt);
    reply_frame(&mut first, &assign(&config, &shard));
    for epoch in 0..3 {
        reply_frame(&mut first, &context(epoch));
    }
    drop(first);
    let (tel, _sink) = Telemetry::in_memory();
    let mut resumed = WorkerState::resume(tel.clone(), &ckpt).expect("checkpoint is readable");
    reply_frame(&mut resumed, &assign(&config, &shard));
    resumed.idle();
    assert_eq!(resumed.realizations(), 2, "epoch 3 and its hint epoch 2");
    assert_eq!(reply_frame(&mut resumed, &context(3)), on_demand(&config, &shard, 3).0);
    assert_eq!(tel.counter("dist.worker_prefetch_hits").value(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The coordinator's end of a [`run_worker`] thread, with no recovery.
struct EndpointLink(DuplexTransport);

impl WorkerLink for EndpointLink {
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        self.0.send(&encode_frame(msg))
    }

    fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
        let frame = self
            .0
            .recv()?
            .ok_or_else(|| ProtocolError::Io { detail: "worker closed the stream".to_string() })?;
        decode_frame(&frame)
    }

    fn reset(&mut self) -> Result<(), String> {
        Err("no recovery in this test".to_string())
    }
}

#[test]
fn a_served_worker_realizes_each_epoch_once_plus_one_ahead() {
    // Behind `run_worker` epoch 0 is realized in the idle time after
    // `ShardReady`, and each later epoch in the idle time after the context
    // part before it: every part is a prefetch hit, and the only extra
    // realization is the epoch after the last.
    let config = config();
    let epochs = 10;
    let mut threads = Vec::new();
    let mut telemetry = Vec::new();
    let workers: Vec<ShardWorker> = shard_ranges(config.env.num_clients, 2)
        .into_iter()
        .map(|shard| {
            let (coordinator_end, mut worker_end) = DuplexTransport::pair();
            let tel = Telemetry::in_memory().0;
            let mut state = WorkerState::new(tel.clone());
            telemetry.push(tel);
            threads.push(std::thread::spawn(move || {
                run_worker(&mut worker_end, &mut state).expect("the run is error-free");
                state
            }));
            ShardWorker { shard, link: Box::new(EndpointLink(coordinator_end)) }
        })
        .collect();
    let report = run(&config, workers, epochs);
    assert_eq!(to_jsonl(&report.selections), to_jsonl(&reference_run(&config, epochs)));
    for (i, (thread, tel)) in threads.into_iter().zip(&telemetry).enumerate() {
        let state = thread.join().expect("the worker thread exits when its link closes");
        assert_eq!(state.realizations(), epochs + 1, "worker {i}");
        let hits = tel.counter("dist.worker_prefetch_hits").value();
        let misses = tel.counter("dist.worker_prefetch_misses").value();
        assert_eq!((hits, misses), (epochs as u64, 0), "worker {i}");
    }
}
