//! The two distributed workloads: `Coordinator::run` on the main thread
//! and two `run_worker` threads, over loopback TCP. The coordinator's
//! side of every connection is the harness's own `WorkerLink`, which
//! notes when each request left and each reply was received and decoded;
//! the traced pass also replaces `run_worker` by the harness's own
//! `recv → decode_frame → handle_message → encode_frame → send` loop.

use std::cell::RefCell;
use std::rc::Rc;
use std::thread;

use fedl::core::policy::PolicyKind;
use fedl::dist::{
    run_worker, shard_ranges, Coordinator, DistOptions, ShardWorker, WorkerLink, WorkerState,
};
use fedl::serve::proto::{decode_frame, encode_frame, Message, ProtocolError, Trace};
use fedl::serve::{Control, FrameTransport, SelectionRecord, ServeConfig, TcpTransport};
use fedl::telemetry::Telemetry;

use super::plane::{
    accept_one, check_reference, check_selections, connect, loopback_listener, selections_digest,
    FrameKind, PlaneSpec,
};
use super::{Scale, UnitResult, Workload};
use crate::procfs::{cpu_ms, peak_rss_mb};
use crate::span::{now_ns, Span, Tracer};

pub const WORKERS: usize = 2;

pub fn spec(workload: Workload, seed: u64, scale: Scale) -> PlaneSpec {
    let smoke = scale == Scale::Smoke;
    match workload {
        // A trivial policy over a large population: worker-side
        // realization and megabyte column frames dominate. ≈ 1.2 s.
        Workload::DistFedavg100k => PlaneSpec {
            config: ServeConfig::new(100_000, seed, 2.0e6, 1_000, PolicyKind::FedAvg),
            epochs: if smoke { 3 } else { 10 },
        },
        // The one-shot solve at K ≈ 800 dominates and the wire is small:
        // the bypass workload for wire-codec work. ≈ 1 s.
        Workload::DistFedl1k => PlaneSpec {
            config: ServeConfig::new(1_000, seed, 400_000.0, 100, PolicyKind::FedL),
            epochs: if smoke { 5 } else { 40 },
        },
        other => panic!("{} is not a distributed workload", other.name()),
    }
}

/// One frame crossing the coordinator's side of a link.
#[derive(Debug, Clone, Copy)]
struct LinkEvent {
    kind: FrameKind,
    epoch: Option<u64>,
    /// A request: encode started. A reply: `recv` called.
    start_ns: u64,
    /// A request: encoded, about to be written. A reply: bytes in hand.
    mid_ns: u64,
    /// A request: written. A reply: decoded.
    end_ns: u64,
    is_reply: bool,
    /// The frame with its 4-byte length prefix.
    bytes: u64,
}

#[derive(Default)]
struct LinkLog {
    events: Vec<LinkEvent>,
    /// Process CPU when the first `ShardContext` left.
    cpu_at_loop_start: Option<f64>,
}

/// `WorkerLink` over TCP that logs both directions.
struct TapLink {
    transport: TcpTransport,
    log: Rc<RefCell<LinkLog>>,
}

impl WorkerLink for TapLink {
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        let (kind, epoch) = FrameKind::of(msg);
        if kind == FrameKind::ShardContext {
            let mut log = self.log.borrow_mut();
            if log.cpu_at_loop_start.is_none() {
                log.cpu_at_loop_start = Some(cpu_ms());
            }
        }
        let start_ns = now_ns();
        let frame = encode_frame(msg);
        let mid_ns = now_ns();
        self.transport.send(&frame)?;
        self.log.borrow_mut().events.push(LinkEvent {
            kind,
            epoch,
            start_ns,
            mid_ns,
            end_ns: now_ns(),
            is_reply: false,
            bytes: frame.len() as u64 + 4,
        });
        Ok(())
    }

    fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
        let start_ns = now_ns();
        let frame = self.transport.recv()?.ok_or_else(|| ProtocolError::Io {
            detail: "worker closed the connection".to_string(),
        })?;
        let mid_ns = now_ns();
        let msg = decode_frame(&frame)?;
        let (kind, epoch) = FrameKind::of(&msg);
        self.log.borrow_mut().events.push(LinkEvent {
            kind,
            epoch,
            start_ns,
            mid_ns,
            end_ns: now_ns(),
            is_reply: true,
            bytes: frame.len() as u64 + 4,
        });
        Ok(msg)
    }

    fn reset(&mut self) -> Result<(), String> {
        Err("the benchmark's worker links are not re-established".to_string())
    }
}

/// The harness's own worker loop: what `run_worker` +
/// `WorkerState::handle_frame` do, with a span around each step.
fn traced_worker_loop(transport: &mut TcpTransport, state: &mut WorkerState) -> Vec<Span> {
    let mut tr = Tracer::new();
    while let Some(frame) = transport.recv().expect("the coordinator sends well-formed frames") {
        let received = now_ns();
        let msg = decode_frame(&frame).expect("the coordinator sends well-formed frames");
        let decoded = now_ns();
        let (kind, epoch) = FrameKind::of(&msg);
        let (reply, control) = state.handle_message(msg);
        let handled = now_ns();
        let bytes = encode_frame(&reply);
        let encoded = now_ns();
        transport.send(&bytes).expect("the coordinator is still connected");
        let handler = match kind {
            FrameKind::ShardContext => "dist.worker_context",
            FrameKind::ShardTrain => "dist.worker_train",
            _ => "dist.worker_other",
        };
        if epoch.is_some() {
            tr.record("dist.worker_codec", received, decoded, None, epoch);
            tr.record(handler, decoded, handled, None, epoch);
            tr.record("dist.worker_codec", handled, encoded, None, epoch);
        }
        if control == Control::Shutdown {
            break;
        }
    }
    tr.into_spans()
}

struct DistRun {
    start_ns: u64,
    peak_rss_mb: f64,
    loop_end_ns: u64,
    cpu_loop: (f64, f64),
    events: Vec<LinkEvent>,
    selections: Vec<SelectionRecord>,
    done_early: bool,
    /// One span list per worker thread, in shard order.
    worker_spans: Vec<Vec<Span>>,
}

fn run_dist(spec: &PlaneSpec, traced: bool) -> DistRun {
    let start_ns = now_ns();
    let log = Rc::new(RefCell::new(LinkLog::default()));
    let mut threads = Vec::new();
    let mut workers = Vec::new();
    for shard in shard_ranges(spec.config.env.num_clients, WORKERS) {
        let (listener, addr) = loopback_listener();
        threads.push(thread::spawn(move || {
            let mut transport = accept_one(&listener);
            let mut state = WorkerState::new(Telemetry::disabled());
            if traced {
                traced_worker_loop(&mut transport, &mut state)
            } else {
                run_worker(&mut transport, &mut state).expect("the distributed run is error-free");
                Vec::new()
            }
        }));
        let link = TapLink { transport: connect(addr), log: Rc::clone(&log) };
        workers.push(ShardWorker { shard, link: Box::new(link) });
    }
    let mut coordinator = Coordinator::new(spec.config.clone(), workers, Telemetry::disabled())
        .expect("two contiguous shards cover the population");
    let report = coordinator
        .run(&DistOptions { epochs: spec.epochs, max_resets: 0 })
        .expect("the distributed run is error-free");
    let loop_end_ns = now_ns();
    let cpu_end = cpu_ms();
    for i in 0..WORKERS {
        coordinator.shutdown_worker(i);
    }
    let worker_spans =
        threads.into_iter().map(|t| t.join().expect("the worker threads do not panic")).collect();
    drop(coordinator);
    let log = Rc::try_unwrap(log).ok().expect("the links are gone with the coordinator");
    let log = log.into_inner();
    DistRun {
        start_ns,
        peak_rss_mb: peak_rss_mb(),
        loop_end_ns,
        cpu_loop: (log.cpu_at_loop_start.unwrap_or(cpu_end), cpu_end),
        events: log.events,
        selections: report.selections,
        done_early: report.done,
        worker_spans,
    }
}

/// The coordinator-side timeline of one epoch, cut from the link log.
struct EpochCut {
    epoch: u64,
    /// First `ShardContext` send of this epoch.
    start_ns: u64,
    /// First `ShardContext` send of the next epoch (loop end for the
    /// last one).
    end_ns: u64,
    /// Last `ShardContextPart` received and decoded.
    context_in_ns: u64,
    /// First `ShardTrain` send.
    train_out_ns: u64,
    /// Last `ShardTrainPart` received and decoded.
    train_in_ns: u64,
}

fn epoch_cuts(run: &DistRun) -> Vec<EpochCut> {
    let loop_events = || run.events.iter().filter(|ev| ev.epoch.is_some());
    let mut starts: Vec<(u64, u64)> = Vec::new();
    for ev in loop_events() {
        let epoch = ev.epoch.expect("filtered above");
        if ev.kind == FrameKind::ShardContext
            && !ev.is_reply
            && starts.last().map(|s| s.0) != Some(epoch)
        {
            starts.push((epoch, ev.start_ns));
        }
    }
    let mut cuts = Vec::new();
    for (i, &(epoch, start_ns)) in starts.iter().enumerate() {
        let end_ns = starts.get(i + 1).map_or(run.loop_end_ns, |next| next.1);
        let of = |kind: FrameKind, is_reply: bool| {
            loop_events().filter(move |ev| {
                ev.epoch == Some(epoch) && ev.kind == kind && ev.is_reply == is_reply
            })
        };
        let context_in = of(FrameKind::ShardContext, true).map(|ev| ev.end_ns).max();
        let train_out = of(FrameKind::ShardTrain, false).map(|ev| ev.start_ns).min();
        let train_in = of(FrameKind::ShardTrain, true).map(|ev| ev.end_ns).max();
        // An epoch in which nobody was available has no train phase and
        // yields no sample.
        if let (Some(context_in_ns), Some(train_out_ns), Some(train_in_ns)) =
            (context_in, train_out, train_in)
        {
            cuts.push(EpochCut {
                epoch,
                start_ns,
                end_ns,
                context_in_ns,
                train_out_ns,
                train_in_ns,
            });
        }
    }
    cuts
}

fn measure(run: &DistRun, spec: &PlaneSpec) -> UnitResult {
    let mut unit = UnitResult {
        seed: spec.config.env.seed,
        attempted: spec.epochs as u64,
        digest: selections_digest(&run.selections),
        cpu_ms: run.cpu_loop.1 - run.cpu_loop.0,
        peak_rss_mb: run.peak_rss_mb,
        ..Default::default()
    };
    let cuts = epoch_cuts(run);
    if let Some(first) = cuts.first() {
        unit.setup_s = (first.start_ns - run.start_ns) as f64 / 1e9;
        unit.loop_s = (run.loop_end_ns - first.start_ns) as f64 / 1e9;
    }
    for cut in &cuts {
        unit.epoch_ms.push((cut.end_ns - cut.start_ns) as f64 / 1e6);
        unit.decision_ms.push((cut.train_out_ns - cut.context_in_ns) as f64 / 1e6);
    }
    unit.wire_bytes = run.events.iter().filter(|ev| ev.epoch.is_some()).map(|ev| ev.bytes).sum();
    check_selections(spec, &run.selections, run.done_early, &mut unit);
    unit
}

pub fn timed_unit(spec: &PlaneSpec, against_reference: bool) -> (UnitResult, Vec<SelectionRecord>) {
    let run = run_dist(spec, false);
    let mut unit = measure(&run, spec);
    if against_reference {
        check_reference(spec, &run.selections, &mut unit);
    }
    (unit, run.selections)
}

/// The traced distributed unit. The coordinator's timeline is a tree:
/// epoch ⊃ link spans (`dist.encode`, `dist.send`, `dist.wire_wait`,
/// `dist.decode`) and the two stretches where it computes alone
/// (`dist.coord_decide`: parts in hand → first `ShardTrain`;
/// `dist.coord_observe`: feedback in hand → next epoch). The worker
/// threads run *during* `dist.wire_wait`, in parallel, so their spans
/// stay on timelines of their own (roots), tagged with the epoch.
pub fn traced_unit(spec: &PlaneSpec) -> (Vec<Span>, Vec<SelectionRecord>) {
    let run = run_dist(spec, true);
    let mut tr = Tracer::new();
    for cut in epoch_cuts(&run) {
        let epoch = Some(cut.epoch);
        let id = tr.record("epoch", cut.start_ns, cut.end_ns, None, epoch);
        for ev in run.events.iter().filter(|ev| ev.epoch == epoch) {
            let (first, second) = if ev.is_reply {
                ("dist.wire_wait", "dist.decode")
            } else {
                ("dist.encode", "dist.send")
            };
            tr.record(first, ev.start_ns, ev.mid_ns, Some(id), epoch);
            tr.record(second, ev.mid_ns, ev.end_ns, Some(id), epoch);
        }
        tr.record("dist.coord_decide", cut.context_in_ns, cut.train_out_ns, Some(id), epoch);
        tr.record("dist.coord_observe", cut.train_in_ns, cut.end_ns, Some(id), epoch);
    }
    let mut spans = tr.into_spans();
    spans.extend(run.worker_spans.into_iter().flatten());
    (spans, run.selections)
}

/// The `ShardContextPart` frame worker 0 of this deployment answers for
/// epoch 1 — the megabyte column frame the codec probes measure.
pub fn context_part_frame(spec: &PlaneSpec) -> Vec<u8> {
    let shard = shard_ranges(spec.config.env.num_clients, WORKERS).remove(0);
    let mut worker = WorkerState::new(Telemetry::disabled());
    worker.handle_message(Message::ShardAssign {
        clients: spec.config.env.num_clients,
        seed: spec.config.env.seed,
        budget: spec.config.budget,
        min_participants: spec.config.min_participants,
        policy: spec.config.policy.label().to_string(),
        shard_start: shard.start,
        shard_end: shard.end,
    });
    let (reply, _) =
        worker.handle_message(Message::ShardContext { epoch: 1, trace: Trace::Absent });
    assert!(matches!(reply, Message::ShardContextPart { .. }), "the worker was assigned above");
    encode_frame(&reply)
}

/// Max ÷ mean of the per-worker `dist.worker_context` time, averaged
/// over epochs: how much the slowest shard gates the gather.
pub fn worker_imbalance(spans: &[Span]) -> f64 {
    use std::collections::BTreeMap;
    // Each worker records one context span per epoch.
    let mut per_epoch: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "dist.worker_context") {
        if let Some(e) = s.epoch {
            per_epoch.entry(e).or_default().push(s.duration_ns() as f64);
        }
    }
    let ratios: Vec<f64> = per_epoch
        .values()
        .filter(|times| times.len() == WORKERS)
        .map(|times| {
            let max = times.iter().cloned().fold(0.0, f64::max);
            let mean = times.iter().sum::<f64>() / times.len() as f64;
            max / mean
        })
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}
