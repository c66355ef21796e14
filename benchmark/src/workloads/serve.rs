//! `serve_fedl_m100`: a `ServerState` behind `serve_connection` on its
//! own thread, driven over loopback TCP by `run_loadgen` — closed loop,
//! one connection, because the protocol has one epoch in flight by
//! design. The client socket is tapped for the end-to-end timings; the
//! traced pass replaces `serve_connection` by the harness's own
//! `recv → decode_frame → handle_message → encode_frame → send` loop.

use std::path::{Path, PathBuf};
use std::thread;

use fedl::core::policy::PolicyKind;
use fedl::serve::proto::{decode_frame, encode_frame, ProtocolError};
use fedl::serve::{
    run_loadgen, serve_connection, Control, FrameTransport, LoadgenOptions, SelectionRecord,
    ServeConfig, ServerState, TcpTransport,
};
use fedl::telemetry::Telemetry;

use super::plane::{
    accept_one, check_reference, check_selections, connect, loopback_listener, selections_digest,
    FrameKind, PlaneSpec,
};
use super::{Scale, UnitResult};
use crate::procfs::{cpu_ms, peak_rss_mb};
use crate::span::{adopt_by_epoch, now_ns, Span, Tracer};

/// The server checkpoints every this many epochs, as an operator would.
const CHECKPOINT_EVERY: usize = 10;

pub fn spec(seed: u64, scale: Scale) -> PlaneSpec {
    PlaneSpec {
        config: ServeConfig::new(100, seed, 30_000.0, 10, PolicyKind::FedL),
        // ≈ 0.7 s; the budget outlasts the epochs on every seed. The
        // tracker's hindsight solve turns expensive around epoch 22, so
        // 30 epochs keep the median in the cheap regime and p90 in the
        // expensive one on every seed.
        epochs: if scale == Scale::Smoke { 5 } else { 30 },
    }
}

/// One request/reply pair as the client socket saw it.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    kind: FrameKind,
    epoch: Option<u64>,
    send_ns: u64,
    recv_ns: u64,
    /// Both frames with their 4-byte length prefixes.
    bytes: u64,
}

/// `FrameTransport` over the client's TCP stream that notes when each
/// request left and each reply arrived.
struct ClientTap {
    inner: TcpTransport,
    /// Kind, epoch, send time and size of the request awaiting its reply.
    pending: Option<(FrameKind, Option<u64>, u64, u64)>,
    log: Vec<Exchange>,
    /// Process CPU at the first `SelectCohort` and at `Shutdown`: the
    /// two ends of the epoch loop.
    cpu_loop: (Option<f64>, Option<f64>),
}

impl FrameTransport for ClientTap {
    fn send(&mut self, frame: &[u8]) -> Result<(), ProtocolError> {
        // Classified before the send time is stamped, so decoding the
        // (~100-byte) request is outside the measured round trip.
        let (kind, epoch) =
            FrameKind::of(&decode_frame(frame).expect("the loadgen encodes well-formed frames"));
        if kind == FrameKind::Select && self.cpu_loop.0.is_none() {
            self.cpu_loop.0 = Some(cpu_ms());
        } else if kind == FrameKind::Shutdown {
            self.cpu_loop.1 = Some(cpu_ms());
        }
        self.pending = Some((kind, epoch, now_ns(), frame.len() as u64 + 4));
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        let reply = self.inner.recv()?;
        let recv_ns = now_ns();
        if let (Some((kind, epoch, send_ns, out)), Some(frame)) = (self.pending.take(), &reply) {
            let bytes = out + frame.len() as u64 + 4;
            self.log.push(Exchange { kind, epoch, send_ns, recv_ns, bytes });
        }
        Ok(reply)
    }
}

/// The harness's own server loop: what `serve_connection` +
/// `ServerState::handle_frame` do, with a span around each step and the
/// periodic checkpoint written explicitly (so `state` is built without
/// `with_checkpoint`).
fn traced_server_loop(
    transport: &mut TcpTransport,
    state: &mut ServerState,
    checkpoint: &Path,
) -> Vec<Span> {
    let mut tr = Tracer::new();
    while let Some(frame) = transport.recv().expect("the loadgen sends well-formed frames") {
        let received = now_ns();
        let msg = decode_frame(&frame).expect("the loadgen sends well-formed frames");
        let decoded = now_ns();
        let (kind, epoch) = FrameKind::of(&msg);
        let (frame_name, handler_name) = match kind {
            FrameKind::Select => ("serve.frame_select", "serve.handle_select"),
            FrameKind::Feedback => ("serve.frame_feedback", "serve.handle_feedback"),
            FrameKind::Join => ("serve.frame_join", "serve.handle_join"),
            _ => ("serve.frame_other", "serve.handle_other"),
        };
        let before = state.next_epoch();
        let (reply, control) = state.handle_message(msg);
        let handled = now_ns();
        // `advance_epoch` checkpoints when the new boundary is a
        // multiple of the interval; shutdown always checkpoints.
        let checkpoints = control == Control::Shutdown
            || (state.next_epoch() != before
                && state.next_epoch().is_multiple_of(CHECKPOINT_EVERY));
        if checkpoints {
            state.save_checkpoint(checkpoint).expect("the checkpoint directory is writable");
        }
        let saved = now_ns();
        let bytes = encode_frame(&reply);
        let encoded = now_ns();
        transport.send(&bytes).expect("the loadgen is still connected");
        let id = tr.record(frame_name, received, now_ns(), None, epoch);
        tr.record("serve.decode", received, decoded, Some(id), epoch);
        tr.record(handler_name, decoded, handled, Some(id), epoch);
        if checkpoints {
            tr.record("store.checkpoint", handled, saved, Some(id), epoch);
        }
        tr.record("serve.encode", saved, encoded, Some(id), epoch);
        if control == Control::Shutdown {
            break;
        }
    }
    tr.into_spans()
}

struct ServedRun {
    start_ns: u64,
    peak_rss_mb: f64,
    log: Vec<Exchange>,
    cpu_loop: (f64, f64),
    selections: Vec<SelectionRecord>,
    done_early: bool,
    server_spans: Vec<Span>,
}

/// One served scenario, start to shutdown. `traced` swaps
/// `serve_connection` for [`traced_server_loop`].
fn run_served(spec: &PlaneSpec, telemetry: Telemetry, traced: bool, scratch: &Path) -> ServedRun {
    let start_ns = now_ns();
    let checkpoint: PathBuf = scratch.join("serve.fedlstore");
    let mut state = ServerState::new(spec.config.clone(), telemetry);
    if !traced {
        state = state.with_checkpoint(&checkpoint, CHECKPOINT_EVERY);
    }
    let (listener, addr) = loopback_listener();
    let server = thread::spawn(move || {
        let mut transport = accept_one(&listener);
        if traced {
            traced_server_loop(&mut transport, &mut state, &checkpoint)
        } else {
            serve_connection(&mut transport, &mut state).expect("the served run is error-free");
            Vec::new()
        }
    });
    let mut tap =
        ClientTap { inner: connect(addr), pending: None, log: Vec::new(), cpu_loop: (None, None) };
    let opts = LoadgenOptions { epochs: spec.epochs, start_epoch: 0, shutdown: true };
    let report = run_loadgen(&mut tap, &spec.config, &opts).expect("the served run is error-free");
    let server_spans = server.join().expect("the server thread does not panic");
    ServedRun {
        start_ns,
        peak_rss_mb: peak_rss_mb(),
        log: tap.log,
        cpu_loop: (tap.cpu_loop.0.unwrap_or(0.0), tap.cpu_loop.1.unwrap_or(0.0)),
        selections: report.selections,
        done_early: report.done,
        server_spans,
    }
}

/// `(epoch, select, feedback)` of every completed epoch.
fn epoch_pairs(log: &[Exchange]) -> Vec<(u64, Exchange, Exchange)> {
    log.windows(2)
        .filter(|w| w[0].kind == FrameKind::Select && w[1].kind == FrameKind::Feedback)
        .filter_map(|w| Some((w[0].epoch?, w[0], w[1])))
        .collect()
}

fn measure(run: &ServedRun, spec: &PlaneSpec) -> UnitResult {
    let mut unit = UnitResult {
        seed: spec.config.env.seed,
        attempted: spec.epochs as u64,
        digest: selections_digest(&run.selections),
        peak_rss_mb: run.peak_rss_mb,
        ..Default::default()
    };
    let pairs = epoch_pairs(&run.log);
    if let (Some(first), Some(last)) = (pairs.first(), pairs.last()) {
        unit.setup_s = (first.1.send_ns - run.start_ns) as f64 / 1e9;
        unit.loop_s = (last.2.recv_ns - first.1.send_ns) as f64 / 1e9;
    }
    unit.cpu_ms = run.cpu_loop.1 - run.cpu_loop.0;
    for (_, select, feedback) in &pairs {
        unit.epoch_ms.push((feedback.recv_ns - select.send_ns) as f64 / 1e6);
        unit.decision_ms.push((select.recv_ns - select.send_ns) as f64 / 1e6);
        unit.wire_bytes += select.bytes + feedback.bytes;
    }
    check_selections(spec, &run.selections, run.done_early, &mut unit);
    unit
}

pub fn timed_unit(
    spec: &PlaneSpec,
    scratch: &Path,
    against_reference: bool,
) -> (UnitResult, Vec<SelectionRecord>) {
    let run = run_served(spec, Telemetry::disabled(), false, scratch);
    let mut unit = measure(&run, spec);
    if against_reference {
        check_reference(spec, &run.selections, &mut unit);
    }
    (unit, run.selections)
}

/// Epoch-loop wall of one served unit with an in-memory telemetry sink
/// attached — against the disabled-telemetry unit this is the cost of
/// switching telemetry on (ROADMAP aim 4b).
pub fn loop_secs_with_telemetry(spec: &PlaneSpec, scratch: &Path) -> f64 {
    let (telemetry, _events) = Telemetry::in_memory();
    measure(&run_served(spec, telemetry, false, scratch), spec).loop_s
}

/// The traced served unit: client-side spans from the tap (epoch ⊃
/// rpc_select, loadgen_synth, rpc_feedback) with the server thread's
/// frame spans hung under the request that caused them, so an rpc's
/// self time is what neither end spent computing: the wire.
pub fn traced_unit(spec: &PlaneSpec, scratch: &Path) -> (Vec<Span>, Vec<SelectionRecord>) {
    let run = run_served(spec, Telemetry::disabled(), true, scratch);
    let mut tr = Tracer::new();
    for (epoch, select, feedback) in epoch_pairs(&run.log) {
        let epoch = Some(epoch);
        let id = tr.record("epoch", select.send_ns, feedback.recv_ns, None, epoch);
        tr.record("serve.rpc_select", select.send_ns, select.recv_ns, Some(id), epoch);
        tr.record("serve.loadgen_synth", select.recv_ns, feedback.send_ns, Some(id), epoch);
        tr.record("serve.rpc_feedback", feedback.send_ns, feedback.recv_ns, Some(id), epoch);
    }
    let mut spans = tr.into_spans();
    spans.extend(run.server_spans);
    adopt_by_epoch(&mut spans, "serve.frame_select", "serve.rpc_select");
    adopt_by_epoch(&mut spans, "serve.frame_feedback", "serve.rpc_feedback");
    (spans, run.selections)
}
