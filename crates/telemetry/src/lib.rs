//! # fedl-telemetry
//!
//! Zero-dependency observability for the FedL workspace, in three
//! layers sharing one [`Telemetry`] handle:
//!
//! * **Metrics** — a [`Registry`] of named [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s (~6% relative error on quantiles),
//!   cheap enough for the per-epoch hot path: recording a sample is a
//!   bucket-index computation plus a handful of atomic adds.
//! * **Spans** — RAII [`Span`] timers with parent/child nesting, used
//!   to time the training phases (`epoch` → `select` / `train` →
//!   `round` → `local-train` / `aggregate` → `evaluate`). Each closed
//!   span feeds a `span.<name>` histogram and emits a `span` event.
//! * **Events** — a structured JSONL log streamed through a pluggable
//!   [`EventSink`]: [`MemorySink`] for tests, [`FileSink`] for runs.
//!   Event payloads are `fedl-json` [`Value`]s, so everything the
//!   simulator already serialises can go straight into the log.
//!
//! The handle is [`Clone`] + `Send` + `Sync`: the runner hands clones
//! to the environment, server, and ledger, and worker threads record
//! metrics through the same shared state.
//!
//! ## Disabled mode
//!
//! [`Telemetry::disabled`] (also [`Default`]) is a true no-op: the
//! handle holds no allocation, metric handles it vends are empty, and
//! every call is a branch on an `Option` — a few nanoseconds, so
//! instrumented code paths need no `if telemetry.enabled()` guards.
//!
//! ```
//! use fedl_telemetry::Telemetry;
//! use fedl_json::Value;
//!
//! let (tel, handle) = Telemetry::in_memory();
//! {
//!     let _epoch = tel.span("epoch");
//!     tel.counter("epochs").incr();
//!     tel.emit("note", vec![("msg", Value::from("hello"))]);
//! }
//! tel.emit_metrics();
//! let kinds: Vec<String> = handle
//!     .events()
//!     .unwrap()
//!     .iter()
//!     .map(|e| e.get("kind").unwrap().as_str().unwrap().to_string())
//!     .collect();
//! assert_eq!(kinds, vec!["note", "span", "metrics"]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dashboard;
pub mod event;
pub mod logging;
pub mod metrics;
pub mod render;
pub mod report;
pub mod runlog;
mod span;
pub mod trace;

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fedl_json::Value;

/// Version of the run-log event schema (docs/TELEMETRY.md). Emitters
/// stamp it into `run_start.schema_version`; readers that combine
/// several logs — the multi-run dashboard overlay — refuse to mix
/// logs whose versions differ. Logs without the field predate the
/// stamp and are treated as legacy version 0.
pub const RUN_LOG_SCHEMA_VERSION: u32 = 1;

pub use event::{EventSink, FileSink, MemoryHandle, MemorySink};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use render::Report;
pub use report::{ClientUsage, PhaseSplit, PhaseStats};
pub use runlog::RunLog;
pub use span::{Span, SpanContext};
pub use trace::{merge_traces, TraceModel};

use metrics::lock;

/// Shared state behind an enabled [`Telemetry`] handle.
pub(crate) struct Inner {
    pub(crate) registry: Registry,
    sink: Mutex<Box<dyn EventSink>>,
    seq: AtomicU64,
    trace_id: u64,
    next_span_id: AtomicU64,
    write_errors: AtomicU64,
}

/// One FNV-1a round over the little-endian bytes of `v`.
fn fnv1a(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A fresh process-unique trace id: FNV-1a over the wall clock, the
/// process id, and a per-process counter (so two handles created in
/// the same nanosecond still differ). Never zero.
fn fresh_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let mut h = 0xcbf2_9ce4_8422_2325;
    h = fnv1a(h, nanos);
    h = fnv1a(h, u64::from(std::process::id()));
    h = fnv1a(h, COUNTER.fetch_add(1, Ordering::Relaxed));
    if h == 0 {
        1
    } else {
        h
    }
}

impl Inner {
    /// Allocates a span id unique within this trace and, with high
    /// probability, across cooperating processes (the sequential
    /// counter is mixed with this handle's trace id, so two processes
    /// never hand out the same small integers).
    pub(crate) fn alloc_span_id(&self) -> u64 {
        let n = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        let id = fnv1a(fnv1a(0xcbf2_9ce4_8422_2325, self.trace_id), n);
        if id == 0 {
            1
        } else {
            id
        }
    }
    /// Serialises one event and appends it to the sink. The `kind`
    /// field leads the object and a monotonically increasing `seq`
    /// closes it, so logs merge and re-sort deterministically. Write
    /// failures are counted, never propagated: telemetry must not take
    /// down a training run (and `Span` emits from `Drop`).
    pub(crate) fn emit(&self, kind: &str, fields: Vec<(String, Value)>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut pairs = Vec::with_capacity(fields.len() + 2);
        pairs.push(("kind".to_string(), Value::from(kind)));
        pairs.extend(fields);
        pairs.push(("seq".to_string(), Value::Int(seq as i64)));
        let line = Value::Obj(pairs).to_json();
        if lock(&self.sink).write_line(&line).is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Handle to the observability pipeline; clone it freely.
///
/// See the [crate docs](crate) for the three layers it fronts. A
/// disabled handle (from [`Telemetry::disabled`] or [`Default`]) turns
/// every operation into a no-op.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op handle: records nothing, emits nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle streaming events into `sink`.
    pub fn with_sink(sink: Box<dyn EventSink>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                registry: Registry::new(),
                sink: Mutex::new(sink),
                seq: AtomicU64::new(0),
                trace_id: fresh_trace_id(),
                next_span_id: AtomicU64::new(1),
                write_errors: AtomicU64::new(0),
            })),
        }
    }

    /// An enabled handle capturing events in memory, plus the handle
    /// that reads them back. Meant for tests.
    pub fn in_memory() -> (Self, MemoryHandle) {
        let (sink, handle) = MemorySink::new();
        (Self::with_sink(Box::new(sink)), handle)
    }

    /// An enabled handle streaming JSONL to `path` (truncates; creates
    /// parent directories).
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::with_sink(Box::new(FileSink::create(path)?)))
    }

    /// `true` when this handle actually records.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Named monotonic counter (no-op handle when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name),
            None => Counter::default(),
        }
    }

    /// Named gauge (no-op handle when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name),
            None => Gauge::default(),
        }
    }

    /// Named histogram (no-op handle when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name),
            None => Histogram::default(),
        }
    }

    /// Opens a root phase timer; the measurement lands when the
    /// returned [`Span`] drops. Nest further phases under it with
    /// [`Span::child`] — parentage is recorded explicitly, never
    /// inferred from call order or thread state.
    pub fn span(&self, name: &'static str) -> Span {
        match &self.inner {
            Some(inner) => {
                let ctx = SpanContext { trace_id: inner.trace_id, span_id: inner.alloc_span_id() };
                Span::start(Arc::clone(inner), ctx, None, None, 0, name)
            }
            None => Span::noop(),
        }
    }

    /// Opens a span under a parent identified only by its
    /// [`SpanContext`] — the cross-boundary variant of [`Span::child`]
    /// for parents living in another thread or another process. The
    /// span adopts the parent's trace id and records its span id as
    /// `parent_id`; the parent's *name* is unknown here, so the `parent`
    /// field stays null. With `parent == None` (a peer that sent no
    /// trace context) the span is still emitted, just unlinked.
    pub fn span_in(&self, name: &'static str, parent: Option<SpanContext>) -> Span {
        match &self.inner {
            Some(inner) => match parent {
                Some(p) => {
                    let ctx = SpanContext { trace_id: p.trace_id, span_id: inner.alloc_span_id() };
                    Span::start(Arc::clone(inner), ctx, Some(p), None, 1, name)
                }
                None => self.span(name),
            },
            None => Span::noop(),
        }
    }

    /// Appends one structured event to the log. `kind` is prepended as
    /// the leading field; a sequence number is appended.
    pub fn emit(&self, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        if let Some(inner) = &self.inner {
            inner.emit(kind, fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
        }
    }

    /// The full registry snapshot as a JSON value — the same shape the
    /// `metrics` event carries (`{"counters":…,"gauges":…,"histograms":…}`).
    /// This is what a live `Stats` protocol request answers with. A
    /// disabled handle returns an empty object.
    pub fn registry_snapshot(&self) -> Value {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => Value::Obj(Vec::new()),
        }
    }

    /// Emits a `metrics` event carrying the full registry snapshot
    /// (counters, gauges, histogram summaries).
    pub fn emit_metrics(&self) {
        if let Some(inner) = &self.inner {
            let snapshot = inner.registry.snapshot();
            inner.emit("metrics", vec![("registry".to_string(), snapshot)]);
        }
    }

    /// Flushes the sink (file sinks buffer). Errors are absorbed into
    /// [`write_errors`](Self::write_errors).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if lock(&inner.sink).flush().is_err() {
                inner.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of sink writes/flushes that failed since creation.
    pub fn write_errors(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.write_errors.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.enabled()).finish()
    }
}

/// See docs/BUILD.md "Where tests live".
#[cfg(test)]
pub(crate) fn scratch_dir(test: &str) -> std::path::PathBuf {
    let binary = env!("CARGO_CRATE_NAME");
    let dir = std::env::temp_dir().join(format!("fedl-{binary}-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_kind_and_sequence() {
        let (tel, handle) = Telemetry::in_memory();
        tel.emit("alpha", vec![("x", Value::Int(1))]);
        tel.emit("beta", vec![("y", Value::from("z"))]);
        let events = handle.events().unwrap();
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("alpha"));
        assert_eq!(events[0].get("seq").unwrap().as_i64(), Some(0));
        assert_eq!(events[1].get("kind").unwrap().as_str(), Some("beta"));
        assert_eq!(events[1].get("seq").unwrap().as_i64(), Some(1));
        // "kind" is the leading field in the serialised line.
        assert!(handle.lines()[0].starts_with(r#"{"kind":"alpha""#));
    }

    #[test]
    fn metrics_event_snapshots_the_registry() {
        let (tel, handle) = Telemetry::in_memory();
        tel.counter("c").add(3);
        tel.gauge("g").set(2.5);
        tel.histogram("h").record(1.0);
        tel.emit_metrics();
        let events = handle.events().unwrap();
        let registry = events[0].get("registry").unwrap();
        assert_eq!(registry.get("counters").unwrap().get("c").unwrap().as_i64(), Some(3));
        assert_eq!(registry.get("gauges").unwrap().get("g").unwrap().as_f64(), Some(2.5));
        let h = registry.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn disabled_handle_is_inert_and_cheap() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        tel.counter("c").incr();
        tel.gauge("g").set(1.0);
        tel.histogram("h").record(1.0);
        tel.emit("kind", vec![("f", Value::Int(1))]);
        tel.emit_metrics();
        tel.flush();
        assert_eq!(tel.counter("c").value(), 0);
        assert_eq!(tel.write_errors(), 0);
        assert_eq!(format!("{tel:?}"), "Telemetry { enabled: false }");
    }

    #[test]
    fn clones_share_state() {
        let (tel, handle) = Telemetry::in_memory();
        let clone = tel.clone();
        clone.counter("shared").incr();
        tel.counter("shared").incr();
        assert_eq!(tel.counter("shared").value(), 2);
        clone.emit("from-clone", vec![]);
        assert_eq!(handle.len(), 1);
    }

    #[test]
    fn failing_sink_is_counted_not_fatal() {
        struct Broken;
        impl EventSink for Broken {
            fn write_line(&mut self, _line: &str) -> io::Result<()> {
                Err(io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("disk gone"))
            }
        }
        let tel = Telemetry::with_sink(Box::new(Broken));
        tel.emit("e", vec![]);
        tel.flush();
        assert_eq!(tel.write_errors(), 2);
    }
}
