//! In-memory spans for the traced pass, recorded from the benchmark's
//! own files around the calls into each layer.
//!
//! Every thread of a traced run owns a [`Tracer`]; ids come from one
//! process-wide counter and timestamps from one process-wide origin, so
//! the per-thread span lists merge by concatenation. A layer's *self
//! time* is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use fedl_json::{obj, Value};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u64>,
    /// The epoch the work belongs to, when it belongs to one.
    pub epoch: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since the first call in this process (monotonic, shared
/// by all threads).
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span that has started and not yet ended.
#[must_use = "an open span records nothing until Tracer::close"]
pub struct OpenSpan {
    pub id: u64,
    name: &'static str,
    start_ns: u64,
    parent: Option<u64>,
    epoch: Option<u64>,
}

/// One thread's span list.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>, epoch: Option<u64>) -> OpenSpan {
        // Relaxed: the counter only hands out distinct numbers.
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        OpenSpan { id, name, start_ns: now_ns(), parent, epoch }
    }

    pub fn close(&mut self, open: OpenSpan) {
        let end_ns = now_ns();
        self.spans.push(Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            parent: open.parent,
            epoch: open.epoch,
        });
    }

    /// Records a span around `f`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        epoch: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, epoch);
        let out = f();
        self.close(open);
        out
    }

    /// Records an interval measured elsewhere (timestamps from
    /// [`now_ns`]) and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u64>,
        epoch: Option<u64>,
    ) -> u64 {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span { id, name, start_ns, end_ns, parent, epoch });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Makes every parentless span named `child` a child of the span named
/// `parent` that carries the same epoch — how spans recorded on a server
/// thread are hung under the client-side request that caused them. The
/// child is clipped to the parent's interval: the server thread stamps the
/// end of its frame span after its `send` returns, by when the client may
/// already hold the reply; that overhang is no part of the request, and
/// unclipped it would add to the epoch tree's self times however long the
/// server thread happened to stay descheduled.
pub fn adopt_by_epoch(spans: &mut [Span], child: &str, parent: &str) {
    let parents: HashMap<u64, (u64, u64, u64)> = spans
        .iter()
        .filter(|s| s.name == parent)
        .filter_map(|s| s.epoch.map(|e| (e, (s.id, s.start_ns, s.end_ns))))
        .collect();
    for s in spans.iter_mut().filter(|s| s.name == child && s.parent.is_none()) {
        if let Some(&(id, start_ns, end_ns)) = s.epoch.and_then(|e| parents.get(&e)) {
            s.parent = Some(id);
            s.start_ns = s.start_ns.clamp(start_ns, end_ns);
            s.end_ns = s.end_ns.clamp(start_ns, end_ns);
        }
    }
}

/// Self time of every span, by id: duration minus the part of the span's
/// interval that its children cover (overlapping children count once;
/// a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Total self time and call count per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub self_ns: u64,
    pub calls: u64,
}

pub fn totals_by_name(spans: &[Span]) -> HashMap<&'static str, LayerTotal> {
    let own = self_times(spans);
    let mut out: HashMap<&'static str, LayerTotal> = HashMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.self_ns += own[&s.id];
        t.calls += 1;
    }
    out
}

/// The trace file: `{"workload":…,"spans":[{id,name,start_ns,end_ns,parent,epoch}…]}`.
pub fn trace_json(workload: &str, spans: &[Span]) -> String {
    let opt = |v: Option<u64>| v.map_or(Value::Null, |x| Value::Int(x as i64));
    let rows = spans
        .iter()
        .map(|s| {
            obj(vec![
                ("id", Value::Int(s.id as i64)),
                ("name", Value::from(s.name)),
                ("start_ns", Value::Int(s.start_ns as i64)),
                ("end_ns", Value::Int(s.end_ns as i64)),
                ("parent", opt(s.parent)),
                ("epoch", opt(s.epoch)),
            ])
        })
        .collect();
    obj(vec![("workload", Value::from(workload)), ("spans", Value::Arr(rows))]).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span { id, name, start_ns: start, end_ns: end, parent, epoch: Some(0) }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, "epoch", 0, 100, None),
            span(2, "solve", 10, 40, Some(1)),
            span(3, "train", 50, 90, Some(1)),
            span(4, "gemm", 60, 70, Some(3)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 30); // 100 − (30 + 40)
        assert_eq!(own[&2], 30);
        assert_eq!(own[&3], 30); // 40 − 10
        assert_eq!(own[&4], 10);
        // Self times of a tree add up to the root's duration.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(1, "epoch", 100, 200, None),
            // Two workers in parallel: 110–150 and 130–170 cover 60.
            span(2, "worker", 110, 150, Some(1)),
            span(3, "worker", 130, 170, Some(1)),
            // Starts inside, ends after the parent: clipped to 190–200.
            span(4, "late", 190, 250, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 60 - 10);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["worker"], LayerTotal { self_ns: 80, calls: 2 });
    }

    #[test]
    fn adoption_matches_on_epoch() {
        let mut spans = vec![
            Span { epoch: Some(7), ..span(1, "rpc", 0, 50, None) },
            Span { epoch: Some(8), ..span(2, "rpc", 50, 90, None) },
            Span { epoch: Some(8), ..span(3, "frame", 55, 80, None) },
            Span { epoch: Some(9), ..span(4, "frame", 95, 99, None) },
            // Ends after the request that caused it: clipped to 40–50.
            Span { epoch: Some(7), ..span(5, "frame", 40, 60, None) },
        ];
        adopt_by_epoch(&mut spans, "frame", "rpc");
        assert_eq!(spans[2].parent, Some(2));
        assert_eq!(spans[3].parent, None, "no rpc span carries epoch 9");
        assert_eq!((spans[4].parent, spans[4].start_ns, spans[4].end_ns), (Some(1), 40, 50));
        let own = self_times(&spans);
        assert_eq!(own[&2], 40 - 25);
        assert_eq!(own[&1] + own[&5], 50, "an adopted span never adds to its parent's wall");
    }

    #[test]
    fn tracer_records_nested_spans_with_distinct_ids() {
        let mut tr = Tracer::new();
        let outer = tr.open("outer", None, Some(3));
        let outer_id = outer.id;
        tr.time("inner", Some(outer_id), Some(3), || std::hint::black_box(1 + 1));
        tr.close(outer);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(outer_id));
        assert_ne!(spans[0].id, spans[1].id);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        let text = trace_json("w", &spans);
        assert!(text.contains("\"name\":\"inner\"") && text.contains("\"parent\":null"));
    }
}
