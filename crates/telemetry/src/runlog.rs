//! The run-log reader: a JSONL event stream (from [`crate::FileSink`]
//! or a [`crate::MemoryHandle`]) parsed once into typed rows.
//! [`RunLog::parse`] is the only code that reads an event's `kind` or
//! field names (schema: docs/TELEMETRY.md); `telemetry-report`, the
//! dashboard and `trace-report` walk the rows. It is lenient where a
//! crash report needs it: a line that is not JSON is skipped and
//! counted, a log without a `run_start` stamp is legacy, an event
//! missing the field its row is keyed on (a span's name or duration, an
//! epoch index) files no row, and any other missing number reads as NaN,
//! a missing list as empty.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use fedl_json::Value;

use crate::SpanContext;

/// A run log parsed into typed rows, each kind's in log order.
#[derive(Debug, Clone, Default)]
pub struct RunLog {
    skipped: usize,
    kinds: BTreeMap<String, usize>,
    policy: Option<String>,
    schema_version: Option<u64>,
    /// The `span` rows.
    pub spans: Vec<SpanRow>,
    /// The `select` rows.
    pub selects: Vec<SelectRow>,
    /// The `train` rows.
    pub trains: Vec<TrainRow>,
    /// The `epoch` rows.
    pub epochs: Vec<EpochRow>,
    /// The `dist.worker_frame` rows that name an epoch.
    pub frames: Vec<FrameRow>,
}

/// One closed phase timer (`span`).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Phase name, e.g. `run-epoch`.
    pub name: String,
    /// The parent span's name, when it was opened in this process.
    pub parent: Option<String>,
    /// Duration in seconds.
    pub secs: f64,
    /// Trace id, shared by every process of one run.
    pub trace_id: Option<u64>,
    /// This span's id.
    pub span_id: Option<u64>,
    /// The parent span's id, possibly in another process.
    pub parent_id: Option<u64>,
    /// The epoch a `dist.*` span timed.
    pub epoch: Option<usize>,
    /// The worker a coordinator wait span waited on.
    pub worker: Option<usize>,
}

/// One `select` decision: whom the policy rented, before dropouts.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectRow {
    /// Epoch index.
    pub epoch: usize,
    /// Selected client ids.
    pub cohort: Vec<usize>,
    /// The policy's estimate per `cohort` client (FedL's η̂ₖ, else NaN).
    pub estimates: Vec<f64>,
}

/// One `train` event: who was paid what, where survivors' time went.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainRow {
    /// Every rented client, survivor or not.
    pub charged: Vec<usize>,
    /// Rent per `charged` client.
    pub per_client_cost: Vec<f64>,
    /// Rented clients that dropped out mid-epoch.
    pub failed: Vec<usize>,
    /// Surviving client ids.
    pub cohort: Vec<usize>,
    /// Local iterations run (1 when absent).
    pub iterations: f64,
    /// Seconds per iteration per `cohort` client.
    pub per_client_iter_latency: Vec<f64>,
    /// Compute share of the iteration per `cohort` client (empty under
    /// the min-makespan allocator, which interleaves phases).
    pub per_client_compute_secs: Vec<f64>,
    /// Upload share of the iteration per `cohort` client.
    pub per_client_upload_secs: Vec<f64>,
}

/// One `epoch` summary.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRow {
    /// Epoch index.
    pub epoch: usize,
    /// Cumulative dynamic regret (NaN for policies without a tracker).
    pub regret: f64,
    /// Budget left after the epoch's rent.
    pub budget_remaining: f64,
    /// Global training loss after the epoch.
    pub global_loss: Option<f64>,
}

/// One worker-side `dist.worker_frame` codec timing about an epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRow {
    /// The epoch the frame was about.
    pub epoch: usize,
    /// Request decode time in seconds.
    pub decode_secs: f64,
    /// Reply encode time in seconds.
    pub encode_secs: f64,
}

impl RunLog {
    /// Parses JSONL text, one event per non-blank line. Malformed lines
    /// are skipped and counted ([`RunLog::skipped_lines`]), never fatal:
    /// a crash report is exactly when the rest of the log matters most.
    pub fn parse(text: &str) -> Self {
        let mut log = Self::default();
        log.skipped = fedl_json::parse_lines(text, |event| {
            log.push(event);
            Ok(())
        });
        log
    }

    /// Reads and parses a JSONL log file.
    pub fn read(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Ok(Self::parse(&text))
    }

    /// Files one event: counts its kind and, for the kinds the readers
    /// use, adds its typed row.
    fn push(&mut self, event: &Value) {
        let kind = event.get("kind").and_then(Value::as_str);
        let seen = self.kinds.entry(kind.unwrap_or("<missing kind>").to_string()).or_default();
        *seen += 1;
        let first = *seen == 1;
        let num = |key: &str| event.get(key).and_then(Value::as_f64);
        let index = |key: &str| event.get(key).and_then(Value::as_usize);
        let text = |key: &str| event.get(key).and_then(Value::as_str);
        let owned = |key: &str| text(key).map(str::to_string);
        let id = |key: &str| text(key).and_then(SpanContext::parse_id);
        let list = |key: &str| event.get(key).and_then(Value::as_arr).unwrap_or_default();
        let ids =
            |key: &str| -> Vec<usize> { list(key).iter().filter_map(Value::as_usize).collect() };
        let nums = |key: &str| -> Vec<f64> {
            list(key).iter().map(|v| v.as_f64().unwrap_or(f64::NAN)).collect()
        };
        match kind {
            Some("run_start") if first => {
                self.policy = owned("policy");
                self.schema_version = index("schema_version").map(|v| v as u64);
            }
            Some("span") => {
                let (Some(name), Some(secs)) = (owned("name"), num("secs")) else { return };
                self.spans.push(SpanRow {
                    name,
                    parent: owned("parent"),
                    secs,
                    trace_id: id("trace_id"),
                    span_id: id("span_id"),
                    parent_id: id("parent_id"),
                    epoch: index("epoch"),
                    worker: index("worker"),
                });
            }
            Some("select") => {
                let Some(epoch) = index("epoch") else { return };
                self.selects.push(SelectRow {
                    epoch,
                    cohort: ids("cohort"),
                    estimates: nums("estimates"),
                });
            }
            Some("train") => self.trains.push(TrainRow {
                charged: ids("charged"),
                per_client_cost: nums("per_client_cost"),
                failed: ids("failed"),
                cohort: ids("cohort"),
                iterations: num("iterations").unwrap_or(1.0),
                per_client_iter_latency: nums("per_client_iter_latency"),
                per_client_compute_secs: nums("per_client_compute_secs"),
                per_client_upload_secs: nums("per_client_upload_secs"),
            }),
            Some("epoch") => {
                let Some(epoch) = index("epoch") else { return };
                self.epochs.push(EpochRow {
                    epoch,
                    regret: num("regret").unwrap_or(f64::NAN),
                    budget_remaining: num("budget_remaining").unwrap_or(f64::NAN),
                    global_loss: num("global_loss"),
                });
            }
            Some("dist.worker_frame") => {
                let Some(epoch) = index("epoch") else { return };
                let secs = |key: &str| num(key).unwrap_or(0.0).max(0.0) / 1e9;
                self.frames.push(FrameRow {
                    epoch,
                    decode_secs: secs("decode_ns"),
                    encode_secs: secs("encode_ns"),
                });
            }
            _ => {}
        }
    }

    /// Number of malformed (unparseable) lines [`RunLog::parse`]
    /// skipped.
    pub fn skipped_lines(&self) -> usize {
        self.skipped
    }

    /// Number of events parsed, of every kind.
    pub fn event_count(&self) -> usize {
        self.kinds.values().sum()
    }

    /// How many events of each `kind` the log holds, sorted by kind.
    pub fn kind_counts(&self) -> Vec<(String, usize)> {
        self.kinds.iter().map(|(kind, count)| (kind.clone(), *count)).collect()
    }

    /// The subset of `required` kinds absent from the log.
    pub fn missing_kinds(&self, required: &[&str]) -> Vec<String> {
        required
            .iter()
            .filter(|kind| !self.kinds.contains_key(**kind))
            .map(|kind| kind.to_string())
            .collect()
    }

    /// The run-log schema version stamped into `run_start`
    /// (`crate::RUN_LOG_SCHEMA_VERSION` at emit time); `None` for
    /// legacy logs that predate the stamp (or hold no `run_start`).
    pub fn schema_version(&self) -> Option<u64> {
        self.schema_version
    }

    /// The policy that produced this run (`run_start.policy`), if
    /// recorded.
    pub fn policy_name(&self) -> Option<&str> {
        self.policy.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_counts_kinds() {
        let text = concat!(
            r#"{"kind":"run_start","seed":7}"#,
            "\n",
            r#"{"kind":"span","name":"epoch","parent":null,"depth":0,"secs":0.5}"#,
            "\n\n",
            r#"{"kind":"run_end","epochs":1}"#,
            "\n",
            r#"{"no_kind":true}"#,
        );
        let log = RunLog::parse(text);
        assert_eq!(log.event_count(), 4);
        assert_eq!(log.skipped_lines(), 0);
        assert_eq!(
            log.kind_counts(),
            vec![
                ("<missing kind>".to_string(), 1),
                ("run_end".to_string(), 1),
                ("run_start".to_string(), 1),
                ("span".to_string(), 1)
            ]
        );
        assert_eq!(log.missing_kinds(&["run_start", "ledger"]), vec!["ledger".to_string()]);
    }

    #[test]
    fn each_kind_files_one_typed_row() {
        let text = concat!(
            r#"{"kind":"span","name":"dist.context","parent":null,"trace_id":"00000000000000aa","#,
            r#""span_id":"0000000000000011","parent_id":"0000000000000010","secs":0.5,"#,
            r#""worker":1,"epoch":3}"#,
            "\n",
            r#"{"kind":"select","epoch":0,"cohort":[3,7],"estimates":[0.2,null]}"#,
            "\n",
            r#"{"kind":"train","epoch":0,"cohort":[3],"failed":[7],"charged":[3,7],"#,
            r#""per_client_cost":[1.0,2.0],"per_client_iter_latency":[0.5]}"#,
            "\n",
            r#"{"kind":"epoch","epoch":0,"budget_remaining":97.0,"regret":0.5}"#,
            "\n",
            r#"{"kind":"dist.worker_frame","epoch":2,"decode_ns":4000,"encode_ns":-1}"#,
            "\n",
            r#"{"kind":"dist.worker_frame","type":"hello","decode_ns":4000}"#,
        );
        let log = RunLog::parse(text);
        assert_eq!(
            log.spans,
            [SpanRow {
                name: "dist.context".to_string(),
                parent: None,
                secs: 0.5,
                trace_id: Some(0xaa),
                span_id: Some(0x11),
                parent_id: Some(0x10),
                epoch: Some(3),
                worker: Some(1),
            }]
        );
        let select = &log.selects[0];
        assert_eq!((select.epoch, &select.cohort[..]), (0, &[3, 7][..]));
        assert_eq!(select.estimates[0], 0.2);
        assert!(select.estimates[1].is_nan(), "null estimates read as NaN");
        let train = &log.trains[0];
        assert_eq!((train.iterations, &train.charged[..]), (1.0, &[3, 7][..]));
        assert!(train.per_client_compute_secs.is_empty(), "absent lists read as empty");
        let epoch = &log.epochs[0];
        assert_eq!((epoch.epoch, epoch.budget_remaining, epoch.global_loss), (0, 97.0, None));
        assert_eq!(log.frames, [FrameRow { epoch: 2, decode_secs: 4e-6, encode_secs: 0.0 }]);
    }

    #[test]
    fn rows_need_their_key_field() {
        let log = RunLog::parse(concat!(
            r#"{"kind":"span","name":"epoch"}"#,
            "\n",
            r#"{"kind":"span","secs":1.0}"#,
            "\n",
            r#"{"kind":"select","cohort":[1]}"#,
            "\n",
            r#"{"kind":"epoch","regret":1.0}"#,
        ));
        assert_eq!(log.event_count(), 4, "counted as events");
        assert!(log.spans.is_empty() && log.selects.is_empty() && log.epochs.is_empty());
    }

    #[test]
    fn run_start_surfaces_policy_and_schema_version() {
        let log =
            RunLog::parse(r#"{"kind":"run_start","policy":"FedL","schema_version":1,"seed":7}"#);
        assert_eq!(log.policy_name(), Some("FedL"));
        assert_eq!(log.schema_version(), Some(1));
        // Legacy logs (no stamp / no run_start) report None.
        let legacy = RunLog::parse(r#"{"kind":"run_start","policy":"FedAvg"}"#);
        assert_eq!(legacy.policy_name(), Some("FedAvg"));
        assert_eq!(legacy.schema_version(), None);
        assert_eq!(RunLog::parse("").policy_name(), None);
    }
}
