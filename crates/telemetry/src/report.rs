//! Offline analysis of a parsed [`RunLog`]: how long each phase took
//! and what each client was paid, and the `experiments
//! telemetry-report` report. Phase quantiles here are exact (computed
//! from the raw per-span durations in the log), unlike the ~6% bucketed
//! estimates the live [`crate::Histogram`] gives.

use std::collections::BTreeMap;

use crate::render::{Col, Report};
use crate::RunLog;

/// Everything the log attributes to one client: how often it was
/// rented, what it was paid, where its time went, and the policy's
/// latest quality estimate for it. Aggregated by
/// [`RunLog::client_usage`] from the `select` and `train` rows
/// (see docs/TELEMETRY.md).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClientUsage {
    /// Client id `k`.
    pub client: usize,
    /// Epochs in which the policy committed to renting this client
    /// (pre-dropout, from `select.cohort`).
    pub selections: usize,
    /// Epochs in which the client was rented but dropped out mid-epoch.
    pub failures: usize,
    /// Cumulative rent paid to the client (`train.per_client_cost`).
    pub payment: f64,
    /// Cumulative busy time in simulated seconds
    /// (`per_client_iter_latency × iterations` over surviving epochs).
    pub total_secs: f64,
    /// Compute share of [`ClientUsage::total_secs`] (absent under the
    /// min-makespan bandwidth allocator, which interleaves phases).
    pub compute_secs: f64,
    /// Upload share of [`ClientUsage::total_secs`].
    pub upload_secs: f64,
    /// The policy's most recent quality estimate for this client
    /// (FedL's smoothed η̂ₖ); `None` for policies without per-client
    /// memory.
    pub last_estimate: Option<f64>,
}

/// Timing summary for one span name (a training phase).
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Span name, e.g. `local-train`.
    pub name: String,
    /// Number of times the phase ran.
    pub count: usize,
    /// Total seconds across all runs.
    pub total_secs: f64,
    /// Median duration in seconds.
    pub p50: f64,
    /// 90th-percentile duration in seconds.
    pub p90: f64,
    /// 99th-percentile duration in seconds.
    pub p99: f64,
    /// Longest single run in seconds.
    pub max: f64,
}

/// Where one phase's time went: the spans opened directly under it, by
/// name, and the remainder none of them covers (the phase's self time).
#[derive(Debug, Clone)]
pub struct PhaseSplit {
    /// The parent span name, e.g. `run-epoch`.
    pub name: String,
    /// Number of times the parent ran.
    pub count: usize,
    /// Total seconds across all runs of the parent.
    pub total_secs: f64,
    /// Total seconds per child span name, largest first.
    pub children: Vec<(String, f64)>,
}

impl PhaseSplit {
    /// Parent time no child span covers. Negative when children ran
    /// concurrently and together outlasted their parent.
    pub fn unattributed_secs(&self) -> f64 {
        self.total_secs - self.children.iter().map(|(_, secs)| secs).sum::<f64>()
    }

    /// The split on one line: the parent's mean duration, then each
    /// child's share of it, then the unattributed remainder.
    pub fn line(&self) -> String {
        let share = |secs: f64| {
            let mean = secs / self.count as f64;
            format!("{:.1}% ({})", 100.0 * secs / self.total_secs, fmt_secs(mean))
        };
        let mut line = format!(
            "{} {} ×{}:",
            self.name,
            fmt_secs(self.total_secs / self.count as f64),
            self.count
        );
        for (child, secs) in &self.children {
            line.push_str(&format!(" {child} {} ·", share(*secs)));
        }
        line.push_str(&format!(" unattributed {}", share(self.unattributed_secs())));
        line
    }
}

impl RunLog {
    /// Per-phase timing statistics from the span rows, with exact
    /// quantiles, sorted by total time descending.
    pub fn phase_stats(&self) -> Vec<PhaseStats> {
        let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for span in &self.spans {
            durations.entry(&span.name).or_default().push(span.secs);
        }
        let mut stats: Vec<PhaseStats> = durations
            .into_iter()
            .map(|(name, mut secs)| {
                secs.sort_by(|a, b| a.total_cmp(b));
                PhaseStats {
                    name: name.to_string(),
                    count: secs.len(),
                    total_secs: secs.iter().sum(),
                    p50: exact_quantile(&secs, 0.50),
                    p90: exact_quantile(&secs, 0.90),
                    p99: exact_quantile(&secs, 0.99),
                    max: *secs.last().expect("entry implies at least one sample"),
                }
            })
            .collect();
        stats.sort_by(|a, b| b.total_secs.total_cmp(&a.total_secs));
        stats
    }

    /// The phase tree, one level at a time: for every span name that has
    /// spans opened directly under it (their `parent` name), where its
    /// time went — largest parent first.
    pub fn phase_splits(&self) -> Vec<PhaseSplit> {
        let mut children: BTreeMap<&str, BTreeMap<&str, f64>> = BTreeMap::new();
        for span in &self.spans {
            let Some(parent) = &span.parent else { continue };
            *children.entry(parent).or_default().entry(&span.name).or_default() += span.secs;
        }
        self.phase_stats()
            .into_iter()
            .filter(|stats| stats.total_secs > 0.0)
            .filter_map(|stats| {
                let mut under: Vec<(String, f64)> = children
                    .get(stats.name.as_str())?
                    .iter()
                    .map(|(name, secs)| (name.to_string(), *secs))
                    .collect();
                under.sort_by(|a, b| b.1.total_cmp(&a.1));
                Some(PhaseSplit {
                    name: stats.name,
                    count: stats.count,
                    total_secs: stats.total_secs,
                    children: under,
                })
            })
            .collect()
    }

    /// Per-client aggregation of the `select` / `train` rows, sorted by
    /// cumulative payment descending (budget attribution order), ties
    /// by client id. Clients the log never mentions do not appear.
    pub fn client_usage(&self) -> Vec<ClientUsage> {
        let mut usage: BTreeMap<usize, ClientUsage> = BTreeMap::new();
        fn entry(usage: &mut BTreeMap<usize, ClientUsage>, k: usize) -> &mut ClientUsage {
            usage.entry(k).or_insert_with(|| ClientUsage { client: k, ..ClientUsage::default() })
        }
        for select in &self.selects {
            for (slot, &k) in select.cohort.iter().enumerate() {
                let u = entry(&mut usage, k);
                u.selections += 1;
                if let Some(&est) = select.estimates.get(slot).filter(|e| e.is_finite()) {
                    u.last_estimate = Some(est);
                }
            }
        }
        for train in &self.trains {
            // Rent: owed for the full commitment (`charged`), survivor
            // or not.
            for (slot, &k) in train.charged.iter().enumerate() {
                entry(&mut usage, k).payment +=
                    train.per_client_cost.get(slot).copied().unwrap_or(0.0);
            }
            for &k in &train.failed {
                entry(&mut usage, k).failures += 1;
            }
            // Time: survivors only (`cohort`), per-iteration latencies ×
            // iterations.
            for (slot, &k) in train.cohort.iter().enumerate() {
                let u = entry(&mut usage, k);
                let busy = |column: &[f64]| {
                    column.get(slot).filter(|s| s.is_finite()).map_or(0.0, |s| s * train.iterations)
                };
                u.total_secs += busy(&train.per_client_iter_latency);
                u.compute_secs += busy(&train.per_client_compute_secs);
                u.upload_secs += busy(&train.per_client_upload_secs);
            }
        }
        let mut usage: Vec<ClientUsage> = usage.into_values().collect();
        usage.sort_by(|a, b| b.payment.total_cmp(&a.payment).then(a.client.cmp(&b.client)));
        usage
    }

    /// The `experiments telemetry-report` report: event-kind counts, the
    /// per-phase timing table, and under it one line per parent phase
    /// saying where its time went ([`PhaseSplit::line`]).
    pub fn report(&self) -> Report {
        let mut report = Report::new("FedL run log");
        report.note(format!("events: {}", self.event_count()));
        // Always present, even at zero, so multi-log output lines up
        // with `experiments trace-report`'s per-input summaries.
        report.note(format!("skipped {} malformed line(s)", self.skipped_lines()));
        let kinds = self.kind_counts();
        report.table(
            "Event kinds",
            vec![Col::left("", 12).pad(2), Col::right("", 6)],
            kinds.into_iter().map(|(kind, count)| vec![kind, count.to_string()]).collect(),
        );
        let stats = self.phase_stats();
        if stats.is_empty() {
            report.note("no span events in log");
            return report;
        }
        report.ascii("\n");
        let rows = stats
            .iter()
            .map(|s| {
                let mut row = vec![s.name.clone(), s.count.to_string()];
                row.extend([s.total_secs, s.p50, s.p90, s.p99, s.max].map(fmt_secs));
                row
            })
            .collect();
        let mut cols = vec![Col::left("phase", 14), Col::right("count", 7)];
        cols.extend(["total", "p50", "p90", "p99", "max"].map(|head| Col::right(head, 12)));
        report.table("Phase timing", cols, rows);
        let splits = self.phase_splits();
        if !splits.is_empty() {
            report.ascii("\n");
            report.note("where each phase's time went (share of the parent, mean per run):");
            for split in splits {
                report.note(format!("  {}", split.line()));
            }
        }
        report
    }
}

/// Linear-interpolated quantile over an ascending-sorted slice.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => f64::NAN,
        [only] => *only,
        _ => {
            let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }
}

/// Scales seconds to a readable unit (s / ms / µs).
pub(crate) fn fmt_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else {
        format!("{:.1}µs", secs * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(name: &str, secs: f64) -> String {
        format!(r#"{{"kind":"span","name":"{name}","parent":null,"depth":0,"secs":{secs}}}"#)
    }

    #[test]
    fn phase_stats_are_exact_and_sorted_by_total() {
        let mut text = String::new();
        for i in 1..=100 {
            text.push_str(&span_line("fast", i as f64 / 1000.0));
            text.push('\n');
        }
        text.push_str(&span_line("slow", 60.0));
        text.push('\n');
        let log = RunLog::parse(&text);
        let stats = log.phase_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "slow", "sorted by total time descending");
        assert_eq!(stats[0].count, 1);
        assert_eq!(stats[0].p50, 60.0);
        let fast = &stats[1];
        assert_eq!(fast.count, 100);
        assert!((fast.p50 - 0.0505).abs() < 1e-9, "p50 was {}", fast.p50);
        assert!((fast.p90 - 0.0901).abs() < 1e-9, "p90 was {}", fast.p90);
        assert!((fast.max - 0.1).abs() < 1e-12);
    }

    #[test]
    fn report_renders_counts_and_table() {
        let text = format!("{}\n{}\n", span_line("epoch", 1.5), span_line("epoch", 0.5));
        let log = RunLog::parse(&text);
        let report = log.report().text();
        assert!(report.contains("events: 2"));
        assert!(report.contains("span"));
        assert!(report.contains("epoch"));
        assert!(report.contains("2.000s"), "total column: {report}");
    }

    #[test]
    fn reports_surface_skipped_lines() {
        let log = RunLog::parse("{\"kind\":\"x\"}\nnot json\n{\"kind\":\"y\"}\n");
        assert_eq!((log.event_count(), log.skipped_lines()), (2, 1), "good lines survive");
        assert!(log.report().text().contains("skipped 1 malformed line"));
        assert!(crate::dashboard::single(&log).text().contains("skipped 1 malformed line"));
    }

    #[test]
    fn truncated_tail_is_skipped_not_fatal() {
        // A run killed mid-write leaves a partial final line.
        let text = format!("{}\n{}", span_line("epoch", 0.5), r#"{"kind":"epoch","coh"#);
        let log = RunLog::parse(&text);
        assert_eq!((log.event_count(), log.skipped_lines()), (1, 1));
        assert_eq!(log.phase_stats().len(), 1, "analysis still works on the rest");
    }

    fn select_line(epoch: usize, cohort: &str, estimates: &str) -> String {
        format!(r#"{{"kind":"select","epoch":{epoch},"cohort":{cohort},"estimates":{estimates}}}"#)
    }

    fn train_line(epoch: usize) -> String {
        // Clients 3 and 7 rented; 7 drops out mid-epoch (pays rent,
        // contributes no time). Two iterations each.
        format!(
            concat!(
                r#"{{"kind":"train","epoch":{},"cohort":[3],"failed":[7],"iterations":2,"#,
                r#""per_client_iter_latency":[0.5],"cost":3.0,"charged":[3,7],"#,
                r#""per_client_cost":[1.0,2.0],"per_client_compute_secs":[0.4],"#,
                r#""per_client_upload_secs":[0.1]}}"#
            ),
            epoch
        )
    }

    #[test]
    fn client_usage_aggregates_rent_time_and_estimates() {
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            select_line(0, "[3,7]", "[0.2,0.3]"),
            train_line(0),
            select_line(1, "[3,7]", "[0.25,null]"),
            train_line(1),
        );
        let log = RunLog::parse(&text);
        let usage = log.client_usage();
        assert_eq!(usage.len(), 2);
        // Sorted by payment descending: 7 paid 4.0, 3 paid 2.0.
        let seven = &usage[0];
        assert_eq!((seven.client, seven.selections, seven.failures), (7, 2, 2));
        assert!((seven.payment - 4.0).abs() < 1e-12);
        assert_eq!(seven.total_secs, 0.0, "dropouts contribute no time");
        // null estimate (NaN at emit time) keeps the last finite one.
        assert_eq!(seven.last_estimate, Some(0.3));
        let three = &usage[1];
        assert_eq!((three.client, three.selections, three.failures), (3, 2, 0));
        assert!((three.payment - 2.0).abs() < 1e-12);
        assert!((three.total_secs - 2.0).abs() < 1e-12, "0.5 × 2 iters × 2 epochs");
        assert!((three.compute_secs - 1.6).abs() < 1e-12);
        assert!((three.upload_secs - 0.4).abs() < 1e-12);
        assert_eq!(three.last_estimate, Some(0.25));

        let table = crate::dashboard::single(&log).text();
        assert!(table.contains("per-client attribution: 2 clients"));
        assert!(table.contains("0.2500"), "estimate column: {table}");
    }

    #[test]
    fn client_usage_counts_selections_from_select_events_only() {
        let log = RunLog::parse(&format!("{}\n", train_line(0)));
        let usage = log.client_usage();
        assert_eq!(usage.len(), 2, "rent is still attributed");
        assert!(usage.iter().all(|u| u.selections == 0 && u.last_estimate.is_none()));
    }

    #[test]
    fn empty_log_renders_an_explanation() {
        let log = RunLog::parse("");
        assert!(log.client_usage().is_empty());
        assert!(crate::dashboard::single(&log).text().contains("nothing to attribute"));
    }
}
