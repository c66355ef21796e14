//! Result emission: CSV series for plotting, JSON for machines, and the
//! [`Report`] content of the figures, the §6.2 headline and the studies
//! — pure functions of completed cells, which `experiments` runs.

use std::fs;
use std::io;
use std::path::Path;

use fedl_core::policy::PolicyKind;
use fedl_core::runner::RunOutcome;
use fedl_data::synth::TaskKind;
use fedl_telemetry::render::{Col, Report};

use crate::harness::{CellResult, MeanStd};
use crate::plot;
use crate::profile::accuracy_targets;

/// Writes the per-epoch series of every cell as one tidy CSV
/// (`policy,task,dist,budget,epoch,round,sim_time,spent,accuracy,test_loss,global_loss`).
pub fn write_series_csv(path: &Path, results: &[CellResult]) -> io::Result<()> {
    let mut out = String::from(
        "policy,task,dist,budget,epoch,round,sim_time,spent,accuracy,test_loss,global_loss\n",
    );
    for r in results {
        let dist = if r.cell.iid { "iid" } else { "non-iid" };
        let mut round = 0usize;
        for e in &r.outcome.epochs {
            round += e.iterations;
            out.push_str(&format!(
                "{},{:?},{},{},{},{},{:.4},{:.2},{:.4},{:.4},{:.4}\n",
                r.outcome.policy,
                r.cell.task,
                dist,
                r.cell.budget,
                e.epoch,
                round,
                e.sim_time,
                e.spent,
                e.accuracy,
                e.test_loss,
                e.global_loss,
            ));
        }
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, out)
}

/// Writes the raw outcomes as JSON for downstream tooling. The layout
/// (entry fields, 2-space pretty-printing) matches what the original
/// serde_json pipeline emitted, so existing result files stay readable
/// by the same consumers.
pub fn write_json(path: &Path, results: &[CellResult]) -> io::Result<()> {
    use fedl_json::{obj, ToJson, Value};
    let entries = Value::Arr(
        results
            .iter()
            .map(|r| {
                obj(vec![
                    ("policy", r.outcome.policy.to_json_value()),
                    ("task", format!("{:?}", r.cell.task).to_json_value()),
                    ("iid", r.cell.iid.to_json_value()),
                    ("budget", r.cell.budget.to_json_value()),
                    ("outcome", r.outcome.to_json_value()),
                ])
            })
            .collect(),
    );
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, entries.to_json_pretty())
}

/// Accuracy each policy had reached by `time` simulated seconds
/// (last record at or before `time`; 0 if none).
pub fn accuracy_at_time(result: &CellResult, time: f64) -> f64 {
    result
        .outcome
        .epochs
        .iter()
        .take_while(|e| e.sim_time <= time)
        .last()
        .map_or(0.0, |e| e.accuracy)
}

/// The paper's name of a task.
pub fn task_name(task: TaskKind) -> &'static str {
    match task {
        TaskKind::FmnistLike => "FMNIST",
        TaskKind::CifarLike => "CIFAR-10",
    }
}

/// A task's figure numbers: accuracy vs time, accuracy vs round, loss
/// vs budget.
pub fn figure_numbers(task: TaskKind) -> [u32; 3] {
    match task {
        TaskKind::FmnistLike => [2, 4, 6],
        TaskKind::CifarLike => [3, 5, 7],
    }
}

/// `FMNIST IID`, `CIFAR-10 Non-IID`, …: the name of one figure panel.
pub fn panel_name(task: TaskKind, iid: bool) -> String {
    format!("{} {}", task_name(task), if iid { "IID" } else { "Non-IID" })
}

/// The `(task, iid)` panels of the figures, in figure order.
pub const PANELS: [(TaskKind, bool); 4] = [
    (TaskKind::FmnistLike, true),
    (TaskKind::FmnistLike, false),
    (TaskKind::CifarLike, true),
    (TaskKind::CifarLike, false),
];

/// The cell of a target a run never reached.
const NEVER: &str = "—";

/// Appends a table under its `── caption ──` line, which only the text
/// rendering prints; the page heads the table with the caption instead.
pub fn captioned(report: &mut Report, caption: &str, cols: Vec<Col>, rows: Vec<Vec<String>>) {
    report.ascii(format!("\n── {caption} ──\n"));
    report.table(caption, cols, rows);
}

/// Figs 2/4 (FMNIST) or 3/5 (CIFAR-10) for one distribution: each
/// policy's accuracy at a quarter, half and all of the longest run's
/// simulated time and federated rounds, its time and rounds to each
/// accuracy target, and the accuracy-vs-time curves drawn in ASCII.
pub fn time_and_round(report: &mut Report, task: TaskKind, iid: bool, results: &[CellResult]) {
    let [fig_t, fig_r, _] = figure_numbers(task);
    let panel = panel_name(task, iid);
    let targets = accuracy_targets(task);

    let max_t = results.iter().map(|r| r.outcome.total_sim_time()).fold(0.0f64, f64::max);
    let times = [max_t * 0.25, max_t * 0.5, max_t];
    let mut cols = vec![Col::left("policy", 8)];
    cols.extend(times.map(|t| Col::right(format!("acc@{t:.0}s"), 11)));
    cols.extend(targets.iter().map(|a| Col::right(format!("t→{:.0}% (s)", a * 100.0), 13)));
    let rows = results.iter().map(|r| {
        let mut row = vec![r.outcome.policy.clone()];
        row.extend(times.map(|t| format!("{:.3}", accuracy_at_time(r, t))));
        let to = |a| r.outcome.time_to_accuracy(a).map_or(NEVER.into(), |t| format!("{t:.1}"));
        row.extend(targets.iter().map(|&a| to(a)));
        row
    });
    captioned(report, &format!("Fig {fig_t} — {panel}: accuracy vs time"), cols, rows.collect());

    let by_round: Vec<Vec<(usize, f64)>> =
        results.iter().map(|r| r.outcome.accuracy_by_round()).collect();
    let max_round = by_round.iter().filter_map(|c| c.last()).map(|(r, _)| *r).max().unwrap_or(0);
    let rounds = [max_round / 4, max_round / 2, max_round];
    let mut cols = vec![Col::left("policy", 8)];
    cols.extend(rounds.map(|r| Col::right(format!("acc@r{r}"), 11)));
    cols.extend(targets.iter().map(|a| Col::right(format!("r→{:.0}%", a * 100.0), 13)));
    let rows = results.iter().zip(&by_round).map(|(r, curve)| {
        let mut row = vec![r.outcome.policy.clone()];
        row.extend(rounds.map(|round| {
            let reached = curve.iter().take_while(|(at, _)| *at <= round).last();
            format!("{:.3}", reached.map_or(0.0, |(_, acc)| *acc))
        }));
        let to = |a| r.outcome.rounds_to_accuracy(a).map_or(NEVER.into(), |n| n.to_string());
        row.extend(targets.iter().map(|&a| to(a)));
        row
    });
    captioned(report, &format!("Fig {fig_r} — {panel}: accuracy vs round"), cols, rows.collect());

    let curves: Vec<plot::Series> = results
        .iter()
        .map(|r| plot::Series {
            name: r.outcome.policy.clone(),
            points: r.outcome.epochs.iter().map(|e| (e.sim_time, e.accuracy)).collect(),
        })
        .collect();
    report.ascii(plot::render(&curves, 72, 16) + "\n");
}

/// Fig 6 (FMNIST) or 7 (CIFAR-10) for one distribution: each policy's
/// final global loss at each budget of the grid.
pub fn budget(
    report: &mut Report,
    task: TaskKind,
    iid: bool,
    results: &[CellResult],
    budgets: &[f64],
) {
    let mut cols = vec![Col::left("policy", 8)];
    cols.extend(budgets.iter().map(|b| Col::right(format!("C={b:.0}"), 11)));
    let rows = PolicyKind::ALL.iter().map(|&policy| {
        let loss = budgets.iter().map(|&b| {
            let run = results.iter().find(|r| r.cell.policy == policy && r.cell.budget == b);
            run.map_or(NEVER.into(), |r| format!("{:.3}", r.outcome.final_loss()))
        });
        std::iter::once(policy.label().to_string()).chain(loss).collect()
    });
    let caption = format!(
        "Fig {} — {}: final global loss vs budget",
        figure_numbers(task)[2],
        panel_name(task, iid)
    );
    captioned(report, &caption, cols, rows.collect());
}

/// One metric column of a study table: its header, its width and its
/// cell for a run.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Header cell.
    pub head: &'static str,
    /// Column width (right-aligned).
    pub width: usize,
    /// The cell of one run.
    pub cell: fn(&RunOutcome) -> String,
}

impl Metric {
    /// The metric's column.
    pub fn col(&self) -> Col {
        Col::right(self.head, self.width)
    }
}

/// Epochs the run lasted.
pub const EPOCHS: Metric =
    Metric { head: "epochs", width: 9, cell: |o| o.epochs.len().to_string() };
/// Test accuracy after the last epoch.
pub const FINAL_ACC: Metric =
    Metric { head: "final acc", width: 11, cell: |o| format!("{:.3}", o.final_accuracy()) };
/// Global training loss after the last epoch.
pub const FINAL_LOSS: Metric =
    Metric { head: "final loss", width: 13, cell: |o| format!("{:.3}", o.final_loss()) };
/// Simulated seconds the run lasted.
pub const SIM_TIME: Metric =
    Metric { head: "sim time", width: 13, cell: |o| format!("{:.1}", o.total_sim_time()) };
/// Simulated seconds per epoch.
pub const SECS_PER_EPOCH: Metric = Metric {
    head: "s/epoch",
    width: 13,
    cell: |o| format!("{:.3}", o.total_sim_time() / o.epochs.len().max(1) as f64),
};
/// Rent charged beyond the budget.
pub const OVERSPEND: Metric = Metric {
    head: "overspend",
    width: 13,
    cell: |o| format!("{:.2}", (o.epochs.last().map_or(0.0, |e| e.spent) - o.budget).max(0.0)),
};
/// Population standard deviation of the cohort size over the epochs.
pub const COHORT_SIGMA: Metric = Metric {
    head: "cohort σ",
    width: 13,
    cell: |o| {
        let sizes: Vec<f64> = o.epochs.iter().map(|e| e.cohort_size as f64).collect();
        let n = sizes.len().max(1) as f64;
        let mean = sizes.iter().sum::<f64>() / n;
        let var = sizes.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        format!("{:.2}", var.sqrt())
    },
};

/// The multi-seed replication table: each policy's final accuracy,
/// simulated time and time to `target` as mean ± std over its runs in
/// `cells`, one per seed. Runs that miss the target are left out of
/// its mean; `never` means every run missed it.
pub fn replication(report: &mut Report, seeds: usize, target: f64, cells: &[CellResult]) {
    let caption =
        format!("Replication: FMNIST IID over {seeds} seeds (target {:.0}%)", target * 100.0);
    let cols = vec![
        Col::left("policy", 8),
        Col::right("final acc (μ±σ)", 21),
        Col::right("sim time (μ±σ)", 23),
        Col::right("time→target (μ±σ)", 25),
    ];
    let stat = |values: &[f64], digits: usize| {
        let MeanStd { mean, std } = MeanStd::of(values);
        format!("{mean:.digits$} ± {std:.digits$}")
    };
    let rows = PolicyKind::ALL.iter().map(|&policy| {
        let runs: Vec<&RunOutcome> =
            cells.iter().filter(|c| c.cell.policy == policy).map(|c| &c.outcome).collect();
        let metric = |f: fn(&RunOutcome) -> f64| runs.iter().map(|r| f(r)).collect::<Vec<_>>();
        let hits: Vec<f64> = runs.iter().filter_map(|r| r.time_to_accuracy(target)).collect();
        vec![
            policy.label().to_string(),
            stat(&metric(RunOutcome::final_accuracy), 3),
            stat(&metric(RunOutcome::total_sim_time), 1),
            if hits.is_empty() { "never".to_string() } else { stat(&hits, 1) },
        ]
    });
    captioned(report, &caption, cols, rows.collect());
}

/// The paper's headline metric: FedL's completion-time saving relative
/// to the best baseline at the given accuracy target. Returns `None`
/// when FedL (or every baseline) misses the target.
pub fn fedl_time_saving(results: &[CellResult], target: f64) -> Option<f64> {
    let fedl = results.iter().find(|r| r.outcome.policy == "FedL")?;
    let t_fedl = fedl.outcome.time_to_accuracy(target)?;
    let best_baseline = results
        .iter()
        .filter(|r| r.outcome.policy != "FedL")
        .filter_map(|r| r.outcome.time_to_accuracy(target))
        .fold(f64::INFINITY, f64::min);
    if best_baseline.is_finite() {
        Some(1.0 - t_fedl / best_baseline)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Cell;
    use fedl_core::policy::PolicyKind;
    use fedl_core::runner::{EpochRecord, RunOutcome};
    use fedl_data::synth::TaskKind;

    fn fake(policy: &str, times: &[(f64, f64)]) -> CellResult {
        let epochs = times
            .iter()
            .enumerate()
            .map(|(i, &(t, acc))| EpochRecord {
                epoch: i,
                cohort_size: 3,
                iterations: 2,
                sim_time: t,
                spent: t * 10.0,
                accuracy: acc,
                test_loss: 1.0 - acc,
                global_loss: 1.0 - acc,
            })
            .collect();
        CellResult {
            cell: Cell {
                task: TaskKind::FmnistLike,
                iid: true,
                policy: PolicyKind::FedL,
                budget: 100.0,
            },
            outcome: RunOutcome { policy: policy.into(), budget: 100.0, epochs },
        }
    }

    #[test]
    fn accuracy_at_time_takes_last_before() {
        let r = fake("FedL", &[(1.0, 0.2), (2.0, 0.4), (4.0, 0.6)]);
        assert_eq!(accuracy_at_time(&r, 0.5), 0.0);
        assert_eq!(accuracy_at_time(&r, 2.5), 0.4);
        assert_eq!(accuracy_at_time(&r, 10.0), 0.6);
    }

    #[test]
    fn saving_computed_against_best_baseline() {
        let results = vec![
            fake("FedL", &[(1.0, 0.2), (2.0, 0.7)]),
            fake("FedAvg", &[(1.0, 0.1), (8.0, 0.7)]),
            fake("Pow-d", &[(1.0, 0.1), (4.0, 0.7)]),
        ];
        // FedL reaches 0.7 at t=2; best baseline (Pow-d) at t=4 -> 50%.
        let saving = fedl_time_saving(&results, 0.7).unwrap();
        assert!((saving - 0.5).abs() < 1e-9);
    }

    #[test]
    fn saving_none_when_target_missed() {
        let results = vec![fake("FedL", &[(1.0, 0.2)]), fake("FedAvg", &[(1.0, 0.9)])];
        assert!(fedl_time_saving(&results, 0.8).is_none());
    }

    #[test]
    fn replication_reports_mean_and_std_over_the_seeds() {
        let cells: Vec<CellResult> = [0.6, 0.8]
            .into_iter()
            .flat_map(|acc| {
                PolicyKind::ALL.map(|policy| {
                    let mut cell = fake(policy.label(), &[(1.0, acc / 2.0), (acc * 10.0, acc)]);
                    cell.cell.policy = policy;
                    cell
                })
            })
            .collect();
        let mut report = Report::new("replication");
        replication(&mut report, 2, 0.7, &cells);
        let table = report.tables().next().unwrap();
        assert_eq!(table.rows.len(), 4);
        // Only the seed that ends at 0.8 reaches 0.7 (at t = 8): one hit.
        assert_eq!(table.rows[0], ["FedL", "0.700 ± 0.141", "7.0 ± 1.4", "8.0 ± 0.0"]);
        let mut report = Report::new("replication");
        replication(&mut report, 2, 0.9, &cells);
        assert_eq!(report.tables().next().unwrap().rows[3][3], "never");
    }

    #[test]
    fn csv_writes_header_and_rows() {
        let dir = std::env::temp_dir().join("fedl_report_test");
        let path = dir.join("series.csv");
        let results = vec![fake("FedL", &[(1.0, 0.2), (2.0, 0.3)])];
        write_series_csv(&path, &results).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("policy,task,dist,budget"));
        assert_eq!(content.lines().count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
