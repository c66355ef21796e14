//! One entry point per paper figure, plus the headline table and the
//! design ablations called out in DESIGN.md. Each runs its cells and
//! returns the [`Report`] the `experiments` binary prints.

use std::path::Path;

use fedl_core::fedl::FedLConfig;
use fedl_core::policy::PolicyKind;
use fedl_core::runner::{ExperimentRunner, RunOutcome, ScenarioConfig};
use fedl_data::synth::TaskKind;
use fedl_linalg::par::par_map;
use fedl_sim::AggregationNorm;
use fedl_telemetry::render::{Col, Report};

use crate::harness::{run_cell, run_policy_matrix, CellResult, RunCache};
use crate::profile::{accuracy_targets, Profile};
use crate::report::{
    self, figure_numbers, task_name, Metric, COHORT_SIGMA, EPOCHS, FINAL_ACC, FINAL_LOSS,
    OVERSPEND, SECS_PER_EPOCH, SIM_TIME,
};

/// Seed shared by all figure runs so every policy faces the same sample
/// path, as in the paper's controlled comparison.
pub const FIGURE_SEED: u64 = 20220829; // ICPP'22 opening day

/// The scenario every study varies: FMNIST, IID, the figure budget.
fn study_scenario(profile: Profile) -> ScenarioConfig {
    profile.scenario(TaskKind::FmnistLike, true, profile.figure_budget(), FIGURE_SEED)
}

/// Writes one panel's series to `<prefix>_iid.csv` or `<prefix>_noniid.csv`.
fn write_panel_csv(out_dir: &Path, prefix: &str, iid: bool, results: &[CellResult]) {
    let path = out_dir.join(format!("{prefix}_{}.csv", if iid { "iid" } else { "noniid" }));
    report::write_series_csv(&path, results).expect("write csv");
}

/// Figures 2/4 (FMNIST) or 3/5 (CIFAR): accuracy vs simulated time and
/// accuracy vs federated round, IID (left panel) and non-IID (right
/// panel), all four policies. One run per (dist, policy) yields both
/// axes, exactly as in the paper. Completed cells are served from
/// `cache` when one is attached. Returns the report and the cells.
pub fn fig_time_and_round(
    profile: Profile,
    task: TaskKind,
    out_dir: &Path,
    cache: Option<&RunCache>,
) -> (Report, Vec<CellResult>) {
    let [fig_t, fig_r, _] = figure_numbers(task);
    let mut report = Report::new(format!("Figs {fig_t} and {fig_r} — {}", task_name(task)));
    let budget = [profile.figure_budget()];
    let mut all = Vec::new();
    for iid in [true, false] {
        let results = run_policy_matrix(profile, task, iid, &budget, FIGURE_SEED, cache);
        report::time_and_round(&mut report, task, iid, &results);
        write_panel_csv(out_dir, &format!("fig{fig_t}"), iid, &results);
        all.extend(results);
    }
    report::write_json(&out_dir.join(format!("fig{fig_t}_fig{fig_r}.json")), &all)
        .expect("write json");
    (report, all)
}

/// Figures 6 (FMNIST) or 7 (CIFAR): final global loss vs budget, IID and
/// non-IID panels. Completed cells are served from `cache` when one is
/// attached.
pub fn fig_budget(
    profile: Profile,
    task: TaskKind,
    out_dir: &Path,
    cache: Option<&RunCache>,
) -> Report {
    let fig = figure_numbers(task)[2];
    let budgets = profile.budget_grid();
    let mut report = Report::new(format!("Fig {fig} — {}", task_name(task)));
    for iid in [true, false] {
        let results = run_policy_matrix(profile, task, iid, &budgets, FIGURE_SEED, cache);
        report::budget(&mut report, task, iid, &results, &budgets);
        write_panel_csv(out_dir, &format!("fig{fig}"), iid, &results);
    }
    report
}

/// The §6.2 headline table: completion-time savings and accuracy
/// advantages of FedL over the baselines, per task and distribution.
/// Runs the figure matrices and summarizes them.
pub fn headline(profile: Profile, out_dir: &Path, cache: Option<&RunCache>) -> Report {
    let budget = [profile.figure_budget()];
    let all: Vec<CellResult> = report::PANELS
        .into_iter()
        .flat_map(|(task, iid)| run_policy_matrix(profile, task, iid, &budget, FIGURE_SEED, cache))
        .collect();
    headline_from(&all, out_dir)
}

/// Summarizes already-computed figure matrices into the headline table
/// (used by `all` to avoid re-running the runs figs 2–5 just produced):
/// per panel, FedL's completion-time saving over the best baseline at
/// each accuracy target, and every policy's accuracy at the time the
/// shortest run ended.
pub fn headline_from(results: &[CellResult], out_dir: &Path) -> Report {
    let mut report = Report::new("Headline metrics (paper §6.2)");
    report.ascii("\n════ Headline metrics (paper §6.2 prose) ════\n");
    for (task, iid) in report::PANELS {
        let cell: Vec<CellResult> =
            results.iter().filter(|r| r.cell.task == task && r.cell.iid == iid).cloned().collect();
        if cell.is_empty() {
            continue;
        }
        report.ascii("\n");
        report.note(format!("{}:", report::panel_name(task, iid)));
        for &target in accuracy_targets(task) {
            let percent = target * 100.0;
            report.note(match report::fedl_time_saving(&cell, target) {
                Some(s) => format!(
                    "  time-to-{percent:.0}%: FedL saves {:.0}% vs best baseline",
                    s * 100.0
                ),
                None => format!("  time-to-{percent:.0}%: target not reached"),
            });
        }
        // Accuracy at the common final time (min of the total times).
        let t_common =
            cell.iter().map(|r| r.outcome.total_sim_time()).fold(f64::INFINITY, f64::min);
        let accuracies = cell
            .iter()
            .map(|r| format!(" {}={:.3}", r.outcome.policy, report::accuracy_at_time(r, t_common)));
        report.note(format!("  accuracy@{t_common:.0}s:{}", accuracies.collect::<String>()));
        let task = task_name(task).to_lowercase().replace('-', "");
        write_panel_csv(out_dir, &format!("headline_{task}"), iid, &cell);
    }
    report
}

/// Theory validation (Corollary 1): dynamic regret and fit growth of
/// FedL. Prints the cumulative curves and a log–log growth exponent;
/// sub-linear means exponent < 1.
pub fn regret(profile: Profile, out_dir: &Path) -> Report {
    let mut runner = ExperimentRunner::new(study_scenario(profile), PolicyKind::FedL);
    let outcome = runner.run();
    let tracker = runner.policy().regret_tracker().expect("FedL maintains a tracker");
    let regret = tracker.cumulative_regret();
    let fit = tracker.fit();
    let caption = "Theory validation: dynamic regret & fit";
    let mut report = Report::new(caption);
    report.ascii(format!("\n── {caption} ──\n"));
    report.note(format!("epochs run: {}", outcome.epochs.len()));
    let n = regret.len();
    let rows = (0..n)
        .step_by((n / 12).max(1))
        .map(|i| vec![(i + 1).to_string(), format!("{:.3}", regret[i]), format!("{:.3}", fit[i])])
        .collect();
    let cols = vec![Col::left("t", 8), Col::right("Reg(t)", 13), Col::right("Fit(t)", 13)];
    report.table(caption, cols, rows);
    let exponent = |series: &[f64]| -> Option<f64> {
        // Least-squares slope of log(value) on log(t) over the second
        // half of the run (transient excluded); requires positive values.
        let pts: Vec<(f64, f64)> = series
            .iter()
            .enumerate()
            .skip(series.len() / 2)
            .filter(|(_, &v)| v > 1e-9)
            .map(|(i, &v)| ((i as f64 + 1.0).ln(), v.ln()))
            .collect();
        if pts.len() < 4 {
            return None;
        }
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        (denom.abs() > 1e-12).then(|| (n * sxy - sx * sy) / denom)
    };
    if let Some(e) = exponent(regret) {
        report.note(format!("regret growth exponent ≈ {e:.2} (sub-linear when < 1)"));
    }
    if let Some(e) = exponent(fit) {
        report.note(format!("fit growth exponent ≈ {e:.2} (sub-linear when < 1)"));
    }
    // CSV for plotting.
    let mut csv = String::from("t,regret,fit\n");
    for i in 0..n {
        csv.push_str(&format!("{},{:.6},{:.6}\n", i + 1, regret[i], fit[i]));
    }
    std::fs::create_dir_all(out_dir).expect("create out dir");
    std::fs::write(out_dir.join("regret.csv"), csv).expect("write regret csv");
    report
}

/// One row of a [`Study`]: its label cells, the scenario it runs and
/// the policy that runs it.
pub type StudyCell = (Vec<String>, ScenarioConfig, PolicyKind);

/// An ablation or extension study: variants of the FMNIST IID figure
/// scenario, each run as one cell through the result cache, shown as one
/// table of label columns then metric columns.
#[derive(Debug)]
pub struct Study {
    /// The table's caption.
    pub caption: &'static str,
    /// The label columns: header and width.
    pub labels: &'static [(&'static str, usize)],
    /// The metric columns after the labels.
    pub metrics: &'static [Metric],
    /// The rows, derived from the study scenario.
    pub cells: fn(ScenarioConfig) -> Vec<StudyCell>,
}

impl Study {
    /// Runs every cell (in parallel, served from `cache` when one is
    /// attached) and reports them.
    pub fn run(&self, profile: Profile, cache: Option<&RunCache>) -> Report {
        let cells = (self.cells)(study_scenario(profile));
        let outcomes =
            par_map(&cells, |(_, scenario, policy)| run_cell(scenario.clone(), *policy, cache));
        let rows: Vec<_> = cells.into_iter().map(|(labels, ..)| labels).zip(outcomes).collect();
        self.report(&rows)
    }

    /// The study's table over completed runs, one row per `(labels, run)`.
    pub fn report(&self, rows: &[(Vec<String>, RunOutcome)]) -> Report {
        let mut cols: Vec<Col> = self.labels.iter().map(|&(head, w)| Col::left(head, w)).collect();
        cols.extend(self.metrics.iter().map(Metric::col));
        let rows = rows
            .iter()
            .map(|(labels, run)| {
                let metrics = self.metrics.iter().map(|m| (m.cell)(run));
                labels.iter().cloned().chain(metrics).collect()
            })
            .collect();
        let mut report = Report::new(self.caption);
        report::captioned(&mut report, self.caption, cols, rows);
        report
    }
}

/// The study scenario under `policy`, labelled `labels`.
fn cell(labels: &[&str], scenario: ScenarioConfig, policy: PolicyKind) -> StudyCell {
    (labels.iter().map(|l| l.to_string()).collect(), scenario, policy)
}

/// Simulated time under the header the latency studies print.
const SIM_TIME_S: Metric = Metric { head: "sim time (s)", ..SIM_TIME };

/// Ablation: RDCS (Alg. 2) vs independent rounding — budget overshoot
/// and cohort-size dispersion.
pub const ROUNDING: Study = Study {
    caption: "Ablation: RDCS vs independent rounding",
    labels: &[("rounding", 14)],
    metrics: &[EPOCHS, FINAL_ACC, OVERSPEND, COHORT_SIGMA],
    cells: |base| {
        let variant = |name, independent_rounding| {
            let fedl = FedLConfig { independent_rounding, ..base.fedl };
            cell(&[name], ScenarioConfig { fedl, ..base.clone() }, PolicyKind::FedL)
        };
        vec![variant("RDCS", false), variant("independent", true)]
    },
};

/// Ablation: Corollary-1 step-size schedule vs fixed step sizes.
pub const STEPSIZE: Study = Study {
    caption: "Ablation: step sizes β = δ",
    labels: &[("steps", 18)],
    metrics: &[EPOCHS, FINAL_ACC, FINAL_LOSS],
    cells: |base| {
        let variant = |name: &str, fedl| {
            cell(&[name], ScenarioConfig { fedl, ..base.clone() }, PolicyKind::FedL)
        };
        let mut cells = vec![variant("corollary-1", FedLConfig::default())];
        for s in [0.01, 0.1, 1.0, 10.0] {
            let fixed = FedLConfig { fixed_steps: Some((s, s)), ..FedLConfig::default() };
            cells.push(variant(&format!("fixed {s}"), fixed));
        }
        cells
    },
};

/// Ablation: the paper's `1/|E_t|` aggregation (Available) vs the
/// FedAvg-style `1/|cohort|` rule (Cohort). DESIGN.md calls this choice
/// out as the mechanism behind FedCS's early per-round advantage.
pub const AGGREGATION: Study = Study {
    caption: "Ablation: aggregation normalization",
    labels: &[("norm", 11), ("policy", 12)],
    metrics: &[EPOCHS, FINAL_ACC, FINAL_LOSS, SIM_TIME],
    cells: |base| {
        let mut cells = Vec::new();
        for norm in [AggregationNorm::Available, AggregationNorm::Cohort] {
            for policy in [PolicyKind::FedL, PolicyKind::FedCS] {
                let mut scenario = base.clone();
                scenario.env.aggregation = norm;
                cells.push(cell(&[&format!("{norm:?}"), policy.label()], scenario, policy));
            }
        }
        cells
    },
};

/// Reference comparison: FedL against the 1-lookahead latency oracle —
/// an empirical view of the dynamic-regret comparator.
pub const ORACLE: Study = Study {
    caption: "Reference: FedL vs 1-lookahead latency oracle",
    labels: &[("policy", 8)],
    metrics: &[EPOCHS, SIM_TIME_S, SECS_PER_EPOCH, FINAL_ACC],
    cells: |base| {
        [PolicyKind::FedL, PolicyKind::Oracle]
            .map(|policy| cell(&[policy.label()], base.clone(), policy))
            .into()
    },
};

/// Extension study: equal-share FDMA (the simulator default, implied by
/// the paper) vs the min-makespan joint allocation of the paper's
/// reference \[24\].
pub const BANDWIDTH: Study = Study {
    caption: "Extension: FDMA bandwidth allocation",
    labels: &[("allocation", 14)],
    metrics: &[EPOCHS, SIM_TIME_S, SECS_PER_EPOCH, FINAL_ACC],
    cells: |base| {
        [("equal-share", false), ("min-makespan", true)]
            .map(|(name, optimal)| {
                let mut scenario = base.clone();
                scenario.env.optimal_bandwidth = optimal;
                cell(&[name], scenario, PolicyKind::FedL)
            })
            .into()
    },
};

/// Robustness study: mid-epoch client dropout (the paper's §1
/// "battery failure, device offline" uncertainty) at increasing rates.
pub const DROPOUT: Study = Study {
    caption: "Robustness: mid-epoch client dropout",
    labels: &[("p_drop", 9), ("policy", 8)],
    metrics: &[EPOCHS, FINAL_ACC, FINAL_LOSS, SIM_TIME],
    cells: |base| {
        let mut cells = Vec::new();
        for p in [0.0, 0.1, 0.3] {
            for policy in [PolicyKind::FedL, PolicyKind::FedAvg] {
                let mut scenario = base.clone();
                scenario.env.p_dropout = p;
                cells.push(cell(&[&p.to_string(), policy.label()], scenario, policy));
            }
        }
        cells
    },
};

/// Multi-seed replication: the Fig. 2 comparison at several independent
/// sample paths, reported as mean ± std — the variance check behind the
/// single-seed figures. Completed cells are served from `cache` when
/// one is attached.
pub fn replication_study(profile: Profile, cache: Option<&RunCache>) -> Report {
    let seeds = [FIGURE_SEED, 7, 42, 1337];
    let target = accuracy_targets(TaskKind::FmnistLike)[1];
    let budget = [profile.figure_budget()];
    let cells = par_map(&seeds, |&seed| {
        run_policy_matrix(profile, TaskKind::FmnistLike, true, &budget, seed, cache)
    });
    let mut report = Report::new("Replication");
    report::replication(&mut report, seeds.len(), target, &cells.concat());
    report
}

/// Extension study: the selection-fairness weight (the paper's stated
/// future work) — Jain index of selection counts vs performance. Reads
/// each run's selection trace, which a cached outcome does not keep, so
/// its runs bypass the result cache.
pub fn fairness_study(profile: Profile) -> Report {
    let weights = [0.0, 0.5, 2.0, 8.0];
    let runs = par_map(&weights, |&fairness_weight| {
        let mut scenario = study_scenario(profile);
        scenario.fedl = FedLConfig { fairness_weight, ..scenario.fedl };
        let m = scenario.env.num_clients;
        let mut runner = ExperimentRunner::new(scenario, PolicyKind::FedL);
        let outcome = runner.run();
        (runner.trace().jain_fairness(m), outcome)
    });
    let metrics = [FINAL_ACC, FINAL_LOSS, SIM_TIME];
    let mut cols = vec![Col::left("weight", 10), Col::right("Jain index", 11)];
    cols.extend(metrics.iter().map(Metric::col));
    let rows = weights
        .iter()
        .zip(&runs)
        .map(|(weight, (jain, run))| {
            let cells = metrics.iter().map(|m| (m.cell)(run));
            [weight.to_string(), format!("{jain:.3}")].into_iter().chain(cells).collect()
        })
        .collect();
    let caption = "Extension: selection fairness";
    let mut report = Report::new(caption);
    report::captioned(&mut report, caption, cols, rows);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_seed_is_stable() {
        // The seed is part of the reproduction contract — changing it
        // invalidates EXPERIMENTS.md.
        assert_eq!(FIGURE_SEED, 20220829);
    }

    #[test]
    fn task_names() {
        assert_eq!(task_name(TaskKind::FmnistLike), "FMNIST");
        assert_eq!(task_name(TaskKind::CifarLike), "CIFAR-10");
    }
}
