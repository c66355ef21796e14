//! One entry point per paper figure, plus the headline table and the
//! design ablations called out in DESIGN.md.

use std::fmt::Write as _;
use std::path::Path;

use fedl_core::fedl::{FedLConfig, FedLPolicy};
use fedl_core::policy::PolicyKind;
use fedl_core::runner::ExperimentRunner;
use fedl_data::synth::TaskKind;
use fedl_telemetry::log_line;

use crate::harness::{run_budget_sweep, run_policy_matrix, CellResult, RunCache};
use crate::profile::{accuracy_targets, Profile};
use crate::report;

/// Seed shared by all figure runs so every policy faces the same sample
/// path, as in the paper's controlled comparison.
pub const FIGURE_SEED: u64 = 20220829; // ICPP'22 opening day

fn task_name(task: TaskKind) -> &'static str {
    match task {
        TaskKind::FmnistLike => "FMNIST",
        TaskKind::CifarLike => "CIFAR-10",
    }
}

/// Figures 2/4 (FMNIST) or 3/5 (CIFAR): accuracy vs simulated time and
/// accuracy vs federated round, IID (left panel) and non-IID (right
/// panel), all four policies. One run per (dist, policy) yields both
/// axes, exactly as in the paper. Completed cells are served from
/// `cache` when one is attached.
pub fn fig_time_and_round(
    profile: Profile,
    task: TaskKind,
    out_dir: &Path,
    cache: Option<&RunCache>,
) -> Vec<CellResult> {
    let budget = profile.figure_budget();
    let mut all = Vec::new();
    let (fig_t, fig_r) = match task {
        TaskKind::FmnistLike => (2, 4),
        TaskKind::CifarLike => (3, 5),
    };
    for iid in [true, false] {
        let results = run_policy_matrix(profile, task, iid, budget, FIGURE_SEED, cache);
        let dist = if iid { "IID" } else { "Non-IID" };
        let max_t = results.iter().map(|r| r.outcome.total_sim_time()).fold(0.0f64, f64::max);
        let times = [max_t * 0.25, max_t * 0.5, max_t];
        report::print_time_table(
            &format!("Fig {fig_t} — {} {dist}: accuracy vs time", task_name(task)),
            &results,
            &times,
            accuracy_targets(task),
        );
        let max_round = results
            .iter()
            .map(|r| r.outcome.accuracy_by_round().last().map_or(0, |(r, _)| *r))
            .max()
            .unwrap_or(0);
        let rounds = [max_round / 4, max_round / 2, max_round];
        report::print_round_table(
            &format!("Fig {fig_r} — {} {dist}: accuracy vs round", task_name(task)),
            &results,
            &rounds,
            accuracy_targets(task),
        );
        // Terminal rendering of the accuracy-vs-time panel.
        let curves: Vec<crate::plot::Series> = results
            .iter()
            .map(|r| crate::plot::Series {
                name: r.outcome.policy.clone(),
                points: r.outcome.epochs.iter().map(|e| (e.sim_time, e.accuracy)).collect(),
            })
            .collect();
        log_line!("{}", crate::plot::render(&curves, 72, 16));
        let stem = format!("fig{fig_t}_{}", if iid { "iid" } else { "noniid" });
        report::write_series_csv(&out_dir.join(format!("{stem}.csv")), &results)
            .expect("write csv");
        all.extend(results);
    }
    report::write_json(&out_dir.join(format!("fig{fig_t}_fig{fig_r}.json")), &all)
        .expect("write json");
    all
}

/// Figures 6 (FMNIST) or 7 (CIFAR): final global loss vs budget, IID and
/// non-IID panels. Completed cells are served from `cache` when one is
/// attached.
pub fn fig_budget(
    profile: Profile,
    task: TaskKind,
    out_dir: &Path,
    cache: Option<&RunCache>,
) -> Vec<CellResult> {
    let fig = match task {
        TaskKind::FmnistLike => 6,
        TaskKind::CifarLike => 7,
    };
    let budgets = profile.budget_grid();
    let mut all = Vec::new();
    for iid in [true, false] {
        let results = run_budget_sweep(profile, task, iid, FIGURE_SEED, cache);
        let dist = if iid { "IID" } else { "Non-IID" };
        report::print_budget_table(
            &format!("Fig {fig} — {} {dist}: loss vs budget", task_name(task)),
            &results,
            &budgets,
        );
        let stem = format!("fig{fig}_{}", if iid { "iid" } else { "noniid" });
        report::write_series_csv(&out_dir.join(format!("{stem}.csv")), &results)
            .expect("write csv");
        all.extend(results);
    }
    all
}

/// The §6.2 headline table: completion-time savings and accuracy
/// advantages of FedL over the baselines, per task and distribution.
/// Runs the figure matrices and summarizes them.
pub fn headline(profile: Profile, out_dir: &Path, cache: Option<&RunCache>) {
    let mut all = Vec::new();
    for task in [TaskKind::FmnistLike, TaskKind::CifarLike] {
        for iid in [true, false] {
            all.extend(run_policy_matrix(
                profile,
                task,
                iid,
                profile.figure_budget(),
                FIGURE_SEED,
                cache,
            ));
        }
    }
    headline_from(&all, out_dir);
}

/// Summarizes already-computed figure matrices into the headline table
/// (used by `all` to avoid re-running the runs figs 2–5 just produced).
pub fn headline_from(results: &[CellResult], out_dir: &Path) {
    log_line!("\n════ Headline metrics (paper §6.2 prose) ════");
    for task in [TaskKind::FmnistLike, TaskKind::CifarLike] {
        for iid in [true, false] {
            let cell: Vec<CellResult> = results
                .iter()
                .filter(|r| r.cell.task == task && r.cell.iid == iid)
                .cloned()
                .collect();
            if cell.is_empty() {
                continue;
            }
            let dist = if iid { "IID" } else { "Non-IID" };
            let targets = accuracy_targets(task);
            log_line!("\n{} {dist}:", task_name(task));
            for &target in targets {
                match report::fedl_time_saving(&cell, target) {
                    Some(s) => log_line!(
                        "  time-to-{:.0}%: FedL saves {:.0}% vs best baseline",
                        target * 100.0,
                        s * 100.0
                    ),
                    None => log_line!("  time-to-{:.0}%: target not reached", target * 100.0),
                }
            }
            // Accuracy at the common final time (min of the total times).
            let t_common =
                cell.iter().map(|r| r.outcome.total_sim_time()).fold(f64::INFINITY, f64::min);
            let mut line = format!("  accuracy@{t_common:.0}s:");
            for r in &cell {
                let _ = write!(
                    line,
                    " {}={:.3}",
                    r.outcome.policy,
                    report::accuracy_at_time(r, t_common)
                );
            }
            log_line!("{line}");
            let stem = format!(
                "headline_{}_{}",
                task_name(task).to_lowercase().replace('-', ""),
                if iid { "iid" } else { "noniid" }
            );
            report::write_series_csv(&out_dir.join(format!("{stem}.csv")), &cell)
                .expect("write csv");
        }
    }
}

/// Theory validation (Corollary 1): dynamic regret and fit growth of
/// FedL. Prints the cumulative curves and a log–log growth exponent;
/// sub-linear means exponent < 1.
pub fn regret(profile: Profile, out_dir: &Path) {
    let scenario =
        profile.scenario(TaskKind::FmnistLike, true, profile.figure_budget(), FIGURE_SEED);
    let env = scenario.build_env();
    let policy = Box::new(FedLPolicy::new(
        scenario.fedl,
        scenario.env.num_clients,
        scenario.budget,
        scenario.min_participants,
    ));
    let mut runner = ExperimentRunner::with_policy(scenario, env, policy);
    let outcome = runner.run();
    let tracker = runner.policy().regret_tracker().expect("FedL maintains a tracker");
    let regret = tracker.cumulative_regret();
    let fit = tracker.fit();
    log_line!("\n── Theory validation: dynamic regret & fit ──");
    log_line!("epochs run: {}", outcome.epochs.len());
    log_line!("{:<8}{:>14}{:>14}", "t", "Reg(t)", "Fit(t)");
    let n = regret.len();
    for i in (0..n).step_by((n / 12).max(1)) {
        log_line!("{:<8}{:>14.3}{:>14.3}", i + 1, regret[i], fit[i]);
    }
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
        log_line!("regret growth exponent ≈ {e:.2} (sub-linear when < 1)");
    }
    if let Some(e) = exponent(fit) {
        log_line!("fit growth exponent ≈ {e:.2} (sub-linear when < 1)");
    }
    // CSV for plotting.
    let mut csv = String::from("t,regret,fit\n");
    for i in 0..n {
        csv.push_str(&format!("{},{:.6},{:.6}\n", i + 1, regret[i], fit[i]));
    }
    std::fs::create_dir_all(out_dir).expect("create out dir");
    std::fs::write(out_dir.join("regret.csv"), csv).expect("write regret csv");
}

/// Ablation: RDCS (Alg. 2) vs independent rounding — budget overshoot
/// and cohort-size dispersion.
pub fn rounding_ablation(profile: Profile) {
    log_line!("\n── Ablation: RDCS vs independent rounding ──");
    log_line!(
        "{:<14}{:>10}{:>12}{:>14}{:>14}",
        "rounding",
        "epochs",
        "final acc",
        "overspend",
        "cohort σ"
    );
    for independent in [false, true] {
        let mut scenario =
            profile.scenario(TaskKind::FmnistLike, true, profile.figure_budget(), FIGURE_SEED);
        scenario.fedl = FedLConfig { independent_rounding: independent, ..scenario.fedl };
        let mut runner = ExperimentRunner::new(scenario, PolicyKind::FedL);
        let outcome = runner.run();
        let spent = outcome.epochs.last().map_or(0.0, |e| e.spent);
        let overspend = (spent - outcome.budget).max(0.0);
        let sizes: Vec<f64> = outcome.epochs.iter().map(|e| e.cohort_size as f64).collect();
        let mean = sizes.iter().sum::<f64>() / sizes.len().max(1) as f64;
        let var =
            sizes.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / sizes.len().max(1) as f64;
        log_line!(
            "{:<14}{:>10}{:>12.3}{:>14.2}{:>14.2}",
            if independent { "independent" } else { "RDCS" },
            outcome.epochs.len(),
            outcome.final_accuracy(),
            overspend,
            var.sqrt(),
        );
    }
}

/// Ablation: the paper's `1/|E_t|` aggregation (Available) vs the
/// FedAvg-style `1/|cohort|` rule (Cohort). DESIGN.md calls this choice
/// out as the mechanism behind FedCS's early per-round advantage.
pub fn aggregation_ablation(profile: Profile) {
    use fedl_sim::AggregationNorm;
    log_line!("\n── Ablation: aggregation normalization ──");
    log_line!(
        "{:<12}{:<12}{:>10}{:>12}{:>14}{:>14}",
        "norm",
        "policy",
        "epochs",
        "final acc",
        "final loss",
        "sim time"
    );
    for norm in [AggregationNorm::Available, AggregationNorm::Cohort] {
        for policy in [PolicyKind::FedL, PolicyKind::FedCS] {
            let mut scenario =
                profile.scenario(TaskKind::FmnistLike, true, profile.figure_budget(), FIGURE_SEED);
            scenario.env.aggregation = norm;
            let mut runner = ExperimentRunner::new(scenario, policy);
            let outcome = runner.run();
            log_line!(
                "{:<12}{:<12}{:>10}{:>12.3}{:>14.3}{:>14.1}",
                format!("{norm:?}"),
                outcome.policy,
                outcome.epochs.len(),
                outcome.final_accuracy(),
                outcome.final_loss(),
                outcome.total_sim_time(),
            );
        }
    }
}

/// Reference comparison: FedL against the 1-lookahead latency oracle —
/// an empirical view of the dynamic-regret comparator.
pub fn oracle_comparison(profile: Profile) {
    log_line!("\n── Reference: FedL vs 1-lookahead latency oracle ──");
    log_line!(
        "{:<8}{:>10}{:>14}{:>14}{:>12}",
        "policy",
        "epochs",
        "sim time (s)",
        "s/epoch",
        "final acc"
    );
    for policy in [PolicyKind::FedL, PolicyKind::Oracle] {
        let scenario =
            profile.scenario(TaskKind::FmnistLike, true, profile.figure_budget(), FIGURE_SEED);
        let mut runner = ExperimentRunner::new(scenario, policy);
        let outcome = runner.run();
        let per_epoch = outcome.total_sim_time() / outcome.epochs.len().max(1) as f64;
        log_line!(
            "{:<8}{:>10}{:>14.1}{:>14.3}{:>12.3}",
            outcome.policy,
            outcome.epochs.len(),
            outcome.total_sim_time(),
            per_epoch,
            outcome.final_accuracy(),
        );
    }
}

/// Multi-seed replication: the Fig. 2 comparison at several independent
/// sample paths, reported as mean ± std — the variance check behind the
/// single-seed figures.
pub fn replication_study(profile: Profile) {
    use crate::harness::run_replicated;
    let seeds = [FIGURE_SEED, 7, 42, 1337];
    let target = accuracy_targets(TaskKind::FmnistLike)[1];
    log_line!(
        "\n── Replication: FMNIST IID over {} seeds (target {:.0}%) ──",
        seeds.len(),
        target * 100.0
    );
    log_line!(
        "{:<8}{:>22}{:>24}{:>26}",
        "policy",
        "final acc (μ±σ)",
        "sim time (μ±σ)",
        "time→target (μ±σ)"
    );
    let summaries = run_replicated(
        profile,
        TaskKind::FmnistLike,
        true,
        profile.figure_budget(),
        &seeds,
        target,
    );
    for s in summaries {
        let tt = s
            .time_to_target
            .map_or("never".to_string(), |m| format!("{:.1} ± {:.1}", m.mean, m.std));
        log_line!(
            "{:<8}{:>14.3} ± {:.3}{:>16.1} ± {:.1}{:>26}",
            s.policy,
            s.final_accuracy.mean,
            s.final_accuracy.std,
            s.total_time.mean,
            s.total_time.std,
            tt,
        );
    }
}

/// Extension study: equal-share FDMA (the simulator default, implied by
/// the paper) vs the min-makespan joint allocation of the paper's
/// reference \[24\].
pub fn bandwidth_study(profile: Profile) {
    log_line!("\n── Extension: FDMA bandwidth allocation ──");
    log_line!(
        "{:<14}{:>10}{:>14}{:>14}{:>12}",
        "allocation",
        "epochs",
        "sim time (s)",
        "s/epoch",
        "final acc"
    );
    for optimal in [false, true] {
        let mut scenario =
            profile.scenario(TaskKind::FmnistLike, true, profile.figure_budget(), FIGURE_SEED);
        scenario.env.optimal_bandwidth = optimal;
        let mut runner = ExperimentRunner::new(scenario, PolicyKind::FedL);
        let outcome = runner.run();
        log_line!(
            "{:<14}{:>10}{:>14.1}{:>14.3}{:>12.3}",
            if optimal { "min-makespan" } else { "equal-share" },
            outcome.epochs.len(),
            outcome.total_sim_time(),
            outcome.total_sim_time() / outcome.epochs.len().max(1) as f64,
            outcome.final_accuracy(),
        );
    }
}

/// Robustness study: mid-epoch client dropout (the paper's §1
/// "battery failure, device offline" uncertainty) at increasing rates.
pub fn dropout_study(profile: Profile) {
    log_line!("\n── Robustness: mid-epoch client dropout ──");
    log_line!(
        "{:<10}{:<8}{:>10}{:>12}{:>14}{:>14}",
        "p_drop",
        "policy",
        "epochs",
        "final acc",
        "final loss",
        "sim time"
    );
    for &p in &[0.0, 0.1, 0.3] {
        for policy in [PolicyKind::FedL, PolicyKind::FedAvg] {
            let mut scenario =
                profile.scenario(TaskKind::FmnistLike, true, profile.figure_budget(), FIGURE_SEED);
            scenario.env.p_dropout = p;
            let mut runner = ExperimentRunner::new(scenario, policy);
            let outcome = runner.run();
            log_line!(
                "{:<10}{:<8}{:>10}{:>12.3}{:>14.3}{:>14.1}",
                p,
                outcome.policy,
                outcome.epochs.len(),
                outcome.final_accuracy(),
                outcome.final_loss(),
                outcome.total_sim_time(),
            );
        }
    }
}

/// Extension study: the selection-fairness weight (the paper's stated
/// future work) — Jain index of selection counts vs performance.
pub fn fairness_study(profile: Profile) {
    log_line!("\n── Extension: selection fairness ──");
    log_line!(
        "{:<10}{:>12}{:>12}{:>14}{:>14}",
        "weight",
        "Jain index",
        "final acc",
        "final loss",
        "sim time"
    );
    for &weight in &[0.0, 0.5, 2.0, 8.0] {
        let scenario =
            profile.scenario(TaskKind::FmnistLike, true, profile.figure_budget(), FIGURE_SEED);
        let env = scenario.build_env();
        let m = scenario.env.num_clients;
        let policy = Box::new(FedLPolicy::new(
            FedLConfig { fairness_weight: weight, ..scenario.fedl },
            m,
            scenario.budget,
            scenario.min_participants,
        ));
        let mut runner = ExperimentRunner::with_policy(scenario, env, policy);
        let outcome = runner.run();
        log_line!(
            "{:<10}{:>12.3}{:>12.3}{:>14.3}{:>14.1}",
            weight,
            runner.trace().jain_fairness(m),
            outcome.final_accuracy(),
            outcome.final_loss(),
            outcome.total_sim_time(),
        );
    }
}

/// Ablation: Corollary-1 step-size schedule vs fixed step sizes.
pub fn stepsize_ablation(profile: Profile) {
    log_line!("\n── Ablation: step sizes β = δ ──");
    log_line!("{:<18}{:>10}{:>12}{:>14}", "steps", "epochs", "final acc", "final loss");
    let mut variants: Vec<(String, FedLConfig)> =
        vec![("corollary-1".into(), FedLConfig::default())];
    for &s in &[0.01, 0.1, 1.0, 10.0] {
        variants.push((
            format!("fixed {s}"),
            FedLConfig { fixed_steps: Some((s, s)), ..FedLConfig::default() },
        ));
    }
    for (name, fedl) in variants {
        let mut scenario =
            profile.scenario(TaskKind::FmnistLike, true, profile.figure_budget(), FIGURE_SEED);
        scenario.fedl = fedl;
        let mut runner = ExperimentRunner::new(scenario, PolicyKind::FedL);
        let outcome = runner.run();
        log_line!(
            "{:<18}{:>10}{:>12.3}{:>14.3}",
            name,
            outcome.epochs.len(),
            outcome.final_accuracy(),
            outcome.final_loss(),
        );
    }
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
