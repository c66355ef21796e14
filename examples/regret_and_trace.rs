//! Theory validation and run forensics through the public API: drive a
//! FedL run with a telemetry handle attached, then inspect (1) the
//! dynamic regret and fit curves whose sub-linear growth Corollary 1
//! guarantees, (2) the structured event trace — who got selected, how
//! often, how fairly — and (3) the JSONL run log's per-phase timing
//! report.
//!
//! ```bash
//! cargo run --release --example regret_and_trace
//! ```
//!
//! The run log lands in `results/regret_trace_run.jsonl`; inspect it
//! later with `experiments telemetry-report results/regret_trace_run.jsonl`.

use fedl::core::fedl::FedLPolicy;
use fedl::prelude::*;
use fedl::telemetry::RunLog;

const RUN_LOG: &str = "results/regret_trace_run.jsonl";

fn main() {
    let scenario = ScenarioConfig::small_fmnist(15, 700.0, 4).with_seed(33);
    let env = scenario.build_env();
    let policy = Box::new(FedLPolicy::new(
        scenario.fedl,
        scenario.env.num_clients,
        scenario.budget,
        scenario.min_participants,
    ));
    let telemetry = Telemetry::to_file(RUN_LOG).expect("create run log");
    let mut runner = ExperimentRunner::with_policy(scenario, env, policy).with_telemetry(telemetry);
    let outcome = runner.run();

    // ── Corollary 1: dynamic regret / fit curves ──
    let tracker = runner.policy().regret_tracker().expect("FedL tracks regret");
    println!("t      Reg(t)        Fit(t)      Reg(t)/t");
    let reg = tracker.cumulative_regret();
    let fit = tracker.fit();
    for i in (0..reg.len()).step_by((reg.len() / 10).max(1)) {
        println!(
            "{:<6} {:>10.3} {:>12.3} {:>12.4}",
            i + 1,
            reg[i],
            fit[i],
            reg[i] / (i + 1) as f64
        );
    }
    println!(
        "\nper-epoch regret fell from {:.4} (first half) to {:.4} (second half)",
        reg[reg.len() / 2] / (reg.len() / 2).max(1) as f64,
        (reg[reg.len() - 1] - reg[reg.len() / 2]) / (reg.len() - reg.len() / 2) as f64,
    );

    // ── Run forensics from the event trace ──
    let trace = runner.trace();
    let m = 15;
    let counts = trace.selection_counts(m);
    println!("\nselection counts per client: {counts:?}");
    println!("Jain fairness index: {:.3} (1.0 = perfectly even)", trace.jain_fairness(m));
    let total_cost: f64 = trace.events().iter().map(|e| e.cost).sum();
    println!(
        "{} epochs, total cost {:.1} of budget {:.0}, final accuracy {:.3}",
        trace.len(),
        total_cost,
        outcome.budget,
        outcome.final_accuracy()
    );

    // ── Per-phase timing from the JSONL run log ──
    let log = RunLog::read(RUN_LOG).expect("read back run log");
    println!("\nrun log: {RUN_LOG}");
    print!("{}", log.report().text());
}
