//! End-to-end telemetry integration: a full runner scenario must emit
//! the complete event set — `run_start`, one `epoch`/`train`/`ledger`
//! triple per executed epoch, phase `span`s, a `metrics` snapshot, and
//! `run_end` — and the disabled handle must leave results untouched.

use fedl_core::runner::{ExperimentRunner, ModelArch, ScenarioConfig};
use fedl_core::PolicyKind;
use fedl_json::Value;
use fedl_telemetry::{RunLog, Telemetry};

fn scenario() -> ScenarioConfig {
    let mut s = ScenarioConfig::small_fmnist(8, 120.0, 2).with_seed(11);
    s.train_size = 600;
    s.test_size = 200;
    s.max_epochs = 40;
    s.model = ModelArch::Linear { l2: 0.001 };
    s.dane.lr = 0.3;
    s
}

fn kind_of(event: &Value) -> &str {
    event.get("kind").unwrap().as_str().unwrap()
}

#[test]
fn full_run_emits_complete_event_stream() {
    let (tel, handle) = Telemetry::in_memory();
    let mut runner = ExperimentRunner::new(scenario(), PolicyKind::FedL).with_telemetry(tel);
    let outcome = runner.run();
    assert!(!outcome.epochs.is_empty());

    let events = handle.events().unwrap();
    assert_eq!(kind_of(&events[0]), "run_start", "run_start must lead the log");
    assert_eq!(events[0].get("policy").unwrap().as_str(), Some("FedL"));
    assert_eq!(events[0].get("budget").unwrap().as_f64(), Some(120.0));
    assert_eq!(kind_of(events.last().unwrap()), "metrics");
    assert_eq!(kind_of(&events[events.len() - 2]), "run_end");

    // One select/epoch/train/ledger event per executed epoch.
    let n = outcome.epochs.len();
    for kind in ["select", "epoch", "train", "ledger"] {
        let count = events.iter().filter(|e| kind_of(e) == kind).count();
        assert_eq!(count, n, "expected {n} `{kind}` events");
    }

    // Every select event pairs the cohort with aligned estimates.
    for event in events.iter().filter(|e| kind_of(e) == "select") {
        let cohort = event.get("cohort").unwrap().as_arr().unwrap();
        let estimates = event.get("estimates").unwrap().as_arr().unwrap();
        assert!(!cohort.is_empty());
        assert_eq!(estimates.len(), cohort.len());
    }

    // Every train event attributes rent and latency splits per client.
    for event in events.iter().filter(|e| kind_of(e) == "train") {
        let cohort = event.get("cohort").unwrap().as_arr().unwrap();
        let charged = event.get("charged").unwrap().as_arr().unwrap();
        let costs = event.get("per_client_cost").unwrap().as_arr().unwrap();
        assert!(charged.len() >= cohort.len(), "charged covers dropouts too");
        assert_eq!(costs.len(), charged.len());
        let total: f64 = costs.iter().map(|c| c.as_f64().unwrap()).sum();
        assert!((total - event.get("cost").unwrap().as_f64().unwrap()).abs() < 1e-9);
        let compute = event.get("per_client_compute_secs").unwrap().as_arr().unwrap();
        let upload = event.get("per_client_upload_secs").unwrap().as_arr().unwrap();
        assert_eq!(compute.len(), cohort.len(), "equal-share FDMA has a split");
        assert_eq!(upload.len(), cohort.len());
    }

    // Every epoch event carries the full schema with sane values.
    let mut prev_remaining = f64::INFINITY;
    for event in events.iter().filter(|e| kind_of(e) == "epoch") {
        let cohort = event.get("cohort").unwrap().as_arr().unwrap();
        assert!(!cohort.is_empty());
        let est = event.get("est_iter_latency").unwrap().as_arr().unwrap();
        let realized = event.get("realized_iter_latency").unwrap().as_arr().unwrap();
        let eta = event.get("eta_hats").unwrap().as_arr().unwrap();
        assert_eq!(est.len(), cohort.len());
        assert_eq!(realized.len(), cohort.len());
        assert_eq!(eta.len(), cohort.len());
        for v in est.iter().chain(realized) {
            assert!(v.as_f64().unwrap() > 0.0);
        }
        assert!(event.get("cost").unwrap().as_f64().unwrap() > 0.0);
        let remaining = event.get("budget_remaining").unwrap().as_f64().unwrap();
        assert!(remaining < prev_remaining, "budget must shrink monotonically");
        prev_remaining = remaining;
        // FedL has a regret tracker, so the terms must be finite.
        assert!(event.get("regret").unwrap().as_f64().unwrap().is_finite());
        assert!(event.get("fit").unwrap().as_f64().unwrap().is_finite());
        assert!(event.get("accuracy").unwrap().as_f64().unwrap() >= 0.0);
    }

    // run_end totals agree with the outcome.
    let run_end = &events[events.len() - 2];
    assert_eq!(run_end.get("epochs").unwrap().as_i64(), Some(n as i64));
    assert_eq!(run_end.get("final_accuracy").unwrap().as_f64(), Some(outcome.final_accuracy()));

    // Phase spans: every executed epoch times epoch/select/train/evaluate.
    let log = RunLog::parse(&handle.lines().join("\n"));
    assert!(log
        .missing_kinds(&[
            "run_start",
            "select",
            "epoch",
            "train",
            "ledger",
            "span",
            "metrics",
            "run_end"
        ])
        .is_empty());

    // The dashboard aggregation sees real rent and, for FedL, per-client
    // quality estimates, once the policy has observed a client.
    let usage = log.client_usage();
    assert!(!usage.is_empty());
    assert!(usage.iter().all(|u| u.selections > 0));
    assert!(usage.iter().any(|u| u.payment > 0.0));
    assert!(usage.iter().any(|u| u.total_secs > 0.0));
    assert!(
        usage.iter().any(|u| u.last_estimate.is_some()),
        "FedL must surface η̂ estimates in the select events"
    );
    let stats = log.phase_stats();
    for phase in ["epoch", "select", "train", "evaluate"] {
        let s = stats
            .iter()
            .find(|s| s.name == phase)
            .unwrap_or_else(|| panic!("missing span stats for phase `{phase}`"));
        assert_eq!(s.count, n, "phase `{phase}`");
    }
    // round spans: one per iteration, at least one iteration per epoch.
    let rounds = stats.iter().find(|s| s.name == "round").unwrap();
    assert!(rounds.count >= n);

    // The metrics snapshot aggregates the whole run.
    let metrics = events.last().unwrap().get("registry").unwrap();
    let counters = metrics.get("counters").unwrap();
    assert_eq!(counters.get("budget.epochs_charged").unwrap().as_i64(), Some(n as i64));
    assert!(counters.get("ml.local_updates").unwrap().as_i64().unwrap() > 0);
    let histograms = metrics.get("histograms").unwrap();
    for name in ["span.epoch", "ml.eta_hat", "sim.epoch_latency_secs", "run.epoch_cost"] {
        let h = histograms.get(name).unwrap_or_else(|| panic!("missing histogram {name}"));
        assert!(h.get("count").unwrap().as_i64().unwrap() > 0, "{name}");
        assert!(h.get("p50").unwrap().as_f64().is_some(), "{name}");
    }
    // FedL reports every decision's solve: one sample per epoch, within
    // the scan-and-refine projection cap.
    let solve = histograms.get("core.solve.projections").expect("FedL forwards its SolveOutcome");
    assert_eq!(solve.get("count").unwrap().as_i64(), Some(n as i64));
    assert!(solve.get("max").unwrap().as_f64().unwrap() <= 256.0);
}

#[test]
fn disabled_telemetry_matches_untelemetered_run() {
    let mut plain = ExperimentRunner::new(scenario(), PolicyKind::FedL);
    let mut disabled =
        ExperimentRunner::new(scenario(), PolicyKind::FedL).with_telemetry(Telemetry::disabled());
    let a = plain.run();
    let b = disabled.run();
    assert_eq!(a.epochs.len(), b.epochs.len());
    for (x, y) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(x.accuracy, y.accuracy);
        assert_eq!(x.spent, y.spent);
        assert_eq!(x.cohort_size, y.cohort_size);
    }
}

#[test]
fn baseline_policies_report_nan_regret_terms() {
    let (tel, handle) = Telemetry::in_memory();
    let mut runner = ExperimentRunner::new(scenario(), PolicyKind::FedAvg).with_telemetry(tel);
    let outcome = runner.run();
    assert!(!outcome.epochs.is_empty());
    let events = handle.events().unwrap();
    let epoch = events.iter().find(|e| kind_of(e) == "epoch").unwrap();
    // FedAvg has no regret tracker; fedl-json serialises NaN as null.
    assert!(epoch.get("regret").unwrap().as_f64().is_none_or(f64::is_nan));
}
