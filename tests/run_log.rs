//! Producer → reader: what the runner and the distributed coordinator
//! write into their run logs, read back through `RunLog`, must agree
//! with what the producers themselves report — the ledger's spend, the
//! emitted cohorts, one regret point per epoch record, and a worker
//! span tree that resolves completely against the coordinator's.

use fedl::core::runner::ModelArch;
use fedl::dist::{
    shard_ranges, Coordinator, DistOptions, LocalWorkerLink, ShardWorker, WorkerState,
};
use fedl::prelude::*;
use fedl::telemetry::{merge_traces, MemoryHandle};

fn read_back(handle: &MemoryHandle) -> RunLog {
    RunLog::parse(&handle.lines().join("\n"))
}

#[test]
fn runner_log_attributes_the_ledger_and_every_cohort() {
    let mut scenario = ScenarioConfig::small_fmnist(8, 120.0, 2).with_seed(11);
    scenario.train_size = 600;
    scenario.test_size = 200;
    scenario.max_epochs = 40;
    scenario.model = ModelArch::Linear { l2: 0.001 };
    let (telemetry, handle) = Telemetry::in_memory();
    let mut runner = ExperimentRunner::new(scenario, PolicyKind::FedL).with_telemetry(telemetry);
    let outcome = runner.run();
    assert!(!outcome.epochs.is_empty());
    let log = read_back(&handle);
    assert_eq!(log.skipped_lines(), 0);

    let usage = log.client_usage();
    let paid: f64 = usage.iter().map(|u| u.payment).sum();
    let spent = outcome.epochs.last().unwrap().spent;
    assert!((paid - spent).abs() <= 1e-9 * spent.abs(), "attributed {paid}, ledger spent {spent}");

    // The emitted cohorts, counted from the raw events.
    let emitted: usize = handle
        .events()
        .unwrap()
        .iter()
        .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some("select"))
        .map(|e| e.get("cohort").unwrap().as_arr().unwrap().len())
        .sum();
    assert!(emitted > 0);
    assert_eq!(usage.iter().map(|u| u.selections).sum::<usize>(), emitted);

    // One regret point per epoch record, in order, all finite (FedL
    // tracks regret).
    assert_eq!(log.epochs.len(), outcome.epochs.len());
    for (row, record) in log.epochs.iter().zip(&outcome.epochs) {
        assert_eq!(row.epoch, record.epoch);
        assert!(row.regret.is_finite(), "epoch {}", row.epoch);
        assert_eq!(row.global_loss, Some(record.global_loss));
    }
}

#[test]
fn dist_logs_resolve_every_worker_span() {
    let config = ServeConfig::new(30, 7, 200.0, 3, PolicyKind::FedL);
    let mut handles = Vec::new();
    let workers = shard_ranges(30, 2)
        .into_iter()
        .map(|shard| {
            let (telemetry, handle) = Telemetry::in_memory();
            handles.push(handle);
            ShardWorker { shard, link: Box::new(LocalWorkerLink::new(WorkerState::new(telemetry))) }
        })
        .collect();
    let (telemetry, coord) = Telemetry::in_memory();
    let mut coordinator = Coordinator::new(config, workers, telemetry).unwrap();
    let report = coordinator.run(&DistOptions { epochs: 4, ..Default::default() }).unwrap();
    assert_eq!(report.selections.len(), 4);

    let mut runs = vec![("coord".to_string(), read_back(&coord))];
    for (i, handle) in handles.iter().enumerate() {
        runs.push((format!("coord.worker-{i}"), read_back(handle)));
    }
    let model = merge_traces(&runs).unwrap();
    assert!(model.worker_spans > 0);
    assert_eq!(model.resolved_spans, model.worker_spans, "{}", model.linkage_line());
    assert_eq!(model.epochs.len(), report.selections.len());
    for epoch in &model.epochs {
        assert!(epoch.workers.iter().all(|w| w.realize_secs > 0.0), "epoch {}", epoch.epoch);
    }
}
