//! Integration tests of checkpointing: a freshly built FedL policy
//! restored from another's `snapshot_state` must continue from exactly
//! the learned estimates and multipliers of the original; the three
//! checkpoint readers (runner, served coordinator, shard worker) refuse
//! every damaged payload with a typed error and a foreign stamp with the
//! same one; the runner, the server and the worker each report a
//! save that failed; and every checkpointed or cached record keeps its
//! exact bytes, so files written before a change to how records are
//! declared still load.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use fedl::core::fedl::{FedLConfig, FedLPolicy};
use fedl::core::policy::{EpochContext, SelectionPolicy};
use fedl::core::runner::{ModelArch, ResumeError};
use fedl::dist::{WorkerState, DIST_SHARD_CHECKPOINT_KIND};
use fedl::prelude::*;
use fedl::serve::proto::{Message, Trace};
use fedl::serve::{run_loadgen, InProcessTransport, ServeError, SERVE_CHECKPOINT_KIND};
use fedl::sim::EdgeEnvironment;
use fedl::store::{envelope_checksum, read_envelope, write_envelope, StoreError};
use fedl::telemetry::Telemetry;
use fedl_bench::history::HistoryEntry;
use fedl_bench::perf::{BenchSnapshot, KernelStats};
use fedl_json::{ToJson, Value};

/// A fresh policy for `num_clients` clients restored from `original`.
fn restored_from(original: &FedLPolicy, num_clients: usize) -> Result<FedLPolicy, String> {
    let mut fresh = FedLPolicy::new(FedLConfig::default(), num_clients, 350.0, 3);
    fresh.restore_state(&original.snapshot_state()).map_err(|e| e.to_string())?;
    Ok(fresh)
}

fn context_for(env: &EdgeEnvironment, epoch: usize, budget: f64) -> Option<EpochContext> {
    let views = env.views(epoch);
    let available: Vec<usize> = views.iter().filter(|v| v.available).map(|v| v.id).collect();
    if available.is_empty() {
        return None;
    }
    let hints = env.latency_with_share(epoch.saturating_sub(1), &available, 3);
    let truth = env.latency_with_share(epoch, &available, 3);
    Some(EpochContext {
        epoch,
        num_clients: env.num_clients(),
        costs: available.iter().map(|&k| views[k].cost).collect(),
        data_volumes: available.iter().map(|&k| views[k].data_volume).collect(),
        latency_hint: hints,
        loss_hint: vec![2.3; available.len()],
        true_latency: truth,
        available,
        remaining_budget: budget,
        min_participants: 3,
        seed: 51,
    })
}

/// Drives `policy` for `epochs` federated epochs by hand (keeping
/// ownership, unlike `ExperimentRunner`, so the state stays inspectable).
fn drive(policy: &mut FedLPolicy, env: &mut EdgeEnvironment, epochs: usize) {
    let mut budget = 350.0;
    for t in 0..epochs {
        let Some(ctx) = context_for(env, t, budget) else { continue };
        let mut decision = policy.select(&ctx);
        decision.cohort.retain(|id| ctx.available.contains(id));
        if decision.cohort.is_empty() {
            decision.cohort = ctx.available.iter().copied().take(3).collect();
        }
        let report = env.run_epoch(t, &decision.cohort, decision.iterations.clamp(1, 10));
        budget -= report.cost;
        policy.observe(&ctx, &report);
        if budget <= 0.0 {
            break;
        }
    }
}

#[test]
fn checkpoint_round_trips_learner_state() {
    let scenario = ScenarioConfig::small_fmnist(10, 350.0, 3).with_seed(51);
    let mut env = scenario.build_env();
    let mut original = FedLPolicy::new(FedLConfig::default(), 10, 350.0, 3);
    drive(&mut original, &mut env, 12);

    let snapshot = original.snapshot_state().to_json();
    assert!(snapshot.contains("mu0"), "snapshot should carry multipliers");
    let restored = restored_from(&original, 10).expect("valid snapshot");

    // Learned state must match exactly.
    let close = |a: f64, b: f64| a.to_bits() == b.to_bits();
    let (mu0_a, mu_a) = original.learner().multipliers();
    let (mu0_b, mu_b) = restored.learner().multipliers();
    assert!(close(mu0_a, mu0_b));
    assert!(mu_a.iter().zip(mu_b).all(|(&x, &y)| close(x, y)));
    assert!(mu_a.iter().any(|&m| m > 0.0) || mu0_a > 0.0, "run should have built duals");
    for k in 0..10 {
        let a = original.learner().state().stats(k).map(|s| (s.tau, s.eta, s.g, s.last_x));
        let b = restored.learner().state().stats(k).map(|s| (s.tau, s.eta, s.g, s.last_x));
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert!(
                    close(x.0, y.0) && close(x.1, y.1) && close(x.2, y.2) && close(x.3, y.3),
                    "client {k} state diverged: {x:?} vs {y:?}"
                );
            }
            other => panic!("client {k} presence diverged: {other:?}"),
        }
    }
}

#[test]
fn restored_policy_continues_with_identical_estimates() {
    // The restored policy's *fractional* decision (pre-rounding state is
    // what the snapshot carries) must be reproducible: both copies,
    // given the same context, build the same one-shot problem.
    let scenario = ScenarioConfig::small_fmnist(10, 350.0, 3).with_seed(52);
    let mut env = scenario.build_env();
    let mut original = FedLPolicy::new(FedLConfig::default(), 10, 350.0, 3);
    drive(&mut original, &mut env, 8);
    let mut restored = restored_from(&original, 10).unwrap();
    // Compare remembered per-client latency estimates directly.
    for k in 0..10 {
        let a = original.learner().state().stats(k).map(|s| s.tau);
        let b = restored.learner().state().stats(k).map(|s| s.tau);
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "client {k} estimate diverged");
    }
    // And both copies, given the same contexts, decide identically from here on.
    for t in 8..12 {
        let Some(ctx) = context_for(&env, t, 100.0) else { continue };
        let (a, b) = (original.select(&ctx), restored.select(&ctx));
        assert_eq!((a.cohort.clone(), a.iterations), (b.cohort, b.iterations), "epoch {t}");
        let report = env.run_epoch(t, &a.cohort, a.iterations.clamp(1, 10));
        original.observe(&ctx, &report);
        restored.observe(&ctx, &report);
    }
}

#[test]
fn restore_rejects_wrong_federation_size() {
    let policy = FedLPolicy::new(FedLConfig::default(), 6, 100.0, 2);
    assert!(restored_from(&policy, 12).is_err(), "size mismatch must be rejected");
}

#[test]
fn restore_rejects_garbage() {
    // Another policy's state is not a FedL snapshot.
    let mut policy = FedLPolicy::new(FedLConfig::default(), 4, 100.0, 2);
    for foreign in [PolicyKind::FedAvg, PolicyKind::PowD] {
        let state = foreign.build(4, 100.0, 2, FedLConfig::default()).snapshot_state();
        assert!(policy.restore_state(&state).is_err(), "{foreign:?} state must be rejected");
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fedl_checkpoint_tests").join(name);
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn runner_scenario() -> ScenarioConfig {
    let mut s = ScenarioConfig::small_fmnist(8, 200.0, 2).with_seed(7);
    (s.train_size, s.test_size, s.max_epochs) = (300, 100, 12);
    s.model = ModelArch::Linear { l2: 0.001 };
    s
}

fn serve_config() -> ServeConfig {
    ServeConfig::new(30, 13, 100_000.0, 3, PolicyKind::FedL)
}

/// The assignment that made the shard checkpoint below.
fn assign() -> Message {
    Message::ShardAssign {
        clients: 30,
        seed: 13,
        budget: 100_000.0,
        min_participants: 3,
        policy: "fedl".to_string(),
        shard_start: 0,
        shard_end: 15,
    }
}

/// Serves `epochs` epochs on `server` through the in-process loadgen.
fn serve(server: &mut ServerState, epochs: usize) {
    let opts = LoadgenOptions { epochs, start_epoch: 0, shutdown: false };
    run_loadgen(&mut InProcessTransport::new(server), &serve_config(), &opts).unwrap();
}

/// One checkpoint reader: the envelope kind it reads, a checkpoint its
/// own process wrote, and its resume entry point with every refusal as the
/// `StoreError` it carries.
struct Decoder {
    name: &'static str,
    kind: &'static str,
    real: PathBuf,
    resume: fn(&Path) -> Result<(), StoreError>,
}

fn decoders(dir: &Path) -> [Decoder; 3] {
    let runner = dir.join("runner.fedlstore");
    let mut first = ExperimentRunner::new(runner_scenario(), PolicyKind::FedL);
    for _ in 0..3 {
        assert!(first.step());
    }
    first.save_checkpoint(&runner).unwrap();

    let served = dir.join("serve.fedlstore");
    let mut server =
        ServerState::new(serve_config(), Telemetry::disabled()).with_checkpoint(&served, 1);
    serve(&mut server, 2);

    let shard = dir.join("shard.fedlstore");
    let mut worker = WorkerState::new(Telemetry::disabled()).with_checkpoint(&shard);
    worker.handle_message(assign());
    worker.handle_message(Message::ShardContext { epoch: 0, trace: Trace::Absent });

    [
        Decoder {
            name: "runner",
            kind: "checkpoint",
            real: runner,
            resume: |path| match ExperimentRunner::resume_from(
                runner_scenario(),
                PolicyKind::FedL,
                path,
            ) {
                Ok(_) => Ok(()),
                Err(ResumeError::Store(e)) => Err(e),
                Err(other) => panic!("the scenario is valid: {other}"),
            },
        },
        Decoder {
            name: "serve",
            kind: SERVE_CHECKPOINT_KIND,
            real: served,
            resume: |path| match ServerState::resume(serve_config(), Telemetry::disabled(), path) {
                Ok(_) => Ok(()),
                Err(ServeError::Store(e)) => Err(e),
                Err(other) => panic!("a resume is refused by the store: {other}"),
            },
        },
        Decoder {
            name: "shard",
            kind: DIST_SHARD_CHECKPOINT_KIND,
            real: shard,
            resume: |path| WorkerState::resume(Telemetry::disabled(), path).map(drop),
        },
    ]
}

fn field_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Obj(pairs) = value else { panic!("`{key}`'s parent is not an object") };
    &mut pairs.iter_mut().find(|(k, _)| k == key).expect("field present").1
}

/// The tensors of the runner payload's `server.<key>` parameter set.
fn tensors<'a>(payload: &'a mut Value, key: &str) -> &'a mut Vec<Value> {
    let server = field_mut(field_mut(payload, "server"), key);
    let Value::Arr(tensors) = field_mut(server, "tensors") else { panic!("not an array") };
    tensors
}

/// Every top-level field dropped, set to `null`, and set to a value of
/// the wrong type.
fn field_mutants(payload: &Value) -> Vec<(String, Value)> {
    let Value::Obj(fields) = payload else { panic!("a checkpoint payload is an object") };
    let mut mutants = Vec::new();
    for (i, (key, value)) in fields.iter().enumerate() {
        let mut dropped = fields.clone();
        dropped.remove(i);
        mutants.push((format!("`{key}` dropped"), Value::Obj(dropped)));
        let wrong = match value {
            Value::Str(_) => Value::Int(7),
            _ => Value::from("a string"),
        };
        for (what, replacement) in [("null", Value::Null), ("of the wrong type", wrong)] {
            let mut changed = fields.clone();
            changed[i].1 = replacement;
            mutants.push((format!("`{key}` {what}"), Value::Obj(changed)));
        }
    }
    mutants
}

/// The runner's model and aggregated gradient `J`, each with its first
/// tensor transposed and with its last tensor missing: well-formed
/// parameter sets that do not fit the scenario's model.
fn shape_mutants(payload: &Value) -> Vec<(String, Value)> {
    let mut mutants = Vec::new();
    for key in ["model", "j_agg"] {
        let mut transposed = payload.clone();
        let first = &mut tensors(&mut transposed, key)[0];
        let (rows, cols) = (first.get("rows").cloned(), first.get("cols").cloned());
        assert_ne!(rows, cols, "a transposed square tensor would still fit");
        *field_mut(first, "rows") = cols.unwrap();
        *field_mut(first, "cols") = rows.unwrap();
        mutants.push((format!("`server.{key}` transposed"), transposed));

        let mut short = payload.clone();
        tensors(&mut short, key).pop();
        mutants.push((format!("`server.{key}` without its last tensor"), short));
    }
    mutants
}

/// Re-seals `payload` under `kind` and resumes it, turning a panic into
/// a test failure that names the mutant.
fn resume_sealed(d: &Decoder, path: &Path, label: &str, payload: &Value) -> Result<(), StoreError> {
    write_envelope(path, d.kind, payload).unwrap();
    catch_unwind(AssertUnwindSafe(|| (d.resume)(path)))
        .unwrap_or_else(|_| panic!("{}: {label} panicked the resume", d.name))
}

#[test]
fn every_mutated_checkpoint_is_refused_and_a_foreign_stamp_alike() {
    let dir = scratch("mutants");
    for d in decoders(&dir) {
        let mutant = dir.join(format!("{}-mutant.fedlstore", d.name));
        let path = mutant.display().to_string();
        let payload = read_envelope(&d.real, d.kind).unwrap();
        assert_eq!(resume_sealed(&d, &mutant, "the untouched payload", &payload), Ok(()));

        let mut mutants = field_mutants(&payload);
        if d.name == "runner" {
            mutants.extend(shape_mutants(&payload));
        }
        for (label, mutated) in mutants {
            match resume_sealed(&d, &mutant, &label, &mutated) {
                Err(StoreError::Schema { path: p, .. }) if p == path => {}
                other => panic!("{}: {label} must be a schema refusal, got {other:?}", d.name),
            }
        }

        // The stamp: another payload schema version is one refusal at
        // every reader...
        let supported = payload.get("schema_version").and_then(Value::as_usize).unwrap();
        let mut foreign = payload.clone();
        *field_mut(&mut foreign, "schema_version") = Value::from(supported + 1);
        let refusal = resume_sealed(&d, &mutant, "a foreign schema version", &foreign);
        let found = supported + 1;
        assert_eq!(
            refusal,
            Err(StoreError::SchemaVersion { path: path.clone(), found, supported })
        );

        // ...and another deployment's fingerprint is one refusal at every
        // reader that knows its deployment. The worker learns its own
        // from the file, so it resumes and refuses the assignment that
        // does not match it instead.
        let mut foreign = payload.clone();
        *field_mut(&mut foreign, "fingerprint") = Value::from("0".repeat(32));
        let refusal = resume_sealed(&d, &mutant, "a foreign fingerprint", &foreign);
        if d.name == "shard" {
            assert_eq!(refusal, Ok(()));
            let mut worker = WorkerState::resume(Telemetry::disabled(), &mutant).unwrap();
            let (reply, _) = worker.handle_message(assign());
            assert!(
                matches!(reply, Message::Error { ref code, .. } if code == "schema"),
                "{reply:?}"
            );
        } else {
            assert!(
                matches!(refusal, Err(StoreError::Fingerprint { path: ref p, .. }) if *p == path),
                "{}: a foreign fingerprint must be refused by it, got {refusal:?}",
                d.name
            );
        }
    }
}

#[test]
fn runner_server_and_worker_report_a_failed_save_as_an_event() {
    // A checkpoint path under a regular file: its directory can never be
    // created, so every save fails.
    let dir = scratch("save_failed");
    fs::write(dir.join("file"), "").unwrap();
    let path = dir.join("file").join("ckpt.fedlstore");

    let (runner_tel, runner_log) = Telemetry::in_memory();
    let mut runner = ExperimentRunner::new(runner_scenario(), PolicyKind::FedL)
        .checkpoint_every(1, &path)
        .with_telemetry(runner_tel);
    assert!(runner.step());

    let (server_tel, server_log) = Telemetry::in_memory();
    let mut server = ServerState::new(serve_config(), server_tel).with_checkpoint(&path, 1);
    serve(&mut server, 1);

    let (worker_tel, worker_log) = Telemetry::in_memory();
    let mut worker = WorkerState::new(worker_tel).with_checkpoint(&path);
    worker.handle_message(assign());

    for (who, log) in [("runner", runner_log), ("serve", server_log), ("shard", worker_log)] {
        let events = log.events().unwrap();
        let failed =
            |e: &&Value| e.get("kind").and_then(Value::as_str) == Some("checkpoint.save_failed");
        let failures: Vec<&Value> = events.iter().filter(failed).collect();
        assert!(!failures.is_empty(), "{who}: a failed save left no event");
        for event in failures {
            assert_eq!(
                event.get("path").and_then(Value::as_str),
                Some(&*path.display().to_string())
            );
            let error = event.get("error").and_then(Value::as_str).unwrap_or_default();
            assert!(error.contains("I/O error"), "{who}: {error}");
        }
    }
}

/// `(byte length, envelope_checksum)` of a record's rendering.
fn pin(bytes: impl AsRef<[u8]>) -> (usize, u64) {
    (bytes.as_ref().len(), envelope_checksum(bytes.as_ref()))
}

#[test]
fn every_checkpointed_and_cached_record_keeps_its_bytes() {
    // A FedL snapshot after six hand-driven epochs.
    let mut env = ScenarioConfig::small_fmnist(10, 350.0, 3).with_seed(51).build_env();
    let mut policy = FedLPolicy::new(FedLConfig::default(), 10, 350.0, 3);
    drive(&mut policy, &mut env, 6);
    let snapshot = policy.snapshot_state().to_json();

    // The three checkpoint files and the runner's payload.
    let dir = scratch("bytes");
    let [runner, served, shard] = decoders(&dir).map(|d| d.real);
    let runner_payload = read_envelope(&runner, "checkpoint").unwrap().to_json();

    // A finished run, its first trace event, and a perf history line.
    let mut run = ExperimentRunner::new(runner_scenario(), PolicyKind::FedL);
    let outcome = run.run().to_json_value().to_json();
    let event = run.trace().events()[0].to_json_value().to_json();
    let kernel = KernelStats {
        name: "solve/descend_10k".into(),
        mean_ns: 512_000.5,
        std_ns: 1_250.25,
        min_ns: 498_000.0,
        iters: 3,
        samples: 12,
    };
    let snap = BenchSnapshot {
        schema_version: 13,
        profile: "quick".into(),
        threads: 2,
        kernels: vec![kernel],
    };
    let line = HistoryEntry {
        schema_version: 1,
        fingerprint: "linux-x86_64/t2/quick/bench-v13".into(),
        commit: "0123456789ab".into(),
        snapshot: snap,
    }
    .to_json_value()
    .to_json();

    let fixed = FedLConfig { fixed_steps: Some((0.25, 1.5)), ..FedLConfig::default() };

    let pinned = [
        ("snapshot", pin(&snapshot)),
        ("runner payload", pin(&runner_payload)),
        ("runner file", pin(fs::read(&runner).unwrap())),
        ("serve file", pin(fs::read(&served).unwrap())),
        ("shard file", pin(fs::read(&shard).unwrap())),
        ("outcome", pin(&outcome)),
    ];
    let want = [
        ("snapshot", (2190, 0xcf78a39ddd974a74)),
        ("runner payload", (31154, 0x8d1a6574d6527fef)),
        ("runner file", (31205, 0x9aac7ef264b7e510)),
        ("serve file", (4623, 0x3623df8e63c4a3c7)),
        ("shard file", (180, 0x333cee44d93205a2)),
        ("outcome", (2184, 0xedeab1a1689793d0)),
    ];
    assert_eq!(pinned, want);
    assert_eq!(
        event,
        r#"{"epoch":0,"cohort":[2,6],"iterations":2,"latency_secs":0.06714934862607891,"cost":18.027058066392232,"remaining_budget":181.97294193360776,"eta_hats":[0.6143767833709717,0.5173143744468689],"global_loss":2.2718338528904347}"#
    );
    assert_eq!(
        line,
        r#"{"schema_version":1,"fingerprint":"linux-x86_64/t2/quick/bench-v13","commit":"0123456789ab","snapshot":{"schema_version":13,"profile":"quick","threads":2,"kernels":[{"name":"solve/descend_10k","mean_ns":512000.5,"std_ns":1250.25,"min_ns":498000.0,"iters":3,"samples":12}]}}"#
    );
    assert_eq!(
        FedLConfig::default().to_json_value().to_json(),
        r#"{"theta":1.0,"rho_max":10.0,"step_scale":1.0,"dual_scale":10.0,"fixed_steps":null,"mean_cost_estimate":6.05,"independent_rounding":false,"fairness_weight":0.0}"#
    );
    assert_eq!(
        fixed.to_json_value().to_json(),
        r#"{"theta":1.0,"rho_max":10.0,"step_scale":1.0,"dual_scale":10.0,"fixed_steps":[0.25,1.5],"mean_cost_estimate":6.05,"independent_rounding":false,"fairness_weight":0.0}"#
    );
    assert_eq!(
        fedl::ml::DaneConfig::default().to_json_value().to_json(),
        r#"{"sigma1":0.10000000149011612,"sigma2":1.0,"lr":0.20000000298023224,"local_steps":8,"batch":32,"clip":10.0,"momentum":0.0}"#
    );
}
