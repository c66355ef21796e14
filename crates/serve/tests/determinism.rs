//! The service's crash-safety contract (extends the conventions of the
//! root `tests/checkpoint.rs`): replay half the load, kill the server,
//! restart from its checkpoint, replay the rest — the selection
//! sequence must be bit-identical to an uninterrupted served run, which
//! itself must match the in-process reference driver.

use std::fs;
use std::path::PathBuf;

use fedl_core::policy::PolicyKind;
use fedl_serve::{
    reference_run, run_loadgen, InProcessTransport, LoadgenOptions, SelectionRecord, ServeConfig,
    ServeError, ServerState, SERVE_CHECKPOINT_KIND,
};
use fedl_store::StoreError;
use fedl_telemetry::Telemetry;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fedl_serve_determinism_tests");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config() -> ServeConfig {
    ServeConfig::new(50, 13, 100_000.0, 3, PolicyKind::FedL)
}

fn drive(
    server: &mut ServerState,
    config: &ServeConfig,
    start: usize,
    epochs: usize,
) -> Vec<SelectionRecord> {
    let mut conn = InProcessTransport::new(server);
    let opts = LoadgenOptions { epochs, start_epoch: start, shutdown: false };
    run_loadgen(&mut conn, config, &opts).expect("loadgen should succeed").selections
}

#[test]
fn killed_and_restarted_server_is_bit_identical() {
    let config = config();
    let ckpt = tmp("kill_restart.fedlstore");
    fs::remove_file(&ckpt).ok();

    // Uninterrupted served run: 12 epochs on one server.
    let mut uninterrupted = ServerState::new(config.clone(), Telemetry::disabled());
    let full = drive(&mut uninterrupted, &config, 0, 12);
    assert_eq!(full.len(), 12);
    assert!(full.iter().all(|r| !r.cohort.is_empty()), "50 clients: every epoch selects");
    assert_eq!(uninterrupted.realizations(), 12, "one realization per served epoch");

    // Interrupted run: 6 epochs, checkpointing every 2, then the server
    // is dropped (killed) and a new process-equivalent resumes.
    let mut first =
        ServerState::new(config.clone(), Telemetry::disabled()).with_checkpoint(&ckpt, 2);
    let half1 = drive(&mut first, &config, 0, 6);
    drop(first);

    let mut resumed = ServerState::resume(config.clone(), Telemetry::disabled(), &ckpt)
        .expect("resume should succeed")
        .with_checkpoint(&ckpt, 2);
    assert_eq!(resumed.next_epoch(), 6, "checkpoint-every 2 lands exactly on epoch 6");
    let half2 = drive(&mut resumed, &config, 6, 6);
    // The window is not checkpointed: a resume re-realizes its hint
    // epoch (5), once, then one epoch per epoch.
    assert_eq!(resumed.realizations(), 6 + 1);

    let mut stitched = half1;
    stitched.extend(half2);
    assert_eq!(stitched, full, "kill + restart must not change a single selection");

    // And the protocol path itself must match the in-process reference.
    assert_eq!(full, reference_run(&config, 12));
    fs::remove_file(&ckpt).ok();
}

#[test]
fn registry_survives_the_checkpoint() {
    let config = ServeConfig::new(20, 9, 5_000.0, 2, PolicyKind::FedAvg);
    let ckpt = tmp("registry.fedlstore");
    fs::remove_file(&ckpt).ok();
    let mut server =
        ServerState::new(config.clone(), Telemetry::disabled()).with_checkpoint(&ckpt, 1);
    // Join a strict subset, run one epoch so a checkpoint lands.
    let _ = drive(&mut server, &config, 0, 1);
    assert_eq!(server.registered_count(), 20);
    drop(server);
    let resumed = ServerState::resume(config, Telemetry::disabled(), &ckpt).unwrap();
    assert_eq!(resumed.registered_count(), 20, "registry must be restored");
    assert_eq!(resumed.next_epoch(), 1);
    assert_eq!(resumed.selections(), 1);
    fs::remove_file(&ckpt).ok();
}

#[test]
fn resume_refuses_a_foreign_deployment() {
    let config = config();
    let ckpt = tmp("foreign.fedlstore");
    fs::remove_file(&ckpt).ok();
    let mut server =
        ServerState::new(config.clone(), Telemetry::disabled()).with_checkpoint(&ckpt, 1);
    let _ = drive(&mut server, &config, 0, 2);
    drop(server);
    // Same file, different seed: the fingerprint must not match.
    let other = ServeConfig::new(50, 14, 100_000.0, 3, PolicyKind::FedL);
    match ServerState::resume(other, Telemetry::disabled(), &ckpt) {
        Err(ServeError::Store(StoreError::Fingerprint { .. })) => {}
        other => panic!("expected Fingerprint error, got {:?}", other.err().map(|e| e.to_string())),
    }
    // And a damaged checkpoint is a typed store error, not a panic.
    let text = fs::read_to_string(&ckpt).unwrap();
    fs::write(&ckpt, &text[..text.len() / 2]).unwrap();
    assert!(matches!(
        ServerState::resume(config, Telemetry::disabled(), &ckpt),
        Err(ServeError::Store(_))
    ));
    fs::remove_file(&ckpt).ok();
}

#[test]
fn resume_refuses_a_v1_checkpoint() {
    let config = config();
    let ckpt = tmp("v1.fedlstore");
    fs::remove_file(&ckpt).ok();
    let mut server =
        ServerState::new(config.clone(), Telemetry::disabled()).with_checkpoint(&ckpt, 1);
    let _ = drive(&mut server, &config, 0, 2);
    drop(server);
    // The same checkpoint as a build on envelope v1 (FNV-1a) wrote it.
    let text = fs::read_to_string(&ckpt).unwrap();
    let body = text.split_once('\n').unwrap().1;
    let crc = fedl_store::fnv1a64(body.as_bytes());
    fs::write(&ckpt, format!("fedl-store v1 kind={SERVE_CHECKPOINT_KIND} crc={crc:016x}\n{body}"))
        .unwrap();
    match ServerState::resume(config, Telemetry::disabled(), &ckpt) {
        Err(ServeError::Store(StoreError::Version { found: 1, supported: 2, .. })) => {}
        other => panic!("expected a v1 refusal, got {:?}", other.err().map(|e| e.to_string())),
    }
    fs::remove_file(&ckpt).ok();
}
