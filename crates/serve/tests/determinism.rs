//! The service's crash-safety contract (extends the conventions of the
//! root `tests/checkpoint.rs`): replay half the load, kill the server,
//! restart from its checkpoint, replay the rest — the selection
//! sequence must be bit-identical to an uninterrupted served run, which
//! itself must match the in-process reference driver. Over real TCP,
//! the loadgen's pipelined joins register the whole population and a
//! refused join ends the run with the server's own text.

use std::fs;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use fedl_core::policy::PolicyKind;
use fedl_serve::{
    reference_run, run_loadgen, serve_connection, InProcessTransport, LoadgenOptions,
    LoadgenReport, ProtocolError, SelectionRecord, ServeConfig, ServeError, ServeExit, ServerState,
    TcpTransport, SERVE_CHECKPOINT_KIND,
};
use fedl_store::StoreError;
use fedl_telemetry::Telemetry;

/// See docs/BUILD.md "Where tests live".
fn scratch_dir(test: &str) -> PathBuf {
    let binary = env!("CARGO_CRATE_NAME");
    let dir = std::env::temp_dir().join(format!("fedl-{binary}-{}-{test}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
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

/// A server for `served` on its own thread behind loopback TCP, driven
/// for `epochs` (then shut down) by a loadgen that believes in `replayed`;
/// both ends run under a deadline, so a stuck pipeline fails instead of
/// hanging. Returns the loadgen's result, the server's exit and state.
fn over_tcp(
    served: ServeConfig,
    replayed: &ServeConfig,
    epochs: usize,
) -> (Result<LoadgenReport, ProtocolError>, Result<ServeExit, ProtocolError>, ServerState) {
    let deadline = Some(Duration::from_secs(20));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let mut state = ServerState::new(served, Telemetry::disabled());
        let (stream, _) = listener.accept().unwrap();
        let exit = serve_connection(&mut TcpTransport::with_timeout(stream, deadline), &mut state);
        (exit, state)
    });
    let mut transport = TcpTransport::with_timeout(TcpStream::connect(addr).unwrap(), deadline);
    let opts = LoadgenOptions { epochs, start_epoch: 0, shutdown: true };
    let report = run_loadgen(&mut transport, replayed, &opts);
    drop(transport);
    let (exit, state) = server.join().expect("the server thread does not panic");
    (report, exit, state)
}

#[test]
fn pipelined_joins_over_tcp_register_everyone_and_match_the_reference() {
    // Sixteen windows of joins, the last one short.
    let config = ServeConfig::new(1_000, 5, 1_000_000.0, 10, PolicyKind::FedAvg);
    let (report, exit, server) = over_tcp(config.clone(), &config, 4);
    let report = report.expect("the served run is error-free");
    assert!(matches!(exit, Ok(ServeExit::Shutdown)), "{exit:?}");
    assert_eq!(server.registered_count(), 1_000);
    assert_eq!(report.selections.len(), 4);
    assert!(report.selections.iter().all(|r| !r.cohort.is_empty()));
    assert_eq!(report.selections, reference_run(&config, 4));
}

#[test]
fn a_join_outside_the_served_population_ends_the_loadgen_with_the_refusal() {
    let served = ServeConfig::new(100, 5, 1_000_000.0, 3, PolicyKind::FedAvg);
    let replayed = ServeConfig::new(150, 5, 1_000_000.0, 3, PolicyKind::FedAvg);
    let (report, _exit, server) = over_tcp(served, &replayed, 2);
    let err = report.expect_err("client 100 is outside the served population");
    assert_eq!(
        err.to_string(),
        "unexpected message: server refused (unknown-client): \
         client 100 outside the population of 100"
    );
    // The second window (64..128) was sent whole before the refusal was
    // read; its ids up to 99 had joined by then, in order.
    assert_eq!(server.registered_count(), 100);
    assert_eq!(server.next_epoch(), 0, "no epoch was asked for");
}

#[test]
fn killed_and_restarted_server_is_bit_identical() {
    let config = config();
    let dir = scratch_dir("kill_restart");
    let ckpt = dir.join("server.fedlstore");

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
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_survives_the_checkpoint() {
    let config = ServeConfig::new(20, 9, 5_000.0, 2, PolicyKind::FedAvg);
    let dir = scratch_dir("registry");
    let ckpt = dir.join("server.fedlstore");
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
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_foreign_deployment() {
    let config = config();
    let dir = scratch_dir("foreign");
    let ckpt = dir.join("server.fedlstore");
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
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_v1_checkpoint() {
    let config = config();
    let dir = scratch_dir("v1");
    let ckpt = dir.join("server.fedlstore");
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
    fs::remove_dir_all(&dir).ok();
}
