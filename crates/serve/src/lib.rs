//! Long-running federation service for the FedL reproduction
//! (DESIGN.md row **S15**, docs/SERVE.md).
//!
//! Everything else in the workspace is a batch CLI: the budget-
//! constrained UCB selection runs inside `ExperimentRunner` over a
//! pre-built scenario. This crate turns the coordinator into a
//! persistent server driven by external events — the cloud-side
//! coordinator fronting edge populations:
//!
//! * [`proto`] — the message schema ([`Message`]) and typed failure
//!   taxonomy ([`ProtocolError`]), serialized with `fedl-json` inside
//!   the checksummed `fedl-store` envelope so damaged frames degrade
//!   to errors, never panics.
//! * [`transport`] — length-prefixed framing over TCP, an in-memory
//!   duplex pair, and a lock-step in-process transport.
//! * [`server`] — [`ServerState`], the single-threaded event loop that
//!   owns the policy + ledger + registry, selects cohorts from the
//!   columnar population, and checkpoints via the S12 envelope
//!   machinery for bit-identical restarts.
//! * [`loadgen`] — the seeded replay client ([`run_loadgen`]) and the
//!   in-process reference ([`reference_run`]) every served run must
//!   match bit-for-bit.
//! * [`cli`] — the one `experiments` command grammar (a table of
//!   [`cli::Command`] rows from which parsing, per-command flag
//!   refusal and the usage text are derived), and the `serve`,
//!   `loadgen` and `stats` rows, each listing exactly the flags its
//!   handler reads.
//!
//! ```
//! use fedl_core::policy::PolicyKind;
//! use fedl_serve::{
//!     run_loadgen, InProcessTransport, LoadgenOptions, ServeConfig, ServerState,
//! };
//! use fedl_telemetry::Telemetry;
//!
//! let config = ServeConfig::new(30, 7, 200.0, 3, PolicyKind::FedL);
//! let mut server = ServerState::new(config.clone(), Telemetry::disabled());
//! let mut conn = InProcessTransport::new(&mut server);
//! let report = run_loadgen(&mut conn, &config, &LoadgenOptions::default()).unwrap();
//! assert!(report.selections.iter().any(|r| !r.cohort.is_empty()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod transport;

/// The post-selection hygiene every driver shares — defined once, in
/// the epoch engine.
pub use fedl_core::engine::sanitize_decision;
pub use loadgen::{
    combine_feedback, member_feedback, reference_run, run_loadgen, synth_learning_signals,
    synth_train_result, LoadgenOptions, LoadgenReport, MemberFeedback, SelectionRecord,
    SynthResult,
};
pub use proto::{
    answer_hello, decode_frame, decode_frame_traced, encode_frame, encode_frame_traced, Message,
    ProtocolError, Trace, FRAME_KIND, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use server::{
    serve_connection, serve_frames, Control, FrameHandler, ServeConfig, ServeError, ServeExit,
    ServerState, SERVE_CHECKPOINT_KIND, SERVE_SNAPSHOT_SCHEMA_VERSION,
};
pub use transport::{
    read_frame, write_frame, DuplexTransport, FrameTransport, InProcessTransport, TcpTransport,
};

/// See docs/BUILD.md "Where tests live".
#[cfg(test)]
pub(crate) fn scratch_dir(test: &str) -> std::path::PathBuf {
    let binary = env!("CARGO_CRATE_NAME");
    let dir = std::env::temp_dir().join(format!("fedl-{binary}-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
