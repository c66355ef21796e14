//! Durable run state for the FedL reproduction (DESIGN.md row **S12**).
//!
//! Three layers, all built on the same file envelope:
//!
//! * [`envelope`] — a versioned, checksummed container for one JSON
//!   payload. `fedl-core` serializes mid-run experiment snapshots into
//!   it (see `ExperimentRunner::checkpoint_every` / `resume_from` and
//!   `docs/CHECKPOINT.md`), giving deterministic interrupt/resume: a
//!   resumed run produces a `RunOutcome` identical to the uninterrupted
//!   one.
//! * [`checkpoint`] — the `(schema_version, fingerprint)` stamp every
//!   checkpoint payload opens with, written and checked by one pair.
//! * [`cache`] — a content-addressed result cache keyed by a canonical
//!   key text (scenario config + policy + schema version). The bench
//!   harness consults it so re-invoking `experiments` skips
//!   already-completed figure cells.
//!
//! Failure behavior is the workspace's typed-error convention
//! ([`StoreError`]): truncation, checksum mismatches, and foreign
//! format versions are values, never panics, so callers can fall back
//! to a fresh run.
//!
//! The crate is deliberately minimal: `std` + `fedl-json` only, no
//! knowledge of scenarios or policies — those serialize themselves and
//! hand this crate a [`fedl_json::Value`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod checkpoint;
pub mod checksum;
pub mod envelope;
pub mod error;

pub use cache::ResultCache;
pub use checkpoint::{read_checkpoint, write_checkpoint, Checkpoint};
pub use checksum::{content_address, envelope_checksum, fnv1a64};
pub use envelope::{
    decode_envelope, encode_envelope, encode_envelope_with, read_envelope, verify_envelope,
    write_atomic, write_envelope, FORMAT_VERSION,
};
pub use error::StoreError;

/// See docs/BUILD.md "Where tests live".
#[cfg(test)]
pub(crate) fn scratch_dir(test: &str) -> std::path::PathBuf {
    let binary = env!("CARGO_CRATE_NAME");
    let dir = std::env::temp_dir().join(format!("fedl-{binary}-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
