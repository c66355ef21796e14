//! Multi-process sharded execution for the FedL reproduction
//! (DESIGN.md row **S16**, docs/DIST.md).
//!
//! `fedl-serve` (S15) made the coordinator a long-running process;
//! this crate splits the *population* across worker processes. Each
//! worker owns a contiguous shard of the columnar clients, realizes
//! epochs for its shard only, and ships per-client partial columns
//! back over the same framed envelope protocol (`Shard*` messages,
//! protocol v2). The coordinator — which keeps the policy, the budget
//! ledger, and the epoch cursor — concatenates partials in fixed shard
//! order and applies the identical scalar combination code as the
//! single-process path, so an N-worker run reproduces the in-process
//! outcome **bit-for-bit** for every N, including through worker
//! crashes (workers are pure functions of `(config, shard, epoch)`;
//! recovery is respawn + re-ask).
//!
//! * [`shard`] — contiguous shard geometry and cohort splitting.
//! * [`worker`] — [`WorkerState`] + [`run_worker`], the stateless
//!   shard servant with S12-style shard checkpoints.
//! * [`coordinator`] — [`Coordinator`], the [`WorkerLink`] trait, and
//!   the in-process [`LocalWorkerLink`].
//! * [`cli`] — the `experiments dist` / `experiments dist-worker` rows
//!   of the command table (parsed by `fedl_serve::cli`'s grammar) and
//!   the TCP worker links `dist` drives.
//!
//! ```
//! use fedl_core::policy::PolicyKind;
//! use fedl_dist::{
//!     shard_ranges, Coordinator, DistOptions, LocalWorkerLink, ShardWorker, WorkerState,
//! };
//! use fedl_serve::{reference_run, ServeConfig};
//! use fedl_telemetry::Telemetry;
//!
//! let config = ServeConfig::new(30, 7, 200.0, 3, PolicyKind::FedL);
//! let workers = shard_ranges(30, 2)
//!     .into_iter()
//!     .map(|shard| ShardWorker {
//!         shard,
//!         link: Box::new(LocalWorkerLink::new(WorkerState::new(Telemetry::disabled()))),
//!     })
//!     .collect();
//! let mut coordinator = Coordinator::new(config.clone(), workers, Telemetry::disabled()).unwrap();
//! let report = coordinator.run(&DistOptions { epochs: 4, ..Default::default() }).unwrap();
//! assert_eq!(report.selections, reference_run(&config, 4));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod coordinator;
pub mod shard;
pub mod worker;

pub use coordinator::{
    Coordinator, DistOptions, DistReport, LocalWorkerLink, ShardWorker, WorkerLink,
};
pub use shard::{members_in, shard_ranges};
pub use worker::{
    run_worker, ShardCheckpoint, WorkerState, DIST_SHARD_CHECKPOINT_KIND, DIST_SHARD_SCHEMA_VERSION,
};
