//! Federated edge-learning simulator (paper §3.1 and §6.1).
//!
//! This crate is the "testbed": it owns the client population, all the
//! stochastic processes the paper declares (Bernoulli availability,
//! uniform rental costs, Poisson data arrival, log-normal shadowing), the
//! budget ledger, and the federated training loop itself (broadcast →
//! local DANE solves → aggregation, `l_t` times per epoch). Selection
//! *policies* live in `fedl-core`; the simulator exposes exactly the
//! observable information a 0-lookahead online policy is allowed to see
//! and separately realizes the outcomes.
//!
//! Module map:
//!
//! * [`config`] — [`EnvConfig`], all §6.1 constants in one place, plus
//!   the [`ScaleTier`] scenario family (10k/100k/1M clients);
//! * [`columns`] — the columnar (struct-of-arrays) population store and
//!   its per-epoch realization (docs/SCALE.md);
//! * [`population`] — [`Population`], the one holder of columns, channel
//!   and latency model that every driver of the epoch loop advances, and
//!   the share-model latency arithmetic;
//! * [`ledger`] — the long-term budget account of constraint (3a);
//! * [`server`] — model aggregation (`w ← w + Σ d_k / norm`) and the
//!   aggregated-gradient state `J`;
//! * [`env`](mod@env) — [`EdgeEnvironment`], the facade the runner drives;
//! * [`error`](mod@error) — [`SimError`], typed configuration errors
//!   behind the fallible `try_*` entry points;
//! * [`trace`] — structured per-epoch event logs (selection, payments,
//!   latency, fairness accounting) with JSONL export.
//!
//! The environment, server, and ledger all accept a
//! [`fedl_telemetry::Telemetry`] handle (`set_telemetry`): when enabled
//! it receives `run-epoch`/`materialize`/`train`/`round`/`local-train`/
//! `aggregate`/`evaluate-clients` span timings, per-epoch `train` and
//! `ledger` events, and `sim.*`/`budget.*`/`net.*`
//! metrics. The default is the disabled no-op handle, so untelemetered
//! use pays nothing.
//!
//! System-inventory row **S5** in DESIGN.md §1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod columns;
pub mod config;
pub mod env;
pub mod error;
pub mod ledger;
pub mod population;
pub mod server;
pub mod trace;

pub use columns::{ClientColumns, EpochClientView, EpochColumns};
pub use config::{AggregationNorm, EnvConfig, ScaleTier};
pub use env::{EdgeEnvironment, EpochReport};
pub use error::SimError;
pub use ledger::BudgetLedger;
pub use population::{nominal_latency, nominal_split, Population, Realized, SharePricing};
