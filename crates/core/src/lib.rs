//! FedL — the paper's contribution: online-learning client selection and
//! iteration control under a long-term budget (ICPP 2022).
//!
//! The algorithm (paper §4) runs two coupled loops per epoch:
//!
//! 1. **Online learning** ([`online`]): maintain Lagrange multipliers μ
//!    for the convergence constraints and, at each epoch, solve the
//!    modified descent step (eq. (8))
//!
//!    ```text
//!    min_Φ  ∇f_t(Φ_t)·(Φ − Φ_t) + μ_{t+1}ᵀ h_t(Φ) + ‖Φ − Φ_t‖²/(2β)
//!    s.t.   x ∈ [0,1]^K, ρ ≥ 1, Σx ≥ n, Σc·x ≤ C_remaining,
//!    ```
//!
//!    using only quantities observed at epoch `t` (0-lookahead), then
//!    ascend the duals with `μ ← [μ + δ·h_t(Φ̃_t)]⁺` (eq. (9)).
//! 2. **Online rounding** ([`rounding`]): turn the fractional selection
//!    `x̃` into a 0/1 cohort with the randomized dependent client
//!    selection algorithm RDCS (Alg. 2), which preserves `Σx` exactly
//!    and each coordinate in expectation (Theorem 3).
//!
//! [`regret`] implements the paper's §5 accounting (dynamic regret and
//! dynamic fit against per-epoch hindsight comparators), [`baselines`]
//! the three comparison policies (FedAvg, FedCS, Pow-d), [`engine`] the
//! one select → settle state machine every driver of Alg. 1's loop runs
//! (policy, budget ledger, epoch cursor, checkpoint fields), and
//! [`runner`] the experiment loop that drives it against a
//! [`fedl_sim::EdgeEnvironment`] until the budget is gone.
//!
//! The runner accepts a [`fedl_telemetry::Telemetry`] handle via
//! [`runner::ExperimentRunner::with_telemetry`]: an enabled handle
//! captures the whole run as a structured JSONL event log
//! (`run_start` → per-epoch `epoch`/`train`/`ledger`/`span` events →
//! `run_end` + a `metrics` registry snapshot); the default disabled
//! handle costs nothing. See `docs/TELEMETRY.md` for the event schema.
//!
//! System-inventory rows **S7** (FedL core) and **S8** (baselines) in
//! DESIGN.md §1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod columnar;
pub mod engine;
pub mod fedl;
pub mod objective;
pub mod online;
pub mod policy;
pub mod regret;
pub mod rounding;
pub mod runner;
pub mod state;

pub use engine::{EngineError, EpochEngine};
pub use fedl::{FedLConfig, FedLPolicy, Posed};
pub use policy::{EpochContext, PolicyKind, SelectionDecision, SelectionPolicy};
pub use runner::{ExperimentRunner, ResumeError, RunOutcome, ScenarioConfig, ScenarioError};

/// See docs/BUILD.md "Where tests live".
#[cfg(test)]
pub(crate) fn scratch_dir(test: &str) -> std::path::PathBuf {
    let binary = env!("CARGO_CRATE_NAME");
    let dir = std::env::temp_dir().join(format!("fedl-{binary}-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
