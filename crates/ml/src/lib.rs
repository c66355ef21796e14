//! Machine-learning substrate for the FedL reproduction.
//!
//! The paper's federated process (§3.1) trains a model per epoch with the
//! distributed approximate Newton (DANE) scheme of FEDL [7, 25]: every
//! iteration each selected client minimizes a *surrogate*
//!
//! ```text
//! G_{t,k}(d) = F_{t,k}(w + d) + (σ₁/2)·‖d‖² − (∇F_{t,k}(w) − σ₂·J_t(w))ᵀ (w + d)
//! ```
//!
//! over its local data by mini-batch SGD and uploads the resulting direction `d` for
//! the server to average. This crate builds that whole stack from scratch:
//!
//! * [`params`] — [`ParamSet`], the flat view of a model's parameter
//!   tensors, with the vector-space operations (`axpy`, `dot`, `norm`)
//!   the DANE algebra needs;
//! * [`model`] — the object-safe [`model::Model`] trait plus two concrete
//!   models with hand-derived backprop: multinomial softmax regression
//!   and a ReLU MLP of arbitrary depth (the reproduction's substitute for
//!   the paper's small CNNs — see DESIGN.md §2);
//! * [`loss`] — numerically stable cross-entropy on logits;
//! * [`dane`] — the local surrogate solve itself, including the measured
//!   local convergence accuracy `η̂_{t,k}` that FedL's constraint (3c)
//!   consumes;
//! * [`metrics`] — accuracy/loss evaluation on held-out data.
//!
//! System-inventory row **S2** in DESIGN.md §1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dane;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod params;

pub use dane::{DaneConfig, DaneScratch, LocalOutcome};
pub use model::{Model, ModelScratch};
pub use params::ParamSet;
