//! Wireless edge-network model for the FedL reproduction (paper §3.2 and
//! §6.1).
//!
//! The simulated testbed is a 500 m-radius cell with the server at the
//! centre. Per the paper's settings:
//!
//! * path loss `128.1 + 37.6·log₁₀(d)` dB with `d` in kilometres;
//! * log-normal shadow fading with 8 dB standard deviation;
//! * Gaussian noise power density `N₀ = −174` dBm/Hz;
//! * total uplink bandwidth `B = 20` MHz, shared by the selected clients
//!   via FDMA: `r_{t,k} = b_{t,k}·log₂(1 + h_k·p_k / (N₀·b_{t,k}))`;
//! * client transmit power up to 10 dBm, CPU up to 2 GHz, and a
//!   per-sample training cost of 10–30 cycles/bit.
//!
//! [`channel`] computes gains, [`fdma`] allocates bandwidth and computes
//! achievable rates, and [`latency`] combines them with the computation
//! model `τ^loc = e_k·bits(D_{t,k})/π_k` into the per-client epoch
//! latency `d_k(t) = l_t·(τ^loc + τ^cm)`.
//!
//! System-inventory row **S4** in DESIGN.md §1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod allocation;
pub mod channel;
pub mod fdma;
pub mod latency;

pub use allocation::{min_makespan, Allocation};
pub use channel::{ChannelModel, ClientRadio};
pub use fdma::{equal_share_rates, rate_bps, shannon_rate_bps};
pub use latency::{ComputeProfile, LatencyModel, LatencySplit};

/// Converts dBm to watts.
#[inline]
pub fn dbm_to_watts(dbm: f64) -> f64 {
    10f64.powf((dbm - 30.0) / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_conversions() {
        assert!((dbm_to_watts(30.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_watts(0.0) - 1e-3).abs() < 1e-15);
        // The paper's noise density: -174 dBm/Hz ≈ 3.98e-21 W/Hz.
        let n0 = dbm_to_watts(-174.0);
        assert!((n0 - 3.981e-21).abs() < 1e-23, "{n0}");
    }
}
