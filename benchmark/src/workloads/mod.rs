//! The five workloads and what one *unit* of each measures.
//!
//! A unit is one complete seeded scenario: set-up, the epoch loop, the
//! tear-down, and the output checks. A run holds a number of units fixed
//! by `--seconds` alone (each with its own seed derived from `--seed`),
//! so two commits measured with the same flags run the same scenarios
//! however fast either is, and pools their epochs into one sample.

pub mod dist;
pub mod plane;
pub mod serve;
pub mod train;

use fedl::store::fnv1a64;

/// How much work a unit holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// At most five epochs per unit: exercises every code path of the
    /// harness in seconds (the crate's own test).
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainFedlM100,
    TrainFedavgCifarM100,
    ServeFedlM100,
    DistFedavg100k,
    DistFedl1k,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TrainFedlM100,
        Workload::TrainFedavgCifarM100,
        Workload::ServeFedlM100,
        Workload::DistFedavg100k,
        Workload::DistFedl1k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainFedlM100 => "train_fedl_m100",
            Workload::TrainFedavgCifarM100 => "train_fedavg_cifar_m100",
            Workload::ServeFedlM100 => "serve_fedl_m100",
            Workload::DistFedavg100k => "dist_fedavg_100k",
            Workload::DistFedl1k => "dist_fedl_1k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Units whose epoch loops take about 15 s together on the build
    /// machine (README.md, "Sizing").
    fn units_per_15s(self) -> f64 {
        match self {
            Workload::TrainFedlM100 => 15.0,
            Workload::TrainFedavgCifarM100 => 10.0,
            Workload::ServeFedlM100 => 22.0,
            Workload::DistFedavg100k => 12.0,
            Workload::DistFedl1k => 15.0,
        }
    }

    /// Units in a timed run of `--seconds seconds`: a function of the
    /// flag alone, never of how fast the code under test is.
    pub fn units_for(self, seconds: f64) -> usize {
        (self.units_per_15s() * seconds / 15.0).round().max(1.0) as usize
    }
}

/// What one timed unit measured.
#[derive(Debug, Clone, Default)]
pub struct UnitResult {
    /// The unit's scenario seed (derived from `--seed`).
    pub seed: u64,
    /// Start of the unit to the first timed epoch.
    pub setup_s: f64,
    /// Wall of each completed epoch, in order.
    pub epoch_ms: Vec<f64>,
    /// Inputs in hand to cohort known, per completed epoch.
    pub decision_ms: Vec<f64>,
    /// Wall of the whole epoch loop.
    pub loop_s: f64,
    /// Process CPU (all threads) consumed over the loop.
    pub cpu_ms: f64,
    /// `VmHWM` when the loop ended, before the output checks ran.
    pub peak_rss_mb: f64,
    /// Frame bytes in both directions over the loop, length prefixes
    /// included (0 for the in-process training workloads).
    pub wire_bytes: u64,
    /// Epochs attempted.
    pub attempted: u64,
    /// One line per failed output check. A check that covers the whole
    /// unit fails every epoch of it.
    pub failures: Vec<String>,
    /// Epochs refused, errored, or failing a check.
    pub failed: u64,
    /// Test accuracy after the last epoch (training workloads).
    pub final_accuracy: Option<f64>,
    /// FNV-1a/64 over the unit's selections (and, for training, its
    /// epoch records): equal digests mean equal outputs on one commit.
    pub digest: u64,
}

impl UnitResult {
    /// Records a failed check that invalidates the whole unit.
    pub fn fail_unit(&mut self, what: String) {
        self.failed = self.attempted.max(1);
        self.failures.push(what);
    }

    /// Records a failed check on some epochs.
    pub fn fail_epochs(&mut self, count: u64, what: String) {
        if count > 0 {
            self.failed = (self.failed + count).min(self.attempted.max(1));
            self.failures.push(what);
        }
    }
}

/// Digest of a sequence of text lines.
pub fn digest_lines<'a>(lines: impl Iterator<Item = &'a str>) -> u64 {
    let mut bytes = Vec::new();
    for line in lines {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    fnv1a64(&bytes)
}
