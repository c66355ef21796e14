//! Experiment sizing profiles.
//!
//! The paper's setting (§6.1) is 100 clients over FMNIST/CIFAR-10; the
//! `Paper` profile mirrors that scale on the synthetic substitutes. The
//! `Quick` profile keeps every mechanism but shrinks the federation so
//! the full figure suite runs in minutes (used by CI and `--quick`).

use fedl_core::runner::{ModelArch, ScenarioConfig};
use fedl_data::synth::TaskKind;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// §6.1 scale: M = 100 clients, n = 10 participants.
    Paper,
    /// Reduced scale for fast iteration: M = 20, n = 4.
    Quick,
}

impl Profile {
    /// Number of clients `M`.
    pub fn num_clients(self) -> usize {
        match self {
            Profile::Paper => 100,
            Profile::Quick => 20,
        }
    }

    /// Participation floor `n`.
    pub fn min_participants(self) -> usize {
        match self {
            Profile::Paper => 10,
            Profile::Quick => 4,
        }
    }

    /// Budget used for the time/round figures (2–5): generous enough
    /// that the time axis, not the wallet, shapes the curves.
    pub fn figure_budget(self) -> f64 {
        match self {
            Profile::Paper => 30_000.0,
            Profile::Quick => 2_500.0,
        }
    }

    /// Budget grid for the budget-impact figures (6–7).
    pub fn budget_grid(self) -> Vec<f64> {
        match self {
            Profile::Paper => vec![3_000.0, 6_000.0, 12_000.0, 18_000.0, 24_000.0],
            Profile::Quick => vec![400.0, 800.0, 1_600.0, 2_400.0],
        }
    }

    /// Epoch safety cap.
    pub fn max_epochs(self) -> usize {
        match self {
            Profile::Paper => 500,
            Profile::Quick => 150,
        }
    }

    /// Global training-pool size.
    pub fn train_size(self) -> usize {
        match self {
            Profile::Paper => 6_000,
            Profile::Quick => 1_500,
        }
    }

    /// Test-set size.
    pub fn test_size(self) -> usize {
        match self {
            Profile::Paper => 1_000,
            Profile::Quick => 400,
        }
    }

    /// Builds the scenario for `(task, iid)` at this profile with the
    /// given budget.
    pub fn scenario(self, task: TaskKind, iid: bool, budget: f64, seed: u64) -> ScenarioConfig {
        let mut s = match task {
            TaskKind::FmnistLike => {
                ScenarioConfig::small_fmnist(self.num_clients(), budget, self.min_participants())
            }
            TaskKind::CifarLike => {
                ScenarioConfig::small_cifar(self.num_clients(), budget, self.min_participants())
            }
        }
        .with_seed(seed);
        s.train_size = self.train_size();
        s.test_size = self.test_size();
        s.max_epochs = self.max_epochs();
        if task == TaskKind::CifarLike {
            // The harder task needs a bigger head; keep it modest.
            s.model = ModelArch::Mlp { hidden: vec![96], l2: 0.0005 };
            // The harder task plateaus at a higher loss.
            s.fedl.theta = 1.6;
        }
        if !iid {
            s = s.non_iid();
        }
        s
    }
}

/// Accuracy targets mirrored from the paper's §6.2 prose.
pub fn accuracy_targets(task: TaskKind) -> &'static [f64] {
    match task {
        TaskKind::FmnistLike => &[0.5, 0.6, 0.7],
        TaskKind::CifarLike => &[0.35, 0.45, 0.55],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_section_6_1() {
        assert_eq!(Profile::Paper.num_clients(), 100);
        assert_eq!(Profile::Paper.min_participants(), 10);
    }

    #[test]
    fn scenarios_build_for_all_cells() {
        for profile in [Profile::Quick, Profile::Paper] {
            for task in [TaskKind::FmnistLike, TaskKind::CifarLike] {
                for iid in [true, false] {
                    let s = profile.scenario(task, iid, 500.0, 1);
                    assert_eq!(s.env.num_clients, profile.num_clients());
                    assert_eq!(s.budget, 500.0);
                    assert_eq!(s.partition == fedl_data::Partition::Iid, iid);
                }
            }
        }
    }

    #[test]
    fn budget_grid_is_increasing() {
        for profile in [Profile::Quick, Profile::Paper] {
            let grid = profile.budget_grid();
            assert!(grid.windows(2).all(|w| w[1] > w[0]));
        }
    }
}
