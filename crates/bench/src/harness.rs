//! Running the experiment matrix.

use std::path::Path;

use fedl_core::policy::PolicyKind;
use fedl_core::runner::{ExperimentRunner, RunOutcome, ScenarioConfig, SNAPSHOT_SCHEMA_VERSION};
use fedl_data::synth::TaskKind;
use fedl_json::{FromJson, ToJson, Value};
use fedl_linalg::par::par_map;
use fedl_store::{ResultCache, StoreError};
use fedl_telemetry::{log_line, Telemetry};

use crate::profile::Profile;

/// A content-addressed cache of completed figure and study cells, so
/// re-invoking `experiments` skips runs it has already produced.
///
/// Wraps [`fedl_store::ResultCache`]: the key text is the cell's full
/// identity (snapshot schema version + policy label + canonical
/// scenario JSON — see [`RunCache::cell_key`]) and the payload is the
/// [`RunOutcome`] JSON. Hits and misses are reported as `cache.hit` /
/// `cache.miss` events and counters on the attached [`Telemetry`].
///
/// Corrupt or incompatible entries are never fatal: they are logged,
/// counted as misses, and repaired by the fresh run's `put`.
#[derive(Debug, Clone)]
pub struct RunCache {
    cache: ResultCache,
    telemetry: Telemetry,
}

impl RunCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Ok(Self { cache: ResultCache::open(dir.as_ref())?, telemetry: Telemetry::disabled() })
    }

    /// Routes `cache.hit`/`cache.miss` events and counters through
    /// `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        self.cache.dir()
    }

    /// Canonical key text for one `(scenario, policy)` cell.
    ///
    /// This is the cache-key contract (docs/CHECKPOINT.md): the
    /// snapshot schema version, the policy label, and the canonical
    /// scenario JSON, in that order. Any change to a scenario
    /// parameter, to the policy, or to the serialized run schema
    /// produces a different key and therefore a fresh run.
    pub fn cell_key(scenario: &ScenarioConfig, policy_label: &str) -> String {
        format!(
            "fedl-cell v{SNAPSHOT_SCHEMA_VERSION}\npolicy={policy_label}\n{}",
            scenario.canonical_json()
        )
    }

    /// Looks up a completed run. `None` means a miss — absent entry,
    /// or a corrupt/incompatible one (logged and left for `put` to
    /// repair).
    pub fn get(&self, scenario: &ScenarioConfig, policy_label: &str) -> Option<RunOutcome> {
        let key = Self::cell_key(scenario, policy_label);
        let outcome = match self.cache.get(&key) {
            Ok(Some(payload)) => match RunOutcome::from_json_value(&payload) {
                Ok(outcome) => Some(outcome),
                Err(err) => {
                    log_line!(
                        "cache entry for {policy_label} has a stale schema ({err}); rerunning"
                    );
                    None
                }
            },
            Ok(None) => None,
            Err(err) => {
                log_line!("cache entry for {policy_label} is unreadable ({err}); rerunning");
                None
            }
        };
        match &outcome {
            Some(_) => {
                self.telemetry.counter("cache.hit").incr();
                self.telemetry.emit(
                    "cache.hit",
                    vec![
                        ("policy", Value::from(policy_label)),
                        ("address", Value::from(ResultCache::address(&key).as_str())),
                    ],
                );
            }
            None => {
                self.telemetry.counter("cache.miss").incr();
                self.telemetry.emit("cache.miss", vec![("policy", Value::from(policy_label))]);
            }
        }
        outcome
    }

    /// Stores a completed run. Write failures are reported and
    /// swallowed — a cold cache next time costs a re-run, aborting
    /// costs this run's results.
    pub fn put(&self, scenario: &ScenarioConfig, outcome: &RunOutcome) {
        let key = Self::cell_key(scenario, &outcome.policy);
        if let Err(err) = self.cache.put(&key, &outcome.to_json_value()) {
            log_line!("failed to cache run for {}: {err}", outcome.policy);
        }
    }
}

/// One cell of the evaluation matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Benchmark task.
    pub task: TaskKind,
    /// IID or non-IID split.
    pub iid: bool,
    /// Selection policy.
    pub policy: PolicyKind,
    /// Long-term budget.
    pub budget: f64,
}

/// A completed cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: Cell,
    /// The recorded run.
    pub outcome: RunOutcome,
}

/// Runs one scenario/policy pair, consulting `cache` first when given.
/// A hit returns the stored [`RunOutcome`] without building the
/// environment; a miss runs fresh and stores the result.
pub fn run_cell(
    scenario: ScenarioConfig,
    policy: PolicyKind,
    cache: Option<&RunCache>,
) -> RunOutcome {
    if let Some(outcome) = cache.and_then(|cache| cache.get(&scenario, policy.label())) {
        return outcome;
    }
    let outcome = ExperimentRunner::new(scenario.clone(), policy).run();
    if let Some(cache) = cache {
        cache.put(&scenario, &outcome);
    }
    outcome
}

/// Runs all four policies for `(task, iid)` at each of `budgets`, in
/// parallel, on the *same* environment sample path (same seed).
pub fn run_policy_matrix(
    profile: Profile,
    task: TaskKind,
    iid: bool,
    budgets: &[f64],
    seed: u64,
    cache: Option<&RunCache>,
) -> Vec<CellResult> {
    let cells: Vec<(f64, PolicyKind)> =
        budgets.iter().flat_map(|&b| PolicyKind::ALL.map(|p| (b, p))).collect();
    par_map(&cells, |&(budget, policy)| {
        let scenario = profile.scenario(task, iid, budget, seed);
        CellResult {
            cell: Cell { task, iid, policy, budget },
            outcome: run_cell(scenario, policy, cache),
        }
    })
}

/// Mean and sample standard deviation of one metric across replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single replication).
    pub std: f64,
}

impl MeanStd {
    /// Computes mean/std of `values` (NaNs excluded).
    ///
    /// # Panics
    /// Panics when no finite value remains.
    pub fn of(values: &[f64]) -> MeanStd {
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        assert!(!finite.is_empty(), "no finite values to summarize");
        let n = finite.len() as f64;
        let mean = finite.iter().sum::<f64>() / n;
        let var = if finite.len() < 2 {
            0.0
        } else {
            finite.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
        };
        MeanStd { mean, std: var.sqrt() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let ms = MeanStd::of(&[1.0, 3.0]);
        assert!((ms.mean - 2.0).abs() < 1e-12);
        assert!((ms.std - (2.0f64).sqrt()).abs() < 1e-12);
        let single = MeanStd::of(&[5.0]);
        assert_eq!(single.std, 0.0);
        // NaNs are excluded.
        let with_nan = MeanStd::of(&[2.0, f64::NAN, 4.0]);
        assert!((with_nan.mean - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no finite values")]
    fn mean_std_rejects_all_nan() {
        let _ = MeanStd::of(&[f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "no finite values")]
    fn mean_std_rejects_zero_replications() {
        let _ = MeanStd::of(&[]);
    }

    #[test]
    fn mean_std_over_many_replications() {
        // n = 5 values with a known sample variance.
        let ms = MeanStd::of(&[2.0, 4.0, 4.0, 4.0, 6.0]);
        assert!((ms.mean - 4.0).abs() < 1e-12);
        assert!((ms.std - 2.0f64.sqrt()).abs() < 1e-12);
        // Infinities are excluded alongside NaNs.
        let filtered = MeanStd::of(&[1.0, f64::INFINITY, 3.0]);
        assert!((filtered.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn same_seed_reruns_are_identical() {
        // Pins the cache-key contract: everything a run depends on is
        // in (profile scenario, policy, seed), so re-running the same
        // cell must reproduce the outcome bit-for-bit — which is what
        // makes serving it from the result cache sound.
        let a = run_policy_matrix(Profile::Quick, TaskKind::FmnistLike, true, &[250.0], 11, None);
        let b = run_policy_matrix(Profile::Quick, TaskKind::FmnistLike, true, &[250.0], 11, None);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.outcome, y.outcome, "{:?} diverged across reruns", x.cell.policy);
        }
    }

    #[test]
    fn warm_cache_serves_identical_outcomes_and_reports_hits() {
        let dir = std::env::temp_dir().join("fedl_bench_cache_tests").join("warm");
        std::fs::remove_dir_all(&dir).ok();
        let (tel, _handle) = Telemetry::in_memory();
        let cache = RunCache::open(&dir).unwrap().with_telemetry(tel.clone());
        let cold = run_policy_matrix(
            Profile::Quick,
            TaskKind::FmnistLike,
            true,
            &[250.0],
            5,
            Some(&cache),
        );
        assert_eq!(tel.counter("cache.miss").value(), 4);
        assert_eq!(tel.counter("cache.hit").value(), 0);
        let warm = run_policy_matrix(
            Profile::Quick,
            TaskKind::FmnistLike,
            true,
            &[250.0],
            5,
            Some(&cache),
        );
        assert_eq!(tel.counter("cache.hit").value(), 4);
        for (x, y) in cold.iter().zip(&warm) {
            assert_eq!(x.outcome, y.outcome);
        }
        // A different seed is a different key: all misses again.
        run_policy_matrix(Profile::Quick, TaskKind::FmnistLike, true, &[250.0], 6, Some(&cache));
        assert_eq!(tel.counter("cache.miss").value(), 8);
        // So is a different snapshot schema version: an entry written
        // before a bit-changing solver rewrite must miss, not stand in.
        let key = RunCache::cell_key(&ScenarioConfig::small_fmnist(4, 10.0, 2), "FedL");
        assert!(key.starts_with(&format!("fedl-cell v{SNAPSHOT_SCHEMA_VERSION}\n")), "{key}");
    }

    #[test]
    fn a_study_run_twice_on_one_cache_is_served_whole_and_reports_the_same() {
        let dir = std::env::temp_dir().join("fedl_bench_cache_tests").join("study");
        std::fs::remove_dir_all(&dir).ok();
        let (tel, _handle) = Telemetry::in_memory();
        let cache = RunCache::open(&dir).unwrap().with_telemetry(tel.clone());
        let study = &crate::experiments::ORACLE;
        let cold = study.run(Profile::Quick, Some(&cache)).text();
        assert_eq!((tel.counter("cache.hit").value(), tel.counter("cache.miss").value()), (0, 2));
        let warm = study.run(Profile::Quick, Some(&cache)).text();
        assert_eq!((tel.counter("cache.hit").value(), tel.counter("cache.miss").value()), (2, 2));
        assert_eq!(cold, warm);
        assert!(cold.contains("Oracle"), "{cold}");
    }

    #[test]
    fn corrupt_cache_entries_fall_back_to_a_fresh_run() {
        let dir = std::env::temp_dir().join("fedl_bench_cache_tests").join("corrupt");
        std::fs::remove_dir_all(&dir).ok();
        let (tel, _handle) = Telemetry::in_memory();
        let cache = RunCache::open(&dir).unwrap().with_telemetry(tel.clone());
        let scenario = Profile::Quick.scenario(TaskKind::FmnistLike, true, 250.0, 9);
        let policy = PolicyKind::FedAvg;
        let first = run_cell(scenario.clone(), policy, Some(&cache));
        let entry = std::fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.path().extension().is_some_and(|x| x == "fedlstore"))
            .expect("one cache entry written")
            .path();
        // The entry as a build on envelope v1 wrote it: the same payload
        // under a v1 header with its FNV-1a checksum — intact in its own
        // format, and still not read by this one.
        let text = std::fs::read_to_string(&entry).unwrap();
        let body = text.split_once('\n').unwrap().1;
        let crc = fedl_store::fnv1a64(body.as_bytes());
        std::fs::write(&entry, format!("fedl-store v1 kind=cache-entry crc={crc:016x}\n{body}"))
            .unwrap();
        let again = run_cell(scenario.clone(), policy, Some(&cache));
        // It read as a miss (not a crash), the run reproduced the
        // outcome, and `put` repaired the entry: the next call hits.
        assert_eq!(tel.counter("cache.miss").value(), 2);
        assert_eq!(tel.counter("cache.hit").value(), 0);
        assert_eq!(first, again);
        assert!(std::fs::read_to_string(&entry).unwrap().starts_with("fedl-store v2 "));
        let served = run_cell(scenario.clone(), policy, Some(&cache));
        assert_eq!(tel.counter("cache.hit").value(), 1);
        assert_eq!(first, served);
        // A damaged entry goes the same way.
        std::fs::write(&entry, &text.as_bytes()[..text.len() / 2]).unwrap();
        let repaired = run_cell(scenario, policy, Some(&cache));
        assert_eq!(tel.counter("cache.miss").value(), 3);
        assert_eq!(first, repaired);
    }

    #[test]
    fn quick_matrix_runs_all_policies() {
        let results =
            run_policy_matrix(Profile::Quick, TaskKind::FmnistLike, true, &[300.0], 3, None);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(!r.outcome.epochs.is_empty(), "{:?} ran nothing", r.cell.policy);
            assert_eq!(r.outcome.budget, 300.0);
        }
        // All four policies faced the same availability sample path, so
        // their first-epoch environments agree on epoch indexing.
        let names: Vec<&str> = results.iter().map(|r| r.outcome.policy.as_str()).collect();
        assert!(names.contains(&"FedL") && names.contains(&"Pow-d"));
    }
}
