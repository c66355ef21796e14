//! The experiment loop: drive any selection policy against a simulated
//! federation until the budget is exhausted (paper Alg. 1's outer
//! `while C ≥ 0` loop), recording the curves the figures plot.

use std::fmt;
use std::path::{Path, PathBuf};

use fedl_data::synth::{SyntheticSpec, TaskKind};
use fedl_data::Partition;
use fedl_json::{obj, FromJson, Record, ToJson, Value};
use fedl_linalg::rng::rng_for;
use fedl_ml::dane::DaneConfig;
use fedl_ml::model::{Cnn, ConvBlockSpec, MapShape, Mlp, Model, SoftmaxRegression};
use fedl_ml::params::ParamSet;
use fedl_sim::trace::{EpochEvent, RunTrace};
use fedl_sim::{BudgetLedger, EdgeEnvironment, EnvConfig, SimError};
use fedl_store::{content_address, read_checkpoint, write_checkpoint, StoreError};
use fedl_telemetry::Telemetry;

use crate::columnar::context_at;
use crate::engine::{EngineSnapshot, EpochEngine, LedgerState};
use crate::fedl::FedLConfig;
use crate::objective::locator;
use crate::policy::{EpochContext, PolicyKind, SelectionPolicy};

/// Version of the run-snapshot / cache-key schema. Bumped whenever the
/// canonical scenario serialization or the checkpoint payload layout
/// changes, so stale snapshots are rejected and stale cache entries
/// miss instead of resurrecting results under a different contract
/// (docs/CHECKPOINT.md). v2: FedL's one-shot solve returns the exact
/// minimiser of eq. (8), so its decisions differ in their late digits
/// from v1's — a v1 checkpoint or cache entry would continue or stand in
/// for a different trajectory.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 2;

/// Envelope kind tag for run checkpoints.
const CHECKPOINT_KIND: &str = "checkpoint";

/// A scenario configuration the runner cannot execute.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The environment configuration or budget was invalid.
    Env(SimError),
    /// The CNN input map disagrees with the dataset's feature dimension.
    ModelShape {
        /// Configured `(channels, height, width)`.
        shape: (usize, usize, usize),
        /// The dataset's actual feature dimension.
        dim: usize,
    },
    /// The participation floor `n` is zero or exceeds the population
    /// size `M`.
    ParticipationFloor {
        /// Configured floor.
        min_participants: usize,
        /// Number of clients.
        num_clients: usize,
    },
    /// The model cannot be built: a zero-width MLP hidden layer, or CNN
    /// blocks that do not fit the input map (see [`Cnn::check`]).
    Architecture(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Env(e) => write!(f, "{e}"),
            ScenarioError::ModelShape { shape, dim } => {
                write!(f, "CNN shape {shape:?} does not match the dataset dimension {dim}")
            }
            ScenarioError::ParticipationFloor { min_participants: 0, .. } => {
                write!(f, "participation floor must be positive")
            }
            ScenarioError::ParticipationFloor { min_participants, num_clients } => write!(
                f,
                "participation floor {min_participants} exceeds the {num_clients}-client population"
            ),
            ScenarioError::Architecture(why) => write!(f, "bad model architecture: {why}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Env(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ScenarioError {
    fn from(e: SimError) -> Self {
        ScenarioError::Env(e)
    }
}

/// Why [`ExperimentRunner::resume_from`] could not rebuild a run from a
/// checkpoint. Every variant is a value, never a panic, so callers can
/// fall back to a fresh run.
#[derive(Debug)]
pub enum ResumeError {
    /// The snapshot was unreadable, damaged, stamped for another schema
    /// version or another scenario/policy, or its payload does not fit
    /// the run being resumed.
    Store(StoreError),
    /// The scenario itself cannot be executed (same failures as
    /// [`ExperimentRunner::try_new`]).
    Scenario(ScenarioError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Store(e) => write!(f, "{e}"),
            ResumeError::Scenario(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::Store(e) => Some(e),
            ResumeError::Scenario(e) => Some(e),
        }
    }
}

impl From<StoreError> for ResumeError {
    fn from(e: StoreError) -> Self {
        ResumeError::Store(e)
    }
}

impl From<ScenarioError> for ResumeError {
    fn from(e: ScenarioError) -> Self {
        ResumeError::Scenario(e)
    }
}

/// Global-model architecture.
#[derive(Debug, Clone)]
pub enum ModelArch {
    /// Softmax regression (convex reference model).
    Linear {
        /// L2 regularization coefficient.
        l2: f32,
    },
    /// ReLU MLP — the fast substitute for the paper's CNNs.
    Mlp {
        /// Hidden-layer widths.
        hidden: Vec<usize>,
        /// L2 regularization coefficient.
        l2: f32,
    },
    /// Convolutional network (the paper's actual model family:
    /// conv → ReLU → maxpool blocks with a softmax head). Slower than
    /// the MLP; the input dimension must equal `c·h·w`.
    Cnn {
        /// Input map `(channels, height, width)`.
        shape: (usize, usize, usize),
        /// `(out_channels, kernel)` per block.
        blocks: Vec<(usize, usize)>,
        /// L2 regularization coefficient.
        l2: f32,
    },
}

/// Everything needed to reproduce one experiment run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Federation/environment parameters.
    pub env: EnvConfig,
    /// Which benchmark the synthetic data imitates.
    pub task: TaskKind,
    /// Optional feature-dimension override (speeds up CI-scale runs).
    pub dim_override: Option<usize>,
    /// Global training-pool size.
    pub train_size: usize,
    /// Held-out test-set size.
    pub test_size: usize,
    /// IID or non-IID split.
    pub partition: Partition,
    /// Model architecture.
    pub model: ModelArch,
    /// Local-solver hyper-parameters.
    pub dane: DaneConfig,
    /// Long-term budget `C`.
    pub budget: f64,
    /// Participation floor `n` per epoch.
    pub min_participants: usize,
    /// FedL hyper-parameters (ignored by baseline policies).
    pub fedl: FedLConfig,
    /// Safety cap on epochs (the budget normally stops the run first).
    pub max_epochs: usize,
}

impl ScenarioConfig {
    /// A laptop-scale FMNIST-like scenario: reduced dimension, small
    /// cohorts, seconds-scale runtime.
    pub fn small_fmnist(num_clients: usize, budget: f64, min_participants: usize) -> Self {
        Self {
            env: EnvConfig::small(num_clients, 1),
            task: TaskKind::FmnistLike,
            dim_override: Some(64),
            train_size: 2000,
            test_size: 500,
            partition: Partition::Iid,
            model: ModelArch::Mlp { hidden: vec![64], l2: 0.0005 },
            // lr is sized so a *full-population* aggregate step (the
            // paper's 1/|E_t| rule makes the effective step proportional
            // to cohort size) stays stable: 6 local steps × 0.12 ≈ 0.7.
            dane: DaneConfig { local_steps: 6, lr: 0.12, ..Default::default() },
            budget,
            min_participants,
            fedl: FedLConfig::default(),
            max_epochs: 400,
        }
    }

    /// An FMNIST-like scenario with the paper's actual model family: a
    /// conv → ReLU → maxpool block on 16×16 single-channel images plus a
    /// softmax head. Noticeably slower per epoch than the MLP scenarios;
    /// used to confirm the substitution argument of DESIGN.md §2.
    pub fn small_fmnist_cnn(num_clients: usize, budget: f64, min_participants: usize) -> Self {
        let mut s = Self::small_fmnist(num_clients, budget, min_participants);
        s.dim_override = Some(256); // 1 x 16 x 16
        s.model = ModelArch::Cnn { shape: (1, 16, 16), blocks: vec![(6, 5)], l2: 0.0005 };
        s
    }

    /// A laptop-scale CIFAR-like scenario (harder task, MLP model).
    pub fn small_cifar(num_clients: usize, budget: f64, min_participants: usize) -> Self {
        Self {
            task: TaskKind::CifarLike,
            dim_override: Some(128),
            model: ModelArch::Mlp { hidden: vec![64], l2: 0.0005 },
            ..Self::small_fmnist(num_clients, budget, min_participants)
        }
    }

    /// Overrides every seed in the scenario.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.env.seed = seed;
        self
    }

    /// Switches to a non-IID partition (the paper's principal-mix
    /// scheme with 80 % principal-class data).
    pub fn non_iid(mut self) -> Self {
        self.partition = Partition::PrincipalMix { principal_frac: 0.8 };
        self
    }

    /// Canonical serialization of the complete scenario, used for
    /// checkpoint fingerprints and result-cache keys. Field names and
    /// order are a compatibility contract (docs/CHECKPOINT.md): two
    /// scenarios produce the same text iff every parameter that can
    /// change a run's outcome is identical.
    ///
    /// The one list of the scenario's keys. The environment, DANE and
    /// FedL configs write their own declarations; the task and the
    /// partition are spelled here, because `fedl-data` carries no JSON.
    pub fn canonical_json(&self) -> String {
        let task = match self.task {
            TaskKind::FmnistLike => "fmnist-like",
            TaskKind::CifarLike => "cifar-like",
        };
        let partition = match self.partition {
            Partition::Iid => obj([("kind", Value::from("iid"))]),
            Partition::PrincipalMix { principal_frac } => obj([
                ("kind", Value::from("principal-mix")),
                ("principal_frac", Value::Float(principal_frac)),
            ]),
        };
        let model = match &self.model {
            ModelArch::Linear { l2 } => {
                obj([("kind", Value::from("linear")), ("l2", l2.to_json_value())])
            }
            ModelArch::Mlp { hidden, l2 } => obj([
                ("kind", Value::from("mlp")),
                ("hidden", hidden.to_json_value()),
                ("l2", l2.to_json_value()),
            ]),
            ModelArch::Cnn { shape, blocks, l2 } => obj([
                ("kind", Value::from("cnn")),
                ("shape", shape.to_json_value()),
                ("blocks", blocks.to_json_value()),
                ("l2", l2.to_json_value()),
            ]),
        };
        obj([
            ("env", self.env.to_json_value()),
            ("task", Value::from(task)),
            ("dim_override", self.dim_override.to_json_value()),
            ("train_size", self.train_size.to_json_value()),
            ("test_size", self.test_size.to_json_value()),
            ("partition", partition),
            ("model", model),
            ("dane", self.dane.to_json_value()),
            ("budget", self.budget.to_json_value()),
            ("min_participants", self.min_participants.to_json_value()),
            ("fedl", self.fedl.to_json_value()),
            ("max_epochs", self.max_epochs.to_json_value()),
        ])
        .to_json()
    }

    fn try_build_model(
        &self,
        input_dim: usize,
        classes: usize,
    ) -> Result<Box<dyn Model>, ScenarioError> {
        let mut rng = rng_for(self.env.seed, 0x40DE1);
        Ok(match &self.model {
            ModelArch::Linear { l2 } => Box::new(SoftmaxRegression::new(input_dim, classes, *l2)),
            ModelArch::Mlp { hidden, l2 } => {
                Box::new(Mlp::new(input_dim, hidden, classes, *l2, &mut rng))
            }
            ModelArch::Cnn { shape, blocks, l2 } => {
                let map = MapShape { c: shape.0, h: shape.1, w: shape.2 };
                if map.len() != input_dim {
                    return Err(ScenarioError::ModelShape { shape: *shape, dim: input_dim });
                }
                Box::new(Cnn::new(map, conv_blocks(blocks), classes, *l2, &mut rng))
            }
        })
    }

    /// Builds the simulated environment for this scenario, reporting
    /// configuration problems as a [`ScenarioError`] instead of
    /// panicking.
    pub fn try_build_env(&self) -> Result<EdgeEnvironment, ScenarioError> {
        self.env.try_validate()?;
        if !(1..=self.env.num_clients).contains(&self.min_participants) {
            return Err(ScenarioError::ParticipationFloor {
                min_participants: self.min_participants,
                num_clients: self.env.num_clients,
            });
        }
        match &self.model {
            ModelArch::Linear { .. } => {}
            ModelArch::Mlp { hidden, .. } => {
                if hidden.contains(&0) {
                    return Err(ScenarioError::Architecture("zero-width hidden layer".into()));
                }
            }
            ModelArch::Cnn { shape, blocks, .. } => {
                let map = MapShape { c: shape.0, h: shape.1, w: shape.2 };
                Cnn::check(map, &conv_blocks(blocks)).map_err(ScenarioError::Architecture)?;
            }
        }
        let mut spec =
            SyntheticSpec::new(self.task, self.train_size, self.test_size, self.env.seed);
        if let Some(dim) = self.dim_override {
            spec = spec.with_dim(dim);
        }
        let (train, test) = spec.generate();
        let model = self.try_build_model(train.dim(), train.num_classes)?;
        Ok(EdgeEnvironment::new(self.env.clone(), train, test, self.partition, model, self.dane))
    }

    /// Builds the simulated environment for this scenario.
    ///
    /// # Panics
    /// Panics with the [`Self::try_build_env`] error message on an
    /// invalid configuration.
    pub fn build_env(&self) -> EdgeEnvironment {
        self.try_build_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The `(out_channels, kernel)` pairs of a [`ModelArch::Cnn`] as blocks.
fn conv_blocks(blocks: &[(usize, usize)]) -> Vec<ConvBlockSpec> {
    blocks.iter().map(|&(out_channels, kernel)| ConvBlockSpec { out_channels, kernel }).collect()
}

/// One epoch's recorded outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Cohort size.
    pub cohort_size: usize,
    /// Iterations run (`l_t`).
    pub iterations: usize,
    /// Cumulative simulated training time (seconds).
    pub sim_time: f64,
    /// Cumulative spend.
    pub spent: f64,
    /// Test-set accuracy after the epoch.
    pub accuracy: f64,
    /// Test-set loss after the epoch.
    pub test_loss: f64,
    /// Global training loss over all available clients.
    pub global_loss: f64,
}

fedl_json::record!(EpochRecord {
    epoch,
    cohort_size,
    iterations,
    sim_time,
    spent,
    accuracy,
    test_loss,
    global_loss
});

/// A completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Policy legend name.
    pub policy: String,
    /// Budget the run started with.
    pub budget: f64,
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
}

fedl_json::record!(RunOutcome { policy, budget, epochs });

impl RunOutcome {
    /// Accuracy after the final epoch (0 when no epoch ran).
    pub fn final_accuracy(&self) -> f64 {
        self.epochs.last().map_or(0.0, |r| r.accuracy)
    }

    /// Global loss after the final epoch.
    pub fn final_loss(&self) -> f64 {
        self.epochs.last().map_or(f64::NAN, |r| r.global_loss)
    }

    /// Total simulated training time.
    pub fn total_sim_time(&self) -> f64 {
        self.epochs.last().map_or(0.0, |r| r.sim_time)
    }

    /// First simulated time at which `target` accuracy was reached.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        self.epochs.iter().find(|r| r.accuracy >= target).map(|r| r.sim_time)
    }

    /// First federated round at which `target` accuracy was reached
    /// (counting every epoch as `iterations` rounds, matching the
    /// paper's "federated round" axis).
    pub fn rounds_to_accuracy(&self, target: f64) -> Option<usize> {
        let mut rounds = 0usize;
        for r in &self.epochs {
            rounds += r.iterations;
            if r.accuracy >= target {
                return Some(rounds);
            }
        }
        None
    }

    /// Accuracy at each cumulative federated round (for the round-axis
    /// figures).
    pub fn accuracy_by_round(&self) -> Vec<(usize, f64)> {
        let mut rounds = 0usize;
        self.epochs
            .iter()
            .map(|r| {
                rounds += r.iterations;
                (rounds, r.accuracy)
            })
            .collect()
    }
}

/// A run checkpoint's payload after its stamp: the one list of its keys
/// (docs/CHECKPOINT.md). The engine's three fields sit in their own
/// slots among the runner's.
struct RunCheckpoint {
    /// The policy's name; the stamp's fingerprint already binds it.
    policy: String,
    next_epoch: usize,
    sim_time: f64,
    records: Vec<EpochRecord>,
    loss_hints: Vec<f64>,
    ledger: LedgerState,
    server: ServerModel,
    policy_state: Value,
    trace: Vec<EpochEvent>,
}

fedl_json::record!(RunCheckpoint {
    policy,
    next_epoch,
    sim_time,
    records,
    loss_hints,
    ledger,
    server,
    policy_state,
    trace,
});

/// The server's global model and aggregated gradient `J`.
struct ServerModel {
    model: ParamSet,
    j_agg: ParamSet,
}

fedl_json::record!(ServerModel { model, j_agg });

/// Drives one policy through one scenario.
pub struct ExperimentRunner {
    scenario: ScenarioConfig,
    env: EdgeEnvironment,
    /// Policy, budget ledger, epoch cursor and pending selection.
    engine: EpochEngine,
    /// Last-known local loss per client (Pow-d hint; ln 10 ≈ the
    /// untrained 10-class loss).
    loss_hints: Vec<f64>,
    /// Structured event log of the run.
    trace: RunTrace,
    telemetry: Telemetry,
    /// Per-epoch records accumulated so far (struct state rather than a
    /// `run()` local so checkpoints can capture a half-finished run).
    records: Vec<EpochRecord>,
    /// Cumulative simulated training time.
    sim_time: f64,
    /// `Some((n, path))` = snapshot to `path` every `n` epochs.
    checkpoint: Option<(usize, PathBuf)>,
    /// Set by [`Self::resume_from`] so `run()` can report the restore.
    restored_from_epoch: Option<usize>,
}

impl ExperimentRunner {
    /// Builds the runner for `kind` on `scenario`, reporting
    /// configuration problems as a [`ScenarioError`].
    pub fn try_new(scenario: ScenarioConfig, kind: PolicyKind) -> Result<Self, ScenarioError> {
        BudgetLedger::try_new(scenario.budget)?;
        let env = scenario.try_build_env()?;
        let policy = kind.build(
            scenario.env.num_clients,
            scenario.budget,
            scenario.min_participants,
            scenario.fedl,
        );
        Ok(Self::with_policy(scenario, env, policy))
    }

    /// Builds the runner for `kind` on `scenario`.
    ///
    /// # Panics
    /// Panics with the [`Self::try_new`] error message on an invalid
    /// configuration.
    pub fn new(scenario: ScenarioConfig, kind: PolicyKind) -> Self {
        Self::try_new(scenario, kind).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the runner around an already-constructed policy (used by
    /// the ablation benches).
    pub fn with_policy(
        scenario: ScenarioConfig,
        env: EdgeEnvironment,
        policy: Box<dyn SelectionPolicy>,
    ) -> Self {
        let engine = EpochEngine::new(policy, scenario.budget);
        let loss_hints = vec![(10.0f64).ln(); scenario.env.num_clients];
        Self {
            scenario,
            env,
            engine,
            loss_hints,
            trace: RunTrace::new(),
            telemetry: Telemetry::disabled(),
            records: Vec::new(),
            sim_time: 0.0,
            checkpoint: None,
            restored_from_epoch: None,
        }
    }

    /// Snapshots the complete run state to `path` after every `every`
    /// epochs (atomic write; the previous snapshot is replaced). A run
    /// interrupted at any point and resumed from its latest snapshot
    /// via [`Self::resume_from`] produces a [`RunOutcome`] identical to
    /// the uninterrupted run.
    ///
    /// # Panics
    /// Panics when `every` is zero.
    pub fn checkpoint_every(mut self, every: usize, path: impl Into<PathBuf>) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.checkpoint = Some((every, path.into()));
        self
    }

    /// The fingerprint binding a snapshot to one (scenario, policy,
    /// schema-version) triple.
    fn fingerprint(scenario: &ScenarioConfig, policy_name: &str) -> String {
        content_address(
            format!(
                "fedl-snapshot v{SNAPSHOT_SCHEMA_VERSION}\npolicy={policy_name}\n{}",
                scenario.canonical_json()
            )
            .as_bytes(),
        )
    }

    /// Serializes the complete mid-run state — model, aggregated
    /// gradient `J`, budget ledger, per-epoch records, policy internals
    /// (including exact RNG stream positions), and the event trace —
    /// into a checksummed envelope at `path`.
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), StoreError> {
        let EngineSnapshot { next_epoch, ledger, policy_state } =
            self.engine.snapshot().expect("`step` settles every epoch it selects");
        let policy = self.engine.policy().name();
        let server = self.env.server();
        let (model, j_agg) = (server.model().params().clone(), server.j_agg().clone());
        let saved = RunCheckpoint {
            policy: policy.to_string(),
            next_epoch,
            sim_time: self.sim_time,
            records: self.records.clone(),
            loss_hints: self.loss_hints.clone(),
            ledger,
            server: ServerModel { model, j_agg },
            policy_state,
            trace: self.trace.events().to_vec(),
        };
        let (kind, version) = (CHECKPOINT_KIND, SNAPSHOT_SCHEMA_VERSION);
        let fingerprint = Self::fingerprint(&self.scenario, policy);
        write_checkpoint(path, kind, version, &fingerprint, saved.fields())?;
        self.telemetry.emit(
            "checkpoint.saved",
            vec![
                ("path", Value::Str(path.display().to_string())),
                ("next_epoch", Value::from(self.engine.next_epoch())),
            ],
        );
        self.telemetry.counter("checkpoint.saved").incr();
        Ok(())
    }

    /// Rebuilds a runner mid-run from a [`Self::save_checkpoint`]
    /// snapshot. The scenario and policy kind must be exactly the ones
    /// the snapshot was taken under (its stamp's fingerprint); calling
    /// [`Self::run`] on the result continues from the next unexecuted
    /// epoch and returns the same [`RunOutcome`] the uninterrupted run
    /// would have.
    pub fn resume_from(
        scenario: ScenarioConfig,
        kind: PolicyKind,
        path: &Path,
    ) -> Result<Self, ResumeError> {
        let mut runner = Self::try_new(scenario, kind)?;
        let fingerprint = Self::fingerprint(&runner.scenario, runner.engine.policy().name());
        let ckpt =
            read_checkpoint(path, CHECKPOINT_KIND, SNAPSHOT_SCHEMA_VERSION, Some(&fingerprint))?;
        let saved = RunCheckpoint::from_json_value(&ckpt.payload).map_err(|e| ckpt.schema(e))?;
        let RunCheckpoint { next_epoch, ledger, policy_state, server, sim_time, .. } = saved;
        let engine = EngineSnapshot { next_epoch, ledger, policy_state };
        runner.engine.restore(engine).map_err(|e| ckpt.schema(e))?;
        // Refused here, as values: a non-finite time would poison every
        // later record, and a mis-shaped model or `J` would panic in the
        // model's shape assert (or the first epoch) instead.
        let shapes = |p: &ParamSet| p.tensors().iter().map(|t| t.shape()).collect::<Vec<_>>();
        let want = shapes(runner.env.server().model().params());
        let (hints, clients) = (saved.loss_hints.len(), runner.scenario.env.num_clients);
        if !(sim_time.is_finite() && sim_time >= 0.0) {
            return Err(ckpt.schema(format!("sim_time {sim_time} is not a time")).into());
        }
        if hints != clients {
            return Err(ckpt.schema(format!("{hints} loss hints for {clients} clients")).into());
        }
        if shapes(&server.model) != want || shapes(&server.j_agg) != want {
            return Err(ckpt.schema("server.model / server.j_agg do not fit the model").into());
        }
        runner.env.server_mut().set_model_params(server.model);
        runner.env.server_mut().set_j_agg(server.j_agg);
        (runner.sim_time, runner.records, runner.loss_hints) =
            (sim_time, saved.records, saved.loss_hints);
        runner.trace = RunTrace::from_events(saved.trace);
        runner.restored_from_epoch = Some(runner.engine.next_epoch());
        Ok(runner)
    }

    /// Routes the whole run's observability through `telemetry`: the
    /// runner emits `run_start`/`epoch`/`run_end` events and the
    /// `epoch`/`select`/`evaluate` spans, and forwards clones to the
    /// environment (→ `train`/`round` spans, `sim.*`/`ml.*` metrics)
    /// and the budget ledger (→ `ledger` events, `budget.*` metrics).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.env.set_telemetry(telemetry.clone());
        self.engine.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// The structured per-epoch event log recorded by [`Self::run`].
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }

    /// The environment (exposed for inspection in tests/benches).
    pub fn env(&self) -> &EdgeEnvironment {
        &self.env
    }

    /// The policy being driven.
    pub fn policy(&self) -> &dyn SelectionPolicy {
        self.engine.policy()
    }

    /// The epoch-`t` decision context from the environment's population
    /// (realized here, once; `run_epoch_in` then trains on the same
    /// window slot), with loss hints from each client's last report.
    fn context_for(&mut self, epoch: usize) -> Option<EpochContext> {
        let mut ctx = context_at(
            self.env.population_mut(),
            epoch,
            None,
            self.engine.remaining(),
            self.scenario.min_participants,
        )?;
        for (hint, &k) in ctx.loss_hint.iter_mut().zip(&ctx.available) {
            *hint = self.loss_hints[k];
        }
        Some(ctx)
    }

    /// Runs the experiment to budget exhaustion (or the epoch cap) and
    /// returns the recorded curves. On a runner rebuilt with
    /// [`Self::resume_from`], continues from the checkpointed epoch.
    pub fn run(&mut self) -> RunOutcome {
        self.telemetry.emit(
            "run_start",
            vec![
                ("schema_version", Value::from(fedl_telemetry::RUN_LOG_SCHEMA_VERSION as usize)),
                ("policy", Value::from(self.engine.policy().name())),
                ("budget", Value::Float(self.scenario.budget)),
                ("num_clients", Value::from(self.scenario.env.num_clients)),
                ("min_participants", Value::from(self.scenario.min_participants)),
                ("seed", Value::Int(self.scenario.env.seed as i64)),
                ("max_epochs", Value::from(self.scenario.max_epochs)),
            ],
        );
        if let Some(epoch) = self.restored_from_epoch.take() {
            self.telemetry.emit(
                "checkpoint.restored",
                vec![
                    ("next_epoch", Value::from(epoch)),
                    ("epochs_already_recorded", Value::from(self.records.len())),
                ],
            );
            self.telemetry.counter("checkpoint.restored").incr();
        }
        while self.step() {}
        let outcome = RunOutcome {
            policy: self.engine.policy().name().to_string(),
            budget: self.scenario.budget,
            epochs: self.records.clone(),
        };
        self.telemetry.emit(
            "run_end",
            vec![
                ("epochs", Value::from(outcome.epochs.len())),
                ("spent", Value::Float(self.engine.ledger().spent())),
                ("sim_time", Value::Float(outcome.total_sim_time())),
                ("final_accuracy", Value::Float(outcome.final_accuracy())),
            ],
        );
        self.telemetry.emit_metrics();
        self.telemetry.flush();
        outcome
    }

    /// Executes the next epoch (selection → training → payment →
    /// feedback → evaluation), or skips it when no client is available.
    /// Returns `false` once the budget is exhausted or the epoch cap is
    /// reached. [`Self::run`] is the normal entry point; `step` is
    /// exposed so drivers can interrupt a run at an arbitrary epoch
    /// boundary and later continue it from a snapshot
    /// ([`Self::save_checkpoint`] / [`Self::resume_from`]).
    pub fn step(&mut self) -> bool {
        let epoch = self.engine.next_epoch();
        if self.engine.exhausted() || epoch >= self.scenario.max_epochs {
            return false;
        }
        let epoch_span = self.telemetry.span("epoch");
        let select_span = epoch_span.child("select");
        let ctx = self.context_for(epoch);
        let selected =
            self.engine.select(ctx).expect("the engine is idle and within budget between steps");
        if let Some((cohort, iterations)) = selected {
            drop(select_span);
            self.emit_select_event(epoch, &cohort);
            let report = self.env.run_epoch_in(epoch, &cohort, iterations, Some(&epoch_span));
            let ctx =
                self.engine.settle(&report).expect("the simulator reports the selected epoch");
            self.trace.record(&report, self.engine.remaining());
            for (slot, &k) in report.cohort.iter().enumerate() {
                self.loss_hints[k] = report.local_losses[slot] as f64;
            }
            self.sim_time += report.latency_secs;
            let evaluate_span = epoch_span.child("evaluate");
            let (accuracy, test_loss) = self.env.test_metrics();
            drop(evaluate_span);
            self.emit_epoch_event(&ctx, &report, iterations, accuracy, test_loss);
            self.records.push(EpochRecord {
                epoch,
                cohort_size: report.cohort.len(),
                iterations,
                sim_time: self.sim_time,
                spent: self.engine.ledger().spent(),
                accuracy,
                test_loss,
                global_loss: report.global_loss_all,
            });
            drop(epoch_span);
        } else {
            // Nobody was available: no phase ran, so neither timer
            // should contribute a sample.
            select_span.cancel();
            epoch_span.cancel();
        }
        self.maybe_checkpoint();
        !self.engine.exhausted() && self.engine.next_epoch() < self.scenario.max_epochs
    }

    /// Saves a snapshot when an interval is configured and the epoch
    /// counter hits it. A failed save is reported through telemetry but
    /// never interrupts the run — losing a checkpoint only costs resume
    /// granularity, while aborting would lose the run itself.
    fn maybe_checkpoint(&mut self) {
        let Some((every, path)) = self.checkpoint.clone() else {
            return;
        };
        if !self.engine.next_epoch().is_multiple_of(every) {
            return;
        }
        if let Err(e) = self.save_checkpoint(&path) {
            self.telemetry.emit(
                "checkpoint.save_failed",
                vec![
                    ("path", Value::Str(path.display().to_string())),
                    ("error", Value::Str(e.to_string())),
                ],
            );
        }
    }

    /// Emits the per-epoch `select` event: which clients the policy
    /// committed to renting this epoch, together with the policy's
    /// current per-client quality estimates (FedL's smoothed η̂ₖ; `null`
    /// for baselines without per-client memory). This is the decision
    /// *before* mid-epoch dropouts, so the dashboard can attribute
    /// payments to every rented client, survivor or not.
    fn emit_select_event(&self, epoch: usize, cohort: &[usize]) {
        if !self.telemetry.enabled() {
            return;
        }
        let policy = self.engine.policy();
        let estimates: Vec<f64> =
            cohort.iter().map(|&k| policy.client_estimate(k).unwrap_or(f64::NAN)).collect();
        self.telemetry.emit(
            "select",
            vec![
                ("epoch", Value::from(epoch)),
                ("cohort", cohort.to_vec().to_json_value()),
                ("estimates", estimates.to_json_value()),
            ],
        );
    }

    /// Emits the per-epoch `epoch` event: the selection set, estimated
    /// vs realized per-iteration latencies, cost and budget state,
    /// measured local accuracies η̂, and the policy's regret/fit terms
    /// (NaN for policies without a tracker).
    fn emit_epoch_event(
        &self,
        ctx: &EpochContext,
        report: &fedl_sim::EpochReport,
        iterations: usize,
        accuracy: f64,
        test_loss: f64,
    ) {
        if !self.telemetry.enabled() {
            return;
        }
        // The policy selected using `ctx.latency_hint` (previous-epoch
        // estimates, aligned with `ctx.available`); the report carries
        // what the same clients actually took this epoch.
        let slot_of = locator(&ctx.available);
        let est_latency: Vec<f64> = report
            .cohort
            .iter()
            .map(|&k| slot_of(k).map_or(f64::NAN, |slot| ctx.latency_hint[slot]))
            .collect();
        let tracker = self.engine.policy().regret_tracker();
        let (regret, fit) = tracker.map_or((f64::NAN, f64::NAN), |t| {
            (
                t.cumulative_regret().last().copied().unwrap_or(f64::NAN),
                t.fit().last().copied().unwrap_or(f64::NAN),
            )
        });
        let eta_hats: Vec<f64> = report.eta_hats.iter().map(|&e| e as f64).collect();
        self.telemetry.emit(
            "epoch",
            vec![
                ("epoch", Value::from(report.epoch)),
                ("cohort", report.cohort.clone().to_json_value()),
                ("failed", report.failed.clone().to_json_value()),
                ("iterations", Value::from(iterations)),
                ("cost", Value::Float(report.cost)),
                ("budget_remaining", Value::Float(self.engine.remaining())),
                ("latency_secs", Value::Float(report.latency_secs)),
                ("est_iter_latency", est_latency.to_json_value()),
                ("realized_iter_latency", report.per_client_iter_latency.clone().to_json_value()),
                ("eta_hats", eta_hats.to_json_value()),
                ("accuracy", Value::Float(accuracy)),
                ("test_loss", Value::Float(test_loss)),
                ("global_loss", Value::Float(report.global_loss_all)),
                ("regret", Value::Float(regret)),
                ("fit", Value::Float(fit)),
            ],
        );
        self.telemetry.gauge("run.accuracy").set(accuracy);
        self.telemetry.histogram("run.epoch_cost").record(report.cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_json::FromJson;
    use fedl_store::{read_envelope, write_envelope};

    fn scenario() -> ScenarioConfig {
        let mut s = ScenarioConfig::small_fmnist(8, 200.0, 2).with_seed(7);
        s.train_size = 600;
        s.test_size = 200;
        s.max_epochs = 60;
        // The convex model learns within the few epochs this budget
        // buys; the MLP default needs the longer figure-scale runs. The
        // higher solver lr is stable here because cohorts are tiny.
        s.model = ModelArch::Linear { l2: 0.001 };
        s.dane.lr = 0.3;
        s
    }

    #[test]
    fn run_stops_at_budget() {
        let mut runner = ExperimentRunner::new(scenario(), PolicyKind::FedAvg);
        let out = runner.run();
        assert!(!out.epochs.is_empty());
        let last = out.epochs.last().unwrap();
        assert!(last.spent >= 200.0 || out.epochs.len() == 60, "run must end on budget or cap");
        // Monotone cumulative series.
        for w in out.epochs.windows(2) {
            assert!(w[1].sim_time >= w[0].sim_time);
            assert!(w[1].spent >= w[0].spent);
        }
    }

    #[test]
    fn all_policies_complete_and_learn() {
        for kind in PolicyKind::ALL {
            let mut runner = ExperimentRunner::new(scenario(), kind);
            let out = runner.run();
            assert!(!out.epochs.is_empty(), "{:?} ran no epochs", kind);
            assert!(
                out.final_accuracy() > 0.3,
                "{:?} failed to learn: accuracy {}",
                kind,
                out.final_accuracy()
            );
        }
    }

    #[test]
    fn outcome_helpers_consistent() {
        let mut runner = ExperimentRunner::new(scenario(), PolicyKind::FedL);
        let out = runner.run();
        assert_eq!(out.policy, "FedL");
        if let Some(t) = out.time_to_accuracy(0.3) {
            assert!(t <= out.total_sim_time());
        }
        let by_round = out.accuracy_by_round();
        assert_eq!(by_round.len(), out.epochs.len());
        assert!(by_round.windows(2).all(|w| w[1].0 > w[0].0));
    }

    #[test]
    fn same_seed_same_environment_draws() {
        // Two runners on the same scenario see the same availability
        // pattern (policies may differ in what they do with it).
        let r1 = ExperimentRunner::new(scenario(), PolicyKind::FedAvg);
        let r2 = ExperimentRunner::new(scenario(), PolicyKind::FedL);
        for t in 0..10 {
            assert_eq!(r1.env.available(t), r2.env.available(t));
        }
    }

    #[test]
    fn cnn_scenario_trains_end_to_end() {
        let mut s = ScenarioConfig::small_fmnist_cnn(6, 60.0, 2).with_seed(19);
        s.train_size = 300;
        s.test_size = 100;
        s.max_epochs = 8;
        s.dane.local_steps = 3;
        let mut runner = ExperimentRunner::new(s, PolicyKind::FedAvg);
        let out = runner.run();
        assert!(!out.epochs.is_empty());
        assert!(out.final_accuracy().is_finite());
        // Loss must move (the CNN is actually training, not inert).
        let first = out.epochs.first().unwrap().global_loss;
        let last = out.epochs.last().unwrap().global_loss;
        assert!(last < first, "CNN global loss did not improve: {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "does not match the dataset dimension")]
    fn cnn_shape_mismatch_rejected() {
        let mut s = ScenarioConfig::small_fmnist_cnn(4, 50.0, 2);
        s.dim_override = Some(64); // contradicts the (1,16,16) shape
        let _ = s.build_env();
    }

    #[test]
    fn try_new_reports_config_problems_as_values() {
        let mut s = scenario();
        s.budget = -5.0;
        match ExperimentRunner::try_new(s, PolicyKind::FedAvg).err() {
            Some(ScenarioError::Env(e)) => {
                assert!(e.to_string().contains("budget must be positive"))
            }
            other => panic!("expected budget error, got {other:?}"),
        }

        let mut s = scenario();
        s.min_participants = 99;
        match ExperimentRunner::try_new(s, PolicyKind::FedAvg).err() {
            Some(ScenarioError::ParticipationFloor { min_participants: 99, num_clients: 8 }) => {}
            other => panic!("expected floor error, got {other:?}"),
        }

        let mut s = scenario();
        s.env.cost_range = (3.0, 1.0);
        let err = ExperimentRunner::try_new(s, PolicyKind::FedAvg)
            .err()
            .expect("inverted cost range must be rejected");
        assert!(err.to_string().contains("bad cost range"), "{err}");

        let mut s = ScenarioConfig::small_fmnist_cnn(4, 50.0, 2);
        s.dim_override = Some(64);
        match s.try_build_env().err() {
            Some(e @ ScenarioError::ModelShape { shape: (1, 16, 16), dim: 64 }) => {
                assert!(e.to_string().contains("does not match the dataset dimension"))
            }
            other => panic!("expected shape error, got {other:?}"),
        }
    }

    /// Each degenerate scenario is refused by `try_new` under every
    /// policy with a typed error — before a policy or a model is built,
    /// so nothing downstream panics on it.
    #[test]
    fn degenerate_scenarios_are_typed_errors_under_every_policy() {
        let cnn = |blocks: Vec<(usize, usize)>| {
            let mut s = ScenarioConfig::small_fmnist_cnn(4, 50.0, 2);
            s.model = ModelArch::Cnn { shape: (1, 16, 16), blocks, l2: 0.0 };
            s
        };
        let mut zero_floor = scenario();
        zero_floor.min_participants = 0;
        let mut zero_width = scenario();
        zero_width.model = ModelArch::Mlp { hidden: vec![8, 0], l2: 0.0 };
        let cases = [
            ("zero floor", zero_floor, "participation floor must be positive"),
            ("oversized kernel", cnn(vec![(6, 17)]), "kernel 17 exceeds map 16x16"),
            ("second block too big", cnn(vec![(6, 5), (4, 7)]), "kernel 7 exceeds map 6x6"),
            ("pooled away", cnn(vec![(6, 16)]), "feature map vanished"),
            ("zero channels", cnn(vec![(0, 5)]), "degenerate block"),
            ("zero kernel", cnn(vec![(6, 0)]), "degenerate block"),
            ("zero-width MLP", zero_width, "zero-width hidden layer"),
        ];
        for (name, s, want) in cases {
            for kind in PolicyKind::ALL {
                let err = ExperimentRunner::try_new(s.clone(), kind)
                    .err()
                    .unwrap_or_else(|| panic!("{name} under {kind:?} was accepted"));
                assert!(err.to_string().contains(want), "{name} under {kind:?}: {err}");
            }
        }
    }

    #[test]
    fn valid_scenario_passes_try_new() {
        if let Err(e) = ExperimentRunner::try_new(scenario(), PolicyKind::FedL) {
            panic!("valid scenario rejected: {e}");
        }
    }

    fn checkpoint_scenario() -> ScenarioConfig {
        let mut s = scenario();
        s.budget = 90.0;
        s.max_epochs = 12;
        s
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_run_exactly() {
        let dir = crate::scratch_dir("resume");
        for kind in [PolicyKind::FedL, PolicyKind::FedAvg, PolicyKind::PowD] {
            let s = checkpoint_scenario();
            let mut whole = ExperimentRunner::new(s.clone(), kind);
            let full = whole.run();
            assert!(full.epochs.len() > 5, "{kind:?} run too short to interrupt");
            // Context and training read one window: an epoch is realized
            // once, however many of its steps ask for it.
            let walked = whole.engine.next_epoch();
            assert_eq!(whole.env.population().realizations(), walked, "{kind:?}");

            // Interrupt after 5 epochs, snapshot, throw the runner away.
            let path = dir.join(format!("{kind:?}.fedlstore"));
            let mut first = ExperimentRunner::new(s.clone(), kind);
            for _ in 0..5 {
                assert!(first.step());
            }
            first.save_checkpoint(&path).unwrap();
            drop(first);

            // Resume in a fresh process-equivalent and finish.
            let mut second = ExperimentRunner::resume_from(s, kind, &path).unwrap();
            let resumed = second.run();
            assert_eq!(full, resumed, "{kind:?} resumed run diverged");
            // The window is not checkpointed: the resumed runner realizes
            // the epochs it runs plus its first hint epoch (4), once.
            assert_eq!(second.env.population().realizations(), walked - 5 + 1, "{kind:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_foreign_fingerprints_and_corruption() {
        let dir = crate::scratch_dir("resume_err");
        let path = dir.join("snap.fedlstore");
        let s = checkpoint_scenario();
        let mut runner = ExperimentRunner::new(s.clone(), PolicyKind::FedAvg);
        runner.step();
        runner.save_checkpoint(&path).unwrap();

        // Different policy → fingerprint mismatch.
        match ExperimentRunner::resume_from(s.clone(), PolicyKind::FedL, &path).err() {
            Some(ResumeError::Store(StoreError::Fingerprint { .. })) => {}
            other => panic!("expected fingerprint error, got {other:?}"),
        }
        // Different scenario (seed) → fingerprint mismatch.
        let reseeded = checkpoint_scenario().with_seed(99);
        match ExperimentRunner::resume_from(reseeded, PolicyKind::FedAvg, &path).err() {
            Some(ResumeError::Store(StoreError::Fingerprint { .. })) => {}
            other => panic!("expected fingerprint error, got {other:?}"),
        }
        // The same run checkpointed by the previous schema version (same
        // payload, fingerprint text "fedl-snapshot v1 …") → fingerprint
        // mismatch: v1's FedL decided differently, so its state must not
        // be continued.
        let stale = dir.join("stale.fedlstore");
        let mut payload = read_envelope(&path, CHECKPOINT_KIND).unwrap();
        let Value::Obj(fields) = &mut payload else { panic!("checkpoint payload is an object") };
        let text = format!("fedl-snapshot v1\npolicy=FedAvg\n{}", s.canonical_json());
        assert_eq!(fields[1].0, "fingerprint", "the stamp heads the payload");
        fields[1].1 = Value::Str(content_address(text.as_bytes()));
        write_envelope(&stale, CHECKPOINT_KIND, &payload).unwrap();
        match ExperimentRunner::resume_from(s.clone(), PolicyKind::FedAvg, &stale).err() {
            Some(ResumeError::Store(StoreError::Fingerprint { .. })) => {}
            other => panic!("expected fingerprint error, got {other:?}"),
        }
        // The same checkpoint as a build on envelope v1 wrote it (FNV-1a
        // over the same body) → typed version refusal, by the header.
        let text = std::fs::read_to_string(&path).unwrap();
        let body = text.split_once('\n').unwrap().1;
        let crc = fedl_store::fnv1a64(body.as_bytes());
        std::fs::write(
            &stale,
            format!("fedl-store v1 kind={CHECKPOINT_KIND} crc={crc:016x}\n{body}"),
        )
        .unwrap();
        match ExperimentRunner::resume_from(s.clone(), PolicyKind::FedAvg, &stale).err() {
            Some(ResumeError::Store(StoreError::Version { found: 1, supported: 2, .. })) => {}
            other => panic!("expected a v1 refusal, got {other:?}"),
        }
        // Bit flip in the body → typed checksum error.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match ExperimentRunner::resume_from(s.clone(), PolicyKind::FedAvg, &path).err() {
            Some(ResumeError::Store(StoreError::ChecksumMismatch { .. })) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
        // Truncation → typed truncation error.
        std::fs::write(&path, "fedl-store").unwrap();
        match ExperimentRunner::resume_from(s, PolicyKind::FedAvg, &path).err() {
            Some(ResumeError::Store(StoreError::Truncated { .. })) => {}
            other => panic!("expected truncation error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_every_writes_and_telemetry_reports() {
        let dir = crate::scratch_dir("checkpoint_every");
        let path = dir.join("auto.fedlstore");
        let (tel, handle) = Telemetry::in_memory();
        let mut runner = ExperimentRunner::new(checkpoint_scenario(), PolicyKind::FedAvg)
            .checkpoint_every(2, &path)
            .with_telemetry(tel.clone());
        let out = runner.run();
        assert!(path.exists(), "interval checkpointing never wrote a snapshot");
        let saves = handle
            .events()
            .unwrap()
            .iter()
            .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some("checkpoint.saved"))
            .count();
        assert!(saves >= out.epochs.len() / 2, "expected periodic saves, got {saves}");
        assert_eq!(tel.counter("checkpoint.saved").value(), saves as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn canonical_json_is_stable_and_parameter_sensitive() {
        let s = checkpoint_scenario();
        let a = s.canonical_json();
        assert_eq!(a, checkpoint_scenario().canonical_json(), "must be deterministic");
        assert!(a.contains("\"env\":") && a.contains("\"fedl\":"), "{a}");
        let mut t = checkpoint_scenario();
        t.budget += 1.0;
        assert_ne!(a, t.canonical_json(), "budget must be part of the key");
        let reseeded = checkpoint_scenario().with_seed(1234);
        assert_ne!(a, reseeded.canonical_json(), "seed must be part of the key");
    }

    #[test]
    fn epoch_record_and_outcome_json_round_trip() {
        let rec = EpochRecord {
            epoch: 3,
            cohort_size: 4,
            iterations: 2,
            sim_time: 12.5,
            spent: 33.25,
            accuracy: 0.875,
            test_loss: 0.4375,
            global_loss: 0.75,
        };
        let out = RunOutcome {
            policy: "FedL".to_string(),
            budget: 200.0,
            epochs: vec![rec.clone(), EpochRecord { epoch: 4, ..rec.clone() }],
        };
        let back = RunOutcome::from_json_value(&out.to_json_value()).unwrap();
        assert_eq!(out, back);
        let rec_back = EpochRecord::from_json_value(&rec.to_json_value()).unwrap();
        assert_eq!(rec, rec_back);
    }
}
