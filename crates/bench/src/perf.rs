//! Perf snapshots and cross-run regression gating — the repo's
//! benchmark trajectory (`experiments bench` / `bench-history gate`,
//! DESIGN.md row **S13**, schema in docs/OBSERVATORY.md).
//!
//! [`run_suite`] times a fixed, seeded set of micro-kernels — GEMM and
//! the fused cross-entropy (S1), a DANE local solve (S2), RDCS dependent rounding
//! (S5/S6), one FedL decision (build → decide → observe), one regret
//! record (the hindsight comparator), the one-shot solve, the columnar
//! scheduler at the 10k/100k/1M scale tiers (docs/SCALE.md), and the
//! dist wire codec and the envelope checksum
//! over one 40k-row column frame (docs/DIST.md) — on the in-tree
//! [`crate::timing`] harness, and packages the per-kernel statistics
//! into a [`BenchSnapshot`] serialisable to `BENCH.json` via
//! `fedl-json`. End-to-end paths (a
//! training epoch, a served round, a distributed epoch) are measured by
//! the repo benchmark (`benchmark/`, `BENCHMARK.json`), not here. [`compare`] loads two snapshots and applies a
//! noise-aware slowdown test so `scripts/ci.sh` can gate on perf
//! regressions.

use std::path::Path;
use std::time::Duration;

use fedl_json::{FromJson, ToJson, Value};
use fedl_telemetry::log_line;
use fedl_telemetry::render::{Col, Table};

use crate::profile::Profile;
use crate::timing::{self, measure_with_budget, Measurement};

/// Version of the `BENCH.json` schema. Bump when kernel names, fields,
/// or measurement semantics change; [`compare`] refuses to compare
/// snapshots across versions. v2 added the `scale/` kernel family
/// (columnar scheduler passes at the 10k/100k/1M tiers, docs/SCALE.md);
/// v3 added the `serve/` family (cohort selection through the framed
/// service protocol, docs/SERVE.md); v4 added the `dist/` family (a
/// full coordinator epoch over a sharded 100k population through the
/// worker protocol, docs/DIST.md); v5 added the `solve/` family (the
/// polytope projection and the one-shot solve at 64/1k/10k clients and at
/// the exhaustion tail, docs/PERF.md) and, with the solve rewritten, moved
/// what `core/ucb_score_update_*`, `serve/select_1k` and
/// `epoch/full_quick_epoch` cost; v6 dropped the end-to-end kernels
/// `serve/select_1k`, `dist/epoch_100k` and `epoch/full_quick_epoch` (the
/// repo benchmark's workloads measure those paths) and renamed
/// `core/ucb_score_update_*` to `core/decide_observe_*`, which is what it
/// times; v7 added `wire/context_part_40k` (one packed `ShardContextPart`
/// frame through `encode_frame` + `decode_frame`, docs/DIST.md); v8 added
/// the two per-epoch stages of the sharded plane that no kernel timed:
/// `scale/context_part_{10k,100k}` (a worker's `scale_context_part`,
/// below and above the realize grain) and `core/sanitize_1k_of_80k` (the
/// coordinator's decision hygiene at the `dist_fedavg_100k` shape); v9
/// added `store/envelope_checksum_1m7` and `store/fnv1a64_1m7` (the
/// envelope's body checksum, and the FNV-1a it replaced in envelope v2,
/// over the body of the `wire/` kernel's 1.7 MB frame) — and envelope v2
/// moved what `wire/context_part_40k` costs; v10 added
/// `core/regret_record_80` (one warm `RegretTracker::record` on a seeded
/// K = 80 instance, docs/PERF.md "The hindsight comparator"); v11 added the
/// kernels at the shapes `train_fedavg_cifar_m100` runs: the 16-row
/// products `gemm/forward_16x128x96`, `gemm/weight_grad_128x16x96` and
/// `gemm/head_16x96x10`, and the 16-row `ml/dane_local_solve_16`; v12
/// replaced `linalg/softmax_rows_{128x64,256x96}` (rows that fill the exp
/// batch, a shape no workload runs) with the fused cross-entropy kernel
/// at the training pass's 16×10, `ml/cross_entropy_grad_16x10`, and one
/// chunk of the evaluation walk, `ml/eval_chunk_256x64`; v13 added the
/// two halves of `wire/context_part_40k` on their own,
/// `wire/encode_context_part_40k` and `wire/decode_context_part_40k`
/// (the worker's reply encode and the coordinator's decode), and the
/// block kernels of the packed codec moved what all three cost.
pub const BENCH_SCHEMA_VERSION: u32 = 13;

/// Half-width multiplier of the noise band `mean ± K·std` used by the
/// regression test.
const NOISE_BAND_STDS: f64 = 2.0;

/// Per-kernel timing statistics over the measured samples.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Kernel label, e.g. `gemm/square_96`.
    pub name: String,
    /// Mean per-iteration nanoseconds over the samples.
    pub mean_ns: f64,
    /// Population standard deviation of the per-sample times.
    pub std_ns: f64,
    /// Fastest sample (noise floor).
    pub min_ns: f64,
    /// Iterations per sample (calibrated).
    pub iters: u64,
    /// Number of timed samples.
    pub samples: usize,
}

impl KernelStats {
    fn from_measurement(name: &str, m: &Measurement) -> Self {
        Self {
            name: name.to_string(),
            mean_ns: m.mean_ns(),
            std_ns: m.std_ns(),
            min_ns: m.min_ns(),
            iters: m.iters,
            samples: m.per_iter_ns.len(),
        }
    }
}

fedl_json::record!(KernelStats { name, mean_ns, std_ns, min_ns, iters, samples });

/// One machine-readable perf snapshot (`BENCH.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// [`BENCH_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Suite sizing (`"quick"` or `"paper"`).
    pub profile: String,
    /// Hardware parallelism of the measuring machine.
    pub threads: usize,
    /// Per-kernel statistics, in suite order.
    pub kernels: Vec<KernelStats>,
}

fedl_json::record!(BenchSnapshot { schema_version, profile, threads, kernels });

impl BenchSnapshot {
    /// Serialises the snapshot to `path` (creating parent directories).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json_value().to_json_pretty())
    }

    /// Reads a snapshot back from `path`.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value = Value::parse(&text)
            .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
        Self::from_json_value(&value)
            .map_err(|e| format!("{} is not a BENCH.json snapshot: {e}", path.display()))
    }

    /// The stats for `name`, if the suite measured it.
    pub fn kernel(&self, name: &str) -> Option<&KernelStats> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// Per-kernel measurement budget for the profile.
fn kernel_budget(profile: Profile) -> Duration {
    match profile {
        Profile::Paper => Duration::from_millis(400),
        Profile::Quick => Duration::from_millis(80),
    }
}

fn measure_kernel<R>(
    kernels: &mut Vec<KernelStats>,
    budget: Duration,
    name: &str,
    f: impl FnMut() -> R,
) {
    let m = measure_with_budget(budget, f);
    log_line!(
        "{name:<44} {:>12}/iter  ±{:>10}  (min {:>12})",
        timing::fmt_ns(m.mean_ns()),
        timing::fmt_ns(m.std_ns()),
        timing::fmt_ns(m.min_ns()),
    );
    kernels.push(KernelStats::from_measurement(name, &m));
}

/// GEMM and cross-entropy kernels (linear-algebra substrate, S1).
fn suite_linalg(kernels: &mut Vec<KernelStats>, budget: Duration, profile: Profile) {
    use fedl_linalg::rng::rng_for;
    use fedl_linalg::Matrix;

    let n = match profile {
        Profile::Paper => 96,
        Profile::Quick => 48,
    };
    let mut rng = rng_for(0xBE1, n as u64);
    let a = Matrix::uniform(n, n, 1.0, &mut rng);
    let b = Matrix::uniform(n, n, 1.0, &mut rng);
    measure_kernel(kernels, budget, &format!("gemm/square_{n}"), || {
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        std::hint::black_box(out)
    });

    // The products of one 16-row training pass of the 128-96-10 MLP
    // `train_fedavg_cifar_m100` runs, into a reused output as the model
    // writes them: the forward `x·W₁`, the weight gradient `xᵀ·δ₁`, and
    // the head `a₁·W₂`.
    let x = Matrix::uniform(16, 128, 1.0, &mut rng);
    let w1 = Matrix::uniform(128, 96, 1.0, &mut rng);
    let delta1 = Matrix::uniform(16, 96, 1.0, &mut rng);
    let a1 = Matrix::uniform(16, 96, 1.0, &mut rng);
    let w2 = Matrix::uniform(96, 10, 1.0, &mut rng);
    let mut out = Matrix::default();
    measure_kernel(kernels, budget, "gemm/forward_16x128x96", || {
        x.matmul_into(&w1, &mut out);
        std::hint::black_box(&out);
    });
    measure_kernel(kernels, budget, "gemm/weight_grad_128x16x96", || {
        x.t_matmul_into(&delta1, &mut out);
        std::hint::black_box(&out);
    });
    measure_kernel(kernels, budget, "gemm/head_16x96x10", || {
        a1.matmul_into(&w2, &mut out);
        std::hint::black_box(&out);
    });

    // The fused cross-entropy kernel at the shape every training pass
    // runs it: 16 rows of 10 classes (docs/PERF.md, "The exp kernel").
    let logits = Matrix::uniform(16, 10, 4.0, &mut rng);
    let targets = Matrix::from_fn(16, 10, |r, c| if c == (r * 7) % 10 { 1.0 } else { 0.0 });
    let (mut lse, mut grad) = (Vec::new(), Matrix::default());
    measure_kernel(kernels, budget, "ml/cross_entropy_grad_16x10", || {
        let loss =
            fedl_ml::loss::cross_entropy_with_grad_into(&logits, &targets, &mut lse, &mut grad);
        std::hint::black_box((loss, &grad));
    });

    // One evaluation chunk of the client walk on the 64-64-10 model
    // `train_fedl_m100` scores with: a 256-row forward into a reused
    // workspace and the cross-entropy fold over its rows.
    use fedl_ml::model::{Mlp, Model, ModelScratch};
    let model = Mlp::new(64, &[64], 10, 0.0005, &mut rng);
    let x = Matrix::uniform(256, 64, 1.0, &mut rng);
    let y = Matrix::from_fn(256, 10, |r, c| if c == (r * 3) % 10 { 1.0 } else { 0.0 });
    let (mut ws, mut block) = (ModelScratch::new(), Matrix::default());
    measure_kernel(kernels, budget, "ml/eval_chunk_256x64", || {
        model.forward_scratch(&x, &mut ws);
        let (logits, targets) = (ws.logits().as_slice(), y.as_slice());
        let sum = fedl_ml::loss::cross_entropy_fold(0.0, logits, targets, 10, &mut lse, &mut block);
        std::hint::black_box(sum);
    });
}

/// One DANE local solve on a seeded synthetic client shard (S2).
fn suite_dane(kernels: &mut Vec<KernelStats>, budget: Duration, profile: Profile) {
    use fedl_data::synth::{small_fmnist, SyntheticSpec, TaskKind};
    use fedl_linalg::rng::rng_for;
    use fedl_ml::dane::{
        local_update, local_update_scratch, DaneConfig, DaneScratch, LocalOutcome,
    };
    use fedl_ml::model::{Mlp, Model};
    use fedl_ml::ParamSet;
    use fedl_telemetry::Telemetry;

    let samples = match profile {
        Profile::Paper => 400,
        Profile::Quick => 160,
    };
    let (train, _) = small_fmnist(samples, 10, 0xBE2);
    let mut rng = rng_for(0xBE3, 0);
    let model = Mlp::new(train.dim(), &[64], train.num_classes, 0.0005, &mut rng);
    let (x, y) = (train.features.clone(), train.one_hot_labels());
    let (_, j) = model.loss_and_grad(&x, &y);
    let cfg = DaneConfig::default();
    let (mut rng, off) = (rng_for(0xBE4, 0), Telemetry::disabled());
    measure_kernel(kernels, budget, &format!("ml/dane_local_solve_{samples}"), || {
        std::hint::black_box(local_update(&model, &train, &j, &cfg, &mut rng, &off))
    });

    // The solve `train_fedavg_cifar_m100` runs per client and iteration:
    // 16 arrived samples, the 128-96-10 MLP, six steps, into a reused
    // workspace.
    let (shard, _) = SyntheticSpec::new(TaskKind::CifarLike, 16, 1, 0xBE5).with_dim(128).generate();
    let model = Mlp::new(shard.dim(), &[96], shard.num_classes, 0.0005, &mut rng);
    let (_, j) = model.loss_and_grad(&shard.features, &shard.one_hot_labels());
    let cfg = DaneConfig { local_steps: 6, lr: 0.12, ..Default::default() };
    let mut scratch = DaneScratch::new();
    let mut out = LocalOutcome {
        delta: ParamSet::new(Vec::new()),
        grad_at_w: ParamSet::new(Vec::new()),
        eta_hat: 0.0,
        loss_at_w: 0.0,
        loss_after: 0.0,
    };
    measure_kernel(kernels, budget, "ml/dane_local_solve_16", || {
        local_update_scratch(&model, &shard, &j, &cfg, &mut rng, &mut scratch, &mut out);
        std::hint::black_box(&out);
    });
}

/// RDCS dependent rounding over a seeded fractional vector (S5/S6).
fn suite_rounding(kernels: &mut Vec<KernelStats>, budget: Duration, profile: Profile) {
    use fedl_linalg::rng::rng_for;
    use fedl_linalg::rng::Rng;

    let k = match profile {
        Profile::Paper => 1024,
        Profile::Quick => 256,
    };
    let mut seed_rng = rng_for(0xBE5, k as u64);
    let x0: Vec<f64> = (0..k).map(|_| seed_rng.next_f64()).collect();
    let mut rng = rng_for(0xBE6, k as u64);
    measure_kernel(kernels, budget, &format!("core/rdcs_round_{k}"), || {
        let mut x = x0.clone();
        std::hint::black_box(rdcs(&mut x, &mut rng))
    });
}

fn rdcs(x: &mut [f64], rng: &mut impl fedl_linalg::rng::Rng) -> Vec<usize> {
    let mut selected = Vec::new();
    fedl_core::rounding::rdcs_with(x, rng, &mut Default::default(), &mut selected);
    selected
}

fn fresh_problem(
    learner: &mut fedl_core::online::OnlineLearner,
    ctx: &fedl_core::EpochContext,
) -> fedl_core::objective::OneShot {
    let mut problem = Default::default();
    learner.build_problem_into(ctx, &mut problem);
    problem
}

/// One FedL decision at `K = M`: assemble the one-shot problem from the
/// per-client estimates, solve it, and fold a realized epoch back into
/// the EMA memory and dual multipliers.
fn suite_decide_observe(kernels: &mut Vec<KernelStats>, budget: Duration, profile: Profile) {
    use fedl_core::online::{OnlineLearner, StepSizes};
    use fedl_core::policy::EpochContext;
    use fedl_sim::EpochReport;

    let m = match profile {
        Profile::Paper => 128,
        Profile::Quick => 64,
    };
    let n = m / 8;
    let ctx = EpochContext {
        epoch: 0,
        num_clients: m,
        available: (0..m).collect(),
        costs: (0..m).map(|i| 0.5 + (i % 11) as f64).collect(),
        data_volumes: vec![20; m],
        latency_hint: (0..m).map(|i| 0.1 + 0.01 * (i % 7) as f64).collect(),
        loss_hint: vec![2.0; m],
        true_latency: (0..m).map(|i| 0.1 + 0.01 * (i % 7) as f64).collect(),
        remaining_budget: 10_000.0,
        min_participants: n,
        seed: 0xBE7,
    };
    let cohort: Vec<usize> = (0..n).collect();
    let report = EpochReport {
        epoch: 0,
        cohort: cohort.clone(),
        iterations: 2,
        latency_secs: 0.4,
        per_client_iter_latency: vec![0.2; n],
        cost: n as f64,
        eta_hats: vec![0.4f32; n],
        global_loss_all: 1.4,
        global_loss_selected: 1.3,
        grad_dot_delta: vec![-0.2f32; n],
        local_losses: vec![1.4f32; n],
        failed: vec![],
    };
    let mut learner = OnlineLearner::new(m, StepSizes::fixed(0.3, 0.3), 1.0, 10.0, 0.1);
    measure_kernel(kernels, budget, &format!("core/decide_observe_{m}"), || {
        let problem = fresh_problem(&mut learner, &ctx);
        let frac = learner.decide(&ctx, &problem);
        learner.observe(&ctx, &report, &frac, &problem);
        std::hint::black_box(frac.rho)
    });
}

/// The one-shot solve of eq. (8) (S6, docs/PERF.md "the solve"): one
/// projection onto a 1k-client feasible set from a point outside it;
/// `OneShot::descend` at 64 / 1k / 10k available clients from a cold
/// anchor (every client at the `n/K` prior, ρ = 1) and from a warm one
/// (the previous optimum); and the exhaustion tail — the last three
/// instances FedL poses on `small_fmnist(100, 4 500, 10)` seed 3, from
/// their own anchors, where the budget row binds and the feasible set is
/// thinnest. The sized problems draw their coefficients from the §6.1
/// ranges with a tenth of the clients required, a loose budget, and a
/// multiplier on one local constraint in sixteen, which is the shape a
/// mid-run epoch has.
fn suite_solve(kernels: &mut Vec<KernelStats>, budget: Duration) {
    use fedl_core::objective::{FracDecision, OneShot};
    use fedl_linalg::rng::{rng_for, Rng};
    use fedl_solver::Project;

    let sized = |k: usize| {
        let mut rng = rng_for(0xBEC, k as u64);
        let problem = OneShot {
            ids: (0..k).collect(),
            tau: (0..k).map(|_| rng.gen_range(0.01..2.0)).collect(),
            costs: (0..k).map(|_| rng.gen_range(0.1..12.0)).collect(),
            eta: (0..k).map(|_| rng.gen_range(0.1..0.9)).collect(),
            g: (0..k).map(|_| rng.gen_range(-1.0..0.1)).collect(),
            bonus: vec![0.0; k],
            loss_all: 1.8,
            theta: 1.0,
            min_participants: (k / 10).max(2),
            budget: 1.0e9,
            rho_max: 10.0,
        };
        let mu: Vec<f64> = std::iter::once(1.5)
            .chain((0..k).map(|i| if i % 16 == 0 { 0.4 } else { 0.0 }))
            .collect();
        (problem, mu, 0.1)
    };
    let cold = |p: &OneShot| {
        let k = p.ids.len();
        FracDecision { x: vec![(p.effective_n() as f64 / k as f64).clamp(0.02, 0.5); k], rho: 1.0 }
    };

    for (k, label) in [(64usize, "64"), (1_000, "1k"), (10_000, "10k")] {
        let (problem, mu, beta) = sized(k);
        let anchor = cold(&problem);
        let optimum = problem.descend(&anchor, &mu, beta);
        if k == 1_000 {
            let set = problem.feasible_set();
            let outside: Vec<f64> = optimum
                .x
                .iter()
                .map(|x| 1.5 * x + 0.1)
                .chain(std::iter::once(optimum.rho + 1.0))
                .collect();
            let mut z = outside.clone();
            measure_kernel(kernels, budget, "solve/project_1k", || {
                z.copy_from_slice(&outside);
                set.project(std::hint::black_box(&mut z));
                z[0]
            });
        }
        measure_kernel(kernels, budget, &format!("solve/descend_{label}"), || {
            std::hint::black_box(problem.descend(std::hint::black_box(&anchor), &mu, beta))
        });
        measure_kernel(kernels, budget, &format!("solve/descend_{label}_warm"), || {
            std::hint::black_box(problem.descend(std::hint::black_box(&optimum), &mu, beta))
        });
    }

    let tail = exhaustion_tail();
    measure_kernel(kernels, budget, "solve/descend_tail", || {
        for p in &tail {
            std::hint::black_box(p.problem.descend(&p.anchor, &p.mu, p.beta));
        }
    });
}

/// The last three instances of eq. (8) FedL poses when
/// `small_fmnist(100, 4 500, 10)` seed 3 runs to exhaustion: a
/// deterministic function of the code, rebuilt at bench start.
fn exhaustion_tail() -> Vec<fedl_core::Posed> {
    use fedl_core::policy::{EpochContext, SelectionDecision, SelectionPolicy};
    use fedl_core::runner::{ExperimentRunner, ScenarioConfig};
    use fedl_core::{FedLPolicy, Posed};
    use std::sync::{Arc, Mutex};

    struct Capture(FedLPolicy, Arc<Mutex<Vec<Posed>>>);
    impl SelectionPolicy for Capture {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn select(&mut self, ctx: &EpochContext) -> SelectionDecision {
            let decision = self.0.select(ctx);
            self.1.lock().expect("single-threaded").push(self.0.posed());
            decision
        }
        fn observe(&mut self, ctx: &EpochContext, report: &fedl_sim::EpochReport) {
            self.0.observe(ctx, report);
        }
    }

    let scenario = ScenarioConfig::small_fmnist(100, 4_500.0, 10).with_seed(3);
    let posed = Arc::new(Mutex::new(Vec::new()));
    // Untracked: the tracker never feeds back into decisions.
    let policy = FedLPolicy::new(scenario.fedl, 100, scenario.budget, 10).without_regret_tracking();
    let env = scenario.build_env();
    let mut runner =
        ExperimentRunner::with_policy(scenario, env, Box::new(Capture(policy, posed.clone())));
    while runner.step() {}
    let mut posed = std::mem::take(&mut *posed.lock().expect("single-threaded"));
    posed.split_off(posed.len() - 3)
}

/// One warm `RegretTracker::record` on a seeded K = 80 instance shaped
/// like those `serve_fedl_m100`'s tracker solves mid-run: ten clients
/// required, a budget that does not bind, latencies spread over two
/// decades, and the loss just above θ, so the comparator balances the
/// loss row with its multiplier at an interior ρ with kinks met — the
/// regime where it costs most. With an empty cohort the realized problem
/// is the posed one, so each iteration is one copy of it, one hindsight
/// solve and the curve updates (docs/PERF.md, "The hindsight comparator").
fn suite_regret(kernels: &mut Vec<KernelStats>, budget: Duration) {
    use fedl_core::objective::{FracDecision, OneShot};
    use fedl_core::regret::RegretTracker;
    use fedl_linalg::rng::{rng_for, Rng};
    use fedl_sim::EpochReport;

    let (k, n) = (80, 10);
    let mut rng = rng_for(0xBED, k as u64);
    let problem = OneShot {
        ids: (0..k).collect(),
        tau: (0..k).map(|_| 0.025 * rng.gen_range(0.0f64..5.0).exp()).collect(),
        costs: (0..k).map(|_| rng.gen_range(0.1..12.0)).collect(),
        eta: (0..k).map(|_| rng.gen_range(0.1..0.95)).collect(),
        g: (0..k)
            .map(|_| if rng.gen_range(0usize..4) == 0 { 0.0 } else { rng.gen_range(-0.3..0.0) })
            .collect(),
        bonus: vec![0.0; k],
        loss_all: 1.075,
        theta: 1.0,
        min_participants: n,
        budget: 28_000.0,
        rho_max: 10.0,
    };
    let frac = FracDecision { x: vec![n as f64 / k as f64; k], rho: 2.0 };
    let report = EpochReport {
        epoch: 0,
        cohort: Vec::new(),
        iterations: 2,
        latency_secs: 0.0,
        per_client_iter_latency: Vec::new(),
        cost: 0.0,
        eta_hats: Vec::new(),
        global_loss_all: problem.loss_all,
        global_loss_selected: problem.loss_all,
        grad_dot_delta: Vec::new(),
        local_losses: Vec::new(),
        failed: Vec::new(),
    };
    let mut tracker = RegretTracker::new(k);
    tracker.record(&problem, &frac, &report); // warm
    measure_kernel(kernels, budget, "core/regret_record_80", || {
        tracker.record(std::hint::black_box(&problem), &frac, &report);
        tracker.epochs()
    });
}

/// The columnar scheduler at scale-tier populations (docs/SCALE.md):
/// one full FedL score update — dense problem assembly from the
/// population/epoch columns plus the realized-epoch fold-back,
/// everything except the one-shot solve (the `solve/` kernels time it) —
/// and RDCS rounding over a tier-sized fractional vector. The quick
/// profile measures the 10k tier; paper adds 100k and 1M.
fn suite_scale(kernels: &mut Vec<KernelStats>, budget: Duration, profile: Profile) {
    use fedl_core::columnar::scale_context;
    use fedl_core::objective::FracDecision;
    use fedl_core::online::{OnlineLearner, StepSizes};
    use fedl_linalg::rng::{rng_for, Rng};
    use fedl_net::{ChannelModel, LatencyModel};
    use fedl_sim::{ClientColumns, EnvConfig, EpochColumns, EpochReport, ScaleTier};

    let tiers: &[ScaleTier] = match profile {
        Profile::Paper => &ScaleTier::ALL,
        Profile::Quick => &[ScaleTier::Tier10k],
    };
    for &tier in tiers {
        let m = tier.num_clients();
        let config = EnvConfig::scale(tier, 0xBE9);
        let channel = ChannelModel::default();
        let cols = ClientColumns::build(&config, &channel);
        let e0 = cols.epoch_columns(0, &config, &channel);
        let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
        let n = (m / 8).max(1);
        // Epoch 0 hints from its own realization, like the runner.
        let ctx = scale_context(&cols, &e0, &e0, &latency, 1e9, n, config.seed)
            .expect("scale tiers leave someone available");
        let avail = ctx.available.len();
        let cohort: Vec<usize> = ctx.available.iter().copied().take(64).collect();
        let nc = cohort.len();
        let report = EpochReport {
            epoch: 0,
            cohort,
            iterations: 2,
            latency_secs: 0.4,
            per_client_iter_latency: vec![0.2; nc],
            cost: nc as f64,
            eta_hats: vec![0.4f32; nc],
            global_loss_all: 1.4,
            global_loss_selected: 1.3,
            grad_dot_delta: vec![-0.2f32; nc],
            local_losses: vec![1.4f32; nc],
            failed: vec![],
        };
        let frac = FracDecision { x: vec![0.1; avail], rho: 2.0 };
        let mut learner = OnlineLearner::new(m, StepSizes::fixed(0.3, 0.3), 1.0, 10.0, 0.1);
        let label = tier.label();
        measure_kernel(kernels, budget, &format!("scale/score_update_{label}"), || {
            let problem = fresh_problem(&mut learner, &ctx);
            learner.observe(&ctx, &report, &frac, &problem);
            std::hint::black_box(learner.multipliers().0)
        });

        let mut seed_rng = rng_for(0xBEA, m as u64);
        let x0: Vec<f64> = (0..m).map(|_| seed_rng.next_f64()).collect();
        let mut rng = rng_for(0xBEB, m as u64);
        measure_kernel(kernels, budget, &format!("scale/rounding_{label}"), || {
            let mut x = x0.clone();
            std::hint::black_box(rdcs(&mut x, &mut rng))
        });

        // The allocation-free time-axis realization (what a
        // `Population` does once per epoch); the warm columns keep
        // steady-state iterations heap-free, so this measures draws,
        // not malloc.
        let mut realized = EpochColumns::default();
        let mut epoch = 0usize;
        measure_kernel(kernels, budget, &format!("scale/epoch_realize_{label}"), || {
            epoch += 1;
            cols.epoch_columns_partial_into(epoch, &config, &channel, 0..m, &mut realized);
            std::hint::black_box(realized.cost[m - 1])
        });
    }
}

/// The per-epoch stages of the sharded plane on either side of the wire
/// (docs/PERF.md, "The 100k dist epoch budget"): a worker's
/// `scale_context_part` over a 10k population (walked inline) and a 100k
/// one (cut at the realize grain), and the coordinator's
/// `sanitize_decision` of an unsorted 1 000-member cohort against the
/// ≈ 80 000 available ids the 100k context holds.
fn suite_dist_stages(kernels: &mut Vec<KernelStats>, budget: Duration) {
    use fedl_core::columnar::{assemble_context, scale_context_part};
    use fedl_core::engine::sanitize_decision;
    use fedl_linalg::rng::{rng_for, Rng};
    use fedl_net::LatencyModel;
    use fedl_sim::{EnvConfig, Population, ScaleTier};

    for tier in [ScaleTier::Tier10k, ScaleTier::Tier100k] {
        let m = tier.num_clients();
        let config = EnvConfig::scale(tier, 0xBEE);
        let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
        let mut population = Population::new(config, latency);
        // Epoch 1: the hint column is a different realization.
        let lent = population.advance(1);
        let n = m / 100;
        let part = || scale_context_part(lent.cols, lent.hint, lent.now, &latency, n, 0..m, None);
        measure_kernel(kernels, budget, &format!("scale/context_part_{}", tier.label()), || {
            std::hint::black_box(part().available.len())
        });
        if tier == ScaleTier::Tier100k {
            let ctx = assemble_context(1, m, vec![part()], 1e9, n, lent.config.seed)
                .expect("scale tiers leave someone available");
            let mut rng = rng_for(0xBEF, m as u64);
            let cohort: Vec<usize> =
                (0..n).map(|_| ctx.available[rng.gen_range(0..ctx.available.len())]).collect();
            measure_kernel(kernels, budget, "core/sanitize_1k_of_80k", || {
                sanitize_decision(std::hint::black_box(&ctx), cohort.clone(), 3)
            });
        }
    }
}

/// The dist wire codec: one seeded 40 000-row `ShardContextPart` — the
/// frame each worker of the benchmark's `dist_fedavg_100k` returns every
/// epoch — through `encode_frame` and `decode_frame`, envelope checksum
/// and column checks included, together and each on its own; then the
/// envelope's body checksum on its own over that frame's 1.7 MB body,
/// beside the FNV-1a/64 it replaced.
fn suite_wire(kernels: &mut Vec<KernelStats>, budget: Duration) {
    use fedl_core::columnar::ContextPart;
    use fedl_linalg::rng::{rng_for, Rng};
    use fedl_serve::proto::{decode_frame, encode_frame, Message};
    use fedl_store::{envelope_checksum, fnv1a64};

    let rows = 40_000;
    let mut rng = rng_for(0xBED, rows as u64);
    let mut column = |lo: f64, hi: f64| (0..rows).map(|_| rng.gen_range(lo..hi)).collect();
    let part = Message::ShardContextPart {
        epoch: 3,
        part: ContextPart {
            available: (0..rows).map(|k| k + k / 4).collect(),
            costs: column(0.1, 12.0),
            latency_hint: column(0.01, 2.0),
            true_latency: column(0.01, 2.0),
            data_volumes: (0..rows).map(|k| k % 17).collect(),
        },
    };
    measure_kernel(kernels, budget, "wire/context_part_40k", || {
        let frame = encode_frame(std::hint::black_box(&part));
        decode_frame(std::hint::black_box(&frame)).expect("the frame was just encoded")
    });
    measure_kernel(kernels, budget, "wire/encode_context_part_40k", || {
        encode_frame(std::hint::black_box(&part))
    });
    let frame = encode_frame(&part);
    measure_kernel(kernels, budget, "wire/decode_context_part_40k", || {
        decode_frame(std::hint::black_box(&frame)).expect("the frame was just encoded")
    });
    let header = frame.iter().position(|&b| b == b'\n').expect("an envelope has a header line");
    let body = &frame[header + 1..];
    measure_kernel(kernels, budget, "store/envelope_checksum_1m7", || {
        envelope_checksum(std::hint::black_box(body))
    });
    measure_kernel(kernels, budget, "store/fnv1a64_1m7", || fnv1a64(std::hint::black_box(body)));
}

/// Runs the whole seeded suite and packages the snapshot.
pub fn run_suite(profile: Profile) -> BenchSnapshot {
    let budget = kernel_budget(profile);
    let profile_name = match profile {
        Profile::Paper => "paper",
        Profile::Quick => "quick",
    };
    log_line!("── perf snapshot suite ({profile_name}) ──");
    let mut kernels = Vec::new();
    suite_linalg(&mut kernels, budget, profile);
    suite_dane(&mut kernels, budget, profile);
    suite_rounding(&mut kernels, budget, profile);
    suite_decide_observe(&mut kernels, budget, profile);
    suite_regret(&mut kernels, budget);
    suite_solve(&mut kernels, budget);
    suite_scale(&mut kernels, budget, profile);
    suite_dist_stages(&mut kernels, budget);
    suite_wire(&mut kernels, budget);
    BenchSnapshot {
        schema_version: BENCH_SCHEMA_VERSION,
        profile: profile_name.to_string(),
        threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        kernels,
    }
}

/// Verdict for one kernel of a [`compare`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within noise of the baseline (or a tolerable slowdown).
    Ok,
    /// Slower than the baseline beyond both the threshold and the noise
    /// bands — fails the gate.
    Regressed,
    /// Faster than the baseline beyond the threshold and the noise
    /// bands.
    Improved,
    /// Present only in the baseline snapshot.
    OnlyBase,
    /// Present only in the new snapshot.
    OnlyNew,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::OnlyBase => "only-base",
            Verdict::OnlyNew => "only-new",
        }
    }
}

/// One row of the comparison table.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Kernel label.
    pub name: String,
    /// Baseline stats, absent for [`Verdict::OnlyNew`].
    pub base: Option<KernelStats>,
    /// New stats, absent for [`Verdict::OnlyBase`].
    pub new: Option<KernelStats>,
    /// `new.mean / base.mean` when both sides exist.
    pub ratio: Option<f64>,
    /// The noise-aware verdict.
    pub verdict: Verdict,
}

/// The result of comparing two snapshots.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-kernel rows, baseline suite order first, then new-only rows.
    pub rows: Vec<CompareRow>,
    /// Relative slowdown threshold used (e.g. `0.25` for 25 %).
    pub threshold: f64,
}

impl CompareReport {
    /// `true` when any kernel regressed (the CI gate condition).
    pub fn has_regression(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// The per-kernel comparison table.
    pub fn table(&self) -> Table {
        let side = |s: &Option<KernelStats>| match s {
            Some(k) => format!("{}±{}", timing::fmt_ns(k.mean_ns), timing::fmt_ns(k.std_ns)),
            None => "—".to_string(),
        };
        Table {
            title: "Per-kernel comparison".to_string(),
            cols: vec![
                Col::left("kernel", 34),
                Col::right("base mean±std", 22),
                Col::right("new mean±std", 22),
                Col::right("ratio", 7),
                Col::left("verdict", 0).pad(1),
            ],
            rows: self
                .rows
                .iter()
                .map(|row| {
                    vec![
                        row.name.clone(),
                        side(&row.base),
                        side(&row.new),
                        row.ratio.map_or("—".to_string(), |r| format!("{r:.2}×")),
                        row.verdict.label().to_string(),
                    ]
                })
                .collect(),
        }
    }
}

/// Noise-aware comparison of two snapshots: a kernel regresses only
/// when its mean slowed down by more than `threshold` (relative) *and*
/// the `mean ± 2·std` noise bands of the two measurements do not
/// overlap — so a noisy kernel whose bands still touch never fails the
/// gate spuriously. Kernels present on only one side are reported but
/// never gate. Snapshots of different schema versions refuse to
/// compare.
pub fn compare(
    base: &BenchSnapshot,
    new: &BenchSnapshot,
    threshold: f64,
) -> Result<CompareReport, String> {
    if base.schema_version != new.schema_version {
        return Err(format!(
            "snapshot schema versions differ: base v{}, new v{}",
            base.schema_version, new.schema_version
        ));
    }
    let mut rows = Vec::new();
    for b in &base.kernels {
        let row = match new.kernel(&b.name) {
            None => CompareRow {
                name: b.name.clone(),
                base: Some(b.clone()),
                new: None,
                ratio: None,
                verdict: Verdict::OnlyBase,
            },
            Some(n) => {
                let ratio = n.mean_ns / b.mean_ns.max(f64::MIN_POSITIVE);
                let base_hi = b.mean_ns + NOISE_BAND_STDS * b.std_ns;
                let new_lo = n.mean_ns - NOISE_BAND_STDS * n.std_ns;
                let bands_separate = new_lo > base_hi;
                let verdict = if ratio > 1.0 + threshold && bands_separate {
                    Verdict::Regressed
                } else if ratio < 1.0 / (1.0 + threshold)
                    && b.mean_ns - NOISE_BAND_STDS * b.std_ns
                        > n.mean_ns + NOISE_BAND_STDS * n.std_ns
                {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                CompareRow {
                    name: b.name.clone(),
                    base: Some(b.clone()),
                    new: Some(n.clone()),
                    ratio: Some(ratio),
                    verdict,
                }
            }
        };
        rows.push(row);
    }
    for n in &new.kernels {
        if base.kernel(&n.name).is_none() {
            rows.push(CompareRow {
                name: n.name.clone(),
                base: None,
                new: Some(n.clone()),
                ratio: None,
                verdict: Verdict::OnlyNew,
            });
        }
    }
    Ok(CompareReport { rows, threshold })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(name: &str, mean: f64, std: f64) -> KernelStats {
        KernelStats {
            name: name.to_string(),
            mean_ns: mean,
            std_ns: std,
            min_ns: mean - std,
            iters: 100,
            samples: 5,
        }
    }

    fn snapshot(kernels: Vec<KernelStats>) -> BenchSnapshot {
        BenchSnapshot {
            schema_version: BENCH_SCHEMA_VERSION,
            profile: "quick".to_string(),
            threads: 4,
            kernels,
        }
    }

    #[test]
    fn snapshot_json_round_trips() {
        let snap = snapshot(vec![stats("gemm/square_48", 1500.0, 30.0)]);
        let back = BenchSnapshot::from_json_value(&snap.to_json_value()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn identical_snapshots_pass() {
        let snap = snapshot(vec![stats("a", 1000.0, 20.0), stats("b", 5000.0, 100.0)]);
        let report = compare(&snap, &snap.clone(), 0.25).unwrap();
        assert!(!report.has_regression());
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn two_x_slowdown_regresses() {
        let base = snapshot(vec![stats("a", 1000.0, 20.0)]);
        let slowed = snapshot(vec![stats("a", 2000.0, 20.0)]);
        let report = compare(&base, &slowed, 0.25).unwrap();
        assert!(report.has_regression());
        assert_eq!(report.rows[0].verdict, Verdict::Regressed);
        assert!((report.rows[0].ratio.unwrap() - 2.0).abs() < 1e-12);
        // The same 2x in the other direction is an improvement.
        let report = compare(&slowed, &base, 0.25).unwrap();
        assert!(!report.has_regression());
        assert_eq!(report.rows[0].verdict, Verdict::Improved);
    }

    #[test]
    fn noisy_slowdown_within_bands_does_not_regress() {
        // 40% slower but with std so large the 2-sigma bands overlap:
        // noise, not a regression.
        let base = snapshot(vec![stats("a", 1000.0, 300.0)]);
        let noisy = snapshot(vec![stats("a", 1400.0, 300.0)]);
        let report = compare(&base, &noisy, 0.25).unwrap();
        assert!(!report.has_regression());
        assert_eq!(report.rows[0].verdict, Verdict::Ok);
    }

    #[test]
    fn asymmetric_kernels_are_reported_not_gated() {
        let base = snapshot(vec![stats("a", 1000.0, 10.0), stats("gone", 1.0, 0.1)]);
        let new = snapshot(vec![stats("a", 1000.0, 10.0), stats("fresh", 1.0, 0.1)]);
        let report = compare(&base, &new, 0.25).unwrap();
        assert!(!report.has_regression());
        let verdicts: Vec<(String, Verdict)> =
            report.rows.iter().map(|r| (r.name.clone(), r.verdict)).collect();
        assert!(verdicts.contains(&("gone".to_string(), Verdict::OnlyBase)));
        assert!(verdicts.contains(&("fresh".to_string(), Verdict::OnlyNew)));
        let table = report.table().text();
        assert!(table.contains("only-base") && table.contains("only-new"));
    }

    #[test]
    fn schema_version_mismatch_refuses() {
        let base = snapshot(vec![]);
        let mut new = snapshot(vec![]);
        new.schema_version = BENCH_SCHEMA_VERSION + 1;
        assert!(compare(&base, &new, 0.25).unwrap_err().contains("schema versions"));
    }

    #[test]
    fn quick_suite_covers_every_kernel_family() {
        // The quick suite is the smallest configuration; run it once
        // end-to-end.
        let snap = run_suite(Profile::Quick);
        assert_eq!(snap.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(snap.profile, "quick");
        assert!(snap.threads >= 1);
        for prefix in [
            "gemm/",
            "ml/cross_entropy_grad",
            "ml/eval_chunk",
            "ml/dane",
            "core/rdcs",
            "core/decide_observe",
            "core/regret_record",
            "solve/",
            "scale/epoch_realize",
            "scale/context_part_10k",
            "scale/context_part_100k",
            "core/sanitize",
            "wire/context_part_40k",
            "wire/encode_context_part_40k",
            "wire/decode_context_part_40k",
            "store/envelope_checksum",
            "store/fnv1a64",
        ] {
            assert!(
                snap.kernels.iter().any(|k| k.name.starts_with(prefix)),
                "suite is missing a {prefix} kernel: {:?}",
                snap.kernels.iter().map(|k| &k.name).collect::<Vec<_>>()
            );
        }
        // The kernels at the shapes the CIFAR training workload runs.
        for name in [
            "gemm/forward_16x128x96",
            "gemm/weight_grad_128x16x96",
            "gemm/head_16x96x10",
            "ml/dane_local_solve_16",
        ] {
            assert!(snap.kernels.iter().any(|k| k.name == name), "suite is missing {name}");
        }
        for k in &snap.kernels {
            assert!(k.mean_ns > 0.0 && k.min_ns > 0.0, "{} timed nothing", k.name);
            assert!(k.samples >= 3, "{} has too few samples", k.name);
        }
        // And the snapshot must survive a disk round-trip.
        let dir = std::env::temp_dir().join("fedl_perf_suite_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH.json");
        snap.write(&path).unwrap();
        let back = BenchSnapshot::read(&path).unwrap();
        assert_eq!(snap, back);
        std::fs::remove_dir_all(&dir).ok();
    }
}
