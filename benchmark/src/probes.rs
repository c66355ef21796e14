//! Probes: single calls into one layer, repeated on inputs captured
//! from (or sized like) the workload, for the layers whose cost the
//! epoch spans cannot isolate from outside.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fedl::core::objective::{FracDecision, OneShot};
use fedl::core::runner::{ModelArch, ScenarioConfig};
use fedl::data::synth::SyntheticSpec;
use fedl::linalg::rng::rng_for;
use fedl::linalg::Matrix;
use fedl::ml::dane::{local_update_scratch, DaneScratch, LocalOutcome};
use fedl::ml::model::{Mlp, Model};
use fedl::ml::ParamSet;
use fedl::net::{ChannelModel, ClientRadio, ComputeProfile, LatencyModel};
use fedl::sim::{ClientColumns, EnvConfig};
use fedl::solver::Project;
use fedl::store::fnv1a64;
use fedl_json::Value;

use crate::stats::median;

/// How long each probe repeats its call.
const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// Median seconds of one call of `f`, over as many calls as fit the
/// budget (at least five).
fn median_call_secs(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < PROBE_BUDGET {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// `OneShot::descend` from a cold anchor (every client at the `n/K`
/// prior, ρ = 1) on a problem captured mid-run, in milliseconds, and
/// one projection onto that problem's feasible set, in microseconds.
pub fn solver(problem: &OneShot, mu: &[f64], beta: f64) -> (f64, f64) {
    let k = problem.ids.len();
    let prior = (problem.effective_n() as f64 / k as f64).clamp(0.02, 0.5);
    let cold = FracDecision { x: vec![prior; k], rho: 1.0 };
    let descend_ms = 1e3
        * median_call_secs(|| {
            black_box(problem.descend(black_box(&cold), mu, beta));
        });
    // A point outside the box and over the budget, so that every set of
    // the intersection has work to do.
    let solved = problem.descend(&cold, mu, beta);
    let mut outside: Vec<f64> = solved.x.iter().map(|x| 1.5 * x + 0.1).collect();
    outside.push(solved.rho + 1.0);
    let set = problem.feasible_set();
    let mut z = outside.clone();
    let project_us = 1e6
        * median_call_secs(|| {
            z.copy_from_slice(&outside);
            set.project(black_box(&mut z));
        });
    (descend_ms, project_us)
}

/// The training workload's data set-up: `SyntheticSpec::generate` plus
/// `Partition::split`, in seconds (one call: it is a set-up cost).
pub fn data_build_secs(s: &ScenarioConfig) -> f64 {
    let t0 = Instant::now();
    let mut spec = SyntheticSpec::new(s.task, s.train_size, s.test_size, s.env.seed);
    if let Some(dim) = s.dim_override {
        spec = spec.with_dim(dim);
    }
    let (train, _test) = spec.generate();
    black_box(s.partition.split(&train, s.env.num_clients, s.env.seed));
    t0.elapsed().as_secs_f64()
}

/// `ClientColumns::build` for the workload's population, in seconds.
pub fn columns_build_secs(env: &EnvConfig) -> f64 {
    let channel = ChannelModel::default();
    median_call_secs(|| {
        black_box(ClientColumns::build(black_box(env), &channel));
    })
}

/// One client's `dane::local_update_scratch` at the scenario's model and
/// mean per-epoch shard size, in milliseconds; and `Matrix::matmul_into`
/// at that model's first hidden-layer shape, in GFLOP/s.
pub fn local_training(s: &ScenarioConfig) -> (f64, f64) {
    let ModelArch::Mlp { hidden, l2 } = &s.model else {
        panic!("the benchmark's training scenarios use MLP models");
    };
    // Clients train on the samples that arrived this epoch: Poisson with
    // a per-client mean drawn from `lambda_range`.
    let shard = ((s.env.lambda_range.0 + s.env.lambda_range.1) / 2.0).round() as usize;
    let mut spec = SyntheticSpec::new(s.task, shard, 1, s.env.seed);
    if let Some(dim) = s.dim_override {
        spec = spec.with_dim(dim);
    }
    let (data, _) = spec.generate();
    let mut rng = rng_for(s.env.seed, 0x40DE1);
    let model = Mlp::new(data.dim(), hidden, data.num_classes, *l2, &mut rng);
    let (_, j_agg) = model.loss_and_grad(&data.features, &data.one_hot_labels());
    let mut scratch = DaneScratch::new();
    let mut out = LocalOutcome {
        delta: ParamSet::new(Vec::new()),
        grad_at_w: ParamSet::new(Vec::new()),
        eta_hat: 0.0,
        loss_at_w: 0.0,
        loss_after: 0.0,
    };
    let local_solve_ms = 1e3
        * median_call_secs(|| {
            local_update_scratch(&model, &data, &j_agg, &s.dane, &mut rng, &mut scratch, &mut out);
            black_box(&out);
        });

    let (m, k, n) = (shard, data.dim(), hidden[0]);
    let a = Matrix::uniform(m, k, 1.0, &mut rng);
    let b = Matrix::uniform(k, n, 1.0, &mut rng);
    let mut c = Matrix::zeros(m, n);
    let secs = median_call_secs(|| {
        black_box(&a).matmul_into(black_box(&b), &mut c);
    });
    (local_solve_ms, 2.0 * (m * k * n) as f64 / secs / 1e9)
}

/// `LatencyModel::per_iteration_secs` over one cohort of `n` clients of
/// this population, in microseconds.
pub fn latency_model_us(env: &EnvConfig, n: usize) -> f64 {
    let channel = ChannelModel::default();
    let cols = ClientColumns::build(env, &channel);
    let n = n.min(cols.len());
    let radios: Vec<ClientRadio> = (0..n)
        .map(|k| ClientRadio {
            distance_m: cols.distance_m[k],
            tx_power_dbm: cols.tx_power_dbm,
            gain: cols.base_gain[k],
        })
        .collect();
    let computes: Vec<ComputeProfile> = (0..n)
        .map(|k| ComputeProfile { cycles_per_bit: cols.cycles_per_bit[k], cpu_hz: cols.cpu_hz[k] })
        .collect();
    let samples: Vec<usize> = (0..n).map(|k| cols.lambda[k].round() as usize).collect();
    let radio_refs: Vec<&ClientRadio> = radios.iter().collect();
    let compute_refs: Vec<&ComputeProfile> = computes.iter().collect();
    let model = LatencyModel::paper_defaults(env.upload_bits, 64.0);
    1e6 * median_call_secs(|| {
        black_box(model.per_iteration_secs(&radio_refs, &compute_refs, &samples));
    })
}

/// `Value::parse`, `Value::to_json` and `fnv1a64` over the body of one
/// encoded frame, each in MB/s.
pub fn frame_codec_mbps(frame: &[u8]) -> (f64, f64, f64) {
    let text = std::str::from_utf8(frame).expect("frames are UTF-8 envelope text");
    let body = text.split_once('\n').expect("an envelope has a header line").1;
    let mb = body.len() as f64 / 1e6;
    let value = Value::parse(body).expect("the frame body is the JSON it was encoded from");
    let parse = median_call_secs(|| {
        black_box(Value::parse(black_box(body)).expect("parsed once already"));
    });
    let render = median_call_secs(|| {
        black_box(black_box(&value).to_json());
    });
    let checksum = median_call_secs(|| {
        black_box(fnv1a64(black_box(body.as_bytes())));
    });
    (mb / parse, mb / render, mb / checksum)
}
