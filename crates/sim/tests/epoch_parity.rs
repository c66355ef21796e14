//! The one-walk client evaluation and the one-forward test metrics against
//! what they replaced (`tests/oracle/epoch.rs`, `fedl_ml::metrics`'s two
//! separate passes): every model-dependent field of `EpochReport` equal
//! bit for bit, over seeds × dropout × cohort order × aggregation rule ×
//! model family — with the team forced to 1, 2 and 8 threads, so the
//! walk's split across the team never shows in a bit either.

#[path = "../../ml/tests/oracle/mod.rs"]
mod ml_oracle;
#[path = "oracle/epoch.rs"]
mod oracle;

use fedl_data::stream::OnlineStream;
use fedl_data::synth::SyntheticSpec;
use fedl_data::synth::TaskKind::FmnistLike;
use fedl_data::{Dataset, Partition};
use fedl_linalg::rng::rng_for;
use fedl_ml::dane::DaneConfig;
use fedl_ml::metrics;
use fedl_ml::model::{Cnn, ConvBlockSpec, MapShape, Mlp, Model, SoftmaxRegression};
use fedl_sim::server::FederatedServer;
use fedl_sim::{AggregationNorm, EdgeEnvironment, EnvConfig};
use ml_oracle::Family;

const CLIENTS: usize = 10;
const L2: f32 = 0.002;
const SEEDS: u64 = 20;

fn data(seed: u64) -> (Dataset, Dataset) {
    // 36 features: a 1×6×6 image for the CNN.
    SyntheticSpec::new(FmnistLike, 240, 60, seed).with_dim(36).generate()
}

fn model(family: Family, train: &Dataset, seed: u64) -> Box<dyn Model> {
    let mut rng = rng_for(seed, 0x0DE1);
    let (dim, classes) = (train.dim(), train.num_classes);
    match family {
        Family::Softmax => Box::new(SoftmaxRegression::new_random(dim, classes, L2, &mut rng)),
        Family::Mlp => Box::new(Mlp::new(dim, &[9], classes, L2, &mut rng)),
        Family::Cnn => Box::new(Cnn::new(
            MapShape { c: 1, h: 6, w: 6 },
            vec![ConvBlockSpec { out_channels: 2, kernel: 3 }],
            classes,
            L2,
            &mut rng,
        )),
    }
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn the_walk_reports_what_the_two_materialized_passes_reported() {
    for threads in [1, 2, 8] {
        fedl_linalg::par::force_max_threads(threads);
        sweep(threads);
    }
}

fn sweep(threads: usize) {
    let dane = DaneConfig { local_steps: 2, batch: 8, ..Default::default() };
    let mut dropped = 0usize;
    for seed in 0..SEEDS {
        for p_dropout in [0.0, 0.5] {
            for aggregation in [AggregationNorm::Available, AggregationNorm::Cohort] {
                for family in [Family::Softmax, Family::Mlp, Family::Cnn] {
                    let case = format!(
                        "{threads} threads, seed {seed} p {p_dropout} {aggregation:?} {family:?}"
                    );
                    let mut config = EnvConfig::small(CLIENTS, seed);
                    config.p_dropout = p_dropout;
                    config.aggregation = aggregation;
                    let (train, test) = data(seed);
                    let mut env = EdgeEnvironment::new(
                        config.clone(),
                        train.clone(),
                        test.clone(),
                        Partition::Iid,
                        model(family, &train, seed),
                        dane,
                    );
                    // The oracle's own copy of everything the epoch reads.
                    let mut server = FederatedServer::new(model(family, &train, seed), dane, seed);
                    let cols = env.population().columns();
                    let streams: Vec<OnlineStream> = Partition::Iid
                        .split(&train, CLIENTS, seed)
                        .into_iter()
                        .enumerate()
                        .map(|(k, pool)| OnlineStream::new(pool, cols.lambda[k], cols.seed[k]))
                        .collect();

                    for epoch in 0..2 {
                        let available = env.available(epoch);
                        if available.len() < 3 {
                            continue;
                        }
                        // The cohort as a policy may hand it over: unsorted.
                        let mut cohort: Vec<usize> = available.iter().copied().take(4).collect();
                        cohort.reverse();
                        cohort.swap(0, 1);
                        let report = env.run_epoch(epoch, &cohort, 2);
                        dropped += report.failed.len();
                        let want = oracle::run_epoch(
                            &mut server,
                            (family, L2),
                            &streams,
                            &train,
                            &available,
                            aggregation,
                            epoch,
                            &report.cohort,
                            2,
                        );
                        assert_eq!(
                            report.global_loss_all.to_bits(),
                            want.global_loss_all.to_bits(),
                            "{case} epoch {epoch}: global_loss_all"
                        );
                        assert_eq!(
                            report.global_loss_selected.to_bits(),
                            want.global_loss_selected.to_bits(),
                            "{case} epoch {epoch}: global_loss_selected"
                        );
                        assert_eq!(bits32(&report.eta_hats), bits32(&want.eta_hats), "{case}");
                        assert_eq!(
                            bits32(&report.local_losses),
                            bits32(&want.local_losses),
                            "{case}"
                        );
                        assert_eq!(
                            bits32(&report.grad_dot_delta),
                            bits32(&want.grad_dot_delta),
                            "{case}"
                        );
                        assert_eq!(env.model().params(), server.model().params(), "{case}");

                        // One forward over the test set, against the two
                        // it replaced; the views are its components.
                        let (accuracy, loss) = env.test_metrics();
                        let two_pass = (
                            metrics::accuracy(env.model(), &test),
                            ml_oracle::loss(
                                env.model(),
                                family,
                                L2,
                                &test.features,
                                &test.one_hot_labels(),
                            ) as f64,
                        );
                        assert_eq!(accuracy.to_bits(), two_pass.0.to_bits(), "{case}: accuracy");
                        assert_eq!(loss.to_bits(), two_pass.1.to_bits(), "{case}: test loss");
                        let targets = test.one_hot_labels();
                        let loss_against = metrics::loss_against(env.model(), &test, &targets);
                        assert_eq!(loss.to_bits(), loss_against.to_bits());
                        assert_eq!(env.test_accuracy().to_bits(), accuracy.to_bits());
                        assert_eq!(env.test_loss().to_bits(), loss.to_bits());
                    }
                }
            }
        }
    }
    assert!(dropped > 0, "p_dropout = 0.5 must have failed someone");
}
