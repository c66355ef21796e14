//! End-to-end test of the *real-dataset* code path: write images to disk
//! in the genuine IDX and CIFAR-10 binary formats, load them back
//! through the production loaders, and run a federated experiment on
//! the result — the exact flow a user with the real FMNIST/CIFAR files
//! follows.

use fedl::data::synth::{SyntheticSpec, TaskKind};
use fedl::data::{cifar, idx};
use fedl::ml::dane::DaneConfig;
use fedl::ml::model::SoftmaxRegression;
use fedl::prelude::*;
use fedl::sim::{EdgeEnvironment, EnvConfig};
use std::fs;
use std::path::PathBuf;

/// See docs/BUILD.md "Where tests live".
fn scratch_dir(test: &str) -> PathBuf {
    let binary = env!("CARGO_CRATE_NAME");
    let dir = std::env::temp_dir().join(format!("fedl-{binary}-{}-{test}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Quantizes a synthetic dataset into IDX files, reloads it, and checks
/// the round trip is faithful to u8 precision.
#[test]
fn idx_disk_round_trip_preserves_data() {
    let dir = scratch_dir("idx_round_trip");
    let (train, _) = SyntheticSpec::new(TaskKind::FmnistLike, 40, 5, 3)
        .with_dim(49) // 7x7 "images"
        .generate();

    let images = idx::IdxTensor {
        dims: vec![train.len() as u32, 7, 7],
        data: train.features.as_slice().iter().map(|&v| (v * 255.0).round() as u8).collect(),
    };
    let labels = idx::IdxTensor {
        dims: vec![train.len() as u32],
        data: train.labels.iter().map(|&l| l as u8).collect(),
    };
    idx::write_file(&dir.join("train-images-idx3-ubyte"), &images).unwrap();
    idx::write_file(&dir.join("train-labels-idx1-ubyte"), &labels).unwrap();

    let loaded = idx::load_pair(&dir, "train").unwrap();
    assert_eq!(loaded.len(), train.len());
    assert_eq!(loaded.labels, train.labels);
    for (a, b) in loaded.features.as_slice().iter().zip(train.features.as_slice()) {
        assert!((a - b).abs() <= 0.5 / 255.0 + 1e-6, "quantization exceeded: {a} vs {b}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Full federated run on a dataset that went through the CIFAR binary
/// format on disk.
#[test]
fn federated_run_on_cifar_binary_files() {
    let dir = scratch_dir("cifar_run");

    // Synthesize a CIFAR-shaped dataset and write it as one batch file.
    let (train, test) = SyntheticSpec::new(TaskKind::CifarLike, 240, 60, 5).generate();
    let to_records = |ds: &fedl::data::Dataset| -> Vec<(u8, Vec<u8>)> {
        (0..ds.len())
            .map(|r| {
                let img: Vec<u8> =
                    ds.features.row(r).iter().map(|&v| (v * 255.0).round() as u8).collect();
                (ds.labels[r] as u8, img)
            })
            .collect()
    };
    std::fs::write(dir.join("data_batch_1.bin"), cifar::serialize(&to_records(&train)).unwrap())
        .unwrap();
    let train_loaded = cifar::read_file(&dir.join("data_batch_1.bin")).unwrap();
    assert_eq!(train_loaded.len(), 240);
    assert_eq!(train_loaded.dim(), cifar::IMAGE_BYTES);

    // Drive a short federated run on the loaded data.
    let model = SoftmaxRegression::new(train_loaded.dim(), train_loaded.num_classes, 0.01);
    let mut env = EdgeEnvironment::new(
        EnvConfig::small(6, 5),
        train_loaded,
        test,
        Partition::Iid,
        Box::new(model),
        DaneConfig { local_steps: 3, batch: 16, ..Default::default() },
    );
    let mut trained = false;
    for t in 0..6 {
        let avail = env.available(t);
        if avail.len() < 2 {
            continue;
        }
        let report = env.run_epoch(t, &avail[..2], 2);
        assert!(report.latency_secs > 0.0);
        trained = true;
    }
    assert!(trained, "no epoch had enough available clients");
    assert!(env.test_accuracy().is_finite());
    std::fs::remove_dir_all(&dir).ok();
}
