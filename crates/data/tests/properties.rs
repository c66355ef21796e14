//! Property-style tests for the data substrate: format round-trips and
//! partition invariants, driven by seeded RNG loops (the offline
//! replacement for proptest — every case derives from a fixed seed).

use fedl_data::synth::{SyntheticSpec, TaskKind};
use fedl_data::{cifar, idx, Partition};
use fedl_linalg::rng::{rng_for, Rng};
use TaskKind::{CifarLike, FmnistLike};

const CASES: u64 = 48;

#[test]
fn idx_round_trips_arbitrary_tensors() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 0x1D);
        let ndims = rng.gen_range(1..4usize);
        let dims: Vec<u32> = (0..ndims).map(|_| rng.gen_range(1..6u32)).collect();
        let fill = (rng.next_u64() & 0xFF) as u8;
        let total: usize = dims.iter().map(|&d| d as usize).product();
        let t = idx::IdxTensor { dims: dims.clone(), data: vec![fill; total] };
        let bytes = idx::serialize(&t);
        let back = idx::parse(&bytes).unwrap();
        assert_eq!(t, back);
    }
}

#[test]
fn idx_rejects_any_truncation() {
    let t = idx::IdxTensor { dims: vec![2, 3], data: (0..6).collect() };
    let full = idx::serialize(&t);
    for cut in 1..full.len() {
        let mut bytes = full.clone();
        bytes.truncate(full.len() - cut);
        assert!(idx::parse(&bytes).is_err(), "truncation by {cut} must fail");
    }
}

#[test]
fn cifar_round_trips() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 0xC1F);
        let n = rng.gen_range(1..5usize);
        let labels: Vec<u8> = (0..n).map(|_| rng.gen_range(0..10u32) as u8).collect();
        let recs: Vec<(u8, Vec<u8>)> =
            labels.iter().map(|&l| (l, vec![l.wrapping_mul(25); cifar::IMAGE_BYTES])).collect();
        let bytes = cifar::serialize(&recs).unwrap();
        let ds = cifar::parse(&bytes).unwrap();
        assert_eq!(ds.len(), labels.len());
        let parsed: Vec<u8> = ds.labels.iter().map(|&l| l as u8).collect();
        assert_eq!(parsed, labels);
    }
}

#[test]
fn iid_partition_is_exact_cover() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 0x11D);
        let clients = rng.gen_range(1..12usize);
        let n = rng.gen_range(20..80usize);
        let (train, _) =
            SyntheticSpec::new(TaskKind::FmnistLike, n, 1, seed).with_dim(4).generate();
        let pools = Partition::Iid.split(&train, clients, seed);
        let mut all: Vec<usize> = pools.iter().flatten().copied().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..n).collect();
        assert_eq!(all, expect);
    }
}

#[test]
fn principal_mix_pools_have_requested_size() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 0x913);
        let clients = rng.gen_range(1..8usize);
        let frac = rng.gen_range(0.1f64..1.0);
        let (train, _) =
            SyntheticSpec::new(TaskKind::FmnistLike, 120, 1, seed).with_dim(4).generate();
        let pools = Partition::PrincipalMix { principal_frac: frac }.split(&train, clients, seed);
        let per_client = 120 / clients;
        for pool in &pools {
            assert_eq!(pool.len(), per_client);
            assert!(pool.iter().all(|&i| i < train.len()));
        }
    }
}

#[test]
fn streams_are_deterministic_and_in_range() {
    for seed in 0..CASES {
        let mut rng = rng_for(seed, 0x57E);
        let lambda = rng.gen_range(1.0f64..30.0);
        let epoch = rng.gen_range(0..200usize);
        let stream = fedl_data::stream::OnlineStream::new((0..40).collect(), lambda, seed);
        let a = stream.arrivals(epoch);
        let b = stream.arrivals(epoch);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|&i| i < 40));
    }
}

/// One split's bytes: the features as little-endian `f32`s, then the
/// labels as little-endian `u64`s, under the store's envelope checksum.
fn split_digest(ds: &fedl_data::Dataset) -> u64 {
    let mut bytes: Vec<u8> = ds.features.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    bytes.extend(ds.labels.iter().flat_map(|&l| (l as u64).to_le_bytes()));
    fedl_store::envelope_checksum(&bytes)
}

/// `(task, dim override, seed, train rows, test rows)` and the digests of
/// the train and test splits `generate` draws for it. Odd dims leave a
/// Box–Muller spare at every other row boundary; a test size of 0 leaves
/// the test split empty. The digests pin how the noise is drawn: the
/// sampler's bits, its draw order and the spare carried across rows.
#[allow(clippy::type_complexity)]
const DATA_GOLDEN: [(TaskKind, Option<usize>, u64, usize, usize, [u64; 2]); 36] = [
    (FmnistLike, Some(1), 7, 41, 0, [0xd2b77d185e8231c4, 0x75fc8631a76662c2]),
    (FmnistLike, Some(1), 11, 37, 13, [0x798361c72519a537, 0x2ff29cf47db9422c]),
    (FmnistLike, Some(1), 29, 40, 6, [0x0699379c1d54a453, 0x0fc615e447d67751]),
    (FmnistLike, Some(3), 7, 41, 0, [0x81dc1a6e33925536, 0x75fc8631a76662c2]),
    (FmnistLike, Some(3), 11, 37, 13, [0x9e49f315ac5924d6, 0x30ffe8e6e715cba2]),
    (FmnistLike, Some(3), 29, 40, 6, [0x616e5715045a1b3d, 0xc0d4433a9ab0e69f]),
    (FmnistLike, Some(7), 7, 41, 0, [0x54b89dd979ad6167, 0x75fc8631a76662c2]),
    (FmnistLike, Some(7), 11, 37, 13, [0xbae290b63c08b24f, 0xf09fc48cda65b450]),
    (FmnistLike, Some(7), 29, 40, 6, [0x26f03a63c7411925, 0x7bb55b4257a4dd3d]),
    (FmnistLike, Some(64), 7, 41, 0, [0x82d7b31def946d2a, 0x75fc8631a76662c2]),
    (FmnistLike, Some(64), 11, 37, 13, [0xd87d0e49a1e5ed0b, 0x9497b53714b6ebc4]),
    (FmnistLike, Some(64), 29, 40, 6, [0x27e2d10c9b6e9f31, 0x3e88735fae1c1277]),
    (FmnistLike, Some(128), 7, 41, 0, [0xb89c62af2e2a3c28, 0x75fc8631a76662c2]),
    (FmnistLike, Some(128), 11, 37, 13, [0x819e22151fe2e98c, 0x11cbdd596213d8fd]),
    (FmnistLike, Some(128), 29, 40, 6, [0x2dd7ca1ad45ac892, 0xdb2c7b59d76aeba6]),
    (FmnistLike, None, 7, 9, 0, [0x32e63dcd54662cab, 0x75fc8631a76662c2]),
    (FmnistLike, None, 11, 7, 3, [0xac89bea5ef5203d1, 0x7063b4ae312cc495]),
    (FmnistLike, None, 29, 8, 2, [0xff821ad72c25c910, 0x92cd571a331ac811]),
    (CifarLike, Some(1), 7, 41, 0, [0x3d2d9120c25d20b0, 0x75fc8631a76662c2]),
    (CifarLike, Some(1), 11, 37, 13, [0xaec801ae5f0c37b9, 0x91f8ac6e25adecb0]),
    (CifarLike, Some(1), 29, 40, 6, [0xc5222c8acdb83f5a, 0xc2381fc5dc7eecaf]),
    (CifarLike, Some(3), 7, 41, 0, [0x1cb81102f7f95010, 0x75fc8631a76662c2]),
    (CifarLike, Some(3), 11, 37, 13, [0xcd830f274f190255, 0x3f263d471ff3a35d]),
    (CifarLike, Some(3), 29, 40, 6, [0x6fbd487cbe74649c, 0xfc1e04ec27e86c6b]),
    (CifarLike, Some(7), 7, 41, 0, [0xa06c394e29e69973, 0x75fc8631a76662c2]),
    (CifarLike, Some(7), 11, 37, 13, [0x47bb3577eff52291, 0xbb93603aed960597]),
    (CifarLike, Some(7), 29, 40, 6, [0x783d317775277d77, 0x0f974e86e786b68d]),
    (CifarLike, Some(64), 7, 41, 0, [0x6a1578e87b023440, 0x75fc8631a76662c2]),
    (CifarLike, Some(64), 11, 37, 13, [0xd4db7725578fbf38, 0xf41f423a2f1e8cf8]),
    (CifarLike, Some(64), 29, 40, 6, [0x16a720b695904f43, 0x12fcffaf096a977d]),
    (CifarLike, Some(128), 7, 41, 0, [0x5e33a34d6a4db31a, 0x75fc8631a76662c2]),
    (CifarLike, Some(128), 11, 37, 13, [0x676fa8e7cbcf82d8, 0x065f57a328e2c7b8]),
    (CifarLike, Some(128), 29, 40, 6, [0xd18b25b70e6983fd, 0xbf4b6f3647130f05]),
    (CifarLike, None, 7, 9, 0, [0x46d1bbc9e6a1e477, 0x75fc8631a76662c2]),
    (CifarLike, None, 11, 7, 3, [0xd4c451aa6898a23c, 0xf67d8d327115bf5b]),
    (CifarLike, None, 29, 8, 2, [0xc76c723c5db114a2, 0x282dc8f59502035f]),
];

#[test]
fn synthetic_datasets_match_their_pinned_digests() {
    let mut got = Vec::new();
    for &(task, dim, seed, train, test, _) in &DATA_GOLDEN {
        let mut spec = SyntheticSpec::new(task, train, test, seed);
        if let Some(dim) = dim {
            spec = spec.with_dim(dim);
        }
        let (a, b) = spec.generate();
        assert_eq!((a.len(), a.dim(), b.len(), b.dim()), (train, spec.dim(), test, spec.dim()));
        got.push([split_digest(&a), split_digest(&b)]);
    }
    let want: Vec<[u64; 2]> = DATA_GOLDEN.iter().map(|case| case.5).collect();
    if got != want {
        for (case, got) in DATA_GOLDEN.iter().zip(&got) {
            let (task, dim, seed, train, test, _) = case;
            eprintln!(
                "    ({task:?}, {dim:?}, {seed}, {train}, {test}, [{:#018x}, {:#018x}]),",
                got[0], got[1]
            );
        }
        panic!("synthetic data digests changed");
    }
}
