//! Microbenchmarks of the online rounding algorithms (RDCS vs
//! independent) across cohort sizes.

use fedl_bench::timing::{bench, group};
use fedl_core::rounding::{self, RdcsScratch};
use fedl_linalg::rng::{rng_for, Rng};

fn rdcs(x: &mut [f64], rng: &mut impl Rng) -> Vec<usize> {
    let mut selected = Vec::new();
    rounding::rdcs_with(x, rng, &mut RdcsScratch::new(), &mut selected);
    selected
}

fn bench_rounding() {
    group("rounding");
    for &k in &[10usize, 100, 1000] {
        let mut seed_rng = rng_for(11, k as u64);
        let x0: Vec<f64> = (0..k).map(|_| seed_rng.next_f64()).collect();
        let mut rng = rng_for(12, k as u64);
        bench(&format!("rdcs/{k}"), || {
            let mut x = x0.clone();
            std::hint::black_box(rdcs(&mut x, &mut rng))
        });
        let mut rng = rng_for(13, k as u64);
        bench(&format!("independent/{k}"), || {
            let mut x = x0.clone();
            std::hint::black_box(rounding::independent(&mut x, &mut rng))
        });
    }
}

fn bench_repair() {
    group("repair");
    for &k in &[10usize, 100, 1000] {
        let mut rng = rng_for(14, k as u64);
        let costs: Vec<f64> = (0..k).map(|_| rng.gen_range(0.1..12.0)).collect();
        let selected: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.5)).collect();
        bench(&format!("repair/{k}"), || {
            let mut sel = selected.clone();
            rounding::repair(&mut sel, &costs, k / 10 + 1, k as f64);
            std::hint::black_box(sel)
        });
    }
}

fn main() {
    bench_rounding();
    bench_repair();
}
