//! Microbenchmarks of the projection toolkit and the one-shot descent
//! step at realistic problem sizes (K ≈ number of available clients).

use fedl_bench::timing::{bench, group};
use fedl_core::objective::{FracDecision, OneShot};
use fedl_core::regret::{hindsight_optimum, HindsightScratch};
use fedl_linalg::rng::{rng_for, Rng};
use fedl_solver::SelectionPolytope;

fn problem(k: usize, seed: u64) -> OneShot {
    let mut rng = rng_for(seed, k as u64);
    OneShot {
        ids: (0..k).collect(),
        tau: (0..k).map(|_| rng.gen_range(0.01..2.0)).collect(),
        costs: (0..k).map(|_| rng.gen_range(0.1..12.0)).collect(),
        eta: (0..k).map(|_| rng.gen_range(0.1..0.9)).collect(),
        g: (0..k).map(|_| rng.gen_range(-1.0..0.1)).collect(),
        bonus: vec![0.0; k],
        loss_all: 1.8,
        theta: 1.0,
        min_participants: (k / 8).max(2),
        budget: 500.0,
        rho_max: 10.0,
    }
}

fn bench_projections() {
    group("projection");
    for &k in &[16usize, 64, 128, 1024] {
        let mut rng = rng_for(3, k as u64);
        let costs: Vec<f64> = (0..k).map(|_| rng.gen_range(0.1..12.0)).collect();
        let v: Vec<f64> = (0..k).map(|_| rng.gen_range(-1.0..2.0)).collect();
        let n = (k / 8).max(2);
        let mut sorted = Vec::new();
        // A budget nothing reaches (participation row at most) and one a
        // third of what the point would spend (both rows in play).
        for (label, budget) in [("loose", 1e9), ("tight", 2.0 * k as f64)] {
            let set = SelectionPolytope::new(&costs, n, budget, 10.0, &mut sorted);
            bench(&format!("polytope_{label}/{k}"), || {
                let mut x = v.clone();
                set.project_selection(&mut x);
                std::hint::black_box(x)
            });
        }
    }
}

fn bench_descent() {
    group("one_shot_descent");
    for &k in &[20usize, 80] {
        let p = problem(k, 7);
        let anchor = FracDecision { x: vec![0.2; k], rho: 2.0 };
        let mu = vec![0.5; k + 1];
        bench(&format!("descend/{k}"), || std::hint::black_box(p.descend(&anchor, &mu, 0.3)));
        let mut scratch = HindsightScratch::default();
        let mut star = FracDecision { x: Vec::new(), rho: 1.0 };
        bench(&format!("hindsight/{k}"), || {
            std::hint::black_box(hindsight_optimum(&p, &mut scratch, &mut star))
        });
    }
}

fn main() {
    bench_projections();
    bench_descent();
}
