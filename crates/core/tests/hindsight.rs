//! The regret tracker's hindsight comparator (`regret::hindsight_optimum`)
//! pinned by being right: on small instances its Ψ equals the optimum of
//! an independent dense LP of the `(z, ρ)` form; its answer is always in
//! the feasible set; degenerate inputs are exact too; and a non-finite
//! coefficient reads as a NaN `f*`, not a panic. (That it is never above
//! the three-start penalty PGD it replaced, `oracle::hindsight_pgd`, on
//! instances recorded from served runs is checked in the root
//! `tests/exhaustion_tail.rs`, which has the served loop.)

mod oracle;

use fedl_core::objective::{FracDecision, OneShot};
use fedl_core::regret::{hindsight_optimum, HindsightScratch, RegretTracker};
use fedl_linalg::rng::{rng_for, Rng, Xoshiro256pp};
use fedl_sim::EpochReport;

/// Penalty weight of Ψ (the comparator's `H_PENALTY`).
const PENALTY: f64 = 1e3;

/// `min c·v` over `{A v ≤ b, v ≥ 0}` by a dense two-phase simplex with
/// Bland's rule (no cycling). Rows with a negative right-hand side get an
/// artificial variable; phase 1 drives those to zero.
fn simplex(c: &[f64], a: &[Vec<f64>], b: &[f64]) -> f64 {
    const EPS: f64 = 1e-11;
    let (m, nv) = (a.len(), c.len());
    let arts: Vec<usize> = (0..m).filter(|&i| b[i] < 0.0).collect();
    let cols = nv + m + arts.len();
    let mut t = vec![vec![0.0; cols + 1]; m];
    let mut basis = vec![0; m];
    for i in 0..m {
        let sign = if b[i] < 0.0 { -1.0 } else { 1.0 };
        for j in 0..nv {
            t[i][j] = sign * a[i][j];
        }
        t[i][nv + i] = sign;
        t[i][cols] = sign * b[i];
        basis[i] = nv + i;
    }
    for (r, &i) in arts.iter().enumerate() {
        t[i][nv + m + r] = 1.0;
        basis[i] = nv + m + r;
    }
    let pivot = |t: &mut Vec<Vec<f64>>, r: usize, j: usize| {
        let p = t[r][j];
        for v in t[r].iter_mut() {
            *v /= p;
        }
        let row = t[r].clone();
        for (i, ti) in t.iter_mut().enumerate() {
            let f = ti[j];
            if i != r && f != 0.0 {
                for (v, rv) in ti.iter_mut().zip(&row) {
                    *v -= f * rv;
                }
            }
        }
    };
    // Runs the simplex on `cost` with entering columns `0..allowed`;
    // returns the objective.
    let run = |t: &mut Vec<Vec<f64>>, basis: &mut Vec<usize>, cost: &[f64], allowed: usize| loop {
        let reduced = |j: usize| cost[j] - (0..m).map(|i| cost[basis[i]] * t[i][j]).sum::<f64>();
        let Some(j) = (0..allowed).find(|&j| reduced(j) < -EPS) else {
            return (0..m).map(|i| cost[basis[i]] * t[i][cols]).sum::<f64>();
        };
        let mut leave: Option<(f64, usize, usize)> = None;
        for i in 0..m {
            if t[i][j] > EPS {
                let ratio = t[i][cols] / t[i][j];
                let better = match leave {
                    None => true,
                    Some((r, _, bi)) => ratio < r - EPS || (ratio <= r + EPS && basis[i] < bi),
                };
                if better {
                    leave = Some((ratio, i, basis[i]));
                }
            }
        }
        let (_, r, _) = leave.expect("the LP is bounded");
        pivot(t, r, j);
        basis[r] = j;
    };
    let mut phase1 = vec![0.0; cols];
    for r in 0..arts.len() {
        phase1[nv + m + r] = 1.0;
    }
    let infeasibility = run(&mut t, &mut basis, &phase1, cols);
    assert!(infeasibility.abs() < 1e-9, "phase 1 left {infeasibility}");
    // Artificials still basic sit at zero: pivot them out where a real
    // column can take their row.
    for i in 0..m {
        if basis[i] >= nv + m {
            if let Some(j) = (0..nv + m).find(|&j| t[i][j].abs() > EPS) {
                pivot(&mut t, i, j);
                basis[i] = j;
            }
        }
    }
    let mut phase2 = c.to_vec();
    phase2.resize(cols, 0.0);
    run(&mut t, &mut basis, &phase2, nv + m)
}

/// min Ψ as one LP in `v = (z, ρ, s⁰, s¹ … s^K)`: `τ·z + 10³(s⁰ + Σsᵏ)`
/// with `s⁰ ≥ F − θ + g·z/|E|`, `sᵏ ≥ η̂ₖzₖ − ρ + 1`, `zₖ ≤ ρ`, `Σz ≥ nρ`,
/// `Σc·z ≤ cap·ρ`, `1 ≤ ρ ≤ ρ_max`.
fn lp_optimum(p: &OneShot) -> f64 {
    let k = p.ids.len();
    let (rho, s0) = (k, k + 1);
    let nv = 2 * k + 2;
    let n = p.effective_n() as f64;
    let cap = p.feasible_set().cap();
    let mut c = vec![0.0; nv];
    c[..k].copy_from_slice(&p.tau);
    c[s0..].iter_mut().for_each(|v| *v = PENALTY);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut row = |entries: &[(usize, f64)], rhs: f64| {
        let mut r = vec![0.0; nv];
        for &(j, v) in entries {
            r[j] += v;
        }
        a.push(r);
        b.push(rhs);
    };
    for i in 0..k {
        row(&[(i, 1.0), (rho, -1.0)], 0.0);
        row(&[(i, p.eta[i]), (rho, -1.0), (s0 + 1 + i, -1.0)], -1.0);
    }
    let all = |v: &dyn Fn(usize) -> f64, extra: (usize, f64)| -> Vec<(usize, f64)> {
        (0..k).map(|i| (i, v(i))).chain(std::iter::once(extra)).collect()
    };
    row(&all(&|_| -1.0, (rho, n)), 0.0);
    if cap.is_finite() {
        row(&all(&|i| p.costs[i], (rho, -cap)), 0.0);
    }
    row(&all(&|i| p.g[i] / k as f64, (s0, -1.0)), p.theta - p.loss_all);
    row(&[(rho, 1.0)], p.rho_max);
    row(&[(rho, -1.0)], -1.0);
    simplex(&c, &a, &b)
}

/// The comparator's answer, checked feasible, with Ψ there.
fn solve(p: &OneShot, scratch: &mut HindsightScratch, what: &str) -> (FracDecision, f64) {
    let mut star = FracDecision { x: Vec::new(), rho: f64::NAN };
    let reported = hindsight_optimum(p, scratch, &mut star);
    assert!(oracle::feasible(p, &star, 1e-9), "{what}: infeasible answer {star:?}");
    let psi = oracle::penalised(p, &star.x, star.rho);
    assert!(
        (reported - psi).abs() <= 1e-9 * (1.0 + psi.abs()),
        "{what}: reported Ψ {reported} but Ψ at the answer is {psi}"
    );
    (star, psi)
}

fn assert_matches_lp(p: &OneShot, scratch: &mut HindsightScratch, what: &str) {
    let (_, psi) = solve(p, scratch, what);
    let lp = lp_optimum(p);
    assert!((psi - lp).abs() <= 1e-9 * (1.0 + lp.abs()), "{what}: Ψ {psi} vs LP {lp}\n{p:?}");
}

/// `K ≤ 6` instances over every regime the comparator branches on: h⁰
/// slack, violated or balanced by the loss row's multiplier; kinks inside
/// and outside the box; a loose, a binding and an unaffordable budget;
/// ties in cost; ρ_max = 1.
fn small_instance(rng: &mut Xoshiro256pp) -> OneShot {
    let k = rng.gen_range(1usize..7);
    let tied = rng.gen_range(0usize..4) == 0;
    let costs: Vec<f64> = (0..k)
        .map(|_| {
            if tied {
                [1.0, 2.5, 4.0][rng.gen_range(0usize..3)]
            } else {
                rng.gen_range(0.1..12.0)
            }
        })
        .collect();
    let n = rng.gen_range(1..=k);
    let mut sorted = costs.clone();
    sorted.sort_by(f64::total_cmp);
    let floor: f64 = sorted[..n].iter().sum();
    let budget = match rng.gen_range(0usize..3) {
        0 => 1e9,
        1 => floor + rng.gen_range(0.0..1.0) * (sorted.iter().sum::<f64>() - floor),
        _ => floor * rng.gen_range(0.0..1.0),
    };
    let eta = |rng: &mut Xoshiro256pp| {
        if rng.gen_range(0usize..5) == 0 {
            0.0
        } else {
            rng.gen_range(0.0..0.95)
        }
    };
    let g = |rng: &mut Xoshiro256pp| {
        if rng.gen_range(0usize..5) == 0 {
            0.0
        } else {
            rng.gen_range(-1.5..0.3)
        }
    };
    OneShot {
        ids: (0..k).collect(),
        tau: (0..k).map(|_| rng.gen_range(0.01..2.0)).collect(),
        costs,
        eta: (0..k).map(|_| eta(rng)).collect(),
        g: (0..k).map(|_| g(rng)).collect(),
        bonus: vec![0.0; k],
        loss_all: rng.gen_range(0.1..2.5),
        theta: rng.gen_range(0.3..1.5),
        min_participants: n,
        budget,
        rho_max: if rng.gen_range(0usize..8) == 0 { 1.0 } else { rng.gen_range(1.0..10.0) },
    }
}

#[test]
fn psi_equals_a_dense_lp_on_small_instances() {
    let mut scratch = HindsightScratch::default();
    let (mut balanced, mut budgeted, mut kinked) = (0, 0, 0);
    for case in 0..600 {
        let p = small_instance(&mut rng_for(case, 0x41D5));
        assert_matches_lp(&p, &mut scratch, &format!("case {case}"));
        // Which rows the answer sits on, so the sample is known to reach
        // every branch of the solve.
        let (star, _) = solve(&p, &mut scratch, "again");
        let mut h = Vec::new();
        p.h_value_into(&star.x, star.rho, &mut h);
        let spend: f64 = star.x.iter().zip(&p.costs).map(|(x, c)| x * c).sum();
        let cap = p.feasible_set().cap();
        balanced += usize::from(h[0].abs() <= 1e-9 && p.loss_all > p.theta);
        budgeted += usize::from(spend >= cap - 1e-9);
        kinked += usize::from(h[1..].iter().any(|hk| hk.abs() <= 1e-9) && star.rho > 1.0);
    }
    eprintln!("h⁰ balanced on {balanced}, budget row binding on {budgeted}, a kink met on {kinked} of 600");
    assert!(balanced >= 30 && budgeted >= 30 && kinked >= 30);
}

#[test]
fn degenerate_inputs_are_exact() {
    let base = OneShot {
        ids: vec![0, 1, 2, 3, 4],
        tau: vec![0.4, 1.2, 0.3, 2.0, 0.9],
        costs: vec![3.0, 1.0, 6.0, 0.5, 2.0],
        eta: vec![0.3, 0.7, 0.5, 0.9, 0.2],
        g: vec![-0.6, -0.1, -0.9, -0.2, -0.4],
        bonus: vec![0.0; 5],
        loss_all: 1.4,
        theta: 1.0,
        min_participants: 2,
        budget: 100.0,
        rho_max: 6.0,
    };
    let with = |f: &dyn Fn(&mut OneShot)| {
        let mut p = base.clone();
        f(&mut p);
        p
    };
    let cases: Vec<(&str, OneShot)> = vec![
        ("base", base.clone()),
        ("n = K", with(&|p| p.min_participants = 5)),
        ("η̂ = 0", with(&|p| p.eta = vec![0.0; 5])),
        ("one η̂ = 0", with(&|p| p.eta[2] = 0.0)),
        ("g = 0", with(&|p| p.g = vec![0.0; 5])),
        ("ρ_max = 1", with(&|p| p.rho_max = 1.0)),
        ("budget at the floor", with(&|p| p.budget = 1.5)),
        ("budget below the floor", with(&|p| p.budget = 0.2)),
        ("budget NaN", with(&|p| p.budget = f64::NAN)),
        ("budget +∞", with(&|p| p.budget = f64::INFINITY)),
        ("F ≤ θ", with(&|p| p.loss_all = 0.5)),
        ("F = θ", with(&|p| p.loss_all = 1.0)),
        ("F ≫ θ", with(&|p| p.loss_all = 1e4)),
        ("F ≫ θ, ρ_max = 1", with(&|p| (p.loss_all, p.rho_max) = (1e4, 1.0))),
        ("one client", {
            let mut p = base.clone();
            for v in [&mut p.tau, &mut p.costs, &mut p.eta, &mut p.g, &mut p.bonus] {
                v.truncate(1);
            }
            p.ids.truncate(1);
            p
        }),
        ("equal costs, n = K − 1", with(&|p| (p.costs, p.min_participants) = (vec![2.0; 5], 4))),
        ("zero costs", with(&|p| (p.costs, p.budget) = (vec![0.0; 5], 0.0))),
        ("h⁰ balanced inside", with(&|p| (p.loss_all, p.g) = (1.2, vec![-0.3; 5]))),
    ];
    let mut scratch = HindsightScratch::default();
    for (what, p) in &cases {
        assert_matches_lp(p, &mut scratch, what);
    }
    // The participation floor forces everyone in at n = K.
    let (star, _) = solve(&cases[1].1, &mut scratch, "n = K");
    assert!(star.x.iter().all(|&x| x == 1.0), "{star:?}");
    // Nothing to choose over ρ at ρ_max = 1.
    let (star, _) = solve(&cases[5].1, &mut scratch, "ρ_max = 1");
    assert_eq!(star.rho, 1.0);
}

#[test]
fn a_non_finite_coefficient_is_a_nan_f_star_not_a_panic() {
    let p = small_instance(&mut rng_for(7, 0x41D5));
    let mut scratch = HindsightScratch::default();
    let mut star = FracDecision { x: Vec::new(), rho: 1.0 };
    let poisons: [&dyn Fn(&mut OneShot); 5] = [
        &|p| p.tau[0] = f64::NAN,
        &|p| p.eta[0] = f64::INFINITY,
        &|p| p.g[0] = f64::NEG_INFINITY,
        &|p| p.costs[0] = f64::NAN,
        &|p| p.loss_all = f64::INFINITY,
    ];
    for poison in poisons {
        let mut bad = p.clone();
        poison(&mut bad);
        assert!(hindsight_optimum(&bad, &mut scratch, &mut star).is_nan());
        assert!(star.x.iter().all(|x| x.is_nan()) && star.rho.is_nan());
        assert!(bad.f_value(&star.x, star.rho).is_nan());
        // The same buffers still solve a clean instance afterwards.
        assert_matches_lp(&p, &mut scratch, "after a poisoned instance");
    }

    // Through the tracker: a realized NaN local accuracy is recorded as
    // a NaN f*.
    let k = p.ids.len();
    let mut tracker = RegretTracker::new(k);
    let report = EpochReport {
        epoch: 0,
        cohort: vec![0],
        iterations: 1,
        latency_secs: 1.0,
        per_client_iter_latency: vec![0.3],
        cost: p.costs[0],
        eta_hats: vec![f32::NAN],
        global_loss_all: 1.0,
        global_loss_selected: 1.0,
        grad_dot_delta: vec![-0.1],
        local_losses: vec![1.0],
        failed: vec![],
    };
    tracker.record(&p, &FracDecision { x: vec![1.0; k], rho: 1.0 }, &report);
    assert!(tracker.f_hindsight()[0].is_nan());
}
