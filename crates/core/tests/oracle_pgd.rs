//! The projected gradient descent and the box the oracles in
//! `tests/oracle` run on, pinned on problems with known minimisers. Both
//! oracles are references the exact solves are held to ("never worse
//! than PGD"), so a broken PGD would let those checks pass trivially.

#[path = "oracle/pgd.rs"]
mod pgd;

use fedl_linalg::approx_eq_f64;
use fedl_solver::{Project, SelectionPolytope};
use pgd::{minimize, BoxSet, PgdOptions};

#[test]
fn unconstrained_quadratic_reaches_center() {
    // Large box ≈ unconstrained.
    let set = BoxSet::new(vec![-100.0; 3], vec![100.0; 3]);
    let center = [1.0, -2.0, 3.0];
    let f = |x: &[f64]| x.iter().zip(&center).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
    let g = |x: &[f64], out: &mut [f64]| {
        for i in 0..3 {
            out[i] = 2.0 * (x[i] - center[i]);
        }
    };
    let res = minimize(f, g, &set, &[0.0; 3], &PgdOptions::default());
    assert!(res.converged);
    for (xi, ci) in res.x.iter().zip(&center) {
        assert!(approx_eq_f64(*xi, *ci, 1e-6), "{:?}", res.x);
    }
    assert!(res.objective < 1e-10);
}

#[test]
fn active_box_constraint_binds() {
    let set = BoxSet::unit(2);
    // Minimize distance to (2, 0.5): optimum is (1, 0.5).
    let f = |x: &[f64]| (x[0] - 2.0f64).powi(2) + (x[1] - 0.5f64).powi(2);
    let g = |x: &[f64], out: &mut [f64]| {
        out[0] = 2.0 * (x[0] - 2.0);
        out[1] = 2.0 * (x[1] - 0.5);
    };
    let res = minimize(f, g, &set, &[0.0, 0.0], &PgdOptions::default());
    assert!(approx_eq_f64(res.x[0], 1.0, 1e-6));
    assert!(approx_eq_f64(res.x[1], 0.5, 1e-6));
}

#[test]
fn participation_row_binds() {
    // min x² + y² s.t. x + y >= 1 -> (0.5, 0.5); ρ rides along at 1.
    let costs = [1.0, 1.0];
    let set = SelectionPolytope::new(&costs, 1, 10.0, 4.0, &mut Vec::new());
    let f = |z: &[f64]| z[0] * z[0] + z[1] * z[1];
    let g = |z: &[f64], out: &mut [f64]| {
        out[0] = 2.0 * z[0];
        out[1] = 2.0 * z[1];
        out[2] = 0.0;
    };
    let res = minimize(f, g, &set, &[3.0, -1.0, 1.0], &PgdOptions::default());
    assert!(approx_eq_f64(res.x[0], 0.5, 1e-6), "{:?}", res.x);
    assert!(approx_eq_f64(res.x[1], 0.5, 1e-6), "{:?}", res.x);
}

#[test]
fn respects_iteration_cap() {
    let set = BoxSet::new(vec![-1e9], vec![1e9]);
    let f = |x: &[f64]| x[0] * x[0];
    let g = |x: &[f64], out: &mut [f64]| out[0] = 2.0 * x[0];
    let opts = PgdOptions { max_iters: 3, step0: 1e-6, ..Default::default() };
    let res = minimize(f, g, &set, &[1000.0], &opts);
    assert_eq!(res.iters, 3);
    assert!(!res.converged);
}

#[test]
fn infeasible_start_is_projected_first() {
    let set = BoxSet::unit(2);
    let f = |x: &[f64]| x[0] + x[1];
    let g = |_: &[f64], out: &mut [f64]| {
        out[0] = 1.0;
        out[1] = 1.0;
    };
    let res = minimize(f, g, &set, &[50.0, -50.0], &PgdOptions::default());
    assert!(set.contains(&res.x, 1e-9));
    // Linear objective over unit box minimized at origin.
    assert!(res.x[0] < 1e-6 && res.x[1] < 1e-6, "{:?}", res.x);
}

#[test]
fn nonsmooth_kink_converges_to_min() {
    // f = |x - 0.3| has a kink; PGD with backtracking should still stall
    // at the kink rather than oscillate forever.
    let set = BoxSet::unit(1);
    let f = |x: &[f64]| (x[0] - 0.3f64).abs();
    let g = |x: &[f64], out: &mut [f64]| out[0] = if x[0] >= 0.3 { 1.0 } else { -1.0 };
    let res = minimize(f, g, &set, &[0.9], &PgdOptions::default());
    assert!((res.x[0] - 0.3).abs() < 1e-3, "{:?}", res.x);
}

#[test]
fn box_projection_clamps() {
    let b = BoxSet::unit(3);
    let mut v = vec![-0.5, 0.5, 1.5];
    b.project(&mut v);
    assert_eq!(v, vec![0.0, 0.5, 1.0]);
    assert!(b.contains(&v, 1e-12));
}

#[test]
#[should_panic(expected = "empty box")]
fn box_rejects_inverted_bounds() {
    let _ = BoxSet::new(vec![1.0], vec![0.0]);
}
