//! RDCS as a direct transcription of paper Alg. 2: re-scan the whole
//! vector for fractional coordinates every round (`O(K²)`). The rounding
//! FedL ran before the Fenwick-tree `fedl_core::rounding::rdcs_with`,
//! which must draw the same RNG stream and produce the same output, bit
//! for bit, for every input (docs/SCALE.md). It lives on only as that
//! reference; nothing under `src/` uses it.

use fedl_linalg::rng::Rng;

/// Tolerance below/above which a coordinate counts as integral.
const INT_TOL: f64 = 1e-9;

fn is_fractional(v: f64) -> bool {
    v > INT_TOL && v < 1.0 - INT_TOL
}

/// Rounds `x` in place and returns the indices rounded to 1.
pub fn rdcs_reference(x: &mut [f64], rng: &mut impl Rng) -> Vec<usize> {
    for (i, &v) in x.iter().enumerate() {
        assert!(
            (-INT_TOL..=1.0 + INT_TOL).contains(&v),
            "selection fraction {v} at {i} outside [0,1]"
        );
    }
    loop {
        // Collect the currently fractional coordinates.
        let frac: Vec<usize> = (0..x.len()).filter(|&i| is_fractional(x[i])).collect();
        if frac.len() < 2 {
            break;
        }
        // Randomly choose the pair (Alg. 2 line 1).
        let a = frac[rng.gen_range(0..frac.len())];
        let b = loop {
            let cand = frac[rng.gen_range(0..frac.len())];
            if cand != a {
                break cand;
            }
        };
        let zeta1 = (1.0 - x[a]).min(x[b]);
        let zeta2 = x[a].min(1.0 - x[b]);
        debug_assert!(zeta1 > 0.0 && zeta2 > 0.0);
        if rng.gen::<f64>() < zeta2 / (zeta1 + zeta2) {
            x[a] += zeta1;
            x[b] -= zeta1;
        } else {
            x[a] -= zeta2;
            x[b] += zeta2;
        }
    }
    // Tail: at most one fractional coordinate remains.
    if let Some(i) = (0..x.len()).find(|&i| is_fractional(x[i])) {
        x[i] = if rng.gen::<f64>() < x[i] { 1.0 } else { 0.0 };
    }
    // Snap numerical residue.
    for v in x.iter_mut() {
        *v = if *v > 0.5 { 1.0 } else { 0.0 };
    }
    (0..x.len()).filter(|&i| x[i] == 1.0).collect()
}
