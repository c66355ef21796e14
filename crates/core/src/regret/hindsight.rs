//! The per-epoch hindsight comparator `Φ̃_t*`: the exact minimiser of the
//! penalised objective
//!
//! ```text
//! Ψ(x, ρ) = f_t(x, ρ) + 10³·Σᵢ [hᵢ(x, ρ)]⁺
//! ```
//!
//! over the selection polytope × `[1, ρ_max]`, with the epoch's realized
//! coefficients in place of the estimates.
//!
//! **One convex problem.** Substituting `z = ρx` makes every term linear:
//! `f = τ·z`, `h⁰ = F − θ + g·z/|E|`, `hᵏ = η̂ₖzₖ − ρ + 1`, and the rows
//! read `0 ≤ zₖ ≤ ρ`, `Σz ≥ nρ`, `Σc·z ≤ cap·ρ`. So minimising Ψ is one
//! linear program in `(z, ρ)`, and `V(ρ) = min_x Ψ(x, ρ)` is convex and
//! piecewise linear in ρ. The solve is a search over ρ around an exact
//! solve at fixed ρ:
//!
//! * **Fixed ρ.** Ψ is separable and piecewise linear in x. Client k costs
//!   `ρτₖ` per unit up to its kink `uₖ = (ρ−1)/(η̂ₖρ)` and `10³ρη̂ₖ` more
//!   beyond it. The `h⁰` penalty is one row, dualised by `γ ∈ [0, 10³]`,
//!   and the budget row by `ν ≥ 0`. For given `(γ, ν)` the minimiser over
//!   `[0,1]^K ∩ {Σx ≥ n}` is a greedy: every piece of negative price, then
//!   the cheapest pieces up to `n` units. Each multiplier is first tried
//!   at the ends of its range (`γ = 0`, `γ = 10³`, `ν = 0`); otherwise its
//!   concave dual is maximised by [`Cuts`], and the minimisers at the two
//!   ends of the last bracket are mixed so that the row holds with
//!   equality — the primal point that multiplier certifies.
//! * **Over ρ.** With those multipliers and `πₖ ∈ [0, 10³]`, the
//!   multiplier of client k's kink, `τ·x + γ·g·x/|E| + Σₖ πₖ(η̂ₖxₖ − 1)`
//!   is a subgradient of V at ρ, and [`Cuts`] minimises V the same way.
//!
//! Every search ends after finitely many steps on a piecewise-linear
//! function, and each is also capped. Sums are sequential left folds, and
//! nothing is allocated once [`HindsightScratch`] is warm.

use std::mem::swap;

use super::H_PENALTY;
use crate::objective::{FracDecision, OneShot};

/// Relative slack within which a row is met and a supporting line touches
/// the function it bounds.
const TOL: f64 = 1e-12;

/// Probes allowed to each search. Every probe either ends its search or
/// finds a new linear piece, so the cap binds only where rounding blurs
/// two pieces together.
const MAX_STEPS: usize = 100;

/// Reusable buffers of [`hindsight_optimum`].
#[derive(Debug, Clone, Default)]
pub struct HindsightScratch {
    /// Partially sorted costs (the cheapest-`n` floor).
    sorted: Vec<f64>,
    prices: Prices,
    /// The greedy's pieces: price, then piece index.
    order: Vec<(f64, u32)>,
    nu: Bracket,
    gamma: Bracket,
    /// The minimiser at the ρ being probed, and the best one so far.
    probe: Vec<f64>,
    best: Vec<f64>,
}

/// Per client at one ρ: the two pieces of its cost.
#[derive(Debug, Clone, Default)]
struct Prices {
    /// Length of the cheap piece: the kink `uₖ` clamped to `[0, 1]`.
    cheap: Vec<f64>,
    /// `ρτₖ`: the price of a unit of the cheap piece.
    rate: Vec<f64>,
    /// `10³ρη̂ₖ`: what a unit past the kink adds (0 without a kink).
    steep: Vec<f64>,
    /// `ρgₖ/|E|`: how a unit moves h⁰.
    pull: Vec<f64>,
}

/// The minimisers at a multiplier search's bracket ends and at its probe.
#[derive(Debug, Clone, Default)]
struct Bracket {
    lo: Vec<f64>,
    hi: Vec<f64>,
    at: Vec<f64>,
}

/// A selection and what the searches read off it.
#[derive(Debug, Clone, Copy)]
struct Point {
    /// Ψ without the h⁰ penalty.
    base: f64,
    /// h⁰.
    loss: f64,
    /// `Σc·x − cap`.
    over: f64,
    /// The budget multiplier ν the point minimises the Lagrangian for.
    nu: f64,
    /// The participation multiplier λ there.
    lambda: f64,
}

/// A supporting line of a concave piecewise-linear function: where it
/// touches, the value there and a supergradient.
#[derive(Debug, Clone, Copy)]
struct Cut {
    at: f64,
    value: f64,
    slope: f64,
}

/// What a probe did to a [`Cuts`] search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Filed {
    /// The probe is a maximiser with a flat line.
    Flat,
    /// The probe's value met the two end lines where they cross, so the
    /// crossing is a maximiser and both ends are optimal there.
    Met,
    /// The probe's line replaced the rising end, or the falling one.
    Lo,
    Hi,
}

/// The maximiser of a concave piecewise-linear function, bracketed by its
/// supporting lines at two points: rising at `lo`, falling at `hi`. A
/// probe where the lines cross either finds the function on them (the
/// crossing is then a maximiser) or a new line that replaces an end; the
/// function has finitely many lines, so that ends.
struct Cuts {
    lo: Cut,
    hi: Cut,
}

impl Cuts {
    /// The bracket has shrunk to one point.
    fn closed(&self) -> bool {
        self.hi.at - self.lo.at <= f64::EPSILON * self.hi.at.abs()
    }

    /// Where the end lines cross, and their height there.
    fn next(&self) -> (f64, f64) {
        let (lo, hi) = (self.lo, self.hi);
        let at = ((hi.value - lo.value + lo.slope * lo.at - hi.slope * hi.at)
            / (lo.slope - hi.slope))
            .clamp(lo.at, hi.at);
        (at, lo.value + lo.slope * (at - lo.at))
    }

    /// Files the line found where the end lines cross, at height `roof`.
    fn file(&mut self, cut: Cut, roof: f64) -> Filed {
        if cut.slope == 0.0 {
            Filed::Flat
        } else if cut.value >= roof - TOL * (1.0 + roof.abs()) {
            Filed::Met
        } else if cut.slope > 0.0 {
            self.lo = cut;
            Filed::Lo
        } else {
            self.hi = cut;
            Filed::Hi
        }
    }

    /// The weight on `hi` that mixes points on the two end lines onto a
    /// zero slope: onto the row those slopes measure.
    fn weight(&self) -> f64 {
        self.lo.slope / (self.lo.slope - self.hi.slope)
    }
}

/// One fixed-ρ subproblem.
struct Fixed<'a> {
    problem: &'a OneShot,
    prices: &'a Prices,
    n: f64,
    cap: f64,
}

impl Prices {
    fn fill(&mut self, p: &OneShot, rho: f64) {
        let avail = p.ids.len() as f64;
        let Prices { cheap, rate, steep, pull } = self;
        cheap.clear();
        rate.clear();
        steep.clear();
        pull.clear();
        for i in 0..p.ids.len() {
            // hᵏ = bend·xₖ − (ρ − 1): no kink inside the box when the
            // bend stays below ρ − 1 (η̂ₖ = 0 included).
            let bend = p.eta[i] * rho;
            let len = if bend <= rho - 1.0 { 1.0 } else { (rho - 1.0) / bend };
            cheap.push(len);
            rate.push(rho * p.tau[i]);
            steep.push(if len < 1.0 { H_PENALTY * bend } else { 0.0 });
            pull.push(rho * p.g[i] / avail);
        }
    }
}

impl Fixed<'_> {
    /// `(base, loss, over)` at `x`.
    fn measure(&self, x: &[f64]) -> (f64, f64, f64) {
        let Prices { cheap, rate, steep, pull } = self.prices;
        let (mut base, mut loss, mut spend) =
            (0.0, self.problem.loss_all - self.problem.theta, 0.0);
        for (i, &xi) in x.iter().enumerate() {
            base += rate[i] * xi + steep[i] * (xi - cheap[i]).max(0.0);
            loss += pull[i] * xi;
            spend += self.problem.costs[i] * xi;
        }
        (base, loss, spend - self.cap)
    }

    /// The price of a unit of client `i`'s cheap piece under `(γ, ν)`.
    fn price(&self, i: usize, gamma: f64, nu: f64) -> f64 {
        self.prices.rate[i] + gamma * self.prices.pull[i] + nu * self.problem.costs[i]
    }

    /// Minimises `base + γ·loss + ν·over` over `[0,1]^K ∩ {Σx ≥ n}` into
    /// `x`: every piece of negative price, then the cheapest pieces (ties
    /// to the lower index, so a cheap piece before its own steep one) up
    /// to `n` units. λ is the price of the last piece taken.
    fn greedy(&self, gamma: f64, nu: f64, order: &mut Vec<(f64, u32)>, x: &mut [f64]) -> Point {
        let (k, cheap, steep) = (x.len(), &self.prices.cheap, &self.prices.steep);
        order.clear();
        let mut units = 0.0;
        for i in 0..k {
            let p1 = self.price(i, gamma, nu);
            let p2 = p1 + steep[i];
            x[i] = if p2 < 0.0 {
                1.0
            } else if p1 < 0.0 {
                cheap[i]
            } else {
                0.0
            };
            units += x[i];
            if p1 >= 0.0 && cheap[i] > 0.0 {
                order.push((p1, i as u32));
            }
            if p2 >= 0.0 && cheap[i] < 1.0 {
                order.push((p2, (k + i) as u32));
            }
        }
        let done = TOL * self.n;
        let (mut lambda, mut need) = (0.0, self.n - units);
        if need > done {
            order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for &(price, piece) in order.iter() {
                if need <= done {
                    break;
                }
                let piece = piece as usize;
                let (i, lo, hi) = if piece < k {
                    (piece, 0.0, cheap[piece])
                } else {
                    (piece - k, cheap[piece - k], 1.0)
                };
                lambda = price;
                if hi - lo >= need {
                    x[i] = lo + need;
                    need = 0.0;
                } else {
                    x[i] = hi;
                    need -= hi - lo;
                }
            }
        }
        let (base, loss, over) = self.measure(x);
        Point { base, loss, over, nu, lambda }
    }

    /// Maximises a multiplier's concave dual from the end lines `lo` and
    /// `hi`, whose minimisers are in `b.lo` and `b.hi`; `eval` writes the
    /// minimiser at a probe into its buffer. Leaves in `out` the point the
    /// maximiser certifies — the probe itself where its line is flat,
    /// else the two ends mixed onto the row — and returns the maximiser
    /// with that point (multipliers from the probe there).
    fn maximise(
        &self,
        lo: (Cut, Point),
        hi: (Cut, Point),
        b: &mut Bracket,
        out: &mut Vec<f64>,
        mut eval: impl FnMut(f64, &mut Vec<f64>) -> (Cut, Point),
    ) -> (f64, Point) {
        let mut cuts = Cuts { lo: lo.0, hi: hi.0 };
        let mut last = hi;
        for _ in 0..MAX_STEPS {
            if cuts.closed() {
                break;
            }
            let (at, roof) = cuts.next();
            let probe = eval(at, &mut b.at);
            match cuts.file(probe.0, roof) {
                Filed::Flat => {
                    swap(out, &mut b.at);
                    return (at, probe.1);
                }
                Filed::Met => {
                    last = probe;
                    break;
                }
                Filed::Lo => swap(&mut b.lo, &mut b.at),
                Filed::Hi => swap(&mut b.hi, &mut b.at),
            }
            last = probe;
        }
        mix(out, &b.lo, &b.hi, cuts.weight());
        let (base, loss, over) = self.measure(out);
        (last.0.at, Point { base, loss, over, ..last.1 })
    }

    /// Minimises `base + γ·loss` over the whole polytope (budget row
    /// included) into `out`.
    fn budgeted(
        &self,
        gamma: f64,
        order: &mut Vec<(f64, u32)>,
        b: &mut Bracket,
        out: &mut Vec<f64>,
    ) -> Point {
        let tol = TOL * (1.0 + self.cap.abs());
        let mut lo = self.greedy(gamma, 0.0, order, &mut b.lo);
        if lo.over <= tol {
            swap(out, &mut b.lo);
            return lo;
        }
        // The Lagrangian at ν, concave with supergradient `over`: bracket
        // its maximiser between an overspending ν and one within the cap.
        let cut = |p: &Point| Cut {
            at: p.nu,
            value: p.base + gamma * p.loss + p.nu * p.over,
            slope: p.over,
        };
        let hi = loop {
            let nu = (2.0 * lo.nu).max(1.0);
            let p = self.greedy(gamma, nu, order, &mut b.at);
            if p.over <= tol || !(2.0 * nu).is_finite() {
                swap(&mut b.hi, &mut b.at);
                break p;
            }
            lo = p;
            swap(&mut b.lo, &mut b.at);
        };
        if hi.over >= -tol {
            swap(out, &mut b.hi);
            return hi;
        }
        let (_, at) = self.maximise((cut(&lo), lo), (cut(&hi), hi), b, out, |nu, x| {
            let p = self.greedy(gamma, nu, order, x);
            (cut(&p), p)
        });
        at
    }

    /// Minimises Ψ at this ρ into `out`; returns Ψ there and a
    /// subgradient of `V` at ρ.
    fn solve(
        &self,
        order: &mut Vec<(f64, u32)>,
        nu: &mut Bracket,
        g: &mut Bracket,
        out: &mut Vec<f64>,
    ) -> (f64, f64) {
        let cut = |gamma: f64, p: &Point| Cut {
            at: gamma,
            value: p.base + gamma * p.loss,
            slope: p.loss,
        };
        let (gamma, at) = 'found: {
            let lo = self.budgeted(0.0, order, nu, &mut g.lo);
            if lo.loss <= 0.0 {
                swap(out, &mut g.lo);
                break 'found (0.0, lo);
            }
            let hi = self.budgeted(H_PENALTY, order, nu, &mut g.hi);
            if hi.loss >= 0.0 {
                swap(out, &mut g.hi);
                break 'found (H_PENALTY, hi);
            }
            let ends = ((cut(0.0, &lo), lo), (cut(H_PENALTY, &hi), hi));
            self.maximise(ends.0, ends.1, g, out, |gamma, x| {
                let p = self.budgeted(gamma, order, nu, x);
                (cut(gamma, &p), p)
            })
        };
        let psi = at.base + H_PENALTY * at.loss.max(0.0);
        (psi, self.slope(out, gamma, &at))
    }

    /// `τ·x + γ·g·x/|E| + Σₖ πₖ(η̂ₖxₖ − 1)`, with πₖ read off where x
    /// sits against client k's kink (at it: the π that prices the cheap
    /// piece at λ).
    fn slope(&self, x: &[f64], gamma: f64, at: &Point) -> f64 {
        let p = self.problem;
        let avail = p.ids.len() as f64;
        let Prices { cheap, steep, .. } = self.prices;
        let mut slope = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            let pi = if steep[i] == 0.0 || xi < cheap[i] {
                0.0
            } else if xi > cheap[i] {
                H_PENALTY
            } else {
                (H_PENALTY * (at.lambda - self.price(i, gamma, at.nu)) / steep[i])
                    .clamp(0.0, H_PENALTY)
            };
            slope += p.tau[i] * xi + gamma * p.g[i] * xi / avail + pi * (p.eta[i] * xi - 1.0);
        }
        slope
    }
}

/// `lo + t·(hi − lo)`, clamped to the box against rounding.
fn mix(out: &mut Vec<f64>, lo: &[f64], hi: &[f64], t: f64) {
    out.clear();
    out.extend(lo.iter().zip(hi).map(|(&a, &b)| (a + t * (b - a)).clamp(0.0, 1.0)));
}

/// The per-epoch hindsight comparator `Φ̃_t*` into `out`: the minimiser
/// of `Ψ = f_t + 10³·Σᵢ [hᵢ]⁺` over the epoch's feasible set (see the
/// module docs). Returns Ψ at that point.
///
/// A non-finite coefficient (τ, c, η̂, g, F, θ or ρ_max) has no minimiser
/// to report: `out` is then all NaN, so `f_t` there — the tracker's
/// `f_hindsight` — is NaN too. A non-finite budget is not an error (`+∞`
/// is no budget row; NaN is relaxed to the cheapest-`n` floor, as
/// [`OneShot::feasible_set`] documents).
pub fn hindsight_optimum(
    observed: &OneShot,
    scratch: &mut HindsightScratch,
    out: &mut FracDecision,
) -> f64 {
    let k = observed.ids.len();
    out.x.clear();
    out.x.resize(k, f64::NAN);
    out.rho = f64::NAN;
    let finite = |v: &[f64]| v.iter().all(|c| c.is_finite());
    if !(finite(&observed.tau)
        && finite(&observed.costs)
        && finite(&observed.eta)
        && finite(&observed.g)
        && finite(&[observed.loss_all, observed.theta, observed.rho_max]))
    {
        return f64::NAN;
    }
    let HindsightScratch { sorted, prices, order, nu, gamma, probe, best } = scratch;
    let cap = observed.feasible_set_with(sorted).cap();
    let n = observed.effective_n() as f64;
    for v in [&mut nu.lo, &mut nu.hi, &mut nu.at, &mut gamma.lo, &mut gamma.hi, &mut gamma.at] {
        v.resize(k, 0.0);
    }
    probe.resize(k, 0.0);
    best.resize(k, 0.0);
    // −V and a supergradient at ρ, the minimiser left in `x`.
    let mut eval = |rho: f64, x: &mut Vec<f64>| {
        prices.fill(observed, rho);
        let (psi, slope) = Fixed { problem: observed, prices, n, cap }.solve(order, nu, gamma, x);
        Cut { at: rho, value: -psi, slope: -slope }
    };

    // V is convex: done at an end whose subgradient points inward, else
    // cut from both ends, keeping the lowest Ψ seen.
    let first = eval(1.0, best);
    let mut star = first;
    if first.slope > 0.0 && observed.rho_max > 1.0 {
        let last = eval(observed.rho_max, probe);
        if last.value > star.value {
            star = last;
            swap(probe, best);
        }
        if last.slope < 0.0 {
            let mut cuts = Cuts { lo: first, hi: last };
            for _ in 0..MAX_STEPS {
                if cuts.closed() {
                    break;
                }
                let (rho, roof) = cuts.next();
                let cut = eval(rho, probe);
                if cut.value > star.value {
                    star = cut;
                    swap(probe, best);
                }
                if matches!(cuts.file(cut, roof), Filed::Flat | Filed::Met) {
                    break;
                }
            }
        }
    }
    out.x.copy_from_slice(best);
    out.rho = star.at;
    -star.value
}
