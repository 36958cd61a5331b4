//! Seeded inputs.
//!
//! The problems a workload registers, pools or compiles are the public
//! suite's own instances (`mib_problems::instance`), as in `load_bench`;
//! everything a request carries — new costs and bounds, warm starts,
//! deadlines, which tenant it goes to — is drawn from `--seed`. Drawing
//! the instances themselves from the seed was tried first: iteration
//! counts come in steps of 25 and a few heavy pool entries carry most of
//! the time, so the exact work of a round (`qp.flops_per_solve`) spread
//! by 10 % between seeds, three times what the bounds allow.

use mib_qp::{Problem, SolveResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generator for one stream of a run: `--seed` mixed with a stream tag,
/// so workloads and their parts draw independent inputs.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// `load_bench`'s linear-cost perturbation: every entry moved by up to
/// ±0.025.
pub fn perturbed_q(problem: &Problem, rng: &mut StdRng) -> Vec<f64> {
    problem
        .q()
        .iter()
        .map(|qi| qi + 0.05 * (rng.gen::<f64>() - 0.5))
        .collect()
}

/// `load_bench`'s bounds perturbation: every finite upper bound loosened
/// by up to 0.1. Equality rows become inequalities, so the solver's
/// `reset` re-derives its per-row step sizes and refactors.
pub fn perturbed_bounds(problem: &Problem, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    let u = problem
        .u()
        .iter()
        .map(|&ui| {
            if ui.is_finite() {
                ui + 0.1 * rng.gen::<f64>()
            } else {
                ui
            }
        })
        .collect();
    (problem.l().to_vec(), u)
}

/// The parameters of one parametric re-solve, drawn with the `load_bench`
/// direct-endpoint mix: a new `q` on 80 %, new bounds on 30 %, a warm
/// start on 10 %.
#[derive(Debug, Clone)]
pub struct Params {
    /// Replacement linear cost.
    pub q: Option<Vec<f64>>,
    /// Replacement bounds.
    pub bounds: Option<(Vec<f64>, Vec<f64>)>,
    /// Whether the solve starts from the template's solution.
    pub warm: bool,
}

impl Params {
    /// Draws one parameter set for `problem`.
    pub fn draw(problem: &Problem, rng: &mut StdRng) -> Params {
        let q = (rng.gen::<f64>() < 0.8).then(|| perturbed_q(problem, rng));
        let bounds = (rng.gen::<f64>() < 0.3).then(|| perturbed_bounds(problem, rng));
        let warm = rng.gen::<f64>() < 0.1;
        Params { q, bounds, warm }
    }
}

/// FNV-1a over everything of an answer that must repeat bitwise: whether
/// it solved, iteration count, objective and both solution vectors.
pub fn fingerprint(solved: bool, iterations: u64, obj_val: f64, x: &[f64], y: &[f64]) -> u64 {
    let words = [u64::from(solved), iterations, obj_val.to_bits()]
        .into_iter()
        .chain(x.iter().chain(y).map(|v| v.to_bits()));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// [`fingerprint`] of a solver result.
pub fn result_fingerprint(r: &SolveResult) -> u64 {
    fingerprint(
        r.status.is_solved(),
        r.iterations as u64,
        r.obj_val,
        &r.x,
        &r.y,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_problems::Domain;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let problem = mib_problems::instance(Domain::Lasso, 1).problem;
        let a = Params::draw(&problem, &mut rng_for(1, 5)).q;
        let b = Params::draw(&problem, &mut rng_for(1, 5)).q;
        let c = Params::draw(&problem, &mut rng_for(2, 5)).q;
        let d = Params::draw(&problem, &mut rng_for(1, 6)).q;
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn perturbed_bounds_only_loosen_upper_bounds() {
        let p = mib_problems::instance(Domain::Portfolio, 0).problem;
        let (l, u) = perturbed_bounds(&p, &mut rng_for(1, 1));
        assert_eq!(l, p.l());
        for ((lo, hi), old) in l.iter().zip(&u).zip(p.u()) {
            assert!(hi >= old && lo <= hi);
            assert_eq!(hi.is_finite(), old.is_finite());
        }
    }

    #[test]
    fn fingerprint_sees_every_bit() {
        let base = fingerprint(true, 25, 1.5, &[1.0, 2.0], &[3.0]);
        assert_eq!(base, fingerprint(true, 25, 1.5, &[1.0, 2.0], &[3.0]));
        assert_ne!(base, fingerprint(false, 25, 1.5, &[1.0, 2.0], &[3.0]));
        assert_ne!(base, fingerprint(true, 50, 1.5, &[1.0, 2.0], &[3.0]));
        assert_ne!(
            base,
            fingerprint(true, 25, 1.5, &[1.0, 2.0 + 4e-16], &[3.0])
        );
    }
}
