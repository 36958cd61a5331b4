//! The machine's speed, measured beside the ops.
//!
//! On the shared VM this benchmark is sized on, the speed of one thread
//! moves by −23 % to +90 % in steps that last from seconds to minutes (see
//! `NOISE.md`), and it moves for all compute-bound code alike. A frozen
//! kernel — a small CSR product, a norm and a vector update, all in cache,
//! none of it the repository's code — is therefore timed every few
//! milliseconds between the ops, and every op's time is scaled by how far
//! the kernel was from its usual time just before and after it. What is
//! reported is the op's time *at the reference speed*; the raw times are
//! kept beside it.

use std::hint::black_box;
use std::time::Instant;

/// What one repetition of the kernel takes, in ns, in the usual state of
/// the sandbox the benchmark was sized on. Only ratios to it are used, so
/// on another machine every reported time is off by one constant factor,
/// the same for a parent and its change.
pub const NOMINAL_REP_NS: f64 = 2800.0;

/// Ops are bracketed by two timings of the kernel at most this much op
/// time apart (plus one op).
pub const INTERVAL_NS: u64 = 10_000_000;

const ROWS: usize = 400;
const PER_ROW: usize = 8;
/// Repetitions per sample, and samples per timing (the fastest counts, so
/// one interrupt does not).
const REPS: usize = 40;
const SAMPLES: usize = 3;

/// The frozen kernel's data.
pub struct Reference {
    row_ptr: Vec<usize>,
    col: Vec<u32>,
    val: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Reference {
    /// A fixed pseudo-random sparse matrix and a start vector.
    pub fn new() -> Self {
        let (mut row_ptr, mut col, mut val) = (vec![0], Vec::new(), Vec::new());
        let mut state: u32 = 12345;
        for _ in 0..ROWS {
            for _ in 0..PER_ROW {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                col.push((state >> 8) % ROWS as u32);
                val.push(0.5 + f64::from(state % 100) * 1e-3);
            }
            row_ptr.push(col.len());
        }
        Reference {
            row_ptr,
            col,
            val,
            x: vec![1.0; ROWS],
            y: vec![0.0; ROWS],
        }
    }

    /// One repetition: `y = A x`, its norm, `x = (x + y / ‖y‖) / 2`.
    fn repetition(&mut self) -> f64 {
        for i in 0..ROWS {
            let mut sum = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                sum += self.val[k] * self.x[self.col[k] as usize];
            }
            self.y[i] = sum;
        }
        let norm2: f64 = self.y.iter().map(|v| v * v).sum();
        let scale = 1.0 / norm2.sqrt().max(f64::MIN_POSITIVE);
        for (x, y) in self.x.iter_mut().zip(&self.y) {
            *x = 0.5 * *x + 0.5 * scale * y;
        }
        norm2
    }

    /// Times the kernel now: ns per repetition.
    pub fn time_rep_ns(&mut self) -> f64 {
        (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..REPS {
                    black_box(self.repetition());
                }
                t.elapsed().as_nanos() as f64 / REPS as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// The factor that takes a time measured between two timings of the
/// kernel to the reference speed.
pub fn scale_between(before_rep_ns: f64, after_rep_ns: f64) -> f64 {
    NOMINAL_REP_NS / (0.5 * (before_rep_ns + after_rep_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_stays_finite() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        for _ in 0..500 {
            assert_eq!(a.repetition().to_bits(), b.repetition().to_bits());
        }
        assert!(a.x.iter().all(|v| v.is_finite() && *v > 0.0));
        assert!(a.time_rep_ns() > 0.0);
    }

    #[test]
    fn scale_is_one_at_the_nominal_speed() {
        assert_eq!(scale_between(NOMINAL_REP_NS, NOMINAL_REP_NS), 1.0);
        // A machine running at half speed: times are halved.
        assert_eq!(
            scale_between(2.0 * NOMINAL_REP_NS, 2.0 * NOMINAL_REP_NS),
            0.5
        );
        assert_eq!(
            scale_between(0.5 * NOMINAL_REP_NS, 1.5 * NOMINAL_REP_NS),
            1.0
        );
    }
}
