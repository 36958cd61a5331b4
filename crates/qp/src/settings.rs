use std::time::Duration;

use crate::{QpError, Result};

/// Which iteration family solves the QP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// OSQP-style ADMM (splitting + KKT solves; Algorithm 1 of the paper).
    #[default]
    Admm,
    /// Restarted averaged primal-dual hybrid gradient ("PDQP" à la
    /// Lu & Yang): factorization-free, three mat-vecs per iteration.
    Pdqp,
}

impl Algorithm {
    /// Short lowercase name (`"admm"` / `"pdqp"`), used in reports,
    /// telemetry tags and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Admm => "admm",
            Algorithm::Pdqp => "pdqp",
        }
    }

    /// Dense index in `0..2`, for per-algorithm counters.
    pub fn index(self) -> usize {
        match self {
            Algorithm::Admm => 0,
            Algorithm::Pdqp => 1,
        }
    }

    /// Every algorithm, in [`Algorithm::index`] order.
    pub fn all() -> [Algorithm; 2] {
        [Algorithm::Admm, Algorithm::Pdqp]
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which linear-system backend solves the KKT system (2) — the choice
/// between the paper's OSQP-direct and OSQP-indirect variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KktBackend {
    /// Sparse LDLᵀ factorization with forward/backward substitution
    /// (OSQP-direct, Section II.C).
    #[default]
    Direct,
    /// Preconditioned Conjugate Gradient on the reduced system
    /// `(P + σI + AᵀρA) x = b` (OSQP-indirect, Section II.D).
    Indirect,
}

impl KktBackend {
    /// Short lowercase name (`"direct"` / `"indirect"`), used in reports.
    pub fn name(self) -> &'static str {
        match self {
            KktBackend::Direct => "direct",
            KktBackend::Indirect => "indirect",
        }
    }
}

/// Solver configuration, with OSQP-compatible defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// Initial ADMM step size `ρ > 0` (default `0.1`).
    pub rho: f64,
    /// Regularization `σ > 0` added to `P` in the KKT matrix (default `1e-6`).
    pub sigma: f64,
    /// Relaxation parameter `α ∈ (0, 2)` (default `1.6`).
    pub alpha: f64,
    /// Absolute tolerance for the termination criterion (default `1e-3`).
    pub eps_abs: f64,
    /// Relative tolerance for the termination criterion (default `1e-3`).
    pub eps_rel: f64,
    /// Iteration limit (default `4000`).
    pub max_iter: usize,
    /// Interval of the regular termination check (default `25`): the full
    /// residual test plus the infeasibility certificates, the PCG
    /// tolerance update and, every `adaptive_rho_interval`, adaptive `ρ`.
    /// Between regular checks the ADMM backend also runs a cheap pre-test
    /// every 5 iterations, and a full residual test when it passes, so an
    /// ADMM solve can stop on any multiple of 5 (or on `max_iter`). PDQP
    /// checks on this interval only.
    pub check_termination: usize,
    /// Number of Ruiz equilibration passes; `0` disables scaling
    /// (default `10`).
    pub scaling_iters: usize,
    /// Enable adaptive `ρ` updates (default `true`).
    pub adaptive_rho: bool,
    /// Interval (in iterations) between adaptive `ρ` checks (default `100`).
    pub adaptive_rho_interval: usize,
    /// Lower clamp for `ρ` (default `1e-6`).
    pub rho_min: f64,
    /// Upper clamp for `ρ` (default `1e6`).
    pub rho_max: f64,
    /// Multiplier applied to `ρ` on equality constraint rows
    /// (default `1e3`).
    pub rho_eq_scale: f64,
    /// The solver algorithm — ADMM (the default) or the restarted
    /// primal-dual first-order method ("PDQP").
    pub algorithm: Algorithm,
    /// The KKT backend — direct LDLᵀ or indirect PCG. Only consulted by
    /// the ADMM algorithm; PDQP never solves a KKT system.
    pub backend: KktBackend,
    /// PCG convergence floor: iteration stops when
    /// `‖r‖₂ ≤ max(eps_pcg_min, tol·‖b‖₂)` (default `1e-7`).
    pub eps_pcg_min: f64,
    /// Initial PCG relative tolerance (default `1e-4`). A solve tightens
    /// it from this value: ×0.5 at every regular termination check, and
    /// ×0.2 at every 5th iteration where ADMM's primal step, relative to
    /// its stopping bound, has not fallen since the previous 5th
    /// iteration; the floor is `1e-9`.
    pub eps_pcg_start: f64,
    /// PCG iteration cap per KKT solve (default `4 * n` chosen at setup
    /// when `0`).
    pub max_pcg_iter: usize,
    /// Wall-clock budget for one solve, measured from the start of
    /// [`solve_into`]; `None` (the default) disables the limit. When the
    /// budget is exhausted the solver returns [`Status::TimedOut`] at the
    /// next interruption check instead of running to `max_iter`.
    ///
    /// [`solve_into`]: crate::Solver::solve_into
    /// [`Status::TimedOut`]: crate::Status::TimedOut
    pub time_limit: Option<Duration>,
    /// How often (in ADMM iterations) the solver polls the cancellation
    /// flag and the deadline (default `25`). Smaller values react faster
    /// at the cost of one clock read per check; the checks never touch the
    /// iterates, so they cannot perturb the solution of runs that finish.
    pub check_interval: usize,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            rho: 0.1,
            sigma: 1e-6,
            alpha: 1.6,
            eps_abs: 1e-3,
            eps_rel: 1e-3,
            max_iter: 4000,
            check_termination: 25,
            scaling_iters: 10,
            adaptive_rho: true,
            adaptive_rho_interval: 100,
            rho_min: 1e-6,
            rho_max: 1e6,
            rho_eq_scale: 1e3,
            algorithm: Algorithm::Admm,
            backend: KktBackend::Direct,
            eps_pcg_min: 1e-7,
            eps_pcg_start: 1e-4,
            max_pcg_iter: 0,
            time_limit: None,
            check_interval: 25,
        }
    }
}

impl Settings {
    /// OSQP defaults with the given backend selected.
    pub fn with_backend(backend: KktBackend) -> Self {
        Settings {
            backend,
            ..Settings::default()
        }
    }

    /// Defaults with the given solver algorithm selected.
    pub fn with_algorithm(algorithm: Algorithm) -> Self {
        Settings {
            algorithm,
            ..Settings::default()
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidSetting`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        if !(self.rho > 0.0 && self.rho.is_finite()) {
            return Err(QpError::InvalidSetting(format!(
                "rho must be positive, got {}",
                self.rho
            )));
        }
        if !(self.sigma > 0.0 && self.sigma.is_finite()) {
            return Err(QpError::InvalidSetting(format!(
                "sigma must be positive, got {}",
                self.sigma
            )));
        }
        if !(self.alpha > 0.0 && self.alpha < 2.0) {
            return Err(QpError::InvalidSetting(format!(
                "alpha must lie in (0, 2), got {}",
                self.alpha
            )));
        }
        if self.eps_abs < 0.0 || self.eps_rel < 0.0 || (self.eps_abs == 0.0 && self.eps_rel == 0.0)
        {
            return Err(QpError::InvalidSetting(
                "eps_abs and eps_rel must be nonnegative and not both zero".into(),
            ));
        }
        if self.max_iter == 0 {
            return Err(QpError::InvalidSetting(
                "max_iter must be at least 1".into(),
            ));
        }
        if self.check_termination == 0 {
            return Err(QpError::InvalidSetting(
                "check_termination must be at least 1".into(),
            ));
        }
        if self.rho_min <= 0.0 || self.rho_max < self.rho_min {
            return Err(QpError::InvalidSetting(
                "rho bounds must satisfy 0 < rho_min <= rho_max".into(),
            ));
        }
        if self.check_interval == 0 {
            return Err(QpError::InvalidSetting(
                "check_interval must be at least 1".into(),
            ));
        }
        if self.time_limit == Some(Duration::ZERO) {
            return Err(QpError::InvalidSetting(
                "time_limit must be positive (use None to disable)".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        Settings::default().validate().unwrap();
        Settings::with_backend(KktBackend::Indirect)
            .validate()
            .unwrap();
    }

    #[test]
    fn invalid_parameters_rejected() {
        let bad = |f: fn(&mut Settings)| {
            let mut s = Settings::default();
            f(&mut s);
            s.validate().is_err()
        };
        assert!(bad(|s| s.rho = 0.0));
        assert!(bad(|s| s.rho = -1.0));
        assert!(bad(|s| s.sigma = 0.0));
        assert!(bad(|s| s.alpha = 2.0));
        assert!(bad(|s| s.alpha = 0.0));
        assert!(bad(|s| {
            s.eps_abs = 0.0;
            s.eps_rel = 0.0;
        }));
        assert!(bad(|s| s.max_iter = 0));
        assert!(bad(|s| s.check_termination = 0));
        assert!(bad(|s| s.rho_max = 1e-9));
        assert!(bad(|s| s.check_interval = 0));
        assert!(bad(|s| s.time_limit = Some(Duration::ZERO)));
    }

    #[test]
    fn with_algorithm_selects_the_backend_family() {
        let s = Settings::with_algorithm(Algorithm::Pdqp);
        assert_eq!(s.algorithm, Algorithm::Pdqp);
        s.validate().unwrap();
        assert_eq!(Settings::default().algorithm, Algorithm::Admm);
    }

    #[test]
    fn time_limit_accepts_positive_durations() {
        let s = Settings {
            time_limit: Some(Duration::from_millis(5)),
            check_interval: 1,
            ..Settings::default()
        };
        s.validate().unwrap();
    }

    #[test]
    fn algorithm_names_indices_and_order() {
        assert_eq!(Algorithm::Admm.name(), "admm");
        assert_eq!(Algorithm::Pdqp.name(), "pdqp");
        assert_eq!(Algorithm::default(), Algorithm::Admm);
        for (i, algo) in Algorithm::all().into_iter().enumerate() {
            assert_eq!(algo.index(), i);
        }
        assert_eq!(Algorithm::Pdqp.to_string(), "pdqp");
    }

    #[test]
    fn backend_names() {
        assert_eq!(KktBackend::Direct.name(), "direct");
        assert_eq!(KktBackend::Indirect.name(), "indirect");
    }
}
