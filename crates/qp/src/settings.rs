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

    /// Dense index in `0..2`, a word of the serving layer's structural
    /// pattern key.
    pub fn index(self) -> usize {
        match self {
            Algorithm::Admm => 0,
            Algorithm::Pdqp => 1,
        }
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
///
/// The relaxation `α` ([`ALPHA`](crate::ALPHA)), the PCG tolerance
/// schedule and the stride of the cancellation and deadline poll are
/// constants of the solver, not settings.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// Initial ADMM step size `ρ > 0` (default `0.1`).
    pub rho: f64,
    /// Regularization `σ > 0` added to `P` in the KKT matrix (default `1e-6`).
    pub sigma: f64,
    /// Absolute tolerance for the termination criterion (default `1e-3`;
    /// finite).
    pub eps_abs: f64,
    /// Relative tolerance for the termination criterion (default `1e-3`;
    /// finite).
    pub eps_rel: f64,
    /// Iteration limit (default `4000`).
    pub max_iter: usize,
    /// Interval of the regular termination check (default `25`): the full
    /// residual test plus the infeasibility certificates and the PCG
    /// tolerance update. Between regular checks ADMM also runs a full
    /// residual test every 5 iterations: with `adaptive_rho` on, always;
    /// with it off, when a cheap pre-test passes. So an ADMM solve can
    /// stop on any multiple of 5 (or on `max_iter`). PDQP checks on this
    /// interval only.
    pub check_termination: usize,
    /// Number of Ruiz equilibration passes; `0` disables scaling
    /// (default `10`).
    pub scaling_iters: usize,
    /// Enable adaptive `ρ` updates (default `true`). ADMM then runs the
    /// full residual test every 5 iterations, on both KKT backends, and
    /// applies OSQP's rule after each one that does not stop the solve:
    /// `ρ` changes when the new value leaves a ×5 band around the current
    /// one. On the direct backend each change is a numeric
    /// refactorization; on the indirect one it factors nothing.
    pub adaptive_rho: bool,
    /// Lower clamp for `ρ`, and the step of rows without bounds (default
    /// `1e-6`; finite).
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
    /// `‖r‖₂ ≤ max(eps_pcg_min, tol·‖b‖₂)` (default `1e-7`), where `tol`
    /// is the relative tolerance the ADMM loop sets and tightens.
    pub eps_pcg_min: f64,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            rho: 0.1,
            sigma: 1e-6,
            eps_abs: 1e-3,
            eps_rel: 1e-3,
            max_iter: 4000,
            check_termination: 25,
            scaling_iters: 10,
            adaptive_rho: true,
            rho_min: 1e-6,
            rho_max: 1e6,
            rho_eq_scale: 1e3,
            algorithm: Algorithm::Admm,
            backend: KktBackend::Direct,
            eps_pcg_min: 1e-7,
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
        // Negated so that a NaN tolerance fails too: the stopping test
        // `res < NaN` never holds, and the solve would run to `max_iter`.
        // An infinite one passes every residual, so the solve would stop
        // `Solved` at its first check.
        let tolerance = |eps: f64| eps >= 0.0 && eps.is_finite();
        if !(tolerance(self.eps_abs) && tolerance(self.eps_rel))
            || (self.eps_abs == 0.0 && self.eps_rel == 0.0)
        {
            return Err(QpError::InvalidSetting(
                "eps_abs and eps_rel must be finite, nonnegative and not both zero".into(),
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
        // Negated comparisons so that a NaN bound fails them too: `ρ`
        // is clamped to these bounds, and `f64::clamp` panics on NaN. An
        // infinite `rho_min` is the step of every loose row and the floor
        // of every other: the iterates turn NaN. An infinite `rho_max`
        // only leaves `ρ` unbounded above.
        if !(self.rho_min > 0.0 && self.rho_min.is_finite() && self.rho_max >= self.rho_min) {
            return Err(QpError::InvalidSetting(format!(
                "rho bounds must satisfy 0 < rho_min <= rho_max, rho_min finite, got [{}, {}]",
                self.rho_min, self.rho_max
            )));
        }
        if !(self.rho_eq_scale > 0.0 && self.rho_eq_scale.is_finite()) {
            return Err(QpError::InvalidSetting(format!(
                "rho_eq_scale must be positive, got {}",
                self.rho_eq_scale
            )));
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
            matches!(s.validate(), Err(QpError::InvalidSetting(_)))
        };
        assert!(bad(|s| s.rho = 0.0));
        assert!(bad(|s| s.rho = -1.0));
        assert!(bad(|s| s.sigma = 0.0));
        assert!(bad(|s| {
            s.eps_abs = 0.0;
            s.eps_rel = 0.0;
        }));
        assert!(bad(|s| s.eps_abs = f64::NAN));
        assert!(bad(|s| s.eps_rel = f64::NAN));
        assert!(bad(|s| s.eps_abs = f64::INFINITY));
        assert!(bad(|s| s.eps_rel = f64::INFINITY));
        assert!(bad(|s| s.max_iter = 0));
        assert!(bad(|s| s.check_termination = 0));
        assert!(bad(|s| s.rho_max = 1e-9));
        assert!(bad(|s| s.rho_min = f64::NAN));
        assert!(bad(|s| s.rho_min = f64::INFINITY));
        assert!(bad(|s| s.rho_max = f64::NAN));
        assert!(bad(|s| s.rho_eq_scale = f64::NAN));
        assert!(bad(|s| s.rho_eq_scale = 0.0));
        assert!(bad(|s| s.rho_eq_scale = -1.0));
        assert!(bad(|s| s.rho_eq_scale = f64::INFINITY));
    }

    #[test]
    fn with_algorithm_selects_the_backend_family() {
        let s = Settings::with_algorithm(Algorithm::Pdqp);
        assert_eq!(s.algorithm, Algorithm::Pdqp);
        s.validate().unwrap();
        assert_eq!(Settings::default().algorithm, Algorithm::Admm);
    }

    #[test]
    fn algorithm_names_indices_and_order() {
        assert_eq!(Algorithm::Admm.name(), "admm");
        assert_eq!(Algorithm::Pdqp.name(), "pdqp");
        assert_eq!(Algorithm::default(), Algorithm::Admm);
        assert_eq!(Algorithm::Admm.index(), 0);
        assert_eq!(Algorithm::Pdqp.index(), 1);
        assert_eq!(Algorithm::Pdqp.to_string(), "pdqp");
    }

    #[test]
    fn backend_names() {
        assert_eq!(KktBackend::Direct.name(), "direct");
        assert_eq!(KktBackend::Indirect.name(), "indirect");
    }
}
