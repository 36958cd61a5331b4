//! Shared evaluation machinery for the figure/table binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation section (see DESIGN.md §3 for the index); this library holds
//! the common pipeline: run the reference solver to get exact work
//! profiles and iteration counts, compile the problem for the MIB machine
//! to get deterministic cycle counts, and evaluate the baseline platform
//! models on the same work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod diff;
pub mod serve_json;

use std::fmt::Write as _;

use mib_compiler::lower::{lower, LoweredQp};
use mib_core::MibConfig;
use mib_platforms::models::MibPlatform;
use mib_platforms::{CpuModel, CpuVariant, GpuModel, PlatformModel, RsqpModel, WorkSummary};
use mib_problems::BenchmarkInstance;
use mib_qp::{KktBackend, Settings, SolveResult, Solver};

pub use mib_sparse::vector::geomean;

/// Reference-solver settings used across all experiments (OSQP defaults
/// with a higher iteration cap so every benchmark instance converges).
pub fn eval_settings(backend: KktBackend) -> Settings {
    let mut s = Settings::with_backend(backend);
    s.max_iter = 20_000;
    s
}

/// Runs the reference solver and summarizes its work.
pub fn run_reference(
    instance: &BenchmarkInstance,
    backend: KktBackend,
) -> (SolveResult, WorkSummary) {
    let settings = eval_settings(backend);
    let mut solver = Solver::new(instance.problem.clone(), settings.clone())
        .expect("benchmark instance is valid");
    let result = solver.solve();
    let work = WorkSummary::from_result(&instance.problem, &settings, &result);
    (result, work)
}

/// End-to-end evaluation of one instance with one variant on every
/// platform.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The problem's provenance.
    pub domain: &'static str,
    /// Instance index within its suite.
    pub index: usize,
    /// Total problem nonzeros.
    pub nnz: usize,
    /// Variant evaluated.
    pub backend: KktBackend,
    /// Whether the reference run converged.
    pub solved: bool,
    /// ADMM iterations of the reference run.
    pub iterations: usize,
    /// Work summary feeding the platform models.
    pub work: WorkSummary,
    /// MIB C=32 end-to-end seconds (cycle-accurate).
    pub mib_seconds: f64,
    /// MIB utilization proxy: achieved FLOP/s over peak.
    pub mib_utilization: f64,
    /// Baseline seconds: CPU (variant-matched), GPU (indirect only),
    /// RSQP (indirect only).
    pub cpu_seconds: f64,
    /// GPU model seconds (`None` for the direct variant — unsupported).
    pub gpu_seconds: Option<f64>,
    /// RSQP model seconds (`None` for the direct variant).
    pub rsqp_seconds: Option<f64>,
}

/// Compiles the instance for the MIB machine and evaluates the full
/// platform matrix.
pub fn evaluate(
    instance: &BenchmarkInstance,
    backend: KktBackend,
    config: MibConfig,
) -> Evaluation {
    let (result, work) = run_reference(instance, backend);
    let settings = eval_settings(backend);
    let lowered = lower(&instance.problem, &settings, config).expect("lowering succeeds");
    let mib_seconds = mib_solve_seconds(&lowered, &result);

    let cpu = match backend {
        KktBackend::Direct => CpuModel::new(CpuVariant::Builtin),
        KktBackend::Indirect => CpuModel::new(CpuVariant::Mkl),
    };
    let cpu_seconds = cpu.solve_time(&work);
    let (gpu_seconds, rsqp_seconds) = match backend {
        KktBackend::Direct => (None, None),
        KktBackend::Indirect => (
            Some(GpuModel::new().solve_time(&work)),
            Some(RsqpModel::new().solve_time(&work)),
        ),
    };
    let total_flops = work.total_flops();
    let mib_utilization = total_flops / mib_seconds / peak_flops(&config);

    Evaluation {
        domain: instance.domain.name(),
        index: instance.index,
        nnz: instance.problem.total_nnz(),
        backend,
        solved: result.status.is_solved(),
        iterations: result.iterations,
        work,
        mib_seconds,
        mib_utilization,
        cpu_seconds,
        gpu_seconds,
        rsqp_seconds,
    }
}

/// Peak FLOP/s of an MIB configuration (Table II: 33G at C=16, 60G at
/// C=32; interpolated elsewhere).
pub fn peak_flops(config: &MibConfig) -> f64 {
    // One multiply + one add per lane per cycle at the configured clock.
    2.0 * config.width as f64 * config.clock_hz
}

/// Deterministic MIB end-to-end time from compiled schedules plus the
/// reference run's iteration statistics, charging one check program per
/// full check the run actually made. The ADMM convergence pre-test that
/// triggers some of those checks (and, on the indirect backend, drives
/// the PCG tolerance) has no compiled schedule and is not charged: one
/// m-length reduction every 5 iterations, on the indirect backend at
/// regular checks too, and none on the direct backend with adaptive `ρ`,
/// which checks every 5 iterations instead. So the MIB time is slightly
/// understated against the CPU model, whose profile counts it. The same
/// holds for adaptive-`ρ` updates on the indirect backend (at most one
/// per 5 iterations, each a re-evaluation of `S` or the Jacobi
/// diagonal): no schedule, not charged.
/// A direct update is charged, as the refactorization in `factor_count`.
pub fn mib_solve_seconds(lowered: &LoweredQp, result: &SolveResult) -> f64 {
    lowered.total_seconds(
        result.iterations,
        result.profile.pcg_iters,
        result.profile.checks,
        result.profile.factor_count,
    )
}

/// The MIB platform wrapper for energy/jitter reporting.
pub fn mib_platform(seconds: f64) -> MibPlatform {
    MibPlatform {
        name: "MIB C=32",
        seconds,
    }
}

/// Writes a report both to stdout and to `results/<name>.txt`.
pub fn emit_report(name: &str, body: &str) {
    println!("{body}");
    publish(&format!("{name}.txt"), body);
}

/// Writes `body` as `results/<file>`, creating the directory, and says
/// where on stderr; a write that fails is reported as a warning.
///
/// # Panics
///
/// If a `.json` file's body is not valid JSON — a bug in its writer, not
/// an environment condition.
pub fn publish(file: &str, body: &str) {
    let path = std::path::Path::new("results").join(file);
    if path.extension().is_some_and(|ext| ext == "json") {
        mib_trace::validate_json(body).unwrap_or_else(|e| panic!("{file} must be valid JSON: {e}"));
    }
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("(written to {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Renders an ASCII spy plot of a sparse matrix (used by the pattern
/// figures), downsampling to at most `max_dim` rows/columns.
pub fn spy(m: &mib_sparse::CscMatrix, max_dim: usize) -> String {
    let (nr, nc) = m.shape();
    let rs = nr.div_ceil(max_dim).max(1);
    let cs = nc.div_ceil(max_dim).max(1);
    let h = nr.div_ceil(rs);
    let w = nc.div_ceil(cs);
    let mut grid = vec![false; h * w];
    for (i, j, _) in m.iter() {
        grid[(i / rs) * w + (j / cs)] = true;
    }
    let mut out = String::new();
    for r in 0..h {
        for c in 0..w {
            out.push(if grid[r * w + c] { '*' } else { '.' });
        }
        out.push('\n');
    }
    let _ = write!(out, "({nr}x{nc}, nnz={})", m.nnz());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_problems::Domain;

    #[test]
    fn evaluate_small_instance_end_to_end() {
        let inst = mib_problems::instance(Domain::Mpc, 0);
        let e = evaluate(&inst, KktBackend::Direct, MibConfig::c32());
        assert!(e.solved, "reference run must converge");
        assert!(e.mib_seconds > 0.0);
        assert!(e.cpu_seconds > 0.0);
        assert!(e.gpu_seconds.is_none());
        let e = evaluate(&inst, KktBackend::Indirect, MibConfig::c32());
        assert!(e.gpu_seconds.is_some());
        assert!(e.rsqp_seconds.unwrap() > 0.0);
    }

    #[test]
    fn spy_renders_diagonal() {
        let m = mib_sparse::CscMatrix::identity(4);
        let s = spy(&m, 8);
        assert!(s.starts_with("*...\n.*..\n..*.\n...*\n"));
    }

    #[test]
    fn peak_flops_matches_table_two_scale() {
        assert!((peak_flops(&MibConfig::c16()) - 9.6e9).abs() < 1e6);
        // Paper reports 33G/60G including multiple FP units per lane; our
        // model counts the mul+add pair, a consistent normalization.
    }
}
