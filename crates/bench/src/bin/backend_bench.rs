//! backend_bench: per-domain convergence comparison of the solver
//! backends (ADMM on the direct and on the indirect KKT backend, and
//! restarted-PDHG "PDQP") on the benchmark suite.
//!
//! For every domain the harness solves suite instances cold under each
//! backend and records iterations, PCG iterations, full termination
//! checks, accepted `ρ` updates and wall time to the shared termination
//! tolerance. The report is machine-diffable JSON
//! (`results/BENCH_backends.json`): stable key order, one run object per
//! (domain, instance, backend); iteration counts are deterministic,
//! wall-clock fields are environment-dependent.
//!
//! The run doubles as a correctness gate (`scripts/check.sh --smoke`):
//! every backend must converge on every instance it benchmarks, and every
//! answer must meet OSQP's stopping criterion recomputed on the unscaled
//! problem by [`OsqpCriterion`], which shares no code with the solvers.

use std::fmt::Write as _;
use std::time::Instant;

use mib_bench::answer::OsqpCriterion;
use mib_problems::{instance, Domain};
use mib_qp::{Algorithm, KktBackend, Settings, Solver, Status};
use mib_trace::json::write_f64;

/// Suite indices exercised per domain (smoke keeps the gate fast).
const SMOKE_INDICES: &[usize] = &[0];
const FULL_INDICES: &[usize] = &[0, 4, 9];

/// The benchmarked backends by report label, ADMM first. Iteration caps:
/// first-order PDQP takes far more (cheap) iterations than ADMM takes
/// (factorized or PCG-solved) ones; both caps are sized so every
/// convergent suite problem terminates by tolerance, not by cap.
fn backends() -> [(&'static str, Settings); 3] {
    let admm = |backend| Settings {
        max_iter: 20_000,
        ..Settings::with_backend(backend)
    };
    [
        ("admm", admm(KktBackend::Direct)),
        ("admm-indirect", admm(KktBackend::Indirect)),
        (
            "pdqp",
            Settings {
                max_iter: 2_000_000,
                ..Settings::with_algorithm(Algorithm::Pdqp)
            },
        ),
    ]
}

/// One cold solve of one instance under one backend.
struct Run {
    domain: Domain,
    index: usize,
    n: usize,
    m: usize,
    backend: &'static str,
    status: Status,
    iterations: usize,
    pcg_iters: usize,
    checks: usize,
    rho_updates: usize,
    micros: u128,
    prim_res: f64,
    dual_res: f64,
    criterion: OsqpCriterion,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let indices = if smoke { SMOKE_INDICES } else { FULL_INDICES };

    let mut runs: Vec<Run> = Vec::new();
    for domain in Domain::all() {
        for &index in indices {
            let spec = instance(domain, index);
            for (backend, settings) in backends() {
                let (algorithm, eps_abs, eps_rel) =
                    (settings.algorithm, settings.eps_abs, settings.eps_rel);
                let mut solver = Solver::new(spec.problem.clone(), settings)
                    .expect("benchmark instance is valid");
                let started = Instant::now();
                let result = solver.solve();
                let wall = started.elapsed();
                assert_eq!(
                    result.algorithm, algorithm,
                    "backend identity must round-trip"
                );
                runs.push(Run {
                    domain,
                    index,
                    n: spec.problem.num_vars(),
                    m: spec.problem.num_constraints(),
                    backend,
                    status: result.status,
                    iterations: result.iterations,
                    pcg_iters: result.profile.pcg_iters,
                    checks: result.profile.checks,
                    rho_updates: result.profile.rho_updates,
                    micros: wall.as_micros(),
                    prim_res: result.prim_res,
                    dual_res: result.dual_res,
                    criterion: OsqpCriterion::of(
                        &spec.problem,
                        eps_abs,
                        eps_rel,
                        &result.x,
                        &result.y,
                        &result.z,
                    ),
                });
            }
        }
    }

    // Correctness gate: every backend must converge on every instance
    // (the suite has no infeasible problems), to an answer that meets the
    // criterion it reports meeting.
    for r in &runs {
        assert!(
            r.status != Status::Solved || r.criterion.holds(),
            "{} reports {}[{}] solved, but recomputed on the unscaled problem \
             ‖Ax−z‖∞ = {:.3e} (bound {:.3e}) and ‖Px+q+Aᵀy‖∞ = {:.3e} (bound {:.3e})",
            r.backend,
            r.domain,
            r.index,
            r.criterion.prim,
            r.criterion.eps_prim,
            r.criterion.dual,
            r.criterion.eps_dual
        );
        assert_eq!(
            r.status,
            Status::Solved,
            "{} failed on {}[{}] ({} iterations, residuals {:.3e}/{:.3e})",
            r.backend,
            r.domain,
            r.index,
            r.iterations,
            r.prim_res,
            r.dual_res
        );
    }

    let mut json = String::from("{\"bench\":\"backends\",");
    let _ = write!(
        json,
        "\"mode\":\"{}\",\"eps_abs\":1e-3,\"eps_rel\":1e-3,\"runs\":[",
        if smoke { "smoke" } else { "full" }
    );
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"domain\":\"{}\",\"index\":{},\"n\":{},\"m\":{},\"backend\":\"{}\",\
             \"converged\":{},\"iterations\":{},\"pcg_iters\":{},\"checks\":{},\
             \"rho_updates\":{},\"solve_time_us\":{},\"prim_res\":",
            r.domain,
            r.index,
            r.n,
            r.m,
            r.backend,
            r.status == Status::Solved,
            r.iterations,
            r.pcg_iters,
            r.checks,
            r.rho_updates,
            r.micros,
        );
        write_f64(&mut json, r.prim_res);
        json.push_str(",\"dual_res\":");
        write_f64(&mut json, r.dual_res);
        json.push('}');
    }
    json.push_str("]}");
    mib_trace::validate_json(&json).expect("backend report must be valid JSON");

    println!("{json}");
    if smoke {
        // Smoke runs are correctness gates; only the full suite refreshes
        // the committed baseline report.
        eprintln!("(smoke mode: results/BENCH_backends.json not rewritten)");
    } else {
        let dir = std::path::Path::new("results");
        if std::fs::create_dir_all(dir).is_ok() {
            let path = dir.join("BENCH_backends.json");
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("(written to {})", path.display());
            }
        }
    }
}
