//! backend_bench: per-domain convergence comparison of the solver
//! backends (ADMM vs restarted-PDHG "PDQP") on the benchmark suite.
//!
//! For every domain the harness solves suite instances cold under each
//! [`Algorithm`] and records iterations and wall time to the shared
//! termination tolerance. The report is machine-diffable JSON
//! (`results/BENCH_backends.json`): stable key order, one run object per
//! (domain, instance, backend); iteration counts are deterministic,
//! wall-clock fields are environment-dependent.
//!
//! The run doubles as a correctness gate (`scripts/check.sh --smoke`):
//! ADMM must converge on every instance it benchmarks, and PDQP must
//! reach the same tolerance on every instance where ADMM does.

use std::fmt::Write as _;
use std::time::Instant;

use mib_problems::{instance, Domain};
use mib_qp::{Algorithm, Settings, Solver, Status};
use mib_trace::json::write_f64;

/// Suite indices exercised per domain (smoke keeps the gate fast).
const SMOKE_INDICES: &[usize] = &[0];
const FULL_INDICES: &[usize] = &[0, 4, 9];

/// Iteration cap per backend. First-order PDQP takes far more (cheap)
/// iterations than ADMM takes (factorized) ones; both caps are sized so
/// every convergent suite problem terminates by tolerance, not by cap.
fn settings_for(algorithm: Algorithm) -> Settings {
    let mut s = Settings::with_algorithm(algorithm);
    s.max_iter = match algorithm {
        Algorithm::Admm => 20_000,
        Algorithm::Pdqp => 2_000_000,
    };
    s
}

/// One cold solve of one instance under one backend.
struct Run {
    domain: Domain,
    index: usize,
    n: usize,
    m: usize,
    algorithm: Algorithm,
    status: Status,
    iterations: usize,
    micros: u128,
    prim_res: f64,
    dual_res: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let indices = if smoke { SMOKE_INDICES } else { FULL_INDICES };

    let mut runs: Vec<Run> = Vec::new();
    for domain in Domain::all() {
        for &index in indices {
            let spec = instance(domain, index);
            for algorithm in Algorithm::all() {
                let mut solver = Solver::new(spec.problem.clone(), settings_for(algorithm))
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
                    algorithm,
                    status: result.status,
                    iterations: result.iterations,
                    micros: wall.as_micros(),
                    prim_res: result.prim_res,
                    dual_res: result.dual_res,
                });
            }
        }
    }

    // Correctness gate: the ADMM reference must converge everywhere, and
    // PDQP must reach the same tolerance on every ADMM-convergent
    // instance (the suite has no infeasible problems).
    for pair in runs.chunks(Algorithm::all().len()) {
        let admm = &pair[0];
        assert_eq!(
            admm.status,
            Status::Solved,
            "ADMM failed on {}[{}]",
            admm.domain,
            admm.index
        );
        for other in &pair[1..] {
            assert_eq!(
                other.status,
                Status::Solved,
                "{} failed on {}[{}] where ADMM converged ({} iterations, residuals {:.3e}/{:.3e})",
                other.algorithm,
                other.domain,
                other.index,
                other.iterations,
                other.prim_res,
                other.dual_res
            );
        }
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
             \"converged\":{},\"iterations\":{},\"solve_time_us\":{},\
             \"prim_res\":",
            r.domain,
            r.index,
            r.n,
            r.m,
            r.algorithm,
            r.status == Status::Solved,
            r.iterations,
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
