//! kernel_bench: std-only micro-benchmark of the SIMD kernels.
//!
//! Measures per-kernel GFLOP/s for the hot `_into` kernels, sweeps the
//! sparse kernels across the five benchmark domains, times the indirect
//! backend's reduced operator `S·v` matrix-free and assembled
//! (`reduced_operator`, rows keyed by each domain's `n`) and the KKT
//! ordering (`order`/`min_degree`, one row per domain). The report is
//! machine-diffable JSON with stable key order
//! (`results/BENCH_kernels.json`); GFLOP/s numbers are
//! environment-dependent, everything else is deterministic.
//!
//! Timing is plain `std::time::Instant`: per measurement the kernel is
//! warmed up, then the best (minimum) of several timed repetitions is
//! taken — the standard floor-of-noise estimator for short deterministic
//! kernels.
//!
//! `--smoke` (the `scripts/check.sh` gate) runs small sizes and
//! validates the report schema; it does not overwrite the committed
//! results.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use mib_problems::{instance, Domain};
use mib_qp::kkt::KktMatrix;
use mib_qp::linsys::IndirectKkt;
use mib_qp::{KktBackend, Settings};
use mib_sparse::order::{self, Ordering};
use mib_sparse::simd;
use mib_sparse::{ldl::LdlSolver, CscMatrix, TripletMatrix};
use mib_trace::json::write_f64;

/// Timed repetitions per measurement; the minimum is reported.
const REPS: usize = 7;
/// Target duration of one timed repetition, used to size the inner loop.
const TARGET_NS_PER_REP: f64 = 2e6;

/// xorshift64* — deterministic, dependency-free data generation.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        let u = self.0.wrapping_mul(0x2545_f491_4f6c_dd1d);
        // Uniform in [-1, 1).
        (u >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_f64()).collect()
    }
}

/// Best-of-`REPS` nanoseconds per call of `f`, with `f` run `inner`
/// times per repetition.
fn time_ns(inner: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..inner.div_ceil(2).max(1) {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        let per_call = t0.elapsed().as_nanos() as f64 / inner as f64;
        best = best.min(per_call);
    }
    best
}

/// Inner-loop length for a kernel expected to cost ~`flops` flops.
fn inner_for(flops: f64) -> usize {
    // Rough 1 GFLOP/s floor keeps a repetition near TARGET_NS_PER_REP.
    ((TARGET_NS_PER_REP / flops.max(1.0)) as usize).clamp(1, 1 << 16)
}

/// One (kernel, size) measurement.
struct Measurement {
    group: &'static str,
    kernel: &'static str,
    /// Problem-size label: vector length, matrix dimension, ...
    n: usize,
    /// Analytic flop count of one kernel call.
    flops: f64,
    ns_per_call: f64,
}

impl Measurement {
    fn gflops(&self) -> f64 {
        self.flops / self.ns_per_call
    }
}

/// Upper-stored symmetric tridiagonal SPD matrix (diag 4, off-diag -1).
fn tridiag_upper(n: usize) -> CscMatrix {
    let mut t = TripletMatrix::new(n, n);
    for j in 0..n {
        if j > 0 {
            t.push(j - 1, j, -1.0).expect("in range");
        }
        t.push(j, j, 4.0).expect("in range");
    }
    CscMatrix::from_triplets(&t).expect("valid tridiagonal")
}

/// Banded rectangular matrix with ~`band` entries per column.
fn banded(nrows: usize, ncols: usize, band: usize, rng: &mut Rng) -> CscMatrix {
    let mut t = TripletMatrix::new(nrows, ncols);
    for j in 0..ncols {
        let center = j * nrows / ncols;
        let lo = center.saturating_sub(band / 2);
        let hi = (lo + band).min(nrows);
        for i in lo..hi {
            t.push(i, j, rng.next_f64()).expect("in range");
        }
    }
    CscMatrix::from_triplets(&t).expect("valid banded matrix")
}

/// Benchmarks the dense vector kernels at one size.
fn bench_vector_kernels(n: usize, out: &mut Vec<Measurement>) {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ n as u64);
    let x = rng.vec(n);
    let b = rng.vec(n);
    let c = rng.vec(n);
    let w = rng.vec(n);
    let l: Vec<f64> = x.iter().map(|&v| v - 0.5).collect();
    let u: Vec<f64> = x.iter().map(|&v| v + 0.5).collect();
    let mut buf = vec![0.0; n];

    let nf = n as f64;
    let mut push = |kernel, flops, ns_per_call| {
        out.push(Measurement {
            group: "vector",
            kernel,
            n,
            flops,
            ns_per_call,
        });
    };

    let ns = time_ns(inner_for(2.0 * nf), || {
        black_box(simd::dot(black_box(&x), black_box(&b)));
    });
    push("dot", 2.0 * nf, ns);

    buf.copy_from_slice(&x);
    let ns = time_ns(inner_for(2.0 * nf), || {
        simd::axpy_into(black_box(&mut buf), 1e-9, black_box(&b));
    });
    push("axpy_into", 2.0 * nf, ns);

    let ns = time_ns(inner_for(2.0 * nf), || {
        black_box(simd::norm_inf(black_box(&x)));
    });
    push("norm_inf", 2.0 * nf, ns);

    buf.copy_from_slice(&b);
    let ns = time_ns(inner_for(2.0 * nf), || {
        simd::project_box_into(black_box(&mut buf), black_box(&l), black_box(&u));
    });
    push("project_box_into", 2.0 * nf, ns);

    let ns = time_ns(inner_for(3.0 * nf), || {
        simd::add_prod_diff_into(
            black_box(&mut buf),
            black_box(&x),
            black_box(&w),
            black_box(&b),
            black_box(&c),
        );
    });
    push("add_prod_diff_into", 3.0 * nf, ns);
}

/// Benchmarks CSC SpMV / SpMVᵀ on one matrix.
fn bench_spmv(group: &'static str, a: &CscMatrix, out: &mut Vec<Measurement>) {
    let mut rng = Rng(0xd1b5_4a32_d192_ed03 ^ a.nnz() as u64);
    let x = rng.vec(a.ncols());
    let yt = rng.vec(a.nrows());
    let mut y = vec![0.0; a.nrows()];
    let mut z = vec![0.0; a.ncols()];
    let flops = 2.0 * a.nnz() as f64;

    let ns = time_ns(inner_for(flops), || {
        a.gaxpy_into(black_box(&x), black_box(&mut y));
    });
    out.push(Measurement {
        group,
        kernel: "spmv",
        n: a.ncols(),
        flops,
        ns_per_call: ns,
    });

    let ns = time_ns(inner_for(flops), || {
        a.gaxpy_t_into(black_box(&yt), black_box(&mut z));
    });
    out.push(Measurement {
        group,
        kernel: "spmv_t",
        n: a.ncols(),
        flops,
        ns_per_call: ns,
    });
}

/// Benchmarks the LDLᵀ triangular solve (L, D, Lᵀ sweeps).
fn bench_ldl_solve(n: usize, out: &mut Vec<Measurement>) {
    let a = tridiag_upper(n);
    let solver = LdlSolver::new(&a, Ordering::MinDegree).expect("SPD tridiagonal factors");
    let l_nnz = solver.factor().l_nnz();
    // L solve + D scale + Lᵀ solve: 2 flops per L entry in each sweep.
    let flops = (4 * l_nnz + n) as f64;
    let mut rng = Rng(0xa076_1d64_78bd_642f ^ n as u64);
    let b = rng.vec(n);
    let mut work = vec![0.0; n];
    let mut x = vec![0.0; n];

    let ns = time_ns(inner_for(flops), || {
        solver.solve_into(black_box(&b), black_box(&mut work), black_box(&mut x));
    });
    out.push(Measurement {
        group: "ldl",
        kernel: "ldl_solve",
        n,
        flops,
        ns_per_call: ns,
    });
}

/// Times the default fill-reducing ordering on one domain's KKT pattern
/// (`n` = KKT dimension). Ordering does no floating-point work: `flops`
/// is 0.
fn bench_order(domain: Domain, index: usize, out: &mut Vec<Measurement>) {
    let problem = instance(domain, index).problem;
    let rho = vec![0.1; problem.num_constraints()];
    let kkt = KktMatrix::assemble(problem.p(), problem.a(), Settings::default().sigma, &rho)
        .expect("suite KKT assembles");
    let ns = time_ns(1, || {
        black_box(order::compute(black_box(kkt.matrix()), Ordering::MinDegree).expect("square"));
    });
    out.push(Measurement {
        group: "order",
        kernel: "min_degree",
        n: kkt.dim(),
        flops: 0.0,
        ns_per_call: ns,
    });
}

/// Times one product `S·v` by the reduced PCG operator
/// `S = P + σI + Aᵀ diag(ρ) A` on one domain's instance (`n` = its
/// variable count): the matrix-free passes, and the assembled `S` when the
/// indirect backend's size guard admits it.
fn bench_reduced_operator(domain: Domain, index: usize, out: &mut Vec<Measurement>) {
    let problem = instance(domain, index).problem;
    let (n, m) = (problem.num_vars(), problem.num_constraints());
    let settings = Settings::with_backend(KktBackend::Indirect);
    let kkt = IndirectKkt::new(
        problem.p(),
        problem.a(),
        settings.sigma,
        &vec![0.1; m],
        settings.eps_pcg_min,
    );
    let mut rng = Rng(0x1319_8a2e_0370_7344 ^ n as u64);
    let v = rng.vec(n);
    let mut sv = vec![0.0; n];
    let mut az = vec![0.0; m];
    // P·v (both triangles), σv, A·v, ρ∘(Av), Aᵀ(ρ∘Av).
    let flops = (4 * (problem.p().nnz() + problem.a().nnz()) + 2 * n + m) as f64;
    let ns = time_ns(inner_for(flops), || {
        kkt.apply_matrix_free(black_box(&v), black_box(&mut sv), &mut az);
    });
    out.push(Measurement {
        group: "reduced_operator",
        kernel: "matrix_free",
        n,
        flops,
        ns_per_call: ns,
    });
    if let Some(s) = kkt.reduced_matrix() {
        let flops = 2.0 * s.nnz() as f64;
        let ns = time_ns(inner_for(flops), || {
            s.spmv_t_into(black_box(&v), black_box(&mut sv));
        });
        out.push(Measurement {
            group: "reduced_operator",
            kernel: "assembled",
            n,
            flops,
            ns_per_call: ns,
        });
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let vector_sizes: &[usize] = if smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let (band_n, ldl_n) = if smoke { (2_000, 500) } else { (10_000, 5_000) };

    let mut ms: Vec<Measurement> = Vec::new();
    for &n in vector_sizes {
        bench_vector_kernels(n, &mut ms);
    }
    let mut rng = Rng(0x243f_6a88_85a3_08d3);
    let a = banded(band_n, band_n, 16, &mut rng);
    bench_spmv("sparse_banded", &a, &mut ms);
    let domain_index = if smoke { 0 } else { 9 };
    let mut domain_dims: Vec<(Domain, usize, usize, usize)> = Vec::new();
    for domain in Domain::all() {
        let spec = instance(domain, domain_index);
        let am = spec.problem.a();
        domain_dims.push((domain, am.nrows(), am.ncols(), am.nnz()));
        bench_spmv(domain.name(), am, &mut ms);
    }
    for domain in Domain::all() {
        bench_reduced_operator(domain, domain_index, &mut ms);
    }
    bench_ldl_solve(ldl_n, &mut ms);
    for domain in Domain::all() {
        bench_order(domain, if smoke { 10 } else { 19 }, &mut ms);
    }

    // ---- report ----------------------------------------------------------
    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    let mut json = String::from("{\"bench\":\"kernels\",");
    let _ = write!(
        json,
        "\"mode\":\"{}\",\"host\":{{\"cores\":{}}},\"kernels\":[",
        if smoke { "smoke" } else { "full" },
        cores,
    );
    for (i, m) in ms.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"group\":\"{}\",\"kernel\":\"{}\",\"n\":{},\"flops\":",
            m.group, m.kernel, m.n,
        );
        write_f64(&mut json, m.flops);
        json.push_str(",\"ns_per_call\":");
        write_f64(&mut json, m.ns_per_call);
        json.push_str(",\"gflops\":");
        write_f64(&mut json, m.gflops());
        json.push('}');
    }
    json.push_str("],\"domains\":[");
    for (i, (domain, nrows, ncols, nnz)) in domain_dims.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"domain\":\"{domain}\",\"index\":{domain_index},\
             \"rows\":{nrows},\"cols\":{ncols},\"nnz\":{nnz}}}",
        );
    }
    json.push_str("]}");

    println!("{json}");
    if smoke {
        // Smoke runs gate the report schema; only the full run refreshes
        // the committed baseline.
        mib_trace::validate_json(&json).expect("kernel report must be valid JSON");
        eprintln!("(smoke mode: results/BENCH_kernels.json not rewritten)");
    } else {
        mib_bench::publish("BENCH_kernels.json", &json);
    }
}
