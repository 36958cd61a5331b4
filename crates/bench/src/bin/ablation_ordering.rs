//! Ablation: fill-reducing ordering for the direct KKT factorization.
//!
//! Quantifies what the ordering buys under natural, RCM and approximate
//! minimum-degree (AMD) orderings: factor fill, factorization FLOPs,
//! on-machine factorization cycles, and the elimination-tree height (the
//! longest chain of dependent columns, which bounds how far the
//! factorization and the triangular solves can overlap).

use std::fmt::Write as _;

use mib_compiler::factor::{factor_kernel, plan_factor_exact};
use mib_compiler::{schedule, Allocator, KernelBuilder, ScheduleOptions};
use mib_core::MibConfig;
use mib_problems::{instance, Domain};
use mib_qp::kkt::KktMatrix;
use mib_sparse::ldl::LdlSymbolic;
use mib_sparse::order::{compute, Ordering};

fn main() {
    let config = MibConfig::c32();
    let mut body = String::new();
    body.push_str("== Ablation: fill-reducing ordering for the KKT factorization ==\n\n");
    for domain in [Domain::Portfolio, Domain::Mpc, Domain::Lasso] {
        let inst = instance(domain, 6);
        let pr = &inst.problem;
        let rho = vec![0.1; pr.num_constraints()];
        let kkt = KktMatrix::assemble(pr.p(), pr.a(), 1e-6, &rho).expect("valid");
        let _ = writeln!(
            body,
            "--- {domain} instance 6 (KKT dim {}, nnz {}) ---",
            kkt.dim(),
            kkt.matrix().nnz()
        );
        let _ = writeln!(
            body,
            "{:>12} {:>10} {:>12} {:>14} {:>12}",
            "ordering", "L nnz", "factor FLOPs", "factor cycles", "etree height"
        );
        for method in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            let perm = compute(kkt.matrix(), method).expect("square");
            let permuted = perm.sym_perm_upper(kkt.matrix()).expect("square");
            let sym = LdlSymbolic::new(&permuted).expect("symmetric");
            let f = sym.factor(&permuted).expect("quasi-definite");
            let mut b = KernelBuilder::new("factor", config.width, config.latency());
            let mut alloc = Allocator::new(config.width);
            let (fl, y) = plan_factor_exact(&permuted, &sym, &mut alloc);
            factor_kernel(&mut b, &permuted, &sym, &fl, y);
            let s = schedule(&b.finish(), ScheduleOptions::default());
            let height = sym.etree().heights().iter().max().map_or(0, |h| h + 1);
            let _ = writeln!(
                body,
                "{:>12} {:>10} {:>12} {:>14} {:>12}",
                format!("{method:?}"),
                sym.l_nnz(),
                f.flops(),
                s.slots(),
                height
            );
        }
        body.push('\n');
    }
    body.push_str("Minimum degree minimizes fill (and therefore both FLOPs and cycles).\n");
    body.push_str("MinDegree is approximate minimum degree (Amestoy-Davis-Duff AMD), the\n");
    body.push_str("ordering the paper's compiler stack applies.\n");
    mib_bench::emit_report("ablation_ordering", &body);
}
