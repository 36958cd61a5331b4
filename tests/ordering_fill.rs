//! Fill of the default KKT ordering against pinned reference counts.
//!
//! The reference is `fill_in(MinDegree)` of the exact-external-degree
//! minimum-degree ordering that approximate minimum degree replaced, on
//! the KKT pattern `Solver::new` factors. Approximate degrees may pick
//! different pivots, but must stay within 5 % on each instance and 1 % on
//! the whole set.

use mib::problems::{instance, Domain};
use mib::qp::kkt::KktMatrix;
use mib::sparse::order::{fill_in, Ordering};

/// `(domain, index, L nonzeros)` of the exact-degree ordering.
const REFERENCE: [(Domain, usize, usize); 25] = [
    (Domain::Portfolio, 0, 59),
    (Domain::Portfolio, 5, 177),
    (Domain::Portfolio, 10, 667),
    (Domain::Portfolio, 15, 2452),
    (Domain::Portfolio, 19, 7982),
    (Domain::Lasso, 0, 136),
    (Domain::Lasso, 5, 446),
    (Domain::Lasso, 10, 1620),
    (Domain::Lasso, 15, 6248),
    (Domain::Lasso, 19, 18886),
    (Domain::Huber, 0, 188),
    (Domain::Huber, 5, 548),
    (Domain::Huber, 10, 1561),
    (Domain::Huber, 15, 5246),
    (Domain::Huber, 19, 13927),
    (Domain::Mpc, 0, 240),
    (Domain::Mpc, 5, 563),
    (Domain::Mpc, 10, 1816),
    (Domain::Mpc, 15, 4560),
    (Domain::Mpc, 19, 11662),
    (Domain::Svm, 0, 142),
    (Domain::Svm, 5, 500),
    (Domain::Svm, 10, 1894),
    (Domain::Svm, 15, 7299),
    (Domain::Svm, 19, 21975),
];

#[test]
fn amd_fill_stays_within_the_exact_degree_reference() {
    let (mut total, mut reference_total) = (0, 0);
    for (domain, index, reference) in REFERENCE {
        let problem = instance(domain, index).problem;
        let rho = vec![0.1; problem.num_constraints()];
        let kkt = KktMatrix::assemble(problem.p(), problem.a(), 1e-6, &rho).expect("valid KKT");
        let fill = fill_in(kkt.matrix(), Ordering::MinDegree).expect("square");
        assert!(
            fill * 100 <= reference * 105,
            "{domain}[{index}]: {fill} L nonzeros against {reference}"
        );
        total += fill;
        reference_total += reference;
    }
    assert!(
        total * 100 <= reference_total * 101,
        "{total} L nonzeros in all against {reference_total}"
    );
}
