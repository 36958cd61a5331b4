//! End-to-end machine integration: compile benchmark problems to MIB
//! schedules, execute them cycle-accurately under strict hazard checking,
//! and verify the on-machine ADMM tracks the reference solver.

use mib::compiler::lower::lower;
use mib::compiler::Allocator;
use mib::core::hbm::HbmStream;
use mib::core::machine::{HazardPolicy, Machine};
use mib::core::MibConfig;
use mib::problems::{instance, mpc, Domain};
use mib::qp::{KktBackend, QpError, Settings, Solver};

fn mib_settings(backend: KktBackend) -> Settings {
    let mut s = Settings::with_backend(backend);
    // The lowered program models the unscaled, fixed-rho algorithm.
    s.scaling_iters = 0;
    s.adaptive_rho = false;
    s.eps_abs = 1e-6;
    s.eps_rel = 1e-6;
    s
}

/// Runs the direct-variant iteration program for `iters` iterations and
/// returns the machine's x vector.
fn run_direct_on_machine(
    problem: &mib::qp::Problem,
    settings: &Settings,
    config: MibConfig,
    iters: usize,
) -> Vec<f64> {
    let lowered = lower(problem, settings, config).expect("lowering succeeds");
    let mut machine = Machine::new(config);
    for sched in [&lowered.load, &lowered.setup] {
        machine
            .run(
                &sched.program,
                &mut HbmStream::new(sched.hbm.clone()),
                HazardPolicy::Strict,
            )
            .expect("hazard-free");
    }
    for _ in 0..iters {
        machine
            .run(
                &lowered.iteration.program,
                &mut HbmStream::new(lowered.iteration.hbm.clone()),
                HazardPolicy::Strict,
            )
            .expect("hazard-free");
    }
    // Recover the x layout (6th allocation in alloc_common order).
    let n = problem.num_vars();
    let m = problem.num_constraints();
    let mut alloc = Allocator::new(config.width);
    for len in [n, m, m, m, m] {
        alloc.alloc(len);
    }
    let x = alloc.alloc(n);
    (0..n)
        .map(|e| machine.regs().read(x.bank(e), x.addr(e)).expect("in range"))
        .collect()
}

#[test]
fn on_machine_admm_tracks_reference_mpc() {
    let inst = mpc(3, 2, 5, 11);
    let settings = mib_settings(KktBackend::Direct);
    let reference = Solver::new(inst.problem.clone(), settings.clone())
        .unwrap()
        .solve();
    assert!(reference.status.is_solved());
    let got = run_direct_on_machine(
        &inst.problem,
        &settings,
        MibConfig::c16(),
        reference.iterations.max(100),
    );
    for (g, w) in got.iter().zip(&reference.x) {
        assert!((g - w).abs() < 1e-3, "machine {g} vs reference {w}");
    }
}

#[test]
fn on_machine_admm_tracks_reference_portfolio() {
    let pr = mib::problems::portfolio(24, 3, 5);
    let settings = mib_settings(KktBackend::Direct);
    let reference = Solver::new(pr.clone(), settings.clone()).unwrap().solve();
    assert!(reference.status.is_solved());
    let got = run_direct_on_machine(
        &pr,
        &settings,
        MibConfig::c32(),
        reference.iterations.max(150),
    );
    for (g, w) in got.iter().zip(&reference.x) {
        assert!((g - w).abs() < 1e-3, "machine {g} vs reference {w}");
    }
}

#[test]
fn all_domain_programs_are_hazard_free_both_variants() {
    for domain in Domain::all() {
        let inst = instance(domain, 0);
        for backend in [KktBackend::Direct, KktBackend::Indirect] {
            let settings = mib_settings(backend);
            let lowered = lower(&inst.problem, &settings, MibConfig::c16())
                .unwrap_or_else(|e| panic!("{domain}: {e}"));
            let mut machine = Machine::new(MibConfig::c16());
            for sched in [
                &lowered.load,
                &lowered.setup,
                &lowered.iteration,
                &lowered.pcg_iteration,
                &lowered.check,
            ] {
                if sched.program.is_empty() {
                    continue;
                }
                let stats = machine
                    .run(
                        &sched.program,
                        &mut HbmStream::new(sched.hbm.clone()),
                        HazardPolicy::Stall,
                    )
                    .unwrap_or_else(|e| panic!("{domain} ({}): {e}", backend.name()));
                assert_eq!(
                    stats.stall_cycles,
                    0,
                    "{domain} ({}): schedule must be stall-free",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn wider_machine_uses_fewer_iteration_cycles() {
    let inst = instance(Domain::Svm, 4);
    let settings = mib_settings(KktBackend::Indirect);
    let narrow = lower(&inst.problem, &settings, MibConfig::with_width(8)).unwrap();
    let wide = lower(&inst.problem, &settings, MibConfig::c32()).unwrap();
    assert!(
        wide.pcg_cycles() < narrow.pcg_cycles(),
        "C=32 ({}) should beat C=8 ({}) on PCG cycles",
        wide.pcg_cycles(),
        narrow.pcg_cycles()
    );
}

#[test]
fn schedules_are_value_generic_across_instances() {
    // Two problem instances sharing a sparsity pattern (same structure,
    // different numeric values — the paper's portfolio-backtest scenario)
    // must compile to identical slot counts; only the HBM stream differs.
    // That is the amortization property the compile time relies on.
    let a = mib::problems::portfolio(30, 3, 1);
    let (p0, q0, a0, l0, u0) = a.clone().into_parts();
    let b = mib::qp::Problem::new(
        p0.map_values(|v| 1.5 * v),
        q0.iter().map(|&v| 0.5 * v).collect(),
        a0.map_values(|v| if v == 1.0 { v } else { 0.7 * v }),
        l0,
        u0,
    )
    .unwrap();
    assert!(a.a().same_pattern(b.a()));
    let settings = mib_settings(KktBackend::Indirect);
    let la = lower(&a, &settings, MibConfig::c16()).unwrap();
    let lb = lower(&b, &settings, MibConfig::c16()).unwrap();
    assert_eq!(la.iteration.slots(), lb.iteration.slots());
    assert_eq!(la.pcg_iteration.slots(), lb.pcg_iteration.slots());
    assert_eq!(la.check.slots(), lb.check.slots());
}

/// A register layout deeper than the banks is refused at lowering time
/// with a typed error naming the words needed and available — in every
/// build profile, before any schedule addresses past the bank.
#[test]
fn bank_depth_overflow_is_a_lowering_error() {
    let problem = instance(Domain::Lasso, 5).problem;
    for backend in [KktBackend::Direct, KktBackend::Indirect] {
        let settings = mib_settings(backend);
        for bank_depth in [8, 64, 256] {
            let config = MibConfig {
                width: 32,
                bank_depth,
                ..MibConfig::c32()
            };
            let err = lower(&problem, &settings, config).err();
            assert!(
                matches!(&err, Some(QpError::InvalidSetting(msg))
                    if msg.contains("needs") && msg.ends_with(&format!("bank_depth is {bank_depth}"))),
                "{backend:?}, bank_depth {bank_depth}: {err:?}"
            );
        }
        assert!(lower(&problem, &settings, MibConfig::c32()).is_ok());
    }
}
