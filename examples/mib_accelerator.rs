//! Running a QP on the simulated Multi-Issue Butterfly machine itself:
//! compile the problem's sparsity pattern to network-instruction schedules,
//! execute the ADMM iteration cycle-accurately, and compare the on-machine
//! solution and timing against the reference solver and the baseline
//! platform models.
//!
//! ```sh
//! cargo run --release --example mib_accelerator
//! ```

use mib::compiler::lower::lower;
use mib::core::hbm::HbmStream;
use mib::core::machine::{HazardPolicy, Machine};
use mib::core::MibConfig;
use mib::platforms::{CpuModel, CpuVariant, PlatformModel, WorkSummary};
use mib::problems::mpc;
use mib::qp::{Settings, Solver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let inst = mpc(4, 2, 8, 3);
    let problem = inst.problem.clone();
    let settings = Settings {
        scaling_iters: 0, // the lowered program models the unscaled problem
        adaptive_rho: false,
        eps_abs: 1e-6,
        eps_rel: 1e-6,
        ..Settings::default()
    };

    // Reference solve (exact iterate trajectory + work profile).
    let mut reference = Solver::new(problem.clone(), settings.clone())?;
    let result = reference.solve();
    println!(
        "reference: {} in {} iterations",
        result.status, result.iterations
    );

    // Compile for the C=32 prototype.
    let config = MibConfig::c32();
    let lowered = lower(&problem, &settings, config)?;
    println!(
        "compiled schedules: load {} cy, factor {} cy, iteration {} cy, check {} cy",
        lowered.load_cycles(),
        lowered.setup_cycles(),
        lowered.iteration_cycles(),
        lowered.check_cycles()
    );

    // Execute on the machine: load + factor once, then replay the
    // iteration program (strict hazard checking: the schedule must be
    // provably hazard-free).
    let mut machine = Machine::new(config);
    for sched in [&lowered.load, &lowered.setup] {
        machine.run(
            &sched.program,
            &mut HbmStream::new(sched.hbm.clone()),
            HazardPolicy::Strict,
        )?;
    }
    let mut stats = mib::core::stats::ExecStats::default();
    for _ in 0..result.iterations {
        let s = machine.run(
            &lowered.iteration.program,
            &mut HbmStream::new(lowered.iteration.hbm.clone()),
            HazardPolicy::Strict,
        )?;
        stats.merge(&s);
    }
    println!(
        "machine executed {} slots over {} cycles ({} stalls — must be 0), utilization {:.1}%",
        stats.slots,
        stats.cycles,
        stats.stall_cycles,
        100.0 * stats.utilization(config.total_nodes())
    );
    assert_eq!(stats.stall_cycles, 0, "compiled schedules are hazard-free");

    // Compare the on-machine iterate with the reference solution.
    let n = problem.num_vars();
    // x lives at the 6th allocated vector (q,l,u,rho,rho_inv,x) — recompute
    // its layout the same way the lowering did.
    let mut alloc = mib::compiler::Allocator::new(config.width);
    let m = problem.num_constraints();
    let (_q, _l, _u, _rho, _ri) = (
        alloc.alloc(n),
        alloc.alloc(m),
        alloc.alloc(m),
        alloc.alloc(m),
        alloc.alloc(m),
    );
    let x_layout = alloc.alloc(n);
    let mut max_err = 0.0f64;
    for e in 0..n {
        let got = machine.regs().read(x_layout.bank(e), x_layout.addr(e))?;
        max_err = max_err.max((got - result.x[e]).abs());
    }
    println!("max |x_machine - x_reference| = {max_err:.2e}");
    assert!(max_err < 1e-4, "on-machine ADMM must track the reference");

    // Timing: deterministic MIB cycles vs the modelled CPU baseline.
    let mib_s = lowered.total_seconds(
        result.iterations,
        0,
        result.profile.checks,
        result.profile.factor_count,
    );
    let work = WorkSummary::from_result(&problem, &settings, &result);
    let cpu_s = CpuModel::new(CpuVariant::Builtin).solve_time(&work);
    println!(
        "end-to-end: MIB C=32 {:.3} ms (deterministic) vs CPU model {:.3} ms -> {:.1}x",
        mib_s * 1e3,
        cpu_s * 1e3,
        cpu_s / mib_s
    );
    Ok(())
}
