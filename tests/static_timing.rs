//! Exactness proof for the static timing analyzer, over the benchmark
//! suite.
//!
//! [`mib::core::timing::predict`] claims to reproduce [`Machine::run`]
//! **bitwise** without computing any functional state: total cycles and
//! every `ExecStats` counter. This test replays the
//! verify_schedules program set — sampled benchmark instances of the
//! five domains, both KKT backends, all compiled programs — and asserts
//! full-struct equality under both hazard policies, plus agreement
//! between the compiler's [`static_cost`] oracle and the simulator.
//!
//! Debug-mode lowering re-verifies every schedule, so the default run
//! samples one instance per domain (40 programs); set `MIB_TIMING_FULL=1`
//! to replay the full 120-program verify_schedules sample in release
//! mode (`scripts/verify_schedules.sh` gates the same set every run).

use mib::compiler::lower::lower;
use mib::compiler::static_cost;
use mib::core::critical_path::critical_path;
use mib::core::hbm::HbmStream;
use mib::core::machine::{HazardPolicy, Machine};
use mib::core::timing;
use mib::core::MibConfig;
use mib::problems::{instance, Domain, INSTANCES_PER_DOMAIN};
use mib::qp::{KktBackend, Settings};

#[test]
fn static_prediction_is_bitwise_exact_across_the_suite() {
    let config = MibConfig::c32();
    let full = std::env::var_os("MIB_TIMING_FULL").is_some();
    let indices: &[usize] = if full {
        &[0, 9, INSTANCES_PER_DOMAIN - 1]
    } else {
        &[0]
    };
    let mut programs_checked = 0usize;
    for domain in Domain::all() {
        for &index in indices {
            let inst = instance(domain, index);
            for backend in [KktBackend::Direct, KktBackend::Indirect] {
                let settings = Settings::with_backend(backend);
                let lowered =
                    lower(&inst.problem, &settings, config).expect("benchmark instance lowers");
                let mut m = Machine::new(config);
                for (name, s) in [
                    ("load", &lowered.load),
                    ("setup", &lowered.setup),
                    ("iteration", &lowered.iteration),
                    ("pcg", &lowered.pcg_iteration),
                    ("check", &lowered.check),
                ] {
                    if s.program.is_empty() {
                        continue;
                    }
                    let label = format!("{domain}[{index}]/{backend:?}/{name}");
                    for policy in [HazardPolicy::Strict, HazardPolicy::Stall] {
                        let predicted = timing::predict(&s.program, s.hbm.len(), &config, policy)
                            .unwrap_or_else(|e| panic!("{label}: prediction failed: {e}"));
                        let mut hbm = HbmStream::new(s.hbm.clone());
                        let stats = m
                            .run(&s.program, &mut hbm, policy)
                            .unwrap_or_else(|e| panic!("{label}: {e}"));
                        assert_eq!(
                            predicted.stats, stats,
                            "{label} ({policy:?}): predicted stats must equal the machine's"
                        );
                    }
                    // The compiler's cost oracle is the same predictor; its
                    // cycles and the critical path's total must agree with
                    // the simulator too.
                    let cost = static_cost(s, &config).expect("certified schedule has a cost");
                    let stats = m
                        .run(
                            &s.program,
                            &mut HbmStream::new(s.hbm.clone()),
                            HazardPolicy::Strict,
                        )
                        .unwrap();
                    assert_eq!(cost.cycles, stats.cycles, "{label}: oracle cycles");
                    assert_eq!(cost.slots, stats.slots, "{label}: oracle slots");
                    let cp = critical_path(&s.program, &config);
                    assert_eq!(cp.cycles, stats.cycles, "{label}: critical-path total");
                    assert_eq!(cp.stall_cycles, 0, "{label}: certified => tight hops only");
                    programs_checked += 1;
                }
            }
        }
    }
    // 5 domains x indices x (direct: 4 programs + indirect: 4 programs).
    let expected = 5 * indices.len() * 8;
    assert_eq!(
        programs_checked, expected,
        "program set unexpectedly changed"
    );
}
