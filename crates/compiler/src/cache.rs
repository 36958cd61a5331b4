//! Compiled-program cache for parametric re-solves.
//!
//! The MIB programs emitted by [`crate::lower`] are *pattern-specific but
//! value-generic*: the setup / iteration / PCG / check schedules depend on
//! the sparsity patterns of `P` and `A` (plus the matrix values they stream
//! from HBM), the machine configuration, and the handful of settings that
//! shape the algorithm (`σ`, `α`, the per-constraint `ρ` classification).
//! The only program whose contents change when just the **vectors** `q`,
//! `l`, `u` change is the one-time *load* program.
//!
//! [`ProgramCache`] exploits this for the paper's target workload —
//! "millions of QPs with the same sparsity pattern": the first solve of a
//! pattern pays the full lowering cost (symbolic KKT analysis, fill-reducing
//! ordering, elimination tree, instruction scheduling); every subsequent
//! same-pattern solve clones the cached schedules and regenerates only the
//! cheap load program via `lower::build_load_schedule`.
//!
//! # What counts as "the same pattern"
//!
//! The cache key covers everything that influences the non-load programs:
//!
//! * the dimensions and the full structure **and values** of `P` and `A`
//!   (matrix values stream through the setup/iteration HBM feeds, so a
//!   value change there requires a recompile),
//! * the KKT backend and the machine configuration,
//! * `σ` and `α`, which are baked into instruction immediates,
//! * the per-constraint `ρ` vector, which is derived from the *bound
//!   classification* (loose / equality / inequality) — so bounds may vary
//!   freely across cache hits as long as no constraint changes class.
//!
//! Only `q`, `l`, `u` may differ on a hit — exactly the parameters
//! [`mib_qp::Solver::update_q`] and [`mib_qp::Solver::update_bounds`] vary.

use std::collections::HashMap;

use mib_core::MibConfig;
use mib_qp::{Problem, QpError, Settings};
use mib_sparse::CscMatrix;

use crate::lower::{build_load_schedule, lower, rho_vec_for, LoweredQp};

/// Caches [`LoweredQp`] programs keyed by sparsity pattern (and the other
/// program-shaping inputs; see the module docs) so parametric re-solves
/// skip recompilation. The cache is unbounded; [`ProgramCache::clear`]
/// drops every entry.
#[derive(Debug, Default)]
pub struct ProgramCache {
    entries: HashMap<Vec<u64>, LoweredQp>,
    hits: u64,
    misses: u64,
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// Compiles `problem` for the MIB machine, reusing cached schedules
    /// when an equivalent problem (same patterns, matrix values, backend,
    /// configuration and `ρ` classification) was lowered before.
    ///
    /// On a hit, only the value-dependent load program is rebuilt; the
    /// setup, iteration, PCG and check schedules are cloned from the cache.
    /// On a miss the full [`lower`] runs and the result is cached.
    ///
    /// # Errors
    ///
    /// Same contract as [`lower`]: invalid settings or a failed symbolic
    /// KKT analysis.
    pub fn lower_cached(
        &mut self,
        problem: &Problem,
        settings: &Settings,
        config: MibConfig,
    ) -> Result<LoweredQp, QpError> {
        settings.validate()?;
        let tracing = mib_trace::enabled();
        let key = cache_key(problem, settings, config);
        if let Some(cached) = self.entries.get(&key) {
            self.hits += 1;
            mib_trace::record_if(
                tracing,
                mib_trace::Event::CacheAccess {
                    name: "program_cache",
                    hit: true,
                },
            );
            let mut lowered = cached.clone();
            lowered.load = build_load_schedule(problem, settings, config);
            crate::verify::debug_assert_certified("load(cache-hit)", &lowered.load, &config);
            return Ok(lowered);
        }
        let lowered = lower(problem, settings, config)?;
        self.misses += 1;
        mib_trace::record_if(
            tracing,
            mib_trace::Event::CacheAccess {
                name: "program_cache",
                hit: false,
            },
        );
        self.entries.insert(key, lowered.clone());
        Ok(lowered)
    }

    /// Number of lowering requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lowering requests that ran the full compiler.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct compiled patterns currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no compiled programs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all cached programs and resets every counter.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

/// Builds the canonical key stream for a lowering request.
///
/// The key is the data itself (length-prefixed sections, floats as IEEE-754
/// bits), not a digest, so distinct inputs can never collide.
fn cache_key(problem: &Problem, settings: &Settings, config: MibConfig) -> Vec<u64> {
    let mut key = Vec::new();
    key.push(problem.num_vars() as u64);
    key.push(problem.num_constraints() as u64);
    push_matrix(&mut key, problem.p());
    push_matrix(&mut key, problem.a());
    key.push(settings.backend as u64);
    key.push(settings.sigma.to_bits());
    key.push(settings.alpha.to_bits());
    let rho_vec = rho_vec_for(problem, settings);
    key.push(rho_vec.len() as u64);
    key.extend(rho_vec.iter().map(|r| r.to_bits()));
    key.push(config.width as u64);
    key.push(config.bank_depth as u64);
    key.push(config.clock_hz.to_bits());
    key
}

fn push_matrix(key: &mut Vec<u64>, m: &CscMatrix) {
    key.push(m.col_ptr().len() as u64);
    key.extend(m.col_ptr().iter().map(|&p| p as u64));
    key.push(m.row_ind().len() as u64);
    key.extend(m.row_ind().iter().map(|&i| i as u64));
    key.extend(m.values().iter().map(|v| v.to_bits()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_core::hbm::HbmStream;
    use mib_core::machine::{HazardPolicy, Machine};
    use mib_qp::KktBackend;

    fn config() -> MibConfig {
        MibConfig {
            width: 8,
            bank_depth: 1 << 14,
            clock_hz: 1e6,
        }
    }

    fn problem_with(q: Vec<f64>, u_cap: f64) -> Problem {
        let p = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        Problem::new(p, q, a, vec![1.0, 0.0, 0.0], vec![1.0, u_cap, u_cap]).unwrap()
    }

    #[test]
    fn same_pattern_new_values_hits() {
        let mut cache = ProgramCache::new();
        let settings = Settings::default();
        let first = cache
            .lower_cached(&problem_with(vec![1.0, 1.0], 0.7), &settings, config())
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        // New q and new (same-class) bounds: must be a hit.
        let second = cache
            .lower_cached(&problem_with(vec![-2.0, 0.5], 0.9), &settings, config())
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);

        // Non-load schedules are reused verbatim; the load program carries
        // the new vector values.
        assert_eq!(first.setup.hbm, second.setup.hbm);
        assert_eq!(first.iteration.hbm, second.iteration.hbm);
        assert_eq!(first.iteration_cycles(), second.iteration_cycles());
        assert_eq!(first.load.program.len(), second.load.program.len());
        assert_ne!(
            first.load.hbm, second.load.hbm,
            "load must reflect the new q/u"
        );
    }

    #[test]
    fn cached_load_matches_fresh_lowering_exactly() {
        let mut cache = ProgramCache::new();
        let settings = Settings::default();
        cache
            .lower_cached(&problem_with(vec![1.0, 1.0], 0.7), &settings, config())
            .unwrap();
        let p2 = problem_with(vec![-1.0, 2.0], 0.8);
        let cached = cache.lower_cached(&p2, &settings, config()).unwrap();
        let fresh = lower(&p2, &settings, config()).unwrap();
        // Bitwise identity of every program: a cache hit must be
        // indistinguishable from a fresh lowering.
        assert_eq!(cached.load.program, fresh.load.program);
        assert_eq!(cached.load.hbm, fresh.load.hbm);
        assert_eq!(cached.setup.program, fresh.setup.program);
        assert_eq!(cached.setup.hbm, fresh.setup.hbm);
        assert_eq!(cached.iteration.program, fresh.iteration.program);
        assert_eq!(cached.iteration.hbm, fresh.iteration.hbm);
        assert_eq!(cached.check.program, fresh.check.program);
        assert_eq!(cached.check.hbm, fresh.check.hbm);
    }

    #[test]
    fn cache_hit_programs_verify_clean() {
        let mut cache = ProgramCache::new();
        let settings = Settings::default();
        cache
            .lower_cached(&problem_with(vec![1.0, 1.0], 0.7), &settings, config())
            .unwrap();
        let lowered = cache
            .lower_cached(&problem_with(vec![0.25, -3.0], 0.65), &settings, config())
            .unwrap();
        assert_eq!(cache.hits(), 1);
        for (name, s) in [
            ("load", &lowered.load),
            ("setup", &lowered.setup),
            ("iteration", &lowered.iteration),
            ("check", &lowered.check),
        ] {
            let strict = mib_verify::predict(
                &s.program,
                s.hbm.len(),
                &lowered.config,
                HazardPolicy::Strict,
            );
            assert!(strict.is_ok(), "{name}: {strict:?}");
        }
    }

    #[test]
    fn changed_pattern_misses() {
        let mut cache = ProgramCache::new();
        let settings = Settings::default();
        cache
            .lower_cached(&problem_with(vec![1.0, 1.0], 0.7), &settings, config())
            .unwrap();
        // Different A pattern (extra nonzero).
        let p = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 0.5, 1.0, 0.0, 1.0]);
        let other = Problem::new(
            p,
            vec![1.0, 1.0],
            a,
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.7, 0.7],
        )
        .unwrap();
        cache.lower_cached(&other, &settings, config()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn changed_matrix_values_miss() {
        let mut cache = ProgramCache::new();
        let settings = Settings::default();
        cache
            .lower_cached(&problem_with(vec![1.0, 1.0], 0.7), &settings, config())
            .unwrap();
        // Same pattern, different P values: setup/iteration streams change,
        // so this must recompile.
        let p = CscMatrix::from_dense(2, 2, &[5.0, 1.0, 0.0, 2.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        let other = Problem::new(
            p,
            vec![1.0, 1.0],
            a,
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.7, 0.7],
        )
        .unwrap();
        cache.lower_cached(&other, &settings, config()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn changed_rho_classification_misses() {
        let mut cache = ProgramCache::new();
        let settings = Settings::default();
        cache
            .lower_cached(&problem_with(vec![1.0, 1.0], 0.7), &settings, config())
            .unwrap();
        // Turning the inequality rows into equalities changes the rho
        // vector, hence the KKT values streamed by setup — full recompile.
        let p = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        let eq = Problem::new(
            p,
            vec![1.0, 1.0],
            a,
            vec![1.0, 0.3, 0.3],
            vec![1.0, 0.3, 0.3],
        )
        .unwrap();
        cache.lower_cached(&eq, &settings, config()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn indirect_hit_refreshes_preconditioner_load() {
        let mut cache = ProgramCache::new();
        let settings = Settings::with_backend(KktBackend::Indirect);
        cache
            .lower_cached(&problem_with(vec![1.0, 1.0], 0.7), &settings, config())
            .unwrap();
        let p2 = problem_with(vec![0.5, -0.5], 0.7);
        let cached = cache.lower_cached(&p2, &settings, config()).unwrap();
        assert_eq!(cache.hits(), 1);
        let fresh = lower(&p2, &settings, config()).unwrap();
        assert_eq!(cached.load.hbm, fresh.load.hbm);
        assert_eq!(cached.pcg_iteration.hbm, fresh.pcg_iteration.hbm);
    }

    #[test]
    fn cached_programs_execute_hazard_free() {
        let mut cache = ProgramCache::new();
        let settings = Settings::default();
        cache
            .lower_cached(&problem_with(vec![1.0, 1.0], 0.7), &settings, config())
            .unwrap();
        let lowered = cache
            .lower_cached(&problem_with(vec![-1.0, 0.3], 0.6), &settings, config())
            .unwrap();
        let mut m = Machine::new(lowered.config);
        for s in [
            &lowered.load,
            &lowered.setup,
            &lowered.iteration,
            &lowered.check,
        ] {
            let mut hbm = HbmStream::new(s.hbm.clone());
            m.run(&s.program, &mut hbm, HazardPolicy::Strict)
                .expect("cache-refreshed programs must be hazard-free");
        }
    }

    #[test]
    fn clear_resets_counters() {
        let mut cache = ProgramCache::new();
        let settings = Settings::default();
        cache
            .lower_cached(&problem_with(vec![1.0, 1.0], 0.7), &settings, config())
            .unwrap();
        cache
            .lower_cached(&problem_with(vec![2.0, 2.0], 0.7), &settings, config())
            .unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }
}
