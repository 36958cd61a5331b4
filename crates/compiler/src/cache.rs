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
//! same-pattern solve *shares* every cached program, the load program
//! included. The load program's slots depend only on the dimensions, the
//! backend and the configuration, and its stream is a fixed permutation of
//! `q ‖ clamp(l) ‖ clamp(u) ‖ ρ ‖ ρ⁻¹` (‖ `M⁻¹` on the indirect variant).
//! The miss's lowering fills its own load stream through a map of that
//! permutation, and the entry keeps the map. A hit copies the cached
//! stream and writes its `q`, `l` and `u` words through the map: no
//! scheduling, decoding or prediction.
//!
//! A [`Program`](mib_core::program::Program) is reference-counted, so a
//! hit copies no instruction, and it carries its memos with it: the run
//! result and the decoded slots, and the static timing of its first
//! prediction. A hit's runs on the machine the miss ran on pay neither
//! the issue engine nor the decoding, only the decoded value stage, and
//! its predictions under the miss's key are memo reads.
//!
//! # What counts as "the same pattern"
//!
//! The cache key covers everything that influences the programs, except
//! the `q`, `l` and `u` words of the load stream:
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

use crate::lower::{lower_with_load_map, rho_vec_for, LoadMap, LoweredQp};

/// Caches [`LoweredQp`] programs keyed by sparsity pattern (and the other
/// program-shaping inputs; see the module docs) so parametric re-solves
/// skip recompilation. The cache is unbounded; [`ProgramCache::clear`]
/// drops every entry.
#[derive(Debug, Default)]
pub struct ProgramCache {
    entries: HashMap<Vec<u64>, Entry>,
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
    /// On a hit every program, `load` included, is shared with the cache
    /// entry and every HBM stream and slot map is copied; the copy of the
    /// load stream then takes `problem`'s `q`, `l` and `u` words. On a
    /// miss the full [`lower`](crate::lower::lower) runs and the cache
    /// keeps a copy that shares the returned programs.
    ///
    /// # Errors
    ///
    /// Same contract as [`lower`](crate::lower::lower): invalid settings
    /// or a failed symbolic KKT analysis.
    pub fn lower_cached(
        &mut self,
        problem: &Problem,
        settings: &Settings,
        config: MibConfig,
    ) -> Result<LoweredQp, QpError> {
        settings.validate()?;
        let key = cache_key(problem, settings, config);
        if let Some(entry) = self.entries.get(&key) {
            self.hits += 1;
            let mut lowered = entry.lowered.clone();
            entry.load_map.refill(&mut lowered.load.hbm, problem);
            return Ok(lowered);
        }
        let (lowered, load_map) = lower_with_load_map(problem, settings, config)?;
        self.misses += 1;
        let entry = Entry {
            lowered: lowered.clone(),
            load_map,
        };
        self.entries.insert(key, entry);
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

/// A cached lowering and the word map of its load stream.
#[derive(Debug)]
struct Entry {
    lowered: LoweredQp,
    load_map: LoadMap,
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
    use crate::layout::Allocator;
    use crate::lower::lower;
    use crate::schedule::Schedule;
    use mib_core::hbm::HbmStream;
    use mib_core::instruction::{LaneSource, OutMul};
    use mib_core::machine::{HazardPolicy, Machine};
    use mib_problems::{instance, Domain};
    use mib_qp::{KktBackend, INFTY};

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
            let strict = mib_core::timing::predict(
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

    /// `problem` with every `q` word moved.
    fn new_q(problem: &Problem) -> Problem {
        let (p, q, a, l, u) = problem.clone().into_parts();
        let q = q
            .iter()
            .enumerate()
            .map(|(i, v)| 0.75 * v - 0.125 * (1 + i % 3) as f64)
            .collect();
        Problem::new(p, q, a, l, u).unwrap()
    }

    /// `problem` with new bounds of the same class: equality rows move
    /// both bounds together, every other finite bound moves outwards, and
    /// every infinite side becomes `INFTY`, `∞` or `2·INFTY` by row, so
    /// the stream holds bounds at and past the clamp.
    fn moved_bounds(problem: &Problem) -> Problem {
        let (p, q, a, mut l, mut u) = problem.clone().into_parts();
        for (i, (lo, hi)) in l.iter_mut().zip(&mut u).enumerate() {
            let delta = 0.0625 * (1 + i % 5) as f64;
            let infinite = [INFTY, f64::INFINITY, 2.0 * INFTY][i % 3];
            if lo == hi {
                *lo += delta;
                *hi = *lo;
                continue;
            }
            *lo = if *lo <= -INFTY {
                -infinite
            } else {
                *lo - delta
            };
            *hi = if *hi >= INFTY { infinite } else { *hi + delta };
        }
        Problem::new(p, q, a, l, u).unwrap()
    }

    fn bits(words: &[f64]) -> Vec<u64> {
        words.iter().map(|w| w.to_bits()).collect()
    }

    /// Runs `accel`'s plan: load, the factorization, five iterations
    /// (each with a PCG iteration on the indirect variant), the check.
    fn run_plan(m: &mut Machine, l: &LoweredQp, label: &str) {
        let mut plan: Vec<&Schedule> = vec![&l.load, &l.setup];
        for _ in 0..5 {
            plan.extend([&l.iteration, &l.pcg_iteration]);
        }
        plan.push(&l.check);
        for s in plan.into_iter().filter(|s| !s.program.is_empty()) {
            let mut hbm = HbmStream::new(s.hbm.clone());
            m.run(&s.program, &mut hbm, HazardPolicy::Strict)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    /// Runs `lowered`'s load on a fresh machine: the first five vectors it
    /// allocates must hold `q`, `clamp(l)`, `clamp(u)`, `ρ` and `ρ⁻¹`
    /// exactly.
    fn assert_loads(lowered: &LoweredQp, problem: &Problem, settings: &Settings, label: &str) {
        let mut m = Machine::new(lowered.config);
        let mut hbm = HbmStream::new(lowered.load.hbm.clone());
        m.run(&lowered.load.program, &mut hbm, HazardPolicy::Strict)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let clamped = |v: &[f64]| v.iter().map(|b| b.clamp(-INFTY, INFTY)).collect();
        let rho = rho_vec_for(problem, settings);
        let rho_inv = rho.iter().map(|r| 1.0 / r).collect();
        let mut alloc = Allocator::new(lowered.config.width);
        for (name, want) in [
            ("q", problem.q().to_vec()),
            ("l", clamped(problem.l())),
            ("u", clamped(problem.u())),
            ("rho", rho),
            ("rho_inv", rho_inv),
        ] {
            let layout = alloc.alloc(want.len());
            let got: Vec<f64> = (0..want.len())
                .map(|e| m.regs().read(layout.bank(e), layout.addr(e)).unwrap())
                .collect();
            assert_eq!(bits(&got), bits(&want), "{label}: {name}");
        }
    }

    /// `accel`'s 25 lowerings: suite indices 0 and 3 of every domain at
    /// C = 32 in both variants, and index 0 at C = 16 direct.
    fn accel_specs() -> Vec<(Domain, usize, KktBackend, MibConfig)> {
        let mut specs = Vec::new();
        for domain in Domain::all() {
            for index in [0, 3] {
                specs.push((domain, index, KktBackend::Direct, MibConfig::c32()));
                specs.push((domain, index, KktBackend::Indirect, MibConfig::c32()));
            }
            specs.push((domain, 0, KktBackend::Direct, MibConfig::c16()));
        }
        assert_eq!(specs.len(), 25);
        specs
    }

    /// `accel`'s 25 lowerings (suite indices 0 and 3 at C = 32 in both
    /// variants, index 0 at C = 16 direct), each hit with a new `q` and
    /// with moved bounds: a hit's load program and stream equal a fresh
    /// lowering's bitwise, its load writes the problem's vectors, and the
    /// miss's plan then the hit's leave a machine's registers where the
    /// fresh lowering's plan leaves a fresh machine's.
    #[test]
    fn hits_match_fresh_lowerings_on_the_accel_programs() {
        for (domain, index, backend, config) in accel_specs() {
            let settings = Settings::with_backend(backend);
            let base = instance(domain, index).problem;
            let mut cache = ProgramCache::new();
            let miss = cache.lower_cached(&base, &settings, config).unwrap();
            for (what, problem) in [("new q", new_q(&base)), ("bounds", moved_bounds(&base))] {
                let label = format!("{domain}[{index}]/{backend:?}/C{}: {what}", config.width);
                let hit = cache.lower_cached(&problem, &settings, config).unwrap();
                assert_eq!(cache.misses(), 1, "{label}: a hit");
                let fresh = lower(&problem, &settings, config).unwrap();
                assert_eq!(hit.load.program, fresh.load.program, "{label}");
                assert_eq!(bits(&hit.load.hbm), bits(&fresh.load.hbm), "{label}");
                assert_loads(&hit, &problem, &settings, &label);
                let mut warm = Machine::new(config);
                run_plan(&mut warm, &miss, &label);
                run_plan(&mut warm, &hit, &label);
                let mut cold = Machine::new(config);
                run_plan(&mut cold, &fresh, &label);
                assert!(warm.regs() == cold.regs(), "{label}: registers");
            }
        }
    }

    /// A 64-bit FNV-1a hash, fed whole words in little-endian byte order.
    struct Fnv(u64);

    impl Fnv {
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Feeds every observable part of a schedule to `h`: each slot lane by
    /// lane through the instruction's public accessors (input, adder nodes,
    /// output multiplier, writeback), the HBM word bits,
    /// `slot_of`, `depth`, `forced_appends` and `logical_count()`.
    fn digest_schedule(h: &mut Fnv, s: &Schedule) {
        h.word(s.program.len() as u64);
        for inst in s.program.iter() {
            for lane in 0..inst.width() {
                let (tag, addr, extra) = match inst.input(lane) {
                    None => (0, 0, 0),
                    Some(LaneSource::Reg { addr }) => (1, addr, 0),
                    Some(LaneSource::Stream) => (2, 0, 0),
                    Some(LaneSource::RegTimesStream { addr, negate }) => {
                        (3, addr, u64::from(negate))
                    }
                    Some(LaneSource::RegTimesLatch { addr, negate }) => {
                        (4, addr, u64::from(negate))
                    }
                    Some(LaneSource::RegTimesImm { addr, imm }) => (5, addr, imm.to_bits()),
                    Some(LaneSource::StreamTimesLatch { negate }) => (6, 0, u64::from(negate)),
                };
                h.word(tag);
                h.word(addr as u64);
                h.word(extra);
                for stage in 0..inst.stages() {
                    h.word(inst.node(stage, lane) as u64);
                }
                h.word(match inst.out_mul(lane) {
                    OutMul::Bypass => 0,
                    OutMul::MulStream { negate } => 1 + u64::from(negate),
                });
                match inst.write(lane) {
                    None => h.word(0),
                    Some(w) => {
                        h.word(1 + w.mode as u64);
                        h.word(w.addr as u64);
                    }
                }
            }
        }
        h.word(s.hbm.len() as u64);
        for w in &s.hbm {
            h.word(w.to_bits());
        }
        h.word(s.slot_of.len() as u64);
        for &t in &s.slot_of {
            h.word(t as u64);
        }
        h.word(s.depth);
        h.word(s.forced_appends as u64);
        h.word(s.logical_count() as u64);
    }

    /// Every slot, HBM word and placement of `accel`'s 25 lowerings, pinned
    /// by one FNV-1a digest. Slot and cycle counts are gated elsewhere; this
    /// catches a packing or stream-order change that keeps the counts.
    #[test]
    fn accel_lowerings_match_their_pinned_digest() {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for (domain, index, backend, config) in accel_specs() {
            let settings = Settings::with_backend(backend);
            let l = lower(&instance(domain, index).problem, &settings, config).unwrap();
            for s in [&l.load, &l.setup, &l.iteration, &l.pcg_iteration, &l.check] {
                digest_schedule(&mut h, s);
            }
        }
        assert_eq!(
            h.0, 0xe8ae_5731_4bce_bdf2,
            "accel's schedules changed: digest {:#018x}",
            h.0
        );
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
