//! Structured solver telemetry recovered from an `mib-trace` recording.
//!
//! The solver emits per-iteration [`Event::Iteration`] records at every
//! termination-check boundary, [`Event::RhoUpdate`] records for accepted
//! adaptive-ρ rescalings, and phase spans (`scaling`, `symbolic`,
//! `factor`, `solve`, `admm_loop`, `refactor`). [`SolveTrace`]
//! reassembles those raw records into the OSQP-style iteration log:
//!
//! ```
//! use mib_qp::{telemetry::SolveTrace, Problem, Settings, Solver};
//! use mib_sparse::CscMatrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0]).upper_triangle()?;
//! let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
//! let problem = Problem::new(p, vec![1.0, 1.0], a,
//!     vec![1.0, 0.0, 0.0], vec![1.0, 0.7, 0.7])?;
//! mib_trace::enable();
//! let result = Solver::new(problem, Settings::default())?.solve();
//! mib_trace::disable();
//! let telemetry = SolveTrace::collect(&mib_trace::take());
//! let last = telemetry.last_iteration().expect("solver checked at least once");
//! assert_eq!(last.prim_res.to_bits(), result.prim_res.to_bits());
//! # Ok(())
//! # }
//! ```
//!
//! [`Event::Iteration`]: mib_trace::Event::Iteration
//! [`Event::RhoUpdate`]: mib_trace::Event::RhoUpdate

use mib_trace::{Category, Event, Trace};

/// One termination-check snapshot of the solver iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Algorithm that produced the record (`"admm"`, `"pdqp"`).
    pub algo: &'static str,
    /// 1-based solver iteration index of the check.
    pub iter: u32,
    /// Unscaled primal residual (bitwise the value a terminating check
    /// reports in [`SolveResult::prim_res`](crate::SolveResult)).
    pub prim_res: f64,
    /// Unscaled dual residual.
    pub dual_res: f64,
    /// Base step size in effect at the check (`ρ` for ADMM, `τ` for PDQP).
    pub rho: f64,
    /// PCG iterations since the previous check (0 on the direct backend
    /// and for PDQP).
    pub pcg_iters: u32,
    /// Nanoseconds spent in the KKT backend since the previous check.
    pub kkt_ns: u64,
}

/// One accepted adaptive-ρ rescaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RhoUpdateRecord {
    /// Iteration at which the update was applied.
    pub iter: u32,
    /// `ρ` before.
    pub rho_old: f64,
    /// `ρ` after.
    pub rho_new: f64,
}

/// One completed solver/KKT phase span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Span name (`"scaling"`, `"symbolic"`, `"factor"`, `"solve"`,
    /// `"admm_loop"`, `"refactor"`).
    pub name: &'static str,
    /// Span category.
    pub category: Category,
    /// Wall time between the span's begin and end records.
    pub duration_ns: u64,
}

/// A solver-centric view of a drained [`Trace`]: the per-iteration log,
/// the ρ history, and the completed phase spans, in recording order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveTrace {
    /// Per-termination-check iteration records.
    pub iterations: Vec<IterationRecord>,
    /// Accepted adaptive-ρ updates.
    pub rho_updates: Vec<RhoUpdateRecord>,
    /// Completed [`Category::Solver`]/[`Category::Kkt`] spans.
    pub phases: Vec<PhaseRecord>,
}

impl SolveTrace {
    /// Extracts the solver telemetry from a drained trace (all threads).
    /// Spans are matched per thread; a span left open when the trace was
    /// drained is omitted.
    pub fn collect(trace: &Trace) -> SolveTrace {
        let mut out = SolveTrace::default();
        for thread in &trace.threads {
            // (span id, name, category, begin timestamp)
            let mut open: Vec<(u64, &'static str, Category, u64)> = Vec::new();
            for record in &thread.records {
                match record.event {
                    Event::Iteration {
                        algo,
                        iter,
                        prim_res,
                        dual_res,
                        rho,
                        pcg_iters,
                        kkt_ns,
                    } => out.iterations.push(IterationRecord {
                        algo,
                        iter,
                        prim_res,
                        dual_res,
                        rho,
                        pcg_iters,
                        kkt_ns,
                    }),
                    Event::RhoUpdate {
                        iter,
                        rho_old,
                        rho_new,
                    } => out.rho_updates.push(RhoUpdateRecord {
                        iter,
                        rho_old,
                        rho_new,
                    }),
                    Event::Begin { name, cat }
                        if matches!(cat, Category::Solver | Category::Kkt) =>
                    {
                        open.push((record.span, name, cat, record.ts_ns));
                    }
                    Event::End { .. } => {
                        if let Some(pos) = open.iter().rposition(|&(id, ..)| id == record.span) {
                            let (_, name, category, begin_ts) = open.remove(pos);
                            out.phases.push(PhaseRecord {
                                name,
                                category,
                                duration_ns: record.ts_ns.saturating_sub(begin_ts),
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// The last iteration record — residuals of a finished solve's final
    /// termination check.
    pub fn last_iteration(&self) -> Option<&IterationRecord> {
        self.iterations.last()
    }

    /// Total PCG iterations across all recorded checks.
    pub fn total_pcg_iters(&self) -> u64 {
        self.iterations.iter().map(|r| u64::from(r.pcg_iters)).sum()
    }

    /// Completed phases with the given name, in recording order.
    pub fn phases_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a PhaseRecord> {
        self.phases.iter().filter(move |p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_trace::{Record, ThreadTrace};

    #[test]
    fn collect_reassembles_records() {
        let records = vec![
            Record {
                ts_ns: 10,
                span: 1,
                event: Event::Begin {
                    name: "solve",
                    cat: Category::Solver,
                },
            },
            Record {
                ts_ns: 12,
                span: 2,
                event: Event::Begin {
                    name: "admm_loop",
                    cat: Category::Solver,
                },
            },
            Record {
                ts_ns: 20,
                span: 2,
                event: Event::Iteration {
                    algo: "admm",
                    iter: 25,
                    prim_res: 0.5,
                    dual_res: 0.25,
                    rho: 0.1,
                    pcg_iters: 9,
                    kkt_ns: 700,
                },
            },
            Record {
                ts_ns: 21,
                span: 2,
                event: Event::RhoUpdate {
                    iter: 25,
                    rho_old: 0.1,
                    rho_new: 0.9,
                },
            },
            Record {
                ts_ns: 30,
                span: 2,
                event: Event::Iteration {
                    algo: "admm",
                    iter: 50,
                    prim_res: 5e-4,
                    dual_res: 2e-4,
                    rho: 0.9,
                    pcg_iters: 4,
                    kkt_ns: 300,
                },
            },
            Record {
                ts_ns: 40,
                span: 2,
                event: Event::End {
                    name: "admm_loop",
                    cat: Category::Solver,
                },
            },
            // `solve` left open: the trace was drained mid-span.
        ];
        let trace = Trace {
            threads: vec![ThreadTrace {
                tid: 1,
                name: "main".into(),
                records,
                dropped: 0,
            }],
        };
        let t = SolveTrace::collect(&trace);
        assert_eq!(t.iterations.len(), 2);
        assert_eq!(t.iterations[0].algo, "admm");
        assert_eq!(t.last_iteration().unwrap().iter, 50);
        assert_eq!(t.total_pcg_iters(), 13);
        assert_eq!(t.rho_updates.len(), 1);
        assert_eq!(t.rho_updates[0].rho_new, 0.9);
        assert_eq!(t.phases.len(), 1);
        assert_eq!(t.phases[0].name, "admm_loop");
        assert_eq!(t.phases[0].duration_ns, 28);
        assert_eq!(t.phases_named("solve").count(), 0);
    }

    #[test]
    fn empty_trace_yields_empty_telemetry() {
        let t = SolveTrace::collect(&Trace::default());
        assert!(t.iterations.is_empty());
        assert!(t.last_iteration().is_none());
        assert_eq!(t.total_pcg_iters(), 0);
    }
}
