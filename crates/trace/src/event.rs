//! The trace vocabulary: event categories, event payloads and the
//! timestamped record stored in the per-thread buffers.
//!
//! Every payload is `Copy` and carries only `&'static str` names — a
//! recorded event never allocates, which is what keeps the instrumented
//! hot paths allocation-free even with tracing *enabled*.

/// Coarse subsystem classification, mapped to the `cat` field of Chrome
/// trace events (usable as a filter in Perfetto / `chrome://tracing`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// ADMM solver phases and per-iteration telemetry (mib-qp).
    Solver,
    /// KKT backend work: symbolic analysis, factorization, triangular
    /// solves, PCG (mib-qp linsys / mib-sparse work done on its behalf).
    Kkt,
    /// Compilation pipeline: lowering, KKT analysis, scheduling and
    /// routing spans (mib-compiler).
    Compiler,
    /// Request lifecycle on the serving runtime (mib-serve).
    Serve,
    /// Per-stage vector/sparse kernel work inside solver iterations.
    /// High-frequency, so the solvers record these spans on a sample of
    /// the iterations only: the first and every 16th after it.
    Kernel,
    /// Anything else (benchmarks, tests, ad-hoc instrumentation).
    Other,
}

impl Category {
    /// Stable lowercase name used by both exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Solver => "solver",
            Category::Kkt => "kkt",
            Category::Compiler => "compiler",
            Category::Serve => "serve",
            Category::Kernel => "kernel",
            Category::Other => "other",
        }
    }
}

/// One traced occurrence. `Begin`/`End` pairs delimit spans (properly
/// nested per thread); the rest are point events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Span opening, emitted by [`span`](crate::span).
    Begin {
        /// Span name (static so recording never allocates).
        name: &'static str,
        /// Subsystem.
        cat: Category,
    },
    /// Span closing, emitted by the guard's `Drop`.
    End {
        /// Span name, equal to the matching `Begin`.
        name: &'static str,
        /// Subsystem.
        cat: Category,
    },
    /// A named scalar observation (instant event with one value).
    Mark {
        /// Observation name.
        name: &'static str,
        /// Subsystem.
        cat: Category,
        /// Observed value.
        value: f64,
    },
    /// Per-iteration solver telemetry, recorded at termination-check
    /// boundaries. Residuals are the exact values the solver later
    /// reports in its `SolveResult` (bitwise).
    Iteration {
        /// Solver algorithm that produced the record (`"admm"`, `"pdqp"`;
        /// static so recording never allocates).
        algo: &'static str,
        /// 1-based solver iteration index.
        iter: u32,
        /// Unscaled primal residual at this check.
        prim_res: f64,
        /// Unscaled dual residual at this check.
        dual_res: f64,
        /// Base step size in effect (`ρ` for ADMM, `τ` for PDQP).
        rho: f64,
        /// PCG iterations spent since the previous record (0 for the
        /// direct backend and for PDQP).
        pcg_iters: u32,
    },
    /// An adaptive-rho rescaling accepted by the solver.
    RhoUpdate {
        /// Iteration at which the update happened.
        iter: u32,
        /// Penalty before the update.
        rho_old: f64,
        /// Penalty after the update.
        rho_new: f64,
    },
}

impl Event {
    /// The category the event belongs to (point events that carry no
    /// explicit category report the subsystem they are emitted by).
    pub fn category(&self) -> Category {
        match self {
            Event::Begin { cat, .. } | Event::End { cat, .. } | Event::Mark { cat, .. } => *cat,
            Event::Iteration { .. } | Event::RhoUpdate { .. } => Category::Solver,
        }
    }

    /// Display name used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            Event::Begin { name, .. } | Event::End { name, .. } | Event::Mark { name, .. } => name,
            Event::Iteration { .. } => "iteration",
            Event::RhoUpdate { .. } => "rho_update",
        }
    }
}

/// A timestamped event as stored in (and drained from) a thread buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Nanoseconds since the trace epoch (the first [`enable`] call of
    /// the process), monotonic within a thread.
    ///
    /// [`enable`]: crate::enable
    pub ts_ns: u64,
    /// Process-unique id of the span this record belongs to (the id of
    /// the span itself for `Begin`/`End`, the innermost enclosing span —
    /// or 0 at top level — for point events).
    pub span: u64,
    /// The payload.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_have_distinct_names() {
        let cats = [
            Category::Solver,
            Category::Kkt,
            Category::Compiler,
            Category::Serve,
            Category::Kernel,
            Category::Other,
        ];
        for (i, a) in cats.iter().enumerate() {
            for b in &cats[i + 1..] {
                assert_ne!(a.as_str(), b.as_str());
            }
        }
    }

    #[test]
    fn event_names_and_categories() {
        let e = Event::Begin {
            name: "solve",
            cat: Category::Solver,
        };
        assert_eq!(e.name(), "solve");
        assert_eq!(e.category(), Category::Solver);
        let e = Event::Iteration {
            algo: "admm",
            iter: 3,
            prim_res: 1.0,
            dual_res: 2.0,
            rho: 0.1,
            pcg_iters: 0,
        };
        assert_eq!(e.name(), "iteration");
        assert_eq!(e.category(), Category::Solver);
        let e = Event::RhoUpdate {
            iter: 5,
            rho_old: 0.1,
            rho_new: 0.2,
        };
        assert_eq!(e.name(), "rho_update");
        assert_eq!(e.category(), Category::Solver);
    }
}
