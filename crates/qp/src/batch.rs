//! Batched multi-problem frontend: solve many same-pattern QPs from one
//! symbolic setup.
//!
//! The expensive part of [`Solver::new`] is structural — Ruiz
//! equilibration, the AMD fill-reducing ordering, the elimination
//! tree and the symbolic KKT factorization all depend only on the sparsity
//! pattern, not the values. The paper's target workload ("millions of QPs
//! with the same sparsity pattern", e.g. a portfolio problem re-solved per
//! asset-return scenario) therefore pays that cost once.
//!
//! [`BatchSolver`] packages this: it performs setup a single time, then
//! solves a stream of per-problem parametric updates ([`BatchUpdate`]) by
//! cloning the prepared solver into `std::thread::scope` workers — no
//! extra dependencies, no symbolic refactorization per problem.
//!
//! # Determinism
//!
//! Batch results are **independent of the thread count and chunking**:
//! every problem is re-parameterized from the shared template (an update of
//! `None` restores the template's value rather than inheriting whatever the
//! worker solved last) and solved from a cold start via [`Solver::reset`].
//! `solve_batch` over N problems on any number of threads is bitwise
//! identical to N sequential solves — the property the batch parity test in
//! `tests/` pins down.

use std::sync::mpsc;

use crate::{Problem, QpError, Result, Settings, SolveResult, Solver};

/// Per-problem parametric update applied on top of the template problem.
///
/// A `None` field keeps the template's value for that component. Only the
/// vector data (`q`, `l`, `u`) may vary across a batch; the matrices `P`
/// and `A` — and with them the whole symbolic setup — are shared.
#[derive(Debug, Clone, Default)]
pub struct BatchUpdate {
    /// Replacement linear cost, or `None` to use the template's `q`.
    pub q: Option<Vec<f64>>,
    /// Replacement bounds `(l, u)`, or `None` to use the template's.
    pub bounds: Option<(Vec<f64>, Vec<f64>)>,
    /// Fault injection for the panic-propagation unit test: the worker
    /// panics right before solving this update.
    #[cfg(test)]
    pub(crate) panic_in_worker: bool,
}

impl BatchUpdate {
    /// An update that only replaces the linear cost.
    pub fn with_q(q: Vec<f64>) -> Self {
        BatchUpdate {
            q: Some(q),
            ..BatchUpdate::default()
        }
    }

    /// An update that only replaces the bounds.
    pub fn with_bounds(l: Vec<f64>, u: Vec<f64>) -> Self {
        BatchUpdate {
            bounds: Some((l, u)),
            ..BatchUpdate::default()
        }
    }
}

/// Outcome of a panic-tolerant batch run (see
/// [`BatchSolver::solve_batch_partial`]).
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// `results[i]` is the solution of `updates[i]`, or `None` if the
    /// worker responsible for it panicked before completing it.
    pub results: Vec<Option<SolveResult>>,
    /// Captured panic messages, one per panicked worker (empty on a clean
    /// run).
    pub panics: Vec<String>,
}

impl BatchOutcome {
    /// `true` when every problem completed (no worker panicked mid-chunk).
    pub fn is_complete(&self) -> bool {
        self.panics.is_empty() && self.results.iter().all(Option::is_some)
    }
}

/// Default worker count: the `MIB_THREADS` environment variable when it
/// parses as a positive integer, otherwise `available_parallelism()`.
fn default_thread_count() -> usize {
    if let Ok(raw) = std::env::var("MIB_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Solves batches of QPs sharing one sparsity pattern (and one symbolic
/// setup) in parallel.
#[derive(Debug, Clone)]
pub struct BatchSolver {
    template: Solver,
    num_threads: usize,
}

impl BatchSolver {
    /// Runs setup (scaling, ordering, symbolic + numeric factorization)
    /// once on the template problem.
    ///
    /// # Thread policy
    ///
    /// The default worker count is `available_parallelism()`, overridable
    /// with the `MIB_THREADS` environment variable (parsed as a positive
    /// integer; anything else falls back to the default). An explicit
    /// [`with_threads`](BatchSolver::with_threads) call always wins over
    /// both. At solve time the effective count is additionally capped at
    /// the batch length — spawning more workers than problems only adds
    /// idle threads — and work is split into contiguous chunks of
    /// `ceil(batch_len / threads)` problems.
    ///
    /// # Errors
    ///
    /// Propagates any [`Solver::new`] setup error.
    pub fn new(problem: Problem, settings: Settings) -> Result<Self> {
        let template = Solver::new(problem, settings)?;
        let num_threads = default_thread_count();
        Ok(BatchSolver {
            template,
            num_threads,
        })
    }

    /// Sets the number of worker threads (clamped to at least 1). The
    /// results do not depend on this value, only the wall-clock time does.
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads.max(1);
        self
    }

    /// The configured worker-thread count.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// The prepared template solver.
    pub fn template(&self) -> &Solver {
        &self.template
    }

    /// Solves one problem per update, in parallel across the configured
    /// worker threads. `results[i]` corresponds to `updates[i]`.
    ///
    /// # Errors
    ///
    /// Returns the first per-problem update error (e.g. a length
    /// mismatch); problem data errors abort the batch. A worker panic is
    /// reported as [`QpError::WorkerPanic`] instead of unwinding through
    /// (and aborting) the scope; use [`BatchSolver::solve_batch_partial`]
    /// to additionally recover the surviving problems' results.
    pub fn solve_batch(&self, updates: &[BatchUpdate]) -> Result<Vec<SolveResult>> {
        let outcome = self.solve_batch_partial(updates)?;
        if !outcome.panics.is_empty() {
            return Err(QpError::WorkerPanic(outcome.panics.join("; ")));
        }
        Ok(outcome
            .results
            .into_iter()
            .map(|r| r.expect("no panic recorded, so every result is present"))
            .collect())
    }

    /// Panic-tolerant variant of [`BatchSolver::solve_batch`]: workers
    /// stream each completed result back as soon as it is solved, so a
    /// panic (in this crate or in a poisoned data path) loses only the
    /// problems the panicking worker had not finished — every other
    /// problem's result survives, and the captured panic messages are
    /// reported in [`BatchOutcome::panics`] instead of unwinding.
    ///
    /// # Errors
    ///
    /// Returns the first per-problem update error (e.g. a length
    /// mismatch); problem data errors abort the batch.
    pub fn solve_batch_partial(&self, updates: &[BatchUpdate]) -> Result<BatchOutcome> {
        let n = updates.len();
        let mut outcome = BatchOutcome {
            results: (0..n).map(|_| None).collect(),
            panics: Vec::new(),
        };
        if n == 0 {
            return Ok(outcome);
        }
        let threads = self.num_threads.min(n);
        let chunk_size = n.div_ceil(threads);
        let template = &self.template;
        let (tx, rx) = mpsc::channel::<(usize, SolveResult)>();
        let mut first_err: Option<QpError> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = updates
                .chunks(chunk_size)
                .enumerate()
                .map(|(ci, chunk)| {
                    let tx = tx.clone();
                    scope.spawn(move || run_chunk_streaming(template, chunk, ci * chunk_size, &tx))
                })
                .collect();
            drop(tx);
            for (ci, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                    Err(payload) => outcome
                        .panics
                        .push(format!("worker {ci}: {}", panic_message(payload.as_ref()))),
                }
            }
            // All senders are gone; drain whatever the workers completed.
            for (index, result) in rx {
                outcome.results[index] = Some(result);
            }
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// Solves the batch on the current thread with a single cloned solver —
    /// the reference implementation `solve_batch` must match bitwise, and
    /// the baseline the batch benchmarks compare against.
    ///
    /// # Errors
    ///
    /// Same contract as [`BatchSolver::solve_batch`].
    pub fn solve_sequential(&self, updates: &[BatchUpdate]) -> Result<Vec<SolveResult>> {
        run_chunk(&self.template, updates)
    }
}

/// Solves a chunk of updates on one cloned solver. Every problem is
/// re-parameterized from the template's base data so the outcome does not
/// depend on which chunk (or order) it lands in.
fn run_chunk(template: &Solver, chunk: &[BatchUpdate]) -> Result<Vec<SolveResult>> {
    let (tx, rx) = mpsc::channel();
    run_chunk_streaming(template, chunk, 0, &tx)?;
    drop(tx);
    let mut results: Vec<Option<SolveResult>> = (0..chunk.len()).map(|_| None).collect();
    for (index, result) in rx {
        results[index] = Some(result);
    }
    Ok(results.into_iter().map(Option::unwrap).collect())
}

/// Chunk runner that streams each result through `tx` as soon as it is
/// solved (tagged with its global batch index), so completed work survives
/// a later panic on the same worker.
fn run_chunk_streaming(
    template: &Solver,
    chunk: &[BatchUpdate],
    base_index: usize,
    tx: &mpsc::Sender<(usize, SolveResult)>,
) -> Result<()> {
    let mut solver = template.clone();
    let base = template.problem();
    let (base_q, base_l, base_u) = (base.q().to_vec(), base.l().to_vec(), base.u().to_vec());
    for (offset, update) in chunk.iter().enumerate() {
        #[cfg(test)]
        assert!(
            !update.panic_in_worker,
            "injected batch worker panic (test fault injection)"
        );
        solver.update_q(update.q.as_deref().unwrap_or(&base_q))?;
        match &update.bounds {
            Some((l, u)) => solver.update_bounds(l, u)?,
            None => solver.update_bounds(&base_l, &base_u)?,
        }
        solver.reset();
        // The receiver outlives the scope; a send can only fail if the
        // parent already gave up on the batch, in which case dropping the
        // result is the right thing to do.
        let _ = tx.send((base_index + offset, solver.solve()));
    }
    Ok(())
}

/// Renders a captured panic payload (the `Any` from `JoinHandle::join`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KktBackend, Status};
    use mib_sparse::CscMatrix;

    fn template_problem() -> Problem {
        // minimize x'Px + q'x  s.t. sum(x) = 1, 0 <= x <= 0.8
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.5, 0.0, 2.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        Problem::new(
            p,
            vec![-1.0, -0.5],
            a,
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.8, 0.8],
        )
        .unwrap()
    }

    fn q_sweep(count: usize) -> Vec<BatchUpdate> {
        (0..count)
            .map(|k| {
                let t = k as f64 / count as f64;
                BatchUpdate::with_q(vec![-1.0 - t, -0.5 + 0.3 * t])
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let batch = BatchSolver::new(template_problem(), Settings::default())
            .unwrap()
            .with_threads(4);
        let updates = q_sweep(13); // deliberately not divisible by 4
        let par = batch.solve_batch(&updates).unwrap();
        let seq = batch.solve_sequential(&updates).unwrap();
        assert_eq!(par.len(), seq.len());
        for (i, (a, b)) in par.iter().zip(&seq).enumerate() {
            assert_eq!(a.status, Status::Solved, "problem {i}");
            assert_eq!(a.x, b.x, "problem {i}: parallel/sequential x differ");
            assert_eq!(a.iterations, b.iterations, "problem {i}");
        }
    }

    #[test]
    fn none_update_restores_template_values() {
        let batch = BatchSolver::new(template_problem(), Settings::default())
            .unwrap()
            .with_threads(2);
        // Problem 1 changes q; problem 2 must see the template q again.
        let updates = vec![
            BatchUpdate::default(),
            BatchUpdate::with_q(vec![-5.0, -5.0]),
            BatchUpdate::default(),
        ];
        let results = batch.solve_batch(&updates).unwrap();
        assert_eq!(
            results[0].x, results[2].x,
            "None update must not inherit prior q"
        );
        assert_ne!(results[0].x, results[1].x);
    }

    #[test]
    fn bounds_stream_solves() {
        let batch = BatchSolver::new(template_problem(), Settings::default())
            .unwrap()
            .with_threads(2);
        let updates: Vec<BatchUpdate> = (0..6)
            .map(|k| {
                let cap = 0.5 + 0.05 * k as f64;
                BatchUpdate::with_bounds(vec![1.0, 0.0, 0.0], vec![1.0, cap, cap])
            })
            .collect();
        let results = batch.solve_batch(&updates).unwrap();
        for (k, r) in results.iter().enumerate() {
            let cap = 0.5 + 0.05 * k as f64;
            assert_eq!(r.status, Status::Solved);
            assert!(r.x[0] <= cap + 1e-2, "x0 = {} exceeds cap {cap}", r.x[0]);
            assert!(r.x[1] <= cap + 1e-2, "x1 = {} exceeds cap {cap}", r.x[1]);
            assert!(
                (r.x[0] + r.x[1] - 1.0).abs() < 1e-2,
                "sum constraint violated"
            );
        }
    }

    #[test]
    fn indirect_backend_batches_deterministically() {
        let batch = BatchSolver::new(
            template_problem(),
            Settings::with_backend(KktBackend::Indirect),
        )
        .unwrap()
        .with_threads(3);
        let updates = q_sweep(7);
        let par = batch.solve_batch(&updates).unwrap();
        let seq = batch.solve_sequential(&updates).unwrap();
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(
                a.x, b.x,
                "PCG warm-start state must not leak across problems"
            );
        }
    }

    #[test]
    fn worker_panic_is_an_error_not_an_abort() {
        let batch = BatchSolver::new(template_problem(), Settings::default())
            .unwrap()
            .with_threads(4);
        let mut updates = q_sweep(8);
        updates[5].panic_in_worker = true;
        let err = batch.solve_batch(&updates).unwrap_err();
        match err {
            QpError::WorkerPanic(msg) => {
                assert!(msg.contains("injected"), "unexpected message: {msg}")
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn partial_batch_returns_survivor_results() {
        let batch = BatchSolver::new(template_problem(), Settings::default())
            .unwrap()
            .with_threads(4);
        // 8 problems on 4 threads -> chunks of 2. Poison the second problem
        // of chunk 1 (global index 3): index 2 completes and must survive,
        // index 3 is lost, every other chunk is untouched.
        let mut updates = q_sweep(8);
        updates[3].panic_in_worker = true;
        let outcome = batch.solve_batch_partial(&updates).unwrap();
        assert_eq!(outcome.panics.len(), 1);
        assert!(!outcome.is_complete());
        assert!(
            outcome.results[3].is_none(),
            "poisoned problem has no result"
        );
        let reference = batch.solve_sequential(&q_sweep(8)).unwrap();
        for (i, r) in outcome.results.iter().enumerate() {
            if i == 3 {
                continue;
            }
            let r = r.as_ref().unwrap_or_else(|| panic!("problem {i} lost"));
            assert_eq!(r.x, reference[i].x, "survivor {i} must match reference");
        }
    }

    #[test]
    fn clean_partial_batch_is_complete() {
        let batch = BatchSolver::new(template_problem(), Settings::default())
            .unwrap()
            .with_threads(3);
        let outcome = batch.solve_batch_partial(&q_sweep(7)).unwrap();
        assert!(outcome.is_complete());
        assert!(outcome.panics.is_empty());
        assert_eq!(outcome.results.len(), 7);
    }

    #[test]
    fn invalid_update_aborts_batch() {
        let batch = BatchSolver::new(template_problem(), Settings::default()).unwrap();
        let updates = vec![BatchUpdate::with_q(vec![1.0])]; // wrong length
        assert!(batch.solve_batch(&updates).is_err());
    }

    #[test]
    fn empty_batch_is_empty() {
        let batch = BatchSolver::new(template_problem(), Settings::default()).unwrap();
        assert!(batch.solve_batch(&[]).unwrap().is_empty());
    }
}
