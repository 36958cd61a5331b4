//! Request/response types of the serving runtime, and the [`Ticket`]
//! future-like handle a submission returns.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mib_qp::{QpError, SolveResult};

/// A parametric solve request against a registered tenant's template
/// problem. `None` fields keep the template's values (restored explicitly
/// per request — a request never inherits whatever the worker's pooled
/// solver saw last).
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Replacement linear cost, or `None` for the template's `q`.
    pub q: Option<Vec<f64>>,
    /// Replacement bounds `(l, u)`, or `None` for the template's.
    pub bounds: Option<(Vec<f64>, Vec<f64>)>,
    /// Relative deadline, measured from submission. The solver observes
    /// it at iteration-check boundaries ([`Status::TimedOut`]); a request
    /// still queued when it expires is answered with
    /// [`Outcome::Expired`] without solving.
    ///
    /// [`Status::TimedOut`]: mib_qp::Status::TimedOut
    pub deadline: Option<Duration>,
    /// Optional warm-start point `(x, y)` — typically the previous
    /// solution of the same tenant (see
    /// [`Solver::warm_start_from`](mib_qp::Solver::warm_start_from)).
    /// Warm-started requests trade the bitwise cold-start reproducibility
    /// guarantee for fewer iterations.
    pub warm_start: Option<(Vec<f64>, Vec<f64>)>,
    /// 128-bit trace id correlating this request's server-side spans
    /// (queue wait, solve phases, kernels) with the caller's view of it.
    /// `0` means untraced; over the wire the id arrives in the v2
    /// `Submit` frame's trace section. When the observability plane is
    /// enabled, untraced anomalous requests get a server-generated id so
    /// they are still addressable in the flight recorder.
    pub trace_id: u128,
}

impl Request {
    /// A request replacing only the linear cost.
    pub fn with_q(q: Vec<f64>) -> Self {
        Request {
            q: Some(q),
            ..Request::default()
        }
    }

    /// Sets a relative deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a warm-start point.
    pub fn warm_started(mut self, x: Vec<f64>, y: Vec<f64>) -> Self {
        self.warm_start = Some((x, y));
        self
    }

    /// Stamps the request with a trace id (see [`Request::trace_id`]).
    pub fn traced(mut self, trace_id: u128) -> Self {
        self.trace_id = trace_id;
        self
    }
}

/// Terminal outcome of an accepted request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The solve ran; the embedded [`SolveResult::status`] distinguishes
    /// solved / max-iterations / infeasible / timed-out / cancelled.
    Finished(SolveResult),
    /// The deadline expired while the request was still queued; the solve
    /// never started.
    Expired,
    /// The request was cancelled while still queued; the solve never
    /// started.
    Cancelled,
    /// The parametric data was rejected (wrong length, non-finite
    /// entries, `l > u`, ...).
    Failed(QpError),
}

impl Outcome {
    /// The solve result, if the solve ran.
    pub fn result(&self) -> Option<&SolveResult> {
        match self {
            Outcome::Finished(r) => Some(r),
            _ => None,
        }
    }

    /// `true` when the solve ran and converged.
    pub fn is_solved(&self) -> bool {
        self.result().is_some_and(|r| r.status.is_solved())
    }
}

/// Terminal response delivered through a [`Ticket`].
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// What happened.
    pub outcome: Outcome,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Time the worker spent serving it (updates + solve).
    pub service_time: Duration,
    /// Size of the micro-batch this request was drained in.
    pub batch_size: usize,
}

/// Why a submission was rejected synchronously (backpressure contract:
/// rejection happens at the submission boundary, never silently later).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The shard's bounded queue is full; retry later or shed load.
    ///
    /// Carries the observed depth *and* the configured capacity so the
    /// caller (in-process or the `mib-net` shed frame) can compute a
    /// retry hint instead of guessing from a bare rejection.
    QueueFull {
        /// Queue depth observed at rejection.
        depth: usize,
        /// Configured capacity of the rejecting queue.
        capacity: usize,
    },
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// The tenant id was never registered (or the server restarted).
    UnknownTenant,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { depth, capacity } => {
                write!(f, "shard queue full (depth {depth} of {capacity})")
            }
            SubmitError::ShuttingDown => f.write_str("server is shutting down"),
            SubmitError::UnknownTenant => f.write_str("unknown tenant id"),
        }
    }
}

impl Error for SubmitError {}

/// Errors registering a tenant.
#[derive(Debug, Clone, PartialEq)]
pub enum RegisterError {
    /// Solver setup rejected the problem or settings.
    Setup(QpError),
    /// The server is draining; no new tenants are accepted.
    ShuttingDown,
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::Setup(e) => write!(f, "tenant setup failed: {e}"),
            RegisterError::ShuttingDown => f.write_str("server is shutting down"),
        }
    }
}

impl Error for RegisterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RegisterError::Setup(e) => Some(e),
            RegisterError::ShuttingDown => None,
        }
    }
}

impl From<QpError> for RegisterError {
    fn from(e: QpError) -> Self {
        RegisterError::Setup(e)
    }
}

/// Completion callback registered through [`Ticket::on_ready`].
type ReadyCallback = Box<dyn FnOnce(Response) + Send + 'static>;

/// Slot state behind the ticket mutex: at most one of `response` /
/// `callback` is ever populated (a delivered response consumes the
/// callback; a registered callback consumes the response on arrival).
#[derive(Default)]
struct TicketState {
    response: Option<Response>,
    callback: Option<ReadyCallback>,
    fulfilled: bool,
}

impl fmt::Debug for TicketState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TicketState")
            .field("response", &self.response)
            .field("callback", &self.callback.as_ref().map(|_| "..."))
            .field("fulfilled", &self.fulfilled)
            .finish()
    }
}

/// Shared state behind a [`Ticket`]: the response slot, its condvar and
/// the cancellation flag the ADMM loop polls.
#[derive(Debug)]
pub(crate) struct TicketShared {
    slot: Mutex<TicketState>,
    ready: Condvar,
    cancel: Arc<AtomicBool>,
}

impl TicketShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TicketShared {
            slot: Mutex::new(TicketState::default()),
            ready: Condvar::new(),
            cancel: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The cancellation flag handed to the solver.
    pub(crate) fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Whether cancellation was requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Delivers the terminal response: either straight into a registered
    /// [`Ticket::on_ready`] callback (run on this thread, outside the
    /// lock) or into the slot, waking every waiter.
    pub(crate) fn fulfill(&self, response: Response) {
        let mut slot = self.slot.lock().expect("ticket lock poisoned");
        debug_assert!(!slot.fulfilled, "a ticket must be fulfilled exactly once");
        slot.fulfilled = true;
        if let Some(callback) = slot.callback.take() {
            drop(slot);
            callback(response);
            return;
        }
        slot.response = Some(response);
        drop(slot);
        self.ready.notify_all();
    }
}

/// Handle to an accepted request: wait for the terminal [`Response`],
/// poll it, or request cancellation.
///
/// Every accepted request is eventually fulfilled — workers drain their
/// queues on shutdown and answer each pending request — so [`Ticket::wait`]
/// cannot hang on a live server.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) shared: Arc<TicketShared>,
}

impl Ticket {
    /// Blocks until the terminal response arrives.
    pub fn wait(self) -> Response {
        let mut slot = self.shared.slot.lock().expect("ticket lock poisoned");
        loop {
            if let Some(response) = slot.response.take() {
                return response;
            }
            slot = self.shared.ready.wait(slot).expect("ticket lock poisoned");
        }
    }

    /// Waits up to `timeout` for the response.
    ///
    /// # Errors
    ///
    /// `Err(self)` gives the ticket back on timeout so the caller can
    /// keep waiting or cancel.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, Ticket> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.shared.slot.lock().expect("ticket lock poisoned");
        loop {
            if let Some(response) = slot.response.take() {
                return Ok(response);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(slot);
                return Err(self);
            }
            let (guard, _) = self
                .shared
                .ready
                .wait_timeout(slot, deadline - now)
                .expect("ticket lock poisoned");
            slot = guard;
        }
    }

    /// Non-blocking: `true` once the response is ready.
    pub fn is_done(&self) -> bool {
        self.shared
            .slot
            .lock()
            .expect("ticket lock poisoned")
            .response
            .is_some()
    }

    /// Registers a completion callback instead of blocking: `callback`
    /// runs exactly once with the terminal [`Response`] — immediately
    /// (on this thread) if the response already arrived, otherwise on
    /// the worker thread that fulfills the ticket. The callback must be
    /// cheap and non-blocking (a channel send, a counter bump): it runs
    /// on the serving hot path. This is the event-driven alternative to
    /// [`wait`](Self::wait) that `mib-net` uses to demultiplex thousands
    /// of in-flight requests onto one writer per connection without a
    /// thread per ticket.
    pub fn on_ready(self, callback: impl FnOnce(Response) + Send + 'static) {
        let mut slot = self.shared.slot.lock().expect("ticket lock poisoned");
        if let Some(response) = slot.response.take() {
            drop(slot);
            callback(response);
            return;
        }
        debug_assert!(
            slot.callback.is_none(),
            "a ticket accepts at most one completion callback"
        );
        slot.callback = Some(Box::new(callback));
    }

    /// A detached cancellation handle: lets the caller request
    /// cancellation after the ticket itself has been consumed by
    /// [`wait`](Self::wait) or [`on_ready`](Self::on_ready).
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            cancel: self.shared.cancel_flag(),
        }
    }

    /// Requests cancellation. Queued requests are answered with
    /// [`Outcome::Cancelled`]; an in-flight solve observes the flag at
    /// its next check boundary and finishes with
    /// [`Status::Cancelled`](mib_qp::Status::Cancelled). Cancellation is
    /// cooperative — the response still arrives through the ticket.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
    }
}

/// Cancellation handle detached from its [`Ticket`] (see
/// [`Ticket::cancel_handle`]): carries only the shared cancel flag, so
/// it stays usable after the ticket was consumed.
#[derive(Debug, Clone)]
pub struct CancelHandle {
    cancel: Arc<AtomicBool>,
}

impl CancelHandle {
    /// Requests cooperative cancellation (same semantics as
    /// [`Ticket::cancel`]).
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_response() -> Response {
        Response {
            outcome: Outcome::Expired,
            queue_wait: Duration::from_micros(5),
            service_time: Duration::ZERO,
            batch_size: 1,
        }
    }

    #[test]
    fn ticket_roundtrip() {
        let shared = TicketShared::new();
        let ticket = Ticket {
            shared: Arc::clone(&shared),
        };
        assert!(!ticket.is_done());
        shared.fulfill(dummy_response());
        assert!(ticket.is_done());
        let r = ticket.wait();
        assert_eq!(r.outcome, Outcome::Expired);
    }

    #[test]
    fn ticket_wait_timeout_returns_ticket() {
        let shared = TicketShared::new();
        let ticket = Ticket {
            shared: Arc::clone(&shared),
        };
        let Err(ticket) = ticket.wait_timeout(Duration::from_millis(10)) else {
            panic!("nothing was fulfilled yet")
        };
        shared.fulfill(dummy_response());
        assert!(ticket.wait_timeout(Duration::from_secs(5)).is_ok());
    }

    #[test]
    fn ticket_wait_across_threads() {
        let shared = TicketShared::new();
        let ticket = Ticket {
            shared: Arc::clone(&shared),
        };
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(Duration::from_millis(5));
        shared.fulfill(dummy_response());
        let r = waiter.join().expect("waiter must not panic");
        assert_eq!(r.batch_size, 1);
    }

    #[test]
    fn cancellation_sets_the_shared_flag() {
        let shared = TicketShared::new();
        let ticket = Ticket {
            shared: Arc::clone(&shared),
        };
        assert!(!shared.is_cancelled());
        ticket.cancel();
        assert!(shared.is_cancelled());
        assert!(shared.cancel_flag().load(Ordering::Relaxed));
    }

    #[test]
    fn on_ready_runs_after_fulfill() {
        let shared = TicketShared::new();
        let ticket = Ticket {
            shared: Arc::clone(&shared),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        ticket.on_ready(move |r| tx.send(r).expect("receiver alive"));
        shared.fulfill(dummy_response());
        let r = rx.recv().expect("callback must fire on fulfill");
        assert_eq!(r.outcome, Outcome::Expired);
    }

    #[test]
    fn on_ready_runs_immediately_when_already_fulfilled() {
        let shared = TicketShared::new();
        let ticket = Ticket {
            shared: Arc::clone(&shared),
        };
        shared.fulfill(dummy_response());
        let (tx, rx) = std::sync::mpsc::channel();
        ticket.on_ready(move |r| tx.send(r).expect("receiver alive"));
        assert_eq!(rx.try_recv().expect("ran inline").batch_size, 1);
    }

    #[test]
    fn cancel_handle_outlives_the_ticket() {
        let shared = TicketShared::new();
        let ticket = Ticket {
            shared: Arc::clone(&shared),
        };
        let handle = ticket.cancel_handle();
        ticket.on_ready(|_| {});
        assert!(!shared.is_cancelled());
        handle.cancel();
        assert!(shared.is_cancelled());
    }

    #[test]
    fn outcome_predicates() {
        assert!(!Outcome::Expired.is_solved());
        assert!(Outcome::Expired.result().is_none());
        let e = SubmitError::QueueFull {
            depth: 8,
            capacity: 8,
        };
        assert!(e.to_string().contains('8'));
        let e = RegisterError::Setup(QpError::InvalidSetting("x".into()));
        assert!(e.source().is_some());
    }
}
