//! The network front-end: a TCP listener multiplexing client
//! connections onto a [`QpServer`].
//!
//! Threading model (std threads + blocking sockets, no async runtime).
//! Every thread blocks on the event it is waiting for; none sleeps on a
//! timer or polls a flag:
//!
//! * one **acceptor** thread blocks in `accept` — the workspace's one
//!   listener loop, [`mib_obs::Listener`], which the admin plane runs on
//!   too. Shutdown wakes it with a connection to its own address;
//! * each connection gets a **reader** thread blocking in `read` (only
//!   the wait for the Hello is bounded, by `HELLO_PATIENCE`) and a
//!   **writer** thread draining an mpsc channel of outbound frames —
//!   solver workers never block on a slow client socket. Shutdown closes
//!   the read half of the socket, which ends the blocked `read`; the
//!   write half stays open for what the connection still owes its peer;
//! * responses are demultiplexed by *client-assigned* request id: the
//!   reader registers a [`Ticket::on_ready`] callback that forwards the
//!   finished [`Response`] to the writer channel, so no thread ever
//!   parks on an individual ticket;
//! * a stream ends with one **farewell** frame — the `Goodbye`
//!   confirmation, or the `Error` saying why the server hangs up —
//!   ordered after every answer still in flight. The reader does not
//!   wait for those answers: if any are outstanding it leaves the
//!   farewell with the in-flight table, and the `on_ready` callback that
//!   retires the last request sends it.
//!
//! Admission control runs **in front of** the shard queues. Every
//! submit passes the tenant's token bucket and (under congestion) the
//! weighted fair-share check of [`AdmissionController`]; a rejection
//! becomes an explicit [`Frame::Shed`] with a retry-after hint, as does
//! a bounded-queue rejection ([`SubmitError::QueueFull`]) — a client
//! never observes a silently dropped request or a hung connection.
//!
//! [`Ticket::on_ready`]: mib_serve::Ticket::on_ready
//! [`SubmitError::QueueFull`]: mib_serve::SubmitError::QueueFull

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mib_qp::Status;
use mib_serve::{
    queue_full_retry_after, AdmissionConfig, AdmissionController, CancelHandle, Metrics, Outcome,
    PortfolioId, QpServer, Request, Response, SubmitError, TenantId, TenantPolicy, TenantSlot,
};

use crate::frame::{
    self, encode_to_vec, error_code, EndpointInfo, Frame, FrameReader, ReplyCode, ShedReason,
    WireReply, DEFAULT_MAX_FRAME_BYTES,
};
use mib_obs::{set_read_deadline, AdminServer, Listener};

/// How long a new connection may take to deliver its Hello before the
/// server gives up on it: the only bounded wait on a connection.
const HELLO_PATIENCE: Duration = Duration::from_secs(5);

/// What a catalog endpoint submits to.
#[derive(Debug, Clone, Copy)]
pub enum EndpointTarget {
    /// A single registered tenant (`QpServer::submit`).
    Tenant(TenantId),
    /// A portfolio, routed across backends (`QpServer::submit_routed`).
    Portfolio(PortfolioId),
}

/// One entry of the endpoint catalog a server advertises.
#[derive(Debug, Clone)]
pub struct EndpointSpec {
    /// Where submissions go.
    pub target: EndpointTarget,
    /// Name echoed in the [`Frame::HelloAck`] catalog.
    pub name: String,
    /// Decision-variable count (`q`/`x` length), advertised to clients.
    pub num_vars: usize,
    /// Constraint count (`l`/`u`/`y` length), advertised to clients.
    pub num_constraints: usize,
}

/// One accepted tenant credential.
#[derive(Debug, Clone)]
pub struct TenantAuth {
    /// Opaque token the client presents in its [`Frame::Hello`].
    pub token: Vec<u8>,
    /// Label used for admission metrics
    /// (`mib_serve_admission_*_total{tenant="..."}`).
    pub label: String,
    /// Rate/weight policy enforced by the admission controller.
    pub policy: TenantPolicy,
}

/// Network front-end configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Cap on a single frame body; oversized frames tear the
    /// connection down before any allocation.
    pub max_frame_bytes: usize,
    /// Admission-control window/slack (see [`AdmissionConfig`]).
    pub admission: AdmissionConfig,
    /// Where to bind the observability admin listener (`/metrics`,
    /// `/healthz`, `/slo`, `/trace/*`), e.g. `"127.0.0.1:0"`. `None`
    /// (the default) runs no admin plane.
    pub admin_addr: Option<String>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            admission: AdmissionConfig::default(),
            admin_addr: None,
        }
    }
}

/// Outbound traffic of one connection, drained by its writer thread.
enum WriterMsg {
    /// A finished serve response for the given request id.
    Reply(u64, Response),
    /// Any pre-built frame (Shed, Error, Goodbye).
    Frame(Frame),
}

/// What one connection still owes its client.
#[derive(Default)]
struct InFlight {
    /// Accepted requests not yet answered: id -> cancel handle. An entry
    /// is removed by the request's `on_ready` callback *after* its reply
    /// is queued, so "empty" implies every answer is in the writer
    /// channel.
    requests: HashMap<u64, CancelHandle>,
    /// The frame that ends the stream, left here by a reader that
    /// stopped taking requests while answers were outstanding; sent by
    /// the callback that retires the last one.
    farewell: Option<Frame>,
}

struct Shared {
    qp: Arc<QpServer>,
    metrics: Arc<Metrics>,
    admission: AdmissionController,
    endpoints: Vec<EndpointSpec>,
    catalog: Vec<EndpointInfo>,
    auth: HashMap<Vec<u8>, (TenantSlot, String)>,
    cfg: NetConfig,
}

/// The TCP front-end. Dropping it shuts the listener and every
/// connection down; in-flight solves still complete and are answered
/// before the writer threads exit.
pub struct NetServer {
    shared: Arc<Shared>,
    listener: Listener,
    admin: Option<AdminServer>,
}

impl NetServer {
    /// Binds `addr` and starts accepting connections. `endpoints` is
    /// the catalog advertised to every authenticated client; `auth`
    /// maps Hello tokens to tenant labels and admission policies.
    ///
    /// # Errors
    ///
    /// Propagates listener bind/configuration failures.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints` or `auth` is empty.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        qp: Arc<QpServer>,
        endpoints: Vec<EndpointSpec>,
        auth: Vec<TenantAuth>,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        assert!(
            !endpoints.is_empty(),
            "the endpoint catalog must be non-empty"
        );
        assert!(
            !auth.is_empty(),
            "at least one tenant credential is required"
        );
        let metrics = qp.metrics();
        let admission = AdmissionController::new(cfg.admission, Arc::clone(&metrics));
        let now = Instant::now();
        let mut tokens = HashMap::new();
        for entry in auth {
            let slot = admission.register(&entry.label, entry.policy, now);
            tokens.insert(entry.token, (slot, entry.label));
        }
        let catalog = endpoints
            .iter()
            .enumerate()
            .map(|(id, e)| EndpointInfo {
                id: u32::try_from(id).expect("catalog fits u32 ids"),
                routed: matches!(e.target, EndpointTarget::Portfolio(_)),
                num_vars: u32::try_from(e.num_vars).expect("num_vars fits u32"),
                num_constraints: u32::try_from(e.num_constraints)
                    .expect("num_constraints fits u32"),
                name: e.name.clone(),
            })
            .collect();

        let shared = Arc::new(Shared {
            qp,
            metrics,
            admission,
            endpoints,
            catalog,
            auth: tokens,
            cfg,
        });

        let admin = match &shared.cfg.admin_addr {
            Some(addr) => Some(AdminServer::bind(addr.as_str(), Arc::clone(&shared.qp))?),
            None => None,
        };
        let listener = {
            let shared = Arc::clone(&shared);
            Listener::bind(addr, "mib-net", move |stream, stop| {
                serve_connection(stream, &shared, stop);
            })?
        };

        Ok(NetServer {
            shared,
            listener,
            admin,
        })
    }

    /// The bound address (use with port 0 to discover the OS pick).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The bound address of the admin plane, when one was configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(AdminServer::local_addr)
    }

    /// The underlying serve runtime.
    pub fn qp(&self) -> &Arc<QpServer> {
        &self.shared.qp
    }

    /// Stops accepting, ends every connection — each gets the answers
    /// to what it has in flight, then `Error { SHUTTING_DOWN }` — and
    /// joins all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
        if let Some(admin) = self.admin.as_mut() {
            admin.shutdown();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One blocking read's worth of progress towards the next frame.
enum ReadStep {
    Frame(Frame, usize),
    /// End of stream: the peer closed its write half, or shutdown closed
    /// our read half.
    Eof,
    /// No full frame yet: some of its bytes arrived, or (while a read
    /// timeout is set, i.e. before the Hello) none did in time.
    Idle,
    /// Decode failure: the stream is unrecoverable.
    Corrupt(frame::FrameError),
    /// Socket error.
    Io,
}

fn read_step(stream: &mut TcpStream, reader: &mut FrameReader, buf: &mut [u8]) -> ReadStep {
    // Drain frames already buffered before touching the socket.
    let before = reader.pending_bytes();
    match reader.next_frame() {
        // Consumed bytes minus the 4-byte length prefix = the body size.
        Ok(Some(f)) => return ReadStep::Frame(f, before - reader.pending_bytes() - 4),
        Ok(None) => {}
        Err(e) => return ReadStep::Corrupt(e),
    }
    match stream.read(buf) {
        Ok(0) => ReadStep::Eof,
        Ok(n) => {
            reader.extend(&buf[..n]);
            let before = reader.pending_bytes();
            match reader.next_frame() {
                Ok(Some(f)) => ReadStep::Frame(f, before - reader.pending_bytes() - 4),
                Ok(None) => ReadStep::Idle,
                Err(e) => ReadStep::Corrupt(e),
            }
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            ReadStep::Idle
        }
        Err(_) => ReadStep::Io,
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>, stop: &AtomicBool) {
    let metrics = &shared.metrics;
    metrics.inc(&metrics.counters.net_connections_opened);
    let _ = stream.set_nodelay(true);

    if let Some(slot) = handshake(&mut stream, shared, stop) {
        // Authenticated: from here the reader waits for its client for
        // as long as the connection lives.
        if stream.set_read_timeout(None).is_ok() {
            connection_loop(&mut stream, shared, stop, slot);
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    metrics.inc(&metrics.counters.net_connections_closed);
}

/// Runs the Hello/HelloAck exchange. `None` means the connection was
/// refused (an Error frame was already sent best-effort); a Hello
/// offering another wire version fails to decode and is refused as a
/// protocol error.
fn handshake(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    stop: &AtomicBool,
) -> Option<TenantSlot> {
    let metrics = &shared.metrics;
    let mut reader = FrameReader::new(shared.cfg.max_frame_bytes);
    let mut buf = vec![0u8; 64 * 1024];
    let patience = Instant::now() + HELLO_PATIENCE;
    loop {
        if stop.load(Ordering::SeqCst) || !set_read_deadline(stream, patience) {
            send_direct(
                stream,
                &Frame::Error {
                    code: error_code::SHUTTING_DOWN,
                    message: "server unavailable".into(),
                },
                metrics,
            );
            return None;
        }
        match read_step(stream, &mut reader, &mut buf) {
            ReadStep::Idle => {}
            ReadStep::Eof | ReadStep::Io => return None,
            ReadStep::Corrupt(e) => {
                metrics.inc(&metrics.counters.net_frame_decode_errors);
                send_direct(
                    stream,
                    &Frame::Error {
                        code: error_code::PROTOCOL,
                        message: e.to_string(),
                    },
                    metrics,
                );
                return None;
            }
            ReadStep::Frame(Frame::Hello { token }, bytes) => {
                metrics.inc(&metrics.counters.net_frames_received);
                metrics.net_frame_bytes.observe(bytes as u64);
                let Some((slot, label)) = shared.auth.get(&token) else {
                    metrics.inc(&metrics.counters.net_auth_failures);
                    send_direct(
                        stream,
                        &Frame::Error {
                            code: error_code::AUTH_FAILED,
                            message: "unknown tenant token".into(),
                        },
                        metrics,
                    );
                    return None;
                };
                if reader.pending_bytes() > 0 {
                    // Pipelined bytes after the Hello would be lost when
                    // this reader is dropped; a conforming client waits
                    // for the ack.
                    metrics.inc(&metrics.counters.net_frame_decode_errors);
                    send_direct(
                        stream,
                        &Frame::Error {
                            code: error_code::PROTOCOL,
                            message: "frames pipelined before the HelloAck".into(),
                        },
                        metrics,
                    );
                    return None;
                }
                send_direct(
                    stream,
                    &Frame::HelloAck {
                        tenant: label.clone(),
                        endpoints: shared.catalog.clone(),
                    },
                    metrics,
                );
                return Some(*slot);
            }
            ReadStep::Frame(_, bytes) => {
                metrics.inc(&metrics.counters.net_frames_received);
                metrics.net_frame_bytes.observe(bytes as u64);
                send_direct(
                    stream,
                    &Frame::Error {
                        code: error_code::EXPECTED_HELLO,
                        message: "the first frame must be a Hello".into(),
                    },
                    metrics,
                );
                return None;
            }
        }
    }
}

fn connection_loop(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    stop: &AtomicBool,
    slot: TenantSlot,
) {
    let metrics = Arc::clone(&shared.metrics);
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let writer = {
        let out = stream.try_clone().expect("clone connection socket");
        let metrics = Arc::clone(&metrics);
        thread::Builder::new()
            .name("mib-net-write".into())
            .spawn(move || writer_loop(out, &rx, &metrics))
            .expect("spawn writer thread")
    };
    let in_flight = Arc::new(Mutex::new(InFlight::default()));

    let mut reader = FrameReader::new(shared.cfg.max_frame_bytes);
    let mut buf = vec![0u8; 256 * 1024];

    // Take requests until something ends the stream; `farewell` is the
    // frame that tells the client what (nothing, when it is gone).
    let farewell = loop {
        let step = read_step(stream, &mut reader, &mut buf);
        if stop.load(Ordering::SeqCst) {
            break Some(Frame::Error {
                code: error_code::SHUTTING_DOWN,
                message: "server shutting down".into(),
            });
        }
        match step {
            ReadStep::Idle => {}
            ReadStep::Eof | ReadStep::Io => break None,
            ReadStep::Corrupt(e) => {
                metrics.inc(&metrics.counters.net_frame_decode_errors);
                break Some(Frame::Error {
                    code: error_code::PROTOCOL,
                    message: e.to_string(),
                });
            }
            ReadStep::Frame(f, bytes) => {
                metrics.inc(&metrics.counters.net_frames_received);
                metrics.net_frame_bytes.observe(bytes as u64);
                match f {
                    Frame::Submit {
                        request_id,
                        endpoint,
                        deadline_us,
                        trace_id,
                        q,
                        bounds,
                        warm_start,
                    } => {
                        if let ControlFlow::Break(fatal) = handle_submit(
                            shared,
                            slot,
                            &tx,
                            &in_flight,
                            request_id,
                            endpoint,
                            deadline_us,
                            trace_id,
                            q,
                            bounds,
                            warm_start,
                        ) {
                            break Some(fatal);
                        }
                    }
                    Frame::Cancel { request_id } => {
                        if let Some(h) = in_flight
                            .lock()
                            .expect("in-flight table lock")
                            .requests
                            .get(&request_id)
                        {
                            h.cancel();
                        }
                    }
                    // No more requests are coming: confirm once every
                    // answer is ordered ahead of the confirmation.
                    Frame::Goodbye => break Some(Frame::Goodbye),
                    _ => {
                        metrics.inc(&metrics.counters.net_frame_decode_errors);
                        break Some(Frame::Error {
                            code: error_code::PROTOCOL,
                            message: "unexpected frame kind from a client".into(),
                        });
                    }
                }
            }
        }
    };

    if let Some(farewell) = farewell {
        let mut in_flight = in_flight.lock().expect("in-flight table lock");
        if in_flight.requests.is_empty() {
            let _ = tx.send(WriterMsg::Frame(farewell));
        } else {
            in_flight.farewell = Some(farewell);
        }
    }
    // The writer runs until the last sender is gone: this one, and the
    // one each in-flight request's callback holds until it has run.
    drop(tx);
    let _ = writer.join();
}

/// Admits and submits one request. `Break` is a fatal submit error: the
/// `Error` frame to end the connection with. Shed and per-request
/// failures answer in-band.
#[allow(clippy::too_many_arguments)]
fn handle_submit(
    shared: &Arc<Shared>,
    slot: TenantSlot,
    tx: &Sender<WriterMsg>,
    in_flight: &Arc<Mutex<InFlight>>,
    request_id: u64,
    endpoint: u32,
    deadline_us: u64,
    trace_id: u128,
    q: Option<Vec<f64>>,
    bounds: Option<(Vec<f64>, Vec<f64>)>,
    warm_start: Option<(Vec<f64>, Vec<f64>)>,
) -> ControlFlow<Frame> {
    let Some(spec) = shared.endpoints.get(endpoint as usize) else {
        return ControlFlow::Break(Frame::Error {
            code: error_code::UNKNOWN_ENDPOINT,
            message: format!("endpoint {endpoint} is not in the advertised catalog"),
        });
    };

    match shared.admission.admit(slot, Instant::now()) {
        mib_serve::Verdict::Admit => {}
        mib_serve::Verdict::RateLimited { retry_after } => {
            shed_trace(shared, trace_id, "rate_limited");
            let _ = tx.send(WriterMsg::Frame(Frame::Shed {
                request_id,
                reason: ShedReason::RateLimited,
                depth: 0,
                capacity: 0,
                retry_after_us: duration_us(retry_after),
            }));
            return ControlFlow::Continue(());
        }
        mib_serve::Verdict::OverShare { retry_after } => {
            shed_trace(shared, trace_id, "over_share");
            let _ = tx.send(WriterMsg::Frame(Frame::Shed {
                request_id,
                reason: ShedReason::OverShare,
                depth: 0,
                capacity: 0,
                retry_after_us: duration_us(retry_after),
            }));
            return ControlFlow::Continue(());
        }
    }

    let request = Request {
        q,
        bounds,
        deadline: (deadline_us > 0).then(|| Duration::from_micros(deadline_us)),
        warm_start,
        trace_id,
    };
    let submitted = match spec.target {
        EndpointTarget::Tenant(id) => shared.qp.submit(id, request),
        EndpointTarget::Portfolio(id) => shared.qp.submit_routed(id, request),
    };
    match submitted {
        Ok(ticket) => {
            in_flight
                .lock()
                .expect("in-flight table lock")
                .requests
                .insert(request_id, ticket.cancel_handle());
            let tx = tx.clone();
            let in_flight = Arc::clone(in_flight);
            ticket.on_ready(move |response| {
                // Queue the answer BEFORE retiring the id: whoever finds
                // the table empty sends the farewell, and every answer
                // must be ordered ahead of it.
                let _ = tx.send(WriterMsg::Reply(request_id, response));
                let mut in_flight = in_flight.lock().expect("in-flight table lock");
                in_flight.requests.remove(&request_id);
                if in_flight.requests.is_empty() {
                    if let Some(farewell) = in_flight.farewell.take() {
                        let _ = tx.send(WriterMsg::Frame(farewell));
                    }
                }
            });
            ControlFlow::Continue(())
        }
        Err(SubmitError::QueueFull { depth, capacity }) => {
            let now = Instant::now();
            shared.admission.note_queue_full(slot, now);
            let mean_us = shared.metrics.service.mean();
            let retry = queue_full_retry_after(
                depth,
                shared.qp.config().workers_per_shard,
                Duration::from_micros(mean_us as u64),
            );
            let _ = tx.send(WriterMsg::Frame(Frame::Shed {
                request_id,
                reason: ShedReason::QueueFull,
                depth: u32::try_from(depth).unwrap_or(u32::MAX),
                capacity: u32::try_from(capacity).unwrap_or(u32::MAX),
                retry_after_us: duration_us(retry),
            }));
            ControlFlow::Continue(())
        }
        // Deregistered while still in the catalog: to the client, the
        // same as an id outside it.
        Err(e @ SubmitError::UnknownTenant) => ControlFlow::Break(Frame::Error {
            code: error_code::UNKNOWN_ENDPOINT,
            message: e.to_string(),
        }),
        Err(e @ SubmitError::ShuttingDown) => ControlFlow::Break(Frame::Error {
            code: error_code::SHUTTING_DOWN,
            message: e.to_string(),
        }),
    }
}

fn writer_loop(mut out: TcpStream, rx: &Receiver<WriterMsg>, metrics: &Metrics) {
    let mut scratch = Vec::new();
    // Until every sender is gone (see `connection_loop`).
    while let Ok(msg) = rx.recv() {
        let frame = match msg {
            WriterMsg::Reply(request_id, response) => Frame::Response {
                request_id,
                reply: wire_reply(&response),
            },
            WriterMsg::Frame(f) => f,
        };
        scratch.clear();
        frame::encode(&frame, &mut scratch);
        if out.write_all(&scratch).is_err() {
            // The client is gone; drain silently so tickets can retire.
            continue;
        }
        metrics.inc(&metrics.counters.net_frames_sent);
        metrics.net_frame_bytes.observe((scratch.len() - 4) as u64);
    }
    let _ = out.flush();
}

/// Best-effort synchronous send on the reader thread (handshake and
/// refusal paths, before a writer exists).
fn send_direct(stream: &mut TcpStream, frame: &Frame, metrics: &Metrics) {
    let bytes = encode_to_vec(frame);
    if stream.write_all(&bytes).is_ok() {
        metrics.inc(&metrics.counters.net_frames_sent);
        metrics.net_frame_bytes.observe((bytes.len() - 4) as u64);
    }
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Marks a front-door admission rejection in the observability plane:
/// the tail sampler retains a synthetic "shed" span under the client's
/// trace id so `/trace/<id>` explains requests that never reached a
/// queue. Free when the obs plane is disabled.
fn shed_trace(shared: &Arc<Shared>, trace_id: u128, reason: &'static str) {
    let obs = shared.qp.obs();
    if obs.is_active() {
        obs.record_shed(trace_id, reason, Instant::now());
    }
}

/// Converts a serve [`Response`] into its wire form. Solution vectors
/// and the objective cross as raw bits — bitwise exact.
pub fn wire_reply(response: &Response) -> WireReply {
    let mut reply = WireReply {
        code: ReplyCode::Failed,
        iterations: 0,
        obj_val: f64::NAN,
        queue_wait_us: duration_us(response.queue_wait),
        service_us: duration_us(response.service_time),
        batch_size: u32::try_from(response.batch_size).unwrap_or(u32::MAX),
        x: vec![],
        y: vec![],
        message: String::new(),
    };
    match &response.outcome {
        Outcome::Finished(r) => {
            reply.code = match r.status {
                Status::Solved => ReplyCode::Solved,
                Status::MaxIterations => ReplyCode::MaxIterations,
                Status::PrimalInfeasible => ReplyCode::PrimalInfeasible,
                Status::DualInfeasible => ReplyCode::DualInfeasible,
                Status::TimedOut => ReplyCode::TimedOut,
                Status::Cancelled => ReplyCode::Cancelled,
            };
            reply.iterations = u32::try_from(r.iterations).unwrap_or(u32::MAX);
            reply.obj_val = r.obj_val;
            reply.x.clone_from(&r.x);
            reply.y.clone_from(&r.y);
        }
        Outcome::Expired => reply.code = ReplyCode::Expired,
        Outcome::Cancelled => reply.code = ReplyCode::CancelledQueued,
        Outcome::Failed(e) => reply.message = e.to_string(),
    }
    reply
}
