//! mib-obs: the observability admin plane.
//!
//! A deliberately tiny HTTP/1.1 server — std sockets, no async runtime,
//! no HTTP library — that exposes the read side of a running
//! [`QpServer`] on a separate port from the wire protocol:
//!
//! | route | body |
//! |---|---|
//! | `GET /metrics` | [`Metrics::render`] verbatim — byte-identical to an in-process snapshot |
//! | `GET /healthz` | `200 ok` / `503 shedding` from the rolling shed ratio |
//! | `GET /slo` | burn-rate / rolling-quantile text from [`ObsPlane::render_slo`] |
//! | `GET /trace` | index of retained flight-recorder traces (id, reason, records) |
//! | `GET /trace/<32-hex-id>` | that trace as Chrome `chrome://tracing` JSON |
//!
//! The listener is *hung off* the serving stack, never in front of it:
//! every handler only reads shared state (atomic counters, the bounded
//! flight ring, the rolling windows), so a slow or hostile scraper can
//! degrade nothing but its own connection. Responses always carry
//! `Content-Length` and `Connection: close`; one request per
//! connection keeps the parser ~40 lines and removes every keep-alive
//! state machine.
//!
//! The crate also owns the workspace's one TCP accept loop,
//! [`Listener`]: a blocking `accept`, a thread per connection, a
//! shutdown that wakes the threads it started, and a registry that
//! forgets finished handlers. The admin plane and the `mib-net` wire
//! server both run on it.
//!
//! [`Metrics::render`]: mib_serve::Metrics::render
//! [`ObsPlane::render_slo`]: mib_serve::ObsPlane::render_slo

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod listener;

pub use listener::{set_read_deadline, Listener};

use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mib_serve::QpServer;
use mib_trace::{format_trace_id, parse_trace_id};

/// Cap on an inbound request head. Anything larger than this is not a
/// scrape, it is a mistake (or an attack) — the connection is closed.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long a connection may dribble its request line before the
/// handler gives up on it.
const REQUEST_PATIENCE: Duration = Duration::from_secs(2);

/// The admin-plane HTTP listener. Dropping it stops the acceptor and
/// joins every in-flight handler thread.
pub struct AdminServer {
    listener: Listener,
}

impl AdminServer {
    /// Binds `addr` (use port 0 to let the OS pick) and starts serving
    /// the admin routes against `qp`.
    ///
    /// # Errors
    ///
    /// Propagates listener bind/configuration failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, qp: Arc<QpServer>) -> io::Result<AdminServer> {
        let listener = Listener::bind(addr, "mib-obs", move |stream, _stop| {
            serve_connection(stream, &qp);
        })?;
        Ok(AdminServer { listener })
    }

    /// The bound address of the admin listener.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops accepting and joins all handler threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

fn serve_connection(mut stream: TcpStream, qp: &QpServer) {
    let _ = stream.set_nodelay(true);
    if let Some((method, path)) = read_request(&mut stream) {
        let response = route(qp, &method, &path);
        let _ = stream.write_all(response.as_bytes());
        let _ = stream.flush();
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads until the blank line ending the request head and returns
/// `(method, path)` from the request line. `None` on malformed input,
/// end of stream (the peer left, or the listener is shutting down), or
/// a head still incomplete after [`REQUEST_PATIENCE`].
fn read_request(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let patience = Instant::now() + REQUEST_PATIENCE;
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if !set_read_deadline(stream, patience) {
            return None;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.len() > MAX_REQUEST_BYTES {
                    return None;
                }
            }
        }
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    Some((method, path))
}

/// Dispatches one request to its handler and serializes the full
/// HTTP/1.1 response (status line, headers, body).
fn route(qp: &QpServer, method: &str, path: &str) -> String {
    if method != "GET" {
        return respond(
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET is served\n",
        );
    }
    let obs = qp.obs();
    match path {
        "/metrics" => respond(
            200,
            "OK",
            "text/plain; version=0.0.4",
            &qp.metrics().render(),
        ),
        "/healthz" => {
            let (ok, body) = obs.healthz(Instant::now());
            if ok {
                respond(200, "OK", "text/plain", &body)
            } else {
                respond(503, "Service Unavailable", "text/plain", &body)
            }
        }
        "/slo" => respond(200, "OK", "text/plain", &obs.render_slo(Instant::now())),
        "/trace" | "/trace/" => {
            let mut body = String::new();
            for (id, reason, records) in obs.flight().index() {
                let _ = writeln!(
                    body,
                    "{} {} {}",
                    format_trace_id(id),
                    reason.as_str(),
                    records
                );
            }
            respond(200, "OK", "text/plain", &body)
        }
        _ => match path.strip_prefix("/trace/").and_then(parse_trace_id) {
            Some(id) => match obs.flight().lookup(id) {
                Some(record) => respond(200, "OK", "application/json", &record.to_chrome_json()),
                None => respond(404, "Not Found", "text/plain", "no retained trace\n"),
            },
            None => respond(404, "Not Found", "text/plain", "unknown route\n"),
        },
    }
}

fn respond(code: u16, phrase: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {code} {phrase}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Issues one blocking `GET path` against an admin listener and returns
/// `(status_code, body)`. Shared by the integration tests, the load
/// bench's scraper thread and `scripts/check.sh`'s smoke gate — having
/// it here keeps all three talking exactly the protocol the server
/// speaks.
///
/// # Errors
///
/// I/O failures connecting/reading, or a response head that is not
/// minimal valid HTTP/1.1.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: mib\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 response"))?;
    let header_end = text
        .find("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing header terminator"))?;
    let status = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    Ok((status, text[header_end + 4..].to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_serve::{ObsConfig, ServeConfig};

    fn admin_fixture() -> (AdminServer, SocketAddr, Arc<QpServer>) {
        let p = mib_sparse::CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0])
            .upper_triangle()
            .unwrap();
        let a = mib_sparse::CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        let problem = mib_qp::Problem::new(
            p,
            vec![1.0, 1.0],
            a,
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.7, 0.7],
        )
        .unwrap();
        let qp = Arc::new(QpServer::new(ServeConfig {
            obs: ObsConfig { enabled: true },
            ..ServeConfig::default()
        }));
        let tenant = qp.register(problem, mib_qp::Settings::default()).unwrap();
        let ticket = qp
            .submit(tenant, mib_serve::Request::with_q(vec![0.5, 1.5]))
            .unwrap();
        assert!(ticket.wait().outcome.is_solved());
        let admin = AdminServer::bind("127.0.0.1:0", Arc::clone(&qp)).unwrap();
        let addr = admin.local_addr();
        (admin, addr, qp)
    }

    #[test]
    fn metrics_route_matches_in_process_render_byte_for_byte() {
        let (mut admin, addr, qp) = admin_fixture();
        // Quiesced server: no concurrent mutation, so the scrape must
        // equal a snapshot taken around it. (The under-load variant
        // lives in the crate's integration tests.)
        let (status, body) = http_get(addr, "/metrics").unwrap();
        let snapshot = qp.metrics().render();
        assert_eq!(status, 200);
        assert_eq!(body, snapshot, "scrape must be Metrics::render() verbatim");
        admin.shutdown();
        qp.shutdown();
    }

    #[test]
    fn healthz_and_slo_routes_serve_text() {
        let (mut admin, addr, qp) = admin_fixture();
        let (status, body) = http_get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with("ok"), "healthy server reports ok: {body}");
        let (status, body) = http_get(addr, "/slo").unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("mib_slo_burn_rate"),
            "missing burn rate: {body}"
        );
        admin.shutdown();
        qp.shutdown();
    }

    #[test]
    fn unknown_routes_and_methods_are_refused() {
        let (mut admin, addr, qp) = admin_fixture();
        let (status, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_get(addr, "/trace/not-a-trace-id").unwrap();
        assert_eq!(status, 404);
        let (status, _) =
            http_get(addr, &format!("/trace/{}", format_trace_id(0xdead_beef))).unwrap();
        assert_eq!(status, 404, "well-formed but unknown id is a 404");

        // Non-GET: speak the wire by hand.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /metrics HTTP/1.1\r\nHost: mib\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "got: {raw}");
        admin.shutdown();
        qp.shutdown();
    }

    #[test]
    fn shutdown_does_not_wait_for_a_silent_peer() {
        let (mut admin, _, qp) = admin_fixture();
        let started = Instant::now();
        admin.shutdown();
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "no client ever connected, yet shutdown took {:?}",
            started.elapsed()
        );

        let mut admin = AdminServer::bind("127.0.0.1:0", Arc::clone(&qp)).unwrap();
        // A peer that sends half a request line and then nothing: its
        // handler sits in `read` with two seconds of patience left.
        let mut idle = TcpStream::connect(admin.local_addr()).unwrap();
        idle.write_all(b"GET /met").unwrap();
        let (status, _) = http_get(admin.local_addr(), "/healthz").unwrap();
        assert_eq!(status, 200, "the silent peer holds up nobody else");
        let started = Instant::now();
        admin.shutdown();
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "shutdown waited {:?} on a handler blocked in read",
            started.elapsed()
        );
        let mut rest = Vec::new();
        assert_eq!(idle.read_to_end(&mut rest).unwrap(), 0, "closed unanswered");
        qp.shutdown();
    }

    #[test]
    fn finished_handlers_are_reaped_as_scrapes_arrive() {
        let (mut admin, addr, qp) = admin_fixture();
        for _ in 0..100 {
            assert_eq!(http_get(addr, "/healthz").unwrap().0, 200);
        }
        // Each accept forgets the handlers that have finished, and a
        // handler finishes a moment after its client reads end-of-stream:
        // within a few more accepts the registry is down to the handler
        // of the last scrape. (One entry per scrape ever made: 100.)
        let mut tracked = admin.listener.tracked_connections();
        for _ in 0..50 {
            if tracked <= 1 {
                break;
            }
            assert_eq!(http_get(addr, "/healthz").unwrap().0, 200);
            tracked = admin.listener.tracked_connections();
        }
        assert!(tracked <= 1, "{tracked} handlers tracked after the scrapes");
        admin.shutdown();
        qp.shutdown();
    }

    #[test]
    fn trace_index_lists_retained_flight_records() {
        let (mut admin, addr, qp) = admin_fixture();
        // Force a retained record through the public shed path.
        qp.obs().record_shed(0x77, "queue_full", Instant::now());
        let (status, body) = http_get(addr, "/trace").unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains(&format_trace_id(0x77)),
            "index missing shed trace: {body}"
        );
        let (status, json) = http_get(addr, &format!("/trace/{}", format_trace_id(0x77))).unwrap();
        assert_eq!(status, 200);
        assert!(json.contains("traceEvents"), "not chrome json: {json}");
        admin.shutdown();
        qp.shutdown();
    }
}
