//! End-to-end tests over a real loopback socket: handshake + auth,
//! bitwise answer parity with direct solves, routed endpoints,
//! rate-limit sheds, cancellation, the Goodbye drain protocol, and
//! clean teardown under garbage, oversized and unauthenticated input.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use mib_net::frame::{encode_to_vec, error_code, Frame, FrameReader, DEFAULT_MAX_FRAME_BYTES};
use mib_net::{
    ClientEvent, EndpointSpec, EndpointTarget, NetClient, NetConfig, NetServer, ReplyCode,
    ShedReason, TenantAuth,
};
use mib_problems::{instance, Domain};
use mib_qp::{Algorithm, Settings, Solver};
use mib_serve::{QpServer, Request, ServeConfig, TenantId, TenantPolicy};

const TOKEN_A: &[u8] = b"tenant-a-token";
const TOKEN_B: &[u8] = b"tenant-b-token";

/// A server with one direct endpoint (Portfolio domain) and one routed
/// endpoint (same problem under both algorithms), two tenants.
fn start_server(policy_a: TenantPolicy) -> (NetServer, Solver) {
    let qp = Arc::new(QpServer::new(ServeConfig::default()));
    let spec = instance(Domain::Portfolio, 0);
    let template = Solver::new(spec.problem.clone(), Settings::default()).unwrap();
    let tenant = qp
        .register(spec.problem.clone(), Settings::default())
        .unwrap();
    let portfolio = qp
        .register_portfolio(
            &spec.problem,
            vec![
                Settings {
                    algorithm: Algorithm::Admm,
                    ..Settings::default()
                },
                Settings {
                    algorithm: Algorithm::Pdqp,
                    ..Settings::default()
                },
            ],
        )
        .unwrap();
    let endpoints = vec![
        EndpointSpec {
            target: EndpointTarget::Tenant(tenant),
            name: "portfolio-direct".into(),
            num_vars: spec.problem.num_vars(),
            num_constraints: spec.problem.num_constraints(),
        },
        EndpointSpec {
            target: EndpointTarget::Portfolio(portfolio),
            name: "portfolio-routed".into(),
            num_vars: spec.problem.num_vars(),
            num_constraints: spec.problem.num_constraints(),
        },
    ];
    let auth = vec![
        TenantAuth {
            token: TOKEN_A.to_vec(),
            label: "tenant-a".into(),
            policy: policy_a,
        },
        TenantAuth {
            token: TOKEN_B.to_vec(),
            label: "tenant-b".into(),
            policy: TenantPolicy::default(),
        },
    ];
    let server = NetServer::bind("127.0.0.1:0", qp, endpoints, auth, NetConfig::default()).unwrap();
    (server, template)
}

fn direct_reference(template: &Solver, request: &Request) -> mib_qp::SolveResult {
    let mut solver = template.clone();
    let problem = solver.problem();
    let q = request.q.clone().unwrap_or_else(|| problem.q().to_vec());
    let (l, u) = request
        .bounds
        .clone()
        .unwrap_or_else(|| (problem.l().to_vec(), problem.u().to_vec()));
    solver.update_q(&q).unwrap();
    solver.update_bounds(&l, &u).unwrap();
    solver.reset();
    solver.solve()
}

#[test]
fn served_answers_over_the_wire_are_bitwise_equal_to_direct_solves() {
    let (server, template) = start_server(TenantPolicy::default());
    let mut client = NetClient::connect(server.local_addr(), TOKEN_A).unwrap();
    assert_eq!(client.tenant(), "tenant-a");
    assert_eq!(client.endpoints().len(), 2);
    assert!(!client.endpoints()[0].routed);
    assert!(client.endpoints()[1].routed);

    let n = client.endpoints()[0].num_vars as usize;
    let base_q: Vec<f64> = template.problem().q().to_vec();
    assert_eq!(base_q.len(), n);

    // A batch of perturbed-q requests, all in flight at once.
    let mut requests = Vec::new();
    for k in 0..6u64 {
        let mut q = base_q.clone();
        for (i, qi) in q.iter_mut().enumerate() {
            *qi += 0.01 * (k as f64) * ((i % 5) as f64 - 2.0);
        }
        requests.push(Request::with_q(q));
    }
    for (k, request) in requests.iter().enumerate() {
        client
            .submit(k as u64, 0, None, request.q.clone(), None, None)
            .unwrap();
    }

    let mut replies = std::collections::HashMap::new();
    while replies.len() < requests.len() {
        match client.recv_timeout(Duration::from_secs(30)) {
            Some(ClientEvent::Reply { request_id, reply }) => {
                replies.insert(request_id, reply);
            }
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    for (k, request) in requests.iter().enumerate() {
        let reply = &replies[&(k as u64)];
        let reference = direct_reference(&template, request);
        assert_eq!(reply.code, ReplyCode::Solved, "request {k}");
        assert_eq!(reply.iterations as usize, reference.iterations);
        assert_eq!(
            reply.obj_val.to_bits(),
            reference.obj_val.to_bits(),
            "objective of request {k} must cross the wire bitwise"
        );
        assert!(
            reply
                .x
                .iter()
                .zip(&reference.x)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "x of request {k} must be bitwise equal to the direct solve"
        );
        assert!(
            reply
                .y
                .iter()
                .zip(&reference.y)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "y of request {k} must be bitwise equal to the direct solve"
        );
        assert!(reply.batch_size >= 1);
    }
}

#[test]
fn goodbye_drains_inflight_answers_then_confirms() {
    let (server, _template) = start_server(TenantPolicy::default());
    let mut client = NetClient::connect(server.local_addr(), TOKEN_B).unwrap();
    for k in 0..4u64 {
        client.submit(k, 1, None, None, None, None).unwrap();
    }
    client.goodbye().unwrap();

    let mut replies = 0;
    loop {
        match client.recv_timeout(Duration::from_secs(30)) {
            Some(ClientEvent::Reply { reply, .. }) => {
                assert_eq!(reply.code, ReplyCode::Solved);
                replies += 1;
            }
            Some(ClientEvent::Goodbye) => break,
            other => panic!("expected reply/goodbye, got {other:?}"),
        }
    }
    // Every answer must be ordered before the Goodbye.
    assert_eq!(replies, 4);
    assert!(matches!(
        client.recv_timeout(Duration::from_secs(10)),
        Some(ClientEvent::Disconnected)
    ));
}

#[test]
fn rate_limited_tenants_get_explicit_shed_frames() {
    // 1 token, glacial refill: the first submit is admitted, the rest
    // are shed with a RateLimited reason and a positive retry hint.
    let (server, _template) = start_server(TenantPolicy {
        rate_per_sec: 0.001,
        burst: 1.0,
        weight: 1.0,
    });
    let mut client = NetClient::connect(server.local_addr(), TOKEN_A).unwrap();
    for k in 0..5u64 {
        client.submit(k, 0, None, None, None, None).unwrap();
    }
    let (mut replies, mut sheds) = (0, 0);
    for _ in 0..5 {
        match client.recv_timeout(Duration::from_secs(30)) {
            Some(ClientEvent::Reply { .. }) => replies += 1,
            Some(ClientEvent::Shed {
                reason,
                retry_after_us,
                ..
            }) => {
                assert_eq!(reason, ShedReason::RateLimited);
                assert!(retry_after_us > 0, "shed frames carry a retry hint");
                sheds += 1;
            }
            other => panic!("expected reply/shed, got {other:?}"),
        }
    }
    assert_eq!(replies, 1, "exactly the burst is admitted");
    assert_eq!(sheds, 4, "everything else is shed explicitly");

    let metrics = server.qp().metrics().render();
    assert!(
        metrics.contains("mib_serve_admission_shed_rate_limited_total{tenant=\"tenant-a\"} 4"),
        "per-tenant shed counters must be rendered:\n{metrics}"
    );
}

#[test]
fn cancel_frames_reach_inflight_requests() {
    let (server, _template) = start_server(TenantPolicy::default());
    let mut client = NetClient::connect(server.local_addr(), TOKEN_B).unwrap();
    // Enough submissions that some are still queued when the cancels
    // land; every one of them must still be answered (cancelled,
    // cancelled-in-queue, or already solved — never silence).
    for k in 0..8u64 {
        client.submit(k, 0, None, None, None, None).unwrap();
    }
    for k in 0..8u64 {
        client.cancel(k).unwrap();
    }
    for _ in 0..8 {
        match client.recv_timeout(Duration::from_secs(30)) {
            Some(ClientEvent::Reply { reply, .. }) => {
                assert!(
                    matches!(
                        reply.code,
                        ReplyCode::Solved | ReplyCode::Cancelled | ReplyCode::CancelledQueued
                    ),
                    "unexpected outcome {:?}",
                    reply.code
                );
            }
            other => panic!("expected a reply, got {other:?}"),
        }
    }
}

#[test]
fn deadline_propagates_to_queued_expiry() {
    let (server, _template) = start_server(TenantPolicy::default());
    let mut client = NetClient::connect(server.local_addr(), TOKEN_B).unwrap();
    // An already-expired deadline: answered as Expired (if it was still
    // queued) or TimedOut (if a worker picked it up first) — never hung.
    client
        .submit(0, 0, Some(Duration::from_micros(1)), None, None, None)
        .unwrap();
    match client.recv_timeout(Duration::from_secs(30)) {
        Some(ClientEvent::Reply { reply, .. }) => assert!(
            matches!(
                reply.code,
                ReplyCode::Expired | ReplyCode::TimedOut | ReplyCode::Solved
            ),
            "unexpected outcome {:?}",
            reply.code
        ),
        other => panic!("expected a reply, got {other:?}"),
    }
}

#[test]
fn wrong_token_is_refused_with_an_auth_error() {
    let (server, _template) = start_server(TenantPolicy::default());
    let err = NetClient::connect(server.local_addr(), b"intruder").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert!(err.to_string().contains("unknown tenant token"), "{err}");
    assert!(
        server
            .qp()
            .metrics()
            .counters
            .net_auth_failures
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
}

/// Sends `bytes` on a raw connection and collects the codes of the
/// `Error` frames the server answers with until it closes.
fn error_codes_after(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(bytes).unwrap();
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
    let mut buf = [0u8; 4096];
    let mut codes = Vec::new();
    loop {
        let n = raw.read(&mut buf).unwrap_or(0);
        if n == 0 {
            return codes; // server closed: clean teardown
        }
        reader.extend(&buf[..n]);
        while let Ok(Some(f)) = reader.next_frame() {
            if let Frame::Error { code, .. } = f {
                codes.push(code);
            }
        }
    }
}

#[test]
fn garbage_bytes_get_an_error_frame_and_a_clean_close() {
    let (server, _template) = start_server(TenantPolicy::default());
    // A plausible length header followed by an unknown kind byte.
    let mut garbage = 12u32.to_le_bytes().to_vec();
    garbage.extend([0xEE; 12]);
    assert_eq!(
        error_codes_after(server.local_addr(), &garbage),
        [error_code::PROTOCOL],
        "the server must explain before closing"
    );
    assert!(
        server
            .qp()
            .metrics()
            .counters
            .net_frame_decode_errors
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
}

#[test]
fn oversized_frames_are_rejected_without_buffering() {
    let (server, _template) = start_server(TenantPolicy::default());
    // Claim a body far beyond the server's limit; send nothing else.
    assert!(
        !error_codes_after(server.local_addr(), &u32::MAX.to_le_bytes()).is_empty(),
        "oversized frames must be refused explicitly"
    );
}

#[test]
fn submits_before_hello_are_refused() {
    let (server, _template) = start_server(TenantPolicy::default());
    let submit = encode_to_vec(&Frame::Submit {
        request_id: 1,
        endpoint: 0,
        deadline_us: 0,
        trace_id: 0,
        q: None,
        bounds: None,
        warm_start: None,
    });
    assert_eq!(
        error_codes_after(server.local_addr(), &submit),
        [error_code::EXPECTED_HELLO]
    );
}

/// As [`start_server`] with an explicit [`NetConfig`] and serve config,
/// for the version and observability tests below; also hands back the
/// one tenant behind the catalog.
fn start_server_cfg(serve: ServeConfig, cfg: NetConfig) -> (NetServer, TenantId) {
    let qp = Arc::new(QpServer::new(serve));
    let spec = instance(Domain::Portfolio, 0);
    let tenant = qp
        .register(spec.problem.clone(), Settings::default())
        .unwrap();
    let endpoints = vec![EndpointSpec {
        target: EndpointTarget::Tenant(tenant),
        name: "portfolio-direct".into(),
        num_vars: spec.problem.num_vars(),
        num_constraints: spec.problem.num_constraints(),
    }];
    let auth = vec![TenantAuth {
        token: TOKEN_A.to_vec(),
        label: "tenant-a".into(),
        policy: TenantPolicy::default(),
    }];
    let server = NetServer::bind("127.0.0.1:0", qp, endpoints, auth, cfg).unwrap();
    (server, tenant)
}

fn wait_for_reply(client: &mut NetClient, request_id: u64) -> ReplyCode {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while std::time::Instant::now() < deadline {
        match client.recv_timeout(Duration::from_secs(1)) {
            Some(ClientEvent::Reply {
                request_id: id,
                reply,
            }) if id == request_id => {
                return reply.code;
            }
            Some(_) | None => {}
        }
    }
    panic!("no reply for request {request_id}");
}

#[test]
fn matched_versions_negotiate_the_newest_and_carry_trace_ids() {
    // One handshake at the one wire version, and the Submit's trace id
    // crosses the wire into the serving runtime's request.
    let (server, _) = start_server_cfg(
        ServeConfig {
            obs: mib_serve::ObsConfig {
                enabled: true,
                // Retain every finished request: anything slower than
                // 0us is "slow".
                slow_us: 0,
                ..mib_serve::ObsConfig::default()
            },
            ..ServeConfig::default()
        },
        NetConfig::default(),
    );
    let mut client = NetClient::connect(server.local_addr(), TOKEN_A).unwrap();
    let trace_id: u128 = (0xabad_1dea_u128 << 64) | 0x0ddc_0ffe;
    client
        .submit_traced(9, 0, None, trace_id, None, None, None)
        .unwrap();
    assert_eq!(wait_for_reply(&mut client, 9), ReplyCode::Solved);
    let flight = server.qp().obs();
    let record = flight
        .flight()
        .lookup(trace_id)
        .expect("traced request retained under the client-supplied id");
    assert!(
        record.records.iter().any(|r| matches!(
            &r.event,
            mib_trace::Event::Begin { name, .. } if *name == "solve_request"
        )),
        "flight record must contain the serve-side solve span"
    );

    // A Hello offering any other version, the retired v1 included, is
    // refused as a protocol error.
    let mut hello = encode_to_vec(&Frame::Hello {
        token: TOKEN_A.to_vec(),
    });
    hello[18..20].copy_from_slice(&1u16.to_le_bytes());
    assert_eq!(
        error_codes_after(server.local_addr(), &hello),
        [error_code::PROTOCOL]
    );
}

#[test]
fn admin_listener_rides_along_when_configured() {
    let (server, _) = start_server_cfg(
        ServeConfig {
            obs: mib_serve::ObsConfig {
                enabled: true,
                ..mib_serve::ObsConfig::default()
            },
            ..ServeConfig::default()
        },
        NetConfig {
            admin_addr: Some("127.0.0.1:0".into()),
            ..NetConfig::default()
        },
    );
    let admin = server.admin_addr().expect("admin plane is bound");
    let mut client = NetClient::connect(server.local_addr(), TOKEN_A).unwrap();
    client.submit(3, 0, None, None, None, None).unwrap();
    assert_eq!(wait_for_reply(&mut client, 3), ReplyCode::Solved);

    // The writer thread bumps its sent-counters *after* the socket
    // write, so the counter may trail the reply by a scheduler quantum;
    // scrape until the view settles.
    let mut matched = false;
    for _ in 0..100 {
        let (status, body) = mib_obs::http_get(admin, "/metrics").unwrap();
        assert_eq!(status, 200);
        if body == server.qp().metrics().render() {
            matched = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        matched,
        "admin scrape must converge to Metrics::render() verbatim"
    );
    let (status, body) = mib_obs::http_get(admin, "/healthz").unwrap();
    assert_eq!(status, 200, "healthy: {body}");
}

#[test]
fn a_deregistered_tenant_is_an_unknown_endpoint() {
    let (server, tenant) = start_server_cfg(ServeConfig::default(), NetConfig::default());
    // Still in the advertised catalog, gone from the runtime.
    assert!(server.qp().deregister(tenant));
    let mut client = NetClient::connect(server.local_addr(), TOKEN_A).unwrap();
    client.submit(0, 0, None, None, None, None).unwrap();
    match client.recv_timeout(Duration::from_secs(30)) {
        Some(ClientEvent::Error { code, .. }) => assert_eq!(code, error_code::UNKNOWN_ENDPOINT),
        other => panic!("expected an UNKNOWN_ENDPOINT error, got {other:?}"),
    }
}

#[test]
fn shutdown_does_not_wait_for_a_silent_client() {
    let (mut server, _template) = start_server(TenantPolicy::default());
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_millis(250),
        "no client ever connected, yet shutdown took {:?}",
        started.elapsed()
    );

    // A connected, authenticated client that sends nothing: its reader
    // sits in `read` with no timeout.
    let (mut server, _template) = start_server(TenantPolicy::default());
    let client = NetClient::connect(server.local_addr(), TOKEN_A).unwrap();
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_millis(250),
        "shutdown waited {:?} on a reader blocked in read",
        started.elapsed()
    );
    match client.recv_timeout(Duration::from_secs(10)) {
        Some(ClientEvent::Error { code, .. }) => assert_eq!(code, error_code::SHUTTING_DOWN),
        other => panic!("expected a SHUTTING_DOWN error, got {other:?}"),
    }
    assert!(matches!(
        client.recv_timeout(Duration::from_secs(10)),
        Some(ClientEvent::Disconnected)
    ));
}

#[test]
fn shutdown_tears_connections_down_without_hanging() {
    let (mut server, _template) = start_server(TenantPolicy::default());
    let mut client = NetClient::connect(server.local_addr(), TOKEN_A).unwrap();
    client.submit(0, 0, None, None, None, None).unwrap();
    // The in-flight answer races the shutdown; both orders are fine as
    // long as the client observes a definite end of stream.
    server.shutdown();
    let mut disconnected = false;
    for _ in 0..4 {
        match client.recv_timeout(Duration::from_secs(10)) {
            Some(ClientEvent::Disconnected) | None => {
                disconnected = true;
                break;
            }
            Some(_) => {}
        }
    }
    assert!(disconnected, "shutdown must end the client stream");
}
