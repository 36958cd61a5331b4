//! **mib-net** — the wire-protocol front-end of the MIB serving stack.
//!
//! [`mib_serve`] is an in-process runtime: callers hold a
//! [`QpServer`](mib_serve::QpServer) and submit [`Request`]s directly.
//! This crate puts a network in between — a length-prefixed binary TCP
//! protocol (see [`frame`]) multiplexing any number of remote clients
//! onto one `QpServer`, built entirely on std threads and
//! blocking-with-timeout sockets (no async runtime):
//!
//! * [`NetServer`] — acceptor + per-connection reader/writer threads,
//!   tenant-token authentication, deadline propagation, and response
//!   demultiplexing by client-assigned request id (a ticket callback
//!   forwards each finished answer to the connection's writer — no
//!   thread ever parks on an individual solve);
//! * **admission control** in front of the bounded shard queues: every
//!   submit passes its tenant's token bucket and, under congestion, a
//!   weighted fair-share check
//!   ([`AdmissionController`](mib_serve::AdmissionController)); every
//!   rejection — including a full shard queue — is answered with an
//!   explicit [`Frame::Shed`] carrying the observed depth, capacity and
//!   a retry-after hint. A client never sees a silent drop or a hung
//!   connection;
//! * [`NetClient`] — blocking handshake, then an event channel of
//!   demultiplexed [`ClientEvent`]s, supporting any number of in-flight
//!   requests per connection.
//!
//! All floating-point payloads travel as raw IEEE 754 bits, so a served
//! answer is **bitwise identical** to the same solve run in process —
//! the property the `load_bench` harness verifies over real sockets at
//! million-request scale.
//!
//! [`Request`]: mib_serve::Request

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod server;

pub use client::{ClientEvent, NetClient};
pub use frame::{
    error_code, EndpointInfo, Frame, FrameError, FrameReader, ReplyCode, ShedReason, WireReply,
    DEFAULT_MAX_FRAME_BYTES, MAGIC, VERSION,
};
pub use server::{wire_reply, EndpointSpec, EndpointTarget, NetConfig, NetServer, TenantAuth};
