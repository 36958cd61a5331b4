//! A blocking protocol client: handshake on the caller thread, then a
//! reader thread demultiplexing server frames into an event channel.
//!
//! Submissions are written on the caller's thread (cheap: one
//! `write_all` of an encoded frame); answers — responses, sheds,
//! errors, the Goodbye — arrive as [`ClientEvent`]s on the channel
//! returned by [`NetClient::events`], keyed by the client-assigned
//! request id. This mirrors the server's demux design: no thread per
//! request, any number of requests in flight.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, Receiver};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::frame::{
    self, encode_to_vec, EndpointInfo, Frame, FrameReader, ShedReason, WireReply,
    DEFAULT_MAX_FRAME_BYTES,
};

/// One server-to-client event, demultiplexed by the reader thread.
#[derive(Debug, Clone)]
pub enum ClientEvent {
    /// A finished solve (or queued-expiry/cancel/failure) answer.
    Reply {
        /// The id the submission carried.
        request_id: u64,
        /// The answer.
        reply: WireReply,
    },
    /// The request was shed at admission; retry after the hint.
    Shed {
        /// The id the submission carried.
        request_id: u64,
        /// Which admission stage shed it.
        reason: ShedReason,
        /// Queue depth at rejection (queue-full sheds).
        depth: u32,
        /// Queue capacity (queue-full sheds).
        capacity: u32,
        /// Suggested backoff, µs.
        retry_after_us: u64,
    },
    /// Connection-level error from the server; the connection is dead.
    Error {
        /// One of [`frame::error_code`].
        code: u8,
        /// Human-readable detail.
        message: String,
    },
    /// The server confirmed the Goodbye: every answer was delivered.
    Goodbye,
    /// The socket closed (normally after a Goodbye, abnormally
    /// otherwise). Always the final event.
    Disconnected,
}

/// A connected, authenticated protocol client.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    tenant: String,
    endpoints: Vec<EndpointInfo>,
    events: Receiver<ClientEvent>,
    reader: Option<JoinHandle<()>>,
    scratch: Vec<u8>,
}

impl NetClient {
    /// Connects and runs the Hello/HelloAck handshake, capping frames at
    /// [`DEFAULT_MAX_FRAME_BYTES`].
    ///
    /// # Errors
    ///
    /// Socket errors, an authentication refusal, or a malformed
    /// handshake all surface as `io::Error`.
    pub fn connect<A: ToSocketAddrs>(addr: A, token: &[u8]) -> io::Result<NetClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&encode_to_vec(&Frame::Hello {
            token: token.to_vec(),
        }))?;

        // Blocking handshake on the caller thread: the first frame back
        // decides whether this connection exists at all.
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let mut buf = [0u8; 4096];
        let (tenant, endpoints) = loop {
            if let Some(f) = reader
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                match f {
                    Frame::HelloAck { tenant, endpoints } => break (tenant, endpoints),
                    Frame::Error { code, message } => {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionRefused,
                            format!("server refused the connection (code {code}): {message}"),
                        ));
                    }
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("expected a HelloAck, got {other:?}"),
                        ));
                    }
                }
            }
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection during the handshake",
                ));
            }
            reader.extend(&buf[..n]);
        };

        let (tx, events) = mpsc::channel();
        let reader_handle = {
            let stream = stream.try_clone()?;
            thread::Builder::new()
                .name("mib-net-client-read".into())
                .spawn(move || {
                    let mut stream = stream;
                    let mut buf = vec![0u8; 256 * 1024];
                    loop {
                        match reader.next_frame() {
                            Ok(Some(f)) => {
                                let (event, done) = demux(f);
                                if let Some(event) = event {
                                    if tx.send(event).is_err() {
                                        return;
                                    }
                                }
                                if done {
                                    let _ = tx.send(ClientEvent::Disconnected);
                                    return;
                                }
                                continue;
                            }
                            Ok(None) => {}
                            Err(_) => {
                                let _ = tx.send(ClientEvent::Disconnected);
                                return;
                            }
                        }
                        match stream.read(&mut buf) {
                            Ok(0) | Err(_) => {
                                let _ = tx.send(ClientEvent::Disconnected);
                                return;
                            }
                            Ok(n) => reader.extend(&buf[..n]),
                        }
                    }
                })
                .expect("spawn client reader thread")
        };

        Ok(NetClient {
            stream,
            tenant,
            endpoints,
            events,
            reader: Some(reader_handle),
            scratch: Vec::new(),
        })
    }

    /// The tenant label the token authenticated as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The endpoint catalog the server advertised.
    pub fn endpoints(&self) -> &[EndpointInfo] {
        &self.endpoints
    }

    /// Sends a raw frame.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.scratch.clear();
        frame::encode(frame, &mut self.scratch);
        self.stream.write_all(&self.scratch)
    }

    /// Submits a parametric solve request under the given id.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &mut self,
        request_id: u64,
        endpoint: u32,
        deadline: Option<Duration>,
        q: Option<Vec<f64>>,
        bounds: Option<(Vec<f64>, Vec<f64>)>,
        warm_start: Option<(Vec<f64>, Vec<f64>)>,
    ) -> io::Result<()> {
        self.submit_traced(request_id, endpoint, deadline, 0, q, bounds, warm_start)
    }

    /// As [`submit`](NetClient::submit), stamping the request with a
    /// 128-bit trace id so server-side spans (queue wait, solve phases,
    /// kernels) can be correlated with this client's view of the
    /// request. A zero id means "untraced".
    ///
    /// # Errors
    ///
    /// Socket write failures.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_traced(
        &mut self,
        request_id: u64,
        endpoint: u32,
        deadline: Option<Duration>,
        trace_id: u128,
        q: Option<Vec<f64>>,
        bounds: Option<(Vec<f64>, Vec<f64>)>,
        warm_start: Option<(Vec<f64>, Vec<f64>)>,
    ) -> io::Result<()> {
        self.send(&Frame::Submit {
            request_id,
            endpoint,
            deadline_us: deadline.map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX)),
            q,
            bounds,
            warm_start,
            trace_id,
        })
    }

    /// Requests cooperative cancellation of an in-flight submission.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn cancel(&mut self, request_id: u64) -> io::Result<()> {
        self.send(&Frame::Cancel { request_id })
    }

    /// Announces that no more requests are coming. The server answers
    /// everything in flight, then sends [`ClientEvent::Goodbye`].
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn goodbye(&mut self) -> io::Result<()> {
        self.send(&Frame::Goodbye)
    }

    /// The demultiplexed server-event channel.
    pub fn events(&self) -> &Receiver<ClientEvent> {
        &self.events
    }

    /// Waits up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<ClientEvent> {
        self.events.recv_timeout(timeout).ok()
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// Maps a server frame to its event; the bool is "stream finished".
fn demux(frame: Frame) -> (Option<ClientEvent>, bool) {
    match frame {
        Frame::Response { request_id, reply } => {
            (Some(ClientEvent::Reply { request_id, reply }), false)
        }
        Frame::Shed {
            request_id,
            reason,
            depth,
            capacity,
            retry_after_us,
        } => (
            Some(ClientEvent::Shed {
                request_id,
                reason,
                depth,
                capacity,
                retry_after_us,
            }),
            false,
        ),
        Frame::Error { code, message } => (Some(ClientEvent::Error { code, message }), true),
        Frame::Goodbye => (Some(ClientEvent::Goodbye), true),
        // Anything else from a server is a protocol violation; treat it
        // as the end of the stream.
        _ => (None, true),
    }
}
