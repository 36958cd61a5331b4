//! The MIB wire protocol: length-prefixed binary frames.
//!
//! Every frame on the wire is
//!
//! ```text
//! [ body_len: u32 LE ] [ body: body_len bytes ]
//! body = [ kind: u8 ] [ flags: u8 (reserved, 0) ] [ request_id: u64 LE ] [ payload ]
//! ```
//!
//! A connection opens with a [`Frame::Hello`] carrying the protocol
//! magic, the version and the tenant auth token; everything after the
//! [`Frame::HelloAck`] is request traffic keyed by *client-assigned*
//! request ids — the server answers out of order, and the client
//! demultiplexes on the id. Floating-point payloads travel as raw IEEE
//! 754 bit patterns ([`f64::to_bits`], little-endian), so a solution
//! vector crosses the wire **bitwise exactly** — the load harness's
//! answer-parity checks compare transported bits against direct solves.
//!
//! The decoder is defensive at every boundary: a frame longer than the
//! negotiated maximum is rejected *from its header alone* (before any
//! allocation), section counts are validated against the remaining body
//! length before a vector is reserved, and trailing bytes after a
//! well-formed payload are an error. Torn frames (partial reads) are a
//! non-event: [`FrameReader`] buffers until a full frame is in hand.

use std::fmt;

/// Protocol magic leading every [`Frame::Hello`]: `"MIBQ"` LE.
pub const MAGIC: u32 = 0x4d49_4251;

/// The one protocol version this build speaks, carried in every
/// [`Frame::Hello`]; a Hello offering any other version is
/// [`FrameError::BadVersion`]. In this version a [`Frame::Submit`] may
/// carry a 128-bit trace id (section mask bit 3).
pub const VERSION: u16 = 2;

/// Default cap on a single frame body, bytes. Generous for solution
/// vectors of every benchmark domain, small enough that a hostile
/// length header cannot balloon server memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Fixed body prefix: kind, flags, request id.
const HEADER_BYTES: usize = 1 + 1 + 8;

/// Why a shed frame was sent instead of an answer (wire codes 0-2, in
/// declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShedReason {
    /// The tenant's token bucket was empty.
    RateLimited,
    /// The tenant was over its weighted fair share under congestion.
    OverShare,
    /// The shard queue was full.
    QueueFull,
}

impl ShedReason {
    fn from_code(code: u8) -> Result<Self, FrameError> {
        [
            ShedReason::RateLimited,
            ShedReason::OverShare,
            ShedReason::QueueFull,
        ]
        .get(usize::from(code))
        .copied()
        .ok_or(FrameError::Malformed("unknown shed reason"))
    }
}

/// Terminal outcome code of a [`WireReply`] (wire codes 0-8, in
/// declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReplyCode {
    /// Solve converged; `x`/`y`/`obj_val` carry the answer.
    Solved,
    /// Solve hit the iteration limit.
    MaxIterations,
    /// Primal infeasibility certified.
    PrimalInfeasible,
    /// Dual infeasibility certified.
    DualInfeasible,
    /// Deadline tripped inside the solver loop.
    TimedOut,
    /// Cancellation observed inside the solver loop.
    Cancelled,
    /// Deadline expired while still queued; never solved.
    Expired,
    /// Cancelled while still queued; never solved.
    CancelledQueued,
    /// Parametric data rejected; `message` carries the error.
    Failed,
}

impl ReplyCode {
    /// Every code, indexed by its wire value.
    const ALL: [ReplyCode; 9] = [
        ReplyCode::Solved,
        ReplyCode::MaxIterations,
        ReplyCode::PrimalInfeasible,
        ReplyCode::DualInfeasible,
        ReplyCode::TimedOut,
        ReplyCode::Cancelled,
        ReplyCode::Expired,
        ReplyCode::CancelledQueued,
        ReplyCode::Failed,
    ];

    fn from_code(code: u8) -> Result<Self, FrameError> {
        ReplyCode::ALL
            .get(usize::from(code))
            .copied()
            .ok_or(FrameError::Malformed("unknown reply code"))
    }

    /// Whether the reply carries a solution vector worth reading.
    pub fn is_solved(self) -> bool {
        self == ReplyCode::Solved
    }
}

/// Connection-level error codes carried by [`Frame::Error`].
pub mod error_code {
    /// The first frame was not a Hello.
    pub const EXPECTED_HELLO: u8 = 1;
    /// The Hello token matched no registered tenant.
    pub const AUTH_FAILED: u8 = 2;
    /// A frame failed to decode; the connection is being torn down.
    pub const PROTOCOL: u8 = 3;
    /// The server is shutting down.
    pub const SHUTTING_DOWN: u8 = 4;
    /// A submit named an endpoint outside the advertised catalog.
    pub const UNKNOWN_ENDPOINT: u8 = 5;
}

/// One entry of the endpoint catalog advertised in [`Frame::HelloAck`]:
/// a problem the server is prepared to solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointInfo {
    /// Index used by [`Frame::Submit`].
    pub id: u32,
    /// Whether submissions are portfolio-routed across backends.
    pub routed: bool,
    /// Number of decision variables (`q`/`x` length).
    pub num_vars: u32,
    /// Number of constraints (`l`/`u`/`y` length).
    pub num_constraints: u32,
    /// Human-readable endpoint name.
    pub name: String,
}

/// Terminal answer payload of a [`Frame::Response`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireReply {
    /// What happened.
    pub code: ReplyCode,
    /// Solver iterations (0 when the solve never ran).
    pub iterations: u32,
    /// Objective value (bit-exact; meaningful for `Solved`).
    pub obj_val: f64,
    /// Server-side queue wait, µs.
    pub queue_wait_us: u64,
    /// Server-side service time, µs.
    pub service_us: u64,
    /// Micro-batch size the request was drained in.
    pub batch_size: u32,
    /// Primal solution (bit-exact; empty unless the solve ran).
    pub x: Vec<f64>,
    /// Dual solution (bit-exact; empty unless the solve ran).
    pub y: Vec<f64>,
    /// Error detail for `Failed`, empty otherwise.
    pub message: String,
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection opener: magic + [`VERSION`] + tenant auth token.
    Hello {
        /// Tenant auth token (opaque bytes; the server maps it to a
        /// tenant label and admission policy).
        token: Vec<u8>,
    },
    /// Handshake answer: the authenticated tenant label and the
    /// endpoint catalog.
    HelloAck {
        /// Label the token authenticated as.
        tenant: String,
        /// Problems this server serves.
        endpoints: Vec<EndpointInfo>,
    },
    /// A parametric solve request against one catalog endpoint.
    Submit {
        /// Client-assigned id; the response echoes it.
        request_id: u64,
        /// Catalog index from the [`Frame::HelloAck`].
        endpoint: u32,
        /// Relative deadline in µs from server-side admission
        /// (0 = none).
        deadline_us: u64,
        /// Replacement linear cost, or `None` for the template's.
        q: Option<Vec<f64>>,
        /// Replacement bounds `(l, u)`, or `None` for the template's.
        bounds: Option<(Vec<f64>, Vec<f64>)>,
        /// Warm-start point `(x, y)`.
        warm_start: Option<(Vec<f64>, Vec<f64>)>,
        /// 128-bit trace-context id linking the server-side spans of
        /// this request (0 = none, which costs no wire bytes).
        trace_id: u128,
    },
    /// Terminal answer to a [`Frame::Submit`].
    Response {
        /// Echo of the submit's id.
        request_id: u64,
        /// The answer.
        reply: WireReply,
    },
    /// Explicit load-shed answer to a [`Frame::Submit`]: the request
    /// was *not* queued; retry after the hint.
    Shed {
        /// Echo of the submit's id.
        request_id: u64,
        /// Which admission stage shed it.
        reason: ShedReason,
        /// Queue depth observed (queue-full sheds; 0 otherwise).
        depth: u32,
        /// Queue capacity (queue-full sheds; 0 otherwise).
        capacity: u32,
        /// Suggested client backoff, µs.
        retry_after_us: u64,
    },
    /// Cooperative cancellation of an in-flight request.
    Cancel {
        /// Id of the submit to cancel.
        request_id: u64,
    },
    /// Connection-level failure notice; the sender closes after it.
    Error {
        /// One of [`error_code`].
        code: u8,
        /// Human-readable detail.
        message: String,
    },
    /// Clean half-close: no more requests (client) / all answered
    /// (server).
    Goodbye,
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0,
            Frame::HelloAck { .. } => 1,
            Frame::Submit { .. } => 2,
            Frame::Response { .. } => 3,
            Frame::Shed { .. } => 4,
            Frame::Cancel { .. } => 5,
            Frame::Error { .. } => 6,
            Frame::Goodbye => 7,
        }
    }

    fn request_id(&self) -> u64 {
        match self {
            Frame::Submit { request_id, .. }
            | Frame::Response { request_id, .. }
            | Frame::Shed { request_id, .. }
            | Frame::Cancel { request_id } => *request_id,
            _ => 0,
        }
    }
}

/// Decoder/protocol errors. Any of these tears the connection down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length header exceeds the negotiated maximum.
    Oversized {
        /// Claimed body length.
        len: usize,
        /// Negotiated maximum.
        max: usize,
    },
    /// The Hello magic was wrong (not a MIB client).
    BadMagic(u32),
    /// The Hello version is not spoken by this build.
    BadVersion {
        /// Version the peer offered.
        got: u16,
    },
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// A payload failed structural validation.
    Malformed(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::BadMagic(got) => write!(f, "bad protocol magic {got:#010x}"),
            FrameError::BadVersion { got } => {
                write!(
                    f,
                    "peer offered protocol version {got}, this build speaks {VERSION}"
                )
            }
            FrameError::UnknownKind(kind) => write!(f, "unknown frame kind {kind}"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_u32(
        out,
        u32::try_from(v.len()).expect("vector fits a u32 count"),
    );
    for &x in v {
        put_u64(out, x.to_bits());
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(
        out,
        u32::try_from(s.len()).expect("string fits a u32 count"),
    );
    out.extend_from_slice(s.as_bytes());
}

/// Encodes `frame` (length prefix included) onto `out`.
///
/// # Panics
///
/// Panics if a payload section exceeds `u32` counts — unreachable for
/// anything produced by this stack.
pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
    let len_at = out.len();
    put_u32(out, 0); // patched below
    out.push(frame.kind());
    out.push(0); // flags
    put_u64(out, frame.request_id());
    match frame {
        Frame::Hello { token } => {
            put_u32(out, MAGIC);
            put_u16(out, VERSION);
            put_u16(
                out,
                u16::try_from(token.len()).expect("auth token fits a u16 length"),
            );
            out.extend_from_slice(token);
        }
        Frame::HelloAck { tenant, endpoints } => {
            put_str(out, tenant);
            put_u32(
                out,
                u32::try_from(endpoints.len()).expect("catalog fits a u32 count"),
            );
            for e in endpoints {
                put_u32(out, e.id);
                out.push(u8::from(e.routed));
                put_u32(out, e.num_vars);
                put_u32(out, e.num_constraints);
                put_str(out, &e.name);
            }
        }
        Frame::Submit {
            endpoint,
            deadline_us,
            q,
            bounds,
            warm_start,
            trace_id,
            ..
        } => {
            put_u32(out, *endpoint);
            put_u64(out, *deadline_us);
            let trace = *trace_id != 0;
            let mask = u8::from(q.is_some())
                | (u8::from(bounds.is_some()) << 1)
                | (u8::from(warm_start.is_some()) << 2)
                | (u8::from(trace) << 3);
            out.push(mask);
            if let Some(q) = q {
                put_f64_vec(out, q);
            }
            if let Some((l, u)) = bounds {
                put_f64_vec(out, l);
                put_f64_vec(out, u);
            }
            if let Some((x, y)) = warm_start {
                put_f64_vec(out, x);
                put_f64_vec(out, y);
            }
            if trace {
                put_u64(out, *trace_id as u64);
                put_u64(out, (*trace_id >> 64) as u64);
            }
        }
        Frame::Response { reply, .. } => {
            out.push(reply.code as u8);
            put_u32(out, reply.iterations);
            put_u64(out, reply.obj_val.to_bits());
            put_u64(out, reply.queue_wait_us);
            put_u64(out, reply.service_us);
            put_u32(out, reply.batch_size);
            put_f64_vec(out, &reply.x);
            put_f64_vec(out, &reply.y);
            put_str(out, &reply.message);
        }
        Frame::Shed {
            reason,
            depth,
            capacity,
            retry_after_us,
            ..
        } => {
            out.push(*reason as u8);
            put_u32(out, *depth);
            put_u32(out, *capacity);
            put_u64(out, *retry_after_us);
        }
        Frame::Cancel { .. } | Frame::Goodbye => {}
        Frame::Error { code, message } => {
            out.push(*code);
            put_str(out, message);
        }
    }
    let body_len = u32::try_from(out.len() - len_at - 4).expect("frame fits a u32 length");
    out[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Convenience: encodes into a fresh buffer.
pub fn encode_to_vec(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode(frame, &mut out);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(FrameError::Malformed("section runs past the frame end"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, FrameError> {
        let count = self.u32()? as usize;
        // Validate the claimed count against the bytes actually present
        // before allocating: a hostile count cannot balloon memory.
        let raw = self.take(
            count
                .checked_mul(8)
                .ok_or(FrameError::Malformed("vector length overflows"))?,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| FrameError::Malformed("string section is not UTF-8"))
    }

    fn finish(&self) -> Result<(), FrameError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes after the payload"))
        }
    }
}

/// Decodes one frame body (the bytes after the length prefix).
///
/// # Errors
///
/// A [`FrameError`] for a body that is not exactly one well-formed frame.
pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    if body.len() < HEADER_BYTES {
        return Err(FrameError::Malformed("body shorter than the fixed header"));
    }
    let kind = body[0];
    // body[1] is the reserved flags byte; tolerated, not interpreted.
    let request_id = u64::from_le_bytes(body[2..10].try_into().expect("8 bytes"));
    let mut c = Cursor {
        bytes: body,
        pos: HEADER_BYTES,
    };
    let frame = match kind {
        0 => {
            let magic = c.u32()?;
            if magic != MAGIC {
                return Err(FrameError::BadMagic(magic));
            }
            let version = c.u16()?;
            if version != VERSION {
                return Err(FrameError::BadVersion { got: version });
            }
            let token_len = c.u16()? as usize;
            let token = c.take(token_len)?.to_vec();
            Frame::Hello { token }
        }
        1 => {
            let tenant = c.string()?;
            let count = c.u32()? as usize;
            let mut endpoints = Vec::new();
            for _ in 0..count {
                endpoints.push(EndpointInfo {
                    id: c.u32()?,
                    routed: c.u8()? != 0,
                    num_vars: c.u32()?,
                    num_constraints: c.u32()?,
                    name: c.string()?,
                });
            }
            Frame::HelloAck { tenant, endpoints }
        }
        2 => {
            let endpoint = c.u32()?;
            let deadline_us = c.u64()?;
            let mask = c.u8()?;
            if mask & !0b1111 != 0 {
                return Err(FrameError::Malformed("unknown submit section bits"));
            }
            let q = (mask & 1 != 0).then(|| c.f64_vec()).transpose()?;
            let bounds = if mask & 2 != 0 {
                Some((c.f64_vec()?, c.f64_vec()?))
            } else {
                None
            };
            let warm_start = if mask & 4 != 0 {
                Some((c.f64_vec()?, c.f64_vec()?))
            } else {
                None
            };
            let trace_id = if mask & 8 != 0 {
                let lo = c.u64()?;
                let hi = c.u64()?;
                (u128::from(hi) << 64) | u128::from(lo)
            } else {
                0
            };
            Frame::Submit {
                request_id,
                endpoint,
                deadline_us,
                q,
                bounds,
                warm_start,
                trace_id,
            }
        }
        3 => Frame::Response {
            request_id,
            reply: WireReply {
                code: ReplyCode::from_code(c.u8()?)?,
                iterations: c.u32()?,
                obj_val: f64::from_bits(c.u64()?),
                queue_wait_us: c.u64()?,
                service_us: c.u64()?,
                batch_size: c.u32()?,
                x: c.f64_vec()?,
                y: c.f64_vec()?,
                message: c.string()?,
            },
        },
        4 => Frame::Shed {
            request_id,
            reason: ShedReason::from_code(c.u8()?)?,
            depth: c.u32()?,
            capacity: c.u32()?,
            retry_after_us: c.u64()?,
        },
        5 => Frame::Cancel { request_id },
        6 => Frame::Error {
            code: c.u8()?,
            message: c.string()?,
        },
        7 => Frame::Goodbye,
        other => return Err(FrameError::UnknownKind(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Incremental frame decoder over a byte stream: feed reads of any
/// size, pull complete frames. Torn frames simply wait for more bytes;
/// an oversized length header errors before any payload is buffered
/// beyond what was already received.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    max_frame: usize,
}

impl FrameReader {
    /// A reader enforcing `max_frame` bytes per body.
    pub fn new(max_frame: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing (amortized O(1)).
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pulls the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// An oversized length header or a body that fails to decode. The
    /// stream is then unrecoverable — tear the connection down.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if body_len > self.max_frame {
            return Err(FrameError::Oversized {
                len: body_len,
                max: self.max_frame,
            });
        }
        if avail.len() < 4 + body_len {
            return Ok(None);
        }
        let frame = decode_body(&avail[4..4 + body_len])?;
        self.start += 4 + body_len;
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = encode_to_vec(frame);
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        r.extend(&bytes);
        let decoded = r
            .next_frame()
            .expect("well-formed frame")
            .expect("complete frame");
        assert_eq!(r.pending_bytes(), 0, "no leftover bytes");
        decoded
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let frames = [
            Frame::Hello {
                token: b"tenant-a-secret".to_vec(),
            },
            Frame::HelloAck {
                tenant: "tenant-a".into(),
                endpoints: vec![
                    EndpointInfo {
                        id: 0,
                        routed: false,
                        num_vars: 12,
                        num_constraints: 30,
                        name: "Portfolio[0]".into(),
                    },
                    EndpointInfo {
                        id: 1,
                        routed: true,
                        num_vars: 5,
                        num_constraints: 7,
                        name: "Mpc[1]".into(),
                    },
                ],
            },
            Frame::Submit {
                request_id: 42,
                endpoint: 1,
                deadline_us: 30_000_000,
                q: Some(vec![1.5, -2.25, f64::NAN, 0.0]),
                bounds: Some((vec![f64::NEG_INFINITY, 0.0], vec![1.0, f64::INFINITY])),
                warm_start: Some((vec![0.1], vec![0.2, 0.3])),
                trace_id: 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
            },
            Frame::Submit {
                request_id: 43,
                endpoint: 0,
                deadline_us: 0,
                q: None,
                bounds: None,
                warm_start: None,
                trace_id: 0,
            },
            Frame::Response {
                request_id: 42,
                reply: WireReply {
                    code: ReplyCode::Solved,
                    iterations: 75,
                    obj_val: -17.25,
                    queue_wait_us: 120,
                    service_us: 900,
                    batch_size: 4,
                    x: vec![1.0, -0.0, 3.5e-300],
                    y: vec![2.0; 7],
                    message: String::new(),
                },
            },
            Frame::Shed {
                request_id: 99,
                reason: ShedReason::QueueFull,
                depth: 64,
                capacity: 64,
                retry_after_us: 2_000,
            },
            Frame::Cancel { request_id: 7 },
            Frame::Error {
                code: error_code::PROTOCOL,
                message: "bad juju".into(),
            },
            Frame::Goodbye,
        ];
        for (i, code) in ReplyCode::ALL.into_iter().enumerate() {
            assert_eq!(code as usize, i, "ALL is indexed by wire value");
            assert_eq!(ReplyCode::from_code(code as u8), Ok(code));
        }
        for frame in &frames {
            let decoded = roundtrip(frame);
            // NaN payloads break PartialEq; compare the re-encoding
            // instead, which is bitwise.
            assert_eq!(
                encode_to_vec(&decoded),
                encode_to_vec(frame),
                "round-trip must be bitwise: {frame:?}"
            );
        }
    }

    #[test]
    fn float_bits_survive_exactly() {
        let patterns = [
            0x7ff8_0000_dead_beefu64, // NaN with payload
            0x7ff0_0000_0000_0000,    // +inf
            0x8000_0000_0000_0000,    // -0.0
            0x0000_0000_0000_0001,    // smallest subnormal
            0x3ff0_0000_0000_0000,    // 1.0
        ];
        let q: Vec<f64> = patterns.iter().map(|&b| f64::from_bits(b)).collect();
        let Frame::Submit { q: Some(out), .. } = roundtrip(&Frame::Submit {
            request_id: 1,
            endpoint: 0,
            deadline_us: 0,
            q: Some(q),
            bounds: None,
            warm_start: None,
            trace_id: 0,
        }) else {
            panic!("submit round-trip changed the frame kind")
        };
        let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, patterns);
    }

    #[test]
    fn torn_frames_reassemble_byte_by_byte() {
        let frames = vec![
            Frame::Cancel { request_id: 5 },
            Frame::Submit {
                request_id: 6,
                endpoint: 2,
                deadline_us: 17,
                q: Some(vec![1.0, 2.0, 3.0]),
                bounds: None,
                warm_start: None,
                trace_id: u128::MAX,
            },
            Frame::Goodbye,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            encode(f, &mut wire);
        }
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let mut seen = Vec::new();
        for &b in &wire {
            r.extend(&[b]);
            while let Some(f) = r.next_frame().expect("stream is well-formed") {
                seen.push(f);
            }
        }
        assert_eq!(seen, frames);
        assert_eq!(r.pending_bytes(), 0);
    }

    #[test]
    fn oversized_length_header_is_rejected_before_buffering() {
        let mut r = FrameReader::new(1024);
        r.extend(&10_000_000u32.to_le_bytes());
        assert_eq!(
            r.next_frame(),
            Err(FrameError::Oversized {
                len: 10_000_000,
                max: 1024
            })
        );
    }

    #[test]
    fn bad_magic_and_bad_version_are_rejected() {
        let mut wire = encode_to_vec(&Frame::Hello { token: vec![1, 2] });
        // Corrupt the magic (body offset: 4 len + 10 header).
        wire[14] ^= 0xff;
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        r.extend(&wire);
        assert!(matches!(r.next_frame(), Err(FrameError::BadMagic(_))));

        // Any version but VERSION is refused, the retired v1 included
        // (the LE u16 at body offset 4).
        for v in [0u16, 1, 0x7f] {
            let mut wire = encode_to_vec(&Frame::Hello { token: vec![] });
            wire[18..20].copy_from_slice(&v.to_le_bytes());
            let mut r = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
            r.extend(&wire);
            assert_eq!(r.next_frame(), Err(FrameError::BadVersion { got: v }));
        }

        // VERSION decodes.
        let hello = Frame::Hello {
            token: b"tok".to_vec(),
        };
        let wire = encode_to_vec(&hello);
        assert_eq!(wire[18..20], VERSION.to_le_bytes());
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        r.extend(&wire);
        assert_eq!(r.next_frame(), Ok(Some(hello)));
    }

    #[test]
    fn unknown_submit_section_bit_is_rejected() {
        let mut wire = encode_to_vec(&Frame::Submit {
            request_id: 9,
            endpoint: 1,
            deadline_us: 100,
            q: None,
            bounds: None,
            warm_start: None,
            trace_id: 0,
        });
        // The section mask follows the 10-byte header, the endpoint and
        // the deadline; bits 0-3 are q, bounds, warm start and trace id.
        let mask_at = 4 + 10 + 4 + 8;
        assert_eq!(wire[mask_at], 0);
        wire[mask_at] = 1 << 4;
        assert_eq!(
            decode_body(&wire[4..]),
            Err(FrameError::Malformed("unknown submit section bits"))
        );
    }

    #[test]
    fn zero_trace_id_costs_no_wire_bytes_at_v2() {
        let submit = |trace_id| Frame::Submit {
            request_id: 9,
            endpoint: 1,
            deadline_us: 100,
            q: None,
            bounds: None,
            warm_start: None,
            trace_id,
        };
        let untraced = encode_to_vec(&submit(0));
        let traced = encode_to_vec(&submit(0xabcd_ef01_2345_6789_abcd_ef01_2345_6789));
        // The trace section is 16 bytes and its mask bit, nothing else.
        assert_eq!(untraced.len() + 16, traced.len());
        assert_eq!(untraced[26] | (1 << 3), traced[26]);
        assert_eq!(
            decode_body(&traced[4..]),
            Ok(submit(0xabcd_ef01_2345_6789_abcd_ef01_2345_6789))
        );
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_rejected() {
        let mut body = vec![250u8, 0];
        body.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(decode_body(&body), Err(FrameError::UnknownKind(250)));

        let mut wire = encode_to_vec(&Frame::Goodbye);
        // Lie about the length: one trailing byte inside the body.
        wire.push(0xaa);
        let len = (wire.len() - 4) as u32;
        wire[..4].copy_from_slice(&len.to_le_bytes());
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        r.extend(&wire);
        assert_eq!(
            r.next_frame(),
            Err(FrameError::Malformed("trailing bytes after the payload"))
        );
    }

    #[test]
    fn hostile_vector_count_cannot_balloon_memory() {
        // A submit claiming a 500M-entry q in a tiny body must fail on
        // the length check, not attempt the allocation.
        let mut body = vec![2u8, 0];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes()); // endpoint
        body.extend_from_slice(&0u64.to_le_bytes()); // deadline
        body.push(1); // mask: q present
        body.extend_from_slice(&500_000_000u32.to_le_bytes());
        body.extend_from_slice(&[0u8; 16]); // far fewer than claimed
        assert_eq!(
            decode_body(&body),
            Err(FrameError::Malformed("section runs past the frame end"))
        );
    }

    #[test]
    fn truncated_header_waits_instead_of_erroring() {
        let wire = encode_to_vec(&Frame::Goodbye);
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        r.extend(&wire[..3]);
        assert_eq!(r.next_frame(), Ok(None));
        r.extend(&wire[3..]);
        assert_eq!(r.next_frame(), Ok(Some(Frame::Goodbye)));
    }
}
