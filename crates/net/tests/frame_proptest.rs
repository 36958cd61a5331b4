//! Property tests of the frame codec: randomized round-trips through a
//! randomly torn byte stream, and rejection properties for hostile
//! headers.

use mib_net::frame::{
    decode_body, encode_to_vec, Frame, FrameError, FrameReader, ShedReason,
    DEFAULT_MAX_FRAME_BYTES, VERSION,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// An arbitrary payload vector whose values cover the full f64 bit
/// space (including NaNs, infinities and subnormals) by generating raw
/// bit patterns.
fn f64_bits_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    vec(0u64..u64::MAX, 0..max_len).prop_map(|bits| bits.into_iter().map(f64::from_bits).collect())
}

fn submit_frame() -> impl Strategy<Value = Frame> {
    // The vendored proptest implements tuple strategies up to arity 5;
    // nest pairs to stay under it.
    (
        (0u64..u64::MAX, 0u32..16, 0u64..10_000_000),
        (
            f64_bits_vec(40),
            (f64_bits_vec(20), f64_bits_vec(20)),
            0u32..8,
        ),
    )
        .prop_map(
            |((request_id, endpoint, deadline_us), (q, (l, u), mask))| Frame::Submit {
                request_id,
                endpoint,
                deadline_us,
                // Derive a nontrivial 128-bit id from the other draws so
                // both halves of the wide word get exercised.
                trace_id: if mask & 4 != 0 {
                    (u128::from(request_id) << 64) | u128::from(deadline_us ^ 0x5a5a)
                } else {
                    0
                },
                q: (mask & 1 != 0).then_some(q),
                bounds: (mask & 2 != 0).then_some((l, u)),
                warm_start: None,
            },
        )
}

fn shed_frame() -> impl Strategy<Value = Frame> {
    (0u64..u64::MAX, 0u32..3, 0u32..1000, 0u64..5_000_000).prop_map(
        |(request_id, reason, depth, retry)| Frame::Shed {
            request_id,
            reason: match reason {
                0 => ShedReason::RateLimited,
                1 => ShedReason::OverShare,
                _ => ShedReason::QueueFull,
            },
            depth,
            capacity: depth.saturating_add(1),
            retry_after_us: retry,
        },
    )
}

/// Feeds `wire` to a reader in chunks whose sizes are drawn from
/// `cuts`, collecting every decoded frame.
fn feed_chunked(wire: &[u8], cuts: &[usize]) -> Vec<Frame> {
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
    let mut seen = Vec::new();
    let mut pos = 0;
    let mut cut = 0;
    while pos < wire.len() {
        let step = (cuts[cut % cuts.len()] + 1).min(wire.len() - pos);
        cut += 1;
        reader.extend(&wire[pos..pos + step]);
        pos += step;
        while let Some(f) = reader.next_frame().expect("stream is well-formed") {
            seen.push(f);
        }
    }
    assert_eq!(reader.pending_bytes(), 0, "no residue after a whole stream");
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    /// Any sequence of frames, however the stream is torn into reads,
    /// reassembles to the identical sequence — compared on re-encoded
    /// bytes so NaN payloads are checked bitwise.
    fn torn_streams_round_trip_bitwise(
        frames in vec(submit_frame(), 1..8),
        extra in vec(shed_frame(), 0..4),
        cuts in vec(0usize..96, 1..12),
    ) {
        let mut all: Vec<Frame> = frames;
        all.extend(extra);
        all.push(Frame::Goodbye);
        let mut wire = Vec::new();
        for f in &all {
            wire.extend_from_slice(&encode_to_vec(f));
        }
        let seen = feed_chunked(&wire, &cuts);
        prop_assert_eq!(seen.len(), all.len());
        for (got, want) in seen.iter().zip(&all) {
            prop_assert_eq!(encode_to_vec(got), encode_to_vec(want));
        }
    }

    #[test]
    /// The torn-stream property holds at every version the codec speaks
    /// (only [`VERSION`]): a stream opened by a Hello at that version and
    /// carrying traced submits reassembles with the version and every
    /// trace id intact, and re-encodes to the identical bytes.
    fn torn_streams_round_trip_at_every_version(
        version in VERSION..VERSION + 1,
        frames in vec(submit_frame(), 1..6),
        cuts in vec(0usize..96, 1..12),
    ) {
        let mut all = vec![Frame::Hello { token: vec![3; 5] }];
        all.extend(frames);
        all.push(Frame::Goodbye);
        let mut wire = Vec::new();
        for f in &all {
            wire.extend_from_slice(&encode_to_vec(f));
        }
        prop_assert_eq!(u16::from_le_bytes([wire[18], wire[19]]), version);
        let seen = feed_chunked(&wire, &cuts);
        prop_assert_eq!(seen.len(), all.len());
        for (got, want) in seen.iter().zip(&all) {
            if let (
                Frame::Submit { trace_id: a, .. },
                Frame::Submit { trace_id: b, .. },
            ) = (got, want)
            {
                prop_assert_eq!(a, b);
            }
            prop_assert_eq!(encode_to_vec(got), encode_to_vec(want));
        }
    }

    #[test]
    /// A length header beyond the limit is rejected no matter what
    /// bytes follow, and before the body arrives.
    fn oversized_headers_always_reject(
        excess in 1usize..1_000_000,
        limit in 64usize..4096,
    ) {
        let mut reader = FrameReader::new(limit);
        let len = u32::try_from(limit + excess).unwrap_or(u32::MAX);
        reader.extend(&len.to_le_bytes());
        prop_assert_eq!(
            reader.next_frame(),
            Err(FrameError::Oversized { len: len as usize, max: limit })
        );
    }

    #[test]
    /// Truncating a well-formed body anywhere strictly inside it never
    /// panics and never yields a frame: it is Malformed (or, for a
    /// truncated Hello, possibly a magic/version error — but never Ok).
    fn truncated_bodies_never_decode(
        frame in submit_frame(),
        keep_frac in 0usize..1000,
    ) {
        let wire = encode_to_vec(&frame);
        let body = &wire[4..];
        if body.len() > 1 {
            let keep = 1 + keep_frac * (body.len() - 1) / 1000;
            if keep < body.len() {
                prop_assert!(decode_body(&body[..keep]).is_err());
            }
        }
    }

    #[test]
    /// Flipping the kind byte to garbage is always caught.
    fn unknown_kinds_reject(kind in 8u8..255, id in 0u64..u64::MAX) {
        let mut body = vec![kind, 0];
        body.extend_from_slice(&id.to_le_bytes());
        prop_assert_eq!(decode_body(&body), Err(FrameError::UnknownKind(kind)));
    }

    #[test]
    /// Hello frames with a corrupted version word are rejected as
    /// BadVersion for every `u16` other than the one spoken version.
    fn wrong_versions_reject(draw in 0u16..u16::MAX) {
        // Skip over VERSION so the draws cover every other u16.
        let version = if draw >= VERSION { draw + 1 } else { draw };
        let mut wire = encode_to_vec(&Frame::Hello { token: vec![7; 3] });
        wire[18..20].copy_from_slice(&version.to_le_bytes());
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        reader.extend(&wire);
        prop_assert_eq!(
            reader.next_frame(),
            Err(FrameError::BadVersion { got: version })
        );
    }
}
